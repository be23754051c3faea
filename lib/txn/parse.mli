(** A small text format for transaction systems, used by the CLI and for
    fixtures. Example:

    {v
    # Fig 1-style system
    entity x @ 1
    entity z @ 2

    txn T1 {
      step Lx lock x
      step ux update x
      step Ux unlock x
      chain Lx ux Ux
    }

    txn T2 {
      step a lock x
      step b unlock x
      arc a -> b
    }
    v}

    Lines are [entity <name> @ <site>], or inside a [txn <name> { ... }]
    block: [step <label> (lock|unlock|update) <entity>],
    [arc <label> -> <label>], [chain <label> <label> ...]. [#] starts a
    comment. Tokens are separated by spaces and tabs. *)

val system_of_string : string -> (System.t, string) result
(** Reads the text in one pass. Arcs and chains may name steps declared
    later in their block, and an entity may be declared after the
    blocks that use it. Of several errors the first line error wins
    (["line N: ..."]), then an unterminated block, then the first bad
    block (["txn NAME: ..."], checked as {!Builder.finish} says), then
    an empty system, then duplicate transaction names. *)

val system_to_string : System.t -> string
(** Round-trips through {!system_of_string} (labels are preserved; the
    emitted precedences are the covering relation). *)
