(** Ergonomic construction of transactions.

    Steps are declared with string labels and precedences are given by
    label, either as individual arcs or as chains ([["a";"b";"c"]] meaning
    [a < b < c]). Entities are referred to by name and must already be
    registered in the database. *)

type action_spec =
  [ `Lock of string | `Unlock of string | `Update of string ]

val make :
  Database.t ->
  name:string ->
  steps:(string * action_spec) list ->
  ?arcs:(string * string) list ->
  ?chains:string list list ->
  unit ->
  (Txn.t, string) result
(** Builds a transaction. Errors (as [Error msg]) on: duplicate or unknown
    labels, unknown entities, or a cyclic precedence declaration. The
    result is not validated against the locking discipline — run
    {!Validate.check} for that. *)

type draft
(** One transaction's steps with its precedences resolved to step
    indices; its entities are still names. {!make} and
    {!Parse.system_of_string} both resolve through {!draft} and
    {!finish}. *)

val draft :
  labels:string array ->
  actions:Step.action array ->
  entities:string array ->
  arcs:string array ->
  chains:string array list ->
  draft
(** Step [i] is [actions.(i)] on the entity named [entities.(i)],
    labelled [labels.(i)]. [arcs] holds the label pairs [a -> b]
    flattened ([a] at [2k], [b] at [2k+1]), and each chain [a b c ...]
    means [a < b < c < ...]. Labels resolve here, so arcs and chains may
    name steps in any order. *)

val finish : Database.t -> name:string -> draft -> (Txn.t, string) result
(** Resolves the entity names in the database and closes the order.
    The first error wins, checked in this order: a duplicate label; an
    unknown entity, in step order; an unknown label, the arcs in order
    and then each chain's pairs from its last pair back, [a] before [b]
    within a pair; a cyclic precedence declaration. *)

val make_exn :
  Database.t ->
  name:string ->
  steps:(string * action_spec) list ->
  ?arcs:(string * string) list ->
  ?chains:string list list ->
  unit ->
  Txn.t

val total : Database.t -> name:string -> action_spec list -> Txn.t
(** A totally ordered (centralized-style) transaction executing the given
    actions in sequence; labels are auto-generated from the actions. *)

val locked_sequence : Database.t -> name:string -> string list -> Txn.t
(** [locked_sequence db ~name ["x"; "y"]] is the totally ordered
    transaction [Lx x Ux Ly y Uy]: lock, update, unlock each entity in
    turn. *)

val two_phase_sequence : Database.t -> name:string -> string list -> Txn.t
(** [Lx Ly ... x y ... Ux Uy ...]: all locks, then all updates, then all
    unlocks — a canonical two-phase transaction. *)
