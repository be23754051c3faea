(** A locked transaction system [T = {T1, ..., Tr}] over one database. *)

type t

val make : Database.t -> Txn.t list -> t
(** Raises [Invalid_argument] on an empty transaction list or duplicate
    transaction names. *)

val db : t -> Database.t

val txns : t -> Txn.t array
(** A copy. *)

val num_txns : t -> int

val txn : t -> int -> Txn.t

val total_steps : t -> int
(** The paper's [n]: steps summed over all transactions. *)

val pair : t -> Txn.t * Txn.t
(** The two transactions of a two-transaction system; raises
    [Invalid_argument] otherwise. *)

val common_locked : t -> int -> int -> Database.entity list
(** Entities locked-unlocked by both of two transactions — the vertex set
    of [D(Ti,Tj)] (Definition 1). *)

val common_locked_txns : Txn.t -> Txn.t -> Database.entity list
(** {!common_locked} of two transactions given directly. *)

val validate : ?strict:bool -> t -> (Txn.t * Validate.violation) list
(** All violations across all transactions. *)

val validate_exn : ?strict:bool -> t -> unit

val sites_used : t -> int list
(** Sites actually storing some entity touched by some transaction. *)

val fingerprint : t -> string
(** A canonical fingerprint (32-char hex digest) over everything a
    safety verdict depends on: the database (entity names and their
    stored-at sites, in id order) and one {!Txn.fingerprint} per
    transaction, in system order. Two systems with equal fingerprints
    get the same verdict, so the digest keys the engine's verdict
    cache; any perturbation — moving an entity to another site, adding
    or removing a precedence — changes it. *)

val pair_fingerprint : t -> int -> int -> string
(** [pair_fingerprint t i j] is a canonical fingerprint of the
    two-transaction subsystem [{Ti, Tj}]: the sites of the entities the
    two transactions touch plus their two {!Txn.fingerprint}s, combined
    order-canonically so [pair_fingerprint t i j =
    pair_fingerprint t j i]. It depends on nothing else — reordering,
    adding, removing, or editing {e other} transactions (or entities
    neither touches) leaves it unchanged — so it keys pair-verdict
    caches across edits of the enclosing system. Raises
    [Invalid_argument] when [i = j]. *)

val pair_fingerprint_with : fp:(int -> string) -> t -> int -> int -> string
(** {!pair_fingerprint} with the per-transaction digests supplied by
    [fp] (which must return [Txn.fingerprint (txn t i)] for index [i])
    instead of recomputed — for callers that already hold them, e.g. a
    decision digesting each transaction once however many pairs it is
    in. The result is byte-identical to {!pair_fingerprint}. *)

val txns_pair_fingerprint :
  Database.t -> Txn.t * string -> Txn.t * string -> string
(** [txns_pair_fingerprint db (ta, fa) (tb, fb)] is {!pair_fingerprint}
    of two transactions over [db], each given with its
    {!Txn.fingerprint}, without building a system: byte-identical to
    [pair_fingerprint] on any system over [db] holding both. *)
