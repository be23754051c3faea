open Distlock_txn

(** Systems of shared/exclusive-locked transactions, their legal
    schedules, and conflict serializability. *)

type t

val make : Database.t -> Rw_txn.t list -> t

val db : t -> Database.t

val num_txns : t -> int

val txn : t -> int -> Rw_txn.t

val pair : t -> Rw_txn.t * Rw_txn.t

val validate : t -> string list

type event = int * int

val is_legal : t -> event list -> bool
(** A complete legal schedule: respects every partial order, and lock
    compatibility — any number of concurrent shared holders, exclusive
    holders alone. *)

val is_serializable : t -> event list -> bool
(** Conflict serializability where two locked sections on the same entity
    conflict unless both locks are shared. *)

val iter_legal : t -> (event list -> unit) -> unit
(** All complete legal schedules (exponential). *)

val safe : ?limit:int -> t -> bool
(** Every legal schedule serializable, by enumeration; raises [Failure]
    past [limit] (default [2_000_000]) schedules. *)

val conflicting_common : t -> Database.entity list
(** Entities locked by both transactions of a pair with at least one
    exclusive mode — the vertex set of the D-graph analog. *)
