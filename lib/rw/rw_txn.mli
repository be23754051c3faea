open Distlock_txn
open Distlock_order

(** Locked transactions with shared and exclusive lock modes — the lock
    "variant" the paper notes changes the theory very little (Section 1,
    citing [8, 18, 19]).

    A step either takes a shared ([Slock]) or exclusive ([Xlock]) lock on
    an entity or releases it; at most one lock/unlock pair per entity, the
    lock preceding the unlock, per-site steps totally ordered — the same
    discipline as the exclusive model. The locked section stands for the
    transaction's access: a shared section reads, an exclusive section may
    write, so two sections on the same entity conflict unless both are
    shared. *)

type mode = Shared | Exclusive

type action = Lock of mode | Unlock

type step = { action : action; entity : Database.entity }

type t

val make :
  name:string -> ?labels:string array -> steps:step array -> Poset.t -> t

val name : t -> string

val num_steps : t -> int

val step : t -> int -> step

val label : t -> int -> string

val order : t -> Poset.t

val precedes : t -> int -> int -> bool

val lock_of : t -> Database.entity -> (int * mode) option

val unlock_of : t -> Database.entity -> int option

val locked_entities : t -> (Database.entity * mode) list

val is_total : t -> bool

val validate : Database.t -> t -> string list
(** Violations of the discipline, rendered; empty iff well-formed. *)
