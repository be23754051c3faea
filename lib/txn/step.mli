(** Transaction steps.

    A step either updates an entity or carries the special lock/unlock
    semantics (Section 2). Under the paper's interpretation every update
    reads and rewrites its entity, so update steps on a common entity always
    conflict. *)

type action = Lock | Unlock | Update

type t = { action : action; entity : Database.entity }

val lock : Database.entity -> t

val unlock : Database.entity -> t

val update : Database.entity -> t

val is_lock : t -> bool

val is_unlock : t -> bool

val is_update : t -> bool

val equal : t -> t -> bool

val to_string : Database.t -> t -> string
(** Paper notation: [Lx], [Ux], or bare [x] for an update. *)
