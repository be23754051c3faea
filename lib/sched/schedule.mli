open Distlock_txn

(** Schedules: total orderings of the steps of a transaction system.

    An event is a pair [(txn index, step index)]. A *schedule* in the
    paper's sense (Section 2) additionally satisfies the two legality
    conditions checked by {!Legality}. *)

type event = int * int

type t

val of_events : event list -> t

val events : t -> event list

val length : t -> int

val event : t -> int -> event

val serial : System.t -> int list -> t
(** [serial sys [i1; ...; ik]] runs the transactions one after another in
    the given order, each along a default linear extension of its own
    partial order. *)

val is_complete : System.t -> t -> bool
(** Every step of every transaction occurs exactly once. *)

val project : t -> int -> int array
(** [project h i] is the sequence of step indices of transaction [i], in
    schedule order. *)

val to_string : System.t -> t -> string
(** Paper notation with transaction subscripts, e.g.
    ["Lx_1 Lz_2 x_1 ..."]. *)
