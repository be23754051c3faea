open Distlock_txn
open Distlock_sched

(** The paper's update semantics, executed symbolically.

    Section 2 interprets each step [s] as the indivisible pair

    {v temp_s := e(s);  e(s) := f_s(temp_s1, ..., temp_sk) v}

    where [s1 ... sk] are the steps of the same transaction preceding [s]
    (including [s] itself), and defines a schedule to be {e serializable}
    when it is equivalent to a serial schedule {e under all
    interpretations of the update functions} [f_s].

    Quantifying over all interpretations is the same as computing with
    uninterpreted (Herbrand) terms: this module executes a schedule
    symbolically — each update builds the term
    [F_{txn,step}(read values of its transaction predecessors)] — and two
    schedules are equivalent iff they leave every entity holding the same
    term. [equivalent_serial] searches the r! serial orders directly,
    giving an oracle for the paper's definition that is independent of the
    conflict-graph test; the test suite checks the two agree on every
    generated system with updates. *)

type term
(** A Herbrand value: either an entity's initial value or an application
    of an uninterpreted update function to previously read values. *)

val initial : Database.entity -> term

val pp_term : Database.t -> Format.formatter -> term -> unit

val equal_term : term -> term -> bool

val final_state : System.t -> Schedule.t -> (Database.entity * term) list
(** Entity values after symbolically executing the schedule (which need
    not be legal — only the ordering of update steps matters here).
    Entities never updated keep their initial value. *)

val states_equal :
  (Database.entity * term) list -> (Database.entity * term) list -> bool

val equivalent_serial : System.t -> Schedule.t -> int list option
(** A serial transaction order whose execution leaves every entity with
    the same final term, if any — the paper's serializability, decided by
    definition. Exponential in the number of transactions. *)

val is_serializable : System.t -> Schedule.t -> bool
