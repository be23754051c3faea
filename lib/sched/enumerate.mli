open Distlock_txn

(** Exhaustive and randomized generation of legal schedules.

    The walk maintains each transaction's ready frontier and a lock table;
    a step is enabled when its intra-transaction predecessors have run and,
    for a lock step, the entity is free. Branches that dead-end (a locking
    deadlock) are abandoned: schedules are total orderings of *all* steps,
    so deadlocked prefixes are not schedules. *)

val successors : System.t -> int array array array
(** [(successors sys).(i).(s)] lists, ascending, the steps that
    transaction [i] orders after its step [s]. Listed once per walk, so
    executing a step updates only its successors; {!Stategraph} steps
    over the same tables. *)

val in_degrees : int array array array -> int array array
(** Per step of a {!successors} table, the number of steps whose lists
    name it: its unexecuted predecessors before anything has run. *)

val iter_legal : System.t -> (Schedule.t -> unit) -> unit
(** Every complete legal schedule, each exactly once. Exponential: meant
    for the brute-force oracle on small systems. *)

val exists_legal : System.t -> (Schedule.t -> bool) -> bool

val find_legal : System.t -> (Schedule.t -> bool) -> Schedule.t option

type count =
  | Exact of int  (** The space was exhausted; this is the true count. *)
  | Exhausted of int
      (** More than [limit] legal schedules exist; counting stopped. *)

val count_legal : ?limit:int -> System.t -> count
(** Counts complete legal schedules, giving up past [limit] (default
    [10_000_000]) with a typed {!Exhausted} instead of an exception. *)

val random_legal : Random.State.t -> System.t -> Schedule.t option
(** A random complete legal schedule via uniform random choice among
    enabled steps (an incrementally maintained set — O(1) per pick),
    restarting on deadlock (up to 100 attempts).
    [None] if every attempt deadlocked. *)

val has_deadlock : System.t -> bool
(** Is some legal *prefix* extendable to no complete schedule — i.e., can
    the system reach a locking deadlock? Exhaustive over prefixes (small
    systems; see {!Stategraph.has_deadlock} for the memoized search) and
    terminates at the first deadlocked prefix. *)
