open Distlock_txn

(** Memoized state-graph safety oracle.

    {!Enumerate} decides safety by walking complete legal schedules —
    factorially many of them. But safety in the paper's model depends
    only on which *execution states* are reachable: a state is the pair
    (per-transaction done-bitmask, conflict-direction summary over
    ordered transaction pairs). Everything dynamic — enabled steps, lock
    holders, which conflict edges a future step will add — is a function
    of that pair, so schedules reaching the same state are
    interchangeable and the search collapses to a DFS over distinct
    states pruned by a visited table.

    States are packed into keys of [w] words: first the done bitmasks
    (one bit per step, 63 bits per word), then — word-aligned — the
    [n*n] conflict-edge bits. Lock holders are derivable from the done
    masks (an entity is held by the transaction that has executed its
    lock but not its unlock), so they stay out of the key. The visited
    table is flat: state [id]'s key is [w] consecutive words of one
    growable int array, parent pointers and discovery events are int
    arrays indexed by [id], and an open-addressing index of [id + 1]
    slots is probed with a multiplicative hash of the live words, whose
    top bits pick the slot. A known state costs one probe and a new
    state a copy of its words; stepping, undoing and probing allocate
    nothing, for any key width.

    The search is reduced by persistent sets: in a state where some
    enabled step is an update or unlock of a guarded entity, or the lock
    of a guarded entity no other transaction touches, the first such
    step in scan order (transactions ascending, then steps ascending) is
    explored alone. An entity is guarded when every transaction touching
    it locks and unlocks it exactly once and orders its other steps on
    it strictly between the two, so no other transaction can step on it
    before the chosen step runs. Every other state expands every enabled
    step. The reduced search still reaches every complete state and
    every deadlocked state of the full graph.

    The system is unsafe iff some reachable complete state's conflict
    digraph is cyclic; the witness schedule is rebuilt from parent
    pointers recorded at first discovery, so the oracle meets
    [Brute.verdict]'s [Unsafe of Schedule.t] contract. A reachable
    non-final state with no enabled step is exactly a locking deadlock,
    so {!has_deadlock} falls out of the same search (memoized on the
    done masks alone — deadlock dynamics ignore conflict history). *)

type outcome =
  | Safe
  | Unsafe of Schedule.t  (** A legal non-serializable schedule. *)
  | Exhausted of { visited : int; limit : int }
      (** The visited-state budget ran out before the graph was covered. *)

(** Collapse statistics of one search, for E16 and the [--stats] path.
    [states] and [dup_hits] count the reduced graph the search walks;
    after an exhaustive search [complete] and [deadlocked] equal the full
    graph's counts. *)
type stats = {
  states : int;  (** Distinct states visited (visited-table insertions). *)
  dup_hits : int;  (** Transitions pruned because the target was known. *)
  complete : int;  (** Distinct complete (all-steps-done) states. *)
  deadlocked : int;  (** Distinct non-final states with no enabled step. *)
}

val decide : ?limit:int -> System.t -> outcome * stats
(** Safety by state-graph reachability, returning at the first complete
    state with a cyclic conflict digraph. [limit] (default [10_000_000])
    bounds distinct states visited; past it the outcome is
    {!Exhausted}, never an exception. *)

val census : ?limit:int -> System.t -> outcome * stats
(** Like {!decide} but explores the whole reduced graph even after an
    unsafe state is found, so [states] and [dup_hits] describe the
    reduced graph, and [complete] and [deadlocked] are the full state
    graph's: one complete state per conflict digraph some legal schedule
    produces, and every reachable deadlock (used by bench E16 to compare
    against the schedule census). *)

val has_deadlock : System.t -> bool
(** Can the system reach a locking deadlock? Same search keyed on the
    done masks only, with an early exit at the first deadlocked state.
    Exhaustive but memoized: the mask graph is exponentially smaller
    than the schedule tree. *)

val deadlocked_now :
  System.t ->
  executed:(int -> int -> bool) ->
  holder:(Database.entity -> int option) ->
  bool
(** The per-state deadlock predicate {!has_deadlock} searches with,
    exposed for online use: given the current execution state —
    [executed i s] tells whether transaction [i] has executed step [s],
    [holder e] who holds entity [e] — is some transaction unfinished
    while no pending step of any transaction is enabled? A Lock step is
    enabled when its entity is free or already held by its own
    transaction; Unlock/Update steps are enabled once their
    predecessors have executed. This is the simulator's wait-for
    detector: it fires exactly on the reachable states the offline
    search counts as [deadlocked], and the reduced search still reaches
    every one of them. *)
