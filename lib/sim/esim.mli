open Distlock_txn
open Distlock_sched

(** The lock-manager simulator: the system the paper's theory is about,
    made executable.

    One instance per transaction of a {!System.t} runs under a
    scheduling {!Engine.policy}. The simulator pops timestamped events
    off a {!Clock}, routes lock traffic through the {!Backend} lock
    table, charges message costs from a {!Latency} model, and injects
    worker crashes from a {!Scenario}.

    Each scheduling decision ({e tick}) first drains the backend's
    notices, then gathers every enabled step of every live instance: a
    step is enabled when all its intra-transaction predecessors have run
    and their results have arrived, and, for a lock, when the backend
    can take the request. The policy picks one and executes it. When
    nothing is enabled the clock jumps to the next message arrival or
    backend wake-up; when every live instance waits on a lock, the
    wait-for graph's cycle is found and its youngest member aborted
    (its locks released, its progress undone, and it restarts from
    scratch). A run ends when every instance has committed.

    On the default scenario (instant backend, zero latency, no faults)
    the committed history — each instance's final, completed attempt,
    interleaved as executed — is by construction a legal schedule of the
    system. Running an {e unsafe} system under a random-enough policy
    therefore eventually exhibits a non-serializable committed history,
    while a safe system never does (bench E8). Under a constant
    cross-site latency [d] the makespan equals the tick count of a
    lockstep loop that idles a tick at a time while messages are in
    flight; [test/lockstep_sim.ml] is that loop, and the qcheck
    equivalence properties in [test/test_esim.ml] hold the simulator to
    it seed for seed.

    With the leased backend and crashes enabled, committed histories can
    be {e illegal} (two holders of one entity at once, after a lease is
    lost) and therefore non-serializable even for systems the static
    checker proves safe: the static verdict quantifies over legal
    schedules only. Bench E19 measures that gap. *)

type stats = {
  ticks : int;  (** Scheduling decisions taken. *)
  makespan : int;  (** Simulated time at completion; exceeds [ticks]
                       when latency or downtime left the clock idle. *)
  commits : int;
  aborts : int;
  deadlocks : int;
  crashes : int;  (** Worker crash events injected. *)
  lease_expiries : int;  (** Leases the backend expired. *)
  stale_unlocks : int;  (** Unlocks by a worker that had lost the lock. *)
}

type outcome = {
  history : Schedule.t;
  serializable : bool;
  legal : bool;
      (** Whether the committed history is even a legal schedule; lost
          leases typically make it illegal (overlapping locked
          sections), which is how non-serializability sneaks past the
          static verdict. *)
  stats : stats;
  trace : Trace.event list;
}

val run :
  policy:Engine.policy ->
  ?scenario:Scenario.t ->
  ?check_serializability:bool ->
  System.t ->
  (outcome, string) result
(** One seeded run to completion. Deterministic: the same policy and
    scenario produce bit-identical outcomes. Three independent RNG
    streams (policy, faults, latency) keep each knob from perturbing the
    others. [Error] carries ["max aborts exceeded"] past
    [scenario.max_aborts] restarts — a livelock guard.
    [check_serializability] (default [true]) controls the per-history
    conflict and legality checks; with [false], [serializable] and
    [legal] are reported [true] unchecked, which is sound only for a
    system proven safe and a fault-free scenario. *)

type summary = {
  runs : int;  (** Runs that completed (errors excluded). *)
  errors : int;  (** Runs that exceeded the abort budget. *)
  violations : int;  (** Non-serializable committed histories. *)
  illegal : int;  (** Committed histories that are not legal schedules. *)
  total_aborts : int;
  total_deadlocks : int;
  total_ticks : int;
  total_crashes : int;
  total_expiries : int;
  total_stale_unlocks : int;
}

val measure :
  ?precheck:bool ->
  ?scenario:Scenario.t ->
  ?seeds:int list ->
  ?on_run:(int -> outcome -> unit) ->
  System.t ->
  summary
(** {!run} once per seed and aggregate. The {!Workload.proven_safe}
    precheck shortcut (skipping per-history serializability checks) is
    taken only when the scenario is fault-free: static verdicts cover
    legal schedules only, and a faulty scenario can commit illegal
    ones. [on_run seed o] sees each completed run's outcome, in seed
    order, so a caller can export the runs it measured without running
    them again. *)

val violation_fraction : summary -> float
(** [violations / runs]; [0.] when no run completed. *)

val pp_summary : Format.formatter -> summary -> unit
(** One line: ["R runs: V violations, A aborts, D deadlocks, T ticks"],
    followed by crash, expiry, stale-unlock, illegal-history, and error
    counts only when non-zero. *)
