open Distlock_txn
open Distlock_sched

(** Brute-force safety oracles.

    Three independent exponential deciders used to validate the
    polynomial tests and each other:

    - {!safe_by_states} walks the memoized execution-state graph
      ({!Distlock_sched.Stategraph}) — exponentially fewer nodes than
      schedules on systems with real interleaving freedom (works for any
      number of transactions);
    - {!safe_by_schedules} enumerates every legal schedule of the system
      and conflict-checks each (works for any number of transactions);
    - {!safe_by_extensions} applies Lemma 1 directly: enumerate all pairs
      of linear extensions and run the geometric Proposition 1 test on
      each picture (two transactions only).

    None of them escapes by exception when a search budget runs out:
    exhaustion is the typed {!Exhausted} verdict. *)

type verdict =
  | Safe
  | Unsafe of Schedule.t  (** A legal non-serializable schedule. *)
  | Exhausted of { examined : int; limit : int }
      (** The search budget ran out after [examined] units (states,
          schedules, or pictures, per oracle) without covering the
          space — not a verdict on the system. *)

val safe_by_states : ?limit:int -> System.t -> verdict
(** State-graph reachability with memoization; [limit] (default
    [10_000_000]) bounds distinct states visited. *)

val safe_by_schedules : ?limit:int -> System.t -> verdict
(** Returns {!Exhausted} after examining [limit] (default [20_000_000])
    schedules without exhausting the space. *)

val safe_by_extensions : ?limit:int -> System.t -> verdict
(** Two-transaction systems. The returned schedule is the separating path
    of the first unsafe picture found. Returns {!Exhausted} after
    examining [limit] extension pairs. The default, [50_000_000], bounds
    worst-case runtime to minutes rather than letting a pair of wide
    partial orders (the extension count is a product of factorials) run
    unbounded; pass an explicit [limit] — including [max_int] — to raise
    it. *)

val probe_random :
  Random.State.t -> trials:int -> System.t -> Schedule.t option
(** Randomized refutation: sample random legal schedules and return the
    first non-serializable one. [None] after [trials] clean samples — not
    a proof of safety, but a cheap falsifier for systems too large to
    enumerate (used on the big Theorem 3 gadgets). *)
