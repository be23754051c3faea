open Distlock_txn

(** The full safety-decision service: the staged pair pipeline of
    {!Checkers} extended with the Proposition 2 multi-transaction
    criterion, wired into a [Distlock_engine.Engine] instance with a
    fingerprint-keyed LRU verdict cache, batch deduplication, and
    per-stage instrumentation.

    This is what the CLI, the benchmarks, and the simulator consult. The
    stateless pieces it wires together are {!Checkers.decide} (one pair)
    and {!Multisite.decide_with} (Proposition 2), which
    {!Incremental.decide_delta} shares. The Proposition 2 stage turns
    cycle-enumeration exhaustion into an inconclusive pass, so the
    multi-transaction state graph still runs, and an undecided pair into
    a stage error. *)

type evidence =
  | Pair of Checkers.evidence
      (** Two-transaction unsafety: certificate or counterexample. *)
  | Multi of Multisite.unsafe_reason
      (** Proposition 2: an unsafe conflicting pair, or a conflict-graph
          cycle with acyclic [B_c]. *)

type t = (Checkers.subject, evidence) Distlock_engine.Engine.t
(** Its functions below wrap each [System.t] in a {!Checkers.subject}. *)

val create : ?cache_capacity:int -> ?pair_cache_capacity:int -> unit -> t
(** A fresh engine keyed by {!System.fingerprint}. [cache_capacity]
    (default [1024]) bounds the LRU verdict cache; [0] disables caching
    entirely. [pair_cache_capacity] (default [4096]) bounds the
    pair-fingerprint verdict store consulted by the Proposition 2 stage
    ({!Multisite.pair_safe}); [0] disables it, making every pair verdict
    a fresh pipeline run. Decided verdicts are cached; [Unknown]
    outcomes never are, since they depend on the budget the call
    passed. *)

val decide :
  ?budget:Distlock_engine.Budget.t ->
  t ->
  System.t ->
  evidence Distlock_engine.Outcome.t

val decide_batch :
  ?budget:Distlock_engine.Budget.t ->
  t ->
  System.t list ->
  evidence Distlock_engine.Outcome.t list
  * Distlock_engine.Engine.batch_report
(** Deduplicates by fingerprint within the batch and against the cache;
    the report carries hit counts, per-procedure tallies, and wall time. *)

val explain :
  t ->
  System.t ->
  evidence Distlock_engine.Outcome.t ->
  Distlock_engine.Explain.t
(** The typed provenance record for an outcome this engine produced:
    every stage of the pipeline with status and timing (including
    [inapplicable] / [not-reached] stages), cache and pair-cache
    disposition, and state-graph oracle statistics when that stage ran.
    Pure post-processing of the recorded trace. *)

val decide_explained :
  ?budget:Distlock_engine.Budget.t ->
  t ->
  System.t ->
  evidence Distlock_engine.Outcome.t * Distlock_engine.Explain.t
(** {!decide} followed by {!explain}. *)

val stats : t -> Distlock_engine.Stats.t

val describe_multi : System.t -> Multisite.unsafe_reason -> string
(** Human-readable rendering with transaction names, e.g.
    ["transactions T1 and T3 form an unsafe pair"]. *)

val schedule_of_evidence : evidence -> Distlock_sched.Schedule.t option
(** The witness schedule when the evidence carries one ([Pair]). *)
