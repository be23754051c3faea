(** The staged safety-decision engine.

    An engine instance bundles an ordered checker pipeline, a canonical
    fingerprint function, an LRU verdict cache ({!Lru}) keyed on
    fingerprints, and instrumentation counters. It serves single
    decisions ({!decide}) and deduplicated batches ({!decide_batch}).

    Caching is sound because fingerprints are canonical over everything a
    verdict depends on (database, steps, partial orders). [Unknown]
    outcomes are {e never} cached: they depend on the budget of the call
    that produced them, and a later call with a larger budget must be
    allowed to try again.

    An engine is not thread-safe: one caller at a time. *)

type ('sys, 'ev) t

val create :
  ?cache_capacity:int ->
  ?stats:Stats.t ->
  fingerprint:('sys -> string) ->
  ('sys, 'ev) Checker.t list ->
  ('sys, 'ev) t
(** [cache_capacity] defaults to [1024]; [0] (or negative) disables the
    verdict cache. [stats] (default a fresh instance) lets checkers that
    record into a stats sink of their own — e.g. a pair-cache-consulting
    Proposition 2 stage — share one instance with the engine, so batch
    reports see their counters. Raises [Invalid_argument] on an empty
    checker list. *)

val checkers : ('sys, 'ev) t -> ('sys, 'ev) Checker.t list

val stats : _ t -> Stats.t

val run :
  ?stats:Stats.t ->
  ?budget:Budget.t ->
  ('sys, 'ev) Checker.t list ->
  'sys ->
  'ev Outcome.t
(** Stateless single run of a pipeline — no engine instance, no cache.
    Stages run in order, each given [budget] (default
    {!Budget.unlimited}); inapplicable stages are ignored, stage errors
    are recorded and the pipeline continues. If no stage decides, the
    outcome is [Unknown] carrying the aggregated stage errors.

    Stage [seconds] are monotonic
    wall time ({!Distlock_obs.Obs.mono_s}); the per-stage span
    additionally carries a [cpu_seconds] attribute
    ({!Distlock_obs.Obs.cpu_s}). *)

val decide : ?budget:Budget.t -> ('sys, 'ev) t -> 'sys -> 'ev Outcome.t
(** Fingerprint, consult the cache, run the pipeline under [budget]
    (default unlimited) on a miss, store decided outcomes. The returned
    outcome has [cached = true] on a hit. *)

val explain : ('sys, 'ev) t -> 'sys -> 'ev Outcome.t -> Explain.t
(** Assemble the typed provenance record ({!Explain.t}) for an outcome
    this engine produced for [sys]: the full checker table with per-stage
    statuses (including [inapplicable] and [not-reached]), cache
    disposition, and oracle statistics. Pure post-processing — costs
    nothing unless called. *)

val decide_explained :
  ?budget:Budget.t -> ('sys, 'ev) t -> 'sys -> 'ev Outcome.t * Explain.t
(** {!decide} followed by {!explain} on the result, fingerprinting
    [sys] once for both. *)

(** What happened to one batch. *)
type batch_report = {
  submitted : int;
  unique : int;  (** Distinct fingerprints in the batch. *)
  batch_dedup_hits : int;  (** Duplicates folded within this batch. *)
  cache_hits : int;  (** Served by the engine's LRU cache. *)
  cache_misses : int;  (** Full pipeline runs. *)
  pair_hits : int;
      (** Pair verdicts served from the pair-fingerprint cache during
          this batch (multi-transaction systems only; [0] otherwise). *)
  pair_misses : int;  (** Pair-cache lookups that missed. *)
  pairs_redecided : int;  (** Pair pipeline runs forced by those misses. *)
  batch_seconds : float;  (** Wall-clock seconds for the whole batch. *)
  per_procedure : (string * int) list;
      (** Deciding procedure label -> verdict count over unique systems,
          in first-seen submission order. *)
}

val hit_rate : batch_report -> float
(** (batch-dedup hits + cache hits) / submitted; [0.] on an empty batch. *)

val decide_batch :
  ?budget:Budget.t ->
  ('sys, 'ev) t ->
  'sys list ->
  'ev Outcome.t list * batch_report
(** Decide many systems at once: duplicates (by fingerprint) are decided
    once and their outcome replicated, in submission order. Each
    submitted system is fingerprinted once; the decision of a distinct
    one reuses that digest. Per-stage counters and timings accumulate in
    [stats t]. A duplicate of a decided system is answered from the
    batch with [cached = true], even when the engine has no verdict
    cache. *)

val pp_batch_report : Format.formatter -> batch_report -> unit
(** One line of totals plus a per-procedure tally. *)
