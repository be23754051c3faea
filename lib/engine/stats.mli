(** Instrumentation for an engine instance, backed by a
    {!Distlock_obs.Registry}: decision/cache counters plus, per pipeline
    stage, result-labeled counters and a latency histogram. The original
    accessor API is preserved — callers still read plain ints and a
    {!stage} record list — while [--metrics] exports the same numbers as
    Prometheus text via {!pp_prometheus}.

    One recorder at a time: the stage-handle table is unguarded. A
    scrape of {!registry} from another thread is safe, because the
    registry and its instruments keep their own locks. *)

type stage = {
  stage_name : string;
  mutable attempts : int;  (** Times the stage was run. *)
  mutable decided_safe : int;
  mutable decided_unsafe : int;
  mutable passed : int;
  mutable errors : int;
  mutable seconds : float;  (** Cumulative wall-clock time in the stage. *)
}
(** A point-in-time view computed from the registry; mutating it does
    not write back. *)

type t

val create : unit -> t
(** Each [t] owns a private registry holding the fixed
    [distlock_engine_*] metric names. *)

val registry : t -> Distlock_obs.Registry.t

val reset : t -> unit

val record_stage : t -> name:string -> Outcome.stage_status * bool -> float -> unit
(** [record_stage t ~name (status, unsafe) seconds]: bump the stage's
    counters. [unsafe] disambiguates [Decided] into safe/unsafe. *)

val record_decision : t -> cached:bool -> unknown:bool -> unit

val record_cache_miss : t -> unit

val record_pair_lookup : t -> hit:bool -> unit
(** One lookup in a pair-fingerprint verdict store (the pair-granular
    cache behind Proposition 2 and [decide_delta]). *)

val record_pair_hits : t -> int -> unit
(** [n] pair verdicts served without a lookup, counted as hits: an
    incremental session's pairs still decided since its last call. *)

val record_pair_redecided : t -> unit
(** The pair pipeline actually ran for one pair (always follows a miss;
    a lookup whose pipeline run ends [Unknown] is a miss that is {e not}
    re-decided, since nothing cacheable was produced). *)

val decisions : t -> int

val cache_hits : t -> int

val cache_misses : t -> int

val unknowns : t -> int

val pair_hits : t -> int

val pair_misses : t -> int

val pairs_redecided : t -> int

val hit_rate : t -> float
(** [cache_hits / decisions]; [0.] before any decision. *)

val stages : t -> stage list
(** In first-recorded order. *)

val quantiles : t -> (string * (float * float * float)) list
(** Per-stage bucket-interpolated (p50, p90, p99) of the stage latency
    histogram in seconds, in first-recorded order; a NaN triple for a
    stage with no timed runs. *)

val mean_seconds : stage -> float
(** Mean time per attempted run; [0.] (not NaN) for a stage with no
    attempts. *)

val pp : Format.formatter -> t -> unit

val pp_prometheus : Format.formatter -> t -> unit
(** The engine's registry in Prometheus text exposition format. *)
