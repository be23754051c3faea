(** Typed decision-provenance records.

    An explain record is the full story of one decision: every checker
    in the pipeline in order (including the stages that never ran and
    why not), the verdict-cache and pair-cache disposition, the
    state-graph oracle's statistics when an oracle stage ran, and the
    winning procedure. It is assembled after the fact from the engine's
    checker table plus the recorded {!Outcome.t} — deciding costs
    nothing extra when nobody asks for an explanation. *)

type stage = {
  checker : string;
  procedure : string;  (** Paper-style label, e.g. ["Thm 1"]. *)
  cost : string;  (** ["poly"] or ["exp"]. *)
  applicable : bool;
  status : string;
      (** [decided | passed | error | inapplicable | not-reached]. The
          first three mirror {!Outcome.stage_status}; the last two cover
          checkers absent from the trace. *)
  detail : string;
  seconds : float;
  budget_spent_s : float;
      (** Cumulative pipeline time when this stage ended. *)
  metrics : Distlock_obs.Attr.t;
      (** Checker-reported measurements; empty for most stages. *)
}

type cache = {
  fingerprint : string;  (** Hex digest of the system fingerprint. *)
  hit : bool;  (** Whole verdict served from the system-fp cache. *)
  pair_hits : int;  (** Pair verdicts reused from the pair-fp cache. *)
  pair_misses : int;
  pairs_redecided : int;
}

type oracle = {
  states : int;  (** Distinct execution states visited. *)
  dup_hits : int;  (** Transitions pruned by memoization. *)
  dedup_ratio : float;  (** [dup_hits / (states + dup_hits)]. *)
  exhausted : bool;  (** The state budget ran out before closure. *)
}

type t = {
  verdict : string;  (** ["safe"], ["unsafe"], or ["unknown"]. *)
  procedure : string;
  detail : string;
  cached : bool;
  seconds : float;
  cache : cache;
  stages : stage list;  (** Whole checker table, pipeline order. *)
  oracle : oracle option;  (** Present iff an oracle stage reported. *)
}

val of_outcome :
  checkers:('sys, 'ev) Checker.t list ->
  fingerprint:string ->
  'sys ->
  'ev Outcome.t ->
  t

val to_json : t -> Distlock_obs.Json.t
(** Tagged ["schema": "distlock.explain/1"]. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human rendering for [check --explain]. *)
