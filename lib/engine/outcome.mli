(** Verdicts with structured provenance.

    Where the old dispatcher returned bare strings, an engine outcome
    records {e which} paper procedure decided, the full per-stage trace
    (status, detail, elapsed time), the total decision time, and whether
    the verdict came from the cache. *)

type 'ev verdict = Safe | Unsafe of 'ev | Unknown of string

type stage_status =
  | Decided  (** This stage produced the verdict. *)
  | Passed  (** Ran but was inconclusive. *)
  | Errored  (** Failed (budget, construction error); surfaced, not masked. *)

type stage_trace = {
  stage : string;  (** Checker name. *)
  procedure : Checker.procedure;
  status : stage_status;
  detail : string;
  seconds : float;  (** Wall (monotonic) time spent in this stage. *)
  attrs : Distlock_obs.Attr.t;
      (** Checker-reported measurements ({!Checker.Annotated}): states
          visited, pair-cache traffic, budget exhaustion flags, … Empty
          for stages that report none. *)
}

type 'ev t = {
  verdict : 'ev verdict;
  procedure : Checker.procedure option;
      (** The procedure that decided; [None] iff the verdict is
          [Unknown]. *)
  detail : string;
      (** Why: the deciding stage's explanation, or the aggregated error
          messages of an [Unknown]. *)
  trace : stage_trace list;  (** Applicable stages, in pipeline order. *)
  seconds : float;  (** Total decision time (monotonic wall seconds). *)
  cached : bool;  (** Served from the verdict cache. *)
}

val decided : _ t -> bool
(** [true] unless the verdict is [Unknown]. *)

val provenance : _ t -> string
(** ["Thm 1"], …, or ["undecided"] for [Unknown] outcomes. *)

val status_label : stage_status -> string
(** ["decided"], ["passed"], or ["ERROR"]. *)

val pp_trace : Format.formatter -> stage_trace list -> unit
(** One line per stage: name, procedure, status, time, detail. *)
