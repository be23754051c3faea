open Distlock_txn

(** Execution traces and per-transaction metrics for simulator runs.

    The engine optionally records every scheduling decision with its tick;
    this module turns such logs into per-transaction latency/wait metrics
    and per-site utilization summaries — the quantities a practitioner
    would tune a distributed lock manager by. *)

type event = {
  tick : int;
  txn : int;
  step : int;
  site : int;
  attempt : int;  (** 1 = first attempt; > 1 after deadlock restarts. *)
}

type txn_metrics = {
  txn : int;
  attempts : int;  (** [0] when the transaction never started. *)
  first_start : int option;
      (** Tick of the first step of the first attempt; [None] when the
          transaction executed no step at all. *)
  commit : int option;
      (** Tick of the last step of the committed attempt; [None] when
          the transaction never started. *)
  steps_executed : int;  (** including aborted attempts' steps *)
  wasted_steps : int;  (** steps of attempts that were aborted *)
  wait_ticks : int;
      (** Idle ticks between first start and commit — the span minus the
          ticks the transaction actually executed a step on. *)
}

type site_metrics = {
  site : int;
  events : int;
  busy_span : int;  (** last tick minus first tick seen at the site *)
  utilization : float;
      (** Fraction of the makespan with a step executing at this site —
          [busy_span] only brackets activity, this measures it. *)
}

type report = {
  events : event list;
  txns : txn_metrics list;
  sites : site_metrics list;
  makespan : int;
  wait_p50 : float;
      (** Bucket-interpolated percentiles of per-step waits (idle ticks
          between a transaction's consecutive steps); [nan] when no
          transaction executed two steps. *)
  wait_p90 : float;
  wait_p99 : float;
}

val analyze : System.t -> event list -> report

val event_to_json : ?seed:int -> System.t -> event -> Distlock_obs.Json.t
(** Structured record: tick, transaction name, step label, action,
    entity name, site, attempt — plus the run [seed] when given. *)

val write_jsonl : ?seed:int -> System.t -> out_channel -> event list -> unit
(** One {!event_to_json} object per line. The channel is left open. *)

val pp_report : System.t -> Format.formatter -> report -> unit
