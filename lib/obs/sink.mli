(** Where {!Obs} delivers finished spans and events. The tracer holds
    exactly one sink: {!noop}, or the flight recorder's
    ({!Recorder.sink}), the one store that the trace files and the
    anomaly dump render. *)

type t = {
  on_span : Span.span -> unit;
  on_event : Span.event -> unit;
}

val noop : t
(** The default: drops everything. {!Obs} treats this sink specially —
    tracing is disabled while it is installed, so instrumented code
    skips attribute construction entirely. *)

val is_noop : t -> bool
