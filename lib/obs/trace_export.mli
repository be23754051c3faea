(** Chrome trace-event export.

    Renders the flight recorder's span/event stream as the JSON object
    format of [chrome://tracing] / Perfetto: spans become "complete"
    events ([ph:"X"], microsecond [ts]/[dur]), events become
    thread-scoped "instants" ([ph:"i"]), all on one thread track
    ([tid 0], named by [ph:"M"] metadata). Timestamps are microseconds
    relative to the earliest record in the stream. *)

val to_json : Recorder.record list -> Json.t
(** The [{"traceEvents": [...], "displayTimeUnit": "ms"}] object: the
    metadata records (process ["distlock"], pid [1], thread ["main"]),
    then one trace event per record, in list order. *)

val write : Recorder.t -> out_channel -> unit
(** {!to_json} of {!Recorder.records} — every buffered record, in
    delivery order — pretty-printed to a channel (not closed). *)
