(** The process-wide tracer: one installed {!Sink}, a log level, a
    global metrics {!Registry}, and the span lifecycle (ids, parent
    stack, wall-clock timing).

    Overhead contract: with the default no-op sink, {!enabled} is a
    pointer comparison and every [?attrs] thunk goes unforced, so
    instrumented hot paths pay essentially nothing (bench E18 times the
    flight recorder against this no-op baseline).

    One thread traces: the span ids, the open-span stack, the sink and
    the level are plain process globals. The metrics side ({!Registry},
    {!Metric}) keeps its locks, because {!Expose} scrapes it from a
    thread of its own. *)

type level = Error | Warn | Info | Debug

val level_of_string : string -> level option
(** Accepts ["error"], ["warn"]/["warning"], ["info"], ["debug"]. *)

val set_sink : Sink.t -> unit

val set_level : level -> unit

val level : unit -> level

val enabled : unit -> bool
(** [true] iff a non-noop sink is installed. Guard attribute
    construction with this at instrumentation sites that build anything
    beyond a thunk. *)

val logs : level -> bool
(** [enabled () && l] is within the current log level — the gate
    {!event} applies. *)

val now_s : unit -> float
(** The wall clock (seconds since the epoch, sub-µs resolution) — the
    clock for {e timestamps}: span [start_s], event times. Not for
    durations: an NTP step between two reads yields a negative or
    garbage difference — use {!mono_s} for those. *)

val mono_s : unit -> float
(** The monotonic clock ([clock_gettime(CLOCK_MONOTONIC)], seconds
    from an arbitrary origin) — the clock for every {e duration} the
    system reports: span [duration_s], engine stage timings, batch
    wall time. Immune to NTP steps; comparable only within one
    process. Use this — not [Sys.time], which is process CPU time. *)

val cpu_s : unit -> float
(** Process CPU time, for attributes that genuinely mean CPU work
    (e.g. the [cpu_seconds] span attribute on engine stages). *)

val global : Registry.t
(** The process-wide metrics registry ([--metrics] exports it).
    Library-level progress counters (simulator ticks, brute-force
    pictures examined, …) live here; per-engine counters live in each
    engine's own {!Stats}-owned registry. *)

type span_ctx
(** An open span, or a free dummy when tracing is disabled. *)

val start_span : ?attrs:(unit -> Attr.t) -> string -> span_ctx
(** Opens a span as a child of the innermost open span. The [attrs]
    thunk is forced only when tracing is enabled. *)

val add_attrs : span_ctx -> Attr.t -> unit
(** Appends attributes to an open span (callers should guard argument
    construction with {!enabled}). No-op on a dummy or closed span. *)

val end_span : span_ctx -> unit
(** Closes the span and delivers it to the sink; idempotent. *)

val with_span : ?attrs:(unit -> Attr.t) -> string -> (span_ctx -> 'a) -> 'a
(** Runs the function inside a span, closing it on return or exception.
    The callback receives the span to {!add_attrs} result attributes. *)

val current_span_id : unit -> int option

val event : ?level:level -> ?attrs:(unit -> Attr.t) -> string -> unit
(** Emits a point event (default level [Info]) attached to the innermost
    open span; dropped unless [logs level]. *)
