(** The flight recorder: the one in-memory store of finished spans and
    events, installed as the process sink by default. Its renderings
    are the JSONL trace ({!write_jsonl}), the Chrome trace
    ({!Trace_export.write}) and the flight dump, which adds a
    [Gc.quick_stat] snapshot and the current counter/histogram values
    of the registered registries and is written when an anomaly fires:
    a decision errors, a budget exhausts, or a [--verify] cross-check
    diverges.

    The store is one ring under one mutex; records are immutable values
    stored under it, so a snapshot never observes a torn record. Per-push
    cost is one mutex round-trip and one array store — cheap enough to
    leave on always (bench E18 measures the overhead). *)

type t

type record = Rspan of Span.span | Revent of Span.event

val create : ?capacity:int -> unit -> t
(** A ring of [capacity] (default [512]) records. It grows by doubling
    as records arrive and wraps, overwriting its oldest records, only
    once it holds [capacity]; [~capacity:max_int] keeps everything.
    Raises [Invalid_argument] on a non-positive [capacity]. *)

val sink : t -> Sink.t
(** Every span/event delivered is pushed into the store. *)

val records : t -> record list
(** Snapshot of everything currently buffered, in delivery order: the
    order {!Obs} handed the records over. Takes the mutex once. *)

val write_jsonl : t -> out_channel -> unit
(** {!records} as JSON Lines, one {!Span.span_to_json} /
    {!Span.event_to_json} object per line. Does not close the channel. *)

val set_registries : t -> (unit -> (string * Registry.t) list) -> unit
(** The registries whose instruments a dump snapshots (labelled for the
    dump output) — a closure, so registries created after installation
    (per-engine stats) are still seen. Default: none. *)

val set_dump_dest : t -> (unit -> out_channel) -> unit
(** Where {!anomaly} writes. Default: [stderr]. *)

val dump : t -> reason:string -> out_channel -> unit
(** Write the flight dump as JSON Lines: one header record ([type
    "flight_dump"] with the reason, wall time, record/drop counts, and
    [Gc.quick_stat] fields), then at most the newest 512 records in
    delivery order, then one [type "metric"] record per registered
    instrument (histograms carry bounds, cumulative counts, sum, count —
    the per-checker latency snapshot). The header's [records] and
    [dropped] come from the same snapshot as the records and add up to
    the lifetime push count. Flushes the channel; does not close it. *)

val set_global : t option -> unit
(** Install (or clear) the process-global recorder {!anomaly} consults.
    The CLI installs one at startup; libraries never install. *)

val anomaly : reason:string -> unit
(** Dump the global recorder to its destination, if one is installed
    and it has dumped fewer than five times, so a pathological batch
    cannot flood stderr; otherwise a no-op. This is the hook engine
    code calls on anomalous paths. *)

val dump_count : t -> int
(** How many {!anomaly} dumps have fired (including ones suppressed by
    the cap). *)
