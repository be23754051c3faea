(** A metrics registry: names, help strings, and labels over the raw
    {!Metric} instruments, with Prometheus text exposition.

    Registration is get-or-create keyed on (name, labels): asking twice
    for the same key returns the same handle, so modules can keep lazy
    handles without coordinating. Re-registering a name as a different
    instrument kind raises [Invalid_argument].

    Get-or-create, {!entries}, and {!reset} take one mutex per registry,
    so {!Expose} can list a registry from its own thread while the
    deciding thread registers into it, and concurrent registration of
    one key yields a single shared instrument. *)

type instrument =
  | Counter of Metric.counter
  | Gauge of Metric.gauge
  | Histogram of Metric.histogram

type entry = {
  name : string;
  help : string;
  labels : (string * string) list;
  instrument : instrument;
}

type t

val create : unit -> t

val counter :
  t -> ?labels:(string * string) list -> help:string -> string -> Metric.counter

val gauge :
  t -> ?labels:(string * string) list -> help:string -> string -> Metric.gauge

val histogram :
  t ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  help:string ->
  string ->
  Metric.histogram

val entries : t -> entry list
(** In first-registration order. *)

val reset : t -> unit
(** Zero every instrument; registrations (and handles) survive. *)

val pp_prometheus : Format.formatter -> t -> unit
(** Prometheus text exposition format 0.0.4: HELP/TYPE headers per
    family, histogram [_bucket]/[_sum]/[_count] expansion with
    cumulative [le] labels ending at [+Inf]. *)

val to_prometheus : t -> string
