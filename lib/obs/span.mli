(** Completed spans and point-in-time events — the records a {!Sink}
    consumes. Span lifecycle (ids, the parent stack, timing) is managed
    by {!Obs}; these are the finished, immutable values. *)

type span = {
  id : int;  (** Process-unique, monotonically increasing. *)
  parent : int option;  (** Enclosing span id, if any. *)
  name : string;
  start_s : float;  (** Wall-clock seconds since the Unix epoch. *)
  duration_s : float;
  attrs : Attr.t;
}

type event = {
  name : string;
  time_s : float;
  span : int option;  (** Span open at emission time, if any. *)
  attrs : Attr.t;
}

val span_to_json : span -> Json.t

val event_to_json : event -> Json.t
