type t = {
  on_span : Span.span -> unit;
  on_event : Span.event -> unit;
}

let noop = { on_span = ignore; on_event = ignore }

let is_noop s = s == noop
