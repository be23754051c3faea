type level = Error | Warn | Info | Debug

let level_rank = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_of_string = function
  | "error" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

let current_sink = ref Sink.noop

let current_level = ref Info

let global = Registry.create ()

let set_sink s = current_sink := s

let set_level l = current_level := l

let level () = !current_level

(* The one check every instrumentation site makes first: with the no-op
   sink installed this is a pointer comparison, and attribute thunks are
   never forced. *)
let enabled () = not (Sink.is_noop !current_sink)

let logs l = enabled () && level_rank l <= level_rank !current_level

(* Two clocks, two jobs. [now_s] is the wall clock — the only clock
   that can say *when* something happened, so it stamps [start_s] and
   event times. [mono_s] is the monotonic clock — immune to NTP steps,
   so it measures every duration the system reports: span durations,
   stage timings, batch wall time (a wall-clock difference across a
   clock step is negative or garbage). Process CPU time ({!cpu_s})
   stays available for the attributes that genuinely mean CPU work. *)
let now_s () = Unix.gettimeofday ()

external mono_s : unit -> float = "distlock_obs_mono_s"

let cpu_s () = Sys.time ()

type ctx = {
  id : int;
  parent : int option;
  ctx_name : string;
  start : float;  (* wall clock: the span's [start_s] timestamp *)
  start_mono : float;  (* monotonic: what [duration_s] is measured on *)
  mutable ctx_attrs : Attr.t;
  mutable closed : bool;
}

type span_ctx = ctx option

let next_id = ref 0

(* The ids of the open spans, innermost first. *)
let stack : int list ref = ref []

let current_span_id () = match !stack with [] -> None | p :: _ -> Some p

let start_span ?attrs name =
  if not (enabled ()) then None
  else begin
    incr next_id;
    let id = !next_id in
    let parent = current_span_id () in
    stack := id :: !stack;
    Some
      {
        id;
        parent;
        ctx_name = name;
        start = now_s ();
        start_mono = mono_s ();
        ctx_attrs = (match attrs with None -> [] | Some f -> f ());
        closed = false;
      }
  end

let add_attrs sc attrs =
  match sc with
  | None -> ()
  | Some c -> c.ctx_attrs <- c.ctx_attrs @ attrs

let end_span sc =
  match sc with
  | None -> ()
  | Some c ->
      if not c.closed then begin
        c.closed <- true;
        (* Remove our frame wherever it sits, so an out-of-order close
           (e.g. via an exception path) cannot orphan the stack. *)
        stack := List.filter (fun i -> i <> c.id) !stack;
        !current_sink.Sink.on_span
          {
            Span.id = c.id;
            parent = c.parent;
            name = c.ctx_name;
            start_s = c.start;
            duration_s = mono_s () -. c.start_mono;
            attrs = c.ctx_attrs;
          }
      end

let with_span ?attrs name f =
  let sc = start_span ?attrs name in
  match f sc with
  | r ->
      end_span sc;
      r
  | exception e ->
      end_span sc;
      raise e

let event ?(level = Info) ?attrs name =
  if logs level then
    !current_sink.Sink.on_event
      {
        Span.name;
        time_s = now_s ();
        span = current_span_id ();
        attrs = (match attrs with None -> [] | Some f -> f ());
      }
