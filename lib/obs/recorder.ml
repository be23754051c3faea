(* The flight recorder: the one store of finished spans and events.
   The three outputs render it: the JSONL trace ([write_jsonl]), the
   Chrome trace ([Trace_export.write]) and the anomaly dump ([dump]).
   Bounded by default and cheap enough to leave on; [~capacity:max_int]
   keeps everything, which the CLI asks for when a trace file is named.

   One ring under one mutex: the buffer grows by doubling up to the
   capacity and is then a classic ring, old records overwritten. A
   record is an immutable OCaml value stored under the mutex, so a
   snapshot can never observe a torn (half-written) record. *)

type record = Rspan of Span.span | Revent of Span.event

let record_to_json = function
  | Rspan s -> Span.span_to_json s
  | Revent e -> Span.event_to_json e

(* At most this many automatic [anomaly] dumps per recorder. *)
let dump_limit = 5

(* A dump renders at most this many of the newest records, however many
   a keep-all recorder holds. *)
let dump_window = 512

type t = {
  lock : Mutex.t;
  capacity : int;
  mutable buf : record array;
  mutable pushes : int;  (* lifetime pushes; slot [pushes mod length] is next *)
  mutable registries : unit -> (string * Registry.t) list;
  mutable dump_dest : unit -> out_channel;
  mutable dumps : int;
}

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  {
    lock = Mutex.create ();
    capacity;
    buf = [||];
    pushes = 0;
    registries = (fun () -> []);
    dump_dest = (fun () -> stderr);
    dumps = 0;
  }

let push t r =
  Mutex.protect t.lock (fun () ->
      let len = Array.length t.buf in
      if t.pushes = len && len < t.capacity then begin
        let grown = Array.make (min t.capacity (max 16 (2 * len))) r in
        Array.blit t.buf 0 grown 0 len;
        t.buf <- grown
      end;
      t.buf.(t.pushes mod Array.length t.buf) <- r;
      t.pushes <- t.pushes + 1)

let sink t =
  {
    Sink.on_span = (fun s -> push t (Rspan s));
    on_event = (fun e -> push t (Revent e));
  }

let set_registries t f = t.registries <- f

let set_dump_dest t f = t.dump_dest <- f

(* The newest [limit] records, oldest first, and the lifetime push
   count, from one locked copy. The i-th newest record sits in slot
   [pushes - 1 - i], modulo the buffer length once it has wrapped. *)
let collect ~limit t =
  Mutex.protect t.lock (fun () ->
      let len = Array.length t.buf in
      let out = ref [] in
      for i = 0 to min limit (min t.pushes len) - 1 do
        out := t.buf.((t.pushes - 1 - i) mod len) :: !out
      done;
      (!out, t.pushes))

let records t = fst (collect ~limit:max_int t)

let line oc j =
  output_string oc (Json.to_string j);
  output_char oc '\n'

let write_jsonl t oc =
  List.iter (fun r -> line oc (record_to_json r)) (records t)

let gc_json () =
  let q = Gc.quick_stat () in
  Json.Obj
    [
      (* [quick_stat]'s counters only refresh at GC events (a short run
         with no minor collection reports zeros); [Gc.minor_words] reads
         the allocation pointer and is exact at any moment. *)
      ("minor_words", Json.Float (Gc.minor_words ()));
      ("promoted_words", Json.Float q.Gc.promoted_words);
      ("major_words", Json.Float q.Gc.major_words);
      ("minor_collections", Json.Int q.Gc.minor_collections);
      ("major_collections", Json.Int q.Gc.major_collections);
      ("heap_words", Json.Int q.Gc.heap_words);
      ("compactions", Json.Int q.Gc.compactions);
    ]

let instrument_json (e : Registry.entry) =
  let labels =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.Registry.labels)
  in
  let base kind fields =
    Json.Obj
      ([
         ("type", Json.Str "metric");
         ("name", Json.Str e.Registry.name);
         ("labels", labels);
         ("kind", Json.Str kind);
       ]
      @ fields)
  in
  match e.Registry.instrument with
  | Registry.Counter c ->
      base "counter" [ ("value", Json.Int (Metric.counter_value c)) ]
  | Registry.Gauge g ->
      base "gauge" [ ("value", Json.Float (Metric.gauge_value g)) ]
  | Registry.Histogram h ->
      base "histogram"
        [
          ( "le",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun b ->
                      if b = Float.infinity then Json.Str "+Inf"
                      else Json.Float b)
                    (Metric.bucket_bounds h))) );
          ( "cumulative",
            Json.List
              (Array.to_list
                 (Array.map (fun n -> Json.Int n) (Metric.cumulative h))) );
          ("sum", Json.Float (Metric.histogram_sum h));
          ("count", Json.Int (Metric.histogram_count h));
        ]

let dump t ~reason oc =
  let recs, pushes = collect ~limit:dump_window t in
  let n = List.length recs in
  line oc
    (Json.Obj
       [
         ("type", Json.Str "flight_dump");
         ("reason", Json.Str reason);
         ("time_s", Json.Float (Unix.gettimeofday ()));
         ("records", Json.Int n);
         ("dropped", Json.Int (pushes - n));
         ("gc", gc_json ());
       ]);
  List.iter (fun r -> line oc (record_to_json r)) recs;
  List.iter
    (fun (label, reg) ->
      List.iter
        (fun e ->
          match instrument_json e with
          | Json.Obj fields ->
              line oc (Json.Obj (("registry", Json.Str label) :: fields))
          | j -> line oc j)
        (Registry.entries reg))
    (t.registries ());
  flush oc

(* ------------------------------------------------------------------ *)
(* The process-global instance the anomaly hooks consult. Installed by
   the CLI at startup; libraries only ever call [anomaly], which is a
   no-op until something is installed, so tests and embedders that
   exercise Unknown verdicts on purpose see no surprise output. *)

let installed : t option ref = ref None

let set_global r = installed := r

let anomaly ~reason =
  match !installed with
  | None -> ()
  | Some t ->
      (* Cap the dumps: one anomaly per decision in a pathological batch
         would flood stderr with near-identical flight dumps. *)
      t.dumps <- t.dumps + 1;
      if t.dumps <= dump_limit then dump t ~reason (t.dump_dest ())

let dump_count t = t.dumps
