(* Tests for the observability core: JSON writer, metric instruments,
   registry + Prometheus exposition, span lifecycle, sinks — and the
   registry-backed engine Stats edge cases. *)

open Distlock_obs
module E = Distlock_engine

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_compact () =
  let j =
    Json.Obj
      [
        ("s", Json.Str "a\"b\nc");
        ("i", Json.Int (-3));
        ("f", Json.Float 0.25);
        ("t", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Int 2 ]);
      ]
  in
  check string "compact form"
    {|{"s":"a\"b\nc","i":-3,"f":0.25,"t":true,"n":null,"l":[1,2]}|}
    (Json.to_string j)

let test_json_floats () =
  check string "integral floats print without exponent" {|1000000|}
    (Json.to_string (Json.Float 1e6));
  check string "NaN is null" {|null|} (Json.to_string (Json.Float Float.nan));
  check string "negative zero" {|-0|} (Json.to_string (Json.Float (-0.)))

let test_json_pretty () =
  check string "pretty empty containers" {|{}|}
    (Json.to_string_pretty (Json.Obj []));
  check string "pretty nesting"
    "{\n  \"a\": [\n    1\n  ]\n}"
    (Json.to_string_pretty (Json.Obj [ ("a", Json.List [ Json.Int 1 ]) ]))

(* ------------------------------------------------------------------ *)
(* Metric *)

let test_counter () =
  let c = Metric.counter () in
  Metric.incr c;
  Metric.incr_by c 4;
  Metric.incr_by c (-10);
  check int "monotone: negative deltas ignored" 5 (Metric.counter_value c);
  Metric.reset_counter c;
  check int "reset" 0 (Metric.counter_value c)

let test_histogram_buckets () =
  let h = Metric.histogram ~buckets:[| 0.1; 1.; 10. |] () in
  (* le semantics: a value lands in the first bucket whose bound >= it *)
  List.iter (Metric.observe h) [ 0.1; 0.5; 1.; 5.; 100. ];
  check (Alcotest.array int) "cumulative counts, +Inf last"
    [| 1; 3; 4; 5 |] (Metric.cumulative h);
  check int "count = +Inf total" 5 (Metric.histogram_count h);
  check (Alcotest.float 1e-9) "sum" 106.6 (Metric.histogram_sum h)

let test_histogram_validation () =
  Alcotest.check_raises "non-increasing bounds rejected"
    (Invalid_argument
       "Metric.histogram: bucket bounds must be strictly increasing")
    (fun () -> ignore (Metric.histogram ~buckets:[| 1.; 1. |] ()));
  Alcotest.check_raises "empty bounds rejected"
    (Invalid_argument "Metric.histogram: empty bucket list") (fun () ->
      ignore (Metric.histogram ~buckets:[||] ()))

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_get_or_create () =
  let r = Registry.create () in
  let c1 = Registry.counter r ~help:"h" "m_total" in
  let c2 = Registry.counter r ~help:"h" "m_total" in
  Metric.incr c1;
  check int "same key returns the same handle" 1 (Metric.counter_value c2);
  let c3 = Registry.counter r ~labels:[ ("k", "v") ] ~help:"h" "m_total" in
  check int "distinct labels are a distinct instance" 0
    (Metric.counter_value c3);
  check int "entries lists both" 2 (List.length (Registry.entries r))

let test_registry_kind_mismatch () =
  let r = Registry.create () in
  ignore (Registry.counter r ~help:"h" "m_total");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Registry: m_total already registered as a counter")
    (fun () -> ignore (Registry.gauge r ~help:"h" "m_total"))

let test_registry_invalid_name () =
  let r = Registry.create () in
  Alcotest.check_raises "invalid name"
    (Invalid_argument "Registry: invalid metric name \"9bad\"") (fun () ->
      ignore (Registry.counter r ~help:"h" "9bad"))

let test_prometheus_exposition () =
  let r = Registry.create () in
  let c = Registry.counter r ~labels:[ ("q", {|a"b|}) ] ~help:"A counter" "c_total" in
  Metric.incr c;
  let h = Registry.histogram r ~buckets:[| 0.5 |] ~help:"A histogram" "h_s" in
  Metric.observe h 0.25;
  Metric.observe h 2.;
  check string "text exposition"
    "# HELP c_total A counter\n\
     # TYPE c_total counter\n\
     c_total{q=\"a\\\"b\"} 1\n\
     # HELP h_s A histogram\n\
     # TYPE h_s histogram\n\
     h_s_bucket{le=\"0.5\"} 1\n\
     h_s_bucket{le=\"+Inf\"} 2\n\
     h_s_sum 2.25\n\
     h_s_count 2\n"
    (Registry.to_prometheus r)

let test_prometheus_families_contiguous () =
  (* Interleaved registration must still group samples per family. *)
  let r = Registry.create () in
  ignore (Registry.counter r ~labels:[ ("s", "a") ] ~help:"h" "x_total");
  ignore (Registry.counter r ~labels:[ ("s", "a") ] ~help:"h" "y_total");
  ignore (Registry.counter r ~labels:[ ("s", "b") ] ~help:"h" "x_total");
  check string "families grouped, headers once"
    "# HELP x_total h\n# TYPE x_total counter\n\
     x_total{s=\"a\"} 0\nx_total{s=\"b\"} 0\n\
     # HELP y_total h\n# TYPE y_total counter\ny_total{s=\"a\"} 0\n"
    (Registry.to_prometheus r)

let test_registry_reset () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"h" "c_total" in
  Metric.incr c;
  Registry.reset r;
  check int "instrument zeroed" 0 (Metric.counter_value c);
  check int "registration survives" 1 (List.length (Registry.entries r))

(* ------------------------------------------------------------------ *)
(* Spans, events, sinks *)

(* Install a keep-all recorder for the duration of [f]; returns its
   spans and its events, each in delivery order. *)
let with_collecting f =
  let r = Recorder.create ~capacity:max_int () in
  Obs.set_sink (Recorder.sink r);
  Fun.protect ~finally:(fun () -> Obs.set_sink Sink.noop) f;
  List.partition_map
    (function
      | Recorder.Rspan s -> Either.Left s | Recorder.Revent e -> Either.Right e)
    (Recorder.records r)

(* The lines [write] puts in a file. *)
let render_lines write =
  let path = Filename.temp_file "distlock_obs" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      write oc;
      close_out oc;
      let text = In_channel.with_open_bin path In_channel.input_all in
      match List.rev (String.split_on_char '\n' text) with
      | "" :: lines -> List.rev lines
      | lines -> List.rev lines)

(* The integer after ["key":] in a compact JSON line. *)
let int_field line key =
  let pat = Printf.sprintf "%S:" key in
  let n = String.length line and k = String.length pat in
  let rec find i =
    if i + k > n then Alcotest.failf "no %s in %s" key line
    else if String.sub line i k = pat then i + k
    else find (i + 1)
  in
  let start = find 0 in
  let numeric c = c = '-' || (c >= '0' && c <= '9') in
  let stop = ref start in
  while !stop < n && numeric line.[!stop] do
    incr stop
  done;
  int_of_string (String.sub line start (!stop - start))

let test_span_nesting () =
  let spans, _ =
    with_collecting (fun () ->
        Obs.with_span "outer" (fun _ ->
            Obs.with_span "inner" (fun sp ->
                Obs.add_attrs sp [ Attr.str "k" "v" ])))
  in
  match spans with
  | [ inner; outer ] ->
      (* children complete (and are delivered) first *)
      check string "inner name" "inner" inner.Span.name;
      check string "outer name" "outer" outer.Span.name;
      check bool "inner parented to outer" true
        (inner.Span.parent = Some outer.Span.id);
      check bool "outer is a root" true (outer.Span.parent = None);
      check bool "inner carries added attr" true
        (List.mem_assoc "k" inner.Span.attrs);
      check bool "duration is non-negative" true (inner.Span.duration_s >= 0.)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_exception_closes () =
  let spans, _ =
    with_collecting (fun () ->
        try Obs.with_span "boom" (fun _ -> failwith "x")
        with Failure _ -> ())
  in
  check int "span delivered despite exception" 1 (List.length spans)

let test_end_span_idempotent () =
  let spans, _ =
    with_collecting (fun () ->
        let sp = Obs.start_span "once" in
        Obs.end_span sp;
        Obs.end_span sp)
  in
  check int "second end_span is a no-op" 1 (List.length spans)

let test_event_level_gating () =
  let _, events =
    with_collecting (fun () ->
        Obs.set_level Obs.Info;
        Obs.event "kept";
        Obs.event ~level:Obs.Debug "dropped";
        Obs.set_level Obs.Debug;
        Obs.event ~level:Obs.Debug "kept2";
        Obs.set_level Obs.Info)
  in
  check
    (Alcotest.list string)
    "only events within the level" [ "kept"; "kept2" ]
    (List.map (fun (e : Span.event) -> e.Span.name) events)

let test_disabled_thunks_unforced () =
  (* With the no-op sink installed nothing forces attr thunks. *)
  let forced = ref false in
  let sp =
    Obs.start_span "quiet" ~attrs:(fun () ->
        forced := true;
        [])
  in
  Obs.end_span sp;
  Obs.event "quiet" ~attrs:(fun () ->
      forced := true;
      []);
  check bool "attr thunks never forced when disabled" false !forced;
  check bool "tracing reports disabled" false (Obs.enabled ())

let test_span_jsonl_shape () =
  let s =
    {
      Span.id = 7;
      parent = Some 3;
      name = "engine.stage";
      start_s = 12.5;
      duration_s = 0.25;
      attrs = [ Attr.str "checker" "trivial"; Attr.bool "cache_hit" false ];
    }
  in
  check string "span JSON"
    {|{"type":"span","id":7,"parent":3,"name":"engine.stage","start_s":12.5,"duration_s":0.25,"attrs":{"checker":"trivial","cache_hit":false}}|}
    (Json.to_string (Span.span_to_json s));
  let e =
    { Span.name = "sim.txn.abort"; time_s = 1.5; span = None; attrs = [] }
  in
  check string "event JSON"
    {|{"type":"event","name":"sim.txn.abort","time_s":1.5}|}
    (Json.to_string (Span.event_to_json e))

let test_level_of_string () =
  check bool "warning alias" true (Obs.level_of_string "warning" = Some Obs.Warn);
  check bool "unknown rejected" true (Obs.level_of_string "loud" = None)

(* ------------------------------------------------------------------ *)
(* Domain-safety: the recorder's mutex, shared registry and instruments *)

let mk_span ?(attrs = []) ~id ?parent ~name ~start_s ~duration_s () =
  { Span.id; parent; name; start_s; duration_s; attrs }

let test_jsonl_no_interleaving () =
  (* 4 domains each push 50 spans with long attribute payloads through
     one keep-all recorder's sink; every line of its JSONL rendering must
     be a complete, parseable record — a torn record would break the
     shape check. *)
  let r = Recorder.create ~capacity:max_int () in
  let sink = Recorder.sink r in
  let payload = String.make 256 'x' in
  let emit d =
    for i = 0 to 49 do
      let id = (100 * d) + i in
      sink.Sink.on_span
        (mk_span ~id ~name:"concurrent" ~start_s:(float_of_int id)
           ~duration_s:0.001
           ~attrs:[ Attr.int "task" id; Attr.str "pad" payload ]
           ())
    done
  in
  let workers = List.init 3 (fun d -> Domain.spawn (fun () -> emit (d + 1))) in
  emit 0;
  List.iter Domain.join workers;
  let lines = render_lines (Recorder.write_jsonl r) in
  check int "every span is exactly one line" 200 (List.length lines);
  check bool "every line is a complete record" true
    (List.for_all
       (fun l ->
         String.length l > 0
         && l.[0] = '{'
         && l.[String.length l - 1] = '}'
         && contains l {|"type":"span"|}
         && contains l {|"name":"concurrent"|})
       lines)

let test_registry_concurrent_get_or_create () =
  (* 4 domains race get-or-create on the same name and bump it 100 times
     each: exactly one instrument must exist, holding every increment. *)
  let r = Registry.create () in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 100 do
              Metric.incr (Registry.counter r ~help:"h" "race_total")
            done))
  in
  List.iter Domain.join workers;
  check int "single registration" 1 (List.length (Registry.entries r));
  check int "no lost increments" 400
    (Metric.counter_value (Registry.counter r ~help:"h" "race_total"))

let test_counter_atomic_under_domains () =
  let c = Metric.counter () in
  let h = Metric.histogram ~buckets:[| 0.5; 1.5 |] () in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Metric.incr c;
              Metric.observe h 1.
            done))
  in
  List.iter Domain.join workers;
  check int "counter: no lost updates across 4 domains" 40_000
    (Metric.counter_value c);
  check int "histogram count intact" 40_000 (Metric.histogram_count h);
  check (Alcotest.float 1e-6) "histogram sum intact" 40_000.
    (Metric.histogram_sum h)

(* ------------------------------------------------------------------ *)
(* Monotonic clock *)

let test_mono_nondecreasing () =
  let prev = ref (Obs.mono_s ()) in
  for _ = 1 to 1_000 do
    let now = Obs.mono_s () in
    if now < !prev then
      Alcotest.failf "mono_s went backwards: %.9f after %.9f" now !prev;
    prev := now
  done;
  (* The clock must actually advance over real work. *)
  let t0 = Obs.mono_s () in
  ignore (Sys.opaque_identity (List.init 100_000 Fun.id));
  check bool "mono_s advances" true (Obs.mono_s () > t0)

(* ------------------------------------------------------------------ *)
(* Chrome trace export *)

let test_trace_export_shape () =
  let spans =
    [
      mk_span ~id:1 ~name:"engine.decide" ~start_s:10.0 ~duration_s:0.002 ();
      mk_span ~id:2 ~parent:1 ~name:"engine.stage" ~start_s:10.0005
        ~duration_s:0.001 ();
      mk_span ~id:3 ~name:"engine.decide" ~start_s:10.001 ~duration_s:0.003
        ();
    ]
  in
  let events =
    [
      {
        Span.name = "sim.txn.abort";
        time_s = 10.0010;
        span = Some 1;
        attrs = [];
      };
    ]
  in
  match
    Trace_export.to_json
      (List.map (fun s -> Recorder.Rspan s) spans
      @ List.map (fun e -> Recorder.Revent e) events)
  with
  | Json.Obj fields ->
      check bool "displayTimeUnit ms" true
        (List.assoc_opt "displayTimeUnit" fields = Some (Json.Str "ms"));
      let evs =
        match List.assoc "traceEvents" fields with
        | Json.List l -> l
        | _ -> Alcotest.fail "traceEvents is not a list"
      in
      let phase j =
        match j with
        | Json.Obj f -> (
            match List.assoc_opt "ph" f with
            | Some (Json.Str p) -> p
            | _ -> Alcotest.fail "event without ph")
        | _ -> Alcotest.fail "trace event is not an object"
      in
      let completes = List.filter (fun j -> phase j = "X") evs in
      check int "one complete event per span" 3 (List.length completes);
      check int "one instant per event" 1
        (List.length (List.filter (fun j -> phase j = "i") evs));
      (* process_name + the one thread_name *)
      check int "metadata names the process and its thread" 2
        (List.length (List.filter (fun j -> phase j = "M") evs));
      let field f j =
        match j with Json.Obj l -> List.assoc_opt f l | _ -> None
      in
      check bool "every event is metadata, complete or instant" true
        (List.for_all (fun j -> List.mem (phase j) [ "M"; "X"; "i" ]) evs);
      check bool "every instant carries a scope" true
        (List.for_all
           (fun j ->
             phase j <> "i"
             ||
             match field "s" j with
             | Some (Json.Str ("t" | "p" | "g")) -> true
             | _ -> false)
           evs);
      check bool "every complete event has a non-negative dur" true
        (List.for_all
           (fun j ->
             match field "dur" j with
             | Some (Json.Float d) -> d >= 0.
             | Some (Json.Int d) -> d >= 0
             | _ -> false)
           completes);
      let tids =
        List.sort_uniq compare (List.filter_map (field "tid") evs)
      in
      check int "one thread track" 1 (List.length tids);
      (* ts is microseconds relative to the earliest record: the first
         span starts at 0, the second 500us later. *)
      let ts =
        List.sort compare
          (List.filter_map
             (fun j ->
               match field "ts" j with Some (Json.Float t) -> Some t | _ -> None)
             completes)
      in
      (match ts with
      | [ t0; t1; t2 ] ->
          check (Alcotest.float 1e-6) "earliest span at ts 0" 0. t0;
          check (Alcotest.float 1e-6) "second span 500us later" 500. t1;
          check (Alcotest.float 1e-6) "third span 1000us later" 1000. t2
      | _ -> Alcotest.fail "expected 3 complete-event timestamps")
  | _ -> Alcotest.fail "to_json did not return an object"

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let rspan ~id ~start_s ~task =
  Recorder.Rspan
    (mk_span ~id ~name:"hammer" ~start_s ~duration_s:0.001
       ~attrs:[ Attr.int "task" task ]
       ())

let test_recorder_ring_wrap () =
  let r = Recorder.create ~capacity:4 () in
  let sink = Recorder.sink r in
  for i = 1 to 10 do
    match rspan ~id:i ~start_s:(float_of_int i) ~task:i with
    | Recorder.Rspan s -> sink.Sink.on_span s
    | Recorder.Revent _ -> assert false
  done;
  let recs = Recorder.records r in
  check int "ring keeps the last [capacity] records" 4 (List.length recs);
  let ids =
    List.map
      (function
        | Recorder.Rspan s -> s.Span.id
        | Recorder.Revent _ -> Alcotest.fail "unexpected event")
      recs
  in
  check (Alcotest.list int) "oldest-first, newest retained" [ 7; 8; 9; 10 ] ids

let test_recorder_multi_domain_hammer () =
  (* 4 domains push 200 spans each through the ring. Capacity is large
     enough that nothing is evicted, so afterwards the ring must hold
     exactly 800 records, each with its payload intact — a torn record
     (or a lost push) breaks the count or the per-emitter
     reconstruction. *)
  let per_domain = 200 in
  let r = Recorder.create ~capacity:1_024 () in
  let sink = Recorder.sink r in
  let emit e =
    for i = 0 to per_domain - 1 do
      let id = (e * per_domain) + i in
      sink.Sink.on_span
        (mk_span ~id ~name:"hammer" ~start_s:(float_of_int id)
           ~duration_s:0.001
           ~attrs:[ Attr.int "emitter" e; Attr.int "seq" i ]
           ())
    done
  in
  let workers = List.init 3 (fun e -> Domain.spawn (fun () -> emit (e + 1))) in
  emit 0;
  List.iter Domain.join workers;
  let recs = Recorder.records r in
  check int "every push retained" (4 * per_domain) (List.length recs);
  let seen = Array.make_matrix 4 per_domain false in
  List.iter
    (function
      | Recorder.Revent _ -> Alcotest.fail "unexpected event in ring"
      | Recorder.Rspan s -> (
          match
            ( List.assoc_opt "emitter" s.Span.attrs,
              List.assoc_opt "seq" s.Span.attrs )
          with
          | Some (Attr.Int e), Some (Attr.Int i) ->
              check string "payload name intact" "hammer" s.Span.name;
              if seen.(e).(i) then
                Alcotest.failf "duplicate record emitter=%d seq=%d" e i;
              seen.(e).(i) <- true
          | _ -> Alcotest.fail "torn record: emitter/seq attrs missing"))
    recs;
  Array.iteri
    (fun e row ->
      Array.iteri
        (fun i present ->
          if not present then Alcotest.failf "lost push emitter=%d seq=%d" e i)
        row)
    seen

let test_recorder_dump_and_anomaly_cap () =
  let r = Recorder.create ~capacity:8 () in
  let sink = Recorder.sink r in
  (match rspan ~id:1 ~start_s:1. ~task:1 with
  | Recorder.Rspan s -> sink.Sink.on_span s
  | Recorder.Revent _ -> assert false);
  let reg = Registry.create () in
  Metric.incr (Registry.counter reg ~help:"h" "dumped_total");
  Metric.observe (Registry.histogram reg ~buckets:[| 1. |] ~help:"h" "lat_s") 0.5;
  Recorder.set_registries r (fun () -> [ ("test", reg) ]);
  let path = Filename.temp_file "distlock_rec" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Recorder.set_dump_dest r (fun () -> oc);
      Recorder.set_global (Some r);
      Fun.protect
        ~finally:(fun () ->
          Recorder.set_global None;
          close_out oc)
        (fun () ->
          for i = 1 to 5 do
            Recorder.anomaly ~reason:(Printf.sprintf "anomaly %d" i)
          done;
          Recorder.anomaly ~reason:"sixth (over the cap)");
      check int "every anomaly counted" 6 (Recorder.dump_count r);
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check int "dump cap held: 5 headers" 5
        (List.length
           (List.filter (fun l -> contains l {|"type":"flight_dump"|}) lines));
      check bool "header carries the gc snapshot" true
        (List.exists (fun l -> contains l {|"minor_words"|}) lines);
      check bool "buffered span dumped" true
        (List.exists (fun l -> contains l {|"name":"hammer"|}) lines);
      check bool "counter snapshot present" true
        (List.exists
           (fun l ->
             contains l {|"name":"dumped_total"|} && contains l {|"value":1|})
           lines);
      check bool "histogram snapshot carries buckets" true
        (List.exists
           (fun l ->
             contains l {|"name":"lat_s"|}
             && contains l {|"cumulative":[1,1]|}
             && contains l {|"sum":0.5|})
           lines))

let test_recorder_keep_all_renderings () =
  (* One emitter sends 1 500 spans and 1 500 events through [Obs] into
     a keep-all recorder: 3 000 records, more than the default ring's
     512 slots. Both file renderings hold every record, in emission
     order; the flight dump stays bounded to the newest 512 records. *)
  let per_kind = 1_500 in
  let r = Recorder.create ~capacity:max_int () in
  Obs.set_level Obs.Info;
  Obs.set_sink (Recorder.sink r);
  Fun.protect
    ~finally:(fun () -> Obs.set_sink Sink.noop)
    (fun () ->
      for i = 0 to per_kind - 1 do
        let attrs () = [ Attr.int "seq" i ] in
        Obs.with_span ~attrs "kept" ignore;
        Obs.event ~attrs "kept"
      done);
  let total = 2 * per_kind in
  let lines = render_lines (Recorder.write_jsonl r) in
  check int "JSONL holds every record" total (List.length lines);
  (* The k-th record is span k/2 when k is even, else event k/2. *)
  List.iteri
    (fun k l ->
      let i = int_field l "seq" in
      let k' = (2 * i) + if contains l {|"type":"span"|} then 0 else 1 in
      if k' <> k then
        Alcotest.failf "record %d arrived as number %d" k' k)
    lines;
  let chrome = render_lines (Trace_export.write r) in
  let count pat = List.length (List.filter (fun l -> contains l pat) chrome) in
  check int "one complete event per span" per_kind (count {|"ph": "X"|});
  check int "one instant per event" per_kind (count {|"ph": "i"|});
  match render_lines (Recorder.dump r ~reason:"bounded") with
  | [] -> Alcotest.fail "empty dump"
  | header :: recs ->
      (* No registries are set, so every line after the header is a
         record. *)
      check int "header counts the listed records"
        (int_field header "records") (List.length recs);
      check int "dump bounded to the newest 512 records" 512
        (List.length recs);
      check int "records + dropped = every push" total
        (int_field header "records" + int_field header "dropped");
      (* The newest record is the last event. *)
      check int "dump ends at the newest record" (per_kind - 1)
        (int_field (List.nth recs 511) "seq")

let test_anomaly_uninstalled_noop () =
  Recorder.set_global None;
  (* Must not raise or print; there is nothing installed. *)
  Recorder.anomaly ~reason:"nobody home"

(* ------------------------------------------------------------------ *)
(* Engine Stats on top of the registry *)

let test_stats_zero_decisions () =
  let s = E.Stats.create () in
  check (Alcotest.float 0.) "hit_rate 0 before any decision" 0.
    (E.Stats.hit_rate s);
  check bool "stages empty" true (E.Stats.stages s = []);
  let out = Format.asprintf "%a" E.Stats.pp s in
  check bool "pp mentions the empty stage table" true
    (contains out "(no stage activity)")

let test_stats_counters_roundtrip () =
  let s = E.Stats.create () in
  E.Stats.record_stage s ~name:"theorem1" (E.Outcome.Decided, false) 0.5;
  E.Stats.record_stage s ~name:"theorem1" (E.Outcome.Decided, true) 0.25;
  E.Stats.record_stage s ~name:"theorem1" (E.Outcome.Passed, false) 0.25;
  E.Stats.record_decision s ~cached:false ~unknown:false;
  E.Stats.record_cache_miss s;
  E.Stats.record_decision s ~cached:true ~unknown:false;
  check int "decisions" 2 (E.Stats.decisions s);
  check int "cache hits" 1 (E.Stats.cache_hits s);
  check (Alcotest.float 1e-9) "hit rate" 0.5 (E.Stats.hit_rate s);
  (match E.Stats.stages s with
  | [ st ] ->
      check int "attempts" 3 st.E.Stats.attempts;
      check int "safe" 1 st.E.Stats.decided_safe;
      check int "unsafe" 1 st.E.Stats.decided_unsafe;
      check (Alcotest.float 1e-9) "seconds accumulate" 1. st.E.Stats.seconds;
      check (Alcotest.float 1e-9) "mean over attempts" (1. /. 3.)
        (E.Stats.mean_seconds st)
  | l -> Alcotest.failf "expected 1 stage, got %d" (List.length l));
  let prom = Format.asprintf "%a" E.Stats.pp_prometheus s in
  check bool "prometheus carries the stage label" true
    (contains prom
       {|distlock_engine_stage_total{stage="theorem1",result="safe"} 1|})

let test_stats_reset () =
  let s = E.Stats.create () in
  E.Stats.record_stage s ~name:"trivial" (E.Outcome.Passed, false) 0.1;
  E.Stats.record_decision s ~cached:false ~unknown:false;
  E.Stats.reset s;
  check int "decisions zeroed" 0 (E.Stats.decisions s);
  check bool "stage list emptied" true (E.Stats.stages s = []);
  E.Stats.record_stage s ~name:"trivial" (E.Outcome.Passed, false) 0.1;
  check int "stage usable again after reset" 1
    (List.length (E.Stats.stages s))

(* ------------------------------------------------------------------ *)
(* Histogram quantiles *)

let test_quantile_empty () =
  let h = Metric.histogram ~buckets:[| 1.; 2. |] () in
  check bool "empty histogram quantile is NaN" true
    (Float.is_nan (Metric.quantile h 0.5))

let test_quantile_interpolation () =
  let h = Metric.histogram ~buckets:[| 1.; 2.; 4. |] () in
  (* 4 observations in (1,2]: the bucket holding any quantile. *)
  List.iter (fun v -> Metric.observe h v) [ 1.2; 1.4; 1.6; 1.8 ];
  (* p50 target = 2nd observation of 4 in [1,2]: 1 + (2/4)*1 = 1.5 *)
  check (Alcotest.float 1e-9) "p50 interpolates inside the bucket" 1.5
    (Metric.quantile h 0.5);
  check (Alcotest.float 1e-9) "p0 is the bucket's lower bound" 1.
    (Metric.quantile h 0.);
  check (Alcotest.float 1e-9) "p100 is the bucket's upper bound" 2.
    (Metric.quantile h 1.)

let test_quantile_inf_bucket () =
  let h = Metric.histogram ~buckets:[| 1.; 2. |] () in
  Metric.observe h 0.5;
  Metric.observe h 50.;
  (* The +Inf bucket has no upper bound to interpolate against; the
     quantile clamps to the highest finite bound. *)
  check (Alcotest.float 1e-9) "overflow quantile clamps to last bound" 2.
    (Metric.quantile h 0.99)

let test_quantile_invalid_q () =
  let h = Metric.histogram ~buckets:[| 1. |] () in
  Alcotest.check_raises "q out of range rejected"
    (Invalid_argument "Metric.quantile: q outside [0,1]") (fun () ->
      ignore (Metric.quantile h 1.5))

(* ------------------------------------------------------------------ *)
(* HELP escaping in the exposition *)

let test_prometheus_help_escaped () =
  let r = Registry.create () in
  let _ =
    Registry.counter r ~help:"line one\nback\\slash" "help_escape_total"
  in
  let out = Registry.to_prometheus r in
  check bool "newline escaped in HELP" true
    (contains out {|# HELP help_escape_total line one\nback\\slash|});
  check bool "no literal newline inside the HELP text" false
    (contains out "line one\nback")

(* ------------------------------------------------------------------ *)
(* Expose: the scrape endpoint *)

let http_get ~port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
          path
      in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let body_of resp =
  let rec find i =
    if i + 4 > String.length resp then resp
    else if String.sub resp i 4 = "\r\n\r\n" then
      String.sub resp (i + 4) (String.length resp - i - 4)
    else find (i + 1)
  in
  find 0

let with_server registries f =
  match Expose.start ~port:0 ~registries () with
  | Error m -> Alcotest.fail m
  | Ok srv ->
      Fun.protect ~finally:(fun () -> Expose.stop srv) (fun () ->
          f (Expose.port srv))

let test_expose_routes () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"a counter" "route_total" in
  Metric.incr c;
  let h = Registry.histogram r ~buckets:[| 1.; 2. |] ~help:"a hist" "lat" in
  Metric.observe h 1.5;
  with_server (fun () -> [ ("test", r) ]) (fun port ->
      let metrics = http_get ~port "/metrics" in
      check bool "metrics is 200" true (contains metrics "HTTP/1.1 200 OK");
      check bool "prometheus content type" true
        (contains metrics "text/plain; version=0.0.4");
      check bool "counter served" true
        (contains (body_of metrics) "route_total 1");
      check bool "healthz" true (contains (http_get ~port "/healthz") "ok\n");
      let vars = body_of (http_get ~port "/vars") in
      check bool "vars carries the quantile snapshot" true
        (contains vars {|"p50"|});
      check bool "unknown path is 404" true
        (contains (http_get ~port "/nope") "404 Not Found");
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let req = "POST /metrics HTTP/1.1\r\n\r\n" in
          ignore (Unix.write_substring sock req 0 (String.length req));
          let buf = Bytes.create 256 in
          let n = Unix.read sock buf 0 256 in
          check bool "non-GET is 405" true
            (contains (Bytes.sub_string buf 0 n) "405")));
  (* stop is idempotent and the port is released: a second server can
     bind a fresh ephemeral port immediately. *)
  with_server (fun () -> [ ("test", r) ]) (fun port -> ignore port)

(* Prometheus text sanity, shared with the hammer below: every
   non-comment line must end in a numeric sample. *)
let scrape_parses body =
  String.split_on_char '\n' body
  |> List.for_all (fun line ->
         line = ""
         || line.[0] = '#'
         ||
         match String.rindex_opt line ' ' with
         | None -> false
         | Some i ->
             float_of_string_opt
               (String.sub line (i + 1) (String.length line - i - 1))
             <> None)

let metric_value body name =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         if
           String.length line > String.length name
           && String.sub line 0 (String.length name) = name
           && line.[String.length name] = ' '
         then
           match String.rindex_opt line ' ' with
           | Some i ->
               float_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))
           | None -> None
         else None)

let test_expose_scrape_under_write () =
  let r = Registry.create () in
  let stop = Atomic.make false in
  (* Four writer domains hammer a shared counter and histogram while the
     main thread scrapes in a loop: every scrape must parse, and the
     counter must be monotone from one scrape to the next. *)
  let writers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let c =
              Registry.counter r ~help:"hammered" "hammer_total"
            and h =
              Registry.histogram r
                ~labels:[ ("writer", string_of_int d) ]
                ~buckets:[| 1.; 10.; 100. |] ~help:"hammered" "hammer_lat"
            in
            while not (Atomic.get stop) do
              Metric.incr c;
              Metric.observe h (float_of_int (1 + (d * 7 mod 97)))
            done))
  in
  with_server (fun () -> [ ("hammer", r) ]) (fun port ->
      let last = ref neg_infinity in
      for i = 1 to 25 do
        let body = body_of (http_get ~port "/metrics") in
        if not (scrape_parses body) then
          Alcotest.failf "scrape %d failed to parse:\n%s" i body;
        match metric_value body "hammer_total" with
        | Some v ->
            if v < !last then
              Alcotest.failf "scrape %d: counter went backwards (%g < %g)" i v
                !last;
            last := v
        | None -> ()
      done;
      Atomic.set stop true;
      List.iter Domain.join writers;
      check bool "writes landed" true (!last > 0.))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "compact" `Quick test_json_compact;
          Alcotest.test_case "floats" `Quick test_json_floats;
          Alcotest.test_case "pretty" `Quick test_json_pretty;
        ] );
      ( "metric",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram validation" `Quick
            test_histogram_validation;
          Alcotest.test_case "quantile empty" `Quick test_quantile_empty;
          Alcotest.test_case "quantile interpolation" `Quick
            test_quantile_interpolation;
          Alcotest.test_case "quantile +Inf clamp" `Quick
            test_quantile_inf_bucket;
          Alcotest.test_case "quantile invalid q" `Quick
            test_quantile_invalid_q;
        ] );
      ( "registry",
        [
          Alcotest.test_case "get-or-create" `Quick test_registry_get_or_create;
          Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "invalid name" `Quick test_registry_invalid_name;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
          Alcotest.test_case "families contiguous" `Quick
            test_prometheus_families_contiguous;
          Alcotest.test_case "reset" `Quick test_registry_reset;
          Alcotest.test_case "HELP escaped" `Quick test_prometheus_help_escaped;
        ] );
      ( "expose",
        [
          Alcotest.test_case "routes" `Quick test_expose_routes;
          Alcotest.test_case "scrape under write" `Quick
            test_expose_scrape_under_write;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception closes span" `Quick
            test_span_exception_closes;
          Alcotest.test_case "end_span idempotent" `Quick
            test_end_span_idempotent;
          Alcotest.test_case "event level gating" `Quick
            test_event_level_gating;
          Alcotest.test_case "disabled thunks unforced" `Quick
            test_disabled_thunks_unforced;
          Alcotest.test_case "jsonl shape" `Quick test_span_jsonl_shape;
          Alcotest.test_case "level_of_string" `Quick test_level_of_string;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "jsonl no interleaving" `Quick
            test_jsonl_no_interleaving;
          Alcotest.test_case "registry concurrent get-or-create" `Quick
            test_registry_concurrent_get_or_create;
          Alcotest.test_case "atomic instruments" `Quick
            test_counter_atomic_under_domains;
        ] );
      ( "mono clock",
        [ Alcotest.test_case "nondecreasing" `Quick test_mono_nondecreasing ] );
      ( "chrome trace",
        [ Alcotest.test_case "export shape" `Quick test_trace_export_shape ] );
      ( "flight recorder",
        [
          Alcotest.test_case "ring wrap" `Quick test_recorder_ring_wrap;
          Alcotest.test_case "multi-domain hammer" `Quick
            test_recorder_multi_domain_hammer;
          Alcotest.test_case "keep-all renderings" `Quick
            test_recorder_keep_all_renderings;
          Alcotest.test_case "dump + anomaly cap" `Quick
            test_recorder_dump_and_anomaly_cap;
          Alcotest.test_case "anomaly uninstalled" `Quick
            test_anomaly_uninstalled_noop;
        ] );
      ( "engine stats",
        [
          Alcotest.test_case "zero decisions" `Quick test_stats_zero_decisions;
          Alcotest.test_case "counters roundtrip" `Quick
            test_stats_counters_roundtrip;
          Alcotest.test_case "reset" `Quick test_stats_reset;
        ] );
    ]
