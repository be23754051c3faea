(* Chrome trace-event export: render the recorder's spans and events in
   the JSON format chrome://tracing and Perfetto read natively.

   Mapping:
     span   -> a "complete" event  (ph "X", ts + dur in microseconds)
     event  -> an "instant" event  (ph "i", thread-scoped)

   The whole process is one pid with one thread track, both named by
   "M"-phase metadata records; nested spans stack on that track.
   Timestamps are microseconds relative to the earliest record, which
   keeps them small and lines the viewer up at t=0. *)

let pid = 1

let tid = 0

let us_since t0 t = (t -. t0) *. 1e6

(* The earliest wall-clock timestamp in the stream, the export's t=0. *)
let origin records =
  let time = function
    | Recorder.Rspan s -> s.Span.start_s
    | Recorder.Revent e -> e.Span.time_s
  in
  let m =
    List.fold_left (fun acc r -> Float.min acc (time r)) infinity records
  in
  if m = infinity then 0. else m

let args_field (attrs : Attr.t) extra =
  match (attrs, extra) with
  | [], [] -> []
  | _ ->
      [
        ( "args",
          Json.Obj
            (extra
            @ List.map (fun (k, v) -> (k, Attr.json_of_value v)) attrs) );
      ]

let span_record ~t0 (s : Span.span) =
  Json.Obj
    ([
       ("name", Json.Str s.Span.name);
       ("cat", Json.Str "span");
       ("ph", Json.Str "X");
       ("ts", Json.Float (us_since t0 s.Span.start_s));
       ("dur", Json.Float (Float.max 0. (s.Span.duration_s *. 1e6)));
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ args_field s.Span.attrs
        (("span_id", Json.Int s.Span.id)
        ::
        (match s.Span.parent with
        | Some p -> [ ("parent", Json.Int p) ]
        | None -> [])))

let event_record ~t0 (e : Span.event) =
  Json.Obj
    ([
       ("name", Json.Str e.Span.name);
       ("cat", Json.Str "event");
       ("ph", Json.Str "i");
       ("s", Json.Str "t");
       ("ts", Json.Float (us_since t0 e.Span.time_s));
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ args_field e.Span.attrs
        (match e.Span.span with
        | Some p -> [ ("span", Json.Int p) ]
        | None -> []))

let trace_event ~t0 = function
  | Recorder.Rspan s -> span_record ~t0 s
  | Recorder.Revent e -> event_record ~t0 e

let metadata =
  [
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int pid);
        ("args", Json.Obj [ ("name", Json.Str "distlock") ]);
      ];
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.Str "main") ]);
      ];
  ]

let to_json records =
  let t0 = origin records in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (metadata @ List.map (trace_event ~t0) records) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let write t oc =
  output_string oc (Json.to_string_pretty (to_json (Recorder.records t)));
  output_char oc '\n'
