(* Chrome trace-event export: render the recorder's spans and events in
   the JSON format chrome://tracing and Perfetto read natively.

   Mapping:
     span   -> a "complete" event  (ph "X", ts + dur in microseconds)
     event  -> an "instant" event  (ph "i", thread-scoped)
     domain -> a thread track      (tid = the span's "domain" attribute)

   The whole process is one pid; each OCaml domain becomes one thread
   track, named by "M"-phase metadata records, so a --jobs N batch shows
   its pool workers as N parallel lanes. Timestamps are microseconds
   relative to the earliest record, which keeps them small and lines the
   viewer up at t=0. *)

let pid = 1

let domain_of (attrs : Attr.t) =
  match List.assoc_opt "domain" attrs with
  | Some (Attr.Int d) -> d
  | Some (Attr.Str _ | Attr.Float _ | Attr.Bool _) | None -> 0

let attrs_of = function
  | Recorder.Rspan s -> s.Span.attrs
  | Recorder.Revent e -> e.Span.attrs

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
       ("tid", Json.Int (domain_of s.Span.attrs));
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
       ("tid", Json.Int (domain_of e.Span.attrs));
     ]
    @ args_field e.Span.attrs
        (match e.Span.span with
        | Some p -> [ ("span", Json.Int p) ]
        | None -> []))

let trace_event ~t0 = function
  | Recorder.Rspan s -> span_record ~t0 s
  | Recorder.Revent e -> event_record ~t0 e

let metadata tids =
  Json.Obj
    [
      ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("args", Json.Obj [ ("name", Json.Str "distlock") ]);
    ]
  :: List.map
       (fun tid ->
         Json.Obj
           [
             ("name", Json.Str "thread_name");
             ("ph", Json.Str "M");
             ("pid", Json.Int pid);
             ("tid", Json.Int tid);
             ( "args",
               Json.Obj
                 [ ("name", Json.Str (Printf.sprintf "domain %d" tid)) ] );
           ])
       tids

let to_json records =
  let t0 = origin records in
  let tracks =
    List.sort_uniq Int.compare
      (List.map (fun r -> domain_of (attrs_of r)) records)
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (metadata tracks @ List.map (trace_event ~t0) records) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let write t oc =
  output_string oc (Json.to_string_pretty (to_json (Recorder.records t)));
  output_char oc '\n'
