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

(* The table and order list are guarded by [lock]: {!Expose} lists the
   entries from its own thread while the deciding thread registers new
   ones, and get-or-create must stay atomic, or two threads asking for
   the same (name, labels) key could each create an instrument and split
   the counts between them. *)
type t = {
  tbl : (string * (string * string) list, entry) Hashtbl.t;
  mutable order : (string * (string * string) list) list;
      (* reversed first-registration order *)
  lock : Mutex.t;
}

let create () = { tbl = Hashtbl.create 32; order = []; lock = Mutex.create () }

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | r ->
      Mutex.unlock t.lock;
      r
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let valid_name n =
  n <> ""
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       n

let register t ~name ~help ~labels make wrong_kind =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Registry: invalid metric name %S" name);
  let key = (name, labels) in
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e -> (
          match wrong_kind e.instrument with
          | Some got ->
              invalid_arg
                (Printf.sprintf "Registry: %s already registered as a %s" name
                   got)
          | None -> e.instrument)
      | None ->
          let instrument = make () in
          Hashtbl.add t.tbl key { name; help; labels; instrument };
          t.order <- key :: t.order;
          instrument)

let kind_label = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let counter t ?(labels = []) ~help name =
  match
    register t ~name ~help ~labels
      (fun () -> Counter (Metric.counter ()))
      (function Counter _ -> None | i -> Some (kind_label i))
  with
  | Counter c -> c
  | _ -> assert false

let gauge t ?(labels = []) ~help name =
  match
    register t ~name ~help ~labels
      (fun () -> Gauge (Metric.gauge ()))
      (function Gauge _ -> None | i -> Some (kind_label i))
  with
  | Gauge g -> g
  | _ -> assert false

let histogram t ?(labels = []) ?buckets ~help name =
  match
    register t ~name ~help ~labels
      (fun () -> Histogram (Metric.histogram ?buckets ()))
      (function Histogram _ -> None | i -> Some (kind_label i))
  with
  | Histogram h -> h
  | _ -> assert false

let entries t =
  with_lock t (fun () -> List.rev_map (Hashtbl.find t.tbl) t.order)

let reset t =
  with_lock t (fun () ->
      Hashtbl.iter
        (fun _ e ->
          match e.instrument with
          | Counter c -> Metric.reset_counter c
          | Gauge g -> Metric.reset_gauge g
          | Histogram h -> Metric.reset_histogram h)
        t.tbl)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (version 0.0.4): one HELP/TYPE header per
   metric family, then one sample line per labeled instance. *)

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* HELP text escapes only backslash and newline (the 0.0.4 spec leaves
   double quotes alone outside label values). *)
let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let label_block labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           labels)
    ^ "}"

let float_sample f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let bound_label b =
  if b = Float.infinity then "+Inf" else float_sample b

(* Group entries by family so every sample of a family sits under its
   one HELP/TYPE header — the exposition format forbids interleaving. *)
let families t =
  let seen = Hashtbl.create 16 in
  let es = entries t in
  List.filter_map
    (fun (e : entry) ->
      if Hashtbl.mem seen e.name then None
      else begin
        Hashtbl.add seen e.name ();
        Some (e.name, List.filter (fun e' -> e'.name = e.name) es)
      end)
    es

let pp_prometheus ppf t =
  List.iter
    (fun (_, members) ->
      (match members with
      | e :: _ ->
          Format.fprintf ppf "# HELP %s %s@." e.name (escape_help e.help);
          Format.fprintf ppf "# TYPE %s %s@." e.name (kind_label e.instrument)
      | [] -> ());
      List.iter
        (fun e ->
          match e.instrument with
      | Counter c ->
          Format.fprintf ppf "%s%s %d@." e.name (label_block e.labels)
            (Metric.counter_value c)
      | Gauge g ->
          Format.fprintf ppf "%s%s %s@." e.name (label_block e.labels)
            (float_sample (Metric.gauge_value g))
      | Histogram h ->
          let bounds = Metric.bucket_bounds h in
          let cum = Metric.cumulative h in
          Array.iteri
            (fun i c ->
              let le =
                if i < Array.length bounds then bounds.(i) else Float.infinity
              in
              Format.fprintf ppf "%s_bucket%s %d@." e.name
                (label_block (e.labels @ [ ("le", bound_label le) ]))
                c)
            cum;
          Format.fprintf ppf "%s_sum%s %s@." e.name (label_block e.labels)
            (float_sample (Metric.histogram_sum h));
          Format.fprintf ppf "%s_count%s %d@." e.name (label_block e.labels)
            (Metric.histogram_count h))
        members)
    (families t)

let to_prometheus t = Format.asprintf "%a" pp_prometheus t
