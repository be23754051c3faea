(* The accept loop runs [Unix.select] with a short timeout and polls a
   stop flag between waits: closing a socket another thread is blocked
   in [accept] on is undefined on some platforms, so the loop owns the
   fd until it observes the flag, and [stop] closes it only after the
   join.

   The loop is a systhread of the calling domain, not a separate
   domain, on purpose: in OCaml 5 every live domain joins a
   stop-the-world handshake on each minor collection, so an extra
   domain — even one blocked in [select] — taxes allocation-heavy
   workloads on small machines (measured ~10% on one core). A
   systhread shares its domain's runtime lock instead: it costs
   nothing while blocked and only competes for cycles while actually
   serving a request. The trade-off is scrape latency — while the
   spawning domain computes without blocking, the serving thread waits
   for the runtime's preemption tick (~50ms) — which is fine for a
   metrics endpoint. *)

type t = {
  sock : Unix.file_descr;
  bound_port : int;
  stopping : bool Atomic.t;
  mutable worker : Thread.t option;
}

let http_date () =
  (* Fixed-locale RFC 1123 date; Unix.gmtime is locale-free. *)
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  let day = [| "Sun"; "Mon"; "Tue"; "Wed"; "Thu"; "Fri"; "Sat" |] in
  let mon =
    [| "Jan"; "Feb"; "Mar"; "Apr"; "May"; "Jun";
       "Jul"; "Aug"; "Sep"; "Oct"; "Nov"; "Dec" |]
  in
  Printf.sprintf "%s, %02d %s %04d %02d:%02d:%02d GMT" day.(tm.Unix.tm_wday)
    tm.Unix.tm_mday mon.(tm.Unix.tm_mon) (tm.Unix.tm_year + 1900)
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\n\
     Date: %s\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    status (http_date ()) content_type (String.length body) body

let metrics_body registries =
  String.concat "" (List.map (fun (_, r) -> Registry.to_prometheus r) registries)

let instrument_to_json = function
  | Registry.Counter c -> Json.Int (Metric.counter_value c)
  | Registry.Gauge g -> Json.Float (Metric.gauge_value g)
  | Registry.Histogram h ->
      Json.Obj
        [
          ("count", Json.Int (Metric.histogram_count h));
          ("sum", Json.Float (Metric.histogram_sum h));
          ("p50", Json.Float (Metric.quantile h 0.5));
          ("p90", Json.Float (Metric.quantile h 0.9));
          ("p99", Json.Float (Metric.quantile h 0.99));
        ]

let entry_key (e : Registry.entry) =
  if e.labels = [] then e.name
  else
    e.name ^ "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) e.labels)
    ^ "}"

let vars_body registries =
  let reg (name, r) =
    ( name,
      Json.Obj
        (List.map
           (fun (e : Registry.entry) ->
             (entry_key e, instrument_to_json e.instrument))
           (Registry.entries r)) )
  in
  Json.to_string_pretty (Json.Obj (List.map reg registries)) ^ "\n"

let route registries path =
  match path with
  | "/metrics" ->
      response ~status:"200 OK"
        ~content_type:"text/plain; version=0.0.4; charset=utf-8"
        (metrics_body (registries ()))
  | "/healthz" -> response ~status:"200 OK" ~content_type:"text/plain" "ok\n"
  | "/vars" ->
      response ~status:"200 OK" ~content_type:"application/json"
        (vars_body (registries ()))
  | _ ->
      response ~status:"404 Not Found" ~content_type:"text/plain"
        "not found\n"

(* Read until the blank line ending the request head; the routes ignore
   headers and bodies, so 8 KiB is plenty and caps a hostile client. *)
let read_head fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  let rec go () =
    if Buffer.length buf > 8192 then Buffer.contents buf
    else
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then Buffer.contents buf
      else begin
        Buffer.add_subbytes buf chunk 0 n;
        let s = Buffer.contents buf in
        let rec has_terminator i =
          i >= 0
          && (String.sub s i 4 = "\r\n\r\n" || has_terminator (i - 1))
        in
        if String.length s >= 4 && has_terminator (String.length s - 4) then s
        else go ()
      end
  in
  go ()

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let handle registries client =
  Unix.setsockopt_float client Unix.SO_RCVTIMEO 2.;
  Unix.setsockopt_float client Unix.SO_SNDTIMEO 5.;
  let head = read_head client in
  let reply =
    match String.split_on_char ' ' (List.hd (String.split_on_char '\r' head))
    with
    | "GET" :: path :: _ -> route registries path
    | _ :: _ :: _ ->
        response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
          "method not allowed\n"
    | _ ->
        response ~status:"400 Bad Request" ~content_type:"text/plain"
          "bad request\n"
  in
  write_all client reply

let accept_loop t registries =
  while not (Atomic.get t.stopping) do
    match Unix.select [ t.sock ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ when Atomic.get t.stopping -> ()
    | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.sock with
        | client, _ ->
            (try handle registries client with _ -> ());
            (try Unix.close client with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _) ->
            ())
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let start ?(host = "127.0.0.1") ~port ~registries () =
  (* [Unix.bind] keeps only a port's low 16 bits: 70000 would bind 4464. *)
  if port < 0 || port > 65535 then
    Error
      (Printf.sprintf "cannot serve metrics on %s:%d: port outside 0-65535"
         host port)
  else
    match
      let addr = Unix.inet_addr_of_string host in
      let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt sock Unix.SO_REUSEADDR true;
         Unix.bind sock (Unix.ADDR_INET (addr, port));
         Unix.listen sock 16
       with e ->
         (try Unix.close sock with Unix.Unix_error _ -> ());
         raise e);
      let bound_port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      let t =
        { sock; bound_port; stopping = Atomic.make false; worker = None }
      in
      t.worker <-
        Some (Thread.create (fun () -> accept_loop t registries) ());
      t
    with
    | t -> Ok t
    | exception Unix.Unix_error (err, _, _) ->
        Error
          (Printf.sprintf "cannot serve metrics on %s:%d: %s" host port
             (Unix.error_message err))
    | exception Failure _ ->
        Error (Printf.sprintf "cannot serve metrics: invalid host %S" host)

let port t = t.bound_port

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (match t.worker with Some th -> Thread.join th | None -> ());
    t.worker <- None;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end
