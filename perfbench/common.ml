(* Shared machinery of the benchmark: the monotonic clock, the span
   recorder of the traced run, the workload and round types, latency
   statistics and the result printer. *)

module Obs = Distlock_obs.Obs

let now = Obs.mono_s

(* ------------------------------------------------------------------ *)
(* Spans. The traced run wraps every public call the benchmark makes in
   [span]; the untraced run pays one branch per call. Spans stay in
   memory and are written out once the run has ended. *)

type span = {
  id : int;
  parent : int;  (** 0 for a request's root span *)
  req : int;  (** request id, shared by all spans of one request *)
  name : string;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []
let current_req = ref 0

(* [children] names child spans whose durations are known only from
   the result — the checker stages of one [Decision.decide], read off
   its outcome trace. They are laid end to end from the parent's start. *)
let span ?(children = fun _ -> []) name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !open_spans with p :: _ -> p | [] -> 0 in
    open_spans := id :: !open_spans;
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    open_spans := List.tl !open_spans;
    spans := { id; parent; req = !current_req; name; t0; t1 } :: !spans;
    ignore
      (List.fold_left
         (fun start (cname, seconds) ->
           incr next_id;
           spans :=
             { id = !next_id; parent = id; req = !current_req; name = cname;
               t0 = start; t1 = start +. seconds }
             :: !spans;
           start +. seconds)
         t0 (children r));
    r
  end

(* Self time per span name: each span's duration minus the time its
   direct children cover. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      let prev = Option.value (Hashtbl.find_opt self s.name) ~default:0. in
      Hashtbl.replace self s.name (prev +. (s.t1 -. s.t0 -. c)))
    spans;
  self

let write_spans path spans =
  (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f}\n"
        s.id s.parent s.req s.name s.t0 s.t1)
    (List.rev spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Workloads. A workload is prepared from a seed (inputs generated and
   rendered to the text the program parses); a round replays its fixed
   request list on a fresh engine or session, so every round — and every
   run of one seed — does identical work. *)

type round = {
  request : int -> unit -> bool;
      (** [request i] performs request [i] (the timed part) and returns
          the untimed check of its answer against the known answer. *)
  counts : unit -> (string * int) list;
      (** Exact work counts of the round so far. *)
  layers : unit -> (string * float) list;
      (** Per-round layer measurements read from the program's own
          counters (cache hits, states, ticks, ...) after the round. *)
}

type prepared = { requests : int; fresh : unit -> round }

type workload = {
  name : string;
  prepare : seed:int -> requests:int -> prepared;
  round_requests : int;
  warmup_requests : int;
  setups : int;  (** set-ups per run, about two seconds' worth *)
}

(* In-place Fisher-Yates shuffle. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ------------------------------------------------------------------ *)
(* Statistics. *)

let percentile sorted p =
  let n = Array.length sorted in
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) k))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile of a fixed ladder that leaves at least ten
   requests of one round beyond it. Chosen from the round size, not the
   run's request count, so every run of a workload reports the same
   percentile. *)
let tail_percentile ~round_requests =
  let ladder = [ 99.9; 99.5; 99.; 98.; 95.; 90.; 80.; 50. ] in
  match
    List.find_opt
      (fun p -> float_of_int round_requests *. (1. -. (p /. 100.)) >= 10.)
      ladder
  with
  | Some p -> p
  | None -> 50.

(* Relative span of the ranks two either side of a percentile: how much
   the reported value could move if a couple of requests changed side. *)
let rank_spread sorted p =
  let n = Array.length sorted in
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
  let lo = sorted.(max 0 (k - 2)) and hi = sorted.(min (n - 1) (k + 2)) in
  (hi -. lo) /. sorted.(max 0 (min (n - 1) k))

(* ------------------------------------------------------------------ *)
(* Output. *)

type metric = { mname : string; value : float; unit_ : string; samples : int }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "metric %-32s %18.6f %-8s samples=%d\n" m.mname m.value
        m.unit_ m.samples)
    metrics;
  let body =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.mname
             (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed body

let print_counts counts =
  Printf.printf "counts {%s}\n"
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) counts))

(* Figures that explain a run's result without being part of it, as one
   JSON object on a line of its own. *)
let print_diagnostics kvs =
  Printf.printf "diagnostics {%s}\n"
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_number v)) kvs))
