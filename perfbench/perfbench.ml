(* The distlock benchmark: four closed-loop workloads, one client each,
   on one domain.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe pin

   Set-up (input generation, rendering, a fresh engine or session and a
   warm-up from a separate seed) is repeated [w.setups] times and its
   median reported. The timed phase then replays the workload's fixed
   request list in whole rounds, each on a fresh engine or session,
   until [--seconds] have passed. With [--trace 0] the last line is the
   end-to-end result, its times scaled by the host's slowdown measured
   beside them (see [Host]); with [--trace 1] untraced and traced rounds
   alternate, every public call is wrapped in a span, and the last line
   carries the per-layer metrics. [pin] rewrites the check-poly pool's
   pinned verdicts. *)

open Common

let workloads =
  [ Check_poly.workload; Check_exact.workload; Edit_session.workload; Simulate.workload ]


(* Warm-up inputs come from another seed than the timed requests. *)
let warmup_seed seed = seed + 1_000_003

(* The CLI's default observability: the flight-recorder sink that
   [setup_obs] installs on every invocation, at level info. *)
let install_recorder () =
  Obs.set_level Obs.Info;
  let r = Distlock_obs.Recorder.create () in
  Distlock_obs.Recorder.set_registries r (fun () -> [ ("global", Obs.global) ]);
  Distlock_obs.Recorder.set_global (Some r);
  Obs.set_sink (Distlock_obs.Recorder.sink r)

(* [Host.step] blocks before and after each set-up give the host's
   slowdown during it. *)
let host_block () =
  let steps = 100 in
  let t = ref 0. in
  for _ = 1 to steps do
    t := !t +. Host.step ()
  done;
  Host.slowdown ~steps !t

type setup_time = { seconds : float; setup_slow : float }

let setup w ~seed =
  let before = host_block () in
  let t0 = now () in
  let p = w.prepare ~seed ~requests:w.round_requests in
  let warm = w.prepare ~seed:(warmup_seed seed) ~requests:w.warmup_requests in
  let wr = warm.fresh () in
  (* Warm-up answers are not checked: checking is the benchmark's work,
     not set-up the program needs. *)
  for i = 0 to warm.requests - 1 do
    let (_ : unit -> bool) = wr.request i in
    ()
  done;
  let first = p.fresh () in
  let seconds = now () -. t0 in
  (p, first, { seconds; setup_slow = (before +. host_block ()) /. 2. })

type round_time = {
  lat : float array;  (** request latencies in order, seconds *)
  busy : float;  (** their sum *)
  slow : float;  (** the host's slowdown over the round's [Host.step]s *)
}

type run = {
  untraced : round_time list;
  traced_rounds : int;
  traced_busy : float;  (** summed request wall of traced rounds *)
  failed : int;
  counts : (string * int) list list;  (** per round, in order *)
  layers : (string * float) list;  (** of the last round *)
  minor_words : float;  (** summed over traced requests *)
  majors : (bool * int) list;  (** per round: traced, major collections *)
}

(* Whole rounds until [seconds] have passed. With [traced], rounds
   alternate untraced / traced, starting untraced, and at least one of
   each runs. A [Host.step] follows every request's check. *)
let timed ~seconds ~traced (p : prepared) first =
  let n = p.requests in
  let start = now () in
  let rounds = ref 0 and tr = ref 0 in
  let untraced = ref [] and tb = ref 0. and failed = ref 0 in
  let counts = ref [] and layers = ref [] in
  let minor = ref 0. and majors = ref [] in
  let continue = ref true in
  while !continue do
    let r = if !rounds = 0 then first else p.fresh () in
    let this_traced = traced && !rounds mod 2 = 1 in
    tracing := this_traced;
    let major0 = (Gc.quick_stat ()).Gc.major_collections in
    let lat = Array.make n 0. and host = ref 0. in
    for i = 0 to n - 1 do
      current_req := (!rounds * n) + i + 1;
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let check = span "request" (fun () -> r.request i) in
      let t1 = now () in
      let w1 = Gc.minor_words () in
      lat.(i) <- t1 -. t0;
      if this_traced then minor := !minor +. (w1 -. w0);
      if not (check ()) then incr failed;
      host := !host +. Host.step ()
    done;
    tracing := false;
    majors := (this_traced, (Gc.quick_stat ()).Gc.major_collections - major0) :: !majors;
    let busy = Array.fold_left ( +. ) 0. lat in
    if this_traced then begin
      incr tr;
      tb := !tb +. busy
    end
    else untraced := { lat; busy; slow = Host.slowdown ~steps:n !host } :: !untraced;
    counts := r.counts () :: !counts;
    if this_traced || not traced then layers := r.layers ();
    incr rounds;
    if now () -. start >= seconds && ((not traced) || (!untraced <> [] && !tr > 0)) then
      continue := false
  done;
  {
    untraced = List.rev !untraced;
    traced_rounds = !tr;
    traced_busy = !tb;
    failed = !failed;
    counts = List.rev !counts;
    layers = !layers;
    minor_words = !minor;
    majors = List.rev !majors;
  }

(* Each round's request latencies are divided by the round's host
   slowdown and pooled over the run's untraced rounds; [p50_ms] and
   [tail_ms] are percentiles of that pool, which holds every round's
   garbage collection. [ops_per_s] is a round's request count over its
   scaled busy time, the median over the rounds. The same figures
   unscaled are printed as diagnostics. *)
let end_to_end w ~setups (r : run) =
  let n = w.round_requests in
  let tp = tail_percentile ~round_requests:n in
  let pool k =
    let a = Array.concat (List.map (fun rt -> Array.map (fun l -> l /. k rt) rt.lat) r.untraced) in
    Array.sort compare a;
    a
  in
  let ops k = median (List.map (fun rt -> float_of_int n /. rt.busy *. k rt) r.untraced) in
  let scaled rt = rt.slow and unscaled _ = 1. in
  let lat = pool scaled and raw = pool unscaled in
  let setup_s = median (List.map (fun s -> s.seconds /. s.setup_slow) setups) in
  let attempted = (List.length r.untraced + r.traced_rounds) * n in
  let ok = attempted - r.failed in
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  let slows = List.map (fun rt -> rt.slow) r.untraced in
  Printf.printf
    "rounds %d of %d requests; tail_ms is p%g of %d pooled latencies (%d beyond it, %d per round)\n"
    (List.length r.untraced) n tp (Array.length lat)
    (int_of_float (float_of_int (Array.length lat) *. (1. -. (tp /. 100.))))
    (int_of_float (float_of_int n *. (1. -. (tp /. 100.))));
  print_diagnostics
    [
      ("unscaled.setup_s", median (List.map (fun s -> s.seconds) setups));
      ("unscaled.p50_ms", 1e3 *. percentile raw 50.);
      ("unscaled.tail_ms", 1e3 *. percentile raw tp);
      ("unscaled.ops_per_s", ops unscaled);
      ("host.slowdown", median slows);
      ("host.slowdown_range", List.fold_left max 0. slows /. List.fold_left min infinity slows);
      ("host.setup_slowdown", median (List.map (fun s -> s.setup_slow) setups));
      ("rank_spread.p50", rank_spread lat 50.);
      ("rank_spread.tail", rank_spread lat tp);
    ];
  [
    { mname = "setup_s"; value = setup_s; unit_ = "s"; samples = List.length setups };
    { mname = "p50_ms"; value = 1e3 *. percentile lat 50.; unit_ = "ms"; samples = Array.length lat };
    { mname = "tail_ms"; value = 1e3 *. percentile lat tp; unit_ = "ms"; samples = Array.length lat };
    { mname = "ops_per_s"; value = ops scaled; unit_ = "1/s"; samples = n * List.length r.untraced };
    { mname = "ok_frac"; value = float_of_int ok /. float_of_int attempted; unit_ = "frac"; samples = attempted };
    {
      mname = "peak_heap_mb";
      value = float_of_int (words * (Sys.word_size / 8)) /. 1048576.;
      unit_ = "MiB";
      samples = 1;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of the traced run. *)

type source =
  | Span_ms of string  (** self time of a span, ms per request *)
  | Layer of string  (** a per-round value the workload reads off the program *)
  | Rate of string * string  (** per-round count / per-round span seconds *)
  | Minor_words
  | Major_collections
  | Overhead

let per_layer =
  [
    ("txn.parse_ms", "ms", Span_ms "txn.parse");
    ("txn.validate_ms", "ms", Span_ms "txn.validate");
    ("txn.fingerprint_ms", "ms", Span_ms "txn.fingerprint");
    ("engine.overhead_ms", "ms", Span_ms "engine.decide");
    ("engine.cache_hit_frac", "frac", Layer "engine.cache_hit_frac");
  ]
  @ List.concat_map
      (fun s ->
        [
          ("stage." ^ s ^ ".ms", "ms", Span_ms ("stage." ^ s));
          ("stage." ^ s ^ ".runs", "count", Layer ("stage." ^ s ^ ".runs"));
          ("stage." ^ s ^ ".decided_frac", "frac", Layer ("stage." ^ s ^ ".decided_frac"));
        ])
      Stages.names
  @ [
      ("stage.closure.ms", "ms", Span_ms "stage.closure");
      ("reduction.sweep_ms", "ms", Span_ms "reduction.sweep");
      ("closure.dominators", "count", Layer "closure.dominators");
      ("stategraph.states", "count", Layer "stategraph.states");
      ("stategraph.dup_frac", "frac", Layer "stategraph.dup_frac");
      ("stategraph.states_per_s", "1/s", Rate ("stategraph.states", "stategraph.decide"));
      ("incremental.edit_ms", "ms", Span_ms "incremental.edit");
      ("incremental.decide_ms", "ms", Span_ms "incremental.decide");
      ("incremental.pairs_redecided", "count", Layer "incremental.pairs_redecided");
      ("incremental.pair_reuse_frac", "frac", Layer "incremental.pair_reuse_frac");
      ("incremental.cycles_rejudged", "count", Layer "incremental.cycles_rejudged");
      ("sim.ticks", "count", Layer "sim.ticks");
      ("sim.ticks_per_s", "1/s", Rate ("sim.ticks", "sim.run"));
      ("sim.abort_frac", "frac", Layer "sim.abort_frac");
      ("sim.lease_expiries", "count", Layer "sim.lease_expiries");
      ("sim.violations", "count", Layer "sim.violations");
      ("render.ms", "ms", Span_ms "render");
      ("gc.minor_words_per_op", "words/op", Minor_words);
      ("gc.major_collections", "count", Major_collections);
      ("trace.overhead", "ratio", Overhead);
    ]

let layer_metrics w (r : run) =
  let self = self_times !spans in
  let traced_requests = r.traced_rounds * w.round_requests in
  let span_total s = Option.value (Hashtbl.find_opt self s) ~default:0. in
  let layer k = Option.value (List.assoc_opt k r.layers) ~default:0. in
  (* txn.fingerprint is timed after its request, so its share is of the
     same digest the engine computes inside engine.decide. *)
  Printf.printf "self time as a share of traced request time (%d requests):\n" traced_requests;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (k, v) -> Printf.printf "  %-24s %6.2f%%\n" k (100. *. v /. r.traced_busy));
  List.map
    (fun (mname, unit_, src) ->
      let value, samples =
        match src with
        | Span_ms s -> (1e3 *. span_total s /. float_of_int traced_requests, traced_requests)
        | Layer k -> (layer k, 1)
        | Rate (k, s) ->
            let secs = span_total s /. float_of_int r.traced_rounds in
            ((if secs > 0. then layer k /. secs else 0.), r.traced_rounds)
        | Minor_words -> (r.minor_words /. float_of_int traced_requests, traced_requests)
        | Major_collections ->
            let traced = List.filter_map (fun (t, m) -> if t then Some m else None) r.majors in
            (float_of_int (List.fold_left ( + ) 0 traced) /. float_of_int r.traced_rounds, r.traced_rounds)
        | Overhead ->
            ( r.traced_busy /. float_of_int r.traced_rounds
              /. (List.fold_left (fun acc rt -> acc +. rt.busy) 0. r.untraced
                 /. float_of_int (List.length r.untraced)),
              r.traced_rounds )
      in
      { mname; value; unit_; samples })
    per_layer

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perfbench.exe pin";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "pin" ] -> Check_poly.pin ()
  | _ :: args ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let name = get "workload" in
      let seed = int_of_string (get "seed") in
      let seconds = float_of_string (get "seconds") in
      let traced = get "trace" = "1" in
      let w =
        match List.find_opt (fun w -> w.name = name) workloads with
        | Some w -> w
        | None ->
            Printf.eprintf "unknown workload %s (known: %s)\n" name
              (String.concat ", " (List.map (fun w -> w.name) workloads));
            exit 2
      in
      install_recorder ();
      (* Each set-up replaces the previous one, which is garbage by the
         time the next starts. *)
      let setups = ref [] and last = ref None in
      for _ = 1 to w.setups do
        last := None;
        let p, first, t = setup w ~seed in
        setups := !setups @ [ t ];
        last := Some (p, first)
      done;
      let p, first = Option.get !last in
      let r = timed ~seconds ~traced p first in
      let consistent = List.for_all (fun c -> c = List.hd r.counts) r.counts in
      (* The first round's work, with its major collections: repeatable
         across runs of one seed, though later rounds may differ. *)
      print_counts (List.hd r.counts @ [ ("gc.major_collections", snd (List.hd r.majors)) ]);
      if not consistent then print_endline "counts differ between rounds";
      let attempted = (List.length r.untraced + r.traced_rounds) * w.round_requests in
      let metrics =
        if traced then begin
          let m = layer_metrics w r in
          write_spans (Printf.sprintf ".bench_out/%s-seed%d.spans.jsonl" w.name seed) !spans;
          m
        end
        else end_to_end w ~setups:!setups r
      in
      print_result ~correct:(consistent && r.failed = 0) ~attempted ~failed:r.failed metrics
  | [] -> usage ()
