module M = Distlock_obs.Metric
module R = Distlock_obs.Registry

type stage = {
  stage_name : string;
  mutable attempts : int;
  mutable decided_safe : int;
  mutable decided_unsafe : int;
  mutable passed : int;
  mutable errors : int;
  mutable seconds : float;
}

(* Registry-backed handles per pipeline stage. The [stage] record above
   is kept as the read-only view the accessors return, so callers written
   against the original mutable-record API keep compiling. *)
type handles = {
  h_name : string;
  safe_c : M.counter;
  unsafe_c : M.counter;
  passed_c : M.counter;
  errors_c : M.counter;
  seconds_h : M.histogram;
}

type t = {
  reg : R.t;
  decisions_c : M.counter;
  cache_hits_c : M.counter;
  cache_misses_c : M.counter;
  unknowns_c : M.counter;
  pair_hits_c : M.counter;
  pair_misses_c : M.counter;
  pairs_redecided_c : M.counter;
  tbl : (string, handles) Hashtbl.t;
  mutable order : string list;  (* reversed first-seen order *)
}

let create () =
  let reg = R.create () in
  {
    reg;
    decisions_c =
      R.counter reg ~help:"Decisions served (cached or computed)"
        "distlock_engine_decisions_total";
    cache_hits_c =
      R.counter reg ~help:"Decisions served from the verdict cache"
        "distlock_engine_cache_hits_total";
    cache_misses_c =
      R.counter reg ~help:"Cache lookups that ran the pipeline"
        "distlock_engine_cache_misses_total";
    unknowns_c =
      R.counter reg ~help:"Decisions that ended Unknown"
        "distlock_engine_unknowns_total";
    pair_hits_c =
      R.counter reg ~help:"Pair verdicts served from the pair-fingerprint cache"
        "distlock_engine_pair_hits_total";
    pair_misses_c =
      R.counter reg ~help:"Pair-fingerprint cache lookups that missed"
        "distlock_engine_pair_misses_total";
    pairs_redecided_c =
      R.counter reg ~help:"Pair pipeline runs forced by a pair-cache miss"
        "distlock_engine_pairs_redecided_total";
    tbl = Hashtbl.create 8;
    order = [];
  }

let registry t = t.reg

let reset t =
  R.reset t.reg;
  Hashtbl.reset t.tbl;
  t.order <- []

let result_counter t ~stage result =
  R.counter t.reg
    ~labels:[ ("stage", stage); ("result", result) ]
    ~help:"Stage executions by result" "distlock_engine_stage_total"

let handles t name =
  match Hashtbl.find_opt t.tbl name with
  | Some h -> h
  | None ->
      let h =
        {
          h_name = name;
          safe_c = result_counter t ~stage:name "safe";
          unsafe_c = result_counter t ~stage:name "unsafe";
          passed_c = result_counter t ~stage:name "passed";
          errors_c = result_counter t ~stage:name "error";
          seconds_h =
            R.histogram t.reg
              ~labels:[ ("stage", name) ]
              ~help:"Stage latency in seconds"
              "distlock_engine_stage_seconds";
        }
      in
      Hashtbl.add t.tbl name h;
      t.order <- name :: t.order;
      h

let record_stage t ~name (status, unsafe) seconds =
  let h = handles t name in
  M.observe h.seconds_h seconds;
  match status with
  | Outcome.Decided -> M.incr (if unsafe then h.unsafe_c else h.safe_c)
  | Outcome.Passed -> M.incr h.passed_c
  | Outcome.Errored -> M.incr h.errors_c

let record_decision t ~cached ~unknown =
  M.incr t.decisions_c;
  if cached then M.incr t.cache_hits_c;
  if unknown then M.incr t.unknowns_c

let record_cache_miss t = M.incr t.cache_misses_c

let record_pair_lookup t ~hit =
  M.incr (if hit then t.pair_hits_c else t.pair_misses_c)

let record_pair_hits t n = M.incr_by t.pair_hits_c n

let record_pair_redecided t = M.incr t.pairs_redecided_c

let decisions t = M.counter_value t.decisions_c

let cache_hits t = M.counter_value t.cache_hits_c

let cache_misses t = M.counter_value t.cache_misses_c

let unknowns t = M.counter_value t.unknowns_c

let pair_hits t = M.counter_value t.pair_hits_c

let pair_misses t = M.counter_value t.pair_misses_c

let pairs_redecided t = M.counter_value t.pairs_redecided_c

let hit_rate t =
  let d = decisions t in
  if d = 0 then 0. else float_of_int (cache_hits t) /. float_of_int d

let view h =
  let safe = M.counter_value h.safe_c
  and unsafe = M.counter_value h.unsafe_c
  and passed = M.counter_value h.passed_c
  and errors = M.counter_value h.errors_c in
  {
    stage_name = h.h_name;
    attempts = safe + unsafe + passed + errors;
    decided_safe = safe;
    decided_unsafe = unsafe;
    passed;
    errors;
    seconds = M.histogram_sum h.seconds_h;
  }

(* Stage handles, last-recorded first. *)
let recorded t = List.map (Hashtbl.find t.tbl) t.order

let stages t = List.rev_map view (recorded t)

let quantiles t =
  List.rev_map
    (fun h ->
      ( h.h_name,
        ( M.quantile h.seconds_h 0.5,
          M.quantile h.seconds_h 0.9,
          M.quantile h.seconds_h 0.99 ) ))
    (recorded t)

(* Mean time per run, defined as 0 — not NaN — for a stage with no
   attempts. *)
let mean_seconds s =
  if s.attempts = 0 then 0. else s.seconds /. float_of_int s.attempts

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "decisions: %d (%d unknown); cache: %d hit(s), %d miss(es), hit rate \
     %.1f%%@,"
    (decisions t) (unknowns t) (cache_hits t) (cache_misses t)
    (100. *. hit_rate t);
  (* The pair-cache line appears only once the pair store has been
     consulted, so pair-free pipelines print exactly as before. *)
  if pair_hits t + pair_misses t > 0 then
    Format.fprintf ppf
      "pair cache: %d hit(s), %d miss(es), %d pair(s) re-decided@,"
      (pair_hits t) (pair_misses t) (pairs_redecided t);
  (match stages t with
  | [] -> Format.fprintf ppf "(no stage activity)"
  | stages ->
      let qs = quantiles t in
      (* Bucket-interpolated; a stage with no timed runs has NaN
         quantiles, printed as a dash. *)
      let q ppf v =
        if Float.is_nan v then Format.fprintf ppf " %12s" "-"
        else Format.fprintf ppf " %9.3f ms" (v *. 1_000.)
      in
      Format.fprintf ppf "%-12s %8s %6s %8s %8s %7s %12s %12s %12s %12s %12s"
        "stage" "runs" "safe" "unsafe" "passed" "errors" "time" "mean" "p50"
        "p90" "p99";
      List.iter
        (fun s ->
          let q50, q90, q99 =
            match List.assoc_opt s.stage_name qs with
            | Some triple -> triple
            | None -> (Float.nan, Float.nan, Float.nan)
          in
          Format.fprintf ppf
            "@,%-12s %8d %6d %8d %8d %7d %9.3f ms %9.3f ms%a%a%a"
            s.stage_name s.attempts s.decided_safe s.decided_unsafe s.passed
            s.errors (s.seconds *. 1_000.)
            (mean_seconds s *. 1_000.)
            q q50 q q90 q q99)
        stages);
  Format.fprintf ppf "@]"

let pp_prometheus ppf t = R.pp_prometheus ppf t.reg
