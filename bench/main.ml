(* Benchmark and experiment harness.

   The paper (PODS '82 / JCSS '84) is pure theory — its "evaluation" is a
   set of worked figures and complexity claims. Each experiment below
   regenerates one of them (see DESIGN.md section 5 and EXPERIMENTS.md for
   the recorded outcomes):

     E1   Fig 1   two-site unsafety with a certificate schedule
     E2   Cor 1   O(n^2) scaling of the two-site test
     E2b  [5,14]  subquadratic Proposition 1 test vs the naive Theta(k^2)
     E3   Fig 3   Lemma 1: picture census of a partial-order system
     E4   Thm 2   polynomial test vs exponential oracle crossover
     E5   Fig 5   the four-site gap: D not strongly connected yet safe
     E6   Thm 3   CNF -> transactions: sat iff unsafe, gadget sizes
     E7   Prop 2  multi-transaction safety scaling
     E8   Sec 6   policies under the simulator (2PL vs eager release)
     E8b  --      cross-site message latency vs makespan and violations
     E8c  --      closed-loop throughput per locking style
     E9   --      Theorem 1 precision per site count + the 3-site probe
     E10  Sec 6   repair by precedence insertion (the closing remark)
     E11  [7]     deadlock and safety are orthogonal axes
     E12  Sec 1   shared locks: the theory is unchanged
     E13  --      decision-engine verdict cache and batch throughput
     E16  --      memoized state graph vs the factorial schedule tree
     E17  --      incremental session: warm-edit latency vs from-scratch
     E18  --      flight-recorder overhead
     E19  --      leased locks with crashes: the static/dynamic safety gap
     E20  --      live telemetry overhead and scrape correctness

   Wall-clock tables are printed first; Bechamel micro-benchmarks (one
   Test.make per experiment family) run at the end. Each experiment
   states its bars (the paper's claims and the engineering thresholds)
   beside the numbers they judge; the run exits 1 if any bar fails. *)

open Distlock_core
open Distlock_txn

let pf = Printf.printf

let rule title =
  pf "\n%s\n%s\n" title (String.make (String.length title) '-')

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ms t = t *. 1_000.

(* ------------------------------------------------------------------ *)
(* Run artifact. Experiments push parameters and derived metrics into
   these accumulators; the driver snapshots them per experiment together
   with wall/CPU time and writes BENCH_results.json at the end. *)

module J = Distlock_obs.Json

let bench_params : (string * J.t) list ref = ref []
let bench_metrics : (string * J.t) list ref = ref []
let param_i k v = bench_params := (k, J.Int v) :: !bench_params
let param_s k v = bench_params := (k, J.Str v) :: !bench_params
let metric_f k v = bench_metrics := (k, J.Float v) :: !bench_metrics
let metric_i k v = bench_metrics := (k, J.Int v) :: !bench_metrics
let metric_b k v = bench_metrics := (k, J.Bool v) :: !bench_metrics

(* A bar is a check an experiment's numbers must pass: a claim of the
   paper or an engineering threshold. [bar ok fmt ...] records the
   formatted failure when [ok] is false; the run goes on, so the
   artifact is still written, and the driver then prints every failed
   bar and exits 1. *)
let bench_failures : string list ref = ref []

let bar ok fmt =
  Printf.ksprintf
    (fun msg -> if not ok then bench_failures := msg :: !bench_failures)
    fmt

(* ------------------------------------------------------------------ *)
(* E1: Fig 1 *)

let e1 () =
  rule "E1 (Fig 1): two-site unsafety with certificate";
  let sys = Figures.fig1 () in
  let verdict, t = time (fun () -> Twosite.decide sys) in
  match verdict with
  | Twosite.Unsafe cert ->
      let verified = Certificate.verify sys cert in
      pf "verdict: UNSAFE in %.3f ms; certificate verified: %b\n" (ms t)
        verified;
      pf "schedule: %s\n"
        (Distlock_sched.Schedule.to_string sys cert.Certificate.schedule);
      metric_f "decide_seconds" t;
      metric_b "certificate_verified" verified;
      bar verified "Fig 1's certificate schedule does not verify"
  | Twosite.Safe ->
      pf "UNEXPECTED: safe\n";
      bar false "Theorem 2 finds Fig 1 safe; the paper shows it unsafe"

(* ------------------------------------------------------------------ *)
(* E2: Corollary 1 scaling *)

let e2 () =
  rule "E2 (Corollary 1): two-site safety test scaling (expected ~O(n^2))";
  pf "%8s %14s %8s\n" "steps" "median test" "ratio";
  let prev = ref None in
  List.iter
    (fun shared ->
      let rng = Random.State.make [| 7 * shared |] in
      let sys =
        Txn_gen.random_pair_system rng ~num_shared:shared ~num_private:0
          ~num_sites:2 ~cross_prob:0.3 ()
      in
      let n = System.total_steps sys in
      let times =
        List.sort compare
          (List.init 3 (fun _ ->
               snd
                 (time (fun () ->
                      ignore (Theorem1.guarantees_safe sys)))))
      in
      let t = List.nth times 1 in
      let ratio =
        match !prev with Some p when p > 0. -> t /. p | _ -> Float.nan
      in
      prev := Some t;
      pf "%8d %11.3f ms %8.2f\n" n (ms t) ratio)
    [ 8; 16; 32; 64; 128; 256 ]

(* E2b: arc-compressed Proposition 1 test (the [5,14] direction) *)

let random_rects rng k =
  let axis () =
    let slots = Array.init (2 * k) (fun i -> i mod k) in
    for i = (2 * k) - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = slots.(i) in
      slots.(i) <- slots.(j);
      slots.(j) <- t
    done;
    let l = Array.make k 0
    and u = Array.make k 0
    and seen = Array.make k false in
    Array.iteri
      (fun pos e ->
        if seen.(e) then u.(e) <- pos + 1
        else begin
          seen.(e) <- true;
          l.(e) <- pos + 1
        end)
      slots;
    (l, u)
  in
  let l1, u1 = axis () and l2, u2 = axis () in
  List.init k (fun e ->
      {
        Distlock_geometry.Rect.entity = e;
        x_lock = l1.(e);
        x_unlock = u1.(e);
        y_lock = l2.(e);
        y_unlock = u2.(e);
      })

let e2b () =
  rule
    "E2b (Prop 1, [5,14] direction): naive Theta(k^2) vs arc-compressed \
     O(k log^2 k) safety test";
  pf "%8s %12s %12s %9s\n" "rects" "naive" "compressed" "speedup";
  let rng = Random.State.make [| 99 |] in
  List.iter
    (fun k ->
      let rects = random_rects rng k in
      let fast, tf =
        time (fun () -> Distlock_geometry.Fast_test.rects_strongly_connected rects)
      in
      if k <= 2048 then begin
        let naive, tn =
          time (fun () ->
              Distlock_geometry.Separation.rects_strongly_connected rects)
        in
        assert (naive = fast);
        pf "%8d %9.1f ms %9.1f ms %8.1fx\n" k (ms tn) (ms tf)
          (tn /. max 1e-9 tf)
      end
      else pf "%8d %12s %9.1f ms %9s\n" k "(skipped)" (ms tf) "-")
    [ 256; 1024; 2048; 8192 ]

(* ------------------------------------------------------------------ *)
(* E3: Fig 3 picture census *)

let e3 () =
  rule "E3 (Fig 3 / Lemma 1): picture census of a partial-order system";
  let sys = Figures.fig3 () in
  let t1, t2 = System.pair sys in
  let safe = ref 0 and unsafe = ref 0 in
  let (), t =
    time (fun () ->
        Distlock_order.Linext.iter (Txn.order t1) (fun e1 ->
            let e1 = Array.copy e1 in
            Distlock_order.Linext.iter (Txn.order t2) (fun e2 ->
                let plane =
                  Distlock_geometry.Plane.of_extensions sys e1 (Array.copy e2)
                in
                if Distlock_geometry.Separation.is_safe plane then incr safe
                else incr unsafe)))
  in
  let label is_unsafe = if is_unsafe then "UNSAFE" else "SAFE" in
  let census_unsafe = !unsafe > 0 in
  let thm2_unsafe =
    match Twosite.decide sys with
    | Twosite.Safe -> false
    | Twosite.Unsafe _ -> true
  in
  pf "pictures: %d safe, %d unsafe (%.1f ms) -> system %s by Lemma 1\n" !safe
    !unsafe (ms t) (label census_unsafe);
  pf "Theorem 2 verdict: %s (%s)\n" (label thm2_unsafe)
    (if thm2_unsafe = census_unsafe then "agrees" else "WRONG");
  bar
    (thm2_unsafe = census_unsafe)
    "Theorem 2 says %s, the Lemma 1 picture census %s" (label thm2_unsafe)
    (label census_unsafe)

(* ------------------------------------------------------------------ *)
(* E4: crossover polynomial vs exponential *)

let e4 () =
  rule "E4 (Theorem 2): polynomial test vs exponential Lemma-1 oracle";
  pf "(safe instances: the oracle cannot exit early and must check every picture)\n";
  pf "%8s %8s %14s %16s %10s\n" "shared" "steps" "Theorem 2" "oracle" "speedup";
  List.iter
    (fun shared ->
      let rng = Random.State.make [| 13 * shared |] in
      (* rejection-sample a SAFE system so the oracle exhausts the space *)
      let rec safe_instance attempts =
        let sys =
          Txn_gen.random_pair_system rng ~num_shared:shared ~num_private:1
            ~num_sites:2 ~cross_prob:0.25 ()
        in
        if attempts = 0 || Theorem1.guarantees_safe sys then sys
        else safe_instance (attempts - 1)
      in
      let sys = safe_instance 500 in
      let n = System.total_steps sys in
      let _, t_fast = time (fun () -> ignore (Twosite.decide sys)) in
      let oracle_result, t_brute =
        time (fun () -> Brute.safe_by_extensions ~limit:3_000_000 sys)
      in
      match oracle_result with
      | Brute.Safe | Brute.Unsafe _ ->
          pf "%8d %8d %11.3f ms %13.3f ms %9.0fx\n" shared n (ms t_fast)
            (ms t_brute)
            (t_brute /. max 1e-9 t_fast)
      | Brute.Exhausted _ ->
          pf "%8d %8d %11.3f ms %16s %10s\n" shared n (ms t_fast)
            "> 3M pictures" "inf")
    [ 2; 3; 4; 5; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* E5: Fig 5 *)

let e5 () =
  rule "E5 (Fig 5): four sites — strong connectivity is not necessary";
  let sys = Figures.fig5 () in
  let d = Dgraph.build_pair sys in
  let sc = Dgraph.is_strongly_connected d in
  pf "D strongly connected: %b\n" sc;
  bar (not sc) "Fig 5's D(T1,T2) is strongly connected";
  List.iter
    (fun x ->
      let dom = Dgraph.entity_set d x in
      match Closure.close d ~dominator:dom with
      | Closure.Closed _ ->
          pf "dominator closes (UNEXPECTED)\n";
          bar false "a dominator of Fig 5's D(T1,T2) closes"
      | Closure.Failed (Closure.Would_cycle { txn }) ->
          pf "unique dominator {x1,x2}: closure forces a cycle in T%d\n"
            (txn + 1)
      | Closure.Failed Closure.Dominator_lost -> pf "dominator lost\n")
    (Dgraph.dominators d);
  let verdict, t = time (fun () -> Brute.safe_by_extensions sys) in
  let label =
    match verdict with
    | Brute.Safe -> "SAFE"
    | Brute.Unsafe _ -> "UNSAFE"
    | Brute.Exhausted _ -> "(budget)"
  in
  pf "exhaustive Lemma-1 check: %s (%.1f ms)\n" label (ms t);
  bar (label = "SAFE") "the exhaustive Lemma 1 check finds Fig 5 %s, not SAFE"
    label

(* ------------------------------------------------------------------ *)
(* E6: Theorem 3 reduction *)

let e6 () =
  rule "E6 (Theorem 3): CNF satisfiability via unsafety of the gadget";
  pf "%6s %8s %9s %7s %7s %7s %12s\n" "vars" "clauses" "entities" "DPLL"
    "unsafe" "agree" "sweep time";
  let agree_all = ref true and rows = ref 0 in
  List.iter
    (fun nv ->
      let rng = Random.State.make [| 101 * nv |] in
      let f =
        Distlock_sat.Sat_gen.random_restricted rng ~num_vars:nv ~num_clauses:nv
      in
      if f.Distlock_sat.Cnf.clauses <> [] then begin
        let g = Reduction.encode f in
        let sat = Distlock_sat.Dpll.is_satisfiable f in
        let unsafe, t =
          time (fun () -> Reduction.decide_unsafe_by_closure g <> None)
        in
        if sat <> unsafe then agree_all := false;
        incr rows;
        pf "%6d %8d %9d %7b %7b %7b %10.1f ms\n" nv
          (Distlock_sat.Cnf.num_clauses f)
          (Reduction.num_entities g) sat unsafe (sat = unsafe) (ms t);
        metric_f (Printf.sprintf "vars%d_sweep_ms" nv) (ms t);
        metric_b (Printf.sprintf "vars%d_agree" nv) (sat = unsafe);
        bar (t >= 0.) "vars%d: negative sweep time" nv;
        bar (sat = unsafe) "vars%d: the closure sweep disagrees with DPLL" nv
      end)
    [ 3; 4; 5; 6; 7 ];
  pf "all rows agree (sat <=> unsafe): %b\n" !agree_all;
  metric_b "all_agree" !agree_all;
  bar (!rows > 0) "no formula rows recorded"

(* ------------------------------------------------------------------ *)
(* E7: Proposition 2 scaling *)

(* Proposition 2 alone: no engine and no stores, every conflicting pair
   through the pair pipeline. *)
let prop2 sys =
  let tally = Multisite.tally () and lsys = lazy sys in
  Multisite.decide_with
    ~pair_safe:
      (Multisite.pair_safe ~budget:Distlock_engine.Budget.unlimited tally lsys)
    tally lsys
    (Multisite.conflict_graph sys)

let e7 () =
  rule "E7 (Proposition 2): multi-transaction safety";
  pf "%6s %8s %10s %12s %10s\n" "txns" "cycles" "verdict" "time" "oracle";
  List.iter
    (fun k ->
      let rng = Random.State.make [| 23 * k |] in
      let sys =
        Txn_gen.random_multi_system rng ~num_txns:k ~num_entities:(k + 2)
          ~entities_per_txn:2 ~num_sites:2 ~cross_prob:0.6 ()
      in
      let cycles =
        List.length (Multisite.simple_cycles (Multisite.conflict_graph sys))
      in
      let verdict, t = time (fun () -> prop2 sys) in
      let oracle =
        if k <= 4 then
          match Brute.safe_by_schedules ~limit:3_000_000 sys with
          | Brute.Safe -> "SAFE"
          | Brute.Unsafe _ -> "UNSAFE"
          | Brute.Exhausted _ -> "(budget)"
        else "(skipped)"
      in
      pf "%6d %8d %10s %10.1f ms %10s\n" k cycles
        (match verdict with
        | Multisite.Decided Multisite.Safe -> "SAFE"
        | Multisite.Decided (Multisite.Unsafe _) -> "UNSAFE"
        | Multisite.Exhausted _ -> "UNKNOWN")
        (ms t) oracle)
    [ 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* E8: policies under the simulator *)

let e8 () =
  rule "E8 (Section 6): locking styles under the lock-manager simulator";
  pf "%-24s %6s %11s %8s %10s %8s\n" "style" "runs" "violations" "aborts"
    "deadlocks" "ticks";
  let rng = Random.State.make [| 4242 |] in
  List.iter
    (fun (label, style) ->
      let db = Database.create () in
      Database.add_all db
        (List.init 8 (fun i -> (Printf.sprintf "e%d" i, 1 + (i mod 3))));
      let sys =
        Distlock_sim.Workload.make rng ~db ~style ~num_txns:6
          ~entities_per_txn:3
      in
      let s = Distlock_sim.Esim.measure ~seeds:(List.init 30 Fun.id) sys in
      pf "%-24s %6d %11d %8d %10d %8d\n" label s.Distlock_sim.Esim.runs
        s.Distlock_sim.Esim.violations s.Distlock_sim.Esim.total_aborts
        s.Distlock_sim.Esim.total_deadlocks s.Distlock_sim.Esim.total_ticks)
    [
      ("two-phase", Distlock_sim.Workload.Two_phase);
      ("sequential sections", Distlock_sim.Workload.Sequential);
      ("random locked (0.3)", Distlock_sim.Workload.Random_locked 0.3);
    ]

(* E8c: closed-loop throughput per locking style: 20 batches of 5 fresh
   transactions, each run to completion before the next; throughput is
   committed transactions per 1000 scheduling ticks. *)

let e8c () =
  rule "E8c: closed-loop throughput per locking style (20 rounds x 5 txns)";
  pf "%-24s %9s %8s %18s %11s\n" "style" "commits" "ticks" "commits/kilotick"
    "violations";
  List.iter
    (fun (label, style) ->
      let rng = Random.State.make [| 515 |] in
      let db = Database.create () in
      Database.add_all db
        (List.init 8 (fun i -> (Printf.sprintf "e%d" i, 1 + (i mod 3))));
      let committed = ref 0 and ticks = ref 0 in
      let violations = ref 0 and rounds = ref 0 in
      for round = 1 to 20 do
        let sys =
          Distlock_sim.Workload.make rng ~db ~style ~num_txns:5
            ~entities_per_txn:3
        in
        match
          Distlock_sim.Esim.run ~policy:(Distlock_sim.Engine.Random round) sys
        with
        | Error _ -> ()
        | Ok o ->
            incr rounds;
            committed := !committed + o.Distlock_sim.Esim.stats.commits;
            ticks := !ticks + o.Distlock_sim.Esim.stats.ticks;
            if not o.Distlock_sim.Esim.serializable then incr violations
      done;
      pf "%-24s %9d %8d %18.1f %8d/%d\n" label !committed !ticks
        (if !ticks = 0 then 0.
         else 1000. *. float_of_int !committed /. float_of_int !ticks)
        !violations !rounds)
    [
      ("two-phase", Distlock_sim.Workload.Two_phase);
      ("sequential sections", Distlock_sim.Workload.Sequential);
      ("random locked (0.3)", Distlock_sim.Workload.Random_locked 0.3);
    ]

(* E8b: the effect of cross-site message latency *)

let e8b () =
  rule "E8b: message latency vs violations and makespan";
  (* a workload WITH cross-site precedences (messages to wait for):
     transactions spanning 3 sites, moderate synchronization *)
  let rng = Random.State.make [| 88 |] in
  let sys =
    Txn_gen.random_multi_system rng ~num_txns:4 ~num_entities:6
      ~entities_per_txn:3 ~num_sites:3 ~with_updates:true ~cross_prob:0.5 ()
  in
  pf "%8s %12s %14s\n" "delay" "violations" "avg makespan";
  List.iter
    (fun delay ->
      let seeds = List.init 30 Fun.id in
      let violations = ref 0 and makespan = ref 0 and runs = ref 0 in
      let scenario =
        {
          Distlock_sim.Scenario.default with
          latency =
            Distlock_sim.Latency.make (Distlock_sim.Latency.Constant delay);
        }
      in
      List.iter
        (fun seed ->
          match
            Distlock_sim.Esim.run ~policy:(Distlock_sim.Engine.Random seed)
              ~scenario sys
          with
          | Error _ -> ()
          | Ok o ->
              incr runs;
              if not o.Distlock_sim.Esim.serializable then incr violations;
              makespan := !makespan + o.Distlock_sim.Esim.stats.makespan)
        seeds;
      pf "%8d %9d/%d %11.1f\n" delay !violations !runs
        (float_of_int !makespan /. float_of_int (max 1 !runs)))
    [ 0; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* E9: precision of the Theorem 1 condition per site count *)

let e9 () =
  rule "E9: how often is strong connectivity exact? (gap = not-SC yet safe)";
  pf "%6s %9s %9s %7s %26s\n" "sites" "samples" "not-SC" "gap" "note";
  List.iter
    (fun sites ->
      let rng = Random.State.make [| 31 * sites |] in
      let samples = 150 in
      let not_sc = ref 0 and gap = ref 0 in
      for _ = 1 to samples do
        let sys =
          Txn_gen.random_pair_system rng ~num_shared:3 ~num_private:0
            ~num_sites:sites
            ~cross_prob:(Random.State.float rng 1.0) ()
        in
        if not (Theorem1.guarantees_safe sys) then begin
          incr not_sc;
          match Brute.safe_by_extensions sys with
          | Brute.Safe -> incr gap
          | Brute.Unsafe _ | Brute.Exhausted _ -> ()
        end
      done;
      let note =
        if sites <= 2 then "Theorem 2: gap must be 0" else "necessity can fail"
      in
      pf "%6d %9d %9d %7d %26s\n" sites samples !not_sc !gap note)
    [ 1; 2; 3; 4 ];
  let sys = Figures.fig5 () in
  pf "Fig 5 exhibit (4 sites): not-SC = %b, safe = %b\n"
    (not (Theorem1.guarantees_safe sys))
    (match Brute.safe_by_extensions sys with
    | Brute.Safe -> true
    | Brute.Unsafe _ | Brute.Exhausted _ -> false);
  (* The paper leaves three sites open: hunt for a 3-site gap instance. *)
  pf "\nopen-problem probe: searching for a 3-site not-SC-yet-safe system...\n";
  let rng = Random.State.make [| 2718 |] in
  let tried = ref 0 and notsc = ref 0 and unclosed = ref 0 and gap = ref 0 in
  while !tried < 1500 do
    incr tried;
    let sys =
      Txn_gen.random_pair_system rng ~num_shared:4 ~num_private:0 ~num_sites:3
        ~cross_prob:(0.05 +. Random.State.float rng 0.3) ()
    in
    if List.length (System.sites_used sys) = 3 then begin
      let d = Dgraph.build_pair sys in
      if not (Dgraph.is_strongly_connected d) then begin
        incr notsc;
        if Closure.first_unsafe_dominator d = None then begin
          incr unclosed;
          match Brute.safe_by_extensions ~limit:500_000 sys with
          | Brute.Safe -> incr gap
          | Brute.Unsafe _ | Brute.Exhausted _ -> ()
        end
      end
    end
  done;
  pf
    "3-site probe: %d sampled, %d not-SC, %d with no closing dominator, %d \
     gap instances found\n" !tried !notsc !unclosed !gap;
  pf
    "(132 structured Fig-5 co-location variants also yield none: co-locating \
     any two entities restores strong connectivity)\n"

(* ------------------------------------------------------------------ *)
(* E10: repair by precedence insertion *)

let e10 () =
  rule "E10 (closing remark): repairing unsafe systems via Theorem 1";
  pf "%6s %9s %10s %9s %8s %14s\n" "sites" "samples" "unsafe" "repaired"
    "stuck" "avg loss";
  List.iter
    (fun sites ->
      let rng = Random.State.make [| 47 * sites |] in
      let samples = 60 in
      let unsafe_n = ref 0 and repaired = ref 0 and stuck = ref 0 in
      let loss = ref 0 in
      for _ = 1 to samples do
        let sys =
          Txn_gen.random_pair_system rng ~num_shared:3 ~num_private:1
            ~num_sites:sites ~cross_prob:(Random.State.float rng 0.5) ()
        in
        if not (Theorem1.guarantees_safe sys) then begin
          incr unsafe_n;
          match Repair.make_safe sys with
          | Some (sys', _) ->
              incr repaired;
              loss := !loss + Repair.concurrency_loss ~before:sys ~after:sys'
          | None -> incr stuck
        end
      done;
      pf "%6d %9d %10d %9d %8d %11.1f\n" sites samples !unsafe_n !repaired
        !stuck
        (if !repaired = 0 then Float.nan
         else float_of_int !loss /. float_of_int !repaired))
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E11: deadlock geometry *)

let e11 () =
  rule "E11 ([7] aside): safety and deadlock are independent axes";
  let rng = Random.State.make [| 59 |] in
  let tally = Array.make_matrix 2 2 0 in
  let samples = 300 in
  for _ = 1 to samples do
    let sys =
      Txn_gen.random_pair_system rng ~num_shared:(2 + Random.State.int rng 3)
        ~num_private:1 ~num_sites:(1 + Random.State.int rng 3) ~cross_prob:1.0
        ()
    in
    let plane = Distlock_geometry.Plane.make sys in
    let safe = if Distlock_geometry.Separation.is_safe plane then 1 else 0 in
    let dead = if Distlock_geometry.Deadlock.possible plane then 1 else 0 in
    tally.(safe).(dead) <- tally.(safe).(dead) + 1
  done;
  pf "%d random totally ordered pairs:\n" samples;
  pf "%22s %12s %12s\n" "" "no deadlock" "deadlock";
  pf "%22s %12d %12d\n" "unsafe" tally.(0).(0) tally.(0).(1);
  pf "%22s %12d %12d\n" "safe" tally.(1).(0) tally.(1).(1);
  pf "all four quadrants are populated: the two properties are orthogonal\n"

(* ------------------------------------------------------------------ *)
(* E12: shared locks — "variants change the theory very little" *)

let e12 () =
  rule "E12 (Section 1 variants): shared locks, safety vs read fraction";
  pf "%14s %9s %9s %9s %12s\n" "shared_prob" "samples" "safe" "agree"
    "avg |D|";
  List.iter
    (fun shared_prob ->
      let rng = Random.State.make [| int_of_float (shared_prob *. 100.) + 3 |] in
      let samples = 60 in
      let safe_n = ref 0 and agree = ref 0 and decided = ref 0 in
      let conflict_sum = ref 0 in
      for _ = 1 to samples do
        let sys =
          Distlock_rw.Rw_gen.random_pair rng ~num_shared:3 ~num_sites:2
            ~shared_prob ~cross_prob:(Random.State.float rng 1.0) ()
        in
        let fast = Distlock_rw.Rw_safety.twosite_decide sys in
        conflict_sum :=
          !conflict_sum
          + List.length (Distlock_rw.Rw_system.conflicting_common sys);
        if fast then incr safe_n;
        match Distlock_rw.Rw_system.safe ~limit:1_000_000 sys with
        | exception Failure _ -> ()
        | oracle ->
            incr decided;
            if oracle = fast then incr agree
      done;
      pf "%14.1f %9d %9d %6d/%d %12.2f\n" shared_prob samples !safe_n !agree
        !decided
        (float_of_int !conflict_sum /. float_of_int samples);
      bar (!agree = !decided)
        "shared_prob %.1f: the two-site test agrees with the oracle on %d of \
         %d decided samples"
        shared_prob !agree !decided)
    [ 0.0; 0.3; 0.6; 1.0 ]

(* ------------------------------------------------------------------ *)
(* E13: decision-engine verdict cache and batch throughput *)

let e13 () =
  rule "E13 (engine): verdict cache hit rate and batch throughput";
  let module E = Distlock_engine in
  let rng = Random.State.make [| 13 |] in
  (* A small pool of distinct systems, queried many times over: the
     shape a verdict cache is for. *)
  let pool =
    List.init 10 (fun i ->
        Txn_gen.random_pair_system rng
          ~num_shared:(2 + (i mod 3))
          ~num_private:1
          ~num_sites:(2 + (i mod 2))
          ~cross_prob:0.5 ())
    @ List.init 2 (fun _ ->
          Txn_gen.random_multi_system rng ~num_txns:3 ~num_entities:6
            ~entities_per_txn:2 ~num_sites:2 ~cross_prob:0.6 ())
  in
  let pool = Array.of_list pool in
  let queries =
    List.init 400 (fun _ -> pool.(Random.State.int rng (Array.length pool)))
  in
  let n = List.length queries in
  (* cache off: every query runs the full pipeline *)
  let eng_off = Decision.create ~cache_capacity:0 () in
  let off, t_off =
    time (fun () -> List.map (Decision.decide eng_off) queries)
  in
  (* cache on, batch API: fingerprint dedup + LRU *)
  let eng_on = Decision.create () in
  let (on_, report), t_on =
    time (fun () -> Decision.decide_batch eng_on queries)
  in
  let agree =
    List.for_all2
      (fun (a : _ E.Outcome.t) (b : _ E.Outcome.t) ->
        E.Outcome.decided a = E.Outcome.decided b
        && a.E.Outcome.procedure = b.E.Outcome.procedure)
      off on_
  in
  let thr t = float_of_int n /. t in
  pf "queries: %d over %d distinct systems; verdicts agree: %b\n" n
    (Array.length pool) agree;
  pf "cache off: %8.2f ms  (%10.0f decisions/s)\n" (ms t_off) (thr t_off);
  pf "cache on:  %8.2f ms  (%10.0f decisions/s)  speedup: %.1fx\n" (ms t_on)
    (thr t_on) (t_off /. t_on);
  pf "hit rate: %.1f%% (%d dedup + %d cache hits / %d submitted)\n"
    (100. *. E.Engine.hit_rate report)
    report.E.Engine.batch_dedup_hits report.E.Engine.cache_hits
    report.E.Engine.submitted;
  param_i "pool_systems" (Array.length pool);
  param_i "queries" n;
  metric_b "verdicts_agree" agree;
  metric_i "batch_dedup_hits" report.E.Engine.batch_dedup_hits;
  metric_i "cache_hits" report.E.Engine.cache_hits;
  metric_f "cache_off_seconds" t_off;
  metric_f "cache_on_seconds" t_on;
  metric_f "speedup" (t_off /. t_on);
  metric_f "hit_rate" (E.Engine.hit_rate report);
  Format.printf "%a@." E.Stats.pp (Decision.stats eng_on);
  bar agree "decide_batch disagrees with per-query decide";
  bar (n > 0) "implausible query count %d" n;
  let expected =
    float_of_int (report.E.Engine.batch_dedup_hits + report.E.Engine.cache_hits)
    /. float_of_int n
  in
  bar
    (Float.abs (E.Engine.hit_rate report -. expected) <= 1e-9)
    "hit rate %g is not (batch_dedup_hits + cache_hits) / queries = %g"
    (E.Engine.hit_rate report) expected

(* ------------------------------------------------------------------ *)
(* E16: the memoized state-graph oracle vs factorial schedule
   enumeration. The corpus has partial orders, several shared entities
   and multiple sites, so the schedule tree has genuine interleaving
   freedom for the state graph to collapse. *)

let e16 () =
  rule "E16 (stategraph): bitset state graph vs factorial schedule tree";
  let module S = Distlock_sched in
  let rng = Random.State.make [| 16 |] in
  let cap = 500_000 in
  let corpus =
    List.init 40 (fun i ->
        Txn_gen.random_pair_system rng
          ~num_shared:(3 + (i mod 3))
          ~num_private:(i mod 2)
          ~num_sites:(2 + (i mod 3))
          ~cross_prob:(0.3 +. (0.15 *. float_of_int (i mod 4)))
          ())
    @ List.init 10 (fun i ->
          Txn_gen.random_multi_system rng ~num_txns:3
            ~num_entities:(5 + (i mod 2)) ~entities_per_txn:2 ~num_sites:2
            ~cross_prob:0.5 ())
  in
  let n = List.length corpus in
  param_i "corpus_systems" n;
  param_i "count_cap" cap;
  let median = function
    | [] -> 0.
    | xs ->
        let a = List.sort compare xs in
        List.nth a (List.length a / 2)
  in
  pf "%4s %8s %12s %10s %11s %11s %s\n" "sys" "states" "schedules"
    "dup hits" "t_states" "t_sched" "verdict";
  let all_fewer = ref true in
  let total_states = ref 0 and total_dups = ref 0 in
  let total_complete = ref 0 and total_deadlocked = ref 0 in
  let speedups = ref [] in
  List.iteri
    (fun i sys ->
      let (outcome, st), t_census =
        time (fun () -> S.Stategraph.census ~limit:cap sys)
      in
      let sched, t_count =
        time (fun () -> S.Enumerate.count_legal ~limit:cap sys)
      in
      total_states := !total_states + st.S.Stategraph.states;
      total_dups := !total_dups + st.S.Stategraph.dup_hits;
      total_complete := !total_complete + st.S.Stategraph.complete;
      total_deadlocked := !total_deadlocked + st.S.Stategraph.deadlocked;
      let sched_str, fewer, exact_count =
        match sched with
        | S.Enumerate.Exact m ->
            (string_of_int m, st.S.Stategraph.states < m, Some m)
        | S.Enumerate.Exhausted m ->
            (Printf.sprintf ">%d" m, st.S.Stategraph.states < m, None)
      in
      if not fewer then all_fewer := false;
      let verdict =
        match outcome with
        | S.Stategraph.Safe -> "safe"
        | S.Stategraph.Unsafe _ -> "unsafe"
        | S.Stategraph.Exhausted _ -> "(budget)"
      in
      (* Race the two oracles on the decision itself wherever the
         schedule oracle can finish exhaustively and has real work to
         do; a SAFE verdict forces both to cover their whole space. *)
      (match (outcome, exact_count) with
      | S.Stategraph.Safe, Some m when m >= 1_000 ->
          let _, t_states = time (fun () -> Brute.safe_by_states sys) in
          let _, t_sched = time (fun () -> Brute.safe_by_schedules sys) in
          speedups := (t_sched /. Float.max t_states 1e-9) :: !speedups
      | _ -> ());
      pf "%4d %8d %12s %10d %8.2f ms %8.2f ms %s\n" i st.S.Stategraph.states
        sched_str st.S.Stategraph.dup_hits (ms t_census) (ms t_count) verdict)
    corpus;
  let med = median !speedups in
  pf "states < schedules on every system: %b\n" !all_fewer;
  pf "decision speedup (exhaustive SAFE subset, %d systems): median %.1fx\n"
    (List.length !speedups) med;
  metric_b "states_fewer_on_every_system" !all_fewer;
  metric_i "total_states" !total_states;
  metric_i "total_duplicate_hits" !total_dups;
  metric_i "total_complete_states" !total_complete;
  metric_i "total_deadlocked_states" !total_deadlocked;
  metric_i "speedup_subset_systems" (List.length !speedups);
  metric_f "median_decide_speedup" med;
  bar (n >= 40) "corpus too small (%d < 40)" n;
  bar !all_fewer "some system visited at least as many states as schedules";
  (* The seeded corpus's state-graph work: a visited table that lost or
     merged states, or a successor walk in another order, moves these. *)
  let pinned_states = 5_346 and pinned_dups = 1_593 in
  bar
    (!total_states = pinned_states && !total_dups = pinned_dups)
    "state-graph work %d states, %d duplicate hits; the seeded corpus does \
     %d and %d"
    !total_states !total_dups pinned_states pinned_dups;
  (* The terminal states every search must still reach, whatever it
     prunes: one complete state per reachable conflict digraph, and
     every deadlock. *)
  let pinned_complete = 152 and pinned_deadlocked = 58 in
  bar
    (!total_complete = pinned_complete
    && !total_deadlocked = pinned_deadlocked)
    "state-graph terminals %d complete, %d deadlocked; the seeded corpus \
     reaches %d and %d"
    !total_complete !total_deadlocked pinned_complete pinned_deadlocked;
  bar (!speedups <> []) "empty exhaustive-oracle speedup subset";
  bar (med >= 10.) "median decision speedup %.1fx below the 10x bar" med

(* ------------------------------------------------------------------ *)
(* E17: warm-cache edit latency — an incremental session absorbing
   single-transaction replacements vs deciding each edited system from
   scratch. The corpus is subcritical (each transaction locks 2 of 4n
   entities) so the conflict graph stays a scatter of small components —
   pair pipelines dominate the from-scratch cost and condition (b)
   never explodes — while the session re-runs only the pairs incident
   to the mutated transaction (at most 2n-3 of them). After each edit's
   call, a warm call (nothing edited since the last one) is timed too:
   it walks no transaction, pair or component, so it reports the
   session's fixed per-call cost. *)

let e17 () =
  rule "E17 (incremental): warm-cache edit latency vs from-scratch decide";
  let module E = Distlock_engine in
  let median = function
    | [] -> 0.
    | xs ->
        let a = List.sort compare xs in
        List.nth a (List.length a / 2)
  in
  let edits_per_size = 15 in
  param_i "edits_per_size" edits_per_size;
  List.iter
    (fun n ->
      let rng = Random.State.make [| 17 * n |] in
      let base =
        Txn_gen.random_multi_system rng ~num_txns:n ~num_entities:(4 * n)
          ~entities_per_txn:2 ~num_sites:2 ~cross_prob:1.0 ()
      in
      let db = System.db base in
      let pool = Array.of_list (Database.entities db) in
      let session = Incremental.of_system base in
      (* Warm the session: the base decision populates the pair store
         and the cycle caches; every later call is a true delta. *)
      let warm = Incremental.decide_delta session in
      let scratch =
        Decision.create ~cache_capacity:0 ~pair_cache_capacity:0 ()
      in
      let delta_times = ref []
      and warm_times = ref []
      and scratch_times = ref []
      and max_redecided = ref 0
      and agree = ref true in
      for i = 0 to edits_per_size - 1 do
        let k = (i * 7 + 3) mod n in
        let name = List.nth (Incremental.txn_names session) k in
        let e1 = Random.State.int rng (Array.length pool) in
        let e2 =
          (e1 + 1 + Random.State.int rng (Array.length pool - 1))
          mod Array.length pool
        in
        let txn =
          Txn_gen.random_txn rng db ~name
            ~entities:[ pool.(e1); pool.(e2) ]
            ~cross_prob:1.0 ()
        in
        Incremental.replace_txn session name txn;
        let o, t_delta = time (fun () -> Incremental.decide_delta session) in
        (* One warm call is far below the clock's resolution: time a
           hundred in a row. *)
        let warm_calls = 100 in
        let (), t_warm =
          time (fun () ->
              for _ = 1 to warm_calls do
                ignore (Incremental.decide_delta session)
              done)
        in
        warm_times := (t_warm /. float_of_int warm_calls) :: !warm_times;
        let fresh, t_scratch =
          time (fun () ->
              Decision.decide scratch (Incremental.system session))
        in
        let same =
          match (o.Incremental.verdict, fresh.E.Outcome.verdict) with
          | Incremental.Safe, E.Outcome.Safe
          | Incremental.Unsafe _, E.Outcome.Unsafe _
          | Incremental.Unknown _, E.Outcome.Unknown _ ->
              true
          | _ -> false
        in
        if not same then agree := false;
        delta_times := t_delta :: !delta_times;
        scratch_times := t_scratch :: !scratch_times;
        max_redecided := max !max_redecided o.Incremental.pairs_redecided
      done;
      let d = median !delta_times and s = median !scratch_times in
      let w = median !warm_times in
      let speedup = s /. Float.max d 1e-9 in
      let bound = (2 * n) - 3 in
      pf
        "n=%3d  base: %d pairs, %d cycles; per edit: delta %8.3f ms, \
         scratch %8.3f ms, %6.1fx; warm call %6.3f us; max pairs \
         re-decided %d (bound %d); verdicts %s\n"
        n warm.Incremental.pairs_total warm.Incremental.cycles_total (ms d)
        (ms s) speedup (w *. 1e6) !max_redecided bound
        (if !agree then "agree" else "DISAGREE");
      metric_f (Printf.sprintf "n%d_delta_median_seconds" n) d;
      metric_f (Printf.sprintf "n%d_warm_median_seconds" n) w;
      metric_f (Printf.sprintf "n%d_scratch_median_seconds" n) s;
      metric_f (Printf.sprintf "n%d_speedup" n) speedup;
      metric_i (Printf.sprintf "n%d_max_pairs_redecided" n) !max_redecided;
      metric_i (Printf.sprintf "n%d_pair_bound" n) bound;
      metric_b (Printf.sprintf "n%d_verdicts_agree" n) !agree;
      bar (d > 0.) "n=%d: median delta time not positive" n;
      bar !agree "n=%d: decide_delta disagrees with from-scratch" n;
      bar (!max_redecided <= bound)
        "n=%d: re-decided %d pairs in one edit, above the 2n-3 bound %d" n
        !max_redecided bound;
      bar (speedup >= 10.) "n=%d: warm-cache speedup %.1fx below the 10x bar"
        n speedup)
    [ 64; 128 ]

(* ------------------------------------------------------------------ *)
(* E18: flight-recorder overhead — no-op sink vs recorder-only vs the
   full export stack (a keep-all recorder plus its JSONL and Chrome
   renderings, written to the null device at the end of each run: what
   --trace and --chrome-trace pay). The recorder is on by default in
   the CLI, so its overhead budget (< 5% median vs no-op) is an
   acceptance gate. *)

let e18 () =
  rule "E18 (obs): flight-recorder overhead on a pair-system batch workload";
  let module Obs = Distlock_obs.Obs in
  let module Recorder = Distlock_obs.Recorder in
  let rng = Random.State.make [| 13 |] in
  let pool =
    Array.of_list
      (List.init 10 (fun i ->
           Txn_gen.random_pair_system rng
             ~num_shared:(2 + (i mod 3))
             ~num_private:1
             ~num_sites:(2 + (i mod 2))
             ~cross_prob:0.5 ()))
  in
  let queries =
    List.init 400 (fun _ -> pool.(Random.State.int rng (Array.length pool)))
  in
  let n = List.length queries in
  (* One batch takes a few milliseconds, about one scheduler quantum, so
     a single burst of host contention could carry a median. Each timed
     run repeats it, a fresh engine each time, and spans over 20 ms: a
     batch read 1.6–2.9 ms on a shared 2-CPU Xeon VM, so the no-op run
     reads about 21–38 ms. *)
  let batches = 13 in
  let run_once () =
    for _ = 1 to batches do
      let eng = Decision.create () in
      ignore (Decision.decide_batch eng queries)
    done
  in
  let null = open_out Filename.null in
  let recorder = Recorder.sink (Recorder.create ()) in
  let configs =
    [|
      (fun () ->
        Obs.set_sink Distlock_obs.Sink.noop;
        run_once ());
      (fun () ->
        Obs.set_sink recorder;
        run_once ());
      (fun () ->
        let r = Recorder.create ~capacity:max_int () in
        Obs.set_sink (Recorder.sink r);
        run_once ();
        Recorder.write_jsonl r null;
        Distlock_obs.Trace_export.write r null);
    |]
  in
  (* Median of 27 timed runs per configuration after one warm-up each
     (the effect measured here is small, and with 9 runs host noise
     carried the median ratio past the bar in about one run in six).
     The configurations take turns, each round starting one later, and
     every timed run starts from a fully collected heap: load that comes
     and goes on a shared host lands on all three alike, and no run pays
     for the garbage the one before it left. *)
  let reps = 27 and k = Array.length configs in
  Array.iter (fun run -> run ()) configs;
  let samples = Array.make k [] in
  for round = 0 to reps - 1 do
    for j = 0 to k - 1 do
      let i = (round + j) mod k in
      Gc.full_major ();
      samples.(i) <- snd (time configs.(i)) :: samples.(i)
    done
  done;
  Obs.set_sink Distlock_obs.Sink.noop;
  close_out null;
  let median i = List.nth (List.sort compare samples.(i)) (reps / 2) in
  let t_noop = median 0 and t_recorder = median 1 and t_full = median 2 in
  let per_decision t = t /. float_of_int (n * batches) *. 1e6 in
  let ratio t = t /. Float.max 1e-9 t_noop in
  pf "%d batches of %d decisions per timed run (median of %d):\n" batches n
    reps;
  pf "no-op sink:      %8.2f ms  (%6.2f us/decision)\n" (ms t_noop)
    (per_decision t_noop);
  pf "recorder only:   %8.2f ms  (%6.2f us/decision)  overhead: %.3fx\n"
    (ms t_recorder) (per_decision t_recorder) (ratio t_recorder);
  pf "full export:     %8.2f ms  (%6.2f us/decision)  overhead: %.3fx\n"
    (ms t_full) (per_decision t_full) (ratio t_full);
  param_i "queries" n;
  param_i "batches_per_run" batches;
  param_s "full_stack" "keep-all recorder + jsonl(null) + chrome(null)";
  metric_f "noop_seconds" t_noop;
  metric_f "recorder_seconds" t_recorder;
  metric_f "full_seconds" t_full;
  metric_f "recorder_overhead_ratio" (ratio t_recorder);
  metric_f "full_overhead_ratio" (ratio t_full);
  bar
    (t_noop > 0. && t_recorder > 0. && t_full > 0.)
    "a median batch time is not positive";
  bar
    (ratio t_recorder < 1.05)
    "recorder overhead %.3fx at or above the 1.05x bar" (ratio t_recorder)

(* E19: the static-safe/dynamic-unsafe gap. A corpus of two-phase
   systems the decision engine proves safe is run through the
   event-driven simulator's leased lock backend with worker crashes
   injected: a crashed holder's leases expire after the TTL and pass to
   waiters, the dead worker resumes believing it still holds them, and
   the committed history overlaps two locked sections — illegal, hence
   outside the static verdict's quantifier, and non-serializable. The
   sweep shows the gap shrinking to exactly zero as the TTL reaches the
   downtime (a holder then always resumes before expiry) and with
   faults off; the bakery backend (no expiry) never shows it at all. *)

let e19 () =
  rule
    "E19 (faults): statically-safe corpus under leased locks with crash \
     injection";
  let module Sim = Distlock_sim in
  let rng = Random.State.make [| 42 |] in
  let mk_db () =
    let db = Database.create () in
    Database.add_all db
      (List.init 8 (fun i -> (Printf.sprintf "e%d" i, 1 + (i mod 4))));
    db
  in
  let corpus =
    List.init 12 (fun _ ->
        Sim.Workload.make rng ~db:(mk_db ()) ~style:Sim.Workload.Two_phase
          ~num_txns:4 ~entities_per_txn:3)
  in
  let all_safe = List.for_all Sim.Workload.proven_safe corpus in
  let seeds = List.init 12 Fun.id in
  let down_time = 24 in
  let scenario ?ttl ?(crash = 0.08) ?(backend = Sim.Scenario.Leased) () =
    {
      Sim.Scenario.backend;
      latency = Sim.Latency.make (Sim.Latency.Uniform (1, 3));
      lease_ttl = ttl;
      crash_rate = crash;
      down_time;
      max_aborts = 1000;
    }
  in
  (* Aggregate (violations, completed runs, expiries, stale unlocks)
     over the corpus; faulty scenarios never take the proven-safe
     shortcut, so every history gets the full conflict check. *)
  let sweep sc =
    List.fold_left
      (fun (v, r, e, st) sys ->
        let s = Sim.Esim.measure ~scenario:sc ~seeds sys in
        ( v + s.Sim.Esim.violations,
          r + s.Sim.Esim.runs,
          e + s.Sim.Esim.total_expiries,
          st + s.Sim.Esim.total_stale_unlocks ))
      (0, 0, 0, 0) corpus
  in
  let gap (v, r, _, _) =
    if r = 0 then 0. else float_of_int v /. float_of_int r
  in
  pf "corpus: %d two-phase systems, all proven safe statically: %b\n"
    (List.length corpus) all_safe;
  pf "scenario: leased backend, latency 1-3, crash rate 0.08, downtime %d\n\n"
    down_time;
  let ttls = [ 2; 6; 12; down_time ] in
  let per_ttl =
    List.map
      (fun ttl ->
        let ((v, r, e, st) as agg) = sweep (scenario ~ttl ()) in
        pf
          "ttl %3d: %3d/%3d non-serializable (gap %.3f)  %4d lease \
           expiries, %4d stale unlocks\n"
          ttl v r (gap agg) e st;
        metric_f (Printf.sprintf "ttl%d_gap" ttl) (gap agg);
        metric_i (Printf.sprintf "ttl%d_expiries" ttl) e;
        (ttl, agg))
      ttls
  in
  let off = sweep (scenario ~ttl:2 ~crash:0. ()) in
  pf "faults off: gap %.3f\n" (gap off);
  let bakery = sweep (scenario ~backend:Sim.Scenario.Bakery ()) in
  pf "bakery backend (crashes on): gap %.3f\n" (gap bakery);
  let rerun = sweep (scenario ~ttl:6 ()) in
  let deterministic = rerun = snd (List.nth per_ttl 1) in
  pf "bit-deterministic re-run (ttl 6): %b\n" deterministic;
  param_i "corpus_systems" (List.length corpus);
  param_i "seeds_per_system" (List.length seeds);
  param_i "down_time" down_time;
  param_s "latency" "1-3";
  metric_b "corpus_statically_safe" all_safe;
  metric_f "gap_small_ttl" (gap (snd (List.hd per_ttl)));
  metric_f "gap_infinite_ttl" (gap (snd (List.nth per_ttl 3)));
  metric_f "gap_faults_off" (gap off);
  metric_f "bakery_gap" (gap bakery);
  metric_b "deterministic" deterministic;
  bar all_safe
    "corpus not statically proven safe: the gap would be meaningless";
  bar
    (gap (snd (List.hd per_ttl)) > 0.)
    "no non-serializable histories at small TTL: the \
     static-safe/dynamic-unsafe gap did not appear";
  List.iter
    (fun (what, agg) ->
      bar (gap agg = 0.) "%s is %.3f, expected 0" what (gap agg))
    [
      ("gap at ttl = down_time", snd (List.nth per_ttl 3));
      ("gap with faults off", off);
      ("bakery gap", bakery);
    ];
  bar deterministic "re-run with the same seeds diverged"

(* ------------------------------------------------------------------ *)
(* E20: live telemetry — overhead of a concurrent scraper on the fully
   instrumented simulator vs the recorder-only baseline (bar: < 1.10x),
   plus sustained scrape correctness: every /metrics response during a
   parallel batch must parse and its counters must be monotone. *)

module Str_find = struct
  (* First occurrence of [needle] in [hay], naive scan. *)
  let index hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then None
      else if String.sub hay i nn = needle then Some i
      else go (i + 1)
    in
    if nn = 0 then Some 0 else go 0
end

(* Minimal HTTP GET against the Expose endpoint; returns the body. *)
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
      let resp = Buffer.contents buf in
      match Str_find.index resp "\r\n\r\n" with
      | Some i -> String.sub resp (i + 4) (String.length resp - i - 4)
      | None -> resp)

let e20 () =
  rule "E20 (obs): live telemetry overhead and scrape correctness";
  let module Sim = Distlock_sim in
  let module E = Distlock_engine in
  let module Obs = Distlock_obs.Obs in
  (* Prometheus text sanity: every sample line ends in a number, and the
     named counter's value is extracted for monotonicity checks. *)
  let scrape_parses body =
    String.split_on_char '\n' body
    |> List.for_all (fun line ->
           line = ""
           || line.[0] = '#'
           ||
           match String.rindex_opt line ' ' with
           | None -> false
           | Some i -> (
               match
                 float_of_string_opt
                   (String.sub line (i + 1) (String.length line - i - 1))
               with
               | Some _ -> true
               | None -> false))
  in
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
  in
  let rng = Random.State.make [| 77 |] in
  let mk_db () =
    let db = Database.create () in
    Database.add_all db
      (List.init 8 (fun i -> (Printf.sprintf "e%d" i, 1 + (i mod 4))));
    db
  in
  let corpus =
    List.init 8 (fun _ ->
        Sim.Workload.make rng ~db:(mk_db ()) ~style:Sim.Workload.Two_phase
          ~num_txns:4 ~entities_per_txn:3)
  in
  let scenario =
    {
      Sim.Scenario.backend = Sim.Scenario.Leased;
      latency = Sim.Latency.make (Sim.Latency.Uniform (1, 3));
      lease_ttl = Some 6;
      crash_rate = 0.08;
      down_time = 24;
      max_aborts = 1000;
    }
  in
  (* Enough seeds that one rep spans several runtime preemption ticks —
     the serving thread gets a slice per tick, so short reps would see
     at most one scrape in flight. With 90 seeds a recorder-only rep
     reads 75–105 ms on a shared 2-CPU Xeon VM, about 10 scrapes per
     phase; a faster simulator needs more seeds to keep that length. *)
  let seeds = List.init 90 Fun.id in
  let run_once () =
    List.iter (fun sys -> ignore (Sim.Esim.measure ~scenario ~seeds sys)) corpus
  in
  (* Baseline: the CLI's default-on stack — flight recorder sink, all
     simulator instruments live, no endpoint. *)
  let recorder = Distlock_obs.Recorder.create () in
  Obs.set_sink (Distlock_obs.Recorder.sink recorder);
  let served = ref [ ("global", Obs.global) ] in
  let serve () =
    match
      Distlock_obs.Expose.start ~port:0 ~registries:(fun () -> !served) ()
    with
    | Ok s -> s
    | Error m -> failwith m
  in
  let timed () =
    Gc.full_major ();
    snd (time run_once)
  in
  (* Same load with the endpoint up and a scraper hammering /metrics.
     Both come up for this run only and are gone before the next one;
     the join waits out the scrape in flight, so no baseline run is
     scraped. *)
  let scrapes = Atomic.make 0 in
  let scraped () =
    let srv = serve () in
    let port = Distlock_obs.Expose.port srv in
    let stop = Atomic.make false in
    let scraper =
      (* A systhread, like the server itself: a scraper *domain* would
         bill the sim for a stop-the-world GC participant rather than
         for being scraped (~10% on one core even when idle). In
         production the scraper is another process entirely; keeping
         the client in-process makes this measurement conservative. 5 ms
         between scrapes is still orders of magnitude above any real
         Prometheus interval. *)
      Thread.create
        (fun () ->
          while not (Atomic.get stop) do
            (try ignore (http_get ~port "/metrics") with _ -> ());
            Atomic.incr scrapes;
            Unix.sleepf 0.005
          done)
        ()
    in
    let dt = timed () in
    Atomic.set stop true;
    Thread.join scraper;
    Distlock_obs.Expose.stop srv;
    dt
  in
  (* After one warm-up each, the phases take turns for 9 rounds, each
     round starting with the other one, and every timed run starts from
     a fully collected heap (as in E18): load that comes and goes on a
     shared host lands on both phases alike. *)
  let reps = 9 in
  let phases = [| timed; scraped |] and samples = Array.make 2 [] in
  Array.iter (fun phase -> ignore (phase ())) phases;
  Atomic.set scrapes 0;
  for round = 0 to reps - 1 do
    for j = 0 to 1 do
      let i = (round + j) mod 2 in
      samples.(i) <- phases.(i) () :: samples.(i)
    done
  done;
  let median i = List.nth (List.sort compare samples.(i)) (reps / 2) in
  let t_base = median 0 and t_scraped = median 1 in
  let overhead = t_scraped /. Float.max 1e-9 t_base in
  let scrapes = Atomic.get scrapes in
  let srv = serve () in
  let port = Distlock_obs.Expose.port srv in
  let final = http_get ~port "/metrics" in
  let family f = Str_find.index final ("# TYPE " ^ f ^ " ") <> None in
  let families_present =
    List.for_all family
      [
        "distlock_sim_lock_wait_ticks"; "distlock_sim_lock_hold_ticks";
        "distlock_sim_grants_total"; "distlock_sim_crashes_total";
        "distlock_esim_runs_total";
      ]
  in
  pf "workload: %d two-phase systems x %d seeds, leased + crashes\n"
    (List.length corpus) (List.length seeds);
  pf "timed runs per phase: %d, the phases taking turns (median)\n" reps;
  pf "recorder-only baseline:   %8.2f ms  (no endpoint, no scrapes)\n"
    (ms t_base);
  pf "with concurrent scraper:  %8.2f ms  overhead: %.3fx (%d scrapes)\n"
    (ms t_scraped) overhead scrapes;
  pf "sim metric families present on /metrics: %b\n" families_present;
  (* Scrape correctness while the engine decides on this thread. The
     scraper and the server are systhreads, which get the CPU only at
     the runtime's ~50 ms preemption tick, so the decisions run for many
     ticks: [rounds] passes over distinct pair systems, uncached. A
     scrape whose decision count lies strictly between 0 and the final
     count landed while the engine was deciding. *)
  let rng2 = Random.State.make [| 78 |] in
  let queries =
    List.init 400 (fun i ->
        Txn_gen.random_pair_system rng2
          ~num_shared:(2 + (i mod 3))
          ~num_private:1
          ~num_sites:(2 + (i mod 2))
          ~cross_prob:0.5 ())
  in
  let rounds = 40 in
  let eng = Decision.create ~cache_capacity:0 () in
  served :=
    [ ("global", Obs.global); ("engine", E.Stats.registry (Decision.stats eng)) ];
  let stop2 = Atomic.make false in
  let parsed = ref true
  and monotone = ref true
  and counts = ref [] in
  let checker =
    Thread.create
      (fun () ->
        let last = ref neg_infinity in
        while not (Atomic.get stop2) do
          (try
             let body = http_get ~port "/metrics" in
             if not (scrape_parses body) then parsed := false;
             match metric_value body "distlock_engine_decisions_total" with
             | Some v ->
                 if v < !last then monotone := false;
                 last := v;
                 counts := v :: !counts
             | None -> ()
           with _ -> parsed := false);
          Unix.sleepf 0.001
        done)
      ()
  in
  let (), t_decide =
    time (fun () ->
        for _ = 1 to rounds do
          ignore (Decision.decide_batch eng queries)
        done)
  in
  Unix.sleepf 0.02;
  Atomic.set stop2 true;
  Thread.join checker;
  let decisions = E.Stats.decisions (Decision.stats eng) in
  let load_scrapes = List.length !counts in
  let mid_run =
    List.length
      (List.filter (fun v -> v > 0. && v < float_of_int decisions) !counts)
  in
  let parsed_ok, monotone = (!parsed, !monotone) in
  Distlock_obs.Expose.stop srv;
  Obs.set_sink Distlock_obs.Sink.noop;
  pf
    "decisions under scrape: %d in %.0f ms, %d scrapes (%d while deciding), \
     all parse: %b, counters monotone: %b\n"
    decisions (ms t_decide) load_scrapes mid_run parsed_ok monotone;
  param_i "corpus_systems" (List.length corpus);
  param_i "seeds_per_system" (List.length seeds);
  param_i "load_queries" (List.length queries);
  param_i "load_rounds" rounds;
  metric_f "baseline_seconds" t_base;
  metric_f "scraped_seconds" t_scraped;
  metric_f "scrape_overhead_ratio" overhead;
  metric_i "overhead_scrapes" scrapes;
  metric_b "sim_families_present" families_present;
  metric_f "load_seconds" t_decide;
  metric_i "load_scrapes" load_scrapes;
  metric_i "mid_run_scrapes" mid_run;
  metric_b "scrapes_parse" parsed_ok;
  metric_b "counters_monotone" monotone;
  bar (t_base > 0. && t_scraped > 0.) "a median run time is not positive";
  bar (overhead < 1.10) "scrape overhead %.3fx at or above the 1.10x bar"
    overhead;
  bar (scrapes >= 1) "no scrapes landed during the overhead measurement";
  bar families_present "simulator metric families missing from /metrics";
  bar (mid_run >= 1) "no scrape landed while the engine was deciding";
  bar parsed_ok "a scrape taken under concurrent writes failed to parse";
  bar monotone "decision counter went backwards between scrapes"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

let bechamel_benches () =
  rule "Bechamel micro-benchmarks (OLS time per call)";
  let open Bechamel in
  let fig1 = Figures.fig1 () in
  let rng = Random.State.make [| 5 |] in
  let sys_big =
    Txn_gen.random_pair_system rng ~num_shared:64 ~num_private:0 ~num_sites:2
      ~cross_prob:0.3 ()
  in
  let sat3 =
    Distlock_sat.Cnf.make ~num_vars:3
      [
        [ Distlock_sat.Cnf.pos 0; Distlock_sat.Cnf.pos 1 ];
        [ Distlock_sat.Cnf.neg 0; Distlock_sat.Cnf.pos 2 ];
        [ Distlock_sat.Cnf.pos 1; Distlock_sat.Cnf.neg 2 ];
      ]
  in
  let multi =
    Txn_gen.random_multi_system rng ~num_txns:4 ~num_entities:6
      ~entities_per_txn:2 ~num_sites:2 ~cross_prob:0.6 ()
  in
  let g512 =
    Distlock_graph.Digraph.of_arcs 512
      (List.concat
         (List.init 512 (fun i ->
              [ (i, (i + 1) mod 512); (i, (i + 7) mod 512) ])))
  in
  let tests =
    [
      Test.make ~name:"E1/fig1-theorem2"
        (Staged.stage (fun () -> ignore (Twosite.decide fig1)));
      Test.make ~name:"E2/corollary1-n128"
        (Staged.stage (fun () ->
             ignore (Theorem1.guarantees_safe sys_big)));
      Test.make ~name:"E2/dgraph-build-n128"
        (Staged.stage (fun () -> ignore (Dgraph.build_pair sys_big)));
      Test.make ~name:"E4/certificate-fig1"
        (Staged.stage (fun () ->
             match Twosite.decide fig1 with
             | Twosite.Unsafe c -> ignore (Certificate.verify fig1 c)
             | Twosite.Safe -> ()));
      Test.make ~name:"E6/encode-3vars"
        (Staged.stage (fun () -> ignore (Reduction.encode sat3)));
      Test.make ~name:"E7/prop2-4txns"
        (Staged.stage (fun () -> ignore (prop2 multi)));
      Test.make ~name:"E8/simulate-fig1"
        (Staged.stage (fun () ->
             ignore
               (Distlock_sim.Esim.run
                  ~policy:(Distlock_sim.Engine.Random 3) fig1)));
      Test.make ~name:"graph/scc-512"
        (Staged.stage (fun () -> ignore (Distlock_graph.Scc.compute g512)));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  pf "%-26s %14s %10s\n" "benchmark" "time/call" "r^2";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name bench ->
          let est = Analyze.one ols instance bench in
          let nanos =
            match Analyze.OLS.estimates est with
            | Some (e :: _) -> e
            | _ -> Float.nan
          in
          let r2 =
            Option.value ~default:Float.nan (Analyze.OLS.r_square est)
          in
          let pretty =
            if nanos > 1e9 then Printf.sprintf "%8.3f  s" (nanos /. 1e9)
            else if nanos > 1e6 then Printf.sprintf "%8.3f ms" (nanos /. 1e6)
            else if nanos > 1e3 then Printf.sprintf "%8.3f us" (nanos /. 1e3)
            else Printf.sprintf "%8.1f ns" nanos
          in
          pf "%-26s %14s %10.4f\n%!" name pretty r2)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Driver: run the selected experiments, snapshot each one's params and
   derived metrics with wall/CPU time, and write the JSON artifact. *)

let experiments =
  [ ("E1", e1); ("E2", e2); ("E2b", e2b); ("E3", e3); ("E4", e4);
    ("E5", e5); ("E6", e6); ("E7", e7); ("E8", e8); ("E8b", e8b);
    ("E8c", e8c); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12);
    ("E13", e13); ("E16", e16); ("E17", e17);
    ("E18", e18); ("E19", e19); ("E20", e20) ]

(* Host metadata, so an archived BENCH_results.json says what machine
   and build produced it. *)
let host_json () =
  let cpu_count = Domain.recommended_domain_count () in
  bar (cpu_count >= 1) "implausible cpu_count %d" cpu_count;
  bar (Sys.ocaml_version <> "") "empty ocaml_version";
  let git_describe =
    try
      let ic =
        Unix.open_process_in "git describe --always --dirty 2>/dev/null"
      in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with _ -> "unknown"
  in
  J.Obj
    [
      ("cpu_count", J.Int cpu_count);
      ("ocaml_version", J.Str Sys.ocaml_version);
      ("os_type", J.Str Sys.os_type);
      ("word_size", J.Int Sys.word_size);
      ("git_describe", J.Str git_describe);
    ]

let usage () =
  prerr_endline
    "usage: bench [--only E1,E13,...] [--out FILE] [--no-artifact]";
  exit 2

let () =
  let only = ref None and out = ref "BENCH_results.json" in
  let artifact = ref true in
  let rec parse = function
    | [] -> ()
    | "--only" :: v :: rest ->
        only := Some (String.split_on_char ',' v);
        parse rest
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | "--no-artifact" :: rest ->
        artifact := false;
        parse rest
    | a :: _ ->
        Printf.eprintf "bench: unknown argument %s\n" a;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match !only with
    | None -> experiments
    | Some ids ->
        let same a b = String.lowercase_ascii a = String.lowercase_ascii b in
        let known id = List.exists (fun (e, _) -> same e id) experiments in
        (match List.find_opt (fun id -> not (known id)) ids with
        | Some id ->
            Printf.eprintf "bench: --only: unknown experiment %S\n" id;
            usage ()
        | None -> ());
        List.filter (fun (e, _) -> List.exists (same e) ids) experiments
  in
  pf "distlock benchmark harness — reproducing Kanellakis & Papadimitriou 1982\n";
  (* Each experiment's failed bars, prefixed with its id. *)
  let failures = ref [] in
  let collect id =
    failures := !failures @ List.rev_map (( ^ ) (id ^ ": ")) !bench_failures;
    bench_failures := []
  in
  let records =
    List.map
      (fun (id, f) ->
        bench_params := [];
        bench_metrics := [];
        let w0 = Unix.gettimeofday () and c0 = Sys.time () in
        f ();
        let wall = Unix.gettimeofday () -. w0 and cpu = Sys.time () -. c0 in
        collect id;
        J.Obj
          [
            ("id", J.Str id);
            ("params", J.Obj (List.rev !bench_params));
            ("wall_seconds", J.Float wall);
            ("cpu_seconds", J.Float cpu);
            ("metrics", J.Obj (List.rev !bench_metrics));
          ])
      selected
  in
  (* micro-benchmarks only on full sweeps; a filtered run is a smoke *)
  if !only = None then bechamel_benches ();
  let host = host_json () in
  collect "host";
  if !artifact then begin
    let oc = open_out !out in
    output_string oc
      (J.to_string_pretty
         (J.Obj
            [
              ("harness", J.Str "distlock-bench");
              ("version", J.Str "1.8.0");
              ("host", host);
              ("experiments", J.List records);
            ]));
    output_char oc '\n';
    close_out oc;
    pf "\nwrote %s\n" !out
  end;
  match !failures with
  | [] -> pf "\ndone.\n"
  | failed ->
      pf "\n%d bar(s) failed:\n" (List.length failed);
      List.iter (pf "  %s\n") failed;
      exit 1
