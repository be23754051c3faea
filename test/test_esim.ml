open Distlock_txn
open Distlock_sim

(* The event-driven simulator: equivalence with the lockstep reference
   loop in lockstep_sim.ml, the clock and backend layers in isolation,
   fault injection (lease expiry, crash/restart, the
   static-safe/dynamic-unsafe gap), deterministic replay, and the
   trace/violation-fraction satellite fixes. *)

let mkdb entities =
  let db = Database.create () in
  Database.add_all db entities;
  db

let safe_pair () =
  let db = mkdb [ ("x", 1); ("y", 2) ] in
  let t1 = Builder.two_phase_sequence db ~name:"T1" [ "x"; "y" ] in
  let t2 = Builder.two_phase_sequence db ~name:"T2" [ "x"; "y" ] in
  System.make db [ t1; t2 ]

let deadlock_pair () =
  let db = mkdb [ ("x", 1); ("y", 1) ] in
  let t1 = Builder.two_phase_sequence db ~name:"T1" [ "x"; "y" ] in
  let t2 = Builder.two_phase_sequence db ~name:"T2" [ "y"; "x" ] in
  System.make db [ t1; t2 ]

(* ------------------------------------------------------------------ *)
(* Clock layer. *)

let test_clock_ordering () =
  let c = Clock.create () in
  List.iter (fun t -> Clock.at c ~time:t t) [ 5; 1; 9; 3; 7; 3; 1 ];
  let rec drain acc =
    match Clock.pop c with None -> List.rev acc | Some (t, _) -> drain (t :: acc)
  in
  Util.check "pops in time order" true
    (drain [] = [ 1; 1; 3; 3; 5; 7; 9 ]);
  Util.check "now advanced to last pop" true (Clock.now c = 9)

let test_clock_ties_fifo () =
  let c = Clock.create () in
  List.iteri (fun i () -> Clock.at c ~time:4 i) [ (); (); (); () ];
  let rec drain acc =
    match Clock.pop c with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Util.check "equal times pop in scheduling order" true
    (drain [] = [ 0; 1; 2; 3 ])

let test_clock_past_clamped () =
  let c = Clock.create () in
  Clock.at c ~time:10 "a";
  ignore (Clock.pop c);
  Clock.at c ~time:3 "late";
  Util.check "past schedules clamp to now" true (Clock.pop c = Some (10, "late"))

(* ------------------------------------------------------------------ *)
(* Backend layer. *)

let test_leased_expiry_and_handoff () =
  let db = mkdb [ ("x", 1); ("y", 1) ] in
  let b = Backend.create db ~ttl:(Some 2) in
  let x = Database.id_exn db "x" in
  Util.check "grant on free" true
    (Backend.acquire b ~now:0 ~owner:0 ~ready_at:0 x = Backend.Granted);
  Util.check "second requester queues" true
    (Backend.acquire b ~now:1 ~owner:1 ~ready_at:1 x = Backend.Queued);
  Backend.crash b ~now:5 ~owner:0;
  Util.check "no expiry at the deadline" true (Backend.drain b ~now:7 = []);
  (match Backend.drain b ~now:8 with
  | [ Backend.Expired { entity; owner }; Backend.Handed { owner = w; _ } ] ->
      Util.check_int "expired entity" x entity;
      Util.check_int "expired owner" 0 owner;
      Util.check_int "handed to waiter" 1 w
  | _ -> Alcotest.fail "expected expiry followed by handoff");
  Util.check "waiter now holds" true (Backend.holder b x = Some 1);
  Util.check "dead owner's unlock is stale" false (Backend.release b ~owner:0 x);
  Util.check "new holder's unlock works" true (Backend.release b ~owner:1 x)

let test_leased_resume_keeps_lease () =
  let db = mkdb [ ("x", 1) ] in
  let b = Backend.create db ~ttl:(Some 3) in
  let x = Database.id_exn db "x" in
  ignore (Backend.acquire b ~now:0 ~owner:0 ~ready_at:0 x);
  Backend.crash b ~now:5 ~owner:0;
  Backend.resume b ~owner:0;
  Util.check "resume cancels the countdown" true (Backend.drain b ~now:1000 = []);
  Util.check "still held" true (Backend.holder b x = Some 0)

let test_bakery_never_expires () =
  let db = mkdb [ ("x", 1) ] in
  let b = Backend.create db ~ttl:None in
  let x = Database.id_exn db "x" in
  ignore (Backend.acquire b ~now:0 ~owner:0 ~ready_at:0 x);
  ignore (Backend.acquire b ~now:1 ~owner:1 ~ready_at:1 x);
  Backend.crash b ~now:2 ~owner:0;
  Util.check "bakery tickets survive any outage" true
    (Backend.drain b ~now:1_000_000 = []);
  Util.check "holder unchanged" true (Backend.holder b x = Some 0)

let test_forfeit_drops_held_and_queued () =
  let db = mkdb [ ("x", 1); ("y", 1) ] in
  let b = Backend.create db ~ttl:(Some 5) in
  let x = Database.id_exn db "x" and y = Database.id_exn db "y" in
  ignore (Backend.acquire b ~now:0 ~owner:0 ~ready_at:0 x);
  ignore (Backend.acquire b ~now:0 ~owner:1 ~ready_at:0 y);
  ignore (Backend.acquire b ~now:1 ~owner:0 ~ready_at:1 y);
  Backend.forfeit b ~owner:0;
  Util.check "held lock dropped" true (Backend.holder b x = None);
  Util.check "queued request dropped" true (Backend.drain b ~now:100 = []);
  Util.check "other holder untouched" true (Backend.holder b y = Some 1)

let test_queued_request_arrival_gated () =
  let db = mkdb [ ("x", 1) ] in
  let b = Backend.create db ~ttl:(Some 5) in
  let x = Database.id_exn db "x" in
  (* Free entity, but the request message is still in flight. *)
  Util.check "in-flight request queues" true
    (Backend.acquire b ~now:0 ~owner:0 ~ready_at:4 x = Backend.Queued);
  Util.check "wakeup at arrival" true (Backend.next_wakeup b = Some 4);
  Util.check "not granted before arrival" true (Backend.drain b ~now:3 = []);
  (match Backend.drain b ~now:4 with
  | [ Backend.Handed { owner = 0; _ } ] -> ()
  | _ -> Alcotest.fail "expected grant at arrival time");
  Util.check "holds after arrival" true (Backend.holder b x = Some 0)

(* ------------------------------------------------------------------ *)
(* Equivalence with the lockstep reference: the instant backend with no
   faults must reproduce Lockstep_sim.run exactly — histories, stats,
   and traces, seed for seed. At zero latency Esim's [ticks] is the
   reference's tick count; under a constant cross-site delay the
   reference idles one tick at a time while Esim jumps its clock, so the
   reference's ticks are Esim's [makespan]. *)

let outcomes_agree ~ticks sys
    (reference : (Lockstep_sim.outcome, string) result)
    (evented : (Esim.outcome, string) result) =
  match (reference, evented) with
  | Error a, Error b -> a = b
  | Ok a, Ok b ->
      Distlock_sched.Schedule.events a.Lockstep_sim.history
      = Distlock_sched.Schedule.events b.Esim.history
      && a.Lockstep_sim.serializable = b.Esim.serializable
      && a.Lockstep_sim.trace = b.Esim.trace
      && a.Lockstep_sim.stats.ticks = ticks b.Esim.stats
      && a.Lockstep_sim.stats.commits = b.Esim.stats.Esim.commits
      && a.Lockstep_sim.stats.aborts = b.Esim.stats.Esim.aborts
      && a.Lockstep_sim.stats.deadlocks = b.Esim.stats.Esim.deadlocks
      && b.Esim.legal = Distlock_sched.Legality.is_legal sys b.Esim.history
  | _ -> false

let gen_equivalence_case =
  Util.gen_with_state (fun st ->
      ( Txn_gen.random_multi_system st ~num_txns:(2 + Random.State.int st 3)
          ~num_entities:(4 + Random.State.int st 3)
          ~entities_per_txn:2
          ~num_sites:(1 + Random.State.int st 3)
          ~with_updates:(Random.State.bool st)
          ~cross_prob:0.5 (),
        Random.State.int st 1_000_000 ))

let qcheck_zero_latency_equivalence =
  Util.qtest ~count:1000 "fault-free event engine == legacy engine"
    gen_equivalence_case
    (fun (sys, seed) ->
      let policy = Engine.Random seed in
      outcomes_agree
        ~ticks:(fun s -> s.Esim.ticks)
        sys
        (Lockstep_sim.run ~policy sys)
        (Esim.run ~policy sys))

let qcheck_latency_equivalence =
  Util.qtest ~count:1000 "constant latency == lockstep cross-site delay"
    QCheck2.Gen.(pair gen_equivalence_case (int_range 0 8))
    (fun ((sys, seed), delay) ->
      let policy = Engine.Random seed in
      let scenario =
        {
          Scenario.default with
          Scenario.latency = Latency.make (Latency.Constant delay);
        }
      in
      outcomes_agree
        ~ticks:(fun s -> s.Esim.makespan)
        sys
        (Lockstep_sim.run ~policy ~cross_site_delay:delay sys)
        (Esim.run ~policy ~scenario sys))

(* ------------------------------------------------------------------ *)
(* Fault injection: the static-safe/dynamic-unsafe gap. *)

let gap_scenario ?(ttl = 1) ?(crash_rate = 0.5) ?(down_time = 40) () =
  {
    Scenario.default with
    Scenario.backend = Scenario.Leased;
    lease_ttl = Some ttl;
    crash_rate;
    down_time;
  }

let seeds = List.init 40 Fun.id

let test_gap_exists_at_small_ttl () =
  let sys = safe_pair () in
  Util.check "corpus is statically safe" true (Workload.proven_safe sys);
  let s = Esim.measure ~scenario:(gap_scenario ()) ~seeds sys in
  Util.check "leases were lost" true (s.Esim.total_expiries > 0);
  Util.check "statically-safe system commits non-serializable histories"
    true (s.Esim.violations > 0);
  Util.check "violating histories are illegal schedules" true
    (s.Esim.illegal >= s.Esim.violations)

let test_gap_zero_with_faults_off () =
  let sys = safe_pair () in
  let s =
    Esim.measure ~scenario:(gap_scenario ~crash_rate:0. ()) ~seeds sys
  in
  Util.check_int "no crashes" 0 s.Esim.total_crashes;
  Util.check_int "no expiries" 0 s.Esim.total_expiries;
  Util.check_int "no violations" 0 s.Esim.violations

let test_gap_zero_with_long_ttl () =
  (* ttl >= down_time: the holder always resumes before its lease can
     expire, so faults cost time but never safety. *)
  let sys = safe_pair () in
  let s =
    Esim.measure ~scenario:(gap_scenario ~ttl:40 ~down_time:40 ()) ~seeds sys
  in
  Util.check "crashes did happen" true (s.Esim.total_crashes > 0);
  Util.check_int "but no lease was lost" 0 s.Esim.total_expiries;
  Util.check_int "and no violation occurred" 0 s.Esim.violations

let test_instant_backend_crash_is_only_delay () =
  (* The instant backend ignores crashes entirely: a paused worker keeps
     its locks, so safety is untouched. *)
  let sys = safe_pair () in
  let scenario =
    { Scenario.default with Scenario.crash_rate = 0.5; down_time = 10 }
  in
  let s = Esim.measure ~scenario ~seeds sys in
  Util.check "crashes injected" true (s.Esim.total_crashes > 0);
  Util.check_int "no violations" 0 s.Esim.violations;
  Util.check_int "no illegal histories" 0 s.Esim.illegal

let test_bakery_backend_no_gap () =
  let sys = safe_pair () in
  let scenario =
    {
      Scenario.default with
      Scenario.backend = Scenario.Bakery;
      crash_rate = 0.5;
      down_time = 40;
    }
  in
  let s = Esim.measure ~scenario ~seeds sys in
  Util.check "crashes injected" true (s.Esim.total_crashes > 0);
  Util.check_int "bakery loses no locks" 0 s.Esim.total_expiries;
  Util.check_int "so no violations" 0 s.Esim.violations

let test_deterministic_replay () =
  let sys = safe_pair () in
  let scenario =
    {
      (gap_scenario ~ttl:3 ~crash_rate:0.3 ~down_time:20 ()) with
      Scenario.latency = Latency.make (Latency.Uniform (1, 4));
    }
  in
  List.iter
    (fun seed ->
      let run () = Esim.run ~policy:(Engine.Random seed) ~scenario sys in
      match (run (), run ()) with
      | Ok a, Ok b ->
          Util.check "identical histories" true
            (Distlock_sched.Schedule.events a.Esim.history
            = Distlock_sched.Schedule.events b.Esim.history);
          Util.check "identical traces" true (a.Esim.trace = b.Esim.trace);
          Util.check "identical stats" true (a.Esim.stats = b.Esim.stats)
      | Error a, Error b -> Util.check "identical errors" true (a = b)
      | _ -> Alcotest.fail "one replica errored, the other did not")
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let qcheck_faulty_runs_complete =
  Util.qtest ~count:60 "faulty leased runs complete with full histories"
    (Util.gen_with_state (fun st ->
         ( Txn_gen.random_multi_system st ~num_txns:(2 + Random.State.int st 2)
             ~num_entities:5 ~entities_per_txn:2 ~num_sites:2
             ~with_updates:true ~cross_prob:0.5 (),
           Random.State.int st 1000 )))
    (fun (sys, seed) ->
      let scenario = gap_scenario ~ttl:2 ~crash_rate:0.2 ~down_time:15 () in
      match Esim.run ~policy:(Engine.Random seed) ~scenario sys with
      | Error _ -> true (* abort budget: acceptable *)
      | Ok o ->
          (* Every committed history is complete (all steps of all
             transactions), even when leases were lost along the way. *)
          Distlock_sched.Schedule.is_complete sys o.Esim.history)

(* Readiness is a per-step count of unexecuted predecessors, decremented
   as steps complete and reset when an aborted instance starts over. A
   count left stale by the abort, crash, queued-grant or resume paths
   would let a step run before its predecessor in the committed attempt,
   which [Legality.check] reports as [Order_violated]. Each case runs one
   system under all three backends, with message latency, crashes and a
   lease shorter than the downtime (leases expire and pass on), over
   random partial orders and the deadlock-prone workload styles. *)
let qcheck_order_kept_on_every_path =
  Util.qtest ~count:1000 "committed attempts keep their partial order"
    (Util.gen_with_state (fun st ->
         let sys =
           match Random.State.int st 3 with
           | 0 ->
               Txn_gen.random_multi_system st
                 ~num_txns:(2 + Random.State.int st 3)
                 ~num_entities:(3 + Random.State.int st 4)
                 ~entities_per_txn:(2 + Random.State.int st 2)
                 ~num_sites:(1 + Random.State.int st 3)
                 ~with_updates:(Random.State.bool st)
                 ~cross_prob:(Random.State.float st 1.0) ()
           | k ->
               let db =
                 Txn_gen.random_database st ~num_entities:5
                   ~num_sites:(1 + Random.State.int st 3)
               in
               Workload.make st ~db
                 ~style:
                   (if k = 1 then Workload.Two_phase
                    else Workload.Random_locked 0.5)
                 ~num_txns:(2 + Random.State.int st 3)
                 ~entities_per_txn:3
         in
         (sys, Random.State.int st 1_000_000)))
    (fun (sys, seed) ->
      List.for_all
        (fun backend ->
          let scenario =
            {
              Scenario.default with
              Scenario.backend;
              latency = Latency.make (Latency.Uniform (1, 4));
              lease_ttl = Some 3;
              crash_rate = 0.15;
              down_time = 12;
            }
          in
          match Esim.run ~policy:(Engine.Random seed) ~scenario sys with
          | Error _ -> true (* abort budget: acceptable *)
          | Ok o ->
              Distlock_sched.Schedule.is_complete sys o.Esim.history
              && List.for_all
                   (function
                     | Distlock_sched.Legality.Order_violated _ -> false
                     | _ -> true)
                   (Distlock_sched.Legality.check sys o.Esim.history))
        [ Scenario.Instant; Scenario.Leased; Scenario.Bakery ])

let test_latency_stretches_makespan () =
  let sys = safe_pair () in
  let slow =
    {
      Scenario.default with
      Scenario.backend = Scenario.Leased;
      latency = Latency.make (Latency.Constant 6);
    }
  in
  match
    ( Esim.run ~policy:(Engine.Random 11) sys,
      Esim.run ~policy:(Engine.Random 11) ~scenario:slow sys )
  with
  | Ok fast, Ok lagged ->
      Util.check "latency stretches the makespan" true
        (lagged.Esim.stats.Esim.makespan > fast.Esim.stats.Esim.makespan);
      Util.check "still serializable (2PL, fault-free)" true
        lagged.Esim.serializable;
      Util.check "still legal" true lagged.Esim.legal
  | _ -> Alcotest.fail "runs errored"

let test_spread_sites () =
  let sys = safe_pair () in
  let sys3 = Scenario.spread_sites sys ~sites:3 in
  let db = System.db sys3 in
  Util.check_int "entities preserved" 2 (Database.num_entities db);
  List.iter
    (fun e ->
      Util.check "sites assigned round-robin" true
        (Database.site db e = 1 + (e mod 3)))
    (Database.entities db);
  Util.check "transactions preserved" true
    (System.num_txns sys3 = System.num_txns sys)

let test_latency_parsing () =
  Util.check "none" true (Latency.of_string "none" = Latency.none);
  Util.check "constant" true
    (Latency.of_string "3" = Latency.make (Latency.Constant 3));
  Util.check "range" true
    (Latency.of_string "1-5" = Latency.make (Latency.Uniform (1, 5)));
  Util.check "roundtrip" true
    (Latency.to_string (Latency.of_string "2-7") = "2-7")

(* ------------------------------------------------------------------ *)
(* Satellite fixes. *)

let test_trace_never_started () =
  let sys = safe_pair () in
  (* A trace in which T2 (index 1) never ran a step. *)
  let events =
    [ { Trace.tick = 1; txn = 0; step = 0; site = 1; attempt = 1 } ]
  in
  let r = Trace.analyze sys events in
  let m0 = List.nth r.Trace.txns 0 and m1 = List.nth r.Trace.txns 1 in
  Util.check_int "started txn attempts" 1 m0.Trace.attempts;
  Util.check "started txn has a start" true (m0.Trace.first_start = Some 1);
  Util.check_int "never-started attempts are 0" 0 m1.Trace.attempts;
  Util.check "never-started has no start" true (m1.Trace.first_start = None);
  Util.check "never-started has no commit" true (m1.Trace.commit = None);
  let rendered = Format.asprintf "%a" (Trace.pp_report sys) r in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Util.check "report says so" true (contains rendered "T2: never started");
  Util.check "started txn keeps the old line format" true
    (contains rendered "T1: start 1, commit 1, 1 attempt(s), 1 steps (0 wasted)")

let test_violation_fraction_excludes_errors () =
  (* With a zero abort budget every deadlocked run errors out; those
     runs commit nothing and must leave the fraction's denominator. *)
  let sys = deadlock_pair () in
  let measure seeds =
    Esim.measure ~precheck:false
      ~scenario:{ Scenario.default with Scenario.max_aborts = 0 }
      ~seeds sys
  in
  let s = measure (List.init 100 Fun.id) in
  Util.check "some runs hit the budget" true (s.Esim.errors > 0);
  Util.check "others completed" true (s.Esim.runs > 0);
  Util.check_int "accounting is total" 100 (s.Esim.runs + s.Esim.errors);
  Util.check_int "2PL never violates" 0 s.Esim.violations;
  Util.check "fraction is over completed runs only" true
    (Esim.violation_fraction s = 0.);
  (* All-error degenerate case: the fraction reports 0 rather than
     dividing by the errored runs. *)
  let s2 = measure [ 2 ] in
  if s2.Esim.runs = 0 then
    Util.check "all-error fraction is 0" true (Esim.violation_fraction s2 = 0.)

let test_empty_transaction_commits_at_once () =
  let sys =
    match
      Parse.system_of_string
        "entity x @ 1\n\
         txn T1 {\n\
         }\n\
         txn T2 {\n\
        \  step Lx lock x\n\
        \  step Ux unlock x\n\
        \  arc Lx -> Ux\n\
         }\n"
    with
    | Ok sys -> sys
    | Error m -> Alcotest.fail m
  in
  let crashing =
    {
      Scenario.default with
      Scenario.backend = Scenario.Leased;
      latency = Latency.make (Latency.Uniform (1, 3));
      crash_rate = 0.5;
    }
  in
  List.iter
    (fun scenario ->
      match Esim.run ~policy:(Engine.Random 3) ~scenario sys with
      | Error m -> Alcotest.fail m
      | Ok o ->
          Util.check "history is complete" true
            (Distlock_sched.Schedule.is_complete sys o.Esim.history);
          Util.check "the empty transaction never runs" true
            (List.for_all (fun (e : Trace.event) -> e.txn = 1) o.Esim.trace);
          Util.check_int "both commit" 2 o.Esim.stats.Esim.commits)
    [ Scenario.default; crashing ];
  let s = Esim.measure ~seeds:[ 0; 1; 2 ] sys in
  Util.check_int "every seed completes" 3 s.Esim.runs;
  Util.check_int "two ticks a run" 6 s.Esim.total_ticks

let () =
  Alcotest.run "esim"
    [
      ( "clock",
        [
          Alcotest.test_case "time ordering" `Quick test_clock_ordering;
          Alcotest.test_case "fifo ties" `Quick test_clock_ties_fifo;
          Alcotest.test_case "past clamped" `Quick test_clock_past_clamped;
        ] );
      ( "backend",
        [
          Alcotest.test_case "lease expiry + handoff" `Quick
            test_leased_expiry_and_handoff;
          Alcotest.test_case "resume keeps lease" `Quick
            test_leased_resume_keeps_lease;
          Alcotest.test_case "bakery never expires" `Quick
            test_bakery_never_expires;
          Alcotest.test_case "forfeit drops everything" `Quick
            test_forfeit_drops_held_and_queued;
          Alcotest.test_case "arrival-gated grants" `Quick
            test_queued_request_arrival_gated;
        ] );
      ( "equivalence",
        [
          qcheck_zero_latency_equivalence;
          qcheck_latency_equivalence;
        ] );
      ( "faults",
        [
          Alcotest.test_case "gap at small ttl" `Quick test_gap_exists_at_small_ttl;
          Alcotest.test_case "no gap without faults" `Quick
            test_gap_zero_with_faults_off;
          Alcotest.test_case "no gap with long ttl" `Quick
            test_gap_zero_with_long_ttl;
          Alcotest.test_case "instant backend: crash only delays" `Quick
            test_instant_backend_crash_is_only_delay;
          Alcotest.test_case "bakery backend: no gap" `Quick
            test_bakery_backend_no_gap;
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
          qcheck_faulty_runs_complete;
          qcheck_order_kept_on_every_path;
          Alcotest.test_case "latency stretches makespan" `Quick
            test_latency_stretches_makespan;
          Alcotest.test_case "spread_sites" `Quick test_spread_sites;
          Alcotest.test_case "latency parsing" `Quick test_latency_parsing;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "trace: never started" `Quick
            test_trace_never_started;
          Alcotest.test_case "violation_fraction: errors excluded" `Quick
            test_violation_fraction_excludes_errors;
          Alcotest.test_case "empty transaction commits at once" `Quick
            test_empty_transaction_commits_at_once;
        ] );
    ]
