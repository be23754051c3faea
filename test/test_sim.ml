open Distlock_txn
open Distlock_sim

let mkdb entities =
  let db = Database.create () in
  Database.add_all db entities;
  db

let unsafe_pair () =
  let db = mkdb [ ("x", 1); ("z", 2) ] in
  let mk name =
    Builder.make_exn db ~name
      ~steps:
        [
          ("Lx", `Lock "x"); ("ux", `Update "x"); ("Ux", `Unlock "x");
          ("Lz", `Lock "z"); ("uz", `Update "z"); ("Uz", `Unlock "z");
        ]
      ~chains:[ [ "Lx"; "ux"; "Ux" ]; [ "Lz"; "uz"; "Uz" ] ]
      ()
  in
  System.make db [ mk "T1"; mk "T2" ]

let safe_pair () =
  let db = mkdb [ ("x", 1); ("z", 2) ] in
  let t1 = Builder.two_phase_sequence db ~name:"T1" [ "x"; "z" ] in
  let t2 = Builder.two_phase_sequence db ~name:"T2" [ "x"; "z" ] in
  System.make db [ t1; t2 ]

(* Fraction of 100 seeded runs whose committed history is not
   serializable, checked on every run: no static precheck. *)
let violation_fraction sys =
  Esim.violation_fraction
    (Esim.measure ~precheck:false ~seeds:(List.init 100 Fun.id) sys)

let test_run_completes_and_legal () =
  let sys = unsafe_pair () in
  List.iter
    (fun policy ->
      match Esim.run ~policy sys with
      | Error m -> Alcotest.fail m
      | Ok o ->
          Util.check "history complete" true
            (Distlock_sched.Schedule.is_complete sys o.Esim.history);
          Util.check "history legal" true
            (Distlock_sched.Legality.is_legal sys o.Esim.history);
          Util.check_int "commits" 2 o.Esim.stats.Esim.commits)
    [ Engine.Random 1; Engine.Random 2 ]

let test_unsafe_system_violates () =
  let sys = unsafe_pair () in
  Util.check "some random run violates" true (violation_fraction sys > 0.)

let test_safe_system_never_violates () =
  let sys = safe_pair () in
  Util.check "no violation in 100 runs" true (violation_fraction sys = 0.)

let test_deadlock_handling () =
  (* opposite lock orders: deadlock must be detected and resolved *)
  let db = mkdb [ ("x", 1); ("y", 1) ] in
  let t1 = Builder.two_phase_sequence db ~name:"T1" [ "x"; "y" ] in
  let t2 = Builder.two_phase_sequence db ~name:"T2" [ "y"; "x" ] in
  let sys = System.make db [ t1; t2 ] in
  let saw_deadlock = ref false in
  for seed = 0 to 49 do
    match Esim.run ~policy:(Engine.Random seed) sys with
    | Error m -> Alcotest.fail m
    | Ok o ->
        if o.Esim.stats.Esim.deadlocks > 0 then saw_deadlock := true;
        Util.check "always serializable (2PL)" true o.Esim.serializable;
        Util.check "complete despite aborts" true
          (Distlock_sched.Schedule.is_complete sys o.Esim.history)
  done;
  Util.check "deadlock exercised" true !saw_deadlock

let qcheck_histories_always_legal =
  Util.qtest ~count:40 "simulated histories are legal schedules"
    (Util.gen_with_state (fun st ->
         ( Txn_gen.random_multi_system st ~num_txns:(2 + Random.State.int st 3)
             ~num_entities:5 ~entities_per_txn:2
             ~num_sites:(1 + Random.State.int st 3)
             ~with_updates:true ~cross_prob:0.5 (),
           Random.State.int st 1000 )))
    (fun (sys, seed) ->
      match Esim.run ~policy:(Engine.Random seed) sys with
      | Error _ -> true (* livelock guard tripped: acceptable *)
      | Ok o ->
          Distlock_sched.Legality.is_legal sys o.Esim.history
          && Distlock_sched.Schedule.is_complete sys o.Esim.history)

let qcheck_2pl_workloads_serializable =
  Util.qtest ~count:25 "two-phase workloads never produce violations"
    (Util.gen_with_state (fun st ->
         let db = mkdb (List.init 6 (fun i -> (Printf.sprintf "e%d" i, 1 + (i mod 3)))) in
         Workload.make st ~db ~style:Workload.Two_phase
           ~num_txns:(2 + Random.State.int st 3) ~entities_per_txn:3))
    (fun sys ->
      let s = Esim.measure ~seeds:[ 0; 1; 2; 3; 4 ] sys in
      s.Esim.violations = 0)

(* The instant backend with a constant cross-site delay: the lockstep
   engine's [cross_site_delay]. *)
let delay_scenario delay =
  { Scenario.default with Scenario.latency = Latency.make (Latency.Constant delay) }

let test_cross_site_delay () =
  let sys = safe_pair () in
  let run delay =
    match
      Esim.run ~policy:(Engine.Random 11) ~scenario:(delay_scenario delay) sys
    with
    | Error m -> Alcotest.fail m
    | Ok o -> o
  in
  let fast = run 0 and slow = run 8 in
  Util.check "both complete" true
    (Distlock_sched.Schedule.is_complete sys fast.Esim.history
    && Distlock_sched.Schedule.is_complete sys slow.Esim.history);
  Util.check "latency stretches the run" true
    (slow.Esim.stats.Esim.makespan > fast.Esim.stats.Esim.makespan);
  Util.check "still serializable (2PL)" true slow.Esim.serializable

let qcheck_delay_runs_complete =
  Util.qtest ~count:30 "runs complete and stay legal under message latency"
    (Util.gen_with_state (fun st ->
         ( Txn_gen.random_multi_system st ~num_txns:(2 + Random.State.int st 2)
             ~num_entities:5 ~entities_per_txn:2 ~num_sites:3
             ~cross_prob:0.5 (),
           1 + Random.State.int st 6,
           Random.State.int st 1000 )))
    (fun (sys, delay, seed) ->
      match
        Esim.run ~policy:(Engine.Random seed) ~scenario:(delay_scenario delay) sys
      with
      | Error _ -> true
      | Ok o ->
          Distlock_sched.Legality.is_legal sys o.Esim.history
          && Distlock_sched.Schedule.is_complete sys o.Esim.history)

let test_workload_styles () =
  let rng = Util.rng () in
  let db = mkdb (List.init 6 (fun i -> (Printf.sprintf "e%d" i, 1 + (i mod 2)))) in
  List.iter
    (fun style ->
      let sys = Workload.make rng ~db ~style ~num_txns:4 ~entities_per_txn:2 in
      Util.check "well-formed" true (System.validate sys = []);
      let s = Esim.measure ~seeds:[ 0; 1 ] sys in
      Util.check "runs completed" true (s.Esim.runs = 2))
    [ Workload.Two_phase; Workload.Sequential; Workload.Random_locked 0.4 ]

let test_violation_rate_ordering () =
  (* At this fixed seed, sequential sections violate and 2PL never does. *)
  let rng = Util.rng () in
  let db = mkdb (List.init 5 (fun i -> (Printf.sprintf "e%d" i, 1 + (i mod 2)))) in
  let seq = Workload.make rng ~db ~style:Workload.Sequential ~num_txns:4 ~entities_per_txn:3 in
  let tp = Workload.make rng ~db ~style:Workload.Two_phase ~num_txns:4 ~entities_per_txn:3 in
  let vs = (Esim.measure seq).Esim.violations in
  let vt = (Esim.measure tp).Esim.violations in
  Util.check_int "2PL violations" 0 vt;
  Util.check "sequential violates" true (vs > 0)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "completes, legal" `Quick test_run_completes_and_legal;
          Alcotest.test_case "unsafe violates" `Quick test_unsafe_system_violates;
          Alcotest.test_case "safe never violates" `Quick test_safe_system_never_violates;
          Alcotest.test_case "deadlock handling" `Quick test_deadlock_handling;
          Alcotest.test_case "cross-site delay" `Quick test_cross_site_delay;
          qcheck_histories_always_legal;
          qcheck_delay_runs_complete;
        ] );
      ( "workload",
        [
          Alcotest.test_case "styles" `Quick test_workload_styles;
          Alcotest.test_case "violation ordering" `Quick test_violation_rate_ordering;
          qcheck_2pl_workloads_serializable;
        ] );
    ]
