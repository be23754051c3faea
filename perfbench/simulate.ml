(* simulate: seeded runs of the discrete-event lock-manager simulator
   with serializability checking — the only workload that runs
   [lib/sim].

   Systems of 16 transactions x 3 entities over 24 entities on three
   sites, made by [Workload.make] in the two-phase, sequential and
   random-locked styles in turn, each run once under every scenario. Requests rotate through three scenarios: the
   instant backend with no latency or faults; the leased backend with
   uniform 1-4 tick latency, crash rate 0.02 and a 4-tick lease (shorter
   than the 16-tick down time, so leases expire and pass on); the bakery
   backend with the same latency. *)

open Distlock_txn
open Common
module Sim = Distlock_sim
module S = Distlock_sched

let scenarios =
  let latency = Sim.Latency.make (Sim.Latency.Uniform (1, 4)) in
  [|
    Sim.Scenario.default;
    {
      Sim.Scenario.default with
      backend = Sim.Scenario.Leased;
      latency;
      crash_rate = 0.02;
      lease_ttl = Some 4;
    };
    { Sim.Scenario.default with backend = Sim.Scenario.Bakery; latency };
  |]

let styles = [| Sim.Workload.Two_phase; Sim.Workload.Sequential; Sim.Workload.Random_locked 0.5 |]

let generate ~seed ~requests =
  let rng = Random.State.make [| seed; 0x51 |] in
  let db = Txn_gen.random_database rng ~num_entities:24 ~num_sites:3 in
  let systems =
    Array.init ((requests + 2) / 3) (fun k ->
        ( k mod 3 = 0,
          Sim.Workload.make rng ~db ~style:styles.(k mod 3) ~num_txns:16 ~entities_per_txn:3 ))
  in
  Array.init requests (fun i ->
      let two_phase, sys = systems.(i / 3) in
      (sys, two_phase, scenarios.(i mod 3), Random.State.bits rng))

let prepare ~seed ~requests =
  let inputs = generate ~seed ~requests in
  let fresh () =
    let ticks = ref 0 and commits = ref 0 and aborts = ref 0 in
    let expiries = ref 0 and violations = ref 0 and illegal = ref 0 in
    let request i =
      let sys, two_phase, scenario, policy_seed = inputs.(i) in
      let r =
        span "sim.run" (fun () ->
            Sim.Esim.run ~policy:(Sim.Engine.Random policy_seed) ~scenario
              ~check_serializability:true sys)
      in
      fun () ->
        match r with
        | Error _ -> false
        | Ok o ->
            let st = o.Sim.Esim.stats in
            ticks := !ticks + st.Sim.Esim.ticks;
            commits := !commits + st.Sim.Esim.commits;
            aborts := !aborts + st.Sim.Esim.aborts;
            expiries := !expiries + st.Sim.Esim.lease_expiries;
            if not o.Sim.Esim.serializable then incr violations;
            if not o.Sim.Esim.legal then incr illegal;
            let h = o.Sim.Esim.history in
            S.Schedule.is_complete sys h
            && S.Legality.is_legal sys h = o.Sim.Esim.legal
            && S.Conflict.is_serializable sys h = o.Sim.Esim.serializable
            && not (two_phase && Sim.Scenario.fault_free scenario && not o.Sim.Esim.serializable)
    in
    let counts () =
      [ ("requests", requests); ("sim_ticks", !ticks); ("commits", !commits);
        ("aborts", !aborts); ("lease_expiries", !expiries);
        ("violations", !violations); ("illegal_histories", !illegal) ]
    in
    let layers () =
      [ ("sim.ticks", float_of_int !ticks);
        ("sim.abort_frac", float_of_int !aborts /. float_of_int (max 1 (!aborts + !commits)));
        ("sim.lease_expiries", float_of_int !expiries);
        ("sim.violations", float_of_int !violations) ]
    in
    { request; counts; layers }
  in
  { requests; fresh }

let workload = { name = "simulate"; prepare; round_requests = 600; warmup_requests = 60; setups = 15 }
