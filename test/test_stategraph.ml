(* The memoized state-graph oracle: agreement with the schedule- and
   extension-enumeration oracles on random systems, witness validity,
   memoization collapse, deadlock agreement, and typed exhaustion. *)

open Distlock_core
open Distlock_txn
open Distlock_sched

let mkdb entities =
  let db = Database.create () in
  Database.add_all db entities;
  db

let tiny_pair () =
  let db = mkdb [ ("x", 1) ] in
  let t1 = Builder.locked_sequence db ~name:"T1" [ "x" ] in
  let t2 = Builder.locked_sequence db ~name:"T2" [ "x" ] in
  System.make db [ t1; t2 ]

let disjoint_pair () =
  let db = mkdb [ ("x", 1); ("y", 1) ] in
  let t1 = Builder.locked_sequence db ~name:"T1" [ "x" ] in
  let t2 = Builder.locked_sequence db ~name:"T2" [ "y" ] in
  System.make db [ t1; t2 ]

(* The quickstart unsafe pair: lock sections on two sites in the same
   order, nothing forcing agreement between them. *)
let unsafe_pair () =
  let db = mkdb [ ("x", 1); ("z", 2) ] in
  let mk name =
    Builder.make_exn db ~name
      ~steps:
        [ ("Lx", `Lock "x"); ("Ux", `Unlock "x");
          ("Lz", `Lock "z"); ("Uz", `Unlock "z") ]
      ~arcs:[ ("Lx", "Ux"); ("Lz", "Uz") ]
      ()
  in
  System.make db [ mk "T1"; mk "T2" ]

(* ------------------------------------------------------------------ *)
(* Unit tests *)

let test_known_verdicts () =
  (match Stategraph.decide (tiny_pair ()) with
  | Stategraph.Safe, _ -> ()
  | _ -> Alcotest.fail "tiny pair must be safe");
  (match Stategraph.decide (unsafe_pair ()) with
  | Stategraph.Unsafe h, _ ->
      let sys = unsafe_pair () in
      Util.check "witness legal" true (Legality.is_legal sys h);
      Util.check "witness complete" true (Schedule.is_complete sys h);
      Util.check "witness non-serializable" false
        (Conflict.is_serializable sys h)
  | _ -> Alcotest.fail "quickstart pair must be unsafe with a witness")

let test_collapse () =
  (* Two disjoint 3-step transactions: C(6,3) = 20 schedules but only
     4*4 = 16 done-mask states (no conflict edges ever), root included.
     The state graph must be strictly smaller than the schedule tree. *)
  let sys = disjoint_pair () in
  let _, st = Stategraph.census sys in
  Util.check_int "disjoint pair collapses to 16 states" 16 st.Stategraph.states;
  Util.check "duplicate transitions pruned" true (st.Stategraph.dup_hits > 0);
  Util.check_int "one complete state" 1 st.Stategraph.complete;
  Util.check_int "no deadlocks" 0 st.Stategraph.deadlocked;
  match Enumerate.count_legal sys with
  | Enumerate.Exact n ->
      Util.check "fewer states than schedules" true (st.Stategraph.states < n)
  | Enumerate.Exhausted _ -> Alcotest.fail "tiny census exhausted"

(* Four two-phase transactions over three of five entities on three
   sites: every lock precedes every unlock, and the locks (and the
   unlocks) at one site form a chain in a seeded order. *)
let two_phase_system seed =
  let rng = Random.State.make [| seed |] in
  let names = [| "a"; "b"; "c"; "d"; "e" |] in
  let db = mkdb (Array.to_list (Array.mapi (fun i n -> (n, 1 + (i mod 3))) names)) in
  let txn k =
    let pool = Array.copy names in
    for i = Array.length pool - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = pool.(i) in
      pool.(i) <- pool.(j);
      pool.(j) <- t
    done;
    let ents = Array.to_list (Array.sub pool 0 3) in
    let at_site s =
      List.filter (fun e -> Database.site db (Database.id_exn db e) = s) ents
    in
    Builder.make_exn db
      ~name:(Printf.sprintf "T%d" k)
      ~steps:
        (List.concat_map
           (fun e -> [ ("L" ^ e, `Lock e); ("U" ^ e, `Unlock e) ])
           ents)
      ~arcs:
        (List.concat_map
           (fun a -> List.map (fun b -> ("L" ^ a, "U" ^ b)) ents)
           ents)
      ~chains:
        (List.concat_map
           (fun s ->
             match at_site s with
             | [] -> []
             | es -> [ List.map (( ^ ) "L") es; List.map (( ^ ) "U") es ])
           [ 1; 2; 3 ])
      ()
  in
  System.make db (List.init 4 (fun k -> txn (k + 1)))

(* The work each search does, not only its verdict: a probe that skipped
   states or a successor walk in another order would change these.
   (states, dup_hits, complete, deadlocked) of census, then of decide. *)
let test_pinned_work () =
  let stats (_, st) =
    Stategraph.[ st.states; st.dup_hits; st.complete; st.deadlocked ]
  in
  List.iter
    (fun (name, sys, census, decide) ->
      Alcotest.(check (list int)) (name ^ " census") census
        (stats (Stategraph.census sys));
      Alcotest.(check (list int)) (name ^ " decide") decide
        (stats (Stategraph.decide sys)))
    [
      ("fig1", Figures.fig1 (), [ 1561; 2264; 3; 0 ], [ 88; 54; 2; 0 ]);
      ("fig2", Figures.fig2 (), [ 99; 48; 3; 0 ], [ 31; 0; 2; 0 ]);
      ("fig5", Figures.fig5 (), [ 319; 490; 2; 14 ], [ 319; 490; 2; 14 ]);
      ("2pl seed 1", two_phase_system 1, [ 2057; 2510; 24; 70 ], [ 2057; 2510; 24; 70 ]);
      ("2pl seed 2", two_phase_system 2, [ 4463; 8181; 24; 42 ], [ 4463; 8181; 24; 42 ]);
      ("2pl seed 3", two_phase_system 3, [ 3128; 4877; 24; 98 ], [ 3128; 4877; 24; 98 ]);
    ]

(* The witness schedules are rebuilt from parent pointers; a different
   successor order or parent bookkeeping would change them. *)
let test_pinned_witnesses () =
  let witness name sys (outcome, _) =
    match outcome with
    | Stategraph.Unsafe h -> Schedule.to_string sys h
    | _ -> Alcotest.failf "%s: expected an unsafe witness" name
  in
  let fig1 = Figures.fig1 () and pair = unsafe_pair () in
  let fig1_witness =
    "Lx_1 x_1 Ly_1 y_1 Ux_1 Uy_1 Lw_1 w_1 Uw_1 Ly_2 y_2 Uy_2 Lx_2 x_2 Ux_2 \
     Lz_2 z_2 Lw_2 w_2 Uw_2 Uz_2 Lz_1 z_1 Uz_1"
  in
  Alcotest.(check string) "fig1 decide" fig1_witness
    (witness "fig1 decide" fig1 (Stategraph.decide fig1));
  Alcotest.(check string) "unsafe pair decide"
    "Lx_1 Ux_1 Lx_2 Ux_2 Lz_2 Uz_2 Lz_1 Uz_1"
    (witness "unsafe pair decide" pair (Stategraph.decide pair));
  Alcotest.(check string) "fig1 census" fig1_witness
    (witness "fig1 census" fig1 (Stategraph.census fig1))

(* Closed forms with three-word keys and several table growths. Chains
   of [k] lock-update-unlock triples over private entities reach every
   combination of their progress counters, so the states are the
   product of the (3k + 1)s, the transitions sum each chain's 3k moves
   over the others' counters, and all but the tree edges are duplicate
   hits. Chains of 8, 8 and 8 entities: 25^3 = 15 625 states and 45 000
   transitions. Chains of 21, 3 and 3: the first fills the first key
   word (63 done bits), so most states share it with many others and
   only the later words tell them apart; 64 * 10 * 10 = 6 400 states
   and 6 300 + 5 760 + 5 760 = 17 820 transitions. The live counters
   advance by exactly the same amounts. *)
let test_closed_form_census () =
  let census chains expected =
    let entities t k = List.init k (Printf.sprintf "e%d_%d" t) in
    let db =
      mkdb
        (List.concat
           (List.mapi
              (fun t k -> List.map (fun e -> (e, 1)) (entities t k))
              chains))
    in
    let chain t k =
      Builder.locked_sequence db ~name:(Printf.sprintf "T%d" (t + 1))
        (entities t k)
    in
    let sys = System.make db (List.mapi chain chains) in
    let counter name =
      Distlock_obs.Registry.counter Distlock_obs.Obs.global ~help:"" name
    in
    let states_total = counter "distlock_stategraph_states_total"
    and dups_total = counter "distlock_stategraph_duplicate_hits_total" in
    let states0 = Distlock_obs.Metric.counter_value states_total
    and dups0 = Distlock_obs.Metric.counter_value dups_total in
    let outcome, st = Stategraph.census sys in
    (match outcome with
    | Stategraph.Safe -> ()
    | _ -> Alcotest.fail "private chains must be safe");
    Alcotest.(check (list int)) "states, dup_hits, complete, deadlocked"
      expected
      Stategraph.[ st.states; st.dup_hits; st.complete; st.deadlocked ];
    Util.check_int "states counter advance" st.Stategraph.states
      (Distlock_obs.Metric.counter_value states_total - states0);
    Util.check_int "duplicate-hit counter advance" st.Stategraph.dup_hits
      (Distlock_obs.Metric.counter_value dups_total - dups0)
  in
  census [ 8; 8; 8 ] [ 15_625; 45_000 - 15_624; 1; 0 ];
  census [ 21; 3; 3 ] [ 6_400; 17_820 - 6_399; 1; 0 ]

let test_exhaustion () =
  (match Stategraph.decide ~limit:1 (tiny_pair ()) with
  | Stategraph.Exhausted { visited; limit }, _ ->
      Util.check_int "limit recorded" 1 limit;
      Util.check "visited within limit" true (visited <= 1)
  | _ -> Alcotest.fail "expected exhaustion under limit 1");
  match Brute.safe_by_states ~limit:1 (tiny_pair ()) with
  | Brute.Exhausted { limit = 1; _ } -> ()
  | _ -> Alcotest.fail "Brute.safe_by_states must surface exhaustion"

let test_deadlock () =
  let db = mkdb [ ("x", 1); ("y", 1) ] in
  let t1 = Builder.two_phase_sequence db ~name:"T1" [ "x"; "y" ] in
  let t2 = Builder.two_phase_sequence db ~name:"T2" [ "y"; "x" ] in
  Util.check "opposite lock orders deadlock" true
    (Stategraph.has_deadlock (System.make db [ t1; t2 ]));
  let db2 = mkdb [ ("x", 1); ("y", 1) ] in
  let s1 = Builder.two_phase_sequence db2 ~name:"T1" [ "x"; "y" ] in
  let s2 = Builder.two_phase_sequence db2 ~name:"T2" [ "x"; "y" ] in
  Util.check "same lock order is deadlock-free" false
    (Stategraph.has_deadlock (System.make db2 [ s1; s2 ]))

(* ------------------------------------------------------------------ *)
(* Random agreement: the state-graph oracle must decide exactly what
   schedule enumeration decides (and, on pairs, what Lemma 1 decides),
   and every Unsafe witness must be a legal complete non-serializable
   schedule. *)

let gen_system =
  Util.gen_with_state (fun st ->
      let num_txns = 2 + Random.State.int st 2 in
      Txn_gen.random_multi_system st ~num_txns ~num_entities:4
        ~entities_per_txn:2
        ~num_sites:(1 + Random.State.int st 3)
        ~cross_prob:(Random.State.float st 1.0) ())

let check_witness sys = function
  | Brute.Safe -> true
  | Brute.Unsafe h ->
      Legality.is_legal sys h
      && Schedule.is_complete sys h
      && not (Conflict.is_serializable sys h)
  | Brute.Exhausted { examined; limit } ->
      Alcotest.failf "state oracle exhausted (%d of %d)" examined limit

let qcheck_states_agree =
  Util.qtest ~count:1000 "state graph ≡ schedule enumeration (2-3 txns)"
    gen_system
    (fun sys ->
      let by_states = Brute.safe_by_states sys in
      let agree =
        Util.brute_safe by_states
        = Util.brute_safe (Brute.safe_by_schedules sys)
      in
      let pair_agree =
        System.num_txns sys <> 2
        || Util.brute_safe by_states
           = Util.brute_safe (Brute.safe_by_extensions sys)
      in
      agree && pair_agree && check_witness sys by_states)

let qcheck_deadlock_agrees =
  Util.qtest ~count:300 "state-graph deadlock ≡ enumerated deadlock"
    gen_system
    (fun sys -> Stategraph.has_deadlock sys = Enumerate.has_deadlock sys)

let qcheck_census_bounds =
  Util.qtest ~count:200 "census never visits more states than schedules ≥ 2 txns have prefixes"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_pair_system st ~num_shared:2 ~num_private:1
           ~num_sites:2 ~cross_prob:0.5 ()))
    (fun sys ->
      let _, st = Stategraph.census sys in
      (* Every distinct state is reached by at least one legal prefix, and
         distinct complete states partition the complete schedules. *)
      st.Stategraph.states > 0
      && st.Stategraph.complete >= if Stategraph.has_deadlock sys then 0 else 1)

let () =
  Alcotest.run "stategraph"
    [
      ( "oracle",
        [
          Alcotest.test_case "known verdicts" `Quick test_known_verdicts;
          Alcotest.test_case "memoization collapse" `Quick test_collapse;
          Alcotest.test_case "pinned work" `Quick test_pinned_work;
          Alcotest.test_case "pinned witnesses" `Quick test_pinned_witnesses;
          Alcotest.test_case "closed-form census" `Quick
            test_closed_form_census;
          Alcotest.test_case "typed exhaustion" `Quick test_exhaustion;
          Alcotest.test_case "deadlock" `Quick test_deadlock;
        ] );
      ( "agreement",
        [ qcheck_states_agree; qcheck_deadlock_agrees; qcheck_census_bounds ]
      );
    ]
