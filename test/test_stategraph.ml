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

(* [m] components, each two locked sequences over one shared entity,
   with [prefix] private triples in front of the first transaction. *)
let sections ?(prefix = 0) m =
  let shared = List.init m (Printf.sprintf "s%d")
  and private_ = List.init prefix (Printf.sprintf "p%d") in
  let db = mkdb (List.map (fun e -> (e, 1)) (private_ @ shared)) in
  let txn k ents = Builder.locked_sequence db ~name:(Printf.sprintf "T%d" k) ents in
  System.make db
    (List.concat
       (List.mapi
          (fun c e ->
            [ txn ((2 * c) + 1) (if c = 0 then private_ @ [ e ] else [ e ]);
              txn ((2 * c) + 2) [ e ] ])
          shared))

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

(* The quickstart pair with a private lock section in each transaction,
   unordered with its other steps: at the root both private locks are
   explored alone, one after the other, in scan order. *)
let private_sections_pair () =
  let db = mkdb [ ("p", 1); ("q", 1); ("x", 1); ("z", 2) ] in
  let mk name priv =
    Builder.make_exn db ~name
      ~steps:
        [ ("Lx", `Lock "x"); ("Ux", `Unlock "x");
          ("Lz", `Lock "z"); ("Uz", `Unlock "z");
          ("L" ^ priv, `Lock priv); ("U" ^ priv, `Unlock priv) ]
      ~arcs:[ ("Lx", "Ux"); ("Lz", "Uz"); ("L" ^ priv, "U" ^ priv) ]
      ()
  in
  System.make db [ mk "T1" "p"; mk "T2" "q" ]

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
  | _ -> Alcotest.fail "quickstart pair must be unsafe with a witness");
  (* An access outside any lock section leaves its entity unguarded, and
     steps on it are never explored alone: T2's unlocked update can land
     inside T1's section, which makes the two spans overlap. *)
  let db = mkdb [ ("x", 1) ] in
  let t1 = Builder.locked_sequence db ~name:"T1" [ "x" ] in
  let t2 = Builder.make_exn db ~name:"T2" ~steps:[ ("x", `Update "x") ] () in
  let sys = System.make db [ t1; t2 ] in
  Util.check "unlocked access: schedules find it unsafe" false
    (Util.brute_safe (Brute.safe_by_schedules sys));
  Util.check "unlocked access: so do states" false
    (Util.brute_safe (Brute.safe_by_states sys))

let test_collapse () =
  (* Two components, each two locked sequences over one shared entity:
     4 * C(12, 6) = 3 696 schedules, but 5^2 + 16 * 5 = 105 states
     (see [test_closed_form_census]), reached by 120 transitions. The
     two components' lock steps commute, so 16 transitions land on a
     known state; the state graph is strictly smaller than the schedule
     tree. *)
  let sys = sections 2 in
  let _, st = Stategraph.census sys in
  Util.check_int "two components collapse to 105 states" 105 st.Stategraph.states;
  Util.check_int "duplicate transitions pruned" 16 st.Stategraph.dup_hits;
  Util.check_int "one complete state per lock order" 4 st.Stategraph.complete;
  Util.check_int "no deadlocks" 0 st.Stategraph.deadlocked;
  match Enumerate.count_legal sys with
  | Enumerate.Exact n ->
      Util.check_int "schedules" 3_696 n;
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
      ("fig1", Figures.fig1 (), [ 663; 150; 3; 0 ], [ 64; 6; 2; 0 ]);
      ("fig2", Figures.fig2 (), [ 80; 7; 3; 0 ], [ 31; 0; 2; 0 ]);
      ("fig5", Figures.fig5 (), [ 211; 186; 2; 14 ], [ 211; 186; 2; 14 ]);
      ("2pl seed 1", two_phase_system 1, [ 797; 456; 24; 70 ], [ 797; 456; 24; 70 ]);
      ("2pl seed 2", two_phase_system 2, [ 1145; 949; 24; 42 ], [ 1145; 949; 24; 42 ]);
      ("2pl seed 3", two_phase_system 3, [ 1202; 1159; 24; 98 ], [ 1202; 1159; 24; 98 ]);
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
    (witness "fig1 census" fig1 (Stategraph.census fig1));
  let priv = private_sections_pair () in
  Alcotest.(check string) "private sections decide"
    "Lp_1 Up_1 Lq_2 Uq_2 Lx_1 Ux_1 Lx_2 Ux_2 Lz_2 Uz_2 Lz_1 Uz_1"
    (witness "private sections decide" priv (Stategraph.decide priv))

(* The per-search arrays are sized by the entities the system touches:
   the same system over a database padded with 2 048 untouched entities
   (declared first, so every entity id moves too) is searched the same
   way. *)
let test_padded_database () =
  let padded sys =
    let pad = List.init 2048 (Printf.sprintf "entity pad%d @ 1\n") in
    match
      Parse.system_of_string (String.concat "" pad ^ Parse.system_to_string sys)
    with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let show sys (outcome, st) =
    let verdict =
      match outcome with
      | Stategraph.Safe -> "safe"
      | Stategraph.Unsafe h -> Schedule.to_string sys h
      | Stategraph.Exhausted _ -> "exhausted"
    in
    Printf.sprintf "%s %d %d %d %d" verdict st.Stategraph.states
      st.Stategraph.dup_hits st.Stategraph.complete st.Stategraph.deadlocked
  in
  List.iter
    (fun (name, sys) ->
      let big = padded sys in
      Alcotest.(check string) (name ^ " decide")
        (show sys (Stategraph.decide sys))
        (show big (Stategraph.decide big));
      Alcotest.(check string) (name ^ " census")
        (show sys (Stategraph.census sys))
        (show big (Stategraph.census big)))
    [ ("fig1", Figures.fig1 ()); ("2pl seed 1", two_phase_system 1) ]

(* Closed forms, with the live counters' advance. Chains of [k]
   lock-update-unlock triples over private entities: every step is
   explored alone, so the graph is one path of 1 + (steps) states, 73
   for chains of 8, 8 and 8 and 82 for 21, 3 and 3.

   [sections m]: each component has five quiescent states (both
   transactions idle, either one done, both done in either order) and
   eight inside a lock section (two per section, four sections). A
   section's update and unlock are explored alone, so at most one
   component is inside a section: 5^m + 8m * 5^(m-1) states. A quiescent
   component offers 2 + 1 + 1 lock moves over its five states and a
   section state one move, so 12m * 5^(m-1) transitions; all but the
   tree edges are duplicate hits. For m = 4: 4 625 states, 6 000
   transitions, 16 complete states. With 21 private triples in front of
   the first transaction, 63 more states lead into the same graph; the
   first key word then holds only those 63 done bits, all set in every
   later state, so only the later words of the 4-word key tell states
   apart. *)
let test_closed_form_census () =
  let census name sys expected =
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
    | _ -> Alcotest.failf "%s must be safe" name);
    Alcotest.(check (list int)) (name ^ ": states, dup_hits, complete, deadlocked")
      expected
      Stategraph.[ st.states; st.dup_hits; st.complete; st.deadlocked ];
    Util.check_int "states counter advance" st.Stategraph.states
      (Distlock_obs.Metric.counter_value states_total - states0);
    Util.check_int "duplicate-hit counter advance" st.Stategraph.dup_hits
      (Distlock_obs.Metric.counter_value dups_total - dups0)
  in
  let chains ks =
    let entities t k = List.init k (Printf.sprintf "e%d_%d" t) in
    let db =
      mkdb
        (List.concat
           (List.mapi (fun t k -> List.map (fun e -> (e, 1)) (entities t k)) ks))
    in
    let chain t k =
      Builder.locked_sequence db ~name:(Printf.sprintf "T%d" (t + 1))
        (entities t k)
    in
    System.make db (List.mapi chain ks)
  in
  census "chains 8/8/8" (chains [ 8; 8; 8 ]) [ 73; 0; 1; 0 ];
  census "chains 21/3/3" (chains [ 21; 3; 3 ]) [ 82; 0; 1; 0 ];
  census "4 sections" (sections 4) [ 4_625; 6_000 - 4_624; 16; 0 ];
  census "4 sections, 21 triples first" (sections ~prefix:21 4)
    [ 4_688; 1_376; 16; 0 ]

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

let gen_multi ~with_updates =
  Util.gen_with_state (fun st ->
      let num_txns = 2 + Random.State.int st 2 in
      Txn_gen.random_multi_system st ~num_txns ~num_entities:4
        ~entities_per_txn:2
        ~num_sites:(1 + Random.State.int st 3)
        ~with_updates
        ~cross_prob:(Random.State.float st 1.0) ())

let gen_system = gen_multi ~with_updates:false

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

(* The reduced search still reaches every complete state of the full
   graph: one per conflict digraph some legal schedule produces, each
   digraph keyed by its arc bits. Systems with more than 10 000
   schedules are discarded, not judged: with updates, a few generated
   systems have tens of millions. *)
let qcheck_complete_states =
  Util.qtest ~count:200 "census complete states ≡ distinct conflict digraphs"
    QCheck2.Gen.(bool >>= fun with_updates -> gen_multi ~with_updates)
    (fun sys ->
      QCheck2.assume
        (match Enumerate.count_legal ~limit:10_000 sys with
        | Enumerate.Exact _ -> true
        | Enumerate.Exhausted _ -> false);
      let n = System.num_txns sys and digraphs = Hashtbl.create 16 in
      Enumerate.iter_legal sys (fun h ->
          let bits = ref 0 in
          Distlock_graph.Digraph.iter_arcs (Conflict.graph sys h) (fun a b ->
              bits := !bits lor (1 lsl ((a * n) + b)));
          Hashtbl.replace digraphs !bits ());
      let _, st = Stategraph.census sys in
      st.Stategraph.complete = Hashtbl.length digraphs)

let () =
  Alcotest.run "stategraph"
    [
      ( "oracle",
        [
          Alcotest.test_case "known verdicts" `Quick test_known_verdicts;
          Alcotest.test_case "memoization collapse" `Quick test_collapse;
          Alcotest.test_case "pinned work" `Quick test_pinned_work;
          Alcotest.test_case "pinned witnesses" `Quick test_pinned_witnesses;
          Alcotest.test_case "padded database" `Quick test_padded_database;
          Alcotest.test_case "closed-form census" `Quick
            test_closed_form_census;
          Alcotest.test_case "typed exhaustion" `Quick test_exhaustion;
          Alcotest.test_case "deadlock" `Quick test_deadlock;
        ] );
      ( "agreement",
        [ qcheck_states_agree; qcheck_deadlock_agrees; qcheck_census_bounds;
          qcheck_complete_states ]
      );
    ]
