open Distlock_core
open Distlock_txn

let mkdb entities =
  let db = Database.create () in
  Database.add_all db entities;
  db

(* ------------------------------------------------------------------ *)
(* D(T1,T2) — Definition 1 *)

let test_dgraph_fig3 () =
  let sys = Figures.fig3 () in
  let db = System.db sys in
  let d = Dgraph.build_pair sys in
  Util.check_int "vertices = common entities" 3 (Dgraph.num_vertices d);
  let x = Database.id_exn db "x" and y = Database.id_exn db "y" in
  let z = Database.id_exn db "z" in
  Util.check "x->y" true (Dgraph.mem_arc d x y);
  Util.check "y->x" true (Dgraph.mem_arc d y x);
  Util.check "z isolated" false
    (Dgraph.mem_arc d z x || Dgraph.mem_arc d x z || Dgraph.mem_arc d z y
    || Dgraph.mem_arc d y z);
  Util.check "not strongly connected" false (Dgraph.is_strongly_connected d);
  (* dominators: {x,y} and {z} *)
  let doms = List.map (Dgraph.entity_set d) (Dgraph.dominators d) in
  Util.check_int "two dominators" 2 (List.length doms);
  Util.check "xy dominator" true (List.mem [ x; y ] (List.map (List.sort compare) doms))

let test_dgraph_private_entities_excluded () =
  let db = mkdb [ ("x", 1); ("p", 1); ("q", 2) ] in
  let t1 = Builder.locked_sequence db ~name:"T1" [ "x"; "p" ] in
  let t2 = Builder.locked_sequence db ~name:"T2" [ "x"; "q" ] in
  let sys = System.make db [ t1; t2 ] in
  Util.check_int "only shared entities" 1
    (Dgraph.num_vertices (Dgraph.build_pair sys))

(* ------------------------------------------------------------------ *)
(* Figures: the paper's claims, verified *)

let test_fig1_unsafe () =
  let sys = Figures.fig1 () in
  Util.check "well-formed (strict)" true (System.validate ~strict:true sys = []);
  match Twosite.decide sys with
  | Twosite.Safe -> Alcotest.fail "Fig 1 is unsafe"
  | Twosite.Unsafe cert -> Util.check "certificate" true (Certificate.verify sys cert)

let test_fig2_unsafe () =
  let sys = Figures.fig2 () in
  let t1, t2 = System.pair sys in
  Util.check "totally ordered" true (Txn.is_total t1 && Txn.is_total t2);
  Util.check "centralized" true (List.length (System.sites_used sys) = 1);
  match Twosite.decide sys with
  | Twosite.Safe -> Alcotest.fail "Fig 2 is unsafe"
  | Twosite.Unsafe cert ->
      (* the separating pair is {x or y} vs {z}: check z is separated from x *)
      let db = System.db sys in
      let z = Database.id_exn db "z" in
      let sep e l = List.mem e l in
      Util.check "z on one side alone or with others" true
        (sep z cert.Certificate.below <> sep z cert.Certificate.above)

let test_fig3_lemma1 () =
  let sys = Figures.fig3 () in
  (* unsafe overall *)
  Util.check "unsafe" false (Twosite.is_safe sys);
  (* but admits both safe and unsafe pictures (Lemma 1's point) *)
  let t1, t2 = System.pair sys in
  let safe = ref 0 and unsafe = ref 0 in
  Distlock_order.Linext.iter (Txn.order t1) (fun e1 ->
      let e1 = Array.copy e1 in
      Distlock_order.Linext.iter (Txn.order t2) (fun e2 ->
          let plane = Distlock_geometry.Plane.of_extensions sys e1 (Array.copy e2) in
          if Distlock_geometry.Separation.is_safe plane then incr safe else incr unsafe));
  Util.check "some pictures safe" true (!safe > 0);
  Util.check "some pictures unsafe" true (!unsafe > 0)

let test_fig5_gap () =
  let sys = Figures.fig5 () in
  Util.check "four sites" true (List.length (System.sites_used sys) = 4);
  let d = Dgraph.build_pair sys in
  Util.check "D not strongly connected" false (Dgraph.is_strongly_connected d);
  (* only dominator is {x1,x2} *)
  let db = System.db sys in
  let doms = List.map (Dgraph.entity_set d) (Dgraph.dominators d) in
  Alcotest.(check (list (list int))) "single dominator"
    [ List.sort compare [ Database.id_exn db "x1"; Database.id_exn db "x2" ] ]
    (List.map (List.sort compare) doms);
  (* its closure fails with a cycle, in T1 *)
  List.iter
    (fun dom ->
      match Closure.close sys ~dominator:(Dgraph.entity_set d dom) with
      | Closure.Closed _ -> Alcotest.fail "Fig 5 closure must fail"
      | Closure.Failed (Closure.Would_cycle { txn }) ->
          Util.check_int "the cycle is forced in T1" 0 txn
      | Closure.Failed Closure.Dominator_lost ->
          Alcotest.fail "Fig 5 closure must fail by a cycle")
    (Dgraph.dominators d);
  (* and the system is genuinely safe (Lemma 1 oracle) *)
  Util.check "safe by oracle" true (Util.brute_safe (Brute.safe_by_extensions sys))

(* ------------------------------------------------------------------ *)
(* Theorem 1 *)

let qcheck_theorem1_sound =
  Util.qtest ~count:120 "Theorem 1: strong connectivity implies safety"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_pair_system st ~num_shared:3
           ~num_private:(Random.State.int st 2)
           ~num_sites:(1 + Random.State.int st 4)
           ~cross_prob:(Random.State.float st 1.0) ()))
    (fun sys ->
      (not (Theorem1.guarantees_safe sys))
      || Util.brute_safe (Brute.safe_by_extensions sys))

(* ------------------------------------------------------------------ *)
(* Theorem 2 *)

let qcheck_theorem2_exact =
  Util.qtest ~count:150 "Theorem 2 agrees with the Lemma 1 oracle on two sites"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_pair_system st ~num_shared:(2 + Random.State.int st 3)
           ~num_private:(Random.State.int st 2) ~num_sites:2
           ~cross_prob:(Random.State.float st 1.0) ()))
    (fun sys ->
      let fast = Twosite.is_safe sys in
      let oracle = Util.brute_safe (Brute.safe_by_extensions sys) in
      fast = oracle)

let qcheck_theorem2_vs_schedule_oracle =
  Util.qtest ~count:60 "Theorem 2 agrees with direct schedule enumeration"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_pair_system st ~num_shared:2 ~num_private:0
           ~num_sites:2 ~cross_prob:(Random.State.float st 1.0) ()))
    (fun sys ->
      Twosite.is_safe sys = (Util.brute_safe (Brute.safe_by_schedules sys)))

let qcheck_certificates_verified =
  Util.qtest ~count:120 "unsafe verdicts carry verified certificates"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_pair_system st ~num_shared:(2 + Random.State.int st 3)
           ~num_private:(Random.State.int st 2) ~num_sites:2
           ~cross_prob:(Random.State.float st 1.0) ()))
    (fun sys ->
      match Twosite.decide sys with
      | Twosite.Safe -> true
      | Twosite.Unsafe cert ->
          Certificate.verify sys cert
          && Distlock_order.Poset.is_linear_extension
               (Txn.order (fst (System.pair sys)))
               cert.Certificate.ext1
          && Distlock_order.Poset.is_linear_extension
               (Txn.order (snd (System.pair sys)))
               cert.Certificate.ext2)

let test_twosite_hypothesis_checked () =
  let sys = Figures.fig5 () in
  Alcotest.check_raises "more than two sites rejected"
    (Invalid_argument
       "Twosite.decide: system uses 4 sites (at most two allowed by Theorem 2)")
    (fun () -> ignore (Twosite.decide sys))

let test_single_common_entity_safe () =
  let db = mkdb [ ("x", 1); ("p", 2); ("q", 2) ] in
  let t1 = Builder.locked_sequence db ~name:"T1" [ "x"; "p" ] in
  let t2 = Builder.locked_sequence db ~name:"T2" [ "x"; "q" ] in
  let sys = System.make db [ t1; t2 ] in
  Util.check "one shared entity: safe" true (Twosite.is_safe sys);
  Util.check "oracle agrees" true (Util.brute_safe (Brute.safe_by_schedules sys))

(* ------------------------------------------------------------------ *)
(* Closure machinery *)

let test_closure_fig3 () =
  let sys = Figures.fig3 () in
  let db = System.db sys in
  let x = Database.id_exn db "x" and y = Database.id_exn db "y" in
  (* {x,y} is a dominator; on two sites the closure must succeed *)
  (match Closure.close sys ~dominator:[ x; y ] with
  | Closure.Closed closed ->
      Util.check "closed condition" true (Closure.is_closed closed ~dominator:[ x; y ]);
      Util.check "same steps" true
        (Txn.num_steps (System.txn closed 0) = Txn.num_steps (System.txn sys 0))
  | Closure.Failed _ -> Alcotest.fail "two-site closure must succeed");
  Alcotest.check_raises "non-dominator rejected"
    (Invalid_argument "Closure.close: not a dominator of D(T1,T2)") (fun () ->
      ignore (Closure.close sys ~dominator:[ x ]))

let test_first_unsafe_dominator () =
  let sys = Figures.fig3 () in
  (match Closure.first_unsafe_dominator sys with
  | Some (dom, closed) ->
      Util.check "dominator nonempty" true (dom <> []);
      Util.check "closed" true (Closure.is_closed closed ~dominator:dom)
  | None -> Alcotest.fail "fig3 has a closing dominator");
  Util.check "fig5 has none" true
    (Closure.first_unsafe_dominator (Figures.fig5 ()) = None)

(* Two-site pairs on which the two biased sorts of the certificate
   construction admit no separating path, although the closed orders do:
   the closed [T2] orders two of the dominator's locks against the order
   the first sort gave their unlocks. *)
let test_twosite_certificates_past_the_sorts () =
  List.iter
    (fun s ->
      let rng = Random.State.make [| 77; s |] in
      let ns = 9 + Random.State.int rng 12 in
      let np = Random.State.int rng 2 in
      let sys =
        Txn_gen.random_pair_system rng ~num_shared:ns ~num_private:np
          ~num_sites:2 ~cross_prob:0.3 ()
      in
      let name = Printf.sprintf "seed %d" s in
      Util.check (name ^ " validates") true (System.validate sys = []);
      match Twosite.decide sys with
      | Twosite.Unsafe cert ->
          Util.check (name ^ " certificate verified") true
            (Certificate.verify sys cert)
      | Twosite.Safe -> Alcotest.failf "%s: D is not strongly connected" name)
    [ 2183; 13887; 17850; 28184; 29253; 33103 ]

(* ------------------------------------------------------------------ *)
(* Safety dispatcher *)

let test_safety_dispatch () =
  let module O = Distlock_engine.Outcome in
  (match (Checkers.decide (Figures.fig1 ())).O.verdict with
  | O.Unsafe (Checkers.Certificate _) -> ()
  | _ -> Alcotest.fail "fig1: certificate expected");
  (match (Checkers.decide (Figures.fig5 ())).O.verdict with
  | O.Safe -> ()
  | _ -> Alcotest.fail "fig5: safe expected");
  let db = mkdb [ ("x", 1) ] in
  let t1 = Builder.locked_sequence db ~name:"T1" [ "x" ] in
  let t2 = Builder.locked_sequence db ~name:"T2" [ "x" ] in
  let o = Checkers.decide (System.make db [ t1; t2 ]) in
  match o.O.verdict with
  | O.Safe ->
      Util.check "trivial reason" true
        (o.O.detail = "fewer than two commonly locked entities")
  | _ -> Alcotest.fail "single entity is safe"

let qcheck_safety_multisite_exact =
  Util.qtest ~count:60 "dispatcher agrees with the oracle on up to 4 sites"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_pair_system st ~num_shared:(2 + Random.State.int st 2)
           ~num_private:0
           ~num_sites:(3 + Random.State.int st 2)
           ~cross_prob:(Random.State.float st 1.0) ()))
    (fun sys ->
      let module O = Distlock_engine.Outcome in
      match (Checkers.decide sys).O.verdict with
      | O.Safe -> Util.brute_safe (Brute.safe_by_extensions sys)
      | O.Unsafe ev ->
          let h = Checkers.schedule_of_evidence ev in
          Distlock_sched.Legality.is_legal sys h
          && not (Distlock_sched.Conflict.is_serializable sys h)
      | O.Unknown _ -> true)

(* ------------------------------------------------------------------ *)
(* Policies *)

let test_policy_basics () =
  let db = mkdb [ ("x", 1); ("y", 2) ] in
  let tp = Builder.two_phase_sequence db ~name:"P" [ "x"; "y" ] in
  Util.check "strong 2PL" true (Policy.is_two_phase_strong tp);
  Util.check "strong implies weak" true (Policy.is_two_phase_weak tp);
  let seq = Builder.locked_sequence db ~name:"S" [ "x"; "y" ] in
  Util.check "sequential not strong" false (Policy.is_two_phase_strong seq);
  Util.check "sequential not weak (Ux < Ly)" false (Policy.is_two_phase_weak seq);
  (* a genuinely partial order that is weak but not strong: the two
     sections are concurrent *)
  let weak =
    Builder.make_exn db ~name:"W"
      ~steps:[ ("Lx", `Lock "x"); ("Ux", `Unlock "x"); ("Ly", `Lock "y"); ("Uy", `Unlock "y") ]
      ~arcs:[ ("Lx", "Ux"); ("Ly", "Uy") ]
      ()
  in
  Util.check "weak" true (Policy.is_two_phase_weak weak);
  Util.check "not strong" false (Policy.is_two_phase_strong weak)

let test_weak_2pl_insufficient () =
  (* Two weak-2PL (but not strong) transactions forming an unsafe system:
     the quickstart pair. *)
  let db = mkdb [ ("x", 1); ("z", 2) ] in
  let mk name =
    Builder.make_exn db ~name
      ~steps:[ ("Lx", `Lock "x"); ("Ux", `Unlock "x"); ("Lz", `Lock "z"); ("Uz", `Unlock "z") ]
      ~arcs:[ ("Lx", "Ux"); ("Lz", "Uz") ]
      ()
  in
  let sys = System.make db [ mk "T1"; mk "T2" ] in
  Util.check "both weak 2PL" true (Policy.all_two_phase_weak sys);
  Util.check "neither strong" false (Policy.all_two_phase_strong sys);
  Util.check "yet unsafe" false (Twosite.is_safe sys)

let test_make_two_phase () =
  let db = mkdb [ ("x", 1); ("y", 2) ] in
  let seq = Builder.locked_sequence db ~name:"S" [ "x"; "y" ] in
  (* Ux precedes Ly: cannot be repaired *)
  Util.check "unrepairable" true (Policy.make_two_phase seq = None);
  let loose =
    Builder.make_exn db ~name:"L"
      ~steps:[ ("Lx", `Lock "x"); ("Ux", `Unlock "x"); ("Ly", `Lock "y"); ("Uy", `Unlock "y") ]
      ~arcs:[ ("Lx", "Ux"); ("Ly", "Uy") ]
      ()
  in
  match Policy.make_two_phase loose with
  | None -> Alcotest.fail "repairable"
  | Some fixed ->
      Util.check "now strong" true (Policy.is_two_phase_strong fixed);
      Util.check "still well-formed" true (Validate.check db fixed = [])

let qcheck_strong_2pl_safe =
  Util.qtest ~count:80 "strong 2PL pairs are always safe (Theorem 1 route)"
    (Util.gen_with_state (fun st ->
         let sys =
           Txn_gen.random_pair_system st ~num_shared:(2 + Random.State.int st 3)
             ~num_private:(Random.State.int st 2)
             ~num_sites:(1 + Random.State.int st 4)
             ~cross_prob:(Random.State.float st 1.0) ()
         in
         let db = System.db sys in
         let repair t =
           match Policy.make_two_phase t with Some t -> t | None -> t
         in
         let t1, t2 = System.pair sys in
         (System.make db [ repair t1; repair t2 ], st)))
    (fun (sys, _) ->
      (not (Policy.all_two_phase_strong sys))
      || (Policy.strong_2pl_is_dgraph_complete sys
         && Theorem1.guarantees_safe sys))

(* ------------------------------------------------------------------ *)
(* The paper's lemmas as properties *)

let gen_twosite_with_dominator =
  Util.gen_with_state (fun st ->
      let sys =
        Txn_gen.random_pair_system st ~num_shared:(2 + Random.State.int st 3)
          ~num_private:(Random.State.int st 2) ~num_sites:2
          ~cross_prob:(Random.State.float st 1.0) ()
      in
      let d = Dgraph.build_pair sys in
      let dom =
        Option.map (Dgraph.entity_set d)
          (Distlock_graph.Dominator.find (Dgraph.graph d))
      in
      (sys, dom))

let qcheck_lemma1 =
  Util.qtest ~count:50 "Lemma 1 holds on random systems"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_pair_system st ~num_shared:2 ~num_private:1
           ~num_sites:(1 + Random.State.int st 3)
           ~cross_prob:(Random.State.float st 1.0) ()))
    (fun sys -> Lemmas.lemma1 sys)

let qcheck_lemma2 =
  Util.qtest ~count:80 "Lemma 2 holds on two-site dominators"
    gen_twosite_with_dominator
    (fun (sys, dom) ->
      match dom with None -> true | Some dom -> Lemmas.lemma2 sys ~dominator:dom)

let qcheck_lemma3 =
  Util.qtest ~count:80 "Lemma 3 holds on two-site dominators"
    gen_twosite_with_dominator
    (fun (sys, dom) ->
      match dom with None -> true | Some dom -> Lemmas.lemma3 sys ~dominator:dom)

let qcheck_corollary2 =
  Util.qtest ~count:80 "Corollary 2: closed systems certify unsafety"
    gen_twosite_with_dominator
    (fun (sys, dom) ->
      match dom with
      | None -> true
      | Some dominator -> (
          match Closure.close sys ~dominator with
          | Closure.Failed _ -> false (* two sites: cannot happen *)
          | Closure.Closed closed -> Lemmas.corollary2 closed ~dominator))

let test_lemma_hypotheses_checked () =
  let sys = Figures.fig3 () in
  let db = System.db sys in
  Alcotest.check_raises "non-dominator rejected"
    (Invalid_argument "Lemmas: not a dominator of D(T1,T2)") (fun () ->
      ignore (Lemmas.lemma2 sys ~dominator:[ Database.id_exn db "x" ]))

let () =
  Alcotest.run "core"
    [
      ( "dgraph",
        [
          Alcotest.test_case "fig3 arcs" `Quick test_dgraph_fig3;
          Alcotest.test_case "private excluded" `Quick test_dgraph_private_entities_excluded;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig1 unsafe" `Quick test_fig1_unsafe;
          Alcotest.test_case "fig2 unsafe" `Quick test_fig2_unsafe;
          Alcotest.test_case "fig3 Lemma 1" `Quick test_fig3_lemma1;
          Alcotest.test_case "fig5 gap" `Slow test_fig5_gap;
        ] );
      ("theorem1", [ qcheck_theorem1_sound ]);
      ( "theorem2",
        [
          qcheck_theorem2_exact;
          qcheck_theorem2_vs_schedule_oracle;
          qcheck_certificates_verified;
          Alcotest.test_case "hypothesis check" `Quick test_twosite_hypothesis_checked;
          Alcotest.test_case "single shared entity" `Quick test_single_common_entity_safe;
        ] );
      ( "closure",
        [
          Alcotest.test_case "fig3 closes" `Quick test_closure_fig3;
          Alcotest.test_case "first_unsafe_dominator" `Quick test_first_unsafe_dominator;
          Alcotest.test_case "two-site certificates past the sorts" `Quick
            test_twosite_certificates_past_the_sorts;
        ] );
      ( "safety",
        [
          Alcotest.test_case "dispatch" `Quick test_safety_dispatch;
          qcheck_safety_multisite_exact;
        ] );
      ( "lemmas",
        [
          Alcotest.test_case "hypothesis checks" `Quick test_lemma_hypotheses_checked;
          qcheck_lemma1;
          qcheck_lemma2;
          qcheck_lemma3;
          qcheck_corollary2;
        ] );
      ( "policy",
        [
          Alcotest.test_case "basics" `Quick test_policy_basics;
          Alcotest.test_case "weak 2PL insufficient" `Quick test_weak_2pl_insufficient;
          Alcotest.test_case "make_two_phase" `Quick test_make_two_phase;
          qcheck_strong_2pl_safe;
        ] );
    ]
