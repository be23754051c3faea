open Distlock_core
open Distlock_txn

let mkdb entities =
  let db = Database.create () in
  Database.add_all db entities;
  db

(* ------------------------------------------------------------------ *)
(* D(T1,T2) — Definition 1 *)

(* D's arcs between entity ids. *)
let entity_arcs d =
  let ents = Dgraph.entities d in
  List.map
    (fun (a, b) -> (ents.(a), ents.(b)))
    (Distlock_graph.Digraph.arcs (Dgraph.graph d))

let test_dgraph_fig3 () =
  let sys = Figures.fig3 () in
  let db = System.db sys in
  let d = Dgraph.build_pair sys in
  Util.check_int "vertices = common entities" 3 (Dgraph.num_vertices d);
  let x = Database.id_exn db "x" and y = Database.id_exn db "y" in
  let z = Database.id_exn db "z" in
  let arcs = entity_arcs d in
  Util.check "x->y" true (List.mem (x, y) arcs);
  Util.check "y->x" true (List.mem (y, x) arcs);
  Util.check "z isolated" false
    (List.exists (fun (a, b) -> a = z || b = z) arcs);
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

(* A pair of locked sequences over [names] (T2 in reverse) on a database
   of [n] entities e0 .. e{n-1}, alternating between two sites. *)
let padded_pair n names =
  let db = Database.create () in
  for e = 0 to n - 1 do
    ignore (Database.add db ~name:(Printf.sprintf "e%d" e) ~site:(1 + (e mod 2)))
  done;
  System.make db
    [
      Builder.locked_sequence db ~name:"T1" names;
      Builder.locked_sequence db ~name:"T2" (List.rev names);
    ]

(* The step lookup is sized by the pair's steps: a pair over the last
   two of 2 048 entities costs what a pair over the first two does. *)
let test_dgraph_lookup_sized_by_steps () =
  let bytes names =
    let sys = padded_pair 2048 names in
    ignore (Dgraph.build_pair sys);
    let before = Gc.allocated_bytes () in
    for _ = 1 to 200 do
      ignore (Dgraph.build_pair sys)
    done;
    Gc.allocated_bytes () -. before
  in
  let low = bytes [ "e0"; "e1" ] and high = bytes [ "e2046"; "e2047" ] in
  Util.check
    (Printf.sprintf "e2046/e2047 allocate %.0f bytes, e0/e1 %.0f" high low)
    true
    (high <= 2. *. low)

let parse_exn text =
  match Parse.system_of_string text with
  | Ok sys -> sys
  | Error msg -> Alcotest.fail msg

(* An ill-formed pair: each transaction locks and unlocks x twice, with
   steps listed out of order, so T1's first lock by index and T2's first
   unlock by index are not the first in their partial orders. *)
let two_locks_text =
  {|entity x @ 1
entity z @ 2
txn T1 {
  step Lz lock z
  step Lb lock x
  step Ub unlock x
  step La lock x
  step Ua unlock x
  step Uz unlock z
  arc La -> Ua
  arc Ua -> Lb
  arc Lb -> Ub
  arc Lz -> Uz
}
txn T2 {
  step Ub unlock x
  step La lock x
  step Ua unlock x
  step Lb lock x
  step Lz lock z
  step Uz unlock z
  arc La -> Ua
  arc Ua -> Lb
  arc Lb -> Ub
  arc Lz -> Uz
}
|}

let test_dgraph_first_lock_steps () =
  let sys = parse_exn two_locks_text in
  let d = Dgraph.build_pair sys in
  let s = Dgraph.steps d and t1, t2 = System.pair sys in
  Util.check_int "x and z are vertices" 2 (Dgraph.num_vertices d);
  Array.iteri
    (fun v e ->
      let name = Database.name (System.db sys) e in
      let check what txn find step =
        Util.check_int (name ^ ": " ^ what) (Option.get (find txn e)) step
      in
      check "T1 lock" t1 Txn.lock_of s.Dgraph.lock1.(v);
      check "T1 unlock" t1 Txn.unlock_of s.Dgraph.unlock1.(v);
      check "T2 lock" t2 Txn.lock_of s.Dgraph.lock2.(v);
      check "T2 unlock" t2 Txn.unlock_of s.Dgraph.unlock2.(v))
    s.Dgraph.common

(* ------------------------------------------------------------------ *)
(* The shared D against the reference that derives it for each use *)

let outcome_key = function
  | Closure.Closed closed -> "C " ^ System.fingerprint closed
  | Closure.Failed (Closure.Would_cycle { txn }) -> string_of_int txn
  | Closure.Failed Closure.Dominator_lost -> "L"

let twosite_schedule sys =
  match Twosite.decide sys with
  | Twosite.Safe -> Ok None
  | Twosite.Unsafe cert -> Ok (Some cert.Certificate.schedule)
  | exception Failure msg -> Error msg

let events = Result.map (Option.map Distlock_sched.Schedule.events)

(* Same vertices and steps, arcs in order, dominators in order, closure
   outcome per dominator and, on at most two sites, certificate. *)
let agrees_with_reference sys =
  let d = Dgraph.build_pair sys and r = Reference_closure.build sys in
  let s = Dgraph.steps d and rs = r.Reference_closure.steps in
  let doms = Dgraph.dominators d in
  s.Dgraph.common = rs.common
  && s.lock1 = rs.lock1 && s.unlock1 = rs.unlock1 && s.lock2 = rs.lock2
  && s.unlock2 = rs.unlock2
  && Distlock_graph.Digraph.arcs (Dgraph.graph d)
     = Distlock_graph.Digraph.arcs r.graph
  && List.map Distlock_graph.Bitset.elements doms
     = List.map Distlock_graph.Bitset.elements (Reference_closure.dominators r)
  && List.for_all
       (fun x ->
         let dominator = Dgraph.entity_set d x in
         outcome_key (Closure.close d ~dominator)
         = outcome_key (Reference_closure.close sys ~dominator))
       doms
  && (List.length (System.sites_used sys) > 2
     || events (twosite_schedule sys)
        = events (Reference_closure.twosite_schedule sys))

(* A pair of [k] entities, each on its own site, whose precedences all
   go from a lock to an unlock: each Lx -> Uy is kept with probability
   [p]. Such pairs reach failing closures, which [Txn_gen]'s pairs
   almost never do. *)
let lock_unlock_pair st k p =
  let db = Database.create () in
  for e = 0 to k - 1 do
    ignore (Database.add db ~name:(Printf.sprintf "x%d" e) ~site:(e + 1))
  done;
  let txn name =
    let arcs = ref [] in
    for x = 0 to k - 1 do
      for y = 0 to k - 1 do
        if x = y || Random.State.float st 1.0 < p then
          arcs := ((2 * x), (2 * y) + 1) :: !arcs
      done
    done;
    Txn.make ~name
      ~labels:(Array.init (2 * k) (fun i -> Printf.sprintf "s%d" i))
      ~steps:(Array.init (2 * k) (fun i ->
           if i mod 2 = 0 then Step.lock (i / 2) else Step.unlock (i / 2)))
      (Option.get (Distlock_order.Poset.of_arcs (2 * k) !arcs))
  in
  System.make db [ txn "T1"; txn "T2" ]

let qcheck_reference_random =
  Util.qtest ~count:1000 "reference: random pairs on 1-4 sites"
    (Util.gen_with_state (fun st ->
         if Random.State.bool st then
           Txn_gen.random_pair_system st
             ~num_shared:(1 + Random.State.int st 5)
             ~num_private:(Random.State.int st 3)
             ~num_sites:(1 + Random.State.int st 4)
             ~with_updates:(Random.State.bool st)
             ~cross_prob:(Random.State.float st 1.0) ()
         else
           lock_unlock_pair st (1 + Random.State.int st 4)
             (Random.State.float st 1.0)))
    agrees_with_reference

(* A pair in which T1 never unlocks x, and one in which it updates z
   with no lock, each beside a well-formed T2; the two-lock pair above;
   one whose T1 unlocks x before locking it; two pairs on a padded
   database; the paper's figures; and a Theorem 3 gadget (64
   dominators, some closing, some forcing a cycle). *)
let test_reference_hand_built () =
  let t2 =
    {|txn T2 {
  step Lx lock x
  step Ux unlock x
  step Lz lock z
  step Uz unlock z
  arc Lx -> Ux
  arc Lz -> Uz
}
|}
  in
  let pair t1 = parse_exn ("entity x @ 1\nentity z @ 2\n" ^ t1 ^ t2) in
  List.iteri
    (fun i sys ->
      Util.check (Printf.sprintf "pair %d" i) true (agrees_with_reference sys))
    [
      pair
        {|txn T1 {
  step Lx lock x
  step Lz lock z
  step Uz unlock z
  arc Lz -> Uz
}
|};
      pair
        {|txn T1 {
  step Lx lock x
  step Ux unlock x
  step Wz update z
  arc Lx -> Ux
}
|};
      parse_exn two_locks_text;
      pair
        {|txn T1 {
  step Lx lock x
  step Ux unlock x
  step Lz lock z
  step Uz unlock z
  arc Ux -> Lx
  arc Lz -> Uz
}
|};
      padded_pair 2048 [ "e2047"; "e3"; "e2046"; "e1000" ];
      padded_pair 64 [ "e5"; "e0"; "e63" ];
      Figures.fig1 ();
      Figures.fig2 ();
      Figures.fig3 ();
      Figures.fig5 ();
      Reduction.system
        (Reduction.encode
           Distlock_sat.Cnf.(
             make ~num_vars:3
               [ [ pos 0; pos 1 ]; [ neg 0; pos 2 ]; [ pos 1; neg 2 ] ]));
    ]

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
      match Closure.close d ~dominator:(Dgraph.entity_set d dom) with
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
  let d = Dgraph.build_pair sys in
  (* {x,y} is a dominator; on two sites the closure must succeed *)
  (match Closure.close d ~dominator:[ x; y ] with
  | Closure.Closed closed ->
      Util.check "closed condition" true (Closure.is_closed closed ~dominator:[ x; y ]);
      Util.check "same steps" true
        (Txn.num_steps (System.txn closed 0) = Txn.num_steps (System.txn sys 0))
  | Closure.Failed _ -> Alcotest.fail "two-site closure must succeed");
  Alcotest.check_raises "non-dominator rejected"
    (Invalid_argument "Closure.close: not a dominator of D(T1,T2)") (fun () ->
      ignore (Closure.close d ~dominator:[ x ]))

let test_first_unsafe_dominator () =
  let sys = Figures.fig3 () in
  (match Closure.first_unsafe_dominator (Dgraph.build_pair sys) with
  | Some (dom, closed) ->
      Util.check "dominator nonempty" true (dom <> []);
      Util.check "closed" true (Closure.is_closed closed ~dominator:dom)
  | None -> Alcotest.fail "fig3 has a closing dominator");
  Util.check "fig5 has none" true
    (Closure.first_unsafe_dominator (Dgraph.build_pair (Figures.fig5 ()))
    = None)

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
          match Closure.close (Dgraph.build_pair sys) ~dominator with
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
          Alcotest.test_case "lookup sized by the steps" `Quick
            test_dgraph_lookup_sized_by_steps;
          Alcotest.test_case "first lock and unlock by index" `Quick
            test_dgraph_first_lock_steps;
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
          qcheck_reference_random;
          Alcotest.test_case "reference: ill-formed and padded pairs" `Quick
            test_reference_hand_built;
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
