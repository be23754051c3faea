(* Cross-module invariants: properties tying two or more components
   together, beyond each module's own suite. *)

open Distlock_core
open Distlock_txn

let gen_two_site =
  Util.gen_with_state (fun st ->
      Txn_gen.random_pair_system st ~num_shared:(2 + Random.State.int st 3)
        ~num_private:(Random.State.int st 2) ~num_sites:2
        ~cross_prob:(Random.State.float st 1.0) ())

let relation_size sys =
  let t1, t2 = System.pair sys in
  List.length (Distlock_order.Poset.relation (Txn.order t1))
  + List.length (Distlock_order.Poset.relation (Txn.order t2))

(* Closure is a fixpoint: closing a closed system changes nothing. *)
let qcheck_closure_idempotent =
  Util.qtest ~count:80 "closure is idempotent"
    gen_two_site
    (fun sys ->
      let d = Dgraph.build_pair sys in
      match Distlock_graph.Dominator.find (Dgraph.graph d) with
      | None -> true
      | Some x -> (
          let dominator = Dgraph.entity_set d x in
          match Closure.close d ~dominator with
          | Closure.Failed _ -> false (* impossible on two sites *)
          | Closure.Closed closed -> (
              match Closure.close (Dgraph.build_pair closed) ~dominator with
              | Closure.Closed closed2 ->
                  relation_size closed = relation_size closed2
              | Closure.Failed _ -> false)))

(* D(T1,T2) is monotone in the precedence relations. *)
let qcheck_dgraph_monotone =
  Util.qtest ~count:80 "adding precedences only adds D-arcs"
    (Util.gen_with_state (fun st ->
         let sys =
           Txn_gen.random_pair_system st ~num_shared:3 ~num_private:1
             ~num_sites:3 ~cross_prob:0.3 ()
         in
         (sys, st)))
    (fun (sys, st) ->
      let t1, t2 = System.pair sys in
      (* add one random consistent precedence to T1 *)
      let n = Txn.num_steps t1 in
      let a = Random.State.int st n and b = Random.State.int st n in
      match (if a = b then None else Txn.add_precedences t1 [ (a, b) ]) with
      | None -> true
      | Some t1' ->
          let before = Dgraph.build_pair sys in
          let after =
            Dgraph.build_pair (System.make (System.db sys) [ t1'; t2 ])
          in
          List.for_all
            (fun (u, v) ->
              Distlock_graph.Digraph.mem_arc (Dgraph.graph after) u v)
            (Distlock_graph.Digraph.arcs (Dgraph.graph before)))

(* Multisite on a two-transaction system agrees with the pair decider. *)
let qcheck_multisite_degenerate =
  Util.qtest ~count:60 "Proposition 2 degenerates to pair safety for 2 txns"
    gen_two_site
    (fun sys ->
      let p2 = Util.prop2 sys = Multisite.Decided Multisite.Safe in
      p2 = Twosite.is_safe sys)

(* Analysis reports are internally consistent. *)
let qcheck_analysis_consistent =
  Util.qtest ~count:50 "analysis report is consistent with its parts"
    gen_two_site
    (fun sys ->
      let r = Analysis.pair ~try_repair:false sys in
      let verdict_safe =
        match r.Analysis.decision.Distlock_engine.Outcome.verdict with
        | Distlock_engine.Outcome.Safe -> true
        | _ -> false
      in
      r.Analysis.strongly_connected = Dgraph.is_strongly_connected (Dgraph.build_pair sys)
      && verdict_safe = Twosite.is_safe sys
      && List.length r.Analysis.common_entities = r.Analysis.d_vertices)

(* Certificates extend the *closed* orders too. *)
let qcheck_certificate_extends_closed =
  Util.qtest ~count:60 "certificate extensions linearize the closed system"
    gen_two_site
    (fun sys ->
      let d = Dgraph.build_pair sys in
      if Dgraph.num_vertices d < 2 || Dgraph.is_strongly_connected d then true
      else
        match Distlock_graph.Dominator.find (Dgraph.graph d) with
        | None -> true
        | Some x -> (
            let dominator = Dgraph.entity_set d x in
            match Closure.close d ~dominator with
            | Closure.Failed _ -> false
            | Closure.Closed closed -> (
                match Certificate.construct ~original:sys ~closed ~dominator with
                | Error _ -> false
                | Ok cert ->
                    let c1, c2 = System.pair closed in
                    Distlock_order.Poset.is_linear_extension (Txn.order c1)
                      cert.Certificate.ext1
                    && Distlock_order.Poset.is_linear_extension (Txn.order c2)
                         cert.Certificate.ext2)))

(* Proposition 1 tie-in: a schedule of a totally ordered pair is
   serializable iff its b-vector is constant. *)
let qcheck_b_vector_iff_serializable =
  Util.qtest ~count:60 "constant b-vector iff serializable"
    (Util.gen_with_state (fun st ->
         ( Txn_gen.random_pair_system st ~num_shared:3 ~num_private:1
             ~num_sites:2 ~cross_prob:1.0 (),
           st )))
    (fun (sys, st) ->
      let plane = Distlock_geometry.Plane.make sys in
      match Distlock_sched.Enumerate.random_legal st sys with
      | None -> true
      | Some h ->
          let bv = Distlock_geometry.Plane.b_vector plane h in
          let constant =
            match bv with
            | [] | [ _ ] -> true
            | (_, b0) :: rest -> List.for_all (fun (_, b) -> b = b0) rest
          in
          constant = Distlock_sched.Conflict.is_serializable sys h)

(* Text-format roundtrip preserves semantics on random systems. *)
let qcheck_parse_roundtrip =
  Util.qtest ~count:60 "parse/print roundtrip preserves orders and steps"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_pair_system st ~num_shared:(1 + Random.State.int st 3)
           ~num_private:(Random.State.int st 2)
           ~num_sites:(1 + Random.State.int st 3)
           ~with_updates:(Random.State.bool st)
           ~cross_prob:(Random.State.float st 1.0) ()))
    (fun sys ->
      match Parse.system_of_string (Parse.system_to_string sys) with
      | Error _ -> false
      | Ok sys' ->
          System.num_txns sys = System.num_txns sys'
          && List.for_all
               (fun i ->
                 let t = System.txn sys i and t' = System.txn sys' i in
                 Distlock_order.Poset.equal (Txn.order t) (Txn.order t')
                 && Array.for_all2 Step.equal (Txn.steps t) (Txn.steps t'))
               [ 0; 1 ])

(* All figures roundtrip through the text format with verdicts intact. *)
let test_figures_roundtrip () =
  List.iter
    (fun (name, sys) ->
      match Parse.system_of_string (Parse.system_to_string sys) with
      | Error m -> Alcotest.fail (name ^ ": " ^ m)
      | Ok sys' ->
          let verdict s =
            let module O = Distlock_engine.Outcome in
            match
              (Checkers.decide
                 ~budget:(Distlock_engine.Budget.of_steps 5_000_000)
                 s)
                .O.verdict
            with
            | O.Safe -> true
            | O.Unsafe _ -> false
            | O.Unknown m -> Alcotest.fail m
          in
          Util.check (name ^ " verdict preserved") (verdict sys) (verdict sys'))
    (Figures.all ())

(* Simulator traces are consistent with their outcomes. *)
let qcheck_trace_consistent =
  Util.qtest ~count:40 "traces account for every executed step"
    (Util.gen_with_state (fun st ->
         ( Txn_gen.random_multi_system st ~num_txns:(2 + Random.State.int st 2)
             ~num_entities:5 ~entities_per_txn:2 ~num_sites:2
             ~with_updates:false ~cross_prob:0.5 (),
           Random.State.int st 1000 )))
    (fun (sys, seed) ->
      match Distlock_sim.Esim.run ~policy:(Distlock_sim.Engine.Random seed) sys with
      | Error _ -> true
      | Ok o ->
          let r = Distlock_sim.Trace.analyze sys o.Distlock_sim.Esim.trace in
          let total_executed =
            List.fold_left
              (fun acc m -> acc + m.Distlock_sim.Trace.steps_executed)
              0 r.Distlock_sim.Trace.txns
          in
          let committed =
            List.fold_left
              (fun acc m ->
                acc + m.Distlock_sim.Trace.steps_executed
                - m.Distlock_sim.Trace.wasted_steps)
              0 r.Distlock_sim.Trace.txns
          in
          total_executed = List.length o.Distlock_sim.Esim.trace
          && committed = Distlock_sched.Schedule.length o.Distlock_sim.Esim.history
          && r.Distlock_sim.Trace.makespan <= o.Distlock_sim.Esim.stats.Distlock_sim.Esim.makespan)

(* Repair is a no-op on strongly connected systems. *)
let qcheck_repair_noop_on_safe =
  Util.qtest ~count:40 "repair inserts nothing into strongly connected systems"
    gen_two_site
    (fun sys ->
      (not (Theorem1.guarantees_safe sys))
      ||
      match Repair.make_safe sys with
      | Some (_, []) -> true
      | _ -> false)

let () =
  Alcotest.run "invariants"
    [
      ( "closure",
        [ qcheck_closure_idempotent; qcheck_certificate_extends_closed ] );
      ("dgraph", [ qcheck_dgraph_monotone ]);
      ("multisite", [ qcheck_multisite_degenerate ]);
      ("analysis", [ qcheck_analysis_consistent ]);
      ("geometry", [ qcheck_b_vector_iff_serializable ]);
      ( "format",
        [
          qcheck_parse_roundtrip;
          Alcotest.test_case "figures roundtrip" `Slow test_figures_roundtrip;
        ] );
      ("simulator", [ qcheck_trace_consistent ]);
      ("repair", [ qcheck_repair_noop_on_safe ]);
    ]
