(* Tests for the extension modules: geometric deadlock analysis, the tree
   locking protocol, and safety repair by precedence insertion. *)

open Distlock_core
open Distlock_txn
module E = Distlock_engine

let mkdb entities =
  let db = Database.create () in
  Database.add_all db entities;
  db

(* ------------------------------------------------------------------ *)
(* Deadlock geometry *)

let deadlock_pair () =
  (* T1 locks x then y (two-phase), T2 locks y then x: the classic
     deadlock square. *)
  let db = mkdb [ ("x", 1); ("y", 1) ] in
  let t1 = Builder.two_phase_sequence db ~name:"T1" [ "x"; "y" ] in
  let t2 = Builder.two_phase_sequence db ~name:"T2" [ "y"; "x" ] in
  System.make db [ t1; t2 ]

let no_deadlock_pair () =
  let db = mkdb [ ("x", 1); ("y", 1) ] in
  let t1 = Builder.two_phase_sequence db ~name:"T1" [ "x"; "y" ] in
  let t2 = Builder.two_phase_sequence db ~name:"T2" [ "x"; "y" ] in
  System.make db [ t1; t2 ]

let test_deadlock_known () =
  let open Distlock_geometry in
  let plane = Plane.make (deadlock_pair ()) in
  Util.check "deadlock possible" true (Deadlock.possible plane);
  (match Deadlock.witness_prefix plane with
  | None -> Alcotest.fail "expected witness"
  | Some prefix ->
      (* the prefix must be non-empty and reach a blocked state: both next
         steps are lock steps on held entities *)
      Util.check "non-empty prefix" true (prefix <> []));
  let plane2 = Plane.make (no_deadlock_pair ()) in
  Util.check "ordered locking: none" false (Deadlock.possible plane2);
  Util.check "safe and deadlock-free" true
    (Deadlock.deadlock_free_and_safe plane2)

let test_forbidden_points () =
  let open Distlock_geometry in
  let plane = Plane.make (deadlock_pair ()) in
  (* T1 = Lx Ly x y Ux Uy; T2 = Ly Lx y x Uy Ux.
     After T1's Lx (i=1) and T2's Ly (j=1): no shared holding yet. *)
  Util.check "start free" false (Deadlock.forbidden plane 0 0);
  (* T1 executed Lx Ly (i=2), T2 executed Ly (j=1): y held by both. *)
  Util.check "double hold forbidden" true (Deadlock.forbidden plane 2 1)

let qcheck_deadlock_geometry_vs_oracle =
  Util.qtest ~count:80 "geometric deadlock test matches state exploration"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_pair_system st ~num_shared:(2 + Random.State.int st 3)
           ~num_private:1 ~num_sites:(1 + Random.State.int st 3)
           ~cross_prob:1.0 ()))
    (fun sys ->
      let plane = Distlock_geometry.Plane.make sys in
      Distlock_geometry.Deadlock.possible plane
      = Distlock_sched.Enumerate.has_deadlock sys)

let qcheck_witness_is_blocked_prefix =
  Util.qtest ~count:60 "deadlock witness prefixes really block"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_pair_system st ~num_shared:3 ~num_private:0
           ~num_sites:2 ~cross_prob:1.0 ()))
    (fun sys ->
      let plane = Distlock_geometry.Plane.make sys in
      match Distlock_geometry.Deadlock.witness_prefix plane with
      | None -> true
      | Some prefix ->
          (* replay: the prefix is a legal execution; afterwards every
             next step of both transactions must be a blocked lock *)
          let holder = Hashtbl.create 8 in
          let progress = [| 0; 0 |] in
          let exts = [| Distlock_geometry.Plane.extension plane 0;
                        Distlock_geometry.Plane.extension plane 1 |] in
          let legal = ref true in
          List.iter
            (fun (ti, s) ->
              let txn = System.txn sys ti in
              if exts.(ti).(progress.(ti)) <> s then legal := false;
              progress.(ti) <- progress.(ti) + 1;
              let step = Txn.step txn s in
              match step.Step.action with
              | Step.Lock ->
                  if Hashtbl.mem holder step.Step.entity then legal := false
                  else Hashtbl.replace holder step.Step.entity ti
              | Step.Unlock -> Hashtbl.remove holder step.Step.entity
              | Step.Update -> ())
            prefix;
          let blocked ti =
            progress.(ti) < Array.length exts.(ti)
            &&
            let s = exts.(ti).(progress.(ti)) in
            let step = Txn.step (System.txn sys ti) s in
            step.Step.action = Step.Lock
            && (match Hashtbl.find_opt holder step.Step.entity with
               | Some h -> h <> ti
               | None -> false)
          in
          !legal && blocked 0 && blocked 1)

(* ------------------------------------------------------------------ *)
(* Tree protocol *)

let forest_db () =
  (*        a
           / \
          b   c
          |
          d        (e is a separate root) *)
  let db =
    mkdb [ ("a", 1); ("b", 1); ("c", 2); ("d", 2); ("e", 3) ]
  in
  let f =
    Tree_policy.forest_exn db [ ("b", "a"); ("c", "a"); ("d", "b") ]
  in
  (db, f)

let test_forest_errors () =
  let db = mkdb [ ("a", 1); ("b", 1) ] in
  (match Tree_policy.forest db [ ("b", "a"); ("b", "a") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate child accepted");
  (match Tree_policy.forest db [ ("a", "b"); ("b", "a") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cycle accepted");
  match Tree_policy.forest db [ ("z", "a") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown entity accepted"

let test_protocol_known () =
  let db, f = forest_db () in
  (* good: La Lb Ua Ld Ub Ud — locks a, then b under a, then d under b;
     not two-phase (Ua before Ld). *)
  let good =
    Builder.total db ~name:"G"
      [ `Lock "a"; `Lock "b"; `Unlock "a"; `Lock "d"; `Unlock "b"; `Unlock "d" ]
  in
  Util.check "follows" true (Tree_policy.follows f good);
  Util.check "not two-phase" false (Policy.is_two_phase_strong good);
  Util.check "first is a" true
    (Tree_policy.first_entity f good = Database.find db "a");
  (* bad: lock d after parent b released *)
  let bad =
    Builder.total db ~name:"B"
      [ `Lock "b"; `Unlock "b"; `Lock "d"; `Unlock "d" ]
  in
  Util.check "parent released" false (Tree_policy.follows f bad);
  Util.check "violations reported" true (Tree_policy.violations f bad <> []);
  (* bad: two unrelated first locks (concurrent) *)
  let concurrent_firsts =
    Builder.make_exn db ~name:"C"
      ~steps:[ ("La", `Lock "a"); ("Ua", `Unlock "a");
               ("Le", `Lock "e"); ("Ue", `Unlock "e") ]
      ~arcs:[ ("La", "Ua"); ("Le", "Ue") ]
      ()
  in
  Util.check "no unique first" false (Tree_policy.follows f concurrent_firsts);
  (* empty transaction trivially follows *)
  let empty = Builder.make_exn db ~name:"E" ~steps:[] () in
  Util.check "empty follows" true (Tree_policy.follows f empty)

let qcheck_generator_follows =
  Util.qtest ~count:80 "generated protocol transactions follow the protocol"
    (Util.gen_with_state (fun st ->
         let n = 4 + Random.State.int st 4 in
         let db =
           Txn_gen.random_database st ~num_entities:n
             ~num_sites:(1 + Random.State.int st 3)
         in
         let pairs =
           List.filter_map
             (fun i ->
               if i > 0 && Random.State.float st 1.0 < 0.7 then
                 Some (Database.name db i, Database.name db (Random.State.int st i))
               else None)
             (List.init n Fun.id)
         in
         let f = Tree_policy.forest_exn db pairs in
         let t =
           Tree_policy.random_protocol_txn st db f ~name:"T"
             ~cross_prob:(Random.State.float st 1.0) ()
         in
         (db, f, t)))
    (fun (db, f, t) -> Tree_policy.follows f t && Validate.check db t = [])

let qcheck_tree_protocol_safe =
  Util.qtest ~count:60 "tree-protocol pairs are safe"
    (Util.gen_with_state (fun st ->
         let n = 4 + Random.State.int st 3 in
         let db =
           Txn_gen.random_database st ~num_entities:n
             ~num_sites:(1 + Random.State.int st 3)
         in
         let pairs =
           List.filter_map
             (fun i ->
               if i > 0 && Random.State.float st 1.0 < 0.7 then
                 Some (Database.name db i, Database.name db (Random.State.int st i))
               else None)
             (List.init n Fun.id)
         in
         let f = Tree_policy.forest_exn db pairs in
         let mk name =
           Tree_policy.random_protocol_txn st db f ~name
             ~cross_prob:(Random.State.float st 1.0) ()
         in
         System.make db [ mk "T1"; mk "T2" ]))
    (fun sys ->
      match Brute.safe_by_extensions ~limit:1_000_000 sys with
      | Brute.Safe -> true
      | Brute.Unsafe _ -> false
      | Brute.Exhausted _ -> true)

(* ------------------------------------------------------------------ *)
(* Repair *)

let test_repair_quickstart () =
  let db = mkdb [ ("x", 1); ("z", 2) ] in
  let mk name =
    Builder.make_exn db ~name
      ~steps:[ ("Lx", `Lock "x"); ("Ux", `Unlock "x");
               ("Lz", `Lock "z"); ("Uz", `Unlock "z") ]
      ~arcs:[ ("Lx", "Ux"); ("Lz", "Uz") ]
      ()
  in
  let sys = System.make db [ mk "T1"; mk "T2" ] in
  Util.check "unsafe before" false (Twosite.is_safe sys);
  match Repair.make_safe sys with
  | None -> Alcotest.fail "expected repair"
  | Some (sys', insertions) ->
      Util.check "insertions made" true (insertions <> []);
      Util.check "safe after" true (Twosite.is_safe sys');
      Util.check "steps preserved" true
        (Txn.num_steps (System.txn sys' 0) = Txn.num_steps (System.txn sys 0));
      Util.check "loss positive" true
        (Repair.concurrency_loss ~before:sys ~after:sys' > 0)

let test_repair_total_orders_unrepairable () =
  (* nothing to insert into totally ordered transactions *)
  let sys = Figures.fig2 () in
  Util.check "unsafe and total" false (Twosite.is_safe sys);
  Util.check "no repair possible" true (Repair.make_safe sys = None)

let test_repair_already_safe () =
  let db = mkdb [ ("x", 1); ("y", 2) ] in
  let t1 = Builder.two_phase_sequence db ~name:"T1" [ "x"; "y" ] in
  let t2 = Builder.two_phase_sequence db ~name:"T2" [ "x"; "y" ] in
  let sys = System.make db [ t1; t2 ] in
  match Repair.make_safe sys with
  | Some (_, []) -> ()
  | Some (_, _ :: _) -> Alcotest.fail "no insertions expected"
  | None -> Alcotest.fail "safe system trivially repaired"

let qcheck_repair_sound =
  Util.qtest ~count:60 "repaired systems are safe and preserve the original order"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_pair_system st ~num_shared:(2 + Random.State.int st 3)
           ~num_private:1 ~num_sites:(2 + Random.State.int st 3)
           ~cross_prob:(Random.State.float st 0.5) ()))
    (fun sys ->
      match Repair.make_safe sys with
      | None -> true
      | Some (sys', _) ->
          Theorem1.guarantees_safe sys'
          && System.validate sys' = []
          &&
          (* all original precedences preserved *)
          let preserved i =
            let t = System.txn sys i and t' = System.txn sys' i in
            List.for_all
              (fun (a, b) -> Txn.precedes t' a b)
              (Distlock_order.Poset.relation (Txn.order t))
          in
          preserved 0 && preserved 1)

(* ------------------------------------------------------------------ *)
(* Advisor *)

let test_advisor_unsafe_pair () =
  let db = mkdb [ ("x", 1); ("z", 2) ] in
  let mk name =
    Builder.make_exn db ~name
      ~steps:[ ("Lx", `Lock "x"); ("Ux", `Unlock "x");
               ("Lz", `Lock "z"); ("Uz", `Unlock "z") ]
      ~arcs:[ ("Lx", "Ux"); ("Lz", "Uz") ]
      ()
  in
  let sys = System.make db [ mk "T1"; mk "T2" ] in
  let options = Advisor.advise sys in
  Util.check "options offered" true (List.length options >= 2);
  List.iter
    (fun o ->
      Util.check
        (Advisor.strategy_name o.Advisor.strategy ^ " verified safe")
        true
        (match (Checkers.decide o.Advisor.system).E.Outcome.verdict with
        | E.Outcome.Safe -> true
        | _ -> false);
      Util.check "loss positive" true (o.Advisor.concurrency_loss > 0))
    options;
  (* sorted by cost *)
  let costs = List.map (fun o -> o.Advisor.concurrency_loss) options in
  Util.check "sorted" true (List.sort compare costs = costs)

let test_advisor_unrepairable_totals () =
  (* fig2 is totally ordered and unsafe: no strategy applies *)
  let sys = Figures.fig2 () in
  Util.check "no options" true (Advisor.advise sys = [])

let qcheck_advisor_options_safe =
  Util.qtest ~count:40 "every advisor option is safe and order-preserving"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_pair_system st ~num_shared:(2 + Random.State.int st 2)
           ~num_private:1 ~num_sites:2
           ~cross_prob:(Random.State.float st 0.5) ()))
    (fun sys ->
      List.for_all
        (fun o ->
          (match (Checkers.decide o.Advisor.system).E.Outcome.verdict with
          | E.Outcome.Safe -> true
          | _ -> false)
          &&
          let preserved i =
            let t = System.txn sys i and t' = System.txn o.Advisor.system i in
            List.for_all
              (fun (a, b) -> Txn.precedes t' a b)
              (Distlock_order.Poset.relation (Txn.order t))
          in
          preserved 0 && preserved 1)
        (Advisor.advise sys))

let () =
  Alcotest.run "extensions"
    [
      ( "deadlock",
        [
          Alcotest.test_case "known pairs" `Quick test_deadlock_known;
          Alcotest.test_case "forbidden points" `Quick test_forbidden_points;
          qcheck_deadlock_geometry_vs_oracle;
          qcheck_witness_is_blocked_prefix;
        ] );
      ( "tree protocol",
        [
          Alcotest.test_case "forest validation" `Quick test_forest_errors;
          Alcotest.test_case "known transactions" `Quick test_protocol_known;
          qcheck_generator_follows;
          qcheck_tree_protocol_safe;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "unsafe pair" `Quick test_advisor_unsafe_pair;
          Alcotest.test_case "unrepairable totals" `Quick test_advisor_unrepairable_totals;
          qcheck_advisor_options_safe;
        ] );
      ( "repair",
        [
          Alcotest.test_case "quickstart pair" `Quick test_repair_quickstart;
          Alcotest.test_case "total orders" `Quick test_repair_total_orders_unrepairable;
          Alcotest.test_case "already safe" `Quick test_repair_already_safe;
          qcheck_repair_sound;
        ] );
    ]
