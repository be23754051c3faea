open Distlock_core
open Distlock_sat
open Distlock_txn

let sat_formula () =
  Cnf.make ~num_vars:3
    [
      [ Cnf.pos 0; Cnf.pos 1 ];
      [ Cnf.neg 0; Cnf.pos 2 ];
      [ Cnf.pos 1; Cnf.neg 2 ];
    ]

(* Verified unsatisfiable (truth table) and in restricted form. *)
let unsat_formula () =
  Cnf.make ~num_vars:5
    [
      [ Cnf.neg 1; Cnf.pos 0 ];
      [ Cnf.pos 0; Cnf.pos 1 ];
      [ Cnf.neg 2; Cnf.pos 1 ];
      [ Cnf.pos 2; Cnf.pos 4 ];
      [ Cnf.pos 3; Cnf.pos 4 ];
      [ Cnf.neg 0; Cnf.neg 3 ];
      [ Cnf.pos 3; Cnf.neg 4 ];
    ]

let test_formulas_as_expected () =
  Util.check "sat formula restricted" true (Cnf.is_restricted (sat_formula ()));
  Util.check "sat" true (Dpll.solve_brute (sat_formula ()) <> None);
  Util.check "unsat formula restricted" true (Cnf.is_restricted (unsat_formula ()));
  Util.check "unsat" true (Dpll.solve_brute (unsat_formula ()) = None)

let test_gadget_structure () =
  let g = Reduction.encode (sat_formula ()) in
  let sys = Reduction.system g in
  (* every entity on its own site *)
  let db = System.db sys in
  Util.check_int "one entity per site" (Database.num_entities db)
    (Database.num_sites db);
  (* both transactions lock every entity *)
  let t1, t2 = System.pair sys in
  Util.check_int "T1 locks all" (Database.num_entities db)
    (List.length (Txn.locked_entities t1));
  Util.check_int "T2 locks all" (Database.num_entities db)
    (List.length (Txn.locked_entities t2));
  Util.check "well-formed" true (System.validate sys = []);
  (* encode already asserts D = intended gadget; check shape anyway *)
  let d = Reduction.dgraph g in
  Util.check "not strongly connected" false (Dgraph.is_strongly_connected d);
  let intended, _ = Reduction.intended_digraph g in
  Util.check "arcs present" true (Distlock_graph.Digraph.num_arcs intended > 0)

let test_rejects_bad_input () =
  let not_restricted =
    Cnf.make ~num_vars:1 [ [ Cnf.pos 0 ] ]
  in
  Alcotest.check_raises "unit clause rejected"
    (Invalid_argument "Reduction.encode: formula is not in restricted form")
    (fun () -> ignore (Reduction.encode not_restricted))

let test_dominator_assignment_roundtrip () =
  let g = Reduction.encode (sat_formula ()) in
  let a = [| true; false; true |] in
  let dom = Reduction.dominator_of_assignment g a in
  Alcotest.(check (array bool)) "roundtrip" a (Reduction.assignment_of_dominator g dom)

let test_sat_implies_unsafe_with_certificate () =
  let f = sat_formula () in
  let g = Reduction.encode f in
  let model = Option.get (Dpll.solve f) in
  match Reduction.certificate_of_model g model with
  | Error m -> Alcotest.fail m
  | Ok cert ->
      Util.check "verified" true (Certificate.verify (Reduction.system g) cert)

let test_non_model_rejected () =
  let f = sat_formula () in
  let g = Reduction.encode f in
  (* x0=0 x1=0 falsifies clause 1 *)
  match Reduction.certificate_of_model g [| false; false; false |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-model must be rejected"

let test_unsat_no_dominator_closes () =
  let g = Reduction.encode (unsat_formula ()) in
  Util.check "no closure" true (Reduction.decide_unsafe_by_closure g = None)

(* Every dominator's closure outcome, in [Dgraph.dominators] order, as
   one character each: C closed, 0/1 a cycle forced in T1/T2, L the
   dominator lost. *)
let closure_outcomes g =
  let sys = Reduction.system g in
  let d = Dgraph.build_pair sys in
  String.concat ""
    (List.map
       (fun x ->
         match Closure.close d ~dominator:(Dgraph.entity_set d x) with
         | Closure.Closed _ -> "C"
         | Closure.Failed (Closure.Would_cycle { txn }) -> string_of_int txn
         | Closure.Failed Closure.Dominator_lost -> "L")
       (Dgraph.dominators d))

(* Where the outcome is not a cycle in T1. *)
let exceptions outcomes =
  List.filter_map
    (fun i -> if outcomes.[i] = '0' then None else Some (i, outcomes.[i]))
    (List.init (String.length outcomes) Fun.id)

let outcome_list = Alcotest.(list (pair int char))

let test_unsat_closure_outcomes () =
  let outcomes = closure_outcomes (Reduction.encode (unsat_formula ())) in
  Util.check_int "one outcome per dominator" 1024 (String.length outcomes);
  Alcotest.check outcome_list "every closure forces a cycle in T1" []
    (exceptions outcomes)

(* Seeded satisfiable restricted formulas: 4 variables, 5 clauses. *)
let seeded_sat_formula seed =
  let rng = Random.State.make [| seed |] in
  let rec draw () =
    let f = Sat_gen.random_restricted rng ~num_vars:4 ~num_clauses:5 in
    if f.Cnf.clauses = [] || not (Dpll.is_satisfiable f) then draw () else f
  in
  draw ()

let test_sat_closure_outcomes () =
  List.iter
    (fun (seed, closed) ->
      let outcomes = closure_outcomes (Reduction.encode (seeded_sat_formula seed)) in
      Util.check_int "one outcome per dominator" 256 (String.length outcomes);
      Alcotest.check outcome_list
        (Printf.sprintf "seed %d: the dominators that close" seed)
        (List.map (fun i -> (i, 'C')) closed)
        (exceptions outcomes))
    [
      (1, [ 73; 75; 105; 180 ]);
      (2, [ 13; 15; 45; 195 ]);
      ( 3,
        [ 5; 7; 10; 11; 13; 14; 15; 26; 30; 37; 45; 74; 75; 88; 90; 120; 133;
          135; 165 ] );
    ]

(* The sweep's answer is its first closing candidate, entity for entity. *)
let test_sweep_first_dominator () =
  List.iter
    (fun (seed, expected) ->
      let g = Reduction.encode (seeded_sat_formula seed) in
      let db = System.db (Reduction.system g) in
      match Reduction.decide_unsafe_by_closure g with
      | Some (dominator, _) ->
          Alcotest.(check (list string))
            (Printf.sprintf "seed %d" seed)
            (String.split_on_char ' ' expected)
            (List.map (Database.name db) dominator)
      | None -> Alcotest.failf "seed %d: satisfiable, yet no dominator closes" seed)
    [
      ( 1,
        "u ud0 c0_0 ud1 c0_1 ud2 c1_0 ud3 c1_1 ud4 c1_2 ud5 c2_0 ud6 c2_1 ud7 \
         c3_0 ud8 c3_1 ud9 c4_0 ud10 c4_1 ud11 w3_0 w3_1 wn2 w1_0 w0_0 w0_1" );
      ( 2,
        "u ud0 c0_0 ud1 c0_1 ud2 c0_2 ud3 c1_0 ud4 c1_1 ud5 c2_0 ud6 c2_1 ud7 \
         c3_0 ud8 c3_1 ud9 c4_0 ud10 c4_1 ud11 w3_0 w3_1 w2_0 w1_0 w1_1 w0_0 \
         w0_1" );
      ( 3,
        "u ud0 c0_0 ud1 c0_1 ud2 c0_2 ud3 c1_0 ud4 c1_1 ud5 c1_2 ud6 c2_0 ud7 \
         c2_1 ud8 c3_0 ud9 c3_1 ud10 c3_2 ud11 w3_0 w3_1 w2_0 w2_1 w1_0 w1_1 \
         w0_0 w0_1" );
    ]

let test_unsat_randomized_probe () =
  (* Independent evidence on the unsat gadget: random legal schedules of
     the encoded system stay serializable. *)
  let g = Reduction.encode (unsat_formula ()) in
  let rng = Util.rng () in
  Util.check "no violation found in 50 random schedules" true
    (Brute.probe_random rng ~trials:50 (Reduction.system g) = None)

let test_sat_via_safety_end_to_end () =
  Util.check "sat" true (Reduction.sat_via_safety (sat_formula ()));
  Util.check "unsat" false (Reduction.sat_via_safety (unsat_formula ()));
  (* through the normalizer: arbitrary shapes *)
  let xor_unsat =
    Cnf.make ~num_vars:2
      [
        [ Cnf.pos 0; Cnf.pos 1 ]; [ Cnf.neg 0; Cnf.pos 1 ];
        [ Cnf.pos 0; Cnf.neg 1 ]; [ Cnf.neg 0; Cnf.neg 1 ];
      ]
  in
  Util.check "xor-unsat via locking" false (Reduction.sat_via_safety xor_unsat);
  let trivial = Cnf.make ~num_vars:1 [ [ Cnf.pos 0 ] ] in
  Util.check "unit clause via locking" true (Reduction.sat_via_safety trivial);
  let empty_clause = Cnf.make ~num_vars:1 [ [] ] in
  Util.check "empty clause" false (Reduction.sat_via_safety empty_clause)

let qcheck_reduction_equivalence =
  Util.qtest ~count:25 "satisfiable iff encoded system unsafe"
    (Util.gen_with_state (fun st ->
         Sat_gen.random_restricted st ~num_vars:(3 + Random.State.int st 2)
           ~num_clauses:(4 + Random.State.int st 4)))
    (fun f ->
      f.Cnf.clauses = []
      ||
      let sat = Dpll.solve_brute f <> None in
      let g = Reduction.encode f in
      match Reduction.decide_unsafe_by_closure g with
      | Some (dominator, closed) ->
          sat
          && (match
                Certificate.construct ~original:(Reduction.system g) ~closed
                  ~dominator
              with
             | Ok cert -> Certificate.verify (Reduction.system g) cert
             | Error _ -> false)
      | None -> not sat)

let qcheck_model_dominators_close =
  Util.qtest ~count:25 "every model's dominator closes and certifies"
    (Util.gen_with_state (fun st ->
         Sat_gen.random_restricted st ~num_vars:(3 + Random.State.int st 2)
           ~num_clauses:(3 + Random.State.int st 3)))
    (fun f ->
      f.Cnf.clauses = []
      ||
      match Dpll.solve f with
      | None -> true
      | Some model -> (
          let g = Reduction.encode f in
          match Reduction.certificate_of_model g model with
          | Ok cert -> Certificate.verify (Reduction.system g) cert
          | Error _ -> false))

let test_gadget_size_linear () =
  (* The reduction is polynomial: entity count grows linearly with the
     formula (the point of Theorem 3's construction). *)
  let size nv nc =
    let st = Random.State.make [| nv * 31 + nc |] in
    let f = Sat_gen.random_restricted st ~num_vars:nv ~num_clauses:nc in
    if f.Cnf.clauses = [] then 0
    else Reduction.num_entities (Reduction.encode f)
  in
  let s1 = size 4 4 and s2 = size 8 8 in
  Util.check "roughly linear growth" true (s2 < 4 * s1 && s2 > s1)

let () =
  Alcotest.run "reduction"
    [
      ( "gadget",
        [
          Alcotest.test_case "fixtures" `Quick test_formulas_as_expected;
          Alcotest.test_case "structure" `Quick test_gadget_structure;
          Alcotest.test_case "input validation" `Quick test_rejects_bad_input;
          Alcotest.test_case "dominator<->assignment" `Quick test_dominator_assignment_roundtrip;
          Alcotest.test_case "size linear" `Quick test_gadget_size_linear;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "sat => certificate" `Quick test_sat_implies_unsafe_with_certificate;
          Alcotest.test_case "non-model rejected" `Quick test_non_model_rejected;
          Alcotest.test_case "unsat => no closure" `Slow test_unsat_no_dominator_closes;
          Alcotest.test_case "unsat randomized probe" `Quick test_unsat_randomized_probe;
          Alcotest.test_case "unsat closure outcomes" `Quick test_unsat_closure_outcomes;
          Alcotest.test_case "sat closure outcomes" `Quick test_sat_closure_outcomes;
          Alcotest.test_case "sweep's first dominator" `Quick test_sweep_first_dominator;
          Alcotest.test_case "end-to-end sat_via_safety" `Slow test_sat_via_safety_end_to_end;
          qcheck_reduction_equivalence;
          qcheck_model_dominators_close;
        ] );
    ]
