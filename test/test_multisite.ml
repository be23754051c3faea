open Distlock_core
open Distlock_txn

let mkdb entities =
  let db = Database.create () in
  Database.add_all db entities;
  db

let test_conflict_graph () =
  let db = mkdb [ ("x", 1); ("y", 1); ("z", 1) ] in
  let t1 = Builder.locked_sequence db ~name:"T1" [ "x"; "y" ] in
  let t2 = Builder.locked_sequence db ~name:"T2" [ "y"; "z" ] in
  let t3 = Builder.locked_sequence db ~name:"T3" [ "z" ] in
  let sys = System.make db [ t1; t2; t3 ] in
  let g = Multisite.conflict_graph sys in
  Util.check "T1-T2" true (Distlock_graph.Digraph.mem_arc g 0 1);
  Util.check "symmetric" true (Distlock_graph.Digraph.mem_arc g 1 0);
  Util.check "T2-T3" true (Distlock_graph.Digraph.mem_arc g 1 2);
  Util.check "no T1-T3" false (Distlock_graph.Digraph.mem_arc g 0 2)

let test_simple_cycles () =
  let triangle =
    Distlock_graph.Digraph.of_arcs 3
      [ (0, 1); (1, 0); (1, 2); (2, 1); (0, 2); (2, 0) ]
  in
  (* both orientations of the one undirected triangle *)
  Util.check_int "triangle cycles" 2
    (List.length (Multisite.simple_cycles triangle));
  let path = Distlock_graph.Digraph.of_arcs 3 [ (0, 1); (1, 0); (1, 2); (2, 1) ] in
  Util.check_int "path has none" 0 (List.length (Multisite.simple_cycles path));
  (* K4 has 4 triangles and 3 four-cycles, each in 2 orientations *)
  let k4arcs =
    List.concat_map
      (fun i ->
        List.filter_map (fun j -> if i <> j then Some (i, j) else None)
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let k4 = Distlock_graph.Digraph.of_arcs 4 k4arcs in
  Util.check_int "K4 cycles" 14 (List.length (Multisite.simple_cycles k4))

let test_b_graph_structure () =
  let db = mkdb [ ("x", 1); ("y", 1) ] in
  let t1 = Builder.locked_sequence db ~name:"T1" [ "x" ] in
  let t2 = Builder.locked_sequence db ~name:"T2" [ "x"; "y" ] in
  let t3 = Builder.locked_sequence db ~name:"T3" [ "y" ] in
  let sys = System.make db [ t1; t2; t3 ] in
  let g, names = Multisite.b_graph sys ~i:0 ~j:1 ~k:2 in
  (* nodes: x@{0,1} and y@{1,2} *)
  Util.check_int "two nodes" 2 (Array.length names);
  (* In T2 = Lx x Ux Ly y Uy: Lx precedes Uy, so arc x@01 -> y@12. *)
  Util.check_int "one arc" 1 (Distlock_graph.Digraph.num_arcs g)

(* Proposition 2 against the exhaustive schedule oracle. *)
let gen_small_multi ~sites =
  Util.gen_with_state (fun st ->
      Txn_gen.random_multi_system st ~num_txns:3 ~num_entities:4
        ~entities_per_txn:2 ~num_sites:sites
        ~cross_prob:(Random.State.float st 1.0) ())

let prop2_vs_oracle sys =
  let oracle_pair sub = Util.brute_safe (Brute.safe_by_extensions sub) in
  let p2 =
    Util.prop2 ~pair_decider:oracle_pair sys = Multisite.Decided Multisite.Safe
  in
  let oracle = Util.brute_safe (Brute.safe_by_schedules ~limit:2_000_000 sys) in
  p2 = oracle

let qcheck_prop2_centralized =
  Util.qtest ~count:40 "Proposition 2 matches the oracle (centralized)"
    (gen_small_multi ~sites:1) prop2_vs_oracle

let qcheck_prop2_distributed =
  Util.qtest ~count:40 "Proposition 2 matches the oracle (two sites)"
    (gen_small_multi ~sites:2) prop2_vs_oracle

let qcheck_prop2_three_sites =
  Util.qtest ~count:30 "Proposition 2 matches the oracle (three sites)"
    (gen_small_multi ~sites:3) prop2_vs_oracle

let test_decide_known () =
  (* three transactions in a safe 2PL ring *)
  let db = mkdb [ ("x", 1); ("y", 2); ("z", 3) ] in
  let t1 = Builder.two_phase_sequence db ~name:"T1" [ "x"; "y" ] in
  let t2 = Builder.two_phase_sequence db ~name:"T2" [ "y"; "z" ] in
  let t3 = Builder.two_phase_sequence db ~name:"T3" [ "z"; "x" ] in
  let sys = System.make db [ t1; t2; t3 ] in
  Util.check "2PL ring safe" true
    (Util.prop2 sys = Multisite.Decided Multisite.Safe);
  (* sequential ring is unsafe *)
  let db2 = mkdb [ ("x", 1); ("y", 2); ("z", 3) ] in
  let s1 = Builder.locked_sequence db2 ~name:"T1" [ "x"; "y" ] in
  let s2 = Builder.locked_sequence db2 ~name:"T2" [ "y"; "z" ] in
  let s3 = Builder.locked_sequence db2 ~name:"T3" [ "z"; "x" ] in
  let sys2 = System.make db2 [ s1; s2; s3 ] in
  (match Util.prop2 sys2 with
  | Multisite.Decided (Multisite.Unsafe _) -> ()
  | _ -> Alcotest.fail "sequential ring is unsafe");
  Util.check "oracle agrees" false (Util.brute_safe (Brute.safe_by_schedules sys2))

let test_unsafe_pair_detected () =
  (* an unsafe pair inside a trio is reported as such *)
  let db = mkdb [ ("x", 1); ("z", 2); ("w", 3) ] in
  let mk name =
    Builder.make_exn db ~name
      ~steps:[ ("Lx", `Lock "x"); ("Ux", `Unlock "x"); ("Lz", `Lock "z"); ("Uz", `Unlock "z") ]
      ~arcs:[ ("Lx", "Ux"); ("Lz", "Uz") ]
      ()
  in
  let t3 = Builder.locked_sequence db ~name:"T3" [ "w" ] in
  let sys = System.make db [ mk "T1"; mk "T2"; t3 ] in
  match Util.prop2 sys with
  | Multisite.Decided (Multisite.Unsafe (Multisite.Unsafe_pair (0, 1))) -> ()
  | _ -> Alcotest.fail "expected unsafe pair (0,1)"

let test_disconnected_conflict_graph () =
  (* no common entities between any pair: trivially safe, no cycles *)
  let db = mkdb [ ("x", 1); ("y", 2); ("z", 3) ] in
  let t1 = Builder.locked_sequence db ~name:"T1" [ "x" ] in
  let t2 = Builder.locked_sequence db ~name:"T2" [ "y" ] in
  let t3 = Builder.locked_sequence db ~name:"T3" [ "z" ] in
  let sys = System.make db [ t1; t2; t3 ] in
  Util.check_int "no conflict arcs" 0
    (Distlock_graph.Digraph.num_arcs (Multisite.conflict_graph sys));
  Util.check "safe" true (Util.prop2 sys = Multisite.Decided Multisite.Safe);
  Util.check "oracle agrees" true (Util.brute_safe (Brute.safe_by_schedules sys))

let test_pair_decider_injection () =
  (* a decider that lies "unsafe" must surface as Unsafe_pair *)
  let db = mkdb [ ("x", 1) ] in
  let t1 = Builder.locked_sequence db ~name:"T1" [ "x" ] in
  let t2 = Builder.locked_sequence db ~name:"T2" [ "x" ] in
  let sys = System.make db [ t1; t2 ] in
  (match Util.prop2 ~pair_decider:(fun _ -> false) sys with
  | Multisite.Decided (Multisite.Unsafe (Multisite.Unsafe_pair (0, 1))) -> ()
  | _ -> Alcotest.fail "expected injected unsafe pair");
  match Util.prop2 ~pair_decider:(fun _ -> true) sys with
  | Multisite.Decided Multisite.Safe -> ()
  | _ -> Alcotest.fail "expected safe with permissive decider"

let test_bc_union () =
  (* B_c of a triangle unions three B_ijk's. The sequential ring is unsafe
     because SOME orientation of the conflict cycle has an acyclic B_c;
     for the 2PL ring every orientation's B_c is cyclic (condition (b)
     holds). *)
  let acyclic_orientation sys =
    List.exists
      (fun c -> Distlock_graph.Topo.is_acyclic (Multisite.b_cycle_graph sys c))
      (Multisite.simple_cycles (Multisite.conflict_graph sys))
  in
  let db = mkdb [ ("x", 1); ("y", 2); ("z", 3) ] in
  let s1 = Builder.locked_sequence db ~name:"T1" [ "x"; "y" ] in
  let s2 = Builder.locked_sequence db ~name:"T2" [ "y"; "z" ] in
  let s3 = Builder.locked_sequence db ~name:"T3" [ "z"; "x" ] in
  let seq = System.make db [ s1; s2; s3 ] in
  Util.check "sequential ring: some acyclic B_c" true (acyclic_orientation seq);
  let db2 = mkdb [ ("x", 1); ("y", 2); ("z", 3) ] in
  let p1 = Builder.two_phase_sequence db2 ~name:"T1" [ "x"; "y" ] in
  let p2 = Builder.two_phase_sequence db2 ~name:"T2" [ "y"; "z" ] in
  let p3 = Builder.two_phase_sequence db2 ~name:"T3" [ "z"; "x" ] in
  let tp = System.make db2 [ p1; p2; p3 ] in
  Util.check "2PL ring: every B_c cyclic" false (acyclic_orientation tp)

let test_component_order () =
  (* Two sequential rings on disjoint entities: two components, each
     with an acyclic B_c. Components go in index order, so the engine
     loop and a session both report the ring of T1..T3. *)
  let db =
    mkdb [ ("x", 1); ("y", 2); ("z", 3); ("u", 1); ("v", 2); ("w", 3) ]
  in
  let ring names (a, b, c) =
    List.map2
      (fun name es -> Builder.locked_sequence db ~name es)
      names [ [ a; b ]; [ b; c ]; [ c; a ] ]
  in
  let sys =
    System.make db
      (ring [ "T1"; "T2"; "T3" ] ("x", "y", "z")
      @ ring [ "T4"; "T5"; "T6" ] ("u", "v", "w"))
  in
  let first_ring = function
    | Multisite.Acyclic_bc c -> List.for_all (fun i -> i < 3) c
    | Multisite.Unsafe_pair _ -> false
  in
  (match Util.prop2 sys with
  | Multisite.Decided (Multisite.Unsafe r) ->
      Util.check "loop reports the first ring" true (first_ring r)
  | _ -> Alcotest.fail "expected an acyclic B_c");
  match (Incremental.decide_delta (Incremental.of_system sys)).Incremental.verdict with
  | Incremental.Unsafe r ->
      Util.check "session reports the first ring" true (first_ring r)
  | _ -> Alcotest.fail "expected a session Unsafe"

let () =
  Alcotest.run "multisite"
    [
      ( "structure",
        [
          Alcotest.test_case "conflict graph" `Quick test_conflict_graph;
          Alcotest.test_case "simple cycles" `Quick test_simple_cycles;
          Alcotest.test_case "B_ijk" `Quick test_b_graph_structure;
        ] );
      ( "structure2",
        [
          Alcotest.test_case "disconnected graph" `Quick test_disconnected_conflict_graph;
          Alcotest.test_case "pair decider injection" `Quick test_pair_decider_injection;
          Alcotest.test_case "B_c union" `Quick test_bc_union;
          Alcotest.test_case "component order" `Quick test_component_order;
        ] );
      ( "proposition2",
        [
          Alcotest.test_case "known systems" `Quick test_decide_known;
          Alcotest.test_case "unsafe pair" `Quick test_unsafe_pair_detected;
          qcheck_prop2_centralized;
          qcheck_prop2_distributed;
          qcheck_prop2_three_sites;
        ] );
    ]
