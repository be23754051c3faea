open Distlock_graph

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Util.check "initially empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Util.check "mem 0" true (Bitset.mem s 0);
  Util.check "mem 63" true (Bitset.mem s 63);
  Util.check "mem 64" true (Bitset.mem s 64);
  Util.check "not mem 1" false (Bitset.mem s 1);
  Util.check_int "cardinal" 4 (Bitset.cardinal s);
  Bitset.remove s 63;
  Util.check "removed" false (Bitset.mem s 63);
  Util.check_int "elements" 3 (List.length (Bitset.elements s));
  Alcotest.(check (list int)) "elements sorted" [ 0; 64; 99 ] (Bitset.elements s)

let test_bitset_ops () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] in
  let b = Bitset.of_list 10 [ 3; 4 ] in
  let u = Bitset.copy a in
  Bitset.union_into ~dst:u b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.elements u);
  let i = Bitset.copy a in
  Bitset.inter_into ~dst:i b;
  Alcotest.(check (list int)) "inter" [ 3 ] (Bitset.elements i);
  Util.check "subset" true (Bitset.subset i a);
  Util.check "not subset" false (Bitset.subset a b);
  Util.check "disjoint" true
    (Bitset.disjoint (Bitset.of_list 10 [ 0 ]) (Bitset.of_list 10 [ 9 ]));
  let c = Bitset.complement a in
  Util.check_int "complement card" 7 (Bitset.cardinal c);
  Util.check "full" true (Bitset.equal (Bitset.full 5) (Bitset.complement (Bitset.create 5)))

let test_bitset_bounds () =
  let s = Bitset.create 4 in
  Alcotest.check_raises "oob add" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add s 4);
  Alcotest.check_raises "oob mem" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem s (-1)))

(* [iter] yields exactly the members, ascending, at the capacities
   around word boundaries; every other set also holds the last bit of
   each word (62, 125, 188), the sign bit of a 63-bit word. *)
let gen_members =
  Util.gen_with_state (fun st ->
      let caps = [| 0; 1; 62; 63; 64; 126; 127; 200 |] in
      let cap = caps.(Random.State.int st (Array.length caps)) in
      let density = Random.State.float st 1.0 in
      let last_bits = Random.State.bool st in
      let members =
        List.filter
          (fun i ->
            (last_bits && i mod Sys.int_size = Sys.int_size - 1)
            || Random.State.float st 1.0 < density)
          (List.init cap Fun.id)
      in
      (cap, members))

let qcheck_bitset_iter =
  Util.qtest ~count:500 "iter yields the members in ascending order"
    gen_members
    (fun (cap, members) ->
      let s = Bitset.of_list cap members in
      let seen = ref [] in
      Bitset.iter (fun i -> seen := i :: !seen) s;
      List.rev !seen = members)

let qcheck_bitset_count =
  Util.qtest ~count:500 "cardinal and count_from count the members"
    gen_members
    (fun (cap, members) ->
      let s = Bitset.of_list cap members in
      Bitset.cardinal s = List.length members
      && List.for_all
           (fun i ->
             Bitset.count_from s i
             = List.length (List.filter (fun m -> m >= i) members))
           (List.init (cap + 2) (fun i -> i - 1)))

(* ------------------------------------------------------------------ *)
(* Digraph *)

let test_digraph_basic () =
  let g = Digraph.of_arcs 4 [ (0, 1); (1, 2); (2, 3); (0, 1) ] in
  Util.check_int "n" 4 (Digraph.n g);
  Util.check_int "arcs deduped" 3 (Digraph.num_arcs g);
  Util.check "mem" true (Digraph.mem_arc g 0 1);
  Util.check "not mem" false (Digraph.mem_arc g 1 0);
  Alcotest.(check (list int)) "succ" [ 2 ] (Digraph.succ g 1);
  Alcotest.(check (list int)) "pred" [ 1 ] (Digraph.pred g 2);
  Util.check_int "out_degree" 1 (Digraph.out_degree g 0);
  Util.check_int "in_degree 0" 0 (Digraph.in_degree g 0)

let test_digraph_transpose () =
  let g = Digraph.of_arcs 3 [ (0, 1); (1, 2) ] in
  let t = Digraph.transpose g in
  Util.check "transposed arc" true (Digraph.mem_arc t 1 0);
  Util.check "double transpose" true (Digraph.equal g (Digraph.transpose t))

let test_digraph_union_induced () =
  let a = Digraph.of_arcs 4 [ (0, 1) ] in
  let b = Digraph.of_arcs 4 [ (1, 2) ] in
  let u = Digraph.union a b in
  Util.check_int "union arcs" 2 (Digraph.num_arcs u);
  let sub, back = Digraph.induced u (Bitset.of_list 4 [ 1; 2 ]) in
  Util.check_int "induced size" 2 (Digraph.n sub);
  Util.check_int "induced arcs" 1 (Digraph.num_arcs sub);
  Alcotest.(check (array int)) "back map" [| 1; 2 |] back

(* ------------------------------------------------------------------ *)
(* SCC *)

let naive_scc_same g u v =
  let r1 = Reach.from g u and r2 = Reach.from g v in
  Bitset.mem r1 v && Bitset.mem r2 u

let test_scc_known () =
  let cycle = Digraph.of_arcs 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Util.check "cycle strongly connected" true (Scc.is_strongly_connected cycle);
  let path = Digraph.of_arcs 3 [ (0, 1); (1, 2) ] in
  Util.check "path not" false (Scc.is_strongly_connected path);
  Util.check_int "path comps" 3 (Scc.compute path).Scc.count;
  let two =
    Digraph.of_arcs 5 [ (0, 1); (1, 0); (2, 3); (3, 4); (4, 2); (1, 2) ]
  in
  let r = Scc.compute two in
  Util.check_int "two comps" 2 r.Scc.count;
  Util.check "0,1 together" true (r.Scc.component.(0) = r.Scc.component.(1));
  Util.check "2,3,4 together" true
    (r.Scc.component.(2) = r.Scc.component.(3)
    && r.Scc.component.(3) = r.Scc.component.(4));
  (* condensation numbering: arc a -> b implies a > b *)
  let cond = Scc.condensation two r in
  Digraph.iter_arcs cond (fun a b -> Util.check "reverse topo" true (a > b))

let test_scc_empty_single () =
  Util.check "empty strongly connected" true
    (Scc.is_strongly_connected (Digraph.create 0));
  Util.check "single vertex" true (Scc.is_strongly_connected (Digraph.create 1));
  Util.check "two isolated" false (Scc.is_strongly_connected (Digraph.create 2))

let test_scc_deep_chain () =
  (* Stack-safety: a 100k chain must not overflow. *)
  let n = 100_000 in
  let g = Digraph.of_arcs n (List.init (n - 1) (fun i -> (i, i + 1))) in
  Util.check_int "chain comps" n (Scc.compute g).Scc.count

let qcheck_scc =
  Util.qtest ~count:60 "SCC agrees with naive mutual reachability"
    (Util.gen_with_state (fun st ->
         let n = 2 + Random.State.int st 10 in
         (n, Util.random_digraph_arcs st n 0.25)))
    (fun (n, arcs) ->
      let g = Digraph.of_arcs n arcs in
      let r = Scc.compute g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let same = r.Scc.component.(u) = r.Scc.component.(v) in
          if same <> naive_scc_same g u v then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Topo *)

let test_topo_basic () =
  let g = Digraph.of_arcs 4 [ (3, 1); (1, 0); (0, 2) ] in
  (match Topo.sort g with
  | None -> Alcotest.fail "expected DAG"
  | Some o -> Util.check "valid order" true (Topo.is_topological_order g o));
  let cyc = Digraph.of_arcs 2 [ (0, 1); (1, 0) ] in
  Util.check "cycle has no sort" true (Topo.sort cyc = None);
  Util.check "acyclic" false (Topo.is_acyclic cyc)

let test_topo_priority () =
  (* 0 and 1 both available; priority prefers 1. *)
  let g = Digraph.of_arcs 3 [ (0, 2); (1, 2) ] in
  match Topo.sort_with_priority g ~priority:(fun v -> if v = 1 then 0 else 5) with
  | Some o -> Alcotest.(check (array int)) "1 first" [| 1; 0; 2 |] o
  | None -> Alcotest.fail "expected DAG"

let test_find_cycle () =
  let g = Digraph.of_arcs 5 [ (0, 1); (1, 2); (2, 3); (3, 1); (3, 4) ] in
  match Topo.find_cycle g with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
      Util.check "cycle length" true (List.length cycle >= 2);
      (* each consecutive pair an arc, and last -> first *)
      let arr = Array.of_list cycle in
      let k = Array.length arr in
      for i = 0 to k - 1 do
        Util.check "cycle arc" true (Digraph.mem_arc g arr.(i) arr.((i + 1) mod k))
      done

let qcheck_topo =
  Util.qtest ~count:80 "topological sort of random DAG is valid"
    (Util.gen_with_state (fun st ->
         let n = 1 + Random.State.int st 15 in
         (n, Util.random_dag_arcs st n 0.3)))
    (fun (n, arcs) ->
      let g = Digraph.of_arcs n arcs in
      match Topo.sort g with
      | None -> false
      | Some o -> Topo.is_topological_order g o)

(* ------------------------------------------------------------------ *)
(* Reach *)

let naive_closure g =
  (* Floyd-Warshall-style boolean closure. *)
  let n = Digraph.n g in
  let m = Array.make_matrix n n false in
  Digraph.iter_arcs g (fun u v -> m.(u).(v) <- true);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if m.(i).(k) && m.(k).(j) then m.(i).(j) <- true
      done
    done
  done;
  m

let qcheck_closure =
  Util.qtest ~count:60 "closure agrees with Floyd-Warshall"
    (Util.gen_with_state (fun st ->
         let n = 1 + Random.State.int st 10 in
         (n, Util.random_digraph_arcs st n 0.2)))
    (fun (n, arcs) ->
      let g = Digraph.of_arcs n arcs in
      let c = Reach.closure g in
      let m = naive_closure g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Bitset.mem c.(u) v <> m.(u).(v) then ok := false
        done
      done;
      !ok)

let test_transitive_reduction () =
  let g = Digraph.of_arcs 3 [ (0, 1); (1, 2); (0, 2) ] in
  let r = Reach.transitive_reduction g in
  Util.check_int "redundant arc dropped" 2 (Digraph.num_arcs r);
  Util.check "0->2 gone" false (Digraph.mem_arc r 0 2)

let qcheck_reduction =
  Util.qtest ~count:60 "transitive reduction preserves reachability"
    (Util.gen_with_state (fun st ->
         let n = 1 + Random.State.int st 10 in
         (n, Util.random_dag_arcs st n 0.4)))
    (fun (n, arcs) ->
      let g = Digraph.of_arcs n arcs in
      let r = Reach.transitive_reduction g in
      let cg = Reach.closure g and cr = Reach.closure r in
      Array.for_all2 Bitset.equal cg cr)

(* ------------------------------------------------------------------ *)
(* Dominator *)

let naive_dominators g =
  (* all nonempty proper subsets with no incoming outside arcs *)
  let n = Digraph.n g in
  let out = ref [] in
  for mask = 1 to (1 lsl n) - 2 do
    let s = Bitset.create n in
    for v = 0 to n - 1 do
      if mask land (1 lsl v) <> 0 then Bitset.add s v
    done;
    if Dominator.is_dominator g s then out := s :: !out
  done;
  List.rev !out

let test_dominator_known () =
  let g = Digraph.of_arcs 3 [ (0, 1); (1, 2) ] in
  (* dominators: {0}, {0,1} *)
  let doms = Dominator.enumerate g in
  Util.check_int "count" 2 (List.length doms);
  Util.check "find some" true (Dominator.find g <> None);
  let cyc = Digraph.of_arcs 3 [ (0, 1); (1, 2); (2, 0) ] in
  Util.check "strongly connected: none" true (Dominator.find cyc = None);
  Util.check "enumerate empty" true (Dominator.enumerate cyc = [])

let qcheck_dominators =
  Util.qtest ~count:60 "enumerate matches the definition"
    (Util.gen_with_state (fun st ->
         let n = 2 + Random.State.int st 6 in
         (n, Util.random_digraph_arcs st n 0.3)))
    (fun (n, arcs) ->
      let g = Digraph.of_arcs n arcs in
      let enumerated =
        List.sort compare (List.map Bitset.elements (Dominator.enumerate g))
      in
      let naive =
        List.sort compare (List.map Bitset.elements (naive_dominators g))
      in
      enumerated = naive)

let qcheck_find_dominator =
  Util.qtest ~count:80 "find returns a dominator iff not strongly connected"
    (Util.gen_with_state (fun st ->
         let n = 2 + Random.State.int st 8 in
         (n, Util.random_digraph_arcs st n 0.3)))
    (fun (n, arcs) ->
      let g = Digraph.of_arcs n arcs in
      match Dominator.find g with
      | Some x -> Dominator.is_dominator g x && not (Scc.is_strongly_connected g)
      | None -> Scc.is_strongly_connected g)

let test_to_dot () =
  let g = Digraph.of_arcs 2 [ (0, 1) ] in
  let dot = Digraph.to_dot ~name:"T" ~label:(fun v -> Printf.sprintf "v%d" v) g in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Util.check "digraph name" true (contains dot "digraph T");
  Util.check "label" true (contains dot "v1");
  Util.check "arc" true (contains dot "n0 -> n1")

let () =
  Alcotest.run "graph"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "set ops" `Quick test_bitset_ops;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          qcheck_bitset_iter;
          qcheck_bitset_count;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "basic" `Quick test_digraph_basic;
          Alcotest.test_case "transpose" `Quick test_digraph_transpose;
          Alcotest.test_case "union/induced" `Quick test_digraph_union_induced;
        ] );
      ("dot", [ Alcotest.test_case "rendering" `Quick test_to_dot ]);
      ( "scc",
        [
          Alcotest.test_case "known graphs" `Quick test_scc_known;
          Alcotest.test_case "degenerate" `Quick test_scc_empty_single;
          Alcotest.test_case "deep chain" `Slow test_scc_deep_chain;
          qcheck_scc;
        ] );
      ( "topo",
        [
          Alcotest.test_case "basic" `Quick test_topo_basic;
          Alcotest.test_case "priority" `Quick test_topo_priority;
          Alcotest.test_case "find_cycle" `Quick test_find_cycle;
          qcheck_topo;
        ] );
      ( "reach",
        [
          Alcotest.test_case "reduction" `Quick test_transitive_reduction;
          qcheck_closure;
          qcheck_reduction;
        ] );
      ( "dominator",
        [
          Alcotest.test_case "known" `Quick test_dominator_known;
          qcheck_dominators;
          qcheck_find_dominator;
        ] );
    ]
