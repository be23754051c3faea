open Distlock_order

let factorial n =
  let rec go acc k = if k <= 1 then acc else go (acc * k) (k - 1) in
  go 1 n

let test_poset_basic () =
  match Poset.of_arcs 4 [ (0, 1); (1, 2) ] with
  | None -> Alcotest.fail "expected acyclic"
  | Some p ->
      Util.check "0<1" true (Poset.precedes p 0 1);
      Util.check "0<2 (transitive)" true (Poset.precedes p 0 2);
      Util.check "not 2<0" false (Poset.precedes p 2 0);
      Util.check "3 concurrent with 0" true (Poset.concurrent p 3 0);
      Util.check "comparable 0 2" true (Poset.comparable p 0 2);
      Util.check "not total" false (Poset.is_total p);
      Util.check "total on chain" true (Poset.total_on p [ 0; 1; 2 ]);
      Util.check "not total with 3" false (Poset.total_on p [ 0; 3 ])

let test_poset_cycle () =
  Util.check "cycle rejected" true (Poset.of_arcs 2 [ (0, 1); (1, 0) ] = None);
  Util.check "self loop rejected" true (Poset.of_arcs 1 [ (0, 0) ] = None)

let test_chain_empty () =
  let c = Poset.chain 4 in
  Util.check "chain total" true (Poset.is_total c);
  Util.check "chain order" true (Poset.precedes c 0 3);
  let e = Poset.empty 4 in
  Util.check "antichain" true (Poset.concurrent e 0 3);
  Util.check_int "chain exts" 1 (Linext.count c);
  Util.check_int "antichain exts" (factorial 4) (Linext.count e)

let test_covers () =
  match Poset.of_arcs 3 [ (0, 1); (1, 2); (0, 2) ] with
  | None -> Alcotest.fail "acyclic"
  | Some p ->
      Alcotest.(check (list (pair int int)))
        "covers drop transitive arc" [ (0, 1); (1, 2) ] (Poset.covers p)

let test_add_arcs () =
  let p = Option.get (Poset.of_arcs 3 [ (0, 1) ]) in
  (match Poset.add_arcs p [ (1, 2) ] with
  | None -> Alcotest.fail "extension should work"
  | Some q ->
      Util.check "new precedence" true (Poset.precedes q 0 2);
      Util.check "original untouched" false (Poset.precedes p 1 2));
  Util.check "contradiction rejected" true (Poset.add_arcs p [ (1, 0) ] = None)

(* [add_arcs] closes arc by arc and shares the rows it does not write with
   its input; a rebuild from the whole extended relation is the
   reference. Most extra arcs follow a linear extension of the poset, so
   they keep it acyclic; the rest are arbitrary pairs, self-loops and
   reversed precedences among them, and may close a cycle. *)
let qcheck_add_arcs_vs_rebuild =
  Util.qtest ~count:1000 "add_arcs agrees with a rebuild and leaves its input"
    (Util.gen_with_state (fun st ->
         let n = 1 + Random.State.int st 12 in
         let p = Option.get (Poset.of_arcs n (Util.random_dag_arcs st n 0.2)) in
         let ext = Linext.random st p in
         let arc () =
           if Random.State.int st 5 = 0 then
             (Random.State.int st n, Random.State.int st n)
           else
             let a = Random.State.int st n and b = Random.State.int st n in
             (ext.(min a b), ext.(max a b))
         in
         (n, p, List.init (Random.State.int st 6) (fun _ -> arc ()))))
    (fun (n, p, arcs) ->
      let before = Poset.relation p in
      let agree =
        match (Poset.add_arcs p arcs, Poset.of_arcs n (before @ arcs)) with
        | None, None -> true
        | Some q, Some r -> Poset.equal q r
        | Some _, None | None, Some _ -> false
      in
      agree && Poset.relation p = before)

(* [of_arcs] closes int arcs in its own arrays; the digraph path it
   replaced ([Digraph.of_arcs], acyclicity by [Topo.sort], rows from
   [Reach.closure]) is the reference. The arc lists repeat arcs, and
   two in three get one more arc: a self-loop, the reverse of an arc
   (a cycle), or an arbitrary pair. *)
let qcheck_of_arcs_vs_digraph =
  Util.qtest ~count:1000 "of_arcs agrees with Digraph + Reach.closure"
    (Util.gen_with_state (fun st ->
         let n = 1 + Random.State.int st 14 in
         let dag = Util.random_dag_arcs st n (Random.State.float st 0.5) in
         let arcs = dag @ List.filter (fun _ -> Random.State.bool st) dag in
         let v = Random.State.int st n in
         let extra =
           match (Random.State.int st 3, dag) with
           | 0, _ -> [ (v, v) ]
           | 1, (a, b) :: _ -> [ (b, a) ]
           | _ -> [ (v, Random.State.int st n) ]
         in
         (n, if Random.State.int st 3 = 0 then arcs else extra @ arcs)))
    (fun (n, arcs) ->
      let module G = Distlock_graph in
      let g = G.Digraph.of_arcs n arcs in
      match (Poset.of_arcs n arcs, G.Topo.sort g) with
      | None, None -> true
      | Some p, Some _ ->
          let rows = G.Reach.closure g in
          let elems = List.init n Fun.id in
          List.for_all
            (fun a ->
              List.for_all
                (fun b -> Poset.precedes p a b = G.Bitset.mem rows.(a) b)
                elems)
            elems
      | Some _, None | None, Some _ -> false)

let test_reverse () =
  let p = Option.get (Poset.of_arcs 3 [ (0, 1); (1, 2) ]) in
  let r = Poset.reverse p in
  Util.check "reversed" true (Poset.precedes r 2 0);
  Util.check "involution" true (Poset.equal p (Poset.reverse r))

(* Known extension counts: the "N" poset 0<2, 1<2, 1<3 over {0,1,2,3}. *)
let test_known_counts () =
  let p = Option.get (Poset.of_arcs 4 [ (0, 2); (1, 2); (1, 3) ]) in
  (* extensions: choose interleavings; count by brute definition *)
  let count = Linext.count p in
  (* verify against direct permutation filter *)
  let all_perms =
    let rec perms = function
      | [] -> [ [] ]
      | l ->
          List.concat_map
            (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
            l
    in
    perms [ 0; 1; 2; 3 ]
  in
  let valid =
    List.filter
      (fun perm -> Poset.is_linear_extension p (Array.of_list perm))
      all_perms
  in
  Util.check_int "count matches filter" (List.length valid) count

let qcheck_extensions_valid =
  Util.qtest ~count:50 "every enumerated extension is a linear extension"
    (Util.gen_with_state (fun st ->
         let n = 1 + Random.State.int st 6 in
         (n, Util.random_dag_arcs st n 0.4)))
    (fun (n, arcs) ->
      let p = Option.get (Poset.of_arcs n arcs) in
      let ok = ref true in
      Linext.iter p (fun ext ->
          if not (Poset.is_linear_extension p ext) then ok := false);
      !ok)

let qcheck_extension_count_vs_perms =
  Util.qtest ~count:30 "extension count equals permutation filter"
    (Util.gen_with_state (fun st ->
         let n = 1 + Random.State.int st 5 in
         (n, Util.random_dag_arcs st n 0.4)))
    (fun (n, arcs) ->
      let p = Option.get (Poset.of_arcs n arcs) in
      let count = Linext.count p in
      (* count permutations validating *)
      let rec perms acc = function
        | [] -> if Poset.is_linear_extension p (Array.of_list (List.rev acc)) then 1 else 0
        | l ->
            List.fold_left
              (fun total x -> total + perms (x :: acc) (List.filter (( <> ) x) l))
              0 l
      in
      count = perms [] (List.init n Fun.id))

let qcheck_random_extension =
  Util.qtest ~count:60 "random extension is valid"
    (Util.gen_with_state (fun st ->
         let n = 1 + Random.State.int st 10 in
         let arcs = Util.random_dag_arcs st n 0.3 in
         let p = Option.get (Poset.of_arcs n arcs) in
         (p, Linext.random st p)))
    (fun (p, ext) -> Poset.is_linear_extension p ext)

let qcheck_priority_extension =
  Util.qtest ~count:60 "priority linearization is valid"
    (Util.gen_with_state (fun st ->
         let n = 1 + Random.State.int st 10 in
         (Option.get (Poset.of_arcs n (Util.random_dag_arcs st n 0.3)),
          Random.State.int st n)))
    (fun (p, pivot) ->
      let ext = Poset.linearize_with_priority p ~priority:(fun v -> abs (v - pivot)) in
      Poset.is_linear_extension p ext)

(* The kernels that read the closure rows against the digraph path they
   replaced: [Topo] on [to_digraph] is the reference for the sorts and
   the extension test, a re-closed transpose for [reverse], and a scan
   of [precedes] for the row iterator. Priorities come from a small
   range so ties are common; the arrays tested as extensions cover
   valid, permuted, reversed and malformed ones. *)
let qcheck_kernels_vs_digraph =
  let module G = Distlock_graph in
  Util.qtest ~count:1000 "row kernels agree with the digraph path"
    (Util.gen_with_state (fun st ->
         let n = Random.State.int st 41 in
         let density = Random.State.float st 0.5 in
         let p = Option.get (Poset.of_arcs n (Util.random_dag_arcs st n density)) in
         let prio = Array.init n (fun _ -> Random.State.int st 4 - 1) in
         let valid = Linext.random st p in
         let perm = Linext.random st (Poset.empty n) in
         let malformed =
           if n = 0 then [ [| 0 |]; [| -1 |] ]
           else
             let i = Random.State.int st n in
             let with_at v = Array.mapi (fun k x -> if k = i then v else x) valid in
             [
               Array.append valid [| Random.State.int st n |];
               Array.sub valid 0 (n - 1);
               with_at valid.((i + 1) mod n);
               with_at n;
               with_at (-1);
             ]
         in
         let orders =
           (valid :: perm :: Poset.linearize p :: malformed)
           @ [ Array.of_list (List.rev (Array.to_list valid)) ]
         in
         (p, prio, orders)))
    (fun (p, prio, orders) ->
      let n = Poset.size p in
      let g = Poset.to_digraph p in
      let priority v = prio.(v) in
      let sorted =
        G.Topo.sort_with_priority g ~priority
        = Some (Poset.linearize_with_priority p ~priority)
      in
      let reversed =
        match Poset.of_arcs n (G.Digraph.arcs (G.Digraph.transpose g)) with
        | Some r -> Poset.equal r (Poset.reverse p)
        | None -> false
      in
      let extension order =
        Poset.is_linear_extension p order
        = (Array.length order = n && G.Topo.is_topological_order g order)
      in
      let pairs =
        List.concat
          (List.init n (fun a ->
               List.filter_map
                 (fun b -> if Poset.precedes p a b then Some (a, b) else None)
                 (List.init n Fun.id)))
      in
      let iterated = ref [] in
      Poset.iter_relation (fun a b -> iterated := (a, b) :: !iterated) p;
      sorted && reversed
      && List.for_all extension orders
      && List.rev !iterated = pairs
      && Poset.relation p = pairs)

let test_find_exists () =
  let p = Poset.empty 3 in
  Util.check "exists" true
    (Linext.exists p (fun e -> e.(0) = 2 && e.(1) = 1 && e.(2) = 0));
  (match Linext.find p (fun e -> e.(0) = 1) with
  | Some e -> Util.check_int "found starts with 1" 1 e.(0)
  | None -> Alcotest.fail "should find");
  let c = Poset.chain 3 in
  Util.check "chain: no reversed extension" false
    (Linext.exists c (fun e -> e.(0) = 2))

let test_down_up_sets () =
  let p = Option.get (Poset.of_arcs 4 [ (0, 1); (1, 2) ]) in
  Alcotest.(check (list int)) "down 2" [ 0; 1 ]
    (Distlock_graph.Bitset.elements (Poset.down_set p 2));
  Alcotest.(check (list int)) "up 0" [ 1; 2 ]
    (Distlock_graph.Bitset.elements (Poset.up_set p 0));
  Alcotest.(check (list int)) "down 3 empty" []
    (Distlock_graph.Bitset.elements (Poset.down_set p 3))

let () =
  Alcotest.run "order"
    [
      ( "poset",
        [
          Alcotest.test_case "basic" `Quick test_poset_basic;
          Alcotest.test_case "cycles rejected" `Quick test_poset_cycle;
          Alcotest.test_case "chain/antichain" `Quick test_chain_empty;
          Alcotest.test_case "covers" `Quick test_covers;
          Alcotest.test_case "add_arcs" `Quick test_add_arcs;
          qcheck_add_arcs_vs_rebuild;
          qcheck_of_arcs_vs_digraph;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "down/up sets" `Quick test_down_up_sets;
        ] );
      ( "linext",
        [
          Alcotest.test_case "known counts" `Quick test_known_counts;
          Alcotest.test_case "find/exists" `Quick test_find_exists;
          qcheck_extensions_valid;
          qcheck_extension_count_vs_perms;
          qcheck_random_extension;
          qcheck_priority_extension;
          qcheck_kernels_vs_digraph;
        ] );
    ]
