let is_dominator g x =
  let n = Digraph.n g in
  if Bitset.capacity x <> n then invalid_arg "Dominator.is_dominator";
  let card = Bitset.cardinal x in
  if card = 0 || card = n then false
  else begin
    let ok = ref true in
    Digraph.iter_arcs g (fun u v ->
        if Bitset.mem x v && not (Bitset.mem x u) then ok := false);
    !ok
  end

let find g =
  let n = Digraph.n g in
  if n < 2 then None
  else begin
    let r = Scc.compute g in
    if r.Scc.count <= 1 then None
    else begin
      let cond = Scc.condensation g r in
      let sets = Scc.component_sets g r in
      (* Source components of the condensation are minimal dominators. *)
      let best = ref None in
      for c = 0 to r.Scc.count - 1 do
        if Digraph.in_degree cond c = 0 then begin
          let size = Bitset.cardinal sets.(c) in
          match !best with
          | Some (s, _) when s <= size -> ()
          | _ -> best := Some (size, sets.(c))
        end
      done;
      Option.map snd !best
    end
  end

let enumerate g =
  let n = Digraph.n g in
  let r = Scc.compute g in
  let k = r.Scc.count in
  if k <= 1 then []
  else begin
    let cond = Scc.condensation g r in
    let sets = Scc.component_sets g r in
    (* Enumerate predecessor-closed subsets of the condensation DAG.
       Components are numbered in reverse topological order (arc a -> b
       implies a > b), so predecessors of c have indices > c; we therefore
       scan components from high to low, deciding inclusion, and a component
       may be included only if all its condensation-predecessors are. *)
    let order =
      (* high-to-low = topological order of the condensation *)
      List.init k (fun i -> k - 1 - i)
    in
    let results = ref [] in
    let count = ref 0 in
    let chosen = Array.make k false in
    let rec go = function
      | [] ->
          let members = Bitset.create n in
          for c = 0 to k - 1 do
            if chosen.(c) then Bitset.union_into ~dst:members sets.(c)
          done;
          let card = Bitset.cardinal members in
          if card > 0 && card < n then begin
            incr count;
            if !count > 100_000 then failwith "Dominator.enumerate: limit exceeded";
            results := members :: !results
          end
      | c :: rest ->
          chosen.(c) <- false;
          go rest;
          if List.for_all (fun p -> chosen.(p)) (Digraph.pred cond c) then begin
            chosen.(c) <- true;
            go rest;
            chosen.(c) <- false
          end
    in
    go order;
    List.rev !results
  end
