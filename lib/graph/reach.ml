let from g v =
  let n = Digraph.n g in
  let seen = Bitset.create n in
  let rec go v =
    if not (Bitset.mem seen v) then begin
      Bitset.add seen v;
      List.iter go (Digraph.succ g v)
    end
  in
  go v;
  seen

let closure_dag g order =
  let n = Digraph.n g in
  let desc = Array.init n (fun _ -> Bitset.create n) in
  (* Process in reverse topological order so successors are final. *)
  for i = n - 1 downto 0 do
    let v = order.(i) in
    List.iter
      (fun w ->
        Bitset.add desc.(v) w;
        Bitset.union_into ~dst:desc.(v) desc.(w))
      (Digraph.succ g v)
  done;
  desc

let closure_general g =
  let n = Digraph.n g in
  Array.init n (fun v ->
      let r = from g v in
      (* strict descendants: drop v unless v lies on a cycle through v *)
      let on_cycle =
        List.exists (fun w -> w = v || Bitset.mem (from g w) v) (Digraph.succ g v)
      in
      if not on_cycle then Bitset.remove r v;
      r)

let closure g =
  match Topo.sort g with
  | Some order -> closure_dag g order
  | None -> closure_general g

let transitive_reduction g =
  match Topo.sort g with
  | None -> invalid_arg "Reach.transitive_reduction: cyclic graph"
  | Some order ->
      let desc = closure_dag g order in
      let r = Digraph.create (Digraph.n g) in
      Digraph.iter_arcs g (fun u v ->
          (* keep u->v unless some other successor of u already reaches v *)
          let redundant =
            List.exists (fun w -> w <> v && Bitset.mem desc.(w) v) (Digraph.succ g u)
          in
          if not redundant then Digraph.add_arc r u v);
      r
