open Distlock_graph

(* Compressed interlock graph. Leaves are entities; internal segment-tree
   nodes over the L2-order carry helper chains sorted by U1 so that the
   target set of x — an L2-prefix intersected with a U1-suffix — is
   reachable through O(log^2 k) query arcs. *)

type compressed = {
  graph : Digraph.t;
  num_entities : int;
}

let build_rects rects =
  let k = Array.length rects in
  let l1 = Array.map (fun r -> r.Rect.x_lock) rects in
  let u1 = Array.map (fun r -> r.Rect.x_unlock) rects in
  let l2 = Array.map (fun r -> r.Rect.y_lock) rects in
  let u2 = Array.map (fun r -> r.Rect.y_unlock) rects in
  (* entities sorted by L2 *)
  let byl2 = Array.init k Fun.id in
  Array.sort (fun a b -> compare l2.(a) l2.(b)) byl2;
  let sorted_l2 = Array.map (fun e -> l2.(e)) byl2 in
  (* Segment tree nodes over [lo, hi) ranges of the L2-order. Each node
     stores its member entities sorted by U1 and the id of its first
     helper vertex (helpers are consecutive). *)
  let nodes = ref [] in
  (* (lo, hi, members_sorted_by_u1, first_helper_id) collected later *)
  let next_vertex = ref k in
  let rec build_node lo hi =
    if hi - lo < 1 then None
    else begin
      let members = Array.sub byl2 lo (hi - lo) in
      Array.sort (fun a b -> compare u1.(a) u1.(b)) members;
      let first_helper = !next_vertex in
      next_vertex := !next_vertex + Array.length members;
      let node = (lo, hi, members, first_helper) in
      nodes := node :: !nodes;
      if hi - lo > 1 then begin
        let mid = (lo + hi) / 2 in
        ignore (build_node lo mid);
        ignore (build_node mid hi)
      end;
      Some node
    end
  in
  let root = if k > 0 then build_node 0 k else None in
  ignore root;
  let g = Digraph.create (max 1 !next_vertex) in
  (* helper chain arcs: h_j -> entity_j and h_j -> h_{j+1} *)
  List.iter
    (fun (_, _, members, first) ->
      Array.iteri
        (fun j e ->
          Digraph.add_arc g (first + j) e;
          if j + 1 < Array.length members then
            Digraph.add_arc g (first + j) (first + j + 1))
        members)
    !nodes;
  (* node lookup by (lo, hi) for canonical decomposition *)
  let node_tbl = Hashtbl.create 64 in
  List.iter
    (fun ((lo, hi, _, _) as node) -> Hashtbl.replace node_tbl (lo, hi) node)
    !nodes;
  (* binary search: number of sorted_l2 values < v *)
  let prefix_len v =
    let lo = ref 0 and hi = ref k in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted_l2.(mid) < v then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (* first index in members (sorted by u1) with u1 > threshold *)
  let first_above members threshold =
    let lo = ref 0 and hi = ref (Array.length members) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if u1.(members.(mid)) > threshold then hi := mid else lo := mid + 1
    done;
    !lo
  in
  (* canonical decomposition of [0, plen) and query arcs *)
  let add_query_arcs x plen threshold =
    let rec go lo hi =
      if plen <= lo || hi <= lo then ()
      else if plen >= hi then begin
        (* whole node is inside the prefix *)
        match Hashtbl.find_opt node_tbl (lo, hi) with
        | Some (_, _, members, first) ->
            let idx = first_above members threshold in
            if idx < Array.length members then
              Digraph.add_arc g x (first + idx)
        | None -> assert false
      end
      else begin
        let mid = (lo + hi) / 2 in
        go lo mid;
        go mid hi
      end
    in
    go 0 k
  in
  for x = 0 to k - 1 do
    add_query_arcs x (prefix_len u2.(x)) l1.(x)
  done;
  { graph = g; num_entities = k }

let build plane = build_rects (Array.of_list (Plane.rectangles plane))

let strongly_connected_of c =
  if c.num_entities < 2 then true
  else begin
    let r = Scc.compute c.graph in
    let comp0 = r.Scc.component.(0) in
    let ok = ref true in
    for e = 1 to c.num_entities - 1 do
      if r.Scc.component.(e) <> comp0 then ok := false
    done;
    !ok
  end

let is_strongly_connected plane = strongly_connected_of (build plane)

let rects_strongly_connected rects =
  strongly_connected_of (build_rects (Array.of_list rects))

let is_safe plane = is_strongly_connected plane
