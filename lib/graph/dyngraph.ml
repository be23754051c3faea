type t = { adj : (string, (string, unit) Hashtbl.t) Hashtbl.t }

let create () = { adj = Hashtbl.create 32 }

let add_vertex t v =
  if not (Hashtbl.mem t.adj v) then Hashtbl.add t.adj v (Hashtbl.create 4)

let has_vertex t v = Hashtbl.mem t.adj v

let neighbour_tbl t v = Hashtbl.find_opt t.adj v

let remove_vertex t v =
  match neighbour_tbl t v with
  | None -> ()
  | Some ns ->
      Hashtbl.iter
        (fun w () ->
          match neighbour_tbl t w with
          | Some ws -> Hashtbl.remove ws v
          | None -> ())
        ns;
      Hashtbl.remove t.adj v

let num_vertices t = Hashtbl.length t.adj

let add_edge t u v =
  if u = v then invalid_arg "Dyngraph.add_edge: self-loop";
  match (neighbour_tbl t u, neighbour_tbl t v) with
  | Some us, Some vs ->
      if not (Hashtbl.mem us v) then begin
        Hashtbl.add us v ();
        Hashtbl.add vs u ()
      end
  | _ -> invalid_arg "Dyngraph.add_edge: unknown vertex"

let remove_edge t u v =
  match (neighbour_tbl t u, neighbour_tbl t v) with
  | Some us, Some vs ->
      Hashtbl.remove us v;
      Hashtbl.remove vs u
  | _ -> ()

let num_edges t =
  Hashtbl.fold (fun _ ns acc -> acc + Hashtbl.length ns) t.adj 0 / 2

let neighbours t v =
  match neighbour_tbl t v with
  | None -> []
  | Some ns -> List.sort compare (Hashtbl.fold (fun w () acc -> w :: acc) ns [])

let to_digraph t ~index_of ~n =
  let g = Digraph.create n in
  let idx v =
    let i = index_of v in
    if i < 0 || i >= n then invalid_arg "Dyngraph.to_digraph: index out of range";
    i
  in
  Hashtbl.iter
    (fun u ns ->
      let iu = idx u in
      Hashtbl.iter (fun v () -> Digraph.add_arc g iu (idx v)) ns)
    t.adj;
  g
