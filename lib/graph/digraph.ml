type t = {
  n : int;
  succ : int list array; (* reversed insertion order; normalized on read *)
  pred : int list array;
  arcset : (int * int, unit) Hashtbl.t;
  mutable num_arcs : int;
}

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  {
    n;
    succ = Array.make (max n 1) [];
    pred = Array.make (max n 1) [];
    arcset = Hashtbl.create 64;
    num_arcs = 0;
  }

let n g = g.n

let num_arcs g = g.num_arcs

let check g v =
  if v < 0 || v >= g.n then invalid_arg "Digraph: vertex out of range"

let mem_arc g u v =
  check g u;
  check g v;
  Hashtbl.mem g.arcset (u, v)

let add_arc g u v =
  check g u;
  check g v;
  if not (Hashtbl.mem g.arcset (u, v)) then begin
    Hashtbl.add g.arcset (u, v) ();
    g.succ.(u) <- v :: g.succ.(u);
    g.pred.(v) <- u :: g.pred.(v);
    g.num_arcs <- g.num_arcs + 1
  end

let of_arcs n arcs =
  let g = create n in
  List.iter (fun (u, v) -> add_arc g u v) arcs;
  g

let succ g v =
  check g v;
  List.rev g.succ.(v)

let pred g v =
  check g v;
  List.rev g.pred.(v)

let out_degree g v =
  check g v;
  List.length g.succ.(v)

let in_degree g v =
  check g v;
  List.length g.pred.(v)

let arcs g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    List.iter (fun v -> acc := (u, v) :: !acc) (List.rev g.succ.(u))
  done;
  !acc

let copy g =
  {
    n = g.n;
    succ = Array.copy g.succ;
    pred = Array.copy g.pred;
    arcset = Hashtbl.copy g.arcset;
    num_arcs = g.num_arcs;
  }

let transpose g =
  let r = create g.n in
  Hashtbl.iter (fun (u, v) () -> add_arc r v u) g.arcset;
  r

let iter_succ g v f =
  check g v;
  List.iter f (List.rev g.succ.(v))

let iter_arcs g f = Hashtbl.iter (fun (u, v) () -> f u v) g.arcset

let equal a b =
  a.n = b.n
  && a.num_arcs = b.num_arcs
  && Hashtbl.fold (fun arc () ok -> ok && Hashtbl.mem b.arcset arc) a.arcset
       true

let union a b =
  if a.n <> b.n then invalid_arg "Digraph.union: size mismatch";
  let g = copy a in
  iter_arcs b (fun u v -> add_arc g u v);
  g

let induced g s =
  let keep = Bitset.elements s in
  let back = Array.of_list keep in
  let fwd = Hashtbl.create (Array.length back) in
  Array.iteri (fun i v -> Hashtbl.add fwd v i) back;
  let sub = create (Array.length back) in
  iter_arcs g (fun u v ->
      match (Hashtbl.find_opt fwd u, Hashtbl.find_opt fwd v) with
      | Some u', Some v' -> add_arc sub u' v'
      | _ -> ());
  (sub, back)

let to_dot ?(name = "G") ?(label = string_of_int) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  for v = 0 to g.n - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" v (label v))
  done;
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" u v))
    (arcs g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
