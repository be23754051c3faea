open Distlock_graph

type t = {
  size : int;
  after : Bitset.t array; (* after.(a) = strict successors of a *)
}

let size t = t.size

let precedes t a b = Bitset.mem t.after.(a) b

let of_digraph g =
  match Topo.sort g with
  | None -> None
  | Some _ -> Some { size = Digraph.n g; after = Reach.closure g }

let of_arcs n arcs = of_digraph (Digraph.of_arcs n arcs)

let empty n = { size = n; after = Array.init n (fun _ -> Bitset.create n) }

let chain n =
  {
    size = n;
    after =
      Array.init n (fun a ->
          let s = Bitset.create n in
          for b = a + 1 to n - 1 do
            Bitset.add s b
          done;
          s);
  }

let concurrent t a b = a <> b && (not (precedes t a b)) && not (precedes t b a)

let comparable t a b = precedes t a b || precedes t b a

let iter_relation f t =
  for a = 0 to t.size - 1 do
    Bitset.iter (f a) t.after.(a)
  done

let relation t =
  let acc = ref [] in
  iter_relation (fun a b -> acc := (a, b) :: !acc) t;
  List.rev !acc

let to_digraph t =
  let g = Digraph.create t.size in
  Array.iteri (fun a s -> Bitset.iter (fun b -> Digraph.add_arc g a b) s) t.after;
  g

let covers t = Digraph.arcs (Reach.transitive_reduction (to_digraph t))

(* Each arc [u<v] is closed in place: [{v} ∪ after(v)] joins the row of
   [u] and of every element below [u]. No other row changes, because
   [after(v)] is already closed and [u] is not in it. Rows are shared
   with [t] until first written. *)
let add_arcs t arcs =
  let after = Array.copy t.after in
  let owned = Array.make t.size false in
  let row a =
    if not owned.(a) then begin
      after.(a) <- Bitset.copy after.(a);
      owned.(a) <- true
    end;
    after.(a)
  in
  let rec go = function
    | [] -> Some { t with after }
    | (u, v) :: rest ->
        if u = v || Bitset.mem after.(v) u then None
        else begin
          if not (Bitset.mem after.(u) v) then
            for a = 0 to t.size - 1 do
              if a = u || Bitset.mem after.(a) u then begin
                let r = row a in
                Bitset.union_into ~dst:r after.(v);
                Bitset.add r v
              end
            done;
          go rest
        end
  in
  go arcs

let up_set t a = Bitset.copy t.after.(a)

let down_set t a =
  let s = Bitset.create t.size in
  for b = 0 to t.size - 1 do
    if precedes t b a then Bitset.add s b
  done;
  s

let is_total t =
  let ok = ref true in
  for a = 0 to t.size - 1 do
    for b = a + 1 to t.size - 1 do
      if not (comparable t a b) then ok := false
    done
  done;
  !ok

let total_on t elems =
  let rec pairs = function
    | [] -> true
    | a :: rest -> List.for_all (fun b -> comparable t a b) rest && pairs rest
  in
  pairs elems

(* Read off the rows: [order] is an extension iff it is a permutation
   and no element's row meets the elements placed before it. *)
let is_linear_extension t order =
  let n = t.size in
  Array.length order = n
  &&
  let before = Bitset.create n in
  Array.for_all
    (fun v ->
      v >= 0 && v < n
      && (not (Bitset.mem before v))
      && Bitset.disjoint t.after.(v) before
      &&
      (Bitset.add before v;
       true))
    order

(* Kahn over the closure itself: an element's in-degree is the number
   of its predecessors, its column count. The closure and the covering
   DAG make the same elements available at every step, so the order is
   the one a sort of any generating digraph would give. *)
let linearize_with_priority t ~priority =
  let in_degree = Array.make t.size 0 in
  iter_relation (fun _ b -> in_degree.(b) <- in_degree.(b) + 1) t;
  match
    Topo.kahn ~in_degree
      ~iter_succ:(fun v f -> Bitset.iter f t.after.(v))
      ~priority
  with
  | Some o -> o
  | None -> assert false (* posets are acyclic by construction *)

let linearize t = linearize_with_priority t ~priority:(fun _ -> 0)

let equal a b =
  a.size = b.size && Array.for_all2 Bitset.equal a.after b.after

(* The transpose of the closure rows: the dual of a transitively closed
   acyclic relation is itself closed and acyclic. *)
let reverse t =
  let after = Array.init t.size (fun _ -> Bitset.create t.size) in
  iter_relation (fun a b -> Bitset.add after.(b) a) t;
  { t with after }
