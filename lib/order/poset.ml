open Distlock_graph

type t = {
  size : int;
  after : Bitset.t array; (* after.(a) = strict successors of a *)
}

let size t = t.size

let precedes t a b = Bitset.mem t.after.(a) b

(* The arcs go into successor arrays (each element's slice of [succ]
   starts at [first.(v)]), {!Topo.kahn} orders the elements, and each
   row is the union of its successors' finished rows, taken in reverse
   topological order. *)
let of_arcs n arcs =
  let in_degree = Array.make n 0 and first = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Poset.of_arcs: element out of range";
      first.(u + 1) <- first.(u + 1) + 1;
      in_degree.(v) <- in_degree.(v) + 1)
    arcs;
  for v = 1 to n do
    first.(v) <- first.(v) + first.(v - 1)
  done;
  let succ = Array.make first.(n) 0 and fill = Array.sub first 0 n in
  List.iter
    (fun (u, v) ->
      succ.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1)
    arcs;
  let iter_succ v f =
    for k = first.(v) to first.(v + 1) - 1 do
      f succ.(k)
    done
  in
  Option.map
    (fun order ->
      let after = Array.init n (fun _ -> Bitset.create n) in
      for i = n - 1 downto 0 do
        let row = after.(order.(i)) in
        iter_succ order.(i) (fun w ->
            Bitset.add row w;
            Bitset.union_into ~dst:row after.(w))
      done;
      { size = n; after })
    (Topo.kahn ~in_degree ~iter_succ ~priority:(fun _ -> 0))

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

let rec decimal_length i = if i < 10 then 1 else 1 + decimal_length (i / 10)

let write_decimal buf pos i =
  if i < 10 then begin
    Bytes.set buf pos (Char.unsafe_chr (48 + i));
    pos + 1
  end
  else if i < 100 then begin
    Bytes.set buf pos (Char.unsafe_chr (48 + (i / 10)));
    Bytes.set buf (pos + 1) (Char.unsafe_chr (48 + (i mod 10)));
    pos + 2
  end
  else begin
    let stop = pos + decimal_length i in
    let v = ref i in
    for k = stop - 1 downto pos do
      Bytes.set buf k (Char.unsafe_chr (48 + (!v mod 10)));
      v := !v / 10
    done;
    stop
  end

(* Each pair "a<b;" of a row takes [a]'s digits, two separators and
   [b]'s first digit, plus one more digit per power of ten from 10 up
   to [b]. *)
let relation_text_length t =
  let len = ref 0 in
  for a = 0 to t.size - 1 do
    let row = t.after.(a) in
    len := !len + (Bitset.cardinal row * (decimal_length a + 3));
    let p = ref 10 in
    while !p < t.size do
      len := !len + Bitset.count_from row !p;
      p := !p * 10
    done
  done;
  !len

(* The powers of two below the sign bit have distinct residues mod 67,
   none of them 0: [bit_index.(p mod 67)] is [k] for [p = 2^k], and the
   sign bit, masked to 0, maps to 62. *)
let bit_index =
  let t = Array.make 67 62 in
  for k = 0 to 61 do
    t.((1 lsl k) mod 67) <- k
  done;
  t

(* Visits a word's members lowest first by isolating its lowest set
   bit, so the loop branches once per member, not once per bit. *)
let write_relation_text t buf pos =
  let pos = ref pos in
  for a = 0 to t.size - 1 do
    let row = t.after.(a) in
    for w = 0 to Bitset.num_words row - 1 do
      let word = ref (Bitset.word row w) and base = w * Bitset.bits_per_word in
      while !word <> 0 do
        let low = !word land (- !word) in
        let p = write_decimal buf !pos a in
        Bytes.set buf p '<';
        let p =
          write_decimal buf (p + 1) (base + bit_index.((low land max_int) mod 67))
        in
        Bytes.set buf p ';';
        pos := p + 1;
        word := !word lxor low
      done
    done
  done;
  !pos

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
