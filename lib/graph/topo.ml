(* A binary min-heap of vertices keyed by [(priority, vertex)], compared
   lexicographically. Keys are unique, so the pop order is fully
   determined. The standard library has no priority queue, and the
   priority sorts below are on hot paths of the Theorem 2 certificate
   construction; priorities and vertices sit in two int arrays, so
   neither a push nor a comparison allocates. A heap never holds more
   than [n] vertices. *)
module Heap = struct
  type t = { prio : int array; vert : int array; mutable size : int }

  let create n = { prio = Array.make n 0; vert = Array.make n 0; size = 0 }

  let less h i j =
    let pi = h.prio.(i) and pj = h.prio.(j) in
    pi < pj || (pi = pj && h.vert.(i) < h.vert.(j))

  let swap h i j =
    let p = h.prio.(i) and v = h.vert.(i) in
    h.prio.(i) <- h.prio.(j);
    h.vert.(i) <- h.vert.(j);
    h.prio.(j) <- p;
    h.vert.(j) <- v

  let push h p v =
    let i = ref h.size in
    h.prio.(!i) <- p;
    h.vert.(!i) <- v;
    h.size <- h.size + 1;
    while !i > 0 && less h !i ((!i - 1) / 2) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  (* The least vertex; the heap must be non-empty. *)
  let pop h =
    let top = h.vert.(0) in
    h.size <- h.size - 1;
    h.prio.(0) <- h.prio.(h.size);
    h.vert.(0) <- h.vert.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && less h l !smallest then smallest := l;
      if r < h.size && less h r !smallest then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done;
    top
end

let kahn ~in_degree ~iter_succ ~priority =
  let n = Array.length in_degree in
  let heap = Heap.create n in
  for v = 0 to n - 1 do
    if in_degree.(v) = 0 then Heap.push heap (priority v) v
  done;
  let order = Array.make n (-1) in
  let emitted = ref 0 in
  let release w =
    let d = in_degree.(w) - 1 in
    in_degree.(w) <- d;
    if d = 0 then Heap.push heap (priority w) w
  in
  while heap.Heap.size > 0 do
    let v = Heap.pop heap in
    order.(!emitted) <- v;
    incr emitted;
    iter_succ v release
  done;
  if !emitted = n then Some order else None

let sort_with_priority g ~priority =
  kahn
    ~in_degree:(Array.init (Digraph.n g) (Digraph.in_degree g))
    ~iter_succ:(Digraph.iter_succ g) ~priority

let sort g = sort_with_priority g ~priority:(fun _ -> 0)

let is_acyclic g = Option.is_some (sort g)

let find_cycle g =
  let n = Digraph.n g in
  (* colors: 0 = unvisited, 1 = on current path, 2 = done *)
  let color = Array.make n 0 in
  let parent = Array.make n (-1) in
  let found = ref None in
  let rec dfs v =
    color.(v) <- 1;
    let rec scan = function
      | [] -> ()
      | w :: rest ->
          if !found = None then begin
            if color.(w) = 0 then begin
              parent.(w) <- v;
              dfs w
            end
            else if color.(w) = 1 then begin
              (* Walk back from v to w along parents. *)
              let rec back u acc = if u = w then u :: acc else back parent.(u) (u :: acc) in
              found := Some (back v [])
            end;
            scan rest
          end
    in
    scan (Digraph.succ g v);
    color.(v) <- 2
  in
  let v = ref 0 in
  while !found = None && !v < n do
    if color.(!v) = 0 then dfs !v;
    incr v
  done;
  !found

let is_topological_order g order =
  let n = Digraph.n g in
  if Array.length order <> n then false
  else begin
    let pos = Array.make n (-1) in
    let ok = ref true in
    Array.iteri
      (fun i v ->
        if v < 0 || v >= n || pos.(v) <> -1 then ok := false else pos.(v) <- i)
      order;
    if !ok then
      Digraph.iter_arcs g (fun u v -> if pos.(u) >= pos.(v) then ok := false);
    !ok
  end
