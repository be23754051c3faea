type result = { count : int; component : int array }

(* Iterative Tarjan: an explicit stack avoids stack overflow on the long
   chain-shaped graphs the benchmarks generate. *)
let compute g =
  let n = Digraph.n g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let component = Array.make n (-1) in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let visit root =
    (* Frame: vertex and the list of successors still to process. *)
    let frames = ref [ (root, ref (Digraph.succ g root)) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !frames <> [] do
      match !frames with
      | [] -> ()
      | (v, todo) :: rest -> (
          match !todo with
          | w :: more ->
              todo := more;
              if index.(w) = -1 then begin
                index.(w) <- !next_index;
                lowlink.(w) <- !next_index;
                incr next_index;
                stack := w :: !stack;
                on_stack.(w) <- true;
                frames := (w, ref (Digraph.succ g w)) :: !frames
              end
              else if on_stack.(w) then
                lowlink.(v) <- min lowlink.(v) index.(w)
          | [] ->
              if lowlink.(v) = index.(v) then begin
                let continue = ref true in
                while !continue do
                  match !stack with
                  | [] -> assert false
                  | w :: tl ->
                      stack := tl;
                      on_stack.(w) <- false;
                      component.(w) <- !next_comp;
                      if w = v then continue := false
                done;
                incr next_comp
              end;
              frames := rest;
              (match rest with
              | (parent, _) :: _ ->
                  lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
              | [] -> ()))
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  { count = !next_comp; component }

let is_strongly_connected g = (compute g).count <= 1

let condensation g r =
  let c = Digraph.create r.count in
  Digraph.iter_arcs g (fun u v ->
      let cu = r.component.(u) and cv = r.component.(v) in
      if cu <> cv then Digraph.add_arc c cu cv);
  c

let component_sets g r =
  let n = Digraph.n g in
  let sets = Array.init r.count (fun _ -> Bitset.create n) in
  for v = 0 to n - 1 do
    Bitset.add sets.(r.component.(v)) v
  done;
  sets
