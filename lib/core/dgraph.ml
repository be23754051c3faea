open Distlock_txn
open Distlock_graph

type steps = {
  common : Database.entity array;
  lock1 : int array;
  unlock1 : int array;
  lock2 : int array;
  unlock2 : int array;
}

type t = { system : System.t; graph : Digraph.t; steps : steps }

(* One row per entity [txn] touches, ascending: the entity, its first
   lock and first unlock step (or -1), as [Txn.lock_of]/[Txn.unlock_of]
   find them. The step indices are sorted stably by entity, so each
   entity's steps form one run in index order, and every array is sized
   by the step count, never by the largest entity id. *)
let lock_unlock txn =
  let n = Txn.num_steps txn in
  let entity s = (Txn.step txn s).Step.entity in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare (entity a) (entity b)) order;
  let ents = Array.make n (-1) and lock = Array.make n (-1) in
  let unlock = Array.make n (-1) and k = ref (-1) in
  Array.iter
    (fun s ->
      let st = Txn.step txn s in
      if !k < 0 || ents.(!k) <> st.Step.entity then begin
        incr k;
        ents.(!k) <- st.Step.entity
      end;
      match st.Step.action with
      | Step.Lock -> if lock.(!k) < 0 then lock.(!k) <- s
      | Step.Unlock -> if unlock.(!k) < 0 then unlock.(!k) <- s
      | Step.Update -> ())
    order;
  (!k + 1, ents, lock, unlock)

(* One merge of the two transactions' rows, keeping the entities both
   lock and unlock. *)
let pair_steps ti tj =
  let ni, ei, li, ui = lock_unlock ti and nj, ej, lj, uj = lock_unlock tj in
  let a = ref 0 and b = ref 0 and both = ref [] in
  while !a < ni && !b < nj do
    let c = Int.compare ei.(!a) ej.(!b) in
    if c = 0 && min li.(!a) ui.(!a) >= 0 && min lj.(!b) uj.(!b) >= 0 then
      both := (!a, !b) :: !both;
    if c <= 0 then incr a;
    if c >= 0 then incr b
  done;
  let both = Array.of_list (List.rev !both) in
  let at side steps = Array.map (fun p -> steps.(side p)) both in
  {
    common = at fst ei;
    lock1 = at fst li;
    unlock1 = at fst ui;
    lock2 = at snd lj;
    unlock2 = at snd uj;
  }

(* (a,b): Lx_a precedes Uy_b in Ti, and Ly_b precedes Ux_a in Tj. *)
let arc s ti tj a b =
  Txn.precedes ti s.lock1.(a) s.unlock1.(b)
  && Txn.precedes tj s.lock2.(b) s.unlock2.(a)

let build_pair system =
  let ti, tj = System.pair system in
  let steps = pair_steps ti tj in
  let k = Array.length steps.common in
  let g = Digraph.create k in
  for a = 0 to k - 1 do
    for b = 0 to k - 1 do
      if a <> b && arc steps ti tj a b then Digraph.add_arc g a b
    done
  done;
  { system; graph = g; steps }

let system t = t.system

let graph t = t.graph

let steps t = t.steps

let entities t = Array.copy t.steps.common

let num_vertices t = Array.length t.steps.common

let is_strongly_connected t = Scc.is_strongly_connected t.graph

let dominators t = Dominator.enumerate t.graph

let entity_set t s = List.map (fun v -> t.steps.common.(v)) (Bitset.elements s)

(* Binary search in the ascending vertex-to-entity array. *)
let vertex_set t entities =
  let common = t.steps.common in
  let s = Bitset.create (Array.length common) in
  let rec find e lo hi =
    let mid = (lo + hi) / 2 in
    if lo >= hi then ()
    else if common.(mid) < e then find e (mid + 1) hi
    else if common.(mid) > e then find e lo mid
    else Bitset.add s mid
  in
  List.iter (fun e -> find e 0 (Array.length common)) entities;
  s

let pp db ppf t =
  Format.fprintf ppf "@[<v>D-graph on {%s}:@,"
    (String.concat ", "
       (Array.to_list (Array.map (Database.name db) t.steps.common)));
  List.iter
    (fun (a, b) ->
      Format.fprintf ppf "  %s -> %s@,"
        (Database.name db t.steps.common.(a))
        (Database.name db t.steps.common.(b)))
    (Digraph.arcs t.graph);
  Format.fprintf ppf "@]"
