open Distlock_txn
open Distlock_graph

type steps = {
  common : Database.entity array;
  lock1 : int array;
  unlock1 : int array;
  lock2 : int array;
  unlock2 : int array;
}

type t = {
  graph : Digraph.t;
  steps : steps;
  index : (Database.entity, int) Hashtbl.t;
}

let entity_bound txn =
  let m = ref 0 in
  for s = 0 to Txn.num_steps txn - 1 do
    m := max !m ((Txn.step txn s).Step.entity + 1)
  done;
  !m

(* The first lock and first unlock step of every entity, as
   [Txn.lock_of]/[Txn.unlock_of] find them, or [-1]: the scan runs
   backwards so the smallest index is written last. *)
let lock_unlock txn bound =
  let lock = Array.make bound (-1) and unlock = Array.make bound (-1) in
  for s = Txn.num_steps txn - 1 downto 0 do
    let st = Txn.step txn s in
    match st.Step.action with
    | Step.Lock -> lock.(st.Step.entity) <- s
    | Step.Unlock -> unlock.(st.Step.entity) <- s
    | Step.Update -> ()
  done;
  (lock, unlock)

let pair_steps ti tj =
  let bound = max (entity_bound ti) (entity_bound tj) in
  let li, ui = lock_unlock ti bound and lj, uj = lock_unlock tj bound in
  let common =
    Array.of_list
      (List.filter
         (fun e -> li.(e) >= 0 && ui.(e) >= 0 && lj.(e) >= 0 && uj.(e) >= 0)
         (List.init bound Fun.id))
  in
  let at a = Array.map (fun e -> a.(e)) common in
  { common; lock1 = at li; unlock1 = at ui; lock2 = at lj; unlock2 = at uj }

(* (a,b): Lx_a precedes Uy_b in Ti, and Ly_b precedes Ux_a in Tj. *)
let arc s ti tj a b =
  Txn.precedes ti s.lock1.(a) s.unlock1.(b)
  && Txn.precedes tj s.lock2.(b) s.unlock2.(a)

let build sys i j =
  let ti = System.txn sys i and tj = System.txn sys j in
  let steps = pair_steps ti tj in
  let k = Array.length steps.common in
  let index = Hashtbl.create k in
  Array.iteri (fun v e -> Hashtbl.replace index e v) steps.common;
  let g = Digraph.create k in
  for a = 0 to k - 1 do
    for b = 0 to k - 1 do
      if a <> b && arc steps ti tj a b then Digraph.add_arc g a b
    done
  done;
  { graph = g; steps; index }

let build_pair sys =
  if System.num_txns sys <> 2 then
    invalid_arg "Dgraph.build_pair: not a two-transaction system";
  build sys 0 1

let graph t = t.graph

let steps t = t.steps

let entities t = Array.copy t.steps.common

let vertex_of t e = Hashtbl.find_opt t.index e

let num_vertices t = Array.length t.steps.common

let mem_arc t x y =
  match (vertex_of t x, vertex_of t y) with
  | Some a, Some b -> Digraph.mem_arc t.graph a b
  | _ -> false

let is_strongly_connected t = Scc.is_strongly_connected t.graph

let dominators ?limit t = Dominator.enumerate ?limit t.graph

let entity_set t s = List.map (fun v -> t.steps.common.(v)) (Bitset.elements s)

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
