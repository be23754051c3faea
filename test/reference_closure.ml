(* Reference D and closure for the differential property in test_core.ml:
   Definition 1's digraph and Theorem 2's closure as the library built
   them before the stages of one pair decision shared one D. Every use
   derives D afresh from the system; the step lookup is four arrays
   sized by the largest entity id the pair's steps use; a dominator's
   membership is a [List.mem] walk per vertex, and [close] checks
   dominance with its own walk over D's arcs. The library must give the
   same vertices and steps, the same arcs in order, the same dominators
   in order, the same closure outcome for each and, on two sites, the
   same certificate schedule. *)

open Distlock_txn
open Distlock_core
module G = Distlock_graph

type steps = {
  common : Database.entity array;
  lock1 : int array;
  unlock1 : int array;
  lock2 : int array;
  unlock2 : int array;
}

type t = { graph : G.Digraph.t; steps : steps }

let entity_bound txn =
  let m = ref 0 in
  for s = 0 to Txn.num_steps txn - 1 do
    m := max !m ((Txn.step txn s).Step.entity + 1)
  done;
  !m

(* The first lock and first unlock step of every entity, or [-1]: the
   scan runs backwards so the smallest index is written last. *)
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

let arc s ti tj a b =
  Txn.precedes ti s.lock1.(a) s.unlock1.(b)
  && Txn.precedes tj s.lock2.(b) s.unlock2.(a)

let build sys =
  let ti, tj = System.pair sys in
  let steps = pair_steps ti tj in
  let k = Array.length steps.common in
  let g = G.Digraph.create k in
  for a = 0 to k - 1 do
    for b = 0 to k - 1 do
      if a <> b && arc steps ti tj a b then G.Digraph.add_arc g a b
    done
  done;
  { graph = g; steps }

let dominators d = G.Dominator.enumerate d.graph

let entity_set d x = List.map (fun v -> d.steps.common.(v)) (G.Bitset.elements x)

let find_violation s in_x t1 t2 =
  let k = Array.length s.common in
  let found = ref None in
  (try
     for z = 0 to k - 1 do
       if not in_x.(z) then
         for x = 0 to k - 1 do
           if in_x.(x) && Txn.precedes t1 s.lock1.(z) s.unlock1.(x) then
             for y = 0 to k - 1 do
               if
                 in_x.(y) && y <> x
                 && Txn.precedes t2 s.lock2.(y) s.unlock2.(z)
                 && not
                      (Txn.precedes t1 s.unlock1.(y) s.unlock1.(x)
                      && Txn.precedes t2 s.lock2.(y) s.lock2.(x))
               then begin
                 found := Some (z, x, y);
                 raise Exit
               end
             done
         done
     done
   with Exit -> ());
  !found

let membership d dominator =
  Array.map (fun e -> List.mem e dominator) d.steps.common

let is_dominator d in_x =
  let ok = ref true in
  G.Digraph.iter_arcs d.graph (fun u v ->
      if in_x.(v) && not in_x.(u) then ok := false);
  let members = Array.fold_left (fun n b -> if b then n + 1 else n) 0 in_x in
  !ok && members > 0 && members < Array.length in_x

let still_dominates s in_x t1 t2 =
  let vs = List.init (Array.length in_x) Fun.id in
  List.for_all
    (fun u ->
      in_x.(u)
      || List.for_all (fun v -> (not in_x.(v)) || not (arc s t1 t2 u v)) vs)
    vs

(* Closes [sys] with respect to [dominator], with the library's outcome
   type so the two compare directly. *)
let close sys ~dominator =
  let d = build sys in
  let in_x = membership d dominator in
  if not (is_dominator d in_x) then
    invalid_arg "Reference_closure.close: not a dominator";
  let s = d.steps in
  let rec loop t1 t2 =
    match find_violation s in_x t1 t2 with
    | None ->
        if still_dominates s in_x t1 t2 then
          Closure.Closed (System.make (System.db sys) [ t1; t2 ])
        else Closure.Failed Closure.Dominator_lost
    | Some (_z, x, y) -> (
        match Txn.add_precedences t1 [ (s.unlock1.(y), s.unlock1.(x)) ] with
        | None -> Closure.Failed (Closure.Would_cycle { txn = 0 })
        | Some t1' -> (
            match Txn.add_precedences t2 [ (s.lock2.(y), s.lock2.(x)) ] with
            | None -> Closure.Failed (Closure.Would_cycle { txn = 1 })
            | Some t2' -> loop t1' t2'))
  in
  let t1, t2 = System.pair sys in
  loop t1 t2

(* Theorem 2 on a pair with at most two sites: [Ok None] when D is
   strongly connected, else the certificate schedule of the smallest
   source component's closure; the library's failure texts. *)
let twosite_schedule sys =
  let d = build sys in
  if G.Digraph.n d.graph < 2 || G.Scc.is_strongly_connected d.graph then
    Ok None
  else
    let dominator = entity_set d (Option.get (G.Dominator.find d.graph)) in
    match close sys ~dominator with
    | Closure.Failed _ ->
        Error "Twosite.decide: closure failed on a two-site system"
    | Closure.Closed closed -> (
        match Certificate.construct ~original:sys ~closed ~dominator with
        | Ok cert -> Ok (Some cert.Certificate.schedule)
        | Error msg -> Error ("Twosite.decide: " ^ msg))
