open Distlock_txn
open Distlock_graph

type verdict = Serializable of int list | Not_serializable of int list

(* The conflict relation as an n×n matrix, [m.(i).(j)] for the arc
   [i -> j]. Per (entity, txn): the span of positions at which the
   transaction accesses the entity — the locked section when one exists,
   otherwise the bare update positions. Entities get columns in order of
   first access, so the span arrays grow with the schedule, not with the
   database. *)
let relation sys sched =
  let n = System.num_txns sys and len = Schedule.length sched in
  let entity pos =
    let i, s = Schedule.event sched pos in
    (Txn.step (System.txn sys i) s).Step.entity
  in
  let column = Array.make (Database.num_entities (System.db sys)) (-1) in
  let columns = ref 0 in
  for pos = 0 to len - 1 do
    let e = entity pos in
    if column.(e) < 0 then begin
      column.(e) <- !columns;
      incr columns
    end
  done;
  (* [first.(c).(i)]/[last.(c).(i)]: txn [i]'s span on column [c], -1
     when it does not access that entity. *)
  let first = Array.make_matrix !columns n (-1)
  and last = Array.make_matrix !columns n (-1) in
  for pos = 0 to len - 1 do
    let c = column.(entity pos) and i = fst (Schedule.event sched pos) in
    if first.(c).(i) < 0 then first.(c).(i) <- pos;
    last.(c).(i) <- pos
  done;
  let m = Array.make_matrix n n false in
  for c = 0 to !columns - 1 do
    let first = first.(c) and last = last.(c) in
    for i = 0 to n - 1 do
      let fi = first.(i) and li = last.(i) in
      if fi >= 0 then
        for j = i + 1 to n - 1 do
          let fj = first.(j) and lj = last.(j) in
          if fj >= 0 then
            if li < fj then m.(i).(j) <- true
            else if lj < fi then m.(j).(i) <- true
            else begin
              (* Overlapping accesses on the same entity: only
                 possible in illegal schedules; record both
                 directions so the cycle is caught. *)
              m.(i).(j) <- true;
              m.(j).(i) <- true
            end
        done
    done
  done;
  m

let digraph m =
  let n = Array.length m in
  let g = Digraph.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if m.(i).(j) then Digraph.add_arc g i j
    done
  done;
  g

let graph sys sched = digraph (relation sys sched)

(* [Topo.kahn] over the matrix: the least-index topological order, as
   [Topo.sort] gives on the digraph. *)
let check sys sched =
  let m = relation sys sched in
  let n = Array.length m in
  let in_degree = Array.make n 0 in
  Array.iter
    (Array.iteri (fun j arc -> if arc then in_degree.(j) <- in_degree.(j) + 1))
    m;
  let iter_succ v f =
    for w = 0 to n - 1 do
      if m.(v).(w) then f w
    done
  in
  match Topo.kahn ~in_degree ~iter_succ ~priority:(fun _ -> 0) with
  | Some order -> Serializable (Array.to_list order)
  | None -> (
      match Topo.find_cycle (digraph m) with
      | Some cycle -> Not_serializable cycle
      | None -> assert false)

let is_serializable sys sched =
  match check sys sched with Serializable _ -> true | Not_serializable _ -> false
