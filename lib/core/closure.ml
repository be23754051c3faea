open Distlock_txn
open Distlock_graph

type failure = Would_cycle of { txn : int } | Dominator_lost

type outcome = Closed of System.t | Failed of failure

(* Find one Definition 3 violation: (z, x, y) satisfying the hypotheses
   whose conclusions do not (both) hold yet. The scan is lexicographic,
   so each step of [close] repairs the first violation in that order. *)
let find_violation (s : Dgraph.steps) in_x t1 t2 =
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
  Array.map (fun e -> List.mem e dominator) (Dgraph.steps d).common

let is_dominator d in_x =
  let ok = ref true in
  Digraph.iter_arcs (Dgraph.graph d) (fun u v ->
      if in_x.(v) && not in_x.(u) then ok := false);
  let members = Array.fold_left (fun n b -> if b then n + 1 else n) 0 in_x in
  !ok && members > 0 && members < Array.length in_x

(* No arc of the extended pair's D enters X from outside: its arcs are
   recomputed from [D]'s step lookup under the closed orders. *)
let still_dominates (s : Dgraph.steps) in_x t1 t2 =
  let vs = List.init (Array.length in_x) Fun.id in
  List.for_all
    (fun u ->
      in_x.(u)
      || List.for_all (fun v -> (not in_x.(v)) || not (Dgraph.arc s t1 t2 u v)) vs)
    vs

let close_in d sys in_x =
  let s = Dgraph.steps d in
  let rec loop t1 t2 =
    match find_violation s in_x t1 t2 with
    | None ->
        if still_dominates s in_x t1 t2 then
          Closed (System.make (System.db sys) [ t1; t2 ])
        else Failed Dominator_lost
    | Some (_z, x, y) -> (
        (* Add Uy -> Ux in T1 and Ly -> Lx in T2 (Lemma 2's inference). *)
        match Txn.add_precedences t1 [ (s.unlock1.(y), s.unlock1.(x)) ] with
        | None -> Failed (Would_cycle { txn = 0 })
        | Some t1' -> (
            match Txn.add_precedences t2 [ (s.lock2.(y), s.lock2.(x)) ] with
            | None -> Failed (Would_cycle { txn = 1 })
            | Some t2' -> loop t1' t2'))
  in
  let t1, t2 = System.pair sys in
  loop t1 t2

let is_closed sys ~dominator =
  let t1, t2 = System.pair sys in
  let d = Dgraph.build_pair sys in
  find_violation (Dgraph.steps d) (membership d dominator) t1 t2 = None

let close sys ~dominator =
  let d = Dgraph.build_pair sys in
  let in_x = membership d dominator in
  if not (is_dominator d in_x) then
    invalid_arg "Closure.close: not a dominator of D(T1,T2)";
  close_in d sys in_x

let first_closing_in d sys candidates =
  Seq.find_map
    (fun dominator ->
      let in_x = membership d dominator in
      if not (is_dominator d in_x) then None
      else
        match close_in d sys in_x with
        | Closed closed -> Some (dominator, closed)
        | Failed _ -> None)
    candidates

let first_closing sys candidates =
  first_closing_in (Dgraph.build_pair sys) sys candidates

let dominator_sets sys =
  let d = Dgraph.build_pair sys in
  Dgraph.dominators d

let first_unsafe_dominator ?(limit = 100_000) sys =
  let d = Dgraph.build_pair sys in
  let doms =
    try Dgraph.dominators ~limit d
    with Failure _ -> failwith "Closure.first_unsafe_dominator: too many dominators"
  in
  first_closing_in d sys (Seq.map (Dgraph.entity_set d) (List.to_seq doms))
