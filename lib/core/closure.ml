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

(* No arc of the extended pair's D enters X from outside: its arcs are
   recomputed from [D]'s step lookup under the closed orders. *)
let still_dominates (s : Dgraph.steps) in_x t1 t2 =
  let vs = List.init (Array.length in_x) Fun.id in
  List.for_all
    (fun u ->
      in_x.(u)
      || List.for_all (fun v -> (not in_x.(v)) || not (Dgraph.arc s t1 t2 u v)) vs)
    vs

(* The dominator as the bool array [find_violation] reads, and whether
   it dominates [D]: one dominance check per close, on [D] itself. *)
let membership d dominator =
  let x = Dgraph.vertex_set d dominator in
  ( Array.init (Bitset.capacity x) (Bitset.mem x),
    Dominator.is_dominator (Dgraph.graph d) x )

let close_in d in_x =
  let s = Dgraph.steps d in
  let rec loop t1 t2 =
    match find_violation s in_x t1 t2 with
    | None ->
        if still_dominates s in_x t1 t2 then
          Closed (System.make (System.db (Dgraph.system d)) [ t1; t2 ])
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
  let t1, t2 = System.pair (Dgraph.system d) in
  loop t1 t2

let close d ~dominator =
  match membership d dominator with
  | in_x, true -> close_in d in_x
  | _, false -> invalid_arg "Closure.close: not a dominator of D(T1,T2)"

let is_closed sys ~dominator =
  let t1, t2 = System.pair sys in
  let d = Dgraph.build_pair sys in
  find_violation (Dgraph.steps d) (fst (membership d dominator)) t1 t2 = None

let first_closing d candidates =
  Seq.find_map
    (fun dominator ->
      match membership d dominator with
      | in_x, true -> (
          match close_in d in_x with
          | Closed closed -> Some (dominator, closed)
          | Failed _ -> None)
      | _, false -> None)
    candidates

let dominator_sets sys = Dgraph.dominators (Dgraph.build_pair sys)

let first_unsafe_dominator d =
  let doms =
    try Dgraph.dominators d
    with Failure _ -> failwith "Closure.first_unsafe_dominator: too many dominators"
  in
  first_closing d (Seq.map (Dgraph.entity_set d) (List.to_seq doms))
