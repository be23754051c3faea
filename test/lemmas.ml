open Distlock_txn
open Distlock_core

let lemma1 ?(limit = 1_000_000) sys =
  let left =
    match Brute.safe_by_schedules ~limit sys with
    | Brute.Safe -> true
    | Brute.Unsafe _ -> false
    | Brute.Exhausted _ -> failwith "Lemmas.lemma1: schedule budget exhausted"
  in
  let right =
    match Brute.safe_by_extensions ~limit sys with
    | Brute.Safe -> true
    | Brute.Unsafe _ -> false
    | Brute.Exhausted _ -> failwith "Lemmas.lemma1: picture budget exhausted"
  in
  left = right

(* Triples (z, x, y) satisfying Lemma 2's hypotheses. *)
let matching_triples sys ~dominator =
  let t1, t2 = System.pair sys in
  let common = System.common_locked sys 0 1 in
  let in_x e = List.mem e dominator in
  let l1 e = Option.get (Txn.lock_of t1 e)
  and u1 e = Option.get (Txn.unlock_of t1 e)
  and l2 e = Option.get (Txn.lock_of t2 e)
  and u2 e = Option.get (Txn.unlock_of t2 e) in
  List.concat_map
    (fun z ->
      if in_x z then []
      else
        List.concat_map
          (fun x ->
            if (not (in_x x)) || not (Txn.precedes t1 (l1 z) (u1 x)) then []
            else
              List.filter_map
                (fun y ->
                  if in_x y && Txn.precedes t2 (l2 y) (u2 z) then
                    Some (z, x, y)
                  else None)
                common)
          common)
    common

let check_dominator sys ~dominator =
  let d = Dgraph.build_pair sys in
  let g = Dgraph.graph d in
  let entities = Dgraph.entities d in
  let in_x = Array.map (fun e -> List.mem e dominator) entities in
  let ok = ref true in
  Distlock_graph.Digraph.iter_arcs g (fun u v ->
      if in_x.(v) && not in_x.(u) then ok := false);
  let members = Array.to_list in_x |> List.filter Fun.id |> List.length in
  if not (!ok && members > 0 && members < Array.length entities) then
    invalid_arg "Lemmas: not a dominator of D(T1,T2)"

let lemma2 sys ~dominator =
  check_dominator sys ~dominator;
  let t1, t2 = System.pair sys in
  let l2s e = Option.get (Txn.lock_of t2 e)
  and u1 e = Option.get (Txn.unlock_of t1 e) in
  List.for_all
    (fun (_z, x, y) ->
      x <> y
      && (not (Txn.precedes t1 (u1 x) (u1 y)))
      && not (Txn.precedes t2 (l2s x) (l2s y)))
    (matching_triples sys ~dominator)

let lemma3 sys ~dominator =
  check_dominator sys ~dominator;
  if List.length (System.sites_used sys) > 2 then
    invalid_arg "Lemmas.lemma3: more than two sites";
  let t1, t2 = System.pair sys in
  let u1 e = Option.get (Txn.unlock_of t1 e)
  and l2 e = Option.get (Txn.lock_of t2 e) in
  List.for_all
    (fun (_z, x, y) ->
      match
        ( Txn.add_precedences t1 [ (u1 y, u1 x) ],
          Txn.add_precedences t2 [ (l2 y, l2 x) ] )
      with
      | Some t1', Some t2' -> (
          let sys' = System.make (System.db sys) [ t1'; t2' ] in
          (* dominator preserved in D of the one-step extension *)
          try
            check_dominator sys' ~dominator;
            true
          with Invalid_argument _ -> false)
      | _ -> false (* two-site closure steps never contradict (Lemma 2) *))
    (matching_triples sys ~dominator)

let corollary2 sys ~dominator =
  check_dominator sys ~dominator;
  if not (Closure.is_closed sys ~dominator) then true
  else
    match Certificate.construct ~original:sys ~closed:sys ~dominator with
    | Ok cert -> Certificate.verify sys cert
    | Error _ -> false
