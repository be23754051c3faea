open Distlock_txn

type t = { db : Database.t; txns : Rw_txn.t array }

let make db txns =
  if txns = [] then invalid_arg "Rw_system.make: no transactions";
  { db; txns = Array.of_list txns }

let db t = t.db

let num_txns t = Array.length t.txns

let txn t i = t.txns.(i)

let pair t =
  if num_txns t <> 2 then invalid_arg "Rw_system.pair: need two transactions";
  (t.txns.(0), t.txns.(1))

let validate t =
  Array.to_list t.txns
  |> List.concat_map (fun txn ->
         List.map
           (fun m -> Rw_txn.name txn ^ ": " ^ m)
           (Rw_txn.validate t.db txn))

type event = int * int

(* Lock table state during replay: per entity, the list of (txn, mode)
   holders. Compatible iff all holders (old and new) are Shared. *)
let replay t events ~on_illegal =
  let holders : (Database.entity, (int * Rw_txn.mode) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let progressed = Array.map (fun txn -> Array.make (Rw_txn.num_steps txn) false) t.txns in
  let ok = ref true in
  List.iter
    (fun (i, s) ->
      if !ok then begin
        let txn = t.txns.(i) in
        (* order respected *)
        for p = 0 to Rw_txn.num_steps txn - 1 do
          if Rw_txn.precedes txn p s && not progressed.(i).(p) then begin
            ok := false;
            on_illegal `Order
          end
        done;
        progressed.(i).(s) <- true;
        let step = Rw_txn.step txn s in
        match step.Rw_txn.action with
        | Rw_txn.Lock m ->
            let current =
              Option.value ~default:[] (Hashtbl.find_opt holders step.Rw_txn.entity)
            in
            let compatible =
              m = Rw_txn.Shared
              && List.for_all (fun (_, hm) -> hm = Rw_txn.Shared) current
              || current = []
            in
            if not compatible then begin
              ok := false;
              on_illegal `Lock
            end
            else
              Hashtbl.replace holders step.Rw_txn.entity ((i, m) :: current)
        | Rw_txn.Unlock -> (
            let current =
              Option.value ~default:[] (Hashtbl.find_opt holders step.Rw_txn.entity)
            in
            match List.partition (fun (h, _) -> h = i) current with
            | [ _ ], rest -> Hashtbl.replace holders step.Rw_txn.entity rest
            | _ ->
                ok := false;
                on_illegal `Unlock)
      end)
    events;
  !ok

let is_complete t events =
  let expected =
    Array.fold_left (fun acc txn -> acc + Rw_txn.num_steps txn) 0 t.txns
  in
  List.length events = expected
  && List.length (List.sort_uniq compare events) = expected

let is_legal t events =
  is_complete t events && replay t events ~on_illegal:(fun _ -> ())

(* Conflict serializability: per entity, the locked sections of different
   transactions conflict unless both shared; sections are ordered by
   position of their steps in the schedule. *)
let is_serializable t events =
  let pos = Hashtbl.create 64 in
  List.iteri (fun p ev -> Hashtbl.replace pos ev p) events;
  let n = num_txns t in
  let g = Distlock_graph.Digraph.create n in
  let entities =
    List.sort_uniq compare
      (Array.to_list t.txns
      |> List.concat_map (fun txn ->
             List.map fst (Rw_txn.locked_entities txn)))
  in
  List.iter
    (fun e ->
      let sections =
        List.filteri (fun _ _ -> true)
          (List.filter_map
             (fun i ->
               let txn = t.txns.(i) in
               match (Rw_txn.lock_of txn e, Rw_txn.unlock_of txn e) with
               | Some (l, m), Some u -> (
                   match
                     (Hashtbl.find_opt pos (i, l), Hashtbl.find_opt pos (i, u))
                   with
                   | Some pl, Some pu -> Some (i, m, pl, pu)
                   | _ -> None)
               | _ -> None)
             (List.init n Fun.id))
      in
      let rec pairs = function
        | [] -> ()
        | (i, mi, _li, ui) :: rest ->
            List.iter
              (fun (j, mj, lj, uj) ->
                if not (mi = Rw_txn.Shared && mj = Rw_txn.Shared) then
                  if ui < lj then Distlock_graph.Digraph.add_arc g i j
                  else if uj < _li then Distlock_graph.Digraph.add_arc g j i
                  else begin
                    (* overlapping conflicting sections: illegal schedule *)
                    Distlock_graph.Digraph.add_arc g i j;
                    Distlock_graph.Digraph.add_arc g j i
                  end)
              rest;
            pairs rest
      in
      pairs sections)
    entities;
  Distlock_graph.Topo.is_acyclic g

let iter_legal t f =
  let n = num_txns t in
  let done_ = Array.map (fun txn -> Array.make (Rw_txn.num_steps txn) false) t.txns in
  let holders : (Database.entity, (int * Rw_txn.mode) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let total =
    Array.fold_left (fun acc txn -> acc + Rw_txn.num_steps txn) 0 t.txns
  in
  let trace = ref [] in
  let enabled i s =
    let txn = t.txns.(i) in
    (not done_.(i).(s))
    && (let ok = ref true in
        for p = 0 to Rw_txn.num_steps txn - 1 do
          if Rw_txn.precedes txn p s && not done_.(i).(p) then ok := false
        done;
        !ok)
    &&
    let step = Rw_txn.step txn s in
    match step.Rw_txn.action with
    | Rw_txn.Lock m ->
        let current =
          Option.value ~default:[] (Hashtbl.find_opt holders step.Rw_txn.entity)
        in
        current = []
        || (m = Rw_txn.Shared
           && List.for_all (fun (_, hm) -> hm = Rw_txn.Shared) current)
    | Rw_txn.Unlock -> true
  in
  let apply i s =
    let step = Rw_txn.step t.txns.(i) s in
    done_.(i).(s) <- true;
    trace := (i, s) :: !trace;
    match step.Rw_txn.action with
    | Rw_txn.Lock m ->
        let current =
          Option.value ~default:[] (Hashtbl.find_opt holders step.Rw_txn.entity)
        in
        Hashtbl.replace holders step.Rw_txn.entity ((i, m) :: current)
    | Rw_txn.Unlock ->
        let current =
          Option.value ~default:[] (Hashtbl.find_opt holders step.Rw_txn.entity)
        in
        Hashtbl.replace holders step.Rw_txn.entity
          (List.filter (fun (h, _) -> h <> i) current)
  in
  let undo i s =
    let step = Rw_txn.step t.txns.(i) s in
    done_.(i).(s) <- false;
    (match !trace with _ :: tl -> trace := tl | [] -> ());
    match step.Rw_txn.action with
    | Rw_txn.Lock _ ->
        let current =
          Option.value ~default:[] (Hashtbl.find_opt holders step.Rw_txn.entity)
        in
        Hashtbl.replace holders step.Rw_txn.entity
          (List.filter (fun (h, _) -> h <> i) current)
    | Rw_txn.Unlock -> (
        match Rw_txn.lock_of t.txns.(i) step.Rw_txn.entity with
        | Some (_, m) ->
            let current =
              Option.value ~default:[]
                (Hashtbl.find_opt holders step.Rw_txn.entity)
            in
            Hashtbl.replace holders step.Rw_txn.entity ((i, m) :: current)
        | None -> ())
  in
  let executed = ref 0 in
  let rec go () =
    if !executed = total then f (List.rev !trace)
    else
      for i = 0 to n - 1 do
        for s = 0 to Rw_txn.num_steps t.txns.(i) - 1 do
          if enabled i s then begin
            apply i s;
            incr executed;
            go ();
            decr executed;
            undo i s
          end
        done
      done
  in
  go ()

let safe ?(limit = 2_000_000) t =
  let count = ref 0 in
  let exception Unsafe in
  try
    iter_legal t (fun events ->
        incr count;
        if !count > limit then failwith "Rw_system.safe: limit exceeded";
        if not (is_serializable t events) then raise Unsafe);
    true
  with Unsafe -> false

let conflicting_common t =
  let t1, t2 = pair t in
  let l1 = Rw_txn.locked_entities t1 and l2 = Rw_txn.locked_entities t2 in
  List.filter_map
    (fun (e, m1) ->
      match List.assoc_opt e l2 with
      | Some m2
        when not (m1 = Rw_txn.Shared && m2 = Rw_txn.Shared) ->
          Some e
      | _ -> None)
    l1
