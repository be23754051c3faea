open Distlock_txn
open Distlock_order

type mode = Shared | Exclusive

type action = Lock of mode | Unlock

type step = { action : action; entity : Database.entity }

type t = {
  name : string;
  steps : step array;
  order : Poset.t;
  labels : string array;
}

let make ~name ?labels ~steps order =
  let n = Array.length steps in
  if Poset.size order <> n then
    invalid_arg "Rw_txn.make: poset size differs from step count";
  let labels =
    match labels with
    | Some l ->
        if Array.length l <> n then
          invalid_arg "Rw_txn.make: label count differs from step count";
        l
    | None -> Array.init n string_of_int
  in
  { name; steps; order; labels }

let name t = t.name

let num_steps t = Array.length t.steps

let step t i = t.steps.(i)

let label t i = t.labels.(i)

let order t = t.order

let precedes t a b = Poset.precedes t.order a b

let lock_of t e =
  let rec go i =
    if i >= num_steps t then None
    else
      match t.steps.(i) with
      | { action = Lock m; entity } when entity = e -> Some (i, m)
      | _ -> go (i + 1)
  in
  go 0

let unlock_of t e =
  let rec go i =
    if i >= num_steps t then None
    else
      match t.steps.(i) with
      | { action = Unlock; entity } when entity = e -> Some i
      | _ -> go (i + 1)
  in
  go 0

let locked_entities t =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      match s.action with
      | Lock m ->
          if
            (not (Hashtbl.mem seen s.entity)) && unlock_of t s.entity <> None
          then Hashtbl.add seen s.entity m
      | Unlock -> ())
    t.steps;
  List.sort compare (Hashtbl.fold (fun e m acc -> (e, m) :: acc) seen [])

let is_total t = Poset.is_total t.order

let validate db t =
  let msgs = ref [] in
  let report m = msgs := m :: !msgs in
  (* per-site totality *)
  let n = num_steps t in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if
        Database.site db t.steps.(a).entity
        = Database.site db t.steps.(b).entity
        && Poset.concurrent t.order a b
      then
        report
          (Printf.sprintf "steps %s and %s at the same site are unordered"
             t.labels.(a) t.labels.(b))
    done
  done;
  (* one lock/unlock pair per entity, lock before unlock *)
  let entities =
    List.sort_uniq compare
      (Array.to_list (Array.map (fun s -> s.entity) t.steps))
  in
  List.iter
    (fun e ->
      let locks = ref [] and unlocks = ref [] in
      Array.iteri
        (fun i s ->
          if s.entity = e then
            match s.action with
            | Lock _ -> locks := i :: !locks
            | Unlock -> unlocks := i :: !unlocks)
        t.steps;
      let en = Database.name db e in
      (match (!locks, !unlocks) with
      | [ l ], [ u ] ->
          if not (precedes t l u) then
            report (Printf.sprintf "unlock of %s does not follow its lock" en)
      | [], [] -> ()
      | [ _ ], [] -> report (Printf.sprintf "lock of %s is never released" en)
      | [], [ _ ] -> report (Printf.sprintf "unlock of %s without a lock" en)
      | _ -> report (Printf.sprintf "multiple lock or unlock steps for %s" en)))
    entities;
  List.rev !msgs
