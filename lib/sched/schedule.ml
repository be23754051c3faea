open Distlock_txn

type event = int * int

type t = { events : event array }

let of_events l = { events = Array.of_list l }

let events t = Array.to_list t.events

let length t = Array.length t.events

let event t i = t.events.(i)

let serial sys order =
  let acc = ref [] in
  List.iter
    (fun i ->
      let txn = System.txn sys i in
      let ext = Distlock_order.Poset.linearize (Txn.order txn) in
      Array.iter (fun s -> acc := (i, s) :: !acc) ext)
    order;
  { events = Array.of_list (List.rev !acc) }

let is_complete sys t =
  let n = System.num_txns sys in
  let expected =
    Array.init n (fun i -> Txn.num_steps (System.txn sys i))
  in
  let seen = Array.map (fun k -> Array.make k 0) expected in
  let ok = ref (Array.length t.events = Array.fold_left ( + ) 0 expected) in
  Array.iter
    (fun (i, s) ->
      if i < 0 || i >= n || s < 0 || s >= expected.(i) then ok := false
      else begin
        seen.(i).(s) <- seen.(i).(s) + 1;
        if seen.(i).(s) > 1 then ok := false
      end)
    t.events;
  !ok

let project t i =
  let acc = ref [] in
  Array.iter (fun (j, s) -> if j = i then acc := s :: !acc) t.events;
  Array.of_list (List.rev !acc)

let to_string sys t =
  let db = System.db sys in
  String.concat " "
    (List.map
       (fun (i, s) ->
         Printf.sprintf "%s_%d"
           (Step.to_string db (Txn.step (System.txn sys i) s))
           (i + 1))
       (events t))
