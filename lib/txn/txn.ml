open Distlock_order

type t = {
  name : string;
  steps : Step.t array;
  order : Poset.t;
  labels : string array;
}

let make ~name ?labels ~steps order =
  let n = Array.length steps in
  if Poset.size order <> n then
    invalid_arg "Txn.make: poset size differs from step count";
  let labels =
    match labels with
    | Some l ->
        if Array.length l <> n then
          invalid_arg "Txn.make: label count differs from step count";
        l
    | None -> Array.init n string_of_int
  in
  { name; steps; order; labels }

let name t = t.name

let num_steps t = Array.length t.steps

let step t i = t.steps.(i)

let steps t = Array.copy t.steps

let label t i = t.labels.(i)

let order t = t.order

let precedes t a b = Poset.precedes t.order a b

let concurrent t a b = Poset.concurrent t.order a b

let find_step t pred =
  let n = num_steps t in
  let rec go i = if i >= n then None else if pred t.steps.(i) then Some i else go (i + 1) in
  go 0

let lock_of t e =
  find_step t (fun s -> s.Step.action = Step.Lock && s.Step.entity = e)

let unlock_of t e =
  find_step t (fun s -> s.Step.action = Step.Unlock && s.Step.entity = e)

let updates_of t e =
  let acc = ref [] in
  Array.iteri
    (fun i s ->
      if s.Step.action = Step.Update && s.Step.entity = e then acc := i :: !acc)
    t.steps;
  List.rev !acc

let touched_entities t =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      if not (Hashtbl.mem seen s.Step.entity) then
        Hashtbl.add seen s.Step.entity ())
    t.steps;
  List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) seen [])

let locked_entities t =
  List.filter
    (fun e -> lock_of t e <> None && unlock_of t e <> None)
    (touched_entities t)

let steps_at_site t db site =
  let acc = ref [] in
  Array.iteri
    (fun i s -> if Database.site db s.Step.entity = site then acc := i :: !acc)
    t.steps;
  List.rev !acc

let add_precedences t arcs =
  Option.map (fun order -> { t with order }) (Poset.add_arcs t.order arcs)

let along t ext =
  if not (Poset.is_linear_extension t.order ext) then
    invalid_arg "Txn.along: not a linear extension";
  let n = num_steps t in
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) ext;
  let arcs = ref [] in
  for i = 0 to n - 2 do
    arcs := (ext.(i), ext.(i + 1)) :: !arcs
  done;
  let order =
    match Poset.of_arcs n !arcs with Some p -> p | None -> assert false
  in
  { t with order }

let is_total t = Poset.is_total t.order

(* Canonical serialization backing [fingerprint]. The name is
   length-prefixed so no choice of transaction names can make two
   different transactions serialize identically; the order relation is
   emitted in lexicographic pair order — the order {!Poset.iter_relation}
   reads the closure rows in — so the digest does not depend on
   insertion order. The text is measured first and written once into
   bytes of exactly its length. *)
let serialize t =
  let name_len = String.length t.name in
  let steps_len =
    Array.fold_left
      (fun acc (s : Step.t) -> acc + Poset.decimal_length s.Step.entity + 2)
      0 t.steps
  in
  let buf =
    Bytes.create
      (Poset.decimal_length name_len + name_len + 2 + steps_len + 1
      + Poset.relation_text_length t.order)
  in
  let pos = Poset.write_decimal buf 0 name_len in
  Bytes.set buf pos ':';
  Bytes.blit_string t.name 0 buf (pos + 1) name_len;
  let pos = pos + 1 + name_len in
  Bytes.set buf pos ':';
  let pos =
    Array.fold_left
      (fun pos (s : Step.t) ->
        Bytes.set buf pos
          (match s.Step.action with
          | Step.Lock -> 'L'
          | Step.Unlock -> 'U'
          | Step.Update -> 'u');
        let pos = Poset.write_decimal buf (pos + 1) s.Step.entity in
        Bytes.set buf pos ',';
        pos + 1)
      (pos + 1) t.steps
  in
  Bytes.set buf pos '#';
  ignore (Poset.write_relation_text t.order buf (pos + 1));
  buf

let fingerprint t = Digest.to_hex (Digest.bytes (serialize t))
