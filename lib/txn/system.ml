type t = { db : Database.t; txns : Txn.t array }

let make db txns =
  if txns = [] then invalid_arg "System.make: no transactions";
  let names = List.map Txn.name txns in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "System.make: duplicate transaction names";
  { db; txns = Array.of_list txns }

let db t = t.db

let txns t = Array.copy t.txns

let num_txns t = Array.length t.txns

let txn t i = t.txns.(i)

let total_steps t =
  Array.fold_left (fun acc txn -> acc + Txn.num_steps txn) 0 t.txns

let pair t =
  if Array.length t.txns <> 2 then
    invalid_arg "System.pair: not a two-transaction system";
  (t.txns.(0), t.txns.(1))

let common_locked_txns ta tb =
  let b = Txn.locked_entities tb in
  List.filter (fun e -> List.mem e b) (Txn.locked_entities ta)

let common_locked t i j = common_locked_txns t.txns.(i) t.txns.(j)

let validate ?strict t =
  List.concat_map
    (fun txn -> List.map (fun v -> (txn, v)) (Validate.check ?strict t.db txn))
    (Array.to_list t.txns)

let validate_exn ?strict t =
  Array.iter (Validate.check_exn ?strict t.db) t.txns

let sites_used t =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun txn ->
      List.iter
        (fun e ->
          let s = Database.site t.db e in
          if not (Hashtbl.mem seen s) then Hashtbl.add seen s ())
        (Txn.touched_entities txn))
    t.txns;
  List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) seen [])

(* Entity names are length-prefixed so no choice of names can make two
   different databases serialize identically. *)
let add_entities buf db es =
  List.iter
    (fun e ->
      let n = Database.name db e in
      Buffer.add_string buf (string_of_int (String.length n));
      Buffer.add_string buf ":";
      Buffer.add_string buf n;
      Buffer.add_string buf "@";
      Buffer.add_string buf (string_of_int (Database.site db e));
      Buffer.add_string buf ";")
    es

(* System and pair fingerprints are digests over per-transaction digests
   ({!Txn.fingerprint}) plus the relevant slice of the stored-at
   function, so all three levels agree on what a transaction's identity
   is and the pair digest is invariant under any change to transactions
   outside the pair. *)
let fingerprint t =
  let buf = Buffer.create 512 in
  add_entities buf t.db (Database.entities t.db);
  Array.iter
    (fun txn ->
      Buffer.add_string buf "|";
      Buffer.add_string buf (Txn.fingerprint txn))
    t.txns;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let txns_pair_fingerprint db (ta, a) (tb, b) =
  let lo, hi = if a <= b then (a, b) else (b, a) in
  let touched =
    List.sort_uniq compare (Txn.touched_entities ta @ Txn.touched_entities tb)
  in
  let buf = Buffer.create 160 in
  add_entities buf db touched;
  Buffer.add_string buf "|";
  Buffer.add_string buf lo;
  Buffer.add_string buf "|";
  Buffer.add_string buf hi;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pair_fingerprint_with ~fp t i j =
  if i = j then invalid_arg "System.pair_fingerprint: equal indices";
  txns_pair_fingerprint t.db (t.txns.(i), fp i) (t.txns.(j), fp j)

let pair_fingerprint t =
  pair_fingerprint_with ~fp:(fun i -> Txn.fingerprint t.txns.(i)) t
