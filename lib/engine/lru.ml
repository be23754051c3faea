type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* towards MRU *)
  mutable next : 'a node option;  (* towards LRU *)
}

type 'a t = {
  tbl : (string, 'a node) Hashtbl.t;
  cap : int;
  mutable first : 'a node option;  (* most-recently used *)
  mutable last : 'a node option;  (* least-recently used *)
  mutable evicted : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  { tbl = Hashtbl.create (2 * capacity); cap = capacity; first = None;
    last = None; evicted = 0 }

let capacity t = t.cap

let length t = Hashtbl.length t.tbl

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.first <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.last <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.first;
  n.prev <- None;
  (match t.first with Some f -> f.prev <- Some n | None -> t.last <- Some n);
  t.first <- Some n

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.value

let mem t key = Hashtbl.mem t.tbl key

let evict_last t =
  match t.last with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.tbl n.key;
      t.evicted <- t.evicted + 1

let add t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
      n.value <- value;
      unlink t n;
      push_front t n
  | None ->
      if Hashtbl.length t.tbl >= t.cap then evict_last t;
      let n = { key; value; prev = None; next = None } in
      Hashtbl.add t.tbl key n;
      push_front t n

let evictions t = t.evicted

let clear t =
  Hashtbl.reset t.tbl;
  t.first <- None;
  t.last <- None
