type action = Lock | Unlock | Update

type t = { action : action; entity : Database.entity }

let lock entity = { action = Lock; entity }

let unlock entity = { action = Unlock; entity }

let update entity = { action = Update; entity }

let is_lock s = s.action = Lock

let is_unlock s = s.action = Unlock

let is_update s = s.action = Update

let equal a b = a.action = b.action && a.entity = b.entity

let to_string db s =
  let n = Database.name db s.entity in
  match s.action with Lock -> "L" ^ n | Unlock -> "U" ^ n | Update -> n
