open Distlock_txn

let lock_steps t =
  let acc = ref [] in
  for i = Txn.num_steps t - 1 downto 0 do
    if Step.is_lock (Txn.step t i) then acc := i :: !acc
  done;
  !acc

let unlock_steps t =
  let acc = ref [] in
  for i = Txn.num_steps t - 1 downto 0 do
    if Step.is_unlock (Txn.step t i) then acc := i :: !acc
  done;
  !acc

let is_two_phase_strong t =
  let locks = lock_steps t and unlocks = unlock_steps t in
  List.for_all
    (fun l -> List.for_all (fun u -> Txn.precedes t l u) unlocks)
    locks

let is_two_phase_weak t =
  let locks = lock_steps t and unlocks = unlock_steps t in
  List.for_all
    (fun l -> List.for_all (fun u -> not (Txn.precedes t u l)) unlocks)
    locks

let all_two_phase_strong sys =
  Array.for_all is_two_phase_strong (System.txns sys)

let all_two_phase_weak sys = Array.for_all is_two_phase_weak (System.txns sys)

(* D has no loops and no repeated arcs: complete iff it has k(k-1). *)
let strong_2pl_is_dgraph_complete sys =
  let d = Dgraph.build_pair sys in
  let k = Dgraph.num_vertices d in
  Distlock_graph.Digraph.num_arcs (Dgraph.graph d) = k * (k - 1)

let make_two_phase t =
  let locks = lock_steps t and unlocks = unlock_steps t in
  let arcs =
    List.concat_map (fun l -> List.map (fun u -> (l, u)) unlocks) locks
  in
  Txn.add_precedences t arcs
