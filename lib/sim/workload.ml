open Distlock_txn

type style = Two_phase | Sequential | Random_locked of float

let make rng ~db ~style ~num_txns ~entities_per_txn =
  let all = Array.of_list (Database.entities db) in
  if entities_per_txn > Array.length all then
    invalid_arg "Workload.make: not enough entities";
  let pick () =
    for i = Array.length all - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- t
    done;
    Array.to_list (Array.sub all 0 entities_per_txn)
  in
  let txns =
    List.init num_txns (fun k ->
        let name = Printf.sprintf "T%d" (k + 1) in
        let entities = pick () in
        match style with
        | Two_phase ->
            Builder.two_phase_sequence db ~name
              (List.map (Database.name db) entities)
        | Sequential ->
            Builder.locked_sequence db ~name
              (List.map (Database.name db) entities)
        | Random_locked cross_prob ->
            Txn_gen.random_txn rng db ~name ~entities ~with_updates:true
              ~cross_prob ())
  in
  System.make db txns

(* Shared safety-decision engine for Esim.measure's precheck: a small
   cache pays off because experiments re-measure structurally identical
   systems (same fingerprint) across sweeps. *)
let precheck_engine = lazy (Distlock_core.Decision.create ~cache_capacity:64 ())

let proven_safe sys =
  let o =
    Distlock_core.Decision.decide
      ~budget:(Distlock_engine.Budget.of_steps 200_000)
      (Lazy.force precheck_engine) sys
  in
  match o.Distlock_engine.Outcome.verdict with
  | Distlock_engine.Outcome.Safe -> true
  | Distlock_engine.Outcome.Unsafe _ | Distlock_engine.Outcome.Unknown _ ->
      false
