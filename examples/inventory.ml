(* A three-site warehouse: stock at site 1, orders at site 2, shipping
   manifests at site 3. Three transactions — restock, order fulfilment,
   and a manifest reconciler — run concurrently; safety of the trio is
   decided with Proposition 2 (conflict-graph cycles and the B_c graphs)
   and cross-checked against the exhaustive oracle and the simulator.

   Run with: dune exec examples/inventory.exe *)

open Distlock_core
open Distlock_txn

let db () =
  let db = Database.create () in
  Database.add_all db
    [ ("stock", 1); ("reserved", 1); ("orders", 2); ("manifest", 3) ];
  db

let restock db ~two_phase =
  if two_phase then
    Builder.two_phase_sequence db ~name:"restock" [ "stock"; "manifest" ]
  else
    Builder.total db ~name:"restock"
      [
        `Lock "stock"; `Update "stock"; `Unlock "stock"; `Lock "manifest";
        `Update "manifest"; `Unlock "manifest";
      ]

let fulfil db ~two_phase =
  if two_phase then
    Builder.two_phase_sequence db ~name:"fulfil" [ "orders"; "stock"; "reserved" ]
  else
    Builder.locked_sequence db ~name:"fulfil" [ "orders"; "stock"; "reserved" ]

let reconcile db ~two_phase =
  if two_phase then
    Builder.two_phase_sequence db ~name:"reconcile" [ "manifest"; "orders" ]
  else
    Builder.locked_sequence db ~name:"reconcile" [ "manifest"; "orders" ]

let report label sys =
  Printf.printf "\n--- %s ---\n" label;
  System.validate_exn sys;
  let g = Multisite.conflict_graph sys in
  Printf.printf "conflict graph: %d arcs; simple cycles: %d\n"
    (Distlock_graph.Digraph.num_arcs g)
    (List.length (Multisite.simple_cycles g));
  let module O = Distlock_engine.Outcome in
  (match (Decision.decide (Decision.create ()) sys).O.verdict with
  | O.Safe -> Printf.printf "Proposition 2: SAFE\n"
  | O.Unsafe (Decision.Multi (Multisite.Unsafe_pair (i, j))) ->
      Printf.printf "Proposition 2: UNSAFE — pair (%s, %s)\n"
        (Txn.name (System.txn sys i))
        (Txn.name (System.txn sys j))
  | O.Unsafe (Decision.Multi (Multisite.Acyclic_bc c)) ->
      Printf.printf "Proposition 2: UNSAFE — cycle %s has acyclic B_c\n"
        (String.concat "->" (List.map (fun i -> Txn.name (System.txn sys i)) c))
  | O.Unsafe (Decision.Pair _) -> Printf.printf "UNSAFE (pair pipeline)\n"
  | O.Unknown m -> Printf.printf "UNKNOWN — %s\n" m);
  (match Brute.safe_by_schedules ~limit:5_000_000 sys with
  | Brute.Safe -> Printf.printf "oracle: SAFE\n"
  | Brute.Unsafe h ->
      Printf.printf "oracle: UNSAFE, e.g.\n  %s\n"
        (Distlock_sched.Schedule.to_string sys h)
  | Brute.Exhausted _ -> Printf.printf "oracle: (too many schedules)\n");
  let rate =
    Distlock_sim.Esim.violation_fraction
      (Distlock_sim.Esim.measure ~precheck:false ~seeds:(List.init 100 Fun.id)
         sys)
  in
  Printf.printf "simulator: %.0f%% non-serializable histories\n" (100. *. rate)

let () =
  let d1 = db () in
  report "sequential lock sections everywhere"
    (System.make d1
       [
         restock d1 ~two_phase:false; fulfil d1 ~two_phase:false;
         reconcile d1 ~two_phase:false;
       ]);
  (* One straggler is enough to spoil the whole system: even with fulfil
     and reconcile two-phase, the sequential restock leaves a conflict
     cycle with an acyclic B_c. *)
  let d2 = db () in
  report "two-phase fulfilment and reconciliation, sequential restock"
    (System.make d2
       [
         restock d2 ~two_phase:false; fulfil d2 ~two_phase:true;
         reconcile d2 ~two_phase:true;
       ]);
  let d3 = db () in
  report "two-phase everywhere"
    (System.make d3
       [
         restock d3 ~two_phase:true; fulfil d3 ~two_phase:true;
         reconcile d3 ~two_phase:true;
       ])
