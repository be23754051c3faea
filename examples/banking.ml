(* A two-branch bank: accounts live at branch 1, the audit ledger at
   branch 2. A fund transfer and an audit sweep run concurrently.

   The "optimized" versions release each branch's locks as soon as that
   branch's work is done — and the pair is provably unsafe (Theorem 2
   certificate shows the exact interleaving in which the audit sees the
   transfer's debit but not its credit... in conflict terms, the audit
   serializes before the transfer at one branch and after it at the
   other). Two-phase versions of the same programs are provably safe.

   Run with: dune exec examples/banking.exe *)

open Distlock_core
open Distlock_txn

let db () =
  let db = Database.create () in
  Database.add_all db
    [ ("checking", 1); ("savings", 1); ("ledger", 2); ("summary", 2) ];
  db

(* Transfer: debit checking, credit savings (branch 1), then append both
   movements to the ledger (branch 2). The eager version unlocks the
   accounts before touching the ledger. *)
let transfer db ~eager =
  let steps =
    [
      ("Lc", `Lock "checking"); ("debit", `Update "checking");
      ("Ls", `Lock "savings"); ("credit", `Update "savings");
      ("Uc", `Unlock "checking"); ("Us", `Unlock "savings");
      ("Ll", `Lock "ledger"); ("append", `Update "ledger");
      ("Ul", `Unlock "ledger");
    ]
  in
  let branch1 = [ "Lc"; "debit"; "Ls"; "credit"; "Uc"; "Us" ] in
  let branch2 = [ "Ll"; "append"; "Ul" ] in
  let chains =
    if eager then [ branch1; branch2 ] (* branches unordered: maximum parallelism *)
    else [ branch1 @ branch2 ] (* ledger work strictly after account work *)
  in
  Builder.make_exn db ~name:"transfer" ~steps ~chains ()

(* Audit: snapshot the ledger and summary (branch 2), then read both
   account balances (branch 1). *)
let audit db ~eager =
  let steps =
    [
      ("Ll", `Lock "ledger"); ("scan", `Update "ledger");
      ("Lm", `Lock "summary"); ("post", `Update "summary");
      ("Ul", `Unlock "ledger"); ("Um", `Unlock "summary");
      ("Lc", `Lock "checking"); ("readc", `Update "checking");
      ("Ls", `Lock "savings"); ("reads", `Update "savings");
      ("Uc", `Unlock "checking"); ("Us", `Unlock "savings");
    ]
  in
  let branch2 = [ "Ll"; "scan"; "Lm"; "post"; "Ul"; "Um" ] in
  let branch1 = [ "Lc"; "readc"; "Ls"; "reads"; "Uc"; "Us" ] in
  let chains = if eager then [ branch1; branch2 ] else [ branch2 @ branch1 ] in
  Builder.make_exn db ~name:"audit" ~steps ~chains ()

let report label sys =
  Printf.printf "\n--- %s ---\n" label;
  System.validate_exn sys;
  (match Twosite.decide sys with
  | Twosite.Safe -> Printf.printf "Theorem 2: SAFE\n"
  | Twosite.Unsafe cert ->
      Printf.printf "Theorem 2: UNSAFE\n";
      Format.printf "%a@." (Certificate.pp sys) cert);
  let rate =
    Distlock_sim.Esim.violation_fraction
      (Distlock_sim.Esim.measure ~precheck:false ~seeds:(List.init 100 Fun.id)
         sys)
  in
  Printf.printf "simulator: %.0f%% of 100 random runs non-serializable\n"
    (100. *. rate)

let () =
  let db1 = db () in
  report "eager lock release (both transactions)"
    (System.make db1 [ transfer db1 ~eager:true; audit db1 ~eager:true ]);

  let db2 = db () in
  report "ordered branches (still not two-phase)"
    (System.make db2 [ transfer db2 ~eager:false; audit db2 ~eager:false ]);

  let db3 = db () in
  let two_phase t = Option.get (Policy.make_two_phase t) in
  report "two-phase repair"
    (System.make db3
       [ two_phase (transfer db3 ~eager:true); two_phase (audit db3 ~eager:true) ]);

  (* A single traced run: where does the time go? *)
  Printf.printf "\n--- traced run (two-phase repair, seed 7) ---\n";
  let db4 = db () in
  let traced =
    System.make db4
      [ two_phase (transfer db4 ~eager:true); two_phase (audit db4 ~eager:true) ]
  in
  (match Distlock_sim.Esim.run ~policy:(Distlock_sim.Engine.Random 7) traced with
  | Error m -> Printf.printf "run failed: %s\n" m
  | Ok o ->
      let report = Distlock_sim.Trace.analyze traced o.Distlock_sim.Esim.trace in
      Format.printf "%a@." (Distlock_sim.Trace.pp_report traced) report);

  (* Throughput view: many instances under the simulator. *)
  Printf.printf "\n--- workload: 6 concurrent transactions, 8 entities ---\n";
  let rng = Random.State.make [| 2024 |] in
  List.iter
    (fun (label, style) ->
      let wdb = Database.create () in
      Database.add_all wdb
        (List.init 8 (fun i -> (Printf.sprintf "acct%d" i, 1 + (i mod 2))));
      let sys =
        Distlock_sim.Workload.make rng ~db:wdb ~style ~num_txns:6
          ~entities_per_txn:3
      in
      let summary = Distlock_sim.Esim.measure sys in
      Format.printf "%-22s %a@." label Distlock_sim.Esim.pp_summary summary)
    [
      ("two-phase:", Distlock_sim.Workload.Two_phase);
      ("sequential sections:", Distlock_sim.Workload.Sequential);
      ("random locked:", Distlock_sim.Workload.Random_locked 0.3);
    ]
