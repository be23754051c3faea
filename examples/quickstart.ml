(* Quickstart: build a distributed locked transaction system, test its
   safety, read the certificate, and repair it with two-phase locking.

   Run with: dune exec examples/quickstart.exe *)

open Distlock_core
open Distlock_txn

let () =
  (* A database distributed over two sites. *)
  let db = Database.create () in
  Database.add_all db [ ("x", 1); ("z", 2) ];

  (* Two transactions that each lock x (site 1) and z (site 2), with no
     ordering between the two sites' sections: the classic distributed
     mistake. *)
  let t1 =
    Builder.make_exn db ~name:"T1"
      ~steps:
        [
          ("Lx", `Lock "x"); ("ux", `Update "x"); ("Ux", `Unlock "x");
          ("Lz", `Lock "z"); ("uz", `Update "z"); ("Uz", `Unlock "z");
        ]
      ~chains:[ [ "Lx"; "ux"; "Ux" ]; [ "Lz"; "uz"; "Uz" ] ]
      ()
  in
  let t2 =
    Builder.make_exn db ~name:"T2"
      ~steps:
        [
          ("Lx", `Lock "x"); ("ux", `Update "x"); ("Ux", `Unlock "x");
          ("Lz", `Lock "z"); ("uz", `Update "z"); ("Uz", `Unlock "z");
        ]
      ~chains:[ [ "Lx"; "ux"; "Ux" ]; [ "Lz"; "uz"; "Uz" ] ]
      ()
  in
  let sys = System.make db [ t1; t2 ] in
  System.validate_exn sys;

  (* The safety test (Theorem 2: exact for two sites, O(n^2)). *)
  Printf.printf "D(T1,T2):\n";
  Format.printf "%a@." (Dgraph.pp db) (Dgraph.build_pair sys);
  (match Twosite.decide sys with
  | Twosite.Safe -> Printf.printf "system is SAFE\n"
  | Twosite.Unsafe cert ->
      Printf.printf "system is UNSAFE; certificate:\n";
      Format.printf "%a@." (Certificate.pp sys) cert);

  (* Repair: make both transactions two-phase and re-test. *)
  let repair t = Option.get (Policy.make_two_phase t) in
  let fixed = System.make db [ repair t1; repair t2 ] in
  Printf.printf "\nafter two-phase repair:\n";
  (match Twosite.decide fixed with
  | Twosite.Safe ->
      Printf.printf "system is SAFE (D is complete: %b)\n"
        (Policy.strong_2pl_is_dgraph_complete fixed)
  | Twosite.Unsafe _ -> Printf.printf "still unsafe?!\n");

  (* Watch both under the lock-manager simulator. *)
  let rate sys =
    Distlock_sim.Esim.violation_fraction
      (Distlock_sim.Esim.measure ~precheck:false ~seeds:(List.init 100 Fun.id)
         sys)
  in
  Printf.printf
    "\nsimulator, 100 random schedules each:\n\
    \  unlocked-early version: %.0f%% non-serializable histories\n\
    \  two-phase version:      %.0f%% non-serializable histories\n"
    (100. *. rate sys) (100. *. rate fixed)
