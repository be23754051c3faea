open Distlock_txn

let mkdb entities =
  let db = Database.create () in
  Database.add_all db entities;
  db

let test_database () =
  let db = mkdb [ ("x", 1); ("y", 2) ] in
  Util.check_int "entities" 2 (Database.num_entities db);
  Util.check_int "sites" 2 (Database.num_sites db);
  Util.check_int "site of x" 1 (Database.site db (Database.id_exn db "x"));
  Util.check "find" true (Database.find db "y" <> None);
  Util.check "missing" true (Database.find db "z" = None);
  (* re-adding same site is idempotent *)
  let x = Database.id_exn db "x" in
  Util.check_int "idempotent" x (Database.add db ~name:"x" ~site:1);
  Alcotest.check_raises "conflicting site"
    (Invalid_argument "Database.add: entity \"x\" already stored at site 1")
    (fun () -> ignore (Database.add db ~name:"x" ~site:2));
  Alcotest.(check (list int)) "entities_at 1" [ x ] (Database.entities_at db 1)

let test_builder_errors () =
  let db = mkdb [ ("x", 1) ] in
  let fails = function Error _ -> true | Ok _ -> false in
  Util.check "duplicate label" true
    (fails
       (Builder.make db ~name:"T" ~steps:[ ("a", `Lock "x"); ("a", `Unlock "x") ] ()));
  Util.check "unknown entity" true
    (fails (Builder.make db ~name:"T" ~steps:[ ("a", `Lock "nope") ] ()));
  Util.check "unknown label in arc" true
    (fails
       (Builder.make db ~name:"T" ~steps:[ ("a", `Lock "x") ] ~arcs:[ ("a", "b") ] ()));
  Util.check "cyclic arcs" true
    (fails
       (Builder.make db ~name:"T"
          ~steps:[ ("a", `Lock "x"); ("b", `Unlock "x") ]
          ~arcs:[ ("a", "b"); ("b", "a") ]
          ()))

let test_builder_conveniences () =
  let db = mkdb [ ("x", 1); ("y", 1) ] in
  let seq = Builder.locked_sequence db ~name:"S" [ "x"; "y" ] in
  Util.check_int "sequence steps" 6 (Txn.num_steps seq);
  Util.check "sequence total" true (Txn.is_total seq);
  Util.check "sequence well-formed" true (Validate.check ~strict:true db seq = []);
  let tp = Builder.two_phase_sequence db ~name:"P" [ "x"; "y" ] in
  Util.check "two-phase well-formed" true (Validate.check ~strict:true db tp = []);
  Util.check "locks precede unlocks" true
    (Txn.precedes tp
       (Option.get (Txn.lock_of tp (Database.id_exn db "y")))
       (Option.get (Txn.unlock_of tp (Database.id_exn db "x"))))

let test_txn_queries () =
  let db = mkdb [ ("x", 1); ("y", 2) ] in
  let t =
    Builder.make_exn db ~name:"T"
      ~steps:
        [
          ("Lx", `Lock "x"); ("ux", `Update "x"); ("Ux", `Unlock "x");
          ("Ly", `Lock "y"); ("Uy", `Unlock "y");
        ]
      ~chains:[ [ "Lx"; "ux"; "Ux" ]; [ "Ly"; "Uy" ] ]
      ()
  in
  let x = Database.id_exn db "x" and y = Database.id_exn db "y" in
  Util.check "lock_of x" true (Txn.lock_of t x = Some 0);
  Util.check "unlock_of x" true (Txn.unlock_of t x = Some 2);
  Alcotest.(check (list int)) "updates x" [ 1 ] (Txn.updates_of t x);
  Alcotest.(check (list int)) "locked entities" [ x; y ] (Txn.locked_entities t);
  Alcotest.(check (list int)) "site 1 steps" [ 0; 1; 2 ] (Txn.steps_at_site t db 1);
  Util.check "cross-site concurrent" true (Txn.concurrent t 0 3);
  Util.check "label" true (Txn.label t 0 = "Lx")

let pick_action st =
  match Random.State.int st 3 with
  | 0 -> Step.Lock
  | 1 -> Step.Unlock
  | _ -> Step.Update

let test_validate_violations () =
  let db = mkdb [ ("x", 1); ("y", 1) ] in
  let has_violation t pred = List.exists pred (Validate.check db t) in
  (* same-site steps concurrent *)
  let bad_site =
    Builder.make_exn db ~name:"B1"
      ~steps:[ ("Lx", `Lock "x"); ("Ux", `Unlock "x"); ("Ly", `Lock "y"); ("Uy", `Unlock "y") ]
      ~chains:[ [ "Lx"; "Ux" ]; [ "Ly"; "Uy" ] ]
      ()
  in
  Util.check "site totality" true
    (has_violation bad_site (function Validate.Site_not_total _ -> true | _ -> false));
  (* unlock before lock *)
  let bad_order =
    Builder.make_exn db ~name:"B2"
      ~steps:[ ("Ux", `Unlock "x"); ("Lx", `Lock "x") ]
      ~chains:[ [ "Ux"; "Lx" ] ]
      ()
  in
  Util.check "unlock before lock" true
    (has_violation bad_order (function
      | Validate.Unlock_not_after_lock _ -> true
      | _ -> false));
  (* lock without unlock *)
  let orphan =
    Builder.make_exn db ~name:"B3" ~steps:[ ("Lx", `Lock "x") ] ()
  in
  Util.check "orphan lock" true
    (has_violation orphan (function Validate.Lock_without_unlock _ -> true | _ -> false));
  (* update outside its section *)
  let outside =
    Builder.make_exn db ~name:"B4"
      ~steps:[ ("ux", `Update "x"); ("Lx", `Lock "x"); ("Ux", `Unlock "x") ]
      ~chains:[ [ "ux"; "Lx"; "Ux" ] ]
      ()
  in
  Util.check "update outside" true
    (has_violation outside (function
      | Validate.Update_outside_section _ -> true
      | _ -> false));
  (* unprotected update *)
  let naked = Builder.make_exn db ~name:"B5" ~steps:[ ("ux", `Update "x") ] () in
  Util.check "naked update" true
    (has_violation naked (function Validate.Update_without_lock _ -> true | _ -> false));
  (* strict mode: empty section *)
  let empty_section =
    Builder.make_exn db ~name:"B6"
      ~steps:[ ("Lx", `Lock "x"); ("Ux", `Unlock "x") ]
      ~chains:[ [ "Lx"; "Ux" ] ]
      ()
  in
  Util.check "relaxed accepts" true (Validate.check db empty_section = []);
  Util.check "strict flags" true
    (List.exists
       (function Validate.Empty_section _ -> true | _ -> false)
       (Validate.check ~strict:true db empty_section))

(* [Validate.check] groups the steps by site and by entity; the scans it
   replaced, one per site number from 1 to the largest and three per
   touched entity, are the reference for which violations it reports
   and in what order. *)
let reference_violations ~strict db t =
  let report, violations =
    let acc = ref [] in
    ((fun v -> acc := v :: !acc), fun () -> List.rev !acc)
  in
  let steps_of_kind e kind =
    List.filter
      (fun i -> Txn.step t i = { Step.entity = e; action = kind })
      (List.init (Txn.num_steps t) Fun.id)
  in
  for site = 1 to Database.num_sites db do
    let rec pairs = function
      | [] -> ()
      | a :: rest ->
          List.iter
            (fun b ->
              if Txn.concurrent t a b then
                report (Validate.Site_not_total { site; step_a = a; step_b = b }))
            rest;
          pairs rest
    in
    pairs (Txn.steps_at_site t db site)
  done;
  List.iter
    (fun e ->
      let locks = steps_of_kind e Step.Lock in
      let unlocks = steps_of_kind e Step.Unlock in
      let updates = steps_of_kind e Step.Update in
      if List.length locks > 1 then
        report (Validate.Duplicate_lock { entity = e; steps = locks });
      if List.length unlocks > 1 then
        report (Validate.Duplicate_unlock { entity = e; steps = unlocks });
      match (locks, unlocks) with
      | [], [] ->
          List.iter
            (fun u -> report (Validate.Update_without_lock { entity = e; update = u }))
            updates
      | l :: _, [] -> report (Validate.Lock_without_unlock { entity = e; lock = l })
      | [], u :: _ -> report (Validate.Unlock_without_lock { entity = e; unlock = u })
      | l :: _, u :: _ ->
          if not (Txn.precedes t l u) then
            report (Validate.Unlock_not_after_lock { entity = e; lock = l; unlock = u });
          List.iter
            (fun up ->
              if not (Txn.precedes t l up && Txn.precedes t up u) then
                report (Validate.Update_outside_section { entity = e; update = up }))
            updates;
          if strict && updates = [] then report (Validate.Empty_section { entity = e }))
    (Txn.touched_entities t);
  violations ()

let qcheck_validate_vs_reference =
  Util.qtest ~count:500 "validate reports what the per-site scans report"
    (Util.gen_with_state (fun st ->
         let db = Database.create () in
         let num_entities = 1 + Random.State.int st 4 in
         for e = 0 to num_entities - 1 do
           ignore
             (Database.add db ~name:(Printf.sprintf "e%d" e)
                ~site:(1 + Random.State.int st 5))
         done;
         let n = Random.State.int st 9 in
         let steps =
           Array.init n (fun _ ->
               {
                 Step.entity = Random.State.int st num_entities;
                 action = pick_action st;
               })
         in
         let order =
           Option.get
             (Distlock_order.Poset.of_arcs n
                (Util.random_dag_arcs st n (Random.State.float st 1.0)))
         in
         (db, Txn.make ~name:"T" ~steps order, Random.State.bool st)))
    (fun (db, t, strict) ->
      Validate.check ~strict db t = reference_violations ~strict db t)

let test_add_precedences_along () =
  let db = mkdb [ ("x", 1); ("y", 2) ] in
  let t =
    Builder.make_exn db ~name:"T"
      ~steps:[ ("Lx", `Lock "x"); ("Ux", `Unlock "x"); ("Ly", `Lock "y"); ("Uy", `Unlock "y") ]
      ~chains:[ [ "Lx"; "Ux" ]; [ "Ly"; "Uy" ] ]
      ()
  in
  (match Txn.add_precedences t [ (1, 2) ] with
  | None -> Alcotest.fail "consistent extension"
  | Some t' ->
      Util.check "added" true (Txn.precedes t' 0 3);
      Util.check "original intact" true (Txn.concurrent t 0 3));
  Util.check "cyclic extension rejected" true
    (Txn.add_precedences t [ (1, 0) ] = None);
  let ext = [| 2; 0; 1; 3 |] in
  let total = Txn.along t ext in
  Util.check "along total" true (Txn.is_total total);
  Util.check "along order" true (Txn.precedes total 2 0);
  Alcotest.check_raises "bad extension"
    (Invalid_argument "Txn.along: not a linear extension") (fun () ->
      ignore (Txn.along t [| 1; 0; 2; 3 |]))

let test_system () =
  let db = mkdb [ ("x", 1); ("y", 2) ] in
  let t1 = Builder.locked_sequence db ~name:"T1" [ "x"; "y" ] in
  let t2 = Builder.locked_sequence db ~name:"T2" [ "x" ] in
  let sys = System.make db [ t1; t2 ] in
  Util.check_int "txns" 2 (System.num_txns sys);
  Util.check_int "total steps" 9 (System.total_steps sys);
  Alcotest.(check (list int)) "common" [ Database.id_exn db "x" ]
    (System.common_locked sys 0 1);
  Alcotest.(check (list int)) "sites used" [ 1; 2 ] (System.sites_used sys);
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "System.make: duplicate transaction names") (fun () ->
      ignore (System.make db [ t1; t1 ]))

let qcheck_gen_well_formed =
  Util.qtest ~count:100 "generated transactions are well-formed"
    (Util.gen_with_state (fun st ->
         let sys =
           Txn_gen.random_pair_system st ~num_shared:(1 + Random.State.int st 4)
             ~num_private:(Random.State.int st 3)
             ~num_sites:(1 + Random.State.int st 4)
             ~with_updates:(Random.State.bool st)
             ~cross_prob:(Random.State.float st 1.0) ()
         in
         sys))
    (fun sys -> System.validate sys = [])

let qcheck_gen_total_when_cross1 =
  Util.qtest ~count:50 "cross_prob 1.0 yields total orders"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_pair_system st ~num_shared:3 ~num_private:1
           ~num_sites:3 ~cross_prob:1.0 ()))
    (fun sys ->
      let t1, t2 = System.pair sys in
      Txn.is_total t1 && Txn.is_total t2)

let qcheck_multi_gen =
  Util.qtest ~count:50 "multi-transaction generator is well-formed"
    (Util.gen_with_state (fun st ->
         Txn_gen.random_multi_system st ~num_txns:(2 + Random.State.int st 3)
           ~num_entities:6 ~entities_per_txn:3
           ~num_sites:(1 + Random.State.int st 3) ()))
    (fun sys -> System.validate sys = [])

let test_parse_roundtrip () =
  let sys = Distlock_core.Figures.fig1 () in
  let text = Parse.system_to_string sys in
  match Parse.system_of_string text with
  | Error m -> Alcotest.fail m
  | Ok sys' ->
      Util.check_int "txns" (System.num_txns sys) (System.num_txns sys');
      let t, t' = (System.txn sys 0, System.txn sys' 0) in
      Util.check_int "steps" (Txn.num_steps t) (Txn.num_steps t');
      (* same precedence relations *)
      Util.check "same order" true
        (Distlock_order.Poset.equal (Txn.order t) (Txn.order t'));
      Util.check "same steps" true
        (Array.for_all2 Step.equal (Txn.steps t) (Txn.steps t'))

let test_parse_errors () =
  let error text =
    match Parse.system_of_string text with
    | Error m -> m
    | Ok _ -> "(parsed)"
  in
  let check name expected text =
    Alcotest.(check string) name expected (error text)
  in
  let block body = "entity x @ 1\ntxn T1 {\n" ^ body ^ "}\n" in
  check "empty" "no transactions" "";
  check "entities only" "no transactions" "entity x @ 1\n";
  check "bad site" "line 1: bad site number"
    "entity x @ zero\ntxn T {\nstep a lock x\n}\n";
  check "site 0" "line 1: bad site number" "entity x @ 0\n";
  check "entity at another site"
    "line 2: entity \"x\" already stored at site 1"
    "entity x @ 1\nentity x @ 2\n";
  check "unknown action" "line 3: unknown action grab"
    (block "step a grab x\n");
  check "unexpected token" "line 3: unexpected token arc"
    (block "arc a b\n");
  check "step outside a block" "line 1: unexpected token step"
    "step a lock x\n";
  check "unterminated" "unterminated txn block"
    "entity x @ 1\ntxn T {\nstep a lock x\n";
  check "duplicate label" "txn T1: duplicate label \"a\""
    (block "step a lock x\nstep a unlock x\n");
  check "unknown entity" "txn T1: unknown entity \"y\""
    (block "step a lock y\n");
  check "unknown step label" "txn T1: unknown step label \"c\""
    (block "step a lock x\nstep b unlock x\narc a -> c\n");
  check "cyclic" "txn T1: cyclic precedence declaration"
    (block "step a lock x\nstep b unlock x\nchain a b a\n");
  check "duplicate names" "duplicate transaction name \"T1\""
    (block "step a lock x\n" ^ "txn T1 {\n}\n");
  (* Which error wins when there are several. *)
  check "duplicate label before unknown entity"
    "txn T1: duplicate label \"a\""
    (block "step a lock y\nstep a unlock x\n");
  check "a later line error before an earlier bad block"
    "line 6: unexpected token bogus"
    (block "step a lock x\narc a -> c\n" ^ "bogus\n");
  check "a chain's pairs from the last back"
    "txn T1: unknown step label \"r\""
    (block "step a lock x\nchain q a r\n");
  Util.check "comments fine" true
    (match
       Parse.system_of_string
         "# header\nentity x @ 1 # inline\ntxn T {\nstep a lock x\nstep b unlock x\nchain a b\n}\n"
     with
    | Ok sys -> System.total_steps sys = 2
    | Error _ -> false)

(* Labels resolve when their block closes and entities once every line
   is read: an arc may precede its steps, and an entity may be declared
   after the block that uses it. *)
let test_parse_forward () =
  let parses text =
    match Parse.system_of_string text with
    | Ok sys -> Txn.precedes (System.txn sys 0) 0 1
    | Error m -> Alcotest.fail m
  in
  Util.check "arc before its steps" true
    (parses "entity x @ 1\ntxn T {\narc a -> b\nstep a lock x\nstep b unlock x\n}\n");
  Util.check "entity after its block" true
    (parses "txn T {\nstep a lock x\nstep b unlock x\narc a -> b\n}\nentity x @ 1\n")

(* Every generator's systems, printed and read back, keep their
   fingerprint: the database, the steps and the whole order. *)
let qcheck_parse_roundtrip =
  Util.qtest ~count:200 "system_to_string round-trips every generator"
    (Util.gen_with_state (fun st ->
         let sites = 1 + Random.State.int st 4 in
         let with_updates = Random.State.bool st in
         let cross_prob = Random.State.float st 1.0 in
         match Random.State.int st 3 with
         | 0 ->
             Txn_gen.random_pair_system st ~num_shared:(1 + Random.State.int st 5)
               ~num_private:(Random.State.int st 3) ~num_sites:sites ~with_updates
               ~cross_prob ()
         | 1 ->
             Txn_gen.random_multi_system st ~num_txns:(1 + Random.State.int st 5)
               ~num_entities:(sites + 3) ~entities_per_txn:3 ~num_sites:sites
               ~with_updates ~cross_prob ()
         | _ ->
             let db =
               Txn_gen.random_database st ~num_entities:(sites + 2) ~num_sites:sites
             in
             System.make db
               [
                 Txn_gen.random_txn st db ~name:"T" ~entities:(Database.entities db)
                   ~with_updates ~cross_prob ();
               ]))
    (fun sys ->
      match Parse.system_of_string (Parse.system_to_string sys) with
      | Ok sys' -> System.fingerprint sys' = System.fingerprint sys
      | Error _ -> false)

(* The differential property: the one-pass scanner and the list-based
   reference parser ({!Reference_parser}) read every text alike. The
   texts are generated systems written with the format's freedoms
   (separators, comments, blank lines, chains, arcs before their
   steps, entities after the blocks), and mutations of them. *)

let pick st l = List.nth l (Random.State.int st (List.length l))

let shuffled st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let write_system st sys =
  let db = System.db sys in
  let line tokens =
    pick st [ ""; "  "; "\t" ]
    ^ String.concat (pick st [ " "; "  "; "\t"; " \t " ]) tokens
    ^ pick st [ ""; ""; ""; " # note"; "\t#" ]
  in
  let filler () = pick st [ []; []; []; [ "" ]; [ "# comment" ]; [ " \t" ] ] in
  let entities =
    List.map
      (fun e ->
        line
          [ "entity"; Database.name db e; "@"; string_of_int (Database.site db e) ])
      (Database.entities db)
  in
  let block txn =
    let label = Txn.label txn in
    let steps =
      List.init (Txn.num_steps txn) (fun i ->
          let s = Txn.step txn i in
          let action =
            match s.Step.action with
            | Step.Lock -> "lock"
            | Step.Unlock -> "unlock"
            | Step.Update -> "update"
          in
          line [ "step"; label i; action; Database.name db s.Step.entity ])
    in
    let precedences =
      List.map
        (fun (a, b) ->
          match Random.State.int st 3 with
          | 0 -> line [ "chain"; label a; label b ]
          | 1 -> (
              match
                List.find_opt
                  (fun c -> Txn.precedes txn b c)
                  (List.init (Txn.num_steps txn) Fun.id)
              with
              | Some c -> line [ "chain"; label a; label b; label c ]
              | None -> line [ "arc"; label a; "->"; label b ])
          | _ -> line [ "arc"; label a; "->"; label b ])
        (Distlock_order.Poset.covers (Txn.order txn))
    in
    let body =
      if Random.State.int st 4 = 0 then precedences @ steps
      else steps @ shuffled st precedences
    in
    (line [ "txn"; Txn.name txn; "{" ] :: List.concat_map (fun l -> l :: filler ()) body)
    @ [ line [ "}" ] ]
  in
  let blocks = List.concat_map block (Array.to_list (System.txns sys)) in
  let before, after = List.partition (fun _ -> Random.State.int st 5 > 0) entities in
  String.concat "\n" (before @ filler () @ blocks @ after) ^ pick st [ ""; "\n" ]

let mutate st text =
  let lines () = String.split_on_char '\n' text in
  let join = String.concat "\n" in
  let n = String.length text in
  match Random.State.int st 8 with
  | 0 when n > 0 ->
      let b = Bytes.of_string text in
      Bytes.set b (Random.State.int st n)
        (pick st [ ' '; '\t'; '\n'; '#'; '{'; '}'; '@'; '-'; '>'; 'x'; '0'; '\r'; '"' ]);
      Bytes.to_string b
  | 1 ->
      let ls = lines () in
      let k = Random.State.int st (List.length ls) in
      join (List.filteri (fun i _ -> i <> k) ls)
  | 2 ->
      let ls = lines () in
      let k = Random.State.int st (List.length ls) in
      join (List.concat (List.mapi (fun i l -> if i = k then [ l; l ] else [ l ]) ls))
  | 3 ->
      let a = Array.of_list (lines ()) in
      let i = Random.State.int st (Array.length a) in
      let j = Random.State.int st (Array.length a) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t;
      join (Array.to_list a)
  | 4 -> String.sub text 0 (Random.State.int st (n + 1))
  | 5 ->
      let rename l =
        match String.split_on_char ' ' l with
        | "txn" :: _ :: rest -> String.concat " " ("txn" :: "T1" :: rest)
        | _ -> l
      in
      join (List.map rename (lines ()))
  | 6 -> text ^ "\nentity e0 @ 7"
  | _ -> (
      let is_entity l = List.mem "entity" (String.split_on_char ' ' (String.trim l)) in
      match List.partition is_entity (lines ()) with
      | e :: es, rest -> join ((es @ rest) @ [ e ])
      | [], _ -> text)

let gen_text =
  Util.gen_with_state (fun st ->
      let sites = 1 + Random.State.int st 6 in
      let with_updates = Random.State.bool st in
      let cross_prob = if Random.State.bool st then 1.0 else Random.State.float st 1.0 in
      let sys =
        if Random.State.bool st then
          Txn_gen.random_pair_system st
            ~num_shared:(1 + Random.State.int st 4)
            ~num_private:(Random.State.int st 3) ~num_sites:sites ~with_updates
            ~cross_prob ()
        else
          Txn_gen.random_multi_system st
            ~num_txns:(2 + Random.State.int st 4)
            ~num_entities:(sites + 2) ~entities_per_txn:2 ~num_sites:sites
            ~with_updates ~cross_prob ()
      in
      let text = write_system st sys in
      let rec mutations k text =
        if k = 0 then text else mutations (k - 1) (mutate st text)
      in
      mutations (pick st [ 0; 0; 1; 1; 2; 3 ]) text)

let qcheck_parse_vs_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1500
       ~name:"scanner ≡ reference parser on generated and mutated texts"
       ~print:String.escaped gen_text (fun text ->
         let read parse =
           match parse text with
           | Ok sys ->
               ignore (System.validate sys);
               Ok
                 ( System.fingerprint sys,
                   Array.map
                     (fun t -> Array.init (Txn.num_steps t) (Txn.label t))
                     (System.txns sys) )
           | Error m -> Error m
           | exception e -> Error ("raised " ^ Printexc.to_string e)
         in
         match (read Parse.system_of_string, read Reference_parser.system_of_string) with
         | (Ok _ as a), b -> a = b
         | Error a, Error b ->
             a = b && not (String.starts_with ~prefix:"raised" a)
         | Error _, Ok _ -> false))

let test_pretty_columns () =
  let db = mkdb [ ("x", 1); ("z", 2) ] in
  let t =
    Builder.make_exn db ~name:"T"
      ~steps:[ ("Lx", `Lock "x"); ("Ux", `Unlock "x");
               ("Lz", `Lock "z"); ("Uz", `Unlock "z") ]
      ~chains:[ [ "Lx"; "Ux" ]; [ "Lz"; "Uz" ] ]
      ()
  in
  let rendered = Pretty.site_columns db t in
  let lines = String.split_on_char '\n' rendered in
  (* header + 4 step rows + trailing blank *)
  Util.check_int "line count" 6 (List.length lines);
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Util.check "header shows both sites" true
    (match lines with
    | h :: _ -> contains h "site 1" && contains h "site 2"
    | [] -> false);
  Util.check "Lz appears" true (contains rendered "Lz")

let () =
  Alcotest.run "txn"
    [
      ( "database",
        [ Alcotest.test_case "intern and sites" `Quick test_database ] );
      ( "builder",
        [
          Alcotest.test_case "errors" `Quick test_builder_errors;
          Alcotest.test_case "conveniences" `Quick test_builder_conveniences;
        ] );
      ( "txn",
        [
          Alcotest.test_case "queries" `Quick test_txn_queries;
          Alcotest.test_case "add_precedences/along" `Quick test_add_precedences_along;
        ] );
      ( "validate",
        [
          Alcotest.test_case "violations" `Quick test_validate_violations;
          qcheck_validate_vs_reference;
        ] );
      ("system", [ Alcotest.test_case "basic" `Quick test_system ]);
      ( "generator",
        [ qcheck_gen_well_formed; qcheck_gen_total_when_cross1; qcheck_multi_gen ] );
      ( "pretty",
        [ Alcotest.test_case "site columns" `Quick test_pretty_columns ] );
      ( "parse",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "forward references" `Quick test_parse_forward;
          qcheck_parse_roundtrip;
          qcheck_parse_vs_reference;
        ] );
    ]
