(* Reproduces the paper's worked examples (Figs 1, 2, 3, 5) end to end,
   cross-checking each verdict against the brute-force oracle.

   Run with: dune exec examples/figure_gallery.exe *)

open Distlock_core
open Distlock_txn

let rule title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let show_dgraph sys =
  let d = Dgraph.build_pair sys in
  Format.printf "%a@." (Dgraph.pp (System.db sys)) d;
  Printf.printf "strongly connected: %b\n" (Dgraph.is_strongly_connected d)

let show_verdict sys =
  let module O = Distlock_engine.Outcome in
  let o =
    Checkers.decide ~budget:(Distlock_engine.Budget.of_steps 5_000_000) sys
  in
  match o.O.verdict with
  | O.Safe -> Printf.printf "verdict: SAFE — %s\n" o.O.detail
  | O.Unsafe ev ->
      Printf.printf "verdict: UNSAFE\n";
      (match ev with
      | Checkers.Certificate c -> Format.printf "%a@." (Certificate.pp sys) c
      | Checkers.Counterexample h ->
          Printf.printf "  schedule: %s\n" (Distlock_sched.Schedule.to_string sys h))
  | O.Unknown m -> Printf.printf "verdict: UNKNOWN — %s\n" m

let cross_check sys =
  match Brute.safe_by_extensions sys with
  | Brute.Safe -> Printf.printf "oracle (Lemma 1 over all pictures): SAFE\n"
  | Brute.Unsafe _ -> Printf.printf "oracle (Lemma 1 over all pictures): UNSAFE\n"
  | Brute.Exhausted _ ->
      Printf.printf "oracle (Lemma 1 over all pictures): budget exhausted\n"

let () =
  rule "Fig 1: an unsafe two-site system";
  let sys = Figures.fig1 () in
  print_string (Parse.system_to_string sys);
  show_dgraph sys;
  show_verdict sys;
  cross_check sys;

  rule "Fig 2: two totally ordered transactions (Proposition 1)";
  let sys = Figures.fig2 () in
  print_string (Parse.system_to_string sys);
  let plane = Distlock_geometry.Plane.make sys in
  List.iter
    (fun r ->
      Format.printf "rectangle %a@." (Distlock_geometry.Rect.pp (System.db sys)) r)
    (Distlock_geometry.Plane.rectangles plane);
  (match Distlock_geometry.Separation.decide plane with
  | Distlock_geometry.Separation.Safe -> Printf.printf "picture: SAFE\n"
  | Distlock_geometry.Separation.Unsafe { schedule; below; above } ->
      Printf.printf "picture: UNSAFE — the path separates {%s} from {%s}\n"
        (String.concat ","
           (List.map (Database.name (System.db sys)) below))
        (String.concat ","
           (List.map (Database.name (System.db sys)) above));
      Printf.printf "schedule: %s\n" (Distlock_sched.Schedule.to_string sys schedule);
      Printf.printf "the geometric picture (rectangles and the separating staircase):\n%s"
        (Distlock_geometry.Render.plane ~schedule plane));
  cross_check sys;

  rule "Fig 3: Lemma 1 — unsafe although one picture is safe";
  let sys = Figures.fig3 () in
  show_dgraph sys;
  show_verdict sys;
  let t1, t2 = System.pair sys in
  let safe = ref 0 and unsafe = ref 0 in
  Distlock_order.Linext.iter (Txn.order t1) (fun e1 ->
      let e1 = Array.copy e1 in
      Distlock_order.Linext.iter (Txn.order t2) (fun e2 ->
          let plane =
            Distlock_geometry.Plane.of_extensions sys e1 (Array.copy e2)
          in
          if Distlock_geometry.Separation.is_safe plane then incr safe
          else incr unsafe));
  Printf.printf "pictures: %d safe, %d unsafe — safety is a property of ALL pictures\n"
    !safe !unsafe;

  rule "Fig 5: four sites — strong connectivity is not necessary";
  let sys = Figures.fig5 () in
  show_dgraph sys;
  (* The only dominator is {x1, x2}, and its closure is contradictory. *)
  let d = Dgraph.build_pair sys in
  List.iter
    (fun x ->
      let entities = Dgraph.entity_set d x in
      let names =
        String.concat "," (List.map (Database.name (System.db sys)) entities)
      in
      match Closure.close d ~dominator:entities with
      | Closure.Closed _ -> Printf.printf "dominator {%s}: closure SUCCEEDS\n" names
      | Closure.Failed (Closure.Would_cycle { txn }) ->
          Printf.printf
            "dominator {%s}: closure forces a cycle in T%d — no certificate\n"
            names (txn + 1)
      | Closure.Failed Closure.Dominator_lost ->
          Printf.printf "dominator {%s}: dominator lost during closure\n" names)
    (Dgraph.dominators d);
  show_verdict sys;
  cross_check sys
