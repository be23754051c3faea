(* check-exact: requests only the exponential layers answer, rotating
   three kinds.

   - `check` on Theorem 3 gadget pairs of seeded 3-variable restricted
     CNFs: every polynomial stage passes and the Corollary 2 closure
     stage decides.
   - `reduce --decide` on seeded DIMACS text: parse, normalize, encode,
     then the dominator-closure sweep of
     [Reduction.decide_unsafe_by_closure].
   - `check --oracle states` on seeded two-phase partial-order systems,
     safe by construction, so [Stategraph.decide] covers the whole
     state graph.

   Gadget and DIMACS answers are known from DPLL: unsafe exactly when the
   formula is satisfiable. *)

open Distlock_txn
open Distlock_core
open Common
module E = Distlock_engine
module Sat = Distlock_sat
module SG = Distlock_sched.Stategraph

type input =
  | Gadget of { text : string; sat : bool }
  | Dimacs of { text : string; sat : bool }
  | States of { text : string }

(* Distinct formulas, so no gadget request is a verdict-cache hit. *)
let gadget rng seen =
  let rec draw () =
    let f = Sat.Sat_gen.random_restricted rng ~num_vars:3 ~num_clauses:4 in
    if f.Sat.Cnf.clauses = [] then draw ()
    else
      let text = Parse.system_to_string (Reduction.system (Reduction.encode f)) in
      if Hashtbl.mem seen text then draw ()
      else begin
        Hashtbl.add seen text ();
        Gadget { text; sat = Sat.Dpll.is_satisfiable f }
      end
  in
  draw ()

(* Normalization can multiply the variable count, and the sweep is
   exponential in it: keep formulas whose restricted form has exactly
   three variables (64 dominators). *)
let dimacs rng =
  let rec draw () =
    let f =
      Sat.Sat_gen.random rng ~num_vars:(1 + Random.State.int rng 3)
        ~num_clauses:(1 + Random.State.int rng 3) ~max_len:3
    in
    match Sat.Normalize.run f with
    | Some { Sat.Normalize.formula = g; _ } when g.Sat.Cnf.num_vars = 3 ->
        Dimacs { text = Sat.Dimacs.to_string f; sat = Sat.Dpll.is_satisfiable f }
    | _ -> draw ()
  in
  draw ()

(* A two-phase transaction over [ents] with only the order the paper
   requires: every lock precedes every unlock, and the steps at one site
   form a chain. *)
let two_phase rng db ~name ents =
  let lock e = "L" ^ Database.name db e and unlock e = "U" ^ Database.name db e in
  let steps =
    List.concat_map
      (fun e -> [ (lock e, `Lock (Database.name db e)); (unlock e, `Unlock (Database.name db e)) ])
      ents
  in
  let two_phase = List.concat_map (fun a -> List.map (fun b -> (lock a, unlock b)) ents) ents in
  let by_site =
    List.sort_uniq compare (List.map (Database.site db) ents)
    |> List.map (fun s ->
           List.filter (fun e -> Database.site db e = s) ents
           |> List.map (fun e -> (Random.State.bits rng, e))
           |> List.sort compare |> List.map snd)
  in
  let chains = List.concat_map (fun es -> [ List.map lock es; List.map unlock es ]) by_site in
  Builder.make_exn db ~name ~steps ~arcs:two_phase ~chains ()

let states_system rng =
  let txns = 4 in
  let sites = 3 + Random.State.int rng 2 in
  let db = Database.create () in
  for i = 0 to 4 do
    ignore (Database.add db ~name:(Printf.sprintf "e%d" i) ~site:(1 + (i mod sites)))
  done;
  let pool = Array.of_list (Database.entities db) in
  let pick () =
    let a = Array.copy pool in
    shuffle rng a;
    Array.to_list (Array.sub a 0 3)
  in
  let sys =
    System.make db
      (List.init txns (fun k -> two_phase rng db ~name:(Printf.sprintf "T%d" (k + 1)) (pick ())))
  in
  States { text = Parse.system_to_string sys }

let generate ~seed ~requests =
  let rng = Random.State.make [| seed; 0xE7 |] in
  let seen = Hashtbl.create 256 in
  Array.init requests (fun i ->
      match i mod 3 with 0 -> gadget rng seen | 1 -> dimacs rng | _ -> states_system rng)

let prepare ~seed ~requests =
  let inputs = generate ~seed ~requests in
  let fresh () =
    let eng = Decision.create () in
    let stages = Stages.create () in
    let closure_decided = ref 0 and sweeps_unsafe = ref 0 in
    let states = ref 0 and dups = ref 0 in
    let dominators = ref 0 and dominator_samples = ref 0 in
    let count_dominators sys =
      if !tracing then begin
        dominators := !dominators + List.length (Closure.dominator_sets sys);
        incr dominator_samples
      end
    in
    let parse text k =
      match span "txn.parse" (fun () -> Parse.system_of_string text) with
      | Error _ -> fun () -> false
      | Ok sys ->
          ignore (span "txn.validate" (fun () -> System.validate sys));
          k sys
    in
    let request i =
      match inputs.(i) with
      | Gadget { text; sat } ->
          parse text (fun sys ->
              let o = span "engine.decide" ~children:Stages.children (fun () -> Decision.decide eng sys) in
              let out = span "render" (fun () -> Known.render sys o) in
              fun () ->
                ignore (Sys.opaque_identity out);
                count_dominators sys;
                Stages.record stages o;
                if o.E.Outcome.procedure = Some E.Checker.Corollary_2 then incr closure_decided;
                match o.E.Outcome.verdict with
                | E.Outcome.Safe -> not sat
                | E.Outcome.Unsafe ev -> sat && Known.unsafe_evidence sys ev = Some true
                | E.Outcome.Unknown _ -> false)
      | Dimacs { text; sat } -> (
          match span "sat.parse" (fun () -> Sat.Dimacs.of_string text) with
          | Error _ -> fun () -> false
          | Ok f -> (
              match span "sat.normalize" (fun () -> Sat.Normalize.run f) with
              | None -> fun () -> not sat
              | Some { Sat.Normalize.formula = g; _ } ->
                  let gadget = span "reduction.encode" (fun () -> Reduction.encode g) in
                  let found =
                    span "reduction.sweep" (fun () -> Reduction.decide_unsafe_by_closure gadget)
                  in
                  let out =
                    span "render" (fun () ->
                        Parse.system_to_string (Reduction.system gadget)
                        ^ if found <> None then "# UNSAFE, hence SATISFIABLE\n"
                          else "# safe, hence UNSATISFIABLE\n")
                  in
                  fun () ->
                    ignore (Sys.opaque_identity out);
                    let original = Reduction.system gadget in
                    count_dominators original;
                    match found with
                    | None -> not sat
                    | Some (dominator, closed) -> (
                        incr sweeps_unsafe;
                        sat
                        &&
                        match Certificate.construct ~original ~closed ~dominator with
                        | Ok c -> Certificate.verify original c
                        | Error _ -> false)))
      | States { text } ->
          parse text (fun sys ->
              let outcome, st = span "stategraph.decide" (fun () -> SG.decide sys) in
              let out =
                span "render" (fun () ->
                    match outcome with
                    | SG.Safe -> "SAFE — exhaustive state-graph oracle\n"
                    | SG.Unsafe h ->
                        "UNSAFE — exhaustive state-graph oracle\n"
                        ^ Distlock_sched.Schedule.to_string sys h
                    | SG.Exhausted _ -> "UNKNOWN\n")
              in
              fun () ->
                ignore (Sys.opaque_identity out);
                states := !states + st.SG.states;
                dups := !dups + st.SG.dup_hits;
                outcome = SG.Safe)
    in
    let counts () =
      let st = Decision.stats eng in
      [ ("requests", requests); ("cache_hits", E.Stats.cache_hits st);
        ("closure_decided", !closure_decided); ("sweeps_unsafe", !sweeps_unsafe);
        ("stategraph_states", !states); ("stategraph_dup_hits", !dups) ]
      @ Stages.counts stages
    in
    let layers () =
      [ ("closure.dominators", float_of_int !dominators /. float_of_int (max 1 !dominator_samples));
        ("stategraph.states", float_of_int !states);
        ("stategraph.dup_frac", float_of_int !dups /. float_of_int (max 1 (!states + !dups))) ]
      @ Stages.layers stages eng
    in
    { request; counts; layers }
  in
  { requests; fresh }

let workload =
  { name = "check-exact"; prepare; round_requests = 300; warmup_requests = 12; setups = 15 }
