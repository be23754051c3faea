open Distlock_txn
open Distlock_sched
module E = Distlock_engine

type evidence =
  | Certificate of Certificate.t
  | Counterexample of Schedule.t

let schedule_of_evidence = function
  | Certificate c -> c.Certificate.schedule
  | Counterexample h -> h

type subject = { system : System.t; dgraph : Dgraph.t Lazy.t }

let subject system = { system; dgraph = lazy (Dgraph.build_pair system) }

type t = (subject, evidence) E.Checker.t

let is_pair s = System.num_txns s.system = 2

let trivial =
  E.Checker.make ~name:"trivial" ~procedure:E.Checker.Trivial
    ~applicable:is_pair
    ~run:(fun _ s ->
      if Dgraph.num_vertices (Lazy.force s.dgraph) < 2 then
        E.Checker.Safe "fewer than two commonly locked entities"
      else E.Checker.Pass "two or more commonly locked entities")

let theorem1 =
  E.Checker.make ~name:"theorem1" ~procedure:E.Checker.Theorem_1
    ~applicable:is_pair
    ~run:(fun _ s ->
      if Dgraph.is_strongly_connected (Lazy.force s.dgraph) then
        E.Checker.Safe "Theorem 1: D(T1,T2) strongly connected"
      else E.Checker.Pass "D(T1,T2) not strongly connected")

let twosite =
  E.Checker.make ~name:"two-site" ~procedure:E.Checker.Theorem_2
    ~applicable:(fun s ->
      is_pair s && List.length (System.sites_used s.system) <= 2)
    ~run:(fun _ s ->
      match Twosite.decide_dgraph (Lazy.force s.dgraph) with
      | Twosite.Safe ->
          E.Checker.Safe "Theorem 2 (unreachable: D not strongly connected)"
      | Twosite.Unsafe cert ->
          E.Checker.Unsafe
            ( "Theorem 2: certificate from the dominator closure",
              Certificate cert ))

let proposition1 =
  E.Checker.make ~name:"geometric" ~procedure:E.Checker.Proposition_1
    ~applicable:(fun s ->
      is_pair s
      &&
      let t1, t2 = System.pair s.system in
      Txn.is_total t1 && Txn.is_total t2)
    ~run:(fun _ s ->
      let plane = Distlock_geometry.Plane.make s.system in
      match Distlock_geometry.Separation.decide plane with
      | Distlock_geometry.Separation.Safe ->
          E.Checker.Safe
            "Proposition 1: the unique picture admits no separating curve"
      | Distlock_geometry.Separation.Unsafe { schedule; _ } ->
          E.Checker.Unsafe
            ( "Proposition 1: a separating monotone curve exists",
              Counterexample schedule ))

let corollary2 =
  E.Checker.make ~name:"closure" ~procedure:E.Checker.Corollary_2
    ~applicable:is_pair
    ~run:(fun _ s ->
      match Closure.first_unsafe_dominator (Lazy.force s.dgraph) with
      | Some (dominator, closed) -> (
          match Certificate.construct ~original:s.system ~closed ~dominator with
          | Ok cert ->
              E.Checker.Unsafe
                ( "Corollary 2: a dominator of D(T1,T2) closes",
                  Certificate cert )
          | Error msg ->
              E.Checker.Error
                ("Corollary 2: certificate construction failed: " ^ msg))
      | None -> E.Checker.Pass "no dominator of D(T1,T2) closes"
      | exception Failure msg -> E.Checker.Error msg)

(* Runs the oracle directly (not through [Brute.safe_by_states]) so the
   collapse statistics survive: they ride out on an [Annotated] wrapper
   and surface in [check --explain] and the stage span. *)
let state_graph_result ~counterexample budget { system = sys; _ } =
  let limit = E.Budget.step_allowance budget ~default:2_000_000 in
  let outcome, stats = Distlock_sched.Stategraph.decide ~limit sys in
  let annotate exhausted result =
    E.Checker.Annotated
      ( [
          Distlock_obs.Attr.int "states" stats.Stategraph.states;
          Distlock_obs.Attr.int "dup_hits" stats.Stategraph.dup_hits;
          Distlock_obs.Attr.bool "exhausted" exhausted;
        ],
        result )
  in
  match outcome with
  | Stategraph.Safe ->
      annotate false
        (E.Checker.Safe
           "state graph: no reachable execution is non-serializable")
  | Stategraph.Unsafe h ->
      annotate false
        (E.Checker.Unsafe
           ( "state graph: a reachable complete state has a cyclic conflict \
              digraph",
             counterexample h ))
  | Stategraph.Exhausted { visited; limit } ->
      annotate true
        (E.Checker.Pass
           (Printf.sprintf
              "state budget exhausted after %d of %d allowed states" visited
              limit))

let state_graph =
  E.Checker.make ~name:"state-graph" ~procedure:E.Checker.State_graph
    ~applicable:is_pair
    ~run:(state_graph_result ~counterexample:(fun h -> Counterexample h))

let lemma1 =
  E.Checker.make ~name:"exhaustive" ~procedure:E.Checker.Lemma_1
    ~applicable:is_pair
    ~run:(fun budget s ->
      let limit = E.Budget.step_allowance budget ~default:2_000_000 in
      match Brute.safe_by_extensions ~limit s.system with
      | Brute.Safe ->
          E.Checker.Safe "Lemma 1: exhaustive check of all extension pairs"
      | Brute.Unsafe h ->
          E.Checker.Unsafe
            ( "Lemma 1: some picture admits a separating curve",
              Counterexample h )
      | Brute.Exhausted { examined; limit } ->
          E.Checker.Pass
            (Printf.sprintf
               "picture budget exhausted after %d of %d allowed extension \
                pairs"
               examined limit))

let pair_checkers =
  [ trivial; theorem1; twosite; proposition1; corollary2; state_graph; lemma1 ]

let decide ?stats ?budget sys =
  if System.num_txns sys <> 2 then
    invalid_arg "Checkers.decide: not a two-transaction system";
  E.Engine.run ?stats ?budget pair_checkers (subject sys)
