open Distlock_txn
module E = Distlock_engine

type evidence =
  | Pair of Checkers.evidence
  | Multi of Multisite.unsafe_reason

(* The Proposition 2 stage. With [pair_cache] set, each conflicting
   pair is looked up by its order-canonical {!System.pair_fingerprint}
   before the pair pipeline runs, and decided pair verdicts are stored
   back — so a system sharing pairs with earlier decisions (a batch of
   edits of one base system, say) re-runs the pipeline only for pairs it
   does not share. Each transaction is digested at most once per
   decision, on its first pair lookup, however many pairs it is in. An
   undecided pair is a stage [Error]. Cycle
   enumeration runs under the budget's step allowance and maps
   exhaustion to an inconclusive [Pass] — never a hang, and the
   state-graph fallback still gets its chance. *)
let proposition2 ?pair_cache stats =
  E.Checker.make ~name:"multisite" ~procedure:E.Checker.Proposition_2
    ~applicable:(fun s -> System.num_txns s.Checkers.system <> 2)
    ~run:(fun budget { Checkers.system = sys; _ } ->
      (* Per-decision pair-cache traffic: the shared [stats] counters
         are cumulative across the engine's whole lifetime, the tally
         meters this one decision, so [check --explain] reports the
         traffic of the decision being explained even mid-batch. *)
      let tally = Multisite.tally () in
      let digests =
        Array.map (fun txn -> lazy (Txn.fingerprint txn)) (System.txns sys)
      in
      let fp i = Lazy.force digests.(i) in
      let pair_safe =
        Multisite.pair_safe
          ?store:
            (Option.map
               (fun cache ->
                 (cache, stats, System.pair_fingerprint_with ~fp sys))
               pair_cache)
          ~budget tally (lazy sys)
      in
      let annotate result =
        let Multisite.{ pairs_total; pair_hits; pairs_redecided; _ } = tally in
        if Option.is_none pair_cache || pairs_total = 0 then result
        else
          E.Checker.Annotated
            ( [
                Distlock_obs.Attr.int "pair_hits" pair_hits;
                Distlock_obs.Attr.int "pair_misses" (pairs_total - pair_hits);
                Distlock_obs.Attr.int "pairs_redecided" pairs_redecided;
              ],
              result )
      in
      let cycle_limit = E.Budget.step_allowance budget ~default:2_000_000 in
      match
        Multisite.decide_with ~pair_safe ~cycle_limit tally (lazy sys)
          (Multisite.conflict_graph sys)
      with
      | Multisite.Decided Multisite.Safe ->
          annotate
            (E.Checker.Safe
               "Proposition 2: all conflicting pairs safe and every \
                conflict-graph cycle has a cyclic B_c")
      | Multisite.Decided (Multisite.Unsafe reason) ->
          annotate
            (E.Checker.Unsafe
               ("Proposition 2: unsafety witness found", Multi reason))
      | Multisite.Exhausted e ->
          annotate (E.Checker.Pass (Multisite.describe_exhaustion e))
      | exception Multisite.Undecided msg -> annotate (E.Checker.Error msg))

(* Exact fallback for many-transaction systems (the two-transaction
   table carries its own state-graph stage): memoized reachability over
   execution states, so a Proposition 2 budget error still gets a real
   verdict when the state graph fits the step allowance. *)
let state_graph_multi =
  E.Checker.make ~name:"multi-state-graph" ~procedure:E.Checker.State_graph
    ~applicable:(fun s -> System.num_txns s.Checkers.system <> 2)
    ~run:
      (Checkers.state_graph_result ~counterexample:(fun h ->
           Pair (Checkers.Counterexample h)))

type t = (Checkers.subject, evidence) E.Engine.t

let create ?(cache_capacity = 1024) ?(pair_cache_capacity = 4096) () =
  let stats = E.Stats.create () in
  let pair_cache =
    if pair_cache_capacity <= 0 then None
    else Some (E.Lru.create ~capacity:pair_cache_capacity)
  in
  let checkers =
    List.map
      (E.Checker.map_evidence (fun ev -> Pair ev))
      Checkers.pair_checkers
    @ [ proposition2 ?pair_cache stats; state_graph_multi ]
  in
  E.Engine.create ~cache_capacity ~stats
    ~fingerprint:(fun s -> System.fingerprint s.Checkers.system)
    checkers

let decide ?budget t sys = E.Engine.decide ?budget t (Checkers.subject sys)

let decide_batch ?budget t syss =
  E.Engine.decide_batch ?budget t (List.map Checkers.subject syss)

let explain t sys o = E.Engine.explain t (Checkers.subject sys) o

let decide_explained ?budget t sys =
  E.Engine.decide_explained ?budget t (Checkers.subject sys)

let stats = E.Engine.stats

let describe_multi sys = function
  | Multisite.Unsafe_pair (i, j) ->
      Printf.sprintf "transactions %s and %s form an unsafe pair"
        (Txn.name (System.txn sys i))
        (Txn.name (System.txn sys j))
  | Multisite.Acyclic_bc cycle ->
      Printf.sprintf "conflict-graph cycle (%s) has an acyclic B_c"
        (String.concat " -> "
           (List.map (fun i -> Txn.name (System.txn sys i)) cycle))

let schedule_of_evidence = function
  | Pair ev -> Some (Checkers.schedule_of_evidence ev)
  | Multi _ -> None
