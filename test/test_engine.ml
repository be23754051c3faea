(* The decision engine: fingerprints, the staged pipeline, the verdict
   cache, budgets, and the batch API. *)

open Distlock_core
open Distlock_txn
module E = Distlock_engine

let mkdb entities =
  let db = Database.create () in
  Database.add_all db entities;
  db

(* The quickstart unsafe pair, parameterized by the site of [z] so tests
   can perturb the placement without touching anything else. *)
let unsafe_pair ?(z_site = 2) () =
  let db = mkdb [ ("x", 1); ("z", z_site) ] in
  let mk name =
    Builder.make_exn db ~name
      ~steps:
        [ ("Lx", `Lock "x"); ("Ux", `Unlock "x");
          ("Lz", `Lock "z"); ("Uz", `Unlock "z") ]
      ~arcs:[ ("Lx", "Ux"); ("Lz", "Uz") ]
      ()
  in
  System.make db [ mk "T1"; mk "T2" ]

let two_phase_pair () =
  let db = mkdb [ ("x", 1); ("z", 2) ] in
  let mk name = Builder.two_phase_sequence db ~name [ "x"; "z" ] in
  System.make db [ mk "T1"; mk "T2" ]

let total_three_site_pair () =
  let db = mkdb [ ("x", 1); ("y", 2); ("z", 3) ] in
  let mk name = Builder.locked_sequence db ~name [ "x"; "y"; "z" ] in
  System.make db [ mk "T1"; mk "T2" ]

let safe_multi () =
  let db = mkdb [ ("x", 1); ("y", 2); ("z", 1) ] in
  let mk name = Builder.two_phase_sequence db ~name [ "x"; "y"; "z" ] in
  System.make db [ mk "T1"; mk "T2"; mk "T3" ]

(* ------------------------------------------------------------------ *)
(* Fingerprints *)

let test_fingerprint_stable () =
  Util.check "same construction, same fingerprint" true
    (System.fingerprint (Figures.fig1 ()) = System.fingerprint (Figures.fig1 ()));
  Util.check "distinct systems, distinct fingerprints" true
    (System.fingerprint (Figures.fig1 ())
    <> System.fingerprint (Figures.fig5 ()))

let test_fingerprint_perturbation () =
  let base = System.fingerprint (unsafe_pair ()) in
  Util.check "moving an entity to another site changes the fingerprint" true
    (base <> System.fingerprint (unsafe_pair ~z_site:3 ()));
  (* Same steps, one extra precedence. *)
  let db = mkdb [ ("x", 1); ("z", 2) ] in
  let mk extra name =
    Builder.make_exn db ~name
      ~steps:
        [ ("Lx", `Lock "x"); ("Ux", `Unlock "x");
          ("Lz", `Lock "z"); ("Uz", `Unlock "z") ]
      ~arcs:([ ("Lx", "Ux"); ("Lz", "Uz") ] @ extra)
      ()
  in
  let loose = System.make db [ mk [] "T1"; mk [] "T2" ] in
  let tight =
    System.make db [ mk [ ("Ux", "Lz") ] "T1"; mk [] "T2" ]
  in
  Util.check "adding a precedence changes the fingerprint" true
    (System.fingerprint loose <> System.fingerprint tight)

(* The digests' bytes, pinned: every cache key and perfbench's pool
   prefixes rest on them, so a change to how a transaction is
   serialized must show up here. [txns] lists [Txn.fingerprint] in
   system order; [pairs] lists [System.pair_fingerprint] by indices. *)
let pinned_fingerprints =
  let seeded_pair () =
    Txn_gen.random_pair_system (Random.State.make [| 18 |]) ~num_shared:3
      ~num_private:2 ~num_sites:2 ~cross_prob:0.5 ()
  in
  let seeded_multi () =
    Txn_gen.random_multi_system (Random.State.make [| 18 |]) ~num_txns:4
      ~num_entities:5 ~entities_per_txn:3 ~num_sites:2 ~cross_prob:0.3 ()
  in
  [
    ( "fig1", Figures.fig1, "3e732f6a49087140380700ea0e9d418e",
      [ "aea2faafe7dbb11320319a4b7ca0ca09"; "36147225a63afdcead853ce30045bf6a" ],
      [ ((0, 1), "b1b186f5b93dcec2c2e7ee730cbe0933") ] );
    ( "fig2", Figures.fig2, "378d66ce275751773973354cc31adbc2",
      [ "c0b3c8d262c2d838032bb255139f3ae5"; "784fe23968e85728e8aa662b871636e4" ],
      [ ((0, 1), "2af066d542f2ffda16b927a8153b9f3c") ] );
    ( "fig5", Figures.fig5, "91ff843a320794cdcbd06e52e9a59b26",
      [ "9ea71e8c1b21038b687bed7c2f17648d"; "2f632c2bdd36bcfa6c8645a1caf374b5" ],
      [ ((0, 1), "5be1cade3d7cdf81635963891d091e0b") ] );
    ( "seeded pair", seeded_pair, "aca1c179ebf9839e491d5abc2b0f91a1",
      [ "a599c6c923fa8ac735957a09d9a5abbf"; "0a63d5815245ee31c9d2daa6bb8f9c20" ],
      [ ((0, 1), "2d810d2fff417c272eb587b5b993a832") ] );
    ( "seeded multi", seeded_multi, "335f61d7085eaac100aaca5bebfbd54f",
      [
        "d76fe55569f6976e3cd30981058e2a35"; "97145e9617c9131602f30aa16b8fa5db";
        "c98ca6803eb81e473f05de1892dbb440"; "b969c52a57a9d1652aff401513529716";
      ],
      [
        ((0, 1), "b83cc4dfba9fc37af7b0446650fc351d");
        ((2, 3), "e044b81de8ff18bab8b0b01fd2ab9c2e");
      ] );
  ]

let test_fingerprint_pinned () =
  List.iter
    (fun (name, mk, sys_fp, txn_fps, pair_fps) ->
      let sys = mk () in
      Alcotest.(check string) (name ^ ": system") sys_fp (System.fingerprint sys);
      Alcotest.(check (list string))
        (name ^ ": transactions") txn_fps
        (Array.to_list (Array.map Txn.fingerprint (System.txns sys)));
      List.iter
        (fun ((i, j), fp) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: pair %d,%d" name i j)
            fp
            (System.pair_fingerprint sys i j))
        pair_fps)
    pinned_fingerprints

(* ------------------------------------------------------------------ *)
(* Provenance: each paper procedure decides its own territory *)

let procedure_of sys =
  (Checkers.decide sys).E.Outcome.procedure

let test_provenance () =
  Util.check "fig1 decided by Theorem 2" true
    (procedure_of (Figures.fig1 ()) = Some E.Checker.Theorem_2);
  Util.check "strong 2PL pair decided by Theorem 1" true
    (procedure_of (two_phase_pair ()) = Some E.Checker.Theorem_1);
  Util.check "fig5 decided by the state graph" true
    (procedure_of (Figures.fig5 ()) = Some E.Checker.State_graph);
  Util.check "total pair on three sites decided by Proposition 1" true
    (procedure_of (total_three_site_pair ()) = Some E.Checker.Proposition_1);
  let eng = Decision.create () in
  let o = Decision.decide eng (safe_multi ()) in
  Util.check "three-transaction system decided by Proposition 2" true
    (o.E.Outcome.procedure = Some E.Checker.Proposition_2
    && o.E.Outcome.verdict = E.Outcome.Safe)

let test_proposition1_counterexample () =
  let sys = total_three_site_pair () in
  match (Checkers.decide sys).E.Outcome.verdict with
  | E.Outcome.Unsafe (Checkers.Counterexample h) ->
      Util.check "legal" true (Distlock_sched.Legality.is_legal sys h);
      Util.check "non-serializable" false
        (Distlock_sched.Conflict.is_serializable sys h)
  | _ -> Alcotest.fail "expected a geometric counterexample"

(* ------------------------------------------------------------------ *)
(* Budgets and the Unknown path *)

let test_budget_exhaustion () =
  (* fig5 needs an exhaustive oracle; one step is not enough. *)
  let o = Checkers.decide ~budget:(E.Budget.of_steps 1) (Figures.fig5 ()) in
  (match o.E.Outcome.verdict with
  | E.Outcome.Unknown _ -> ()
  | _ -> Alcotest.fail "expected Unknown under a 1-step budget");
  (* Exhaustion is reported as an inconclusive pass, never an error. *)
  let mentions_budget (s : E.Outcome.stage_trace) =
    let d = s.E.Outcome.detail in
    let needle = "budget exhausted" in
    let n = String.length needle and len = String.length d in
    let rec at i = i + n <= len && (String.sub d i n = needle || at (i + 1)) in
    at 0
  in
  Util.check "an exhausted stage passes with a budget note" true
    (List.exists
       (fun (s : E.Outcome.stage_trace) ->
         s.E.Outcome.status = E.Outcome.Passed && mentions_budget s)
       o.E.Outcome.trace);
  Util.check "no stage is traced as an error" true
    (List.for_all
       (fun (s : E.Outcome.stage_trace) -> s.E.Outcome.status <> E.Outcome.Errored)
       o.E.Outcome.trace)

let test_budget_validation () =
  Util.check "negative steps rejected" true
    (try
       ignore (E.Budget.of_steps (-1));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* The verdict cache *)

let test_cache_hit_on_resubmission () =
  let eng = Decision.create () in
  let first = Decision.decide eng (unsafe_pair ()) in
  Util.check "first decision computed" false first.E.Outcome.cached;
  let second = Decision.decide eng (unsafe_pair ()) in
  Util.check "identical resubmission served from cache" true
    second.E.Outcome.cached;
  Util.check "same verdict" true
    (E.Outcome.decided second
    && second.E.Outcome.procedure = first.E.Outcome.procedure);
  (* A perturbed system is a different key. *)
  let third = Decision.decide eng (unsafe_pair ~z_site:3 ()) in
  Util.check "site perturbation misses the cache" false third.E.Outcome.cached;
  Util.check_int "two distinct misses recorded" 2
    (E.Stats.cache_misses (Decision.stats eng))

let test_unknown_never_cached () =
  let eng = Decision.create () in
  let o1 =
    Decision.decide ~budget:(E.Budget.of_steps 1) eng (Figures.fig5 ())
  in
  Util.check "undecided" false (E.Outcome.decided o1);
  (* A bigger budget must be allowed to try again — the Unknown verdict
     was budget-dependent, so it must not have been cached. *)
  let o2 = Decision.decide eng (Figures.fig5 ()) in
  Util.check "re-decided, not served from cache" false o2.E.Outcome.cached;
  Util.check "now decided safe" true (o2.E.Outcome.verdict = E.Outcome.Safe);
  let o3 = Decision.decide eng (Figures.fig5 ()) in
  Util.check "decided verdicts do get cached" true o3.E.Outcome.cached

let test_lru_find_refreshes_recency () =
  (* [find] must move the entry to the recency front, not just read it:
     otherwise a hot key gets evicted under scan pressure. *)
  let lru = E.Lru.create ~capacity:3 in
  E.Lru.add lru "hot" 0;
  E.Lru.add lru "b" 1;
  E.Lru.add lru "c" 2;
  (* "hot" is oldest by insertion; touching it must protect it. *)
  Util.check "find returns the value" true (E.Lru.find lru "hot" = Some 0);
  E.Lru.add lru "d" 3;
  E.Lru.add lru "e" 4;
  Util.check "touched entry outlives untouched newer ones" true
    (E.Lru.mem lru "hot");
  Util.check "untouched entries evicted first" false (E.Lru.mem lru "b");
  Util.check "find misses return None" true (E.Lru.find lru "b" = None)

(* What the verdict cache and the pair store rely on: replacement in
   place, [clear], and a length bound with counted evictions. *)
let test_lru_semantics () =
  let c = E.Lru.create ~capacity:128 in
  for i = 0 to 63 do
    E.Lru.add c (string_of_int i) i
  done;
  Util.check_int "all entries stored" 64 (E.Lru.length c);
  E.Lru.add c "0" 100;
  Util.check "add replaces in place" true (E.Lru.find c "0" = Some 100);
  Util.check_int "replace does not grow" 64 (E.Lru.length c);
  E.Lru.clear c;
  Util.check_int "clear empties" 0 (E.Lru.length c);
  Util.check "clear forgets the keys" false (E.Lru.mem c "1");
  for i = 0 to (4 * E.Lru.capacity c) - 1 do
    E.Lru.add c ("k" ^ string_of_int i) i
  done;
  Util.check "length bounded by capacity under overfill" true
    (E.Lru.length c <= E.Lru.capacity c);
  Util.check "evictions counted" true (E.Lru.evictions c > 0)

let test_lru_eviction () =
  let lru = E.Lru.create ~capacity:2 in
  E.Lru.add lru "a" 1;
  E.Lru.add lru "b" 2;
  ignore (E.Lru.find lru "a");
  (* "b" is now least recently used. *)
  E.Lru.add lru "c" 3;
  Util.check_int "capacity respected" 2 (E.Lru.length lru);
  Util.check_int "one eviction" 1 (E.Lru.evictions lru);
  Util.check "LRU entry evicted" false (E.Lru.mem lru "b");
  Util.check "recently used entry kept" true (E.Lru.mem lru "a");
  Util.check "rejects capacity 0" true
    (try
       ignore (E.Lru.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* The batch API *)

let test_batch_dedup_and_stats () =
  let eng = Decision.create () in
  let a () = unsafe_pair () and b () = two_phase_pair () in
  let outcomes, report =
    Decision.decide_batch eng [ a (); b (); a (); a (); b () ]
  in
  Util.check_int "all outcomes returned" 5 (List.length outcomes);
  Util.check_int "two unique systems" 2 report.E.Engine.unique;
  Util.check_int "three duplicates folded in-batch" 3
    report.E.Engine.batch_dedup_hits;
  Util.check "positive hit rate on a duplicated workload" true
    (E.Engine.hit_rate report > 0.);
  Util.check "per-procedure tally populated" true
    (report.E.Engine.per_procedure <> []);
  (* Per-stage counters saw real work. *)
  let stages = E.Stats.stages (Decision.stats eng) in
  Util.check "stage counters populated" true (stages <> []);
  Util.check "some stage attempted" true
    (List.exists (fun s -> s.E.Stats.attempts > 0) stages);
  Util.check "stage timings accumulate" true
    (List.for_all (fun s -> s.E.Stats.seconds >= 0.) stages);
  (* A second identical batch is served entirely by the LRU cache. *)
  let _, report2 = Decision.decide_batch eng [ a (); b () ] in
  Util.check_int "second batch: all cache hits" 2 report2.E.Engine.cache_hits

let test_batch_agrees_with_decide () =
  let eng = Decision.create ~cache_capacity:0 () in
  let sys = [ unsafe_pair (); two_phase_pair (); safe_multi () ] in
  let cached = Decision.create () in
  let batched, _ = Decision.decide_batch cached sys in
  List.iter2
    (fun s (b : _ E.Outcome.t) ->
      let plain = Decision.decide eng s in
      Util.check "same procedure with and without cache" true
        (plain.E.Outcome.procedure = b.E.Outcome.procedure);
      Util.check "same decidedness" true
        (E.Outcome.decided plain = E.Outcome.decided b))
    sys batched

(* Each submitted system is digested once: the batch keys every
   submission, and the decision of a distinct one reuses that key.
   [decide_explained] digests once for both halves. *)
let test_batch_fingerprints_once () =
  let calls = ref 0 in
  let counting () =
    let checker =
      E.Checker.make ~name:"constant" ~procedure:E.Checker.Trivial
        ~applicable:(fun _ -> true)
        ~run:(fun _ _ -> E.Checker.Safe "constant says safe")
    in
    E.Engine.create
      ~fingerprint:(fun (s : string) ->
        incr calls;
        s)
      [ checker ]
  in
  let _, report = E.Engine.decide_batch (counting ()) [ "a"; "b"; "a" ] in
  Util.check_int "two distinct systems" 2 report.E.Engine.unique;
  Util.check_int "one fingerprint per submission" 3 !calls;
  calls := 0;
  let _ = E.Engine.decide_explained (counting ()) "a" in
  Util.check_int "decide_explained: one fingerprint" 1 !calls

(* ------------------------------------------------------------------ *)
(* A batch answers as per-system decisions do *)

let verdict_tag (o : _ E.Outcome.t) =
  match o.E.Outcome.verdict with
  | E.Outcome.Safe -> "safe"
  | E.Outcome.Unsafe _ -> "unsafe"
  | E.Outcome.Unknown _ -> "unknown"

let gen_small_batch =
  Util.gen_with_state (fun st ->
      let n = 1 + Random.State.int st 5 in
      let syss =
        List.init n (fun _ ->
            Txn_gen.random_pair_system st
              ~num_shared:(1 + Random.State.int st 3)
              ~num_private:(Random.State.int st 2)
              ~num_sites:(1 + Random.State.int st 3)
              ~cross_prob:(Random.State.float st 1.0) ())
      in
      (* Re-submit a random prefix so batch dedup is exercised too. *)
      let k = Random.State.int st (n + 1) in
      syss @ List.filteri (fun i _ -> i < k) syss)

(* On a fresh engine, a batch gives each submission the verdict,
   procedure and [cached] flag that per-system [decide] calls give on
   another fresh engine, and every cached answer is a batch duplicate or
   a cache hit. *)
let qcheck_batch_matches_decide =
  Util.qtest ~count:1000 "decide_batch ≡ per-system decide"
    gen_small_batch
    (fun syss ->
      let answer (o : _ E.Outcome.t) =
        (verdict_tag o, o.E.Outcome.procedure, o.E.Outcome.cached)
      in
      let batched, r = Decision.decide_batch (Decision.create ()) syss in
      let eng = Decision.create () in
      let single = List.map (Decision.decide eng) syss in
      List.map answer batched = List.map answer single
      && r.E.Engine.batch_dedup_hits + r.E.Engine.cache_hits
         = List.length
             (List.filter (fun (o : _ E.Outcome.t) -> o.E.Outcome.cached)
                batched))

(* ------------------------------------------------------------------ *)
(* Explain: the typed provenance record *)

let stage_status (ex : E.Explain.t) name =
  match
    List.find_opt (fun (s : E.Explain.stage) -> s.E.Explain.checker = name)
      ex.E.Explain.stages
  with
  | Some s -> s.E.Explain.status
  | None -> Alcotest.failf "explain carries no stage %S" name

(* The shape every explain record keeps: each status from the five-label
   set, a stage inapplicable exactly when its checker is not applicable,
   one decided stage behind a decided verdict that was not a cache hit,
   and the fingerprint as a 32-character hex digest. *)
let check_explain_shape (ex : E.Explain.t) =
  let labels = [ "decided"; "passed"; "error"; "inapplicable"; "not-reached" ] in
  List.iter
    (fun (s : E.Explain.stage) ->
      if not (List.mem s.E.Explain.status labels) then
        Alcotest.failf "stage %s: status %S is not one of the five labels"
          s.E.Explain.checker s.E.Explain.status;
      Util.check
        (Printf.sprintf "stage %s: inapplicable iff not applicable"
           s.E.Explain.checker)
        (not s.E.Explain.applicable)
        (s.E.Explain.status = "inapplicable"))
    ex.E.Explain.stages;
  if ex.E.Explain.verdict <> "unknown" && not ex.E.Explain.cache.E.Explain.hit
  then
    Util.check_int "one decided stage behind a decided verdict" 1
      (List.length
         (List.filter
            (fun (s : E.Explain.stage) -> s.E.Explain.status = "decided")
            ex.E.Explain.stages));
  let fp = ex.E.Explain.cache.E.Explain.fingerprint in
  let hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
  Util.check "fingerprint is a 32-character hex digest" true
    (String.length fp = 32 && String.for_all hex fp)

let test_explain_fast_path () =
  let eng = Decision.create () in
  let o, ex = Decision.decide_explained eng (two_phase_pair ()) in
  check_explain_shape ex;
  Util.check "decided by Theorem 1" true
    (o.E.Outcome.procedure = Some E.Checker.Theorem_1);
  Util.check "verdict mirrored" true (ex.E.Explain.verdict = "safe");
  Util.check "procedure mirrored" true
    (ex.E.Explain.procedure = E.Outcome.provenance o);
  Util.check "not served from cache" false ex.E.Explain.cache.E.Explain.hit;
  Util.check "the winning stage is marked decided" true
    (stage_status ex "theorem1" = "decided");
  (* Every checker in the table appears exactly once, and stages after
     the winner never ran. *)
  Util.check_int "full checker table present"
    (List.length (E.Engine.checkers eng))
    (List.length ex.E.Explain.stages);
  Util.check "state graph not reached on a fast path" true
    (stage_status ex "state-graph" = "not-reached");
  (* budget_spent_s is a cumulative, nondecreasing prefix sum. *)
  let rec nondecreasing prev = function
    | [] -> true
    | (s : E.Explain.stage) :: rest ->
        s.E.Explain.budget_spent_s >= prev
        && nondecreasing s.E.Explain.budget_spent_s rest
  in
  Util.check "budget_spent_s nondecreasing" true
    (nondecreasing 0. ex.E.Explain.stages);
  Util.check "fast path carries no oracle stats" true
    (ex.E.Explain.oracle = None)

let test_explain_oracle_stats () =
  let eng = Decision.create () in
  let _, ex = Decision.decide_explained eng (Figures.fig5 ()) in
  check_explain_shape ex;
  Util.check "fig5 decided by the state graph" true
    (stage_status ex "state-graph" = "decided");
  match ex.E.Explain.oracle with
  | None -> Alcotest.fail "state-graph decision must carry oracle stats"
  | Some o ->
      Util.check "states visited" true (o.E.Explain.states > 0);
      Util.check "dedup ratio in [0,1]" true
        (o.E.Explain.dedup_ratio >= 0. && o.E.Explain.dedup_ratio <= 1.);
      Util.check "not exhausted" false o.E.Explain.exhausted

let test_explain_cache_hit () =
  let eng = Decision.create () in
  let _, ex1 = Decision.decide_explained eng (unsafe_pair ()) in
  let o2, ex2 = Decision.decide_explained eng (unsafe_pair ()) in
  check_explain_shape ex1;
  check_explain_shape ex2;
  Util.check "second decision cached" true o2.E.Outcome.cached;
  Util.check "explain reports the hit" true ex2.E.Explain.cache.E.Explain.hit;
  Util.check "same fingerprint digest both times" true
    (ex1.E.Explain.cache.E.Explain.fingerprint
    = ex2.E.Explain.cache.E.Explain.fingerprint);
  Util.check "digest is 32 hex chars" true
    (String.length ex1.E.Explain.cache.E.Explain.fingerprint = 32)

let test_explain_exhaustion () =
  let eng = Decision.create () in
  let o, ex =
    Decision.decide_explained ~budget:(E.Budget.of_steps 1) eng
      (Figures.fig5 ())
  in
  check_explain_shape ex;
  Util.check "undecided" false (E.Outcome.decided o);
  Util.check "verdict unknown" true (ex.E.Explain.verdict = "unknown");
  match ex.E.Explain.oracle with
  | None -> Alcotest.fail "exhausted oracle must still report stats"
  | Some os -> Util.check "exhaustion flagged" true os.E.Explain.exhausted

let test_explain_annotated_metrics () =
  (* A custom checker wrapping its result in [Annotated] must surface
     its attributes as the stage's [metrics]. *)
  let checker =
    E.Checker.make ~name:"annotated" ~procedure:E.Checker.Trivial
      ~applicable:(fun _ -> true)
      ~run:(fun _ _ ->
        E.Checker.Annotated
          ( [ Distlock_obs.Attr.int "widgets" 7 ],
            E.Checker.Safe "annotated says safe" ))
  in
  let eng = E.Engine.create ~fingerprint:(fun () -> "unit") [ checker ] in
  let _, ex = E.Engine.decide_explained eng () in
  check_explain_shape ex;
  match ex.E.Explain.stages with
  | [ s ] ->
      Util.check "status decided" true (s.E.Explain.status = "decided");
      Util.check "annotation surfaced as a stage metric" true
        (List.assoc_opt "widgets" s.E.Explain.metrics
        = Some (Distlock_obs.Attr.Int 7));
      Util.check "detail is the unwrapped result's" true
        (s.E.Explain.detail = "annotated says safe")
  | l -> Alcotest.failf "expected 1 stage, got %d" (List.length l)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "stable" `Quick test_fingerprint_stable;
          Alcotest.test_case "perturbation" `Quick
            test_fingerprint_perturbation;
          Alcotest.test_case "pinned digests" `Quick test_fingerprint_pinned;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "provenance" `Quick test_provenance;
          Alcotest.test_case "proposition 1 counterexample" `Quick
            test_proposition1_counterexample;
        ] );
      ( "budget",
        [
          Alcotest.test_case "step exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "validation" `Quick test_budget_validation;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit on resubmission" `Quick
            test_cache_hit_on_resubmission;
          Alcotest.test_case "unknown never cached" `Quick
            test_unknown_never_cached;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "lru find refreshes recency" `Quick
            test_lru_find_refreshes_recency;
          Alcotest.test_case "lru semantics" `Quick test_lru_semantics;
        ] );
      ( "batch",
        [
          Alcotest.test_case "dedup and stats" `Quick
            test_batch_dedup_and_stats;
          Alcotest.test_case "agrees with decide" `Quick
            test_batch_agrees_with_decide;
          Alcotest.test_case "one fingerprint per submission" `Quick
            test_batch_fingerprints_once;
          qcheck_batch_matches_decide;
        ] );
      ( "explain",
        [
          Alcotest.test_case "fast path" `Quick test_explain_fast_path;
          Alcotest.test_case "oracle stats" `Quick test_explain_oracle_stats;
          Alcotest.test_case "cache hit" `Quick test_explain_cache_hit;
          Alcotest.test_case "budget exhaustion" `Quick test_explain_exhaustion;
          Alcotest.test_case "annotated metrics" `Quick
            test_explain_annotated_metrics;
        ] );
    ]
