(* Answer checks that do not trust the checker under test — witness
   schedules are re-verified against the system, and multi-transaction
   unsafety is re-proved on the named sub-system with the state-graph
   oracle — and the CLI's rendering of a check outcome. *)

open Distlock_txn
open Distlock_core
module S = Distlock_sched

let unsafe_schedule sys h =
  S.Schedule.is_complete sys h
  && S.Legality.is_legal sys h
  && not (S.Conflict.is_serializable sys h)

(* The transactions a Proposition 2 reason names form an unsafe
   sub-system; a legal non-serializable schedule of it, found by the
   exhaustive state-graph search, is a proof independent of the pair
   pipeline. [None] when the search exceeds its budget. *)
let unsafe_subsystem sys members =
  let sub =
    System.make (System.db sys) (List.map (fun i -> System.txn sys i) members)
  in
  match S.Stategraph.decide ~limit:20_000 sub with
  | S.Stategraph.Unsafe h, _ -> Some (unsafe_schedule sub h)
  | S.Stategraph.Safe, _ -> Some false
  | S.Stategraph.Exhausted _, _ -> None

(* [Some proved] when the reason's sub-system is small enough to search:
   an unsafe pair, or a conflict cycle of at most six transactions whose
   state graph fits the budget, the same reach as the pool's cross-check.
   [None] otherwise. *)
let multi_witness sys = function
  | Multisite.Unsafe_pair (i, j) -> unsafe_subsystem sys [ i; j ]
  | Multisite.Acyclic_bc cycle ->
      let members = List.sort_uniq compare cycle in
      if List.length members <= 6 then unsafe_subsystem sys members else None

(* Certificates and schedules re-verify against the system; a
   multi-transaction reason must yield a witness when one is in reach. *)
let unsafe_evidence sys = function
  | Decision.Pair (Checkers.Certificate c) -> Some (Certificate.verify sys c)
  | Decision.Pair (Checkers.Counterexample h) -> Some (unsafe_schedule sys h)
  | Decision.Multi reason -> multi_witness sys reason

(* The CLI's rendering of a [check] outcome, into a string. *)
let render sys (o : Decision.evidence Distlock_engine.Outcome.t) =
  match o.Distlock_engine.Outcome.verdict with
  | Distlock_engine.Outcome.Safe ->
      if System.num_txns sys = 2 then "SAFE — " ^ o.Distlock_engine.Outcome.detail
      else "SAFE — Proposition 2"
  | Distlock_engine.Outcome.Unsafe (Decision.Pair (Checkers.Certificate c)) ->
      "UNSAFE\n" ^ Format.asprintf "%a" (Certificate.pp sys) c
  | Distlock_engine.Outcome.Unsafe (Decision.Pair (Checkers.Counterexample h)) ->
      "UNSAFE\nnon-serializable schedule:\n  " ^ S.Schedule.to_string sys h
  | Distlock_engine.Outcome.Unsafe (Decision.Multi reason) ->
      "UNSAFE — " ^ Decision.describe_multi sys reason
  | Distlock_engine.Outcome.Unknown m -> "UNKNOWN — " ^ m
