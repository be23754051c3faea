open Distlock_txn
module E = Distlock_engine
module G = Distlock_graph
module Obs = Distlock_obs.Obs
module A = Distlock_obs.Attr

type verdict =
  | Safe
  | Unsafe of Multisite.unsafe_reason
  | Unknown of string

type outcome = {
  verdict : verdict;
  pairs_total : int;
  pairs_reused : int;
  pairs_redecided : int;
  cycles_total : int;
  cycles_reused : int;
  cycles_rejudged : int;
  seconds : float;
}

type t = {
  db : Database.t;
  mutable txns : Txn.t list; (* insertion order *)
  conflicts : G.Dyngraph.t; (* vertices are transaction names *)
  locked : (string, Database.entity list) Hashtbl.t; (* sorted ids *)
  fps : (string, string) Hashtbl.t; (* name -> Txn.fingerprint *)
  pair_cache : bool E.Lru.t; (* pair_fingerprint -> safe? *)
  pair_keys : (string * string, string) Hashtbl.t;
      (* sorted name pair -> pair_fingerprint; entries dropped when
         either endpoint mutates, so holds only live conflicting pairs *)
  memo : Multisite.memo; (* per-SCC cycle lists, per-cycle B_c verdicts *)
  stats : E.Stats.t;
  mutable snapshot : System.t option;
}

(* Both lists ascending (Txn.locked_entities sorts). *)
let rec intersects a b =
  match (a, b) with
  | [], _ | _, [] -> false
  | x :: a', y :: b' ->
      if x = y then true else if x < y then intersects a' b else intersects a b'

let connect t name =
  let locked = Hashtbl.find t.locked name in
  Hashtbl.iter
    (fun other their ->
      if other <> name && intersects locked their then
        G.Dyngraph.add_edge t.conflicts name other)
    t.locked

let drop_pair_keys t name =
  let stale =
    Hashtbl.fold
      (fun ((a, b) as k) _ acc ->
        if a = name || b = name then k :: acc else acc)
      t.pair_keys []
  in
  List.iter (Hashtbl.remove t.pair_keys) stale

let register t txn =
  let name = Txn.name txn in
  if Hashtbl.mem t.fps name then
    invalid_arg ("Incremental: duplicate transaction name " ^ name);
  Hashtbl.replace t.fps name (Txn.fingerprint txn);
  Hashtbl.replace t.locked name (Txn.locked_entities txn);
  drop_pair_keys t name;
  G.Dyngraph.add_vertex t.conflicts name;
  connect t name

let unregister t name =
  if not (Hashtbl.mem t.fps name) then
    invalid_arg ("Incremental: unknown transaction " ^ name);
  Hashtbl.remove t.fps name;
  Hashtbl.remove t.locked name;
  drop_pair_keys t name;
  G.Dyngraph.remove_vertex t.conflicts name

let create db txns =
  let t =
    {
      db;
      txns = [];
      conflicts = G.Dyngraph.create ();
      locked = Hashtbl.create 64;
      fps = Hashtbl.create 64;
      pair_cache = E.Lru.create ~capacity:4096;
      pair_keys = Hashtbl.create 64;
      memo = Multisite.memo ();
      stats = E.Stats.create ();
      snapshot = None;
    }
  in
  List.iter
    (fun txn ->
      register t txn;
      t.txns <- t.txns @ [ txn ])
    txns;
  t

let of_system sys = create (System.db sys) (Array.to_list (System.txns sys))

let system t =
  match t.snapshot with
  | Some s -> s
  | None ->
      if t.txns = [] then invalid_arg "Incremental.system: empty session";
      let s = System.make t.db t.txns in
      t.snapshot <- Some s;
      s

let num_txns t = List.length t.txns

let txn_names t = List.map Txn.name t.txns

let stats t = t.stats

let add_txn t txn =
  register t txn;
  t.txns <- t.txns @ [ txn ];
  t.snapshot <- None

let remove_txn t name =
  unregister t name;
  t.txns <- List.filter (fun x -> Txn.name x <> name) t.txns;
  t.snapshot <- None

let replace_txn t name txn =
  if not (Hashtbl.mem t.fps name) then
    invalid_arg ("Incremental: unknown transaction " ^ name);
  let new_name = Txn.name txn in
  if new_name <> name && Hashtbl.mem t.fps new_name then
    invalid_arg ("Incremental: duplicate transaction name " ^ new_name);
  unregister t name;
  register t txn;
  t.txns <- List.map (fun x -> if Txn.name x = name then txn else x) t.txns;
  t.snapshot <- None

let decide_delta ?(budget = E.Budget.unlimited) t =
  let started = Obs.mono_s () in
  let tally = Multisite.tally () in
  let sp = Obs.start_span "session.decide_delta" in
  let verdict =
    match t.txns with
    | [] | [ _ ] -> Safe (* no conflicting pair, no cycle of length >= 3 *)
    | _ -> (
        (* Built only when a cache miss actually needs transaction
           content — a fully warm call re-decides nothing and skips
           the snapshot entirely. *)
        let sys = lazy (system t) in
        let names = Array.of_list (txn_names t) in
        let n = Array.length names in
        let fp_of i = Hashtbl.find t.fps names.(i) in
        (* Pair fingerprints are cached per name pair and dropped when
           an endpoint mutates, so only pairs touched since the last
           call are digested again. *)
        let pair_key i j =
          let key =
            if names.(i) <= names.(j) then (names.(i), names.(j))
            else (names.(j), names.(i))
          in
          match Hashtbl.find_opt t.pair_keys key with
          | Some fp -> fp
          | None ->
              let fp =
                System.pair_fingerprint_with ~fp:fp_of (Lazy.force sys) i j
              in
              Hashtbl.replace t.pair_keys key fp;
              fp
        in
        let pair_safe =
          Multisite.pair_safe ~store:(t.pair_cache, t.stats, pair_key)
            ~run_stats:t.stats ~budget tally sys
        in
        let idx = Hashtbl.create n in
        Array.iteri (fun i nm -> Hashtbl.replace idx nm i) names;
        let g =
          G.Dyngraph.to_digraph t.conflicts ~index_of:(Hashtbl.find idx) ~n
        in
        let cycle_limit = E.Budget.step_allowance budget ~default:2_000_000 in
        match
          Multisite.decide_with ~pair_safe ~memo:(t.memo, fp_of) ~cycle_limit
            tally sys g
        with
        | Multisite.Decided Multisite.Safe -> Safe
        | Multisite.Decided (Multisite.Unsafe r) -> Unsafe r
        | Multisite.Exhausted e -> Unknown (Multisite.describe_exhaustion e)
        | exception Multisite.Undecided msg -> Unknown msg)
  in
  let seconds = Obs.mono_s () -. started in
  let cycles_reused =
    tally.Multisite.cycles_total - tally.Multisite.cycles_rejudged
  in
  if Obs.enabled () then
    Obs.add_attrs sp
      [
        A.str "verdict"
          (match verdict with
          | Safe -> "safe"
          | Unsafe _ -> "unsafe"
          | Unknown _ -> "unknown");
        A.int "pairs_total" tally.Multisite.pairs_total;
        A.int "pairs_reused" tally.Multisite.pair_hits;
        A.int "pairs_redecided" tally.Multisite.pairs_redecided;
        A.int "cycles_total" tally.Multisite.cycles_total;
        A.int "cycles_reused" cycles_reused;
        A.int "cycles_rejudged" tally.Multisite.cycles_rejudged;
      ];
  Obs.end_span sp;
  {
    verdict;
    pairs_total = tally.Multisite.pairs_total;
    pairs_reused = tally.Multisite.pair_hits;
    pairs_redecided = tally.Multisite.pairs_redecided;
    cycles_total = tally.Multisite.cycles_total;
    cycles_reused;
    cycles_rejudged = tally.Multisite.cycles_rejudged;
    seconds;
  }
