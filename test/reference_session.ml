(* Reference session for the differential property in test_incremental.ml:
   the incremental session the library's persistent one replaced. It
   keeps the conflict graph over transaction names (a table of neighbour
   tables), caches pair fingerprints per name pair and drops a name's
   keys by scanning them all, and re-walks everything on every call:
   each call renumbers the names, rebuilds the conflict digraph, looks
   every conflicting pair up in the pair store in lexicographic order,
   recomputes the SCCs and sends every component of three or more
   members through the content-keyed cycle and B_c memos. The library
   session must give the same outcome (verdict, reason indices, the six
   counters) and the same pair-store traffic after every edit. *)

open Distlock_txn
open Distlock_core
module E = Distlock_engine
module G = Distlock_graph

(* Undirected graph over names. *)
module Names_graph = struct
  type t = (string, (string, unit) Hashtbl.t) Hashtbl.t

  let add_vertex (t : t) v =
    if not (Hashtbl.mem t v) then Hashtbl.add t v (Hashtbl.create 4)

  let remove_vertex (t : t) v =
    match Hashtbl.find_opt t v with
    | None -> ()
    | Some ns ->
        Hashtbl.iter
          (fun w () ->
            match Hashtbl.find_opt t w with
            | Some ws -> Hashtbl.remove ws v
            | None -> ())
          ns;
        Hashtbl.remove t v

  let add_edge (t : t) u v =
    let us = Hashtbl.find t u and vs = Hashtbl.find t v in
    if not (Hashtbl.mem us v) then begin
      Hashtbl.add us v ();
      Hashtbl.add vs u ()
    end

  let to_digraph (t : t) ~index_of ~n =
    let g = G.Digraph.create n in
    Hashtbl.iter
      (fun u ns ->
        let iu = index_of u in
        Hashtbl.iter (fun v () -> G.Digraph.add_arc g iu (index_of v)) ns)
      t;
    g
end

type t = {
  db : Database.t;
  mutable txns : Txn.t list; (* insertion order *)
  conflicts : Names_graph.t;
  locked : (string, Database.entity list) Hashtbl.t;
  fps : (string, string) Hashtbl.t;
  pair_cache : bool E.Lru.t;
  pair_keys : (string * string, string) Hashtbl.t;
  memo : Multisite.memo;
  stats : E.Stats.t;
  mutable snapshot : System.t option;
}

let rec intersects a b =
  match (a, b) with
  | [], _ | _, [] -> false
  | x :: a', y :: b' ->
      if x = y then true else if x < y then intersects a' b else intersects a b'

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
  let locked = Txn.locked_entities txn in
  Hashtbl.replace t.locked name locked;
  drop_pair_keys t name;
  Names_graph.add_vertex t.conflicts name;
  Hashtbl.iter
    (fun other their ->
      if other <> name && intersects locked their then
        Names_graph.add_edge t.conflicts name other)
    t.locked

let unregister t name =
  if not (Hashtbl.mem t.fps name) then
    invalid_arg ("Incremental: unknown transaction " ^ name);
  Hashtbl.remove t.fps name;
  Hashtbl.remove t.locked name;
  drop_pair_keys t name;
  Names_graph.remove_vertex t.conflicts name

let create db txns =
  let t =
    {
      db;
      txns = [];
      conflicts = Hashtbl.create 32;
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

let system t =
  match t.snapshot with
  | Some s -> s
  | None ->
      let s = System.make t.db t.txns in
      t.snapshot <- Some s;
      s

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

(* Proposition 2 with the memo on every component, every call. *)
let walk ~pair_safe ~memo ~cycle_limit tally sys g =
  let n = G.Digraph.n g in
  let exception Unsafe_found of Multisite.unsafe_reason in
  try
    for i = 0 to n - 1 do
      List.iter
        (fun j ->
          tally.Multisite.pairs_total <- tally.Multisite.pairs_total + 1;
          if not (pair_safe i j) then
            raise (Unsafe_found (Multisite.Unsafe_pair (i, j))))
        (List.sort compare
           (List.filter (fun j -> j > i) (G.Digraph.succ g i)))
    done;
    let scc = G.Scc.compute g in
    let members = Array.make scc.G.Scc.count [] in
    for v = n - 1 downto 0 do
      let c = scc.G.Scc.component.(v) in
      members.(c) <- v :: members.(c)
    done;
    let allowance = Multisite.allowance cycle_limit in
    let rank = Array.make n 0 in
    let txn i = System.txn (Lazy.force sys) i in
    Array.fold_left
      (fun acc mem ->
        match acc with
        | Multisite.Decided Multisite.Safe
          when List.compare_length_with mem 3 >= 0 ->
            Multisite.judge_component ~memo allowance tally ~txn
              ~neighbours:(G.Digraph.iter_succ g) ~rank mem
        | acc -> acc)
      (Multisite.Decided Multisite.Safe) members
  with Unsafe_found r -> Multisite.Decided (Multisite.Unsafe r)

let decide_delta ?(budget = E.Budget.unlimited) t =
  let tally = Multisite.tally () in
  let verdict =
    match t.txns with
    | [] | [ _ ] -> Incremental.Safe
    | _ -> (
        let sys = lazy (system t) in
        let names = Array.of_list (txn_names t) in
        let n = Array.length names in
        let fp_of i = Hashtbl.find t.fps names.(i) in
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
          Names_graph.to_digraph t.conflicts ~index_of:(Hashtbl.find idx) ~n
        in
        let cycle_limit = E.Budget.step_allowance budget ~default:2_000_000 in
        match
          walk ~pair_safe ~memo:(t.memo, fp_of) ~cycle_limit tally sys g
        with
        | Multisite.Decided Multisite.Safe -> Incremental.Safe
        | Multisite.Decided (Multisite.Unsafe r) -> Incremental.Unsafe r
        | Multisite.Exhausted e ->
            Incremental.Unknown (Multisite.describe_exhaustion e)
        | exception Multisite.Undecided msg -> Incremental.Unknown msg)
  in
  {
    Incremental.verdict;
    pairs_total = tally.Multisite.pairs_total;
    pairs_reused = tally.Multisite.pair_hits;
    pairs_redecided = tally.Multisite.pairs_redecided;
    cycles_total = tally.Multisite.cycles_total;
    cycles_reused =
      tally.Multisite.cycles_total - tally.Multisite.cycles_rejudged;
    cycles_rejudged = tally.Multisite.cycles_rejudged;
    seconds = 0.;
  }
