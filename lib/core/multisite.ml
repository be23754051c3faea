open Distlock_txn
open Distlock_graph
module E = Distlock_engine

type unsafe_reason = Unsafe_pair of int * int | Acyclic_bc of int list

type verdict = Safe | Unsafe of unsafe_reason

let conflict_graph sys =
  let r = System.num_txns sys in
  let g = Digraph.create r in
  for i = 0 to r - 1 do
    for j = i + 1 to r - 1 do
      if System.common_locked sys i j <> [] then begin
        Digraph.add_arc g i j;
        Digraph.add_arc g j i
      end
    done
  done;
  g

(* Node table shared by B_ijk construction: key (lo, hi, entity). *)
module Nodes = struct
  type t = {
    index : (int * int * Database.entity, int) Hashtbl.t;
    mutable names : (int * int * Database.entity) list; (* reversed *)
    mutable count : int;
  }

  let create () = { index = Hashtbl.create 32; names = []; count = 0 }

  let get t key =
    match Hashtbl.find_opt t.index key with
    | Some v -> v
    | None ->
        let v = t.count in
        Hashtbl.add t.index key v;
        t.names <- key :: t.names;
        t.count <- t.count + 1;
        v

  let names t = Array.of_list (List.rev t.names)
end

let pair_key i j = if i < j then (i, j) else (j, i)

(* Add B_ijk arcs into [g] using the node table; [txn i] is transaction
   [i]. *)
let add_b_arcs txn nodes add_arc ~i ~j ~k =
  let tj = txn j in
  let lo1, hi1 = pair_key i j and lo2, hi2 = pair_key j k in
  let xs = System.common_locked_txns (txn i) tj in
  let ys = System.common_locked_txns tj (txn k) in
  let lock e = Option.get (Txn.lock_of tj e) in
  let unlock e = Option.get (Txn.unlock_of tj e) in
  (* (x@ij, y@jk) iff Lx precedes Uy in Tj *)
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if Txn.precedes tj (lock x) (unlock y) then
            add_arc
              (Nodes.get nodes (lo1, hi1, x))
              (Nodes.get nodes (lo2, hi2, y)))
        ys)
    xs;
  (* (x@ij, x'@ij) iff Lx precedes Lx' in Tj *)
  List.iter
    (fun x ->
      List.iter
        (fun x' ->
          if x <> x' && Txn.precedes tj (lock x) (lock x') then
            add_arc
              (Nodes.get nodes (lo1, hi1, x))
              (Nodes.get nodes (lo1, hi1, x')))
        xs)
    xs;
  (* (y@jk, y'@jk) iff Uy precedes Uy' in Tj *)
  List.iter
    (fun y ->
      List.iter
        (fun y' ->
          if y <> y' && Txn.precedes tj (unlock y) (unlock y') then
            add_arc
              (Nodes.get nodes (lo2, hi2, y))
              (Nodes.get nodes (lo2, hi2, y')))
        ys)
    ys

(* Two-pass construction: collect arcs with a growing node table, then
   build the digraph once the node count is known. *)
let build_b txn triples =
  let nodes = Nodes.create () in
  let arcs = ref [] in
  let add_arc u v = arcs := (u, v) :: !arcs in
  List.iter (fun (i, j, k) -> add_b_arcs txn nodes add_arc ~i ~j ~k) triples;
  let g = Digraph.create nodes.Nodes.count in
  List.iter (fun (u, v) -> Digraph.add_arc g u v) !arcs;
  (g, Nodes.names nodes)

let b_graph sys ~i ~j ~k = build_b (System.txn sys) [ (i, j, k) ]

let cycle_b_graph txn cycle =
  let arr = Array.of_list cycle in
  let n = Array.length arr in
  let triples =
    List.init n (fun p -> (arr.(p), arr.((p + 1) mod n), arr.((p + 2) mod n)))
  in
  fst (build_b txn triples)

let b_cycle_graph sys cycle = cycle_b_graph (System.txn sys) cycle

type exhaustion = { examined : int; limit : int }

let describe_exhaustion { examined; limit } =
  Printf.sprintf "cycle-enumeration budget exhausted after %d of %d steps"
    examined limit

type cycle_enum = Cycles of int list list | Cut of exhaustion

(* The enumeration and the number of arcs it followed. *)
let count_cycles ~limit g =
  let n = Digraph.n g in
  let cycles = ref [] in
  let steps = ref 0 in
  let exception Budget_cut in
  (* DFS from each root, only visiting vertices >= root, so each cycle is
     found exactly once per orientation with its smallest vertex first.
     Every arc the search follows counts one step against [limit]: the
     path count — not the cycle count — is what explodes on dense
     graphs, so that is what the budget must meter. *)
  let rec extend root path on_path v =
    Digraph.iter_succ g v (fun w ->
        incr steps;
        if !steps > limit then raise Budget_cut;
        if w = root && List.length path >= 3 then
          cycles := List.rev path :: !cycles
        else if w > root && not (List.mem w on_path) then
          extend root (w :: path) (w :: on_path) w)
  in
  match
    for root = 0 to n - 1 do
      extend root [ root ] [ root ] root
    done
  with
  | () -> (Cycles !cycles, !steps)
  | exception Budget_cut -> (Cut { examined = !steps; limit }, !steps)

let simple_cycles_bounded ~limit g = fst (count_cycles ~limit g)

let simple_cycles g =
  match simple_cycles_bounded ~limit:max_int g with
  | Cycles cs -> cs
  | Cut _ -> assert false (* max_int steps is unreachable *)

let pair_system sys i j =
  System.make (System.db sys) [ System.txn sys i; System.txn sys j ]

type result = Decided of verdict | Exhausted of exhaustion

type tally = {
  mutable pairs_total : int;
  mutable pair_hits : int;
  mutable pairs_redecided : int;
  mutable cycles_total : int;
  mutable cycles_rejudged : int;
}

let tally () =
  {
    pairs_total = 0;
    pair_hits = 0;
    pairs_redecided = 0;
    cycles_total = 0;
    cycles_rejudged = 0;
  }

exception Undecided of string

let pair_verdict ?store ?run_stats ~budget tally pair =
  let decide () =
    match
      (Checkers.decide ?stats:run_stats ~budget (pair ())).E.Outcome.verdict
    with
    | E.Outcome.Safe -> true
    | E.Outcome.Unsafe _ -> false
    | E.Outcome.Unknown msg -> raise (Undecided msg)
  in
  match store with
  | None -> decide ()
  | Some (verdicts, stats, fp) -> (
      match E.Lru.find verdicts fp with
      | Some safe ->
          tally.pair_hits <- tally.pair_hits + 1;
          E.Stats.record_pair_lookup stats ~hit:true;
          safe
      | None ->
          E.Stats.record_pair_lookup stats ~hit:false;
          let safe = decide () in
          tally.pairs_redecided <- tally.pairs_redecided + 1;
          E.Stats.record_pair_redecided stats;
          E.Lru.add verdicts fp safe;
          safe)

let pair_safe ?store ?run_stats ~budget tally sys i j =
  let store =
    Option.map (fun (verdicts, stats, fp) -> (verdicts, stats, fp i j)) store
  in
  pair_verdict ?store ?run_stats ~budget tally (fun () ->
      pair_system (Lazy.force sys) i j)

(* Bounds on the memo tables. They are plain Hashtbls (one session, one
   caller), so the cap is a reset, not an LRU: a workload that genuinely
   cycles through more distinct SCCs or cycles than this re-derives
   them — correctness never depends on a hit. *)
let cycle_cache_cap = 65_536
let scc_cache_cap = 4_096

type memo = {
  scc_cycles : (string, int list list) Hashtbl.t;
      (* SCC content -> its simple cycles, as fp-rank lists *)
  cycle_cache : (string, bool) Hashtbl.t; (* cycle content -> B_c cyclic? *)
}

let memo () =
  { scc_cycles = Hashtbl.create 16; cycle_cache = Hashtbl.create 64 }

let digest parts = Digest.to_hex (Digest.string (String.concat "|" parts))

let cached tbl ~cap key compute =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = compute () in
      if Hashtbl.length tbl >= cap then Hashtbl.reset tbl;
      Hashtbl.replace tbl key v;
      v

type allowance = { limit : int; mutable spent : int }

let allowance limit = { limit; spent = 0 }

exception Cycles_cut of exhaustion

(* Every enumeration spends from what the ones before it left. *)
let enumerate allowance sub =
  match count_cycles ~limit:(allowance.limit - allowance.spent) sub with
  | Cycles cs, steps ->
      allowance.spent <- allowance.spent + steps;
      cs
  | Cut _, steps ->
      raise
        (Cycles_cut
           { examined = allowance.spent + steps; limit = allowance.limit })

(* Condition (b) for one component [mem] (ascending, at least three
   members): enumerate the cycles of its subgraph, built from sorted
   arcs over a renumbering of the members, and judge each cycle's B_c.
   With a memo the renumbering ranks members by transaction
   fingerprint, so both the cycle list (keyed by the component's
   content) and each B_c verdict (keyed by its members' content)
   survive edits that leave them untouched; a found cycle list spends
   none of the allowance. *)
let judge_component ?memo allowance tally ~txn ~neighbours ~rank mem =
  let ranked =
    Array.of_list
      (match memo with
      | Some (_, fp) -> List.sort (fun a b -> compare (fp a) (fp b)) mem
      | None -> mem)
  in
  Array.iteri (fun r v -> rank.(v) <- r) ranked;
  let arcs = ref [] in
  List.iter
    (fun u -> neighbours u (fun v -> arcs := (rank.(u), rank.(v)) :: !arcs))
    mem;
  let arcs = List.sort compare !arcs in
  let enumerate () =
    enumerate allowance (Digraph.of_arcs (Array.length ranked) arcs)
  in
  let judge cycle =
    tally.cycles_rejudged <- tally.cycles_rejudged + 1;
    not (Topo.is_acyclic (cycle_b_graph txn cycle))
  in
  let cycles, bc_cyclic =
    match memo with
    | None -> (enumerate, judge)
    | Some (m, fp) ->
        ( (fun () ->
            let key =
              digest
                ("scc"
                :: Array.to_list (Array.map fp ranked)
                @ List.map (fun (u, v) -> Printf.sprintf "%d>%d" u v) arcs)
            in
            cached m.scc_cycles ~cap:scc_cache_cap key enumerate),
          fun cycle ->
            cached m.cycle_cache ~cap:cycle_cache_cap
              (digest ("cyc" :: List.map fp cycle))
              (fun () -> judge cycle) )
  in
  let rec first = function
    | [] -> Decided Safe
    | cyc :: rest ->
        tally.cycles_total <- tally.cycles_total + 1;
        let orig = List.map (fun r -> ranked.(r)) cyc in
        if bc_cyclic orig then first rest
        else Decided (Unsafe (Acyclic_bc orig))
  in
  match cycles () with
  | cycles -> first cycles
  | exception Cycles_cut e -> Exhausted e

exception Found_unsafe of unsafe_reason

let decide_with ~pair_safe ?(cycle_limit = max_int) tally sys g =
  let n = Digraph.n g in
  try
    (* (a) every conflicting pair safe, in lexicographic order *)
    for i = 0 to n - 1 do
      List.iter
        (fun j ->
          tally.pairs_total <- tally.pairs_total + 1;
          if not (pair_safe i j) then raise (Found_unsafe (Unsafe_pair (i, j))))
        (List.sort compare (List.filter (fun j -> j > i) (Digraph.succ g i)))
    done;
    (* (b) every directed cycle has a cyclic B_c. A simple cycle lives
       inside one SCC; components go in index order and share the
       decision's step allowance. *)
    let scc = Scc.compute g in
    let members = Array.make scc.Scc.count [] in
    for v = n - 1 downto 0 do
      let c = scc.Scc.component.(v) in
      members.(c) <- v :: members.(c)
    done;
    let allowance = allowance cycle_limit in
    let txn i = System.txn (Lazy.force sys) i in
    let rank = Array.make n 0 in
    let rec components c =
      if c = scc.Scc.count then Decided Safe
      else if List.compare_length_with members.(c) 3 < 0 then components (c + 1)
      else
        match
          judge_component allowance tally ~txn ~neighbours:(Digraph.iter_succ g)
            ~rank members.(c)
        with
        | Decided Safe -> components (c + 1)
        | result -> result
    in
    components 0
  with Found_unsafe r -> Decided (Unsafe r)
