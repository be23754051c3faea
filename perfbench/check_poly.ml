(* check-poly: the traffic the paper's polynomial procedures answer.

   Each request is a `check`: parse the system text, validate it,
   decide it on one shared engine, render the verdict. The systems are
   drawn from a fixed pool of seeded random systems whose verdicts are
   pinned in [check_poly_pool.txt] (see [pin] below); the run's seed
   chooses which pool members a round submits, in the pool's mix of
   families and sizes, and in what order, and one request in four
   resubmits a recent text so the verdict cache does real work. *)

open Distlock_txn
open Distlock_core
open Common
module E = Distlock_engine

let pool_seed = 1982
let pool_size = 4000
let pool_file = "perfbench/check_poly_pool.txt"

(* Three families, each answered by a different polynomial stage:
   two-site partial-order pairs (Theorem 2), totally ordered pairs on
   three to six sites (Proposition 1), and systems of 6-16 transactions
   on two sites (Proposition 2). *)
type family = Two_site | Total_order | Multi

let family k =
  match k mod 5 with 0 | 1 -> Two_site | 2 -> Total_order | _ -> Multi

let member k =
  let rng = Random.State.make [| pool_seed; k |] in
  let between lo hi = lo + Random.State.int rng (hi - lo + 1) in
  match family k with
  | Two_site ->
      Txn_gen.random_pair_system rng ~num_shared:(between 12 28)
        ~num_private:(between 0 2) ~num_sites:2 ~cross_prob:0.3 ()
  | Total_order ->
      Txn_gen.random_pair_system rng ~num_shared:(between 12 32)
        ~num_private:(between 0 2) ~num_sites:(between 3 6) ~cross_prob:1.0 ()
  | Multi ->
      let n = between 6 16 in
      Txn_gen.random_multi_system rng ~num_txns:n ~num_entities:(2 * n)
        ~entities_per_txn:2 ~num_sites:2 ~cross_prob:0.5 ()

(* The size [member k] draws: shared entities of a pair, transactions
   of a multi-transaction system. The generator call's arguments are
   evaluated right to left, so a pair draws its private entities (and a
   totally ordered pair its sites before them) ahead of its shared
   entities. Only the choice of a round's systems depends on it. *)
let size k =
  let rng = Random.State.make [| pool_seed; k |] in
  let between lo hi = lo + Random.State.int rng (hi - lo + 1) in
  match family k with
  | Two_site ->
      ignore (between 0 2);
      between 12 28
  | Total_order ->
      ignore (between 3 6);
      ignore (between 0 2);
      between 12 32
  | Multi -> between 6 16

(* ------------------------------------------------------------------ *)
(* Pinned verdicts. One line per pool member: index, the first eight hex
   digits of its fingerprint (so a changed generator shows up as a
   failed request, not a silently wrong answer), S or U, and how the
   verdict was established. *)

type pinned = { fp8 : string; safe : bool }

let load_pool () =
  let ic = open_in pool_file in
  let tbl = Array.make pool_size None in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         Scanf.sscanf line "%d %s %c %s" (fun k fp8 v _proof ->
             tbl.(k) <- Some { fp8; safe = v = 'S' })
     done
   with End_of_file -> close_in ic);
  Array.map
    (function Some p -> p | None -> failwith "check-poly pool file is incomplete")
    tbl

let pool = lazy (load_pool ())

(* Writes the pool file: every member decided by the engine and, where
   the exhaustive state graph finishes within its budget, cross-checked
   against it. A disagreement aborts. Unsafe answers are re-proved from
   their witness on every request anyway. *)
let pin () =
  let oc = open_out pool_file in
  Printf.fprintf oc
    "# check-poly pool: member, fingerprint prefix, verdict (S safe, U \
     unsafe), proof.\n\
     # proof state-graph: agrees with the exhaustive state-graph oracle.\n\
     # proof pinned: the oracle exceeded its budget; the engine's verdict \
     is pinned, not proven.\n\
     # Regenerate with: perfbench.exe pin\n";
  let counts = Hashtbl.create 4 in
  for k = 0 to pool_size - 1 do
    let sys = member k in
    let eng = Decision.create ~cache_capacity:0 () in
    let o = Decision.decide eng sys in
    let safe =
      match o.E.Outcome.verdict with
      | E.Outcome.Safe -> true
      | E.Outcome.Unsafe _ -> false
      | E.Outcome.Unknown m -> failwith (Printf.sprintf "member %d undecided: %s" k m)
    in
    (* Pairs have a few thousand states at most; beyond six
       transactions the state graph is out of reach. *)
    let proof =
      if System.num_txns sys > 6 then "pinned"
      else
        match Distlock_sched.Stategraph.decide ~limit:20_000 sys with
        | Distlock_sched.Stategraph.Safe, _ when safe -> "state-graph"
        | Distlock_sched.Stategraph.Unsafe _, _ when not safe -> "state-graph"
        | Distlock_sched.Stategraph.Exhausted _, _ -> "pinned"
        | _ -> failwith (Printf.sprintf "member %d: engine and state graph disagree" k)
    in
    if k mod 500 = 499 then Printf.printf "pinned %d of %d\n%!" (k + 1) pool_size;
    let key = (if safe then "S " else "U ") ^ proof in
    Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0);
    Printf.fprintf oc "%d %s %c %s\n" k
      (String.sub (System.fingerprint sys) 0 8)
      (if safe then 'S' else 'U')
      proof
  done;
  close_out oc;
  Hashtbl.iter (fun k v -> Printf.printf "%s: %d\n" k v) counts

(* ------------------------------------------------------------------ *)

let prepare ~seed ~requests =
  let pool = Lazy.force pool in
  let rng = Random.State.make [| seed; 0x90 |] in
  let distinct = requests - (requests / 4) in
  (* A systematic sample of the pool sorted by family and size, ties in
     seeded order: the seed changes which systems a round holds but
     hardly their mix, which sets the latency percentiles. *)
  let keyed = Array.init pool_size (fun k -> (family k, size k, Random.State.bits rng, k)) in
  Array.sort compare keyed;
  let chosen =
    Array.init distinct (fun i ->
        let _, _, _, k = keyed.(i * pool_size / distinct) in
        k)
  in
  shuffle rng chosen;
  let texts = Array.map (fun k -> Parse.system_to_string (member k)) chosen in
  let seq = Array.make requests 0 in
  let next = ref 0 in
  for i = 0 to requests - 1 do
    if i mod 4 = 3 then seq.(i) <- !next - 1 - Random.State.int rng (min !next 256)
    else begin
      seq.(i) <- !next;
      incr next
    end
  done;
  (* Re-proving a multi-transaction witness searches a state graph;
     the answer for one system and reason is the same in every round. *)
  let proved = Hashtbl.create 256 in
  let unsafe_evidence d sys ev =
    match ev with
    | Decision.Multi reason -> (
        match Hashtbl.find_opt proved (d, reason) with
        | Some r -> r
        | None ->
            let r = Known.unsafe_evidence sys ev in
            Hashtbl.replace proved (d, reason) r;
            r)
    | Decision.Pair _ -> Known.unsafe_evidence sys ev
  in
  let fresh () =
    let eng = Decision.create () in
    let stages = Stages.create () in
    let unproved = ref 0 in
    let request i =
      let d = seq.(i) in
      match span "txn.parse" (fun () -> Parse.system_of_string texts.(d)) with
      | Error _ -> fun () -> false
      | Ok sys ->
          ignore (span "txn.validate" (fun () -> System.validate sys));
          let o = span "engine.decide" ~children:Stages.children (fun () -> Decision.decide eng sys) in
          let out = span "render" (fun () -> Known.render sys o) in
          fun () ->
            ignore (Sys.opaque_identity out);
            if !tracing then ignore (span "txn.fingerprint" (fun () -> System.fingerprint sys));
            Stages.record stages o;
            let p = pool.(chosen.(d)) in
            String.sub (System.fingerprint sys) 0 8 = p.fp8
            &&
            match o.E.Outcome.verdict with
            | E.Outcome.Safe -> p.safe
            | E.Outcome.Unsafe ev -> (
                (not p.safe)
                &&
                match unsafe_evidence d sys ev with
                | Some proved -> proved
                | None ->
                    (* A cycle beyond the state graph's reach: the
                       pinned verdict stands. *)
                    incr unproved;
                    true)
            | E.Outcome.Unknown _ -> false
    in
    let counts () =
      let st = Decision.stats eng in
      [ ("requests", requests); ("distinct_systems", distinct);
        ("cache_hits", E.Stats.cache_hits st); ("cache_misses", E.Stats.cache_misses st);
        ("pair_hits", E.Stats.pair_hits st); ("pairs_redecided", E.Stats.pairs_redecided st);
        ("unsafe_witness_out_of_reach", !unproved) ]
      @ Stages.counts stages
    in
    let layers () = Stages.layers stages eng in
    { request; counts; layers }
  in
  { requests; fresh }

let workload =
  { name = "check-poly"; prepare; round_requests = 1200; warmup_requests = 200; setups = 5 }
