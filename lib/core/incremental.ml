open Distlock_txn
module E = Distlock_engine
module Obs = Distlock_obs.Obs
module A = Distlock_obs.Attr
module Ints = Set.Make (Int)

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

(* Condition (b)'s answer for one connected component: the cycles it
   examined and its first cycle with an acyclic B_c, in slots. *)
type judged = Unjudged | Judged of int * int list option

type component = {
  mutable members : int list; (* ascending slots; [] once dissolved *)
  mutable judged : judged;
}

type slot = {
  mutable txn : Txn.t;
  mutable fp : string; (* Txn.fingerprint *)
  mutable locked : Database.entity list;
  mutable nbrs : Ints.t; (* conflict-graph neighbours *)
  mutable comp : component;
}

type t = {
  db : Database.t;
  mutable slots : slot option array; (* insertion order; None: removed *)
  mutable len : int; (* slots handed out *)
  mutable live : int;
  index : (string, int) Hashtbl.t; (* name -> slot *)
  holders : (Database.entity, int list) Hashtbl.t; (* entity -> slots *)
  mutable pairs : int; (* live conflicting pairs *)
  mutable dirty : Ints.t; (* undecided pairs, packed lexicographically *)
  mutable unsafe : Ints.t; (* pairs decided unsafe *)
  mutable dirty_comps : Ints.t; (* smallest slot of each unjudged one *)
  mutable bad_comps : Ints.t; (* ... of each with an acyclic B_c *)
  mutable cycles : int; (* examined, summed over judged components *)
  mutable settled : outcome option; (* the last decided call, until an edit *)
  mutable rank : int array; (* judge_component's scratch, one per slot *)
  pair_cache : bool E.Lru.t; (* pair_fingerprint -> safe? *)
  memo : Multisite.memo; (* cycle lists and B_c verdicts by content *)
  stats : E.Stats.t;
  mutable snapshot : System.t option;
}

(* A pair of slots [lo < hi] as one int, so that int order is the
   pairs' lexicographic order. *)
let pack lo hi = (lo lsl 31) lor hi

let lo p = p lsr 31

let hi p = p land 0x7fff_ffff

let slot t s =
  match t.slots.(s) with
  | Some x -> x
  | None -> invalid_arg "Incremental: vacant slot"

(* The component of a slot not yet grouped. *)
let loose = { members = []; judged = Unjudged }

let create_empty db =
  {
    db;
    slots = Array.make 16 None;
    len = 0;
    live = 0;
    index = Hashtbl.create 64;
    holders = Hashtbl.create 128;
    pairs = 0;
    dirty = Ints.empty;
    unsafe = Ints.empty;
    dirty_comps = Ints.empty;
    bad_comps = Ints.empty;
    cycles = 0;
    settled = None;
    rank = Array.make 16 0;
    pair_cache = E.Lru.create ~capacity:4096;
    memo = Multisite.memo ();
    stats = E.Stats.create ();
    snapshot = None;
  }

(* Link slot [s] to every slot sharing a locked entity with it; each new
   pair starts undecided. *)
let attach t s x =
  List.iter
    (fun e ->
      let hs = Option.value (Hashtbl.find_opt t.holders e) ~default:[] in
      Hashtbl.replace t.holders e (s :: hs);
      List.iter (fun u -> x.nbrs <- Ints.add u x.nbrs) hs)
    x.locked;
  Ints.iter
    (fun u ->
      let y = slot t u in
      y.nbrs <- Ints.add s y.nbrs;
      t.pairs <- t.pairs + 1;
      t.dirty <- Ints.add (if s < u then pack s u else pack u s) t.dirty)
    x.nbrs

let detach t s x =
  List.iter
    (fun e ->
      match List.filter (( <> ) s) (Hashtbl.find t.holders e) with
      | [] -> Hashtbl.remove t.holders e
      | hs -> Hashtbl.replace t.holders e hs)
    x.locked;
  Ints.iter
    (fun u ->
      let y = slot t u in
      y.nbrs <- Ints.remove s y.nbrs;
      t.pairs <- t.pairs - 1;
      let p = if s < u then pack s u else pack u s in
      t.dirty <- Ints.remove p t.dirty;
      t.unsafe <- Ints.remove p t.unsafe)
    x.nbrs;
  x.nbrs <- Ints.empty

(* Forget component [c]'s answer and mark its members loose; returns
   them on [acc]. *)
let dissolve t c acc =
  match c.members with
  | [] -> acc
  | first :: _ as members ->
      (match c.judged with
      | Unjudged -> t.dirty_comps <- Ints.remove first t.dirty_comps
      | Judged (n, bad) ->
          t.cycles <- t.cycles - n;
          if bad <> None then t.bad_comps <- Ints.remove first t.bad_comps);
      c.members <- [];
      List.iter (fun v -> (slot t v).comp <- loose) members;
      List.rev_append members acc

(* Group the loose slots among [vs] into fresh components. After one
   edit these are the edited slot's old component and the components of
   its new neighbours; everything they reach is among them. Only a
   component of three or more members has cycles to judge. *)
let regroup t vs =
  List.iter
    (fun v ->
      if (slot t v).comp == loose then begin
        let c = { members = []; judged = Unjudged } in
        let rec visit acc = function
          | [] -> acc
          | u :: rest ->
              let x = slot t u in
              if x.comp != loose then begin
                assert (x.comp == c);
                visit acc rest
              end
              else begin
                x.comp <- c;
                visit (u :: acc) (Ints.fold List.cons x.nbrs rest)
              end
        in
        c.members <- List.sort compare (visit [] [ v ]);
        match c.members with
        | first :: _ :: _ :: _ -> t.dirty_comps <- Ints.add first t.dirty_comps
        | _ -> c.judged <- Judged (0, None)
      end)
    vs

let edited t =
  t.settled <- None;
  t.snapshot <- None

let fresh_slot txn =
  {
    txn;
    fp = Txn.fingerprint txn;
    locked = Txn.locked_entities txn;
    nbrs = Ints.empty;
    comp = loose;
  }

(* Register [x] in a new slot after every other and link it; grouping
   it into a component is left to the caller. *)
let push t x =
  let name = Txn.name x.txn in
  if Hashtbl.mem t.index name then
    invalid_arg ("Incremental: duplicate transaction name " ^ name);
  if t.len = Array.length t.slots then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    t.slots <- grow t.slots None;
    t.rank <- grow t.rank 0
  end;
  let s = t.len in
  t.slots.(s) <- Some x;
  t.len <- s + 1;
  t.live <- t.live + 1;
  Hashtbl.replace t.index name s;
  attach t s x;
  s

let create db txns =
  let t = create_empty db in
  regroup t (List.map (fun txn -> push t (fresh_slot txn)) txns);
  t

let of_system sys = create (System.db sys) (Array.to_list (System.txns sys))

let live_slots t =
  let acc = ref [] in
  for s = t.len - 1 downto 0 do
    Option.iter (fun x -> acc := x :: !acc) t.slots.(s)
  done;
  !acc

let system t =
  match t.snapshot with
  | Some s -> s
  | None ->
      if t.live = 0 then invalid_arg "Incremental.system: empty session";
      let s = System.make t.db (List.map (fun x -> x.txn) (live_slots t)) in
      t.snapshot <- Some s;
      s

let num_txns t = t.live

let txn_names t = List.map (fun x -> Txn.name x.txn) (live_slots t)

let stats t = t.stats

let add_txn t txn =
  let x = fresh_slot txn in
  let s = push t x in
  regroup t
    (Ints.fold (fun u acc -> dissolve t (slot t u).comp acc) x.nbrs [ s ]);
  edited t

let find t name =
  match Hashtbl.find_opt t.index name with
  | Some s -> s
  | None -> invalid_arg ("Incremental: unknown transaction " ^ name)

(* Slots are never reused, so removals leave holes; once they outnumber
   the live slots, the session renumbers by registering its live
   transactions afresh. Their pairs and components come back undecided
   and are answered again through the content-keyed pair store and
   memos. *)
let compact t =
  let live = live_slots t in
  t.slots <- Array.make (Array.length t.slots) None;
  t.len <- 0;
  t.live <- 0;
  Hashtbl.reset t.index;
  Hashtbl.reset t.holders;
  t.pairs <- 0;
  t.dirty <- Ints.empty;
  t.unsafe <- Ints.empty;
  t.dirty_comps <- Ints.empty;
  t.bad_comps <- Ints.empty;
  t.cycles <- 0;
  regroup t
    (List.map
       (fun x ->
         x.nbrs <- Ints.empty;
         x.comp <- loose;
         push t x)
       live)

let remove_txn t name =
  let s = find t name in
  let x = slot t s in
  let affected = dissolve t x.comp [] in
  detach t s x;
  t.slots.(s) <- None;
  t.live <- t.live - 1;
  Hashtbl.remove t.index name;
  regroup t (List.filter (( <> ) s) affected);
  edited t;
  if t.len - t.live > max 32 t.live then compact t

let replace_txn t name txn =
  let s = find t name in
  let new_name = Txn.name txn in
  if new_name <> name && Hashtbl.mem t.index new_name then
    invalid_arg ("Incremental: duplicate transaction name " ^ new_name);
  let x = slot t s in
  let affected = dissolve t x.comp [] in
  detach t s x;
  Hashtbl.remove t.index name;
  Hashtbl.replace t.index new_name s;
  x.txn <- txn;
  x.fp <- Txn.fingerprint txn;
  x.locked <- Txn.locked_entities txn;
  attach t s x;
  regroup t
    (Ints.fold (fun u acc -> dissolve t (slot t u).comp acc) x.nbrs affected);
  edited t

(* Slot -> index in the {!system} snapshot. *)
let indices t =
  let idx = Array.make t.len (-1) and k = ref 0 in
  for s = 0 to t.len - 1 do
    if t.slots.(s) <> None then begin
      idx.(s) <- !k;
      incr k
    end
  done;
  idx

let count_above v nbrs =
  Ints.fold (fun u n -> if u > v then n + 1 else n) nbrs 0

(* Live pairs lexicographically up to and including [p]. *)
let pairs_through t p =
  let s = lo p in
  let x = slot t s in
  let n = ref (count_above s x.nbrs - count_above (hi p) x.nbrs) in
  for v = 0 to s - 1 do
    Option.iter (fun y -> n := !n + count_above v y.nbrs) t.slots.(v)
  done;
  !n

(* Cycles examined by the components whose smallest slot is below
   [m]. *)
let cycles_before t m =
  let n = ref 0 in
  for v = 0 to m - 1 do
    match t.slots.(v) with
    | Some { comp = { members = first :: _; judged = Judged (k, _) }; _ }
      when first = v ->
        n := !n + k
    | _ -> ()
  done;
  !n

let precedes first x = match first with Some f -> x < f | None -> true

(* Condition (a): the undecided pairs in lexicographic order, up to the
   first pair known unsafe. *)
let decide_pairs t ~budget tally lookups =
  let first_unsafe = Ints.min_elt_opt t.unsafe in
  let rec walk () =
    match Ints.min_elt_opt t.dirty with
    | Some p when precedes first_unsafe p -> (
        incr lookups;
        let a = slot t (lo p) and b = slot t (hi p) in
        let key =
          System.txns_pair_fingerprint t.db (a.txn, a.fp) (b.txn, b.fp)
        in
        match
          Multisite.pair_verdict
            ~store:(t.pair_cache, t.stats, key)
            ~run_stats:t.stats ~budget tally
            (fun () -> System.make t.db [ a.txn; b.txn ])
        with
        | safe ->
            t.dirty <- Ints.remove p t.dirty;
            if safe then walk ()
            else begin
              t.unsafe <- Ints.add p t.unsafe;
              `Unsafe p
            end
        | exception Multisite.Undecided msg -> `Undecided (p, msg))
    | _ -> ( match first_unsafe with Some u -> `Unsafe u | None -> `Safe)
  in
  walk ()

(* Condition (b): the unjudged components in ascending smallest slot,
   up to the first component known to hold an acyclic B_c. *)
let judge_components t allowance tally =
  let first_bad = Ints.min_elt_opt t.bad_comps in
  let rec walk () =
    match Ints.min_elt_opt t.dirty_comps with
    | Some m when precedes first_bad m -> (
        let c = (slot t m).comp in
        let before = tally.Multisite.cycles_total in
        match
          Multisite.judge_component
            ~memo:(t.memo, fun s -> (slot t s).fp)
            allowance tally
            ~txn:(fun s -> (slot t s).txn)
            ~neighbours:(fun s f -> Ints.iter f (slot t s).nbrs)
            ~rank:t.rank c.members
        with
        | Multisite.Exhausted e -> `Cut (m, e)
        | result -> (
            let examined = tally.Multisite.cycles_total - before in
            let bad =
              match result with
              | Multisite.Decided (Multisite.Unsafe (Multisite.Acyclic_bc cyc))
                ->
                  Some cyc
              | _ -> None
            in
            c.judged <- Judged (examined, bad);
            t.dirty_comps <- Ints.remove m t.dirty_comps;
            t.cycles <- t.cycles + examined;
            match bad with
            | Some _ ->
                t.bad_comps <- Ints.add m t.bad_comps;
                `Bad m
            | None -> walk ()))
    | _ -> ( match first_bad with Some b -> `Bad b | None -> `Safe)
  in
  walk ()

let decide t ~budget =
  let tally = Multisite.tally () and lookups = ref 0 in
  let verdict, pairs_total, cycles_total =
    match decide_pairs t ~budget tally lookups with
    | `Unsafe p ->
        let idx = indices t in
        ( Unsafe (Multisite.Unsafe_pair (idx.(lo p), idx.(hi p))),
          pairs_through t p,
          0 )
    | `Undecided (p, msg) -> (Unknown msg, pairs_through t p, 0)
    | `Safe -> (
        let allowance =
          Multisite.allowance
            (E.Budget.step_allowance budget ~default:2_000_000)
        in
        match judge_components t allowance tally with
        | `Safe -> (Safe, t.pairs, t.cycles)
        | `Bad b -> (
            match (slot t b).comp.judged with
            | Judged (n, Some cyc) ->
                let idx = indices t in
                ( Unsafe (Multisite.Acyclic_bc (List.map (Array.get idx) cyc)),
                  t.pairs,
                  cycles_before t b + n )
            | _ -> assert false)
        | `Cut (m, e) ->
            ( Unknown (Multisite.describe_exhaustion e),
              t.pairs,
              cycles_before t m ))
  in
  let misses = !lookups - tally.Multisite.pair_hits in
  E.Stats.record_pair_hits t.stats (pairs_total - !lookups);
  {
    verdict;
    pairs_total;
    pairs_reused = pairs_total - misses;
    pairs_redecided = tally.Multisite.pairs_redecided;
    cycles_total;
    cycles_reused = cycles_total - tally.Multisite.cycles_rejudged;
    cycles_rejudged = tally.Multisite.cycles_rejudged;
    seconds = 0.;
  }

let decide_delta ?(budget = E.Budget.unlimited) t =
  let started = Obs.mono_s () in
  let sp = Obs.start_span "session.decide_delta" in
  let o =
    match t.settled with
    | Some o ->
        E.Stats.record_pair_hits t.stats o.pairs_total;
        o
    | None ->
        let o = decide t ~budget in
        (* Until the next edit, a call gives the same answer with every
           pair and cycle served from what the session holds. *)
        (match o.verdict with
        | Unknown _ -> ()
        | _ ->
            t.settled <-
              Some
                {
                  o with
                  pairs_reused = o.pairs_total;
                  pairs_redecided = 0;
                  cycles_reused = o.cycles_total;
                  cycles_rejudged = 0;
                });
        o
  in
  let o = { o with seconds = Obs.mono_s () -. started } in
  if Obs.enabled () then
    Obs.add_attrs sp
      [
        A.str "verdict"
          (match o.verdict with
          | Safe -> "safe"
          | Unsafe _ -> "unsafe"
          | Unknown _ -> "unknown");
        A.int "pairs_total" o.pairs_total;
        A.int "pairs_reused" o.pairs_reused;
        A.int "pairs_redecided" o.pairs_redecided;
        A.int "cycles_total" o.cycles_total;
        A.int "cycles_reused" o.cycles_reused;
        A.int "cycles_rejudged" o.cycles_rejudged;
      ];
  Obs.end_span sp;
  o
