open Distlock_txn

exception Stop

let successors sys =
  let module B = Distlock_graph.Bitset in
  Array.map
    (fun txn ->
      let order = Txn.order txn in
      Array.init (Txn.num_steps txn) (fun s ->
          let row = Distlock_order.Poset.up_set order s in
          let out = Array.make (B.cardinal row) 0 and k = ref 0 in
          B.iter
            (fun q ->
              out.(!k) <- q;
              incr k)
            row;
          out))
    (System.txns sys)

let in_degrees succ =
  Array.map
    (fun succ_i ->
      let d = Array.make (Array.length succ_i) 0 in
      Array.iter (Array.iter (fun q -> d.(q) <- d.(q) + 1)) succ_i;
      d)
    succ

(* Shared stepping machinery: a mutable execution state over the system.
   Alongside the indegree/lock bookkeeping it maintains the set of
   currently enabled steps (as flat step ids with positions, swap-remove
   on disable), updated in O(affected steps) by [apply]/[undo] — so
   random walks pick a step in O(1) instead of rescanning every step. *)
type state = {
  steps : Step.t array array;
  succ : int array array array; (* (txn, step) -> its successor steps *)
  indeg : int array array; (* remaining unexecuted predecessors per step *)
  done_ : bool array array;
  holder : int array; (* entity -> holding txn, or -1 when free *)
  mutable executed : int;
  total : int;
  trace : Schedule.event array;
  flat_base : int array; (* txn -> first flat id of its steps *)
  flat_txn : int array; (* flat id -> txn *)
  flat_step : int array; (* flat id -> step *)
  lockers : int array array; (* entity -> flat ids of its Lock steps *)
  enab_list : int array; (* enabled flat ids, first [enab_n] entries *)
  enab_pos : int array; (* flat id -> index in enab_list, or -1 *)
  mutable enab_n : int;
}

let enabled st i s =
  (not st.done_.(i).(s))
  && st.indeg.(i).(s) = 0
  &&
  let step = st.steps.(i).(s) in
  match step.Step.action with
  | Step.Lock -> st.holder.(step.Step.entity) < 0
  | Step.Unlock | Step.Update -> true

(* Reconciles one step's membership in the enabled set with [enabled]. *)
let sync st i s =
  let fid = st.flat_base.(i) + s in
  let now = enabled st i s in
  let was = st.enab_pos.(fid) >= 0 in
  if now && not was then begin
    st.enab_list.(st.enab_n) <- fid;
    st.enab_pos.(fid) <- st.enab_n;
    st.enab_n <- st.enab_n + 1
  end
  else if was && not now then begin
    let p = st.enab_pos.(fid) in
    let last = st.enab_n - 1 in
    let moved = st.enab_list.(last) in
    st.enab_list.(p) <- moved;
    st.enab_pos.(moved) <- p;
    st.enab_n <- last;
    st.enab_pos.(fid) <- -1
  end

let init sys =
  let n = System.num_txns sys in
  let succ = successors sys in
  let done_ =
    Array.init n (fun i -> Array.make (Txn.num_steps (System.txn sys i)) false)
  in
  let total = System.total_steps sys in
  let ne = Database.num_entities (System.db sys) in
  let flat_base = Array.make n 0 in
  let flat_txn = Array.make total 0 and flat_step = Array.make total 0 in
  let lockers = Array.make ne [] in
  let fid = ref 0 in
  for i = 0 to n - 1 do
    let txn = System.txn sys i in
    flat_base.(i) <- !fid;
    for s = 0 to Txn.num_steps txn - 1 do
      flat_txn.(!fid) <- i;
      flat_step.(!fid) <- s;
      let step = Txn.step txn s in
      (match step.Step.action with
      | Step.Lock ->
          let e = step.Step.entity in
          lockers.(e) <- !fid :: lockers.(e)
      | Step.Unlock | Step.Update -> ());
      incr fid
    done
  done;
  let st =
    {
      steps = Array.map Txn.steps (System.txns sys);
      succ;
      indeg = in_degrees succ;
      done_;
      holder = Array.make ne (-1);
      executed = 0;
      total;
      trace = Array.make total (-1, -1);
      flat_base;
      flat_txn;
      flat_step;
      lockers = Array.map Array.of_list lockers;
      enab_list = Array.make total 0;
      enab_pos = Array.make total (-1);
      enab_n = 0;
    }
  in
  for i = 0 to n - 1 do
    for s = 0 to Txn.num_steps (System.txn sys i) - 1 do
      sync st i s
    done
  done;
  st

(* Applying or undoing (i,s) can change enabledness only of (i,s)
   itself, of s's successors within the transaction, and — for lock
   steps' entity — of the Lock steps on that entity. *)
let sync_affected st i s (step : Step.t) =
  sync st i s;
  let succ = st.succ.(i).(s) in
  for k = 0 to Array.length succ - 1 do
    sync st i succ.(k)
  done;
  match step.Step.action with
  | Step.Lock | Step.Unlock ->
      let lockers = st.lockers.(step.Step.entity) in
      for k = 0 to Array.length lockers - 1 do
        sync st st.flat_txn.(lockers.(k)) st.flat_step.(lockers.(k))
      done
  | Step.Update -> ()

let apply st i s =
  let step = st.steps.(i).(s) in
  st.done_.(i).(s) <- true;
  st.trace.(st.executed) <- (i, s);
  st.executed <- st.executed + 1;
  let indeg = st.indeg.(i) and succ = st.succ.(i).(s) in
  for k = 0 to Array.length succ - 1 do
    indeg.(succ.(k)) <- indeg.(succ.(k)) - 1
  done;
  (match step.Step.action with
  | Step.Lock -> st.holder.(step.Step.entity) <- i
  | Step.Unlock -> st.holder.(step.Step.entity) <- -1
  | Step.Update -> ());
  sync_affected st i s step

let undo st i s =
  let step = st.steps.(i).(s) in
  st.done_.(i).(s) <- false;
  st.executed <- st.executed - 1;
  let indeg = st.indeg.(i) and succ = st.succ.(i).(s) in
  for k = 0 to Array.length succ - 1 do
    indeg.(succ.(k)) <- indeg.(succ.(k)) + 1
  done;
  (match step.Step.action with
  | Step.Lock -> st.holder.(step.Step.entity) <- -1
  | Step.Unlock -> st.holder.(step.Step.entity) <- i
  | Step.Update -> ());
  sync_affected st i s step

let snapshot st = Schedule.of_events (Array.to_list st.trace)

(* Progress counter for exhaustive enumeration, mirrored in the global
   metrics registry so long runs are observable from outside. Fetched
   once per run via the registry's get-or-create. *)
let m_schedules () =
  Distlock_obs.Registry.counter Distlock_obs.Obs.global
    ~help:"Complete legal schedules visited by state enumeration"
    "distlock_enumerate_schedules_total"

let iter_legal sys f =
  let st = init sys in
  let n = System.num_txns sys in
  let progress = m_schedules () in
  let rec go () =
    if st.executed = st.total then begin
      Distlock_obs.Metric.incr progress;
      f (snapshot st)
    end
    else
      for i = 0 to n - 1 do
        let k = Txn.num_steps (System.txn sys i) in
        for s = 0 to k - 1 do
          if enabled st i s then begin
            apply st i s;
            go ();
            undo st i s
          end
        done
      done
  in
  go ()

let exists_legal sys pred =
  try
    iter_legal sys (fun h -> if pred h then raise Stop);
    false
  with Stop -> true

let find_legal sys pred =
  let found = ref None in
  (try
     iter_legal sys (fun h ->
         if pred h then begin
           found := Some h;
           raise Stop
         end)
   with Stop -> ());
  !found

type count = Exact of int | Exhausted of int

let count_legal ?(limit = 10_000_000) sys =
  let c = ref 0 in
  match
    iter_legal sys (fun _ ->
        incr c;
        if !c > limit then raise Stop)
  with
  | () -> Exact !c
  | exception Stop -> Exhausted limit

let random_legal rng sys =
  let attempt () =
    let st = init sys in
    let ok = ref true in
    while !ok && st.executed < st.total do
      if st.enab_n = 0 then ok := false (* deadlock *)
      else begin
        let fid = st.enab_list.(Random.State.int rng st.enab_n) in
        apply st st.flat_txn.(fid) st.flat_step.(fid)
      end
    done;
    if !ok then Some (snapshot st) else None
  in
  let rec try_n k = if k = 0 then None else
      match attempt () with Some h -> Some h | None -> try_n (k - 1)
  in
  try_n 100

let has_deadlock sys =
  let st = init sys in
  let rec go () =
    if st.executed < st.total then begin
      if st.enab_n = 0 then raise Stop;
      (* snapshot the frontier: apply/undo mutate the enabled set *)
      let frontier = Array.sub st.enab_list 0 st.enab_n in
      Array.iter
        (fun fid ->
          let i = st.flat_txn.(fid) and s = st.flat_step.(fid) in
          apply st i s;
          go ();
          undo st i s)
        frontier
    end
  in
  try
    go ();
    false
  with Stop -> true
