open Distlock_txn

type outcome =
  | Safe
  | Unsafe of Schedule.t
  | Exhausted of { visited : int; limit : int }

type stats = {
  states : int;
  dup_hits : int;
  complete : int;
  deadlocked : int;
}

(* Collapse counters in the global registry, so a long search is legible
   from the outside and E16 can report the states-vs-schedules ratio.
   Handles are fetched once per search through the registry's
   mutex-guarded get-or-create — not a shared [lazy], which raises
   [RacyLazy] when forced from several pool domains at once. *)
let m_states () =
  Distlock_obs.Registry.counter Distlock_obs.Obs.global
    ~help:"Distinct execution states visited by the state-graph oracle"
    "distlock_stategraph_states_total"

let m_dups () =
  Distlock_obs.Registry.counter Distlock_obs.Obs.global
    ~help:
      "Transitions into an already-visited state pruned by the state-graph \
       oracle"
    "distlock_stategraph_duplicate_hits_total"

(* ------------------------------------------------------------------ *)
(* Packed state keys: [done bitmasks][n*n conflict bits], 63 bits per
   word. The conflict region starts on a word boundary, so the deadlock
   search, which has no conflict words, keys on the same mask layout. *)

let bits_per_word = 63

module Key = struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  (* FNV-1a over the words, folded to a non-negative int. *)
  let hash (a : int array) =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x01000193 land max_int
    done;
    !h
end

module Tbl = Hashtbl.Make (Key)

(* Mutable search context: the same apply/undo walk as [Enumerate], plus
   the packed key words and the per-(txn, entity) access-span counters
   that drive incremental conflict-edge maintenance. Without [conflicts]
   the key is the done masks alone and no edge is tracked. *)
type ctx = {
  n : int;
  total : int;
  steps : Step.t array array;
  succ : int array array array; (* (txn, step) -> its successor steps *)
  indeg : int array array;
  done_ : bool array array;
  holder : int array; (* entity -> holding txn, or -1 when free *)
  mutable executed : int;
  touch_total : int array array; (* txn i, entity e -> |accesses of e| *)
  touch_done : int array array; (* executed accesses so far *)
  touchers : int list array; (* entity -> transactions accessing it *)
  words : int array; (* the packed key of the current state *)
  mask_words : int;
  conflicts : bool;
  bit_word : int array array; (* (txn, step) -> word index of its bit *)
  bit_mask : int array array;
}

let init ~conflicts sys =
  let n = System.num_txns sys in
  let ne = Database.num_entities (System.db sys) in
  let total = System.total_steps sys in
  let succ =
    Array.init n (fun i ->
        let txn = System.txn sys i in
        let k = Txn.num_steps txn in
        Array.init k (fun s ->
            Array.of_list
              (List.filter (fun q -> Txn.precedes txn s q) (List.init k Fun.id))))
  in
  let indeg =
    Array.map
      (fun succ_i ->
        let d = Array.make (Array.length succ_i) 0 in
        Array.iter (Array.iter (fun q -> d.(q) <- d.(q) + 1)) succ_i;
        d)
      succ
  in
  let done_ =
    Array.init n (fun i -> Array.make (Txn.num_steps (System.txn sys i)) false)
  in
  let touch_total = Array.make_matrix n ne 0 in
  let touchers = Array.make ne [] in
  let bit_word = Array.make n [||] and bit_mask = Array.make n [||] in
  let bit = ref 0 in
  for i = 0 to n - 1 do
    let txn = System.txn sys i in
    let k = Txn.num_steps txn in
    bit_word.(i) <- Array.make k 0;
    bit_mask.(i) <- Array.make k 0;
    for s = 0 to k - 1 do
      bit_word.(i).(s) <- !bit / bits_per_word;
      bit_mask.(i).(s) <- 1 lsl (!bit mod bits_per_word);
      incr bit;
      let e = (Txn.step txn s).Step.entity in
      if touch_total.(i).(e) = 0 then touchers.(e) <- i :: touchers.(e);
      touch_total.(i).(e) <- touch_total.(i).(e) + 1
    done
  done;
  let mask_words = max 1 ((total + bits_per_word - 1) / bits_per_word) in
  let conf_words =
    if conflicts then ((n * n) + bits_per_word - 1) / bits_per_word else 0
  in
  {
    n;
    total;
    steps = Array.map Txn.steps (System.txns sys);
    succ;
    indeg;
    done_;
    holder = Array.make ne (-1);
    executed = 0;
    touch_total;
    touch_done = Array.make_matrix n ne 0;
    touchers;
    words = Array.make (mask_words + conf_words) 0;
    mask_words;
    conflicts;
    bit_word;
    bit_mask;
  }

let set_edge ctx a b trail =
  let p = (a * ctx.n) + b in
  let w = ctx.mask_words + (p / bits_per_word)
  and m = 1 lsl (p mod bits_per_word) in
  if ctx.words.(w) land m = 0 then begin
    ctx.words.(w) <- ctx.words.(w) lor m;
    trail := p :: !trail
  end

let clear_edge_bit ctx p =
  let w = ctx.mask_words + (p / bits_per_word)
  and m = 1 lsl (p mod bits_per_word) in
  ctx.words.(w) <- ctx.words.(w) land lnot m

let has_edge ctx a b =
  let p = (a * ctx.n) + b in
  ctx.words.(ctx.mask_words + (p / bits_per_word))
  land (1 lsl (p mod bits_per_word))
  <> 0

let enabled ctx i s =
  (not ctx.done_.(i).(s))
  && ctx.indeg.(i).(s) = 0
  &&
  let step = ctx.steps.(i).(s) in
  match step.Step.action with
  | Step.Lock -> ctx.holder.(step.Step.entity) < 0
  | Step.Unlock | Step.Update -> true

(* Executes step (i,s). Returns the conflict bit positions this call
   flipped 0->1: an edge can be implied by several events along one
   path, so [undo] must clear exactly the bits its [apply] set. Edges
   are decided at span starts — when this is [i]'s first access to [e],
   every transaction whose [e]-span already closed conflicts before [i],
   and every still-open span overlaps (both directions) — reproducing
   [Conflict.graph]'s span rule incrementally. *)
let apply ctx i s =
  let step = ctx.steps.(i).(s) in
  let e = step.Step.entity in
  ctx.done_.(i).(s) <- true;
  ctx.executed <- ctx.executed + 1;
  ctx.words.(ctx.bit_word.(i).(s)) <-
    ctx.words.(ctx.bit_word.(i).(s)) lor ctx.bit_mask.(i).(s);
  let indeg = ctx.indeg.(i) in
  Array.iter (fun q -> indeg.(q) <- indeg.(q) - 1) ctx.succ.(i).(s);
  (match step.Step.action with
  | Step.Lock -> ctx.holder.(e) <- i
  | Step.Unlock -> ctx.holder.(e) <- -1
  | Step.Update -> ());
  let trail = ref [] in
  if ctx.conflicts && ctx.touch_done.(i).(e) = 0 then
    List.iter
      (fun j ->
        if j <> i then begin
          let dj = ctx.touch_done.(j).(e) in
          if dj > 0 then begin
            set_edge ctx j i trail;
            if dj < ctx.touch_total.(j).(e) then set_edge ctx i j trail
          end
        end)
      ctx.touchers.(e);
  ctx.touch_done.(i).(e) <- ctx.touch_done.(i).(e) + 1;
  !trail

let undo ctx i s trail =
  let step = ctx.steps.(i).(s) in
  let e = step.Step.entity in
  ctx.done_.(i).(s) <- false;
  ctx.executed <- ctx.executed - 1;
  ctx.words.(ctx.bit_word.(i).(s)) <-
    ctx.words.(ctx.bit_word.(i).(s)) land lnot ctx.bit_mask.(i).(s);
  let indeg = ctx.indeg.(i) in
  Array.iter (fun q -> indeg.(q) <- indeg.(q) + 1) ctx.succ.(i).(s);
  (match step.Step.action with
  | Step.Lock -> ctx.holder.(e) <- -1
  | Step.Unlock -> ctx.holder.(e) <- i
  | Step.Update -> ());
  ctx.touch_done.(i).(e) <- ctx.touch_done.(i).(e) - 1;
  List.iter (fun p -> clear_edge_bit ctx p) trail

exception Cyclic

(* Three-colour DFS over the n-vertex conflict-bit adjacency. *)
let conflict_cyclic ctx =
  let color = Array.make ctx.n 0 in
  let rec dfs u =
    color.(u) <- 1;
    for v = 0 to ctx.n - 1 do
      if has_edge ctx u v then
        if color.(v) = 1 then raise Cyclic
        else if color.(v) = 0 then dfs v
    done;
    color.(u) <- 2
  in
  try
    for u = 0 to ctx.n - 1 do
      if color.(u) = 0 then dfs u
    done;
    false
  with Cyclic -> true

(* ------------------------------------------------------------------ *)
(* The search proper. *)

type mode = Decide | Census | Deadlock

exception Found_unsafe of int array
exception Deadlock_found
exception Limit_hit

let verdict_label = function
  | Safe -> "safe"
  | Unsafe _ -> "unsafe"
  | Exhausted _ -> "exhausted"

let mode_label = function
  | Decide -> "decide"
  | Census -> "census"
  | Deadlock -> "deadlock"

let run mode limit sys =
  Distlock_obs.Obs.with_span "stategraph.search" (fun sp ->
      (* Deadlock dynamics ignore conflict history, so that mode keys on
         the done masks alone — a strictly coarser (sound) memoization. *)
      let ctx = init ~conflicts:(mode <> Deadlock) sys in
      let visited : (Key.t * (int * int)) option Tbl.t = Tbl.create 1024 in
      let states = ref 0
      and dups = ref 0
      and complete = ref 0
      and deadlocked = ref 0 in
      let first_unsafe = ref None in
      let mstates = m_states () and mdups = m_dups () in
      (* [visit] is called with (i) the state applied in [ctx] and (ii)
         its key already inserted in [visited]; [my_key] is that key, the
         parent pointer for the children discovered here. *)
      let rec visit my_key =
        if ctx.executed = ctx.total then begin
          incr complete;
          if mode <> Deadlock && conflict_cyclic ctx then
            match mode with
            | Decide -> raise (Found_unsafe my_key)
            | Census ->
                if !first_unsafe = None then first_unsafe := Some my_key
            | Deadlock -> ()
        end
        else begin
          let any = ref false in
          for i = 0 to ctx.n - 1 do
            for s = 0 to Array.length ctx.steps.(i) - 1 do
              if enabled ctx i s then begin
                any := true;
                let trail = apply ctx i s in
                (* Probe with the live words; only a new state pays for a
                   key of its own. *)
                if Tbl.mem visited ctx.words then begin
                  incr dups;
                  Distlock_obs.Metric.incr mdups
                end
                else begin
                  if !states >= limit then raise Limit_hit;
                  incr states;
                  Distlock_obs.Metric.incr mstates;
                  let key = Array.copy ctx.words in
                  Tbl.add visited key (Some (my_key, (i, s)));
                  visit key
                end;
                undo ctx i s trail
              end
            done
          done;
          if not !any then begin
            incr deadlocked;
            if mode = Deadlock then raise Deadlock_found
          end
        end
      in
      (* Parent-pointer walk: first-discovery edges form a tree rooted at
         the empty state, so the chain up from a complete state is a
         legal schedule reaching it. *)
      let rebuild key =
        let rec go key acc =
          match Tbl.find visited key with
          | None -> acc
          | Some (parent, ev) -> go parent (ev :: acc)
        in
        Schedule.of_events (go key [])
      in
      let outcome =
        if limit < 1 then Exhausted { visited = 0; limit }
        else begin
          let root = Array.copy ctx.words in
          Tbl.add visited root None;
          incr states;
          Distlock_obs.Metric.incr mstates;
          match visit root with
          | () -> (
              match !first_unsafe with
              | Some k -> Unsafe (rebuild k)
              | None -> Safe)
          | exception Found_unsafe k -> Unsafe (rebuild k)
          | exception Deadlock_found -> Safe (* only [has_deadlock] asks *)
          | exception Limit_hit -> Exhausted { visited = !states; limit }
        end
      in
      let st =
        {
          states = !states;
          dup_hits = !dups;
          complete = !complete;
          deadlocked = !deadlocked;
        }
      in
      if Distlock_obs.Obs.enabled () then
        Distlock_obs.Obs.add_attrs sp
          Distlock_obs.Attr.
            [
              str "mode" (mode_label mode);
              int "states" st.states;
              int "dup_hits" st.dup_hits;
              int "complete_states" st.complete;
              str "verdict" (verdict_label outcome);
            ];
      (outcome, st))

let default_limit = 10_000_000

let decide ?(limit = default_limit) sys = run Decide limit sys

let census ?(limit = default_limit) sys = run Census limit sys

let has_deadlock sys =
  let _, st = run Deadlock max_int sys in
  st.deadlocked > 0

(* The oracle's per-state deadlock predicate ([enabled] over every
   pending step), evaluated on an externally supplied state instead of
   the search context — the online form a running simulator consults.
   A re-entrant Lock (holder = self) counts as enabled: a worker that
   believes it holds the entity can proceed, whatever the lock manager
   thinks. *)
let deadlocked_now sys ~executed ~holder =
  let n = System.num_txns sys in
  let any_enabled = ref false and all_done = ref true in
  for i = 0 to n - 1 do
    let txn = System.txn sys i in
    let k = Txn.num_steps txn in
    for s = 0 to k - 1 do
      if not (executed i s) then begin
        all_done := false;
        if not !any_enabled then begin
          let preds_ok = ref true in
          for p = 0 to k - 1 do
            if Txn.precedes txn p s && not (executed i p) then preds_ok := false
          done;
          if !preds_ok then
            let step = Txn.step txn s in
            match step.Step.action with
            | Step.Lock -> (
                match holder step.Step.entity with
                | None -> any_enabled := true
                | Some h -> if h = i then any_enabled := true)
            | Step.Unlock | Step.Update -> any_enabled := true
        end
      end
    done
  done;
  (not !all_done) && not !any_enabled
