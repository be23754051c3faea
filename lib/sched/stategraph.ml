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

(* The visited table. States get ids 0, 1, ... in discovery order; state
   [id]'s key is the [w] words of [keys] from [id * w], and its discovery
   edge is [parent.(id)] (-1 at the root) and the event [(event.(2 id),
   event.(2 id + 1))]. [slots] is an open-addressing (linear probing)
   index over the ids: a slot holds [id + 1], or 0 when empty, and is
   never more than half full. Nothing here is boxed, so a known state
   costs one probe and a new state a copy of its [w] words. *)
type visited = {
  w : int;
  mutable keys : int array;
  mutable parent : int array;
  mutable event : int array;
  mutable count : int;
  mutable slots : int array; (* length [1 lsl bits] *)
  mutable bits : int;
}

(* Multiplicative hashing over every key word; the slot is the top
   [bits] bits of the product, so it depends on every bit of every word
   (a bucket mask over the low bits would see only the low bits). *)
let hash a off w bits =
  let h = ref 0 in
  for k = off to off + w - 1 do
    h := (!h lxor a.(k)) * 0x1E3779B97F4A7C15
  done;
  !h lsr (Sys.int_size - bits)

(* Small enough that a small search's arrays start in the minor heap. *)
let visited_create w =
  let cap = 64 and bits = 7 in
  {
    w;
    keys = Array.make (cap * w) 0;
    parent = Array.make cap 0;
    event = Array.make (2 * cap) 0;
    count = 0;
    slots = Array.make (1 lsl bits) 0;
    bits;
  }

let same_key t words id =
  let off = id * t.w in
  let k = ref 0 in
  while !k < t.w && t.keys.(off + !k) = words.(!k) do
    incr k
  done;
  !k = t.w

(* The id of the state keyed by [words], or [-1 - slot] with the empty
   slot where it belongs. *)
let rec probe t words slot =
  let v = t.slots.(slot) in
  if v = 0 then -1 - slot
  else if same_key t words (v - 1) then v - 1
  else probe t words ((slot + 1) land (Array.length t.slots - 1))

let find t words = probe t words (hash words 0 t.w t.bits)

let grow_slots t =
  let bits = t.bits + 1 in
  let slots = Array.make (1 lsl bits) 0 in
  let mask = Array.length slots - 1 in
  for id = 0 to t.count - 1 do
    let slot = ref (hash t.keys (id * t.w) t.w bits) in
    while slots.(!slot) <> 0 do
      slot := (!slot + 1) land mask
    done;
    slots.(!slot) <- id + 1
  done;
  t.slots <- slots;
  t.bits <- bits

let grow_store t =
  let extend a = Array.append a (Array.make (Array.length a) 0) in
  t.keys <- extend t.keys;
  t.parent <- extend t.parent;
  t.event <- extend t.event

(* Records the state keyed by [words] in the empty [slot] that [find]
   returned, discovered from [parent] by step [s] of transaction [i];
   returns its id. *)
let insert t words slot ~parent i s =
  let id = t.count in
  if id = Array.length t.parent then grow_store t;
  for k = 0 to t.w - 1 do
    t.keys.((id * t.w) + k) <- words.(k)
  done;
  t.parent.(id) <- parent;
  t.event.(2 * id) <- i;
  t.event.((2 * id) + 1) <- s;
  t.slots.(slot) <- id + 1;
  t.count <- id + 1;
  if 2 * t.count > Array.length t.slots then grow_slots t;
  id

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
  touchers : int array array; (* entity -> transactions accessing it *)
  words : int array; (* the packed key of the current state *)
  mask_words : int;
  conflicts : bool;
  bit_word : int array array; (* (txn, step) -> word index of its bit *)
  bit_mask : int array array;
  (* Conflict bits set along the current path, innermost last. A path
     sets each of the n*n bits at most once, so [n * n] entries suffice. *)
  trail : int array;
  mutable trail_top : int;
}

let init ~conflicts sys =
  let n = System.num_txns sys in
  let ne = Database.num_entities (System.db sys) in
  let total = System.total_steps sys in
  let succ = Enumerate.successors sys in
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
    indeg = Enumerate.in_degrees succ;
    done_;
    holder = Array.make ne (-1);
    executed = 0;
    touch_total;
    touch_done = Array.make_matrix n ne 0;
    touchers = Array.map Array.of_list touchers;
    words = Array.make (mask_words + conf_words) 0;
    mask_words;
    conflicts;
    bit_word;
    bit_mask;
    trail = Array.make (if conflicts then n * n else 0) 0;
    trail_top = 0;
  }

let set_edge ctx a b =
  let p = (a * ctx.n) + b in
  let w = ctx.mask_words + (p / bits_per_word)
  and m = 1 lsl (p mod bits_per_word) in
  if ctx.words.(w) land m = 0 then begin
    ctx.words.(w) <- ctx.words.(w) lor m;
    ctx.trail.(ctx.trail_top) <- p;
    ctx.trail_top <- ctx.trail_top + 1
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

(* Executes step (i,s), pushing the conflict bits it flipped 0->1 on the
   trail: an edge can be implied by several events along one path, so
   [undo] must clear exactly the bits its [apply] set. Edges are decided
   at span starts — when this is [i]'s first access to [e], every
   transaction whose [e]-span already closed conflicts before [i], and
   every still-open span overlaps (both directions) — reproducing
   [Conflict.graph]'s span rule incrementally. *)
let apply ctx i s =
  let step = ctx.steps.(i).(s) in
  let e = step.Step.entity in
  ctx.done_.(i).(s) <- true;
  ctx.executed <- ctx.executed + 1;
  ctx.words.(ctx.bit_word.(i).(s)) <-
    ctx.words.(ctx.bit_word.(i).(s)) lor ctx.bit_mask.(i).(s);
  let indeg = ctx.indeg.(i) and succ = ctx.succ.(i).(s) in
  for k = 0 to Array.length succ - 1 do
    indeg.(succ.(k)) <- indeg.(succ.(k)) - 1
  done;
  (match step.Step.action with
  | Step.Lock -> ctx.holder.(e) <- i
  | Step.Unlock -> ctx.holder.(e) <- -1
  | Step.Update -> ());
  if ctx.conflicts && ctx.touch_done.(i).(e) = 0 then begin
    let touchers = ctx.touchers.(e) in
    for k = 0 to Array.length touchers - 1 do
      let j = touchers.(k) in
      if j <> i then begin
        let dj = ctx.touch_done.(j).(e) in
        if dj > 0 then begin
          set_edge ctx j i;
          if dj < ctx.touch_total.(j).(e) then set_edge ctx i j
        end
      end
    done
  end;
  ctx.touch_done.(i).(e) <- ctx.touch_done.(i).(e) + 1

(* Reverts [apply ctx i s]; [mark] is the trail height before it. *)
let undo ctx i s mark =
  let step = ctx.steps.(i).(s) in
  let e = step.Step.entity in
  ctx.done_.(i).(s) <- false;
  ctx.executed <- ctx.executed - 1;
  ctx.words.(ctx.bit_word.(i).(s)) <-
    ctx.words.(ctx.bit_word.(i).(s)) land lnot ctx.bit_mask.(i).(s);
  let indeg = ctx.indeg.(i) and succ = ctx.succ.(i).(s) in
  for k = 0 to Array.length succ - 1 do
    indeg.(succ.(k)) <- indeg.(succ.(k)) + 1
  done;
  (match step.Step.action with
  | Step.Lock -> ctx.holder.(e) <- -1
  | Step.Unlock -> ctx.holder.(e) <- i
  | Step.Update -> ());
  ctx.touch_done.(i).(e) <- ctx.touch_done.(i).(e) - 1;
  for k = mark to ctx.trail_top - 1 do
    clear_edge_bit ctx ctx.trail.(k)
  done;
  ctx.trail_top <- mark

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

exception Found_unsafe of int
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
      let visited = visited_create (Array.length ctx.words) in
      let dups = ref 0 and complete = ref 0 and deadlocked = ref 0 in
      let first_unsafe = ref (-1) in
      let mstates = m_states () and mdups = m_dups () in
      (* [visit id] is called with state [id] applied in [ctx]. *)
      let rec visit id =
        if ctx.executed = ctx.total then begin
          incr complete;
          if mode <> Deadlock && conflict_cyclic ctx then
            match mode with
            | Decide -> raise (Found_unsafe id)
            | Census -> if !first_unsafe < 0 then first_unsafe := id
            | Deadlock -> ()
        end
        else begin
          let any = ref false in
          for i = 0 to ctx.n - 1 do
            for s = 0 to Array.length ctx.steps.(i) - 1 do
              if enabled ctx i s then begin
                any := true;
                let mark = ctx.trail_top in
                apply ctx i s;
                let found = find visited ctx.words in
                if found >= 0 then begin
                  incr dups;
                  Distlock_obs.Metric.incr mdups
                end
                else begin
                  if visited.count >= limit then raise Limit_hit;
                  Distlock_obs.Metric.incr mstates;
                  visit (insert visited ctx.words (-1 - found) ~parent:id i s)
                end;
                undo ctx i s mark
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
      let rebuild id =
        let rec go id acc =
          if id = 0 (* the root *) then acc
          else
            go visited.parent.(id)
              ((visited.event.(2 * id), visited.event.((2 * id) + 1)) :: acc)
        in
        Schedule.of_events (go id [])
      in
      let outcome =
        if limit < 1 then Exhausted { visited = 0; limit }
        else begin
          Distlock_obs.Metric.incr mstates;
          let root = -1 - find visited ctx.words in
          match visit (insert visited ctx.words root ~parent:(-1) (-1) (-1)) with
          | () ->
              if !first_unsafe >= 0 then Unsafe (rebuild !first_unsafe)
              else Safe
          | exception Found_unsafe id -> Unsafe (rebuild id)
          | exception Deadlock_found -> Safe (* only [has_deadlock] asks *)
          | exception Limit_hit -> Exhausted { visited = visited.count; limit }
        end
      in
      let st =
        {
          states = visited.count;
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
