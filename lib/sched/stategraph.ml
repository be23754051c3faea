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
   get-or-create. *)
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
  let extend a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
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
   the key is the done masks alone and no edge is tracked. Entities are
   numbered 0, 1, ... in the order the system first touches them, so
   every per-entity array is sized by the system, not the database. *)
type ctx = {
  n : int;
  total : int;
  steps : Step.t array array;
  ent : int array array; (* (txn, step) -> its entity's number *)
  succ : int array array array; (* (txn, step) -> its successor steps *)
  indeg : int array array;
  done_ : bool array array;
  holder : int array; (* entity -> holding txn, or -1 when free *)
  mutable executed : int;
  touch_total : int array array; (* txn i, entity e -> |accesses of e| *)
  touch_done : int array array; (* executed accesses so far *)
  touchers : int array array; (* entity -> transactions accessing it *)
  (* (txn, step) -> whenever the step is enabled, it is explored alone:
     an update or unlock of an entity every toucher accesses inside its
     one lock section, or the lock of such an entity no other
     transaction touches. *)
  solo : bool array array;
  ready_solo : int array; (* txn -> its enabled [solo] steps *)
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

(* [guarded.(e)]: every transaction touching entity [e] locks and unlocks
   it exactly once and orders all its other steps on [e] strictly
   between the two. Then only the holder can step on [e], and any step of
   the holder on [e] is enabled exactly while it holds [e]. *)
let guarded sys steps ent ne =
  let n = Array.length ent in
  let lock = Array.make_matrix n ne (-1) and unlock = Array.make_matrix n ne (-1) in
  let ok = Array.make ne true in
  let note at i e s =
    if at.(i).(e) = -1 then at.(i).(e) <- s else ok.(e) <- false
  in
  for i = 0 to n - 1 do
    Array.iteri
      (fun s e ->
        match steps.(i).(s).Step.action with
        | Step.Lock -> note lock i e s
        | Step.Unlock -> note unlock i e s
        | Step.Update -> ())
      ent.(i)
  done;
  for i = 0 to n - 1 do
    let txn = System.txn sys i in
    Array.iteri
      (fun s e ->
        let l = lock.(i).(e) and u = unlock.(i).(e) in
        if
          l < 0 || u < 0
          || (s <> l && not (Txn.precedes txn l s))
          || (s <> u && not (Txn.precedes txn s u))
        then ok.(e) <- false)
      ent.(i)
  done;
  ok

let init ~conflicts sys =
  let n = System.num_txns sys in
  let total = System.total_steps sys in
  let steps = Array.map Txn.steps (System.txns sys) in
  let number = Hashtbl.create 16 in
  let ent =
    Array.map
      (Array.map (fun step ->
           let e = step.Step.entity in
           match Hashtbl.find_opt number e with
           | Some k -> k
           | None ->
               let k = Hashtbl.length number in
               Hashtbl.add number e k;
               k))
      steps
  in
  let ne = Hashtbl.length number in
  let succ = Enumerate.successors sys in
  let indeg = Enumerate.in_degrees succ in
  let done_ = Array.map (fun st -> Array.make (Array.length st) false) steps in
  let touch_total = Array.make_matrix n ne 0 in
  let touchers = Array.make ne [] in
  let bit_word = Array.make n [||] and bit_mask = Array.make n [||] in
  let bit = ref 0 in
  for i = 0 to n - 1 do
    let k = Array.length steps.(i) in
    bit_word.(i) <- Array.make k 0;
    bit_mask.(i) <- Array.make k 0;
    for s = 0 to k - 1 do
      bit_word.(i).(s) <- !bit / bits_per_word;
      bit_mask.(i).(s) <- 1 lsl (!bit mod bits_per_word);
      incr bit;
      let e = ent.(i).(s) in
      if touch_total.(i).(e) = 0 then touchers.(e) <- i :: touchers.(e);
      touch_total.(i).(e) <- touch_total.(i).(e) + 1
    done
  done;
  let touchers = Array.map Array.of_list touchers in
  let guarded = guarded sys steps ent ne in
  let solo =
    Array.mapi
      (fun i st ->
        Array.mapi
          (fun s step ->
            let e = ent.(i).(s) in
            guarded.(e)
            &&
            match step.Step.action with
            | Step.Update | Step.Unlock -> true
            | Step.Lock -> touchers.(e) = [| i |])
          st)
      steps
  in
  let ready_solo =
    Array.mapi
      (fun i solo_i ->
        let c = ref 0 in
        Array.iteri (fun s b -> if b && indeg.(i).(s) = 0 then incr c) solo_i;
        !c)
      solo
  in
  let mask_words = max 1 ((total + bits_per_word - 1) / bits_per_word) in
  let conf_words =
    if conflicts then ((n * n) + bits_per_word - 1) / bits_per_word else 0
  in
  {
    n;
    total;
    steps;
    ent;
    succ;
    indeg;
    done_;
    holder = Array.make ne (-1);
    executed = 0;
    touch_total;
    touch_done = Array.make_matrix n ne 0;
    touchers;
    solo;
    ready_solo;
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
  match ctx.steps.(i).(s).Step.action with
  | Step.Lock -> ctx.holder.(ctx.ent.(i).(s)) < 0
  | Step.Unlock | Step.Update -> true

(* Executes step (i,s), pushing the conflict bits it flipped 0->1 on the
   trail: an edge can be implied by several events along one path, so
   [undo] must clear exactly the bits its [apply] set. Edges are decided
   at span starts — when this is [i]'s first access to [e], every
   transaction whose [e]-span already closed conflicts before [i], and
   every still-open span overlaps (both directions) — reproducing
   [Conflict.graph]'s span rule incrementally. A [solo] step is enabled
   exactly when it is pending with no pending predecessor, so
   [ready_solo] changes only at the step itself and its successors. *)
let apply ctx i s =
  let e = ctx.ent.(i).(s) in
  ctx.done_.(i).(s) <- true;
  ctx.executed <- ctx.executed + 1;
  ctx.words.(ctx.bit_word.(i).(s)) <-
    ctx.words.(ctx.bit_word.(i).(s)) lor ctx.bit_mask.(i).(s);
  let indeg = ctx.indeg.(i) and succ = ctx.succ.(i).(s) in
  let solo = ctx.solo.(i) and ready = ref ctx.ready_solo.(i) in
  if solo.(s) then decr ready;
  for k = 0 to Array.length succ - 1 do
    let q = succ.(k) in
    indeg.(q) <- indeg.(q) - 1;
    if indeg.(q) = 0 && solo.(q) then incr ready
  done;
  ctx.ready_solo.(i) <- !ready;
  (match ctx.steps.(i).(s).Step.action with
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
  let e = ctx.ent.(i).(s) in
  ctx.done_.(i).(s) <- false;
  ctx.executed <- ctx.executed - 1;
  ctx.words.(ctx.bit_word.(i).(s)) <-
    ctx.words.(ctx.bit_word.(i).(s)) land lnot ctx.bit_mask.(i).(s);
  let indeg = ctx.indeg.(i) and succ = ctx.succ.(i).(s) in
  let solo = ctx.solo.(i) and ready = ref ctx.ready_solo.(i) in
  if solo.(s) then incr ready;
  for k = 0 to Array.length succ - 1 do
    let q = succ.(k) in
    if indeg.(q) = 0 && solo.(q) then decr ready;
    indeg.(q) <- indeg.(q) + 1
  done;
  ctx.ready_solo.(i) <- !ready;
  (match ctx.steps.(i).(s).Step.action with
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
          (* Partial-order reduction: the first enabled [solo] step in
             scan order is a persistent set on its own. No other
             transaction can touch its entity before it runs, so every
             step that could run first commutes with it; exploring it
             alone still reaches every complete and deadlocked state. *)
          let i = ref 0 in
          while !i < ctx.n && ctx.ready_solo.(!i) = 0 do
            incr i
          done;
          if !i < ctx.n then begin
            let i = !i and s = ref 0 in
            while not (ctx.solo.(i).(!s) && enabled ctx i !s) do
              incr s
            done;
            step id i !s
          end
          else begin
            let any = ref false in
            for i = 0 to ctx.n - 1 do
              for s = 0 to Array.length ctx.steps.(i) - 1 do
                if enabled ctx i s then begin
                  any := true;
                  step id i s
                end
              done
            done;
            if not !any then begin
              incr deadlocked;
              if mode = Deadlock then raise Deadlock_found
            end
          end
        end
      (* Takes step (i, s) out of state [id], visits the target if it is
         new, and steps back. *)
      and step id i s =
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
