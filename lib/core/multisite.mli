open Distlock_txn
open Distlock_graph

(** Proposition 2 (Section 6): safety of systems with more than two
    transactions.

    Let [G] be the (undirected) conflict graph on transactions — an edge
    [Ti - Tj] whenever they lock a common entity. For every directed path
    [(Ti, Tj, Tk)] of length two, [B_ijk] is the digraph with a node per
    (pair, entity) — entities locked by both endpoints of the pair — and
    arcs, all read off [Tj]'s partial order:

    - [(x@ij, y@jk)] iff [Lx] precedes [Uy] in [Tj];
    - [(x@ij, x'@ij)] iff [Lx] precedes [Lx'] in [Tj];
    - [(y@jk, y'@jk)] iff [Uy] precedes [Uy'] in [Tj].

    [T] is safe iff (a) every two-transaction subsystem is safe and (b)
    for each directed cycle [c] of [G], the union [B_c] of the [B_ijk] of
    its consecutive subpaths has a cycle. Testing (b) over all simple
    cycles is exponential — the problem is coNP-complete already in the
    centralized case [7] — so this module enumerates simple cycles
    explicitly and is meant for small transaction counts. *)

type unsafe_reason =
  | Unsafe_pair of int * int
  | Acyclic_bc of int list
      (** A directed conflict-graph cycle whose [B_c] is acyclic. *)

type verdict = Safe | Unsafe of unsafe_reason

val conflict_graph : System.t -> Digraph.t
(** Symmetric digraph (both arcs per undirected edge). *)

val b_graph : System.t -> i:int -> j:int -> k:int -> Digraph.t * (int * int * Database.entity) array
(** [B_ijk]; the array maps vertices to [(pair_lo, pair_hi, entity)]. *)

val b_cycle_graph : System.t -> int list -> Digraph.t
(** [B_c] for a directed cycle given as a transaction-index list. *)

type exhaustion = { examined : int; limit : int }
(** A typed budget cut, mirroring [Brute.Exhausted]: the enumeration
    followed [examined] arcs of its [limit]-arc allowance and stopped. *)

val describe_exhaustion : exhaustion -> string

type cycle_enum = Cycles of int list list | Cut of exhaustion

val simple_cycles_bounded : limit:int -> Digraph.t -> cycle_enum
(** All directed simple cycles of length >= 3, each rotation-normalized
    (smallest vertex first), both orientations included — unless the
    DFS follows more than [limit] arcs first, in which case [Cut] is
    returned instead of hanging on a dense graph (the number of simple
    {e paths} explored is what grows exponentially). *)

val simple_cycles : Digraph.t -> int list list
(** [simple_cycles g] = [simple_cycles_bounded ~limit:max_int g] — the
    unbudgeted enumeration, for graphs known to be small. *)

val pair_system : System.t -> int -> int -> System.t
(** The two-transaction subsystem [{Ti, Tj}] over the same database. *)

type result = Decided of verdict | Exhausted of exhaustion

(** Per-call traffic of one Proposition 2 decision: what [--explain]
    and a session's outcome report. With a pair store every examined
    pair is one lookup, so misses are [pairs_total - pair_hits]; with a
    memo every examined cycle is reused or judged, so reuses are
    [cycles_total - cycles_rejudged]. *)
type tally = {
  mutable pairs_total : int;  (** Conflicting pairs examined. *)
  mutable pair_hits : int;  (** Served by the pair-verdict store. *)
  mutable pairs_redecided : int;  (** Pair pipeline runs on a miss. *)
  mutable cycles_total : int;  (** Conflict-graph cycles examined. *)
  mutable cycles_rejudged : int;  (** B_c graphs built and judged. *)
}

val tally : unit -> tally
(** All zeros. *)

exception Undecided of string
(** The pair pipeline ended [Unknown] (the message says why). *)

val pair_verdict :
  ?store:bool Distlock_engine.Lru.t * Distlock_engine.Stats.t * string ->
  ?run_stats:Distlock_engine.Stats.t ->
  budget:Distlock_engine.Budget.t ->
  tally ->
  (unit -> System.t) ->
  bool
(** [pair_verdict ~budget tally pair] is condition (a) for the
    two-transaction system [pair ()]. Without [store], runs
    {!Checkers.decide} on it under [budget]. With [store = (verdicts,
    stats, key)], first looks [key] (the pair's
    {!System.pair_fingerprint}) up in [verdicts]; on a miss it builds
    the pair, runs the pipeline and stores the decided verdict. Lookups
    and re-decisions are recorded into [stats] and [tally]; the
    pipeline's own stage counters go to [run_stats] when given. Raises
    {!Undecided} when the pipeline ends [Unknown]; nothing is stored
    then. *)

val pair_safe :
  ?store:
    bool Distlock_engine.Lru.t
    * Distlock_engine.Stats.t
    * (int -> int -> string) ->
  ?run_stats:Distlock_engine.Stats.t ->
  budget:Distlock_engine.Budget.t ->
  tally ->
  System.t Lazy.t ->
  int ->
  int ->
  bool
(** [pair_safe ~budget tally sys i j] is {!pair_verdict} for the pair
    [(i, j)] of [sys] ({!pair_system}, forcing [sys] only to build it),
    keyed by [fp i j] when [store = (verdicts, stats, fp)]. *)

type memo
(** Content-keyed cycle lists per strongly connected component and B_c
    verdicts per cycle, kept across calls (capped; a full table is
    reset). One caller at a time. *)

val memo : unit -> memo

type allowance
(** One decision's cycle-enumeration step allowance, shared by its
    components: each enumeration spends from what the ones before it
    left. *)

val allowance : int -> allowance
(** A fresh allowance of that many DFS arcs ([max_int]: unlimited). *)

val judge_component :
  ?memo:memo * (int -> string) ->
  allowance ->
  tally ->
  txn:(int -> Txn.t) ->
  neighbours:(int -> (int -> unit) -> unit) ->
  rank:int array ->
  int list ->
  result
(** Condition (b) for one connected component of the conflict graph,
    given as its members in ascending order (at least three): enumerate
    the component's simple cycles, spending from the allowance, and
    find the first whose B_c is acyclic. Vertices are any ints: [txn v]
    is vertex [v]'s transaction (called only to build a B_c),
    [neighbours v f] calls [f] on each of [v]'s conflict-graph
    neighbours, all of them members, and [rank] is scratch space
    indexed by vertex.

    With [memo = (m, fp)], where [fp v] is vertex [v]'s
    {!Txn.fingerprint}, members are ranked by [fp], and the cycle list
    and B_c verdicts are looked up in and stored to [m]; a component
    whose cycle list is found spends none of the allowance. Without
    one, members keep their order. The verdict is the same either way;
    the reported cycle and the counts may differ.

    [Decided Safe]: every cycle's B_c is cyclic. [Decided (Unsafe
    (Acyclic_bc c))]: [c] is the first cycle with an acyclic B_c, in
    vertex terms. [Exhausted e]: the enumeration ran out of allowance.
    Examined and judged cycles go to the tally. *)

val decide_with :
  pair_safe:(int -> int -> bool) ->
  ?cycle_limit:int ->
  tally ->
  System.t Lazy.t ->
  Digraph.t ->
  result
(** Proposition 2 over the conflict graph [g] of [sys] (symmetric, as
    {!conflict_graph} builds it; [sys] is forced only to build a B_c).
    Condition (a): [pair_safe i j] for every arc [i -> j] with [i < j],
    in lexicographic order; the first unsafe pair wins. Condition (b):
    {!judge_component} without a memo on one strongly connected
    component at a time, in {!Scc.compute}'s index order (ascending
    smallest member on a symmetric graph), under one allowance of
    [cycle_limit] DFS arcs (default unlimited); exceeding it gives
    [Exhausted]. Counts go to the tally; {!Undecided} from [pair_safe]
    propagates. *)
