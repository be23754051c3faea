open Distlock_txn

(** A mutable transaction system with incremental safety decisions.

    A from-scratch {!Decision.decide} rebuilds the conflict graph and
    re-runs every pair and every cycle, so editing one transaction of an
    [n]-transaction system costs O(n²) conflict tests plus a full cycle
    enumeration. A session keeps Proposition 2's two conditions between
    calls, and an edit marks undecided only what it touches:

    - {b transactions} sit in int slots numbered in insertion order; a
      replacement keeps its slot, a removal leaves a hole (renumbered
      away once holes outnumber live slots). Slot order is the
      {!system} snapshot's index order, so every lexicographic order the
      verdict depends on is computed on slots;
    - the {b conflict graph} is a per-slot set of neighbours, found
      through an index from each entity to the slots that lock it;
    - condition (a): every live conflicting pair keeps its verdict once
      decided. An edit makes only the edited slot's pairs undecided
      (at most [2n − 3] over one edit and its call); a call decides
      undecided pairs through a {b pair-verdict store}
      ({!Distlock_engine.Lru}, 4096 entries) keyed by the
      order-canonical {!System.txns_pair_fingerprint}, so content seen
      before (an edit reverted) is not decided again;
    - condition (b): every connected component keeps its result — the
      cycles it examined and its first cycle with an acyclic B_c, or
      none — until an edit adds, removes or changes one of its members
      or edges. An unjudged component of three or more members goes
      through {!Multisite.judge_component} with the session's
      content-keyed cycle-list and B_c memo.

    {b Costs.} An edit costs O(d log n + h + c): [d] the edited
    transaction's degree before and after, [h] the transactions holding
    its entities, [c] the members and edges of its component before and
    after the edit. A call with nothing edited since a decided call is
    O(1); otherwise it costs the undecided pairs it reaches (a
    fingerprint, a store lookup, and a pair pipeline run on a miss) and
    the unjudged components it reaches, plus O(n + pairs) when it
    reports an unsafe or unknown answer (slots mapped to snapshot
    indices, pairs counted). The {!system} snapshot is built only when
    asked for.

    Sessions serve one caller at a time. *)

type t

val create : Database.t -> Txn.t list -> t
(** An empty-or-seeded session over one database. Its pair-verdict
    store holds 4096 entries. Raises [Invalid_argument] on duplicate
    transaction names. *)

val of_system : System.t -> t

val system : t -> System.t
(** The current snapshot (cached between edits). Raises
    [Invalid_argument] when the session holds no transactions. *)

val num_txns : t -> int

val txn_names : t -> string list
(** In insertion order. *)

val stats : t -> Distlock_engine.Stats.t
(** Pair-cache hits/misses/re-decisions and per-stage counters for the
    pair pipeline runs this session performed. *)

(** {1 Mutations}

    Each costs O(d log n + h + c) (see above); no pair pipeline runs
    and no cycle is enumerated until the next {!decide_delta}. *)

val add_txn : t -> Txn.t -> unit
(** Raises [Invalid_argument] if a transaction of that name exists. *)

val remove_txn : t -> string -> unit
(** By name; raises [Invalid_argument] if absent. *)

val replace_txn : t -> string -> Txn.t -> unit
(** Replaces the named transaction in place (keeping its position). The
    replacement may carry a different name as long as it collides with
    no other transaction. Raises [Invalid_argument] if the named
    transaction is absent or the new name collides. *)

(** {1 Deciding} *)

type verdict =
  | Safe
  | Unsafe of Multisite.unsafe_reason
      (** Indices refer to the current {!system} snapshot. *)
  | Unknown of string
      (** An undecided pair within budget, or cycle-enumeration
          exhaustion ({!Multisite.exhaustion}) — never a hang. *)

(** What one call examined. A call walks condition (a) then condition
    (b) in the order a from-scratch Proposition 2 would, and "examined"
    means what that walk reaches, whether the session answered it from
    what it holds or worked it out again:

    - condition (a) reaches the live conflicting pairs in lexicographic
      order up to and including the pair that decides the call (the
      first unsafe pair, or an undecided one), or all of them when none
      does;
    - condition (b) runs only when every pair is safe, and reaches the
      components in ascending smallest member up to and including the
      one holding the first acyclic B_c, or whose enumeration runs out
      of budget, or all of them. *)
type outcome = {
  verdict : verdict;
  pairs_total : int;  (** Conflicting pairs examined. *)
  pairs_reused : int;
      (** Examined pairs whose verdict the session already held, or found
          in the pair-verdict store: [pairs_total] minus store misses. *)
  pairs_redecided : int;
      (** Pair pipeline runs this call: store misses whose pipeline
          decided. A miss that ends [Unknown] is not counted. *)
  cycles_total : int;
      (** Conflict-graph cycles examined: for each component reached,
          its cycles up to and including the first with an acyclic B_c
          (a component cut short by the budget counts none). *)
  cycles_reused : int;
      (** [cycles_total - cycles_rejudged]: B_c verdicts the session
          held or found in its memo. *)
  cycles_rejudged : int;  (** B_c graphs built and judged this call. *)
  seconds : float;
}

val decide_delta : ?budget:Distlock_engine.Budget.t -> t -> outcome
(** Decide the current system under [budget] (default unlimited),
    reusing every pair verdict and component result whose inputs are
    untouched since they were decided. A decided verdict equals
    Proposition 2's on {!system}; an empty or single-transaction session
    is trivially safe. Where Proposition 2 is inconclusive (an undecided
    pair, cycle-enumeration exhaustion) the session answers [Unknown],
    while {!Decision.decide} goes on to its state-graph fallback; an
    [Unknown] call leaves what it did not decide undecided for the next
    call. [Unsafe_pair] names the lexicographically first unsafe pair and
    [Acyclic_bc] the first bad cycle in component order, as a
    from-scratch walk would; pairs after an unsafe one stay undecided.
    The session's {!stats} record each pair looked up in the store as a
    hit or a miss, and every other examined pair as a hit. [seconds] is
    the call's monotonic wall time ({!Distlock_obs.Obs.mono_s}). *)
