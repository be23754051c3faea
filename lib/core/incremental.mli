open Distlock_txn

(** A mutable transaction system with incremental safety decisions.

    A from-scratch {!Decision.decide} rebuilds the conflict graph and
    re-runs every pair and every cycle, so editing one transaction of an
    [n]-transaction system costs O(n²) conflict tests plus a full cycle
    enumeration. A session runs the same Proposition 2 loop
    ({!Multisite.decide_with}) but keeps its inputs between calls:

    - a {b pair-verdict store} ({!Distlock_engine.Lru}) keyed by
      the order-canonical {!System.pair_fingerprint}, so after a
      single-transaction edit only the O(n) pairs involving the mutated
      transaction re-run the pair pipeline (at most [2n − 3]: the pair
      fingerprints of all other pairs are unchanged by construction);
    - the {b conflict graph}, maintained edge-incrementally over
      transaction names ({!Distlock_graph.Dyngraph}) — an edit touches
      only the edges incident to the mutated vertex;
    - {b per-cycle B_c verdicts} and {b per-SCC cycle enumerations}
      (a {!Multisite.memo}), keyed by content digests of their member
      transactions, so condition (b) is re-judged only for cycles
      through a touched component.

    Sessions are cheap to create and serve one caller at a time. *)

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

    Each is O(degree) on the conflict graph plus O(n) conflict
    re-detection against the other transactions; no pair pipeline runs
    until the next {!decide_delta}. *)

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

type outcome = {
  verdict : verdict;
  pairs_total : int;  (** Conflicting pairs examined. *)
  pairs_reused : int;  (** Served by the pair-verdict store. *)
  pairs_redecided : int;  (** Pair pipeline runs this call. *)
  cycles_total : int;  (** Conflict-graph cycles examined. *)
  cycles_reused : int;  (** B_c verdicts reused from earlier calls. *)
  cycles_rejudged : int;  (** B_c graphs rebuilt and re-judged. *)
  seconds : float;
}

val decide_delta : ?budget:Distlock_engine.Budget.t -> t -> outcome
(** Decide the current system under [budget] (default unlimited),
    reusing every pair verdict, cycle list, and B_c verdict whose inputs
    are untouched since the last call. A decided verdict equals
    Proposition 2's on {!system}; an empty or single-transaction session
    is trivially safe. Where Proposition 2 is inconclusive (an undecided
    pair, cycle-enumeration exhaustion) the session answers [Unknown],
    while {!Decision.decide} goes on to its state-graph fallback. An
    unsafe pair short-circuits: later pairs are neither examined nor
    counted. [seconds] is the call's monotonic wall time
    ({!Distlock_obs.Obs.mono_s}). *)
