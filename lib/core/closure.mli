open Distlock_txn
open Distlock_graph

(** The closure procedure of Theorem 2 (Lemmas 2–3, Definition 3).

    A two-transaction system [R] is *closed with respect to a dominator
    [X]* of [D(T1,T2)] when for all entities [z ∈ V-X] and [x, y ∈ X]:

    {v Lz <_1 Ux  and  Ly <_2 Uz   imply   Uy <_1 Ux  and  Ly <_2 Lx v}

    [close] adds the implied precedences until fixpoint. On two-site
    systems this always succeeds with [X] still a dominator (Lemma 3); on
    general systems it may fail — either a required precedence would
    create a cycle, or [X] stops being a dominator of the extended
    system's [D] — which is exactly what happens on the safe Fig 5 system
    and on the unsatisfiable Theorem 3 gadgets. *)

type failure =
  | Would_cycle of { txn : int }
      (** Adding a required precedence to transaction [txn] (0 or 1)
          would contradict its existing partial order. *)
  | Dominator_lost
      (** Some added precedence created a [V-X -> X] arc in [D]. *)

type outcome = Closed of System.t | Failed of failure

val close : Dgraph.t -> dominator:Database.entity list -> outcome
(** [close d ~dominator] closes the pair [d] was built from.
    [dominator] must be a dominator of [d] (entity ids); raises
    [Invalid_argument] otherwise. On [Closed sys'], [sys'] has the same
    steps with possibly more precedences, is closed w.r.t. the dominator,
    and the dominator still dominates [D] of [sys']. *)

val is_closed : System.t -> dominator:Database.entity list -> bool
(** Definition 3's condition, checked without modifying the system. *)

val first_closing :
  Dgraph.t ->
  Database.entity list Seq.t ->
  (Database.entity list * System.t) option
(** [first_closing d candidates] closes each candidate in turn and
    returns the first that closes, with its closed system. Candidates
    that are not dominators of [d] are skipped. Every candidate reads
    [d]'s step lookup; the sequence is forced only up to the first
    success. *)

val first_unsafe_dominator : Dgraph.t -> (Database.entity list * System.t) option
(** Corollary 2 sweep: {!first_closing} over every dominator of [d] in
    {!Dgraph.dominators} order — a proof of unsafety. [None] means no
    dominator closes (which implies safety for two-site systems, and for
    the Theorem 3 gadgets corresponds to unsatisfiability). *)

val dominator_sets : System.t -> Bitset.t list
(** All dominators of [D(T1,T2)] as vertex sets (convenience re-export). *)
