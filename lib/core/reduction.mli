open Distlock_txn
open Distlock_sat

(** Theorem 3: the reduction from (restricted) CNF satisfiability to
    unsafety of a two-transaction multisite system.

    Given a formula [F] — at most three literals per clause, each variable
    at most twice positive and at most once negative (see
    {!Distlock_sat.Normalize}) — [encode] builds transactions
    [T1(F), T2(F)] whose digraph [D] consists of (Figs 8 and 9):

    - an {e upper cycle} [u -> · -> c_ij -> · -> ... -> u] with a node per
      clause literal and dummy nodes in between;
    - a {e middle row}: per variable [k], a node [w_k] (duplicated into a
      two-node strongly connected pair when the variable occurs twice
      positively) and a node [w'_k] for its negation, all direct
      descendants of [u];
    - a {e lower cycle} through [v] and nodes [z_k, z'_k], with [v] a
      direct descendant of the middle row's primary nodes.

    Every entity lives on its own site. Dominators of [D] are exactly the
    upper cycle plus a subset of middle-row components and encode truth
    assignments ([w_k in X] ⟺ "x_k := 1", [w'_k in X] ⟺ "x_k := 0");
    completion precedences (a)–(c) make the closure procedure succeed on a
    dominator iff the corresponding assignment is consistent and satisfies
    every clause. Hence [{T1(F), T2(F)}] is unsafe iff [F] is
    satisfiable. *)

type t

val encode : Cnf.t -> t
(** Raises [Invalid_argument] unless [Cnf.is_restricted] holds and the
    formula has at least one variable and one clause. *)

val system : t -> System.t

val formula : t -> Cnf.t

val dgraph : t -> Dgraph.t
(** [D(T1(F), T2(F))], as computed from the built transactions. *)

val intended_digraph : t -> Distlock_graph.Digraph.t * Database.entity array
(** The gadget graph as specified; [encode] asserts it equals
    [dgraph]. *)

val num_entities : t -> int

val dominator_of_assignment : t -> bool array -> Database.entity list
(** The desirable dominator encoding a (claimed) model. *)

val assignment_of_dominator : t -> Database.entity list -> bool array
(** Decode a dominator: [x_k := w_k in X]. *)

val decide_unsafe_by_closure : t -> (Database.entity list * System.t) option
(** Corollary 2 sweep: {!Closure.first_closing} on {!dgraph} (the [D]
    [encode] built and checked) over the upper cycle plus
    each of the 2^(components) subsets of middle-row components (the
    honest coNP sweep), generated lazily. Components are taken in their
    encoding order, each tried included before excluded, so the first
    candidate includes every component and the last none. Returns the
    first candidate whose closure succeeds, with the closed system.
    [Some _] proves the encoded system unsafe; for gadgets, [None]
    coincides with unsatisfiability of [F] (validated in the test suite
    against DPLL). *)

val certificate_of_model : t -> bool array -> (Certificate.t, string) result
(** Satisfying assignment ⟹ verified non-serializable schedule. *)

val sat_via_safety : Cnf.t -> bool
(** End-to-end: normalize an arbitrary CNF, encode it, and decide its
    satisfiability purely through the unsafety of the encoded system. *)
