open Distlock_txn

(** Theorem 2: for transactions distributed over at most two sites,
    [{T1,T2}] is safe iff [D(T1,T2)] is strongly connected — with a
    certificate of unsafety in the negative case, and in O(n²) overall
    (Corollary 1). *)

type verdict = Safe | Unsafe of Certificate.t

val decide_dgraph : Dgraph.t -> verdict
(** Theorem 2 on the [D] of a pair whose hypothesis the caller checked
    (the two-site stage of {!Checkers}); on more sites it may fail. *)

val decide : System.t -> verdict
(** {!decide_dgraph} on [D(T1,T2)]. Raises [Invalid_argument] if the
    system does not have exactly two transactions or uses more than two
    sites (Theorem 2's hypothesis; use {!Checkers.decide} for the
    general dispatcher). *)

val is_safe : System.t -> bool
