(** A subquadratic safety test for totally ordered pairs, in the spirit of
    the O(n log n)-class algorithms the paper cites for Proposition 1
    (Lipski–Papadimitriou [5]; Soisalon-Soininen–Wood [14]).

    For total orders, safety is strong connectivity of the interlock
    digraph [D(t1,t2)], whose arc set

    {v (x,y)  iff  L1x < U1y  and  L2y < U2x v}

    has Θ(k²) arcs in the worst case. Materializing it (as
    {!Separation.interlock} does) costs Θ(k²) regardless of the outcome.
    This module instead builds an {e arc-compressed} graph: entities are
    leaves of a segment tree over the [L2]-order, each internal node
    carrying a chain of helper vertices over its entities sorted by [U1],
    so that the out-neighbourhood of [x] — an [L2]-prefix intersected with
    a [U1]-suffix — is covered by O(log² k) arcs into helper vertices.
    Entity-to-entity reachability in the compressed graph equals
    reachability in [D], so Tarjan on O(k log k) vertices and
    O(k log² k) arcs decides strong connectivity.

    The test suite checks exact agreement with the naive construction;
    benchmark E2b measures the crossover. *)

val is_safe : Plane.t -> bool
(** Equivalent to {!Separation.is_safe} (no certificate construction). *)

val is_strongly_connected : Plane.t -> bool
(** Strong connectivity of [D(t1,t2)] via the compressed graph; [true]
    when there are fewer than two rectangles. *)

val rects_strongly_connected : Rect.t list -> bool
(** The same test on bare rectangles (no plane construction), for
    synthetic benchmarking. *)
