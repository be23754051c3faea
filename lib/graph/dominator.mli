(** Dominators in the sense of the paper (Definition 2).

    A dominator of a digraph [D = (V, A)] is a nonempty *proper* subset
    [X ⊂ V] with no incoming arcs from [V - X]; equivalently, [X] is a
    nonempty proper union of SCCs that is closed under predecessors in the
    condensation. A digraph has a dominator iff it is not strongly
    connected. (This is *not* the flow-graph notion of dominator.) *)

val is_dominator : Digraph.t -> Bitset.t -> bool

val find : Digraph.t -> Bitset.t option
(** Some dominator if the graph is not strongly connected: the smallest
    source component of the condensation. [None] on strongly connected
    graphs (including graphs with [< 2] vertices). *)

val enumerate : Digraph.t -> Bitset.t list
(** Every dominator: all nonempty proper predecessor-closed unions of SCCs.
    Exponential in the number of components; raises [Failure] past
    100 000 dominators. Used to sweep the dominator/assignment
    correspondence of the Theorem 3 gadgets. *)
