(** Strongly connected components (Tarjan's algorithm) and condensation.

    Strong connectivity of [D(T1,T2)] is the paper's central safety
    criterion (Theorems 1 and 2), and dominators are exactly the unions of
    components that are closed under predecessors in the condensation. *)

type result = {
  count : int;  (** Number of components. *)
  component : int array;
      (** [component.(v)] is the component index of vertex [v]. Components
          are numbered in reverse topological order of the condensation:
          if there is an arc from component [a] to component [b <> a] then
          [a > b]. *)
}

val compute : Digraph.t -> result

val is_strongly_connected : Digraph.t -> bool
(** [true] iff the graph has exactly one SCC. The empty graph (0 vertices)
    counts as strongly connected; a single vertex always does. *)

val condensation : Digraph.t -> result -> Digraph.t
(** The DAG of components: vertex [c] for each component, arc [a -> b]
    whenever some original arc crosses from component [a] to [b]. *)

val component_sets : Digraph.t -> result -> Bitset.t array
(** [component_sets g r] gives each component as a bitset over [g]'s
    vertices. *)
