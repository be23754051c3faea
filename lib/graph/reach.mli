(** Reachability and transitive closure. *)

val from : Digraph.t -> int -> Bitset.t
(** Vertices reachable from [v], including [v] itself. *)

val closure : Digraph.t -> Bitset.t array
(** [closure g] gives, for each vertex, its set of *strict* descendants:
    [mem (closure g).(u) v] iff there is a nonempty path [u -> ... -> v].
    Computed in reverse topological order when the graph is a DAG and by
    per-vertex BFS otherwise. *)

val transitive_reduction : Digraph.t -> Digraph.t
(** For a DAG: the unique minimal subgraph with the same reachability.
    Raises [Invalid_argument] on cyclic input. *)
