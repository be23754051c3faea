(** Dynamic undirected graphs over string-named vertices.

    {!Digraph} is a fixed-arity adjacency structure built once and then
    only read; incremental conflict-graph maintenance needs the dual:
    a graph whose vertex set and edge set change a little at a time
    (one transaction added, removed, or replaced) while the rest stays
    untouched. Vertices are identified by name so edges survive the
    index reshuffling that any array-backed representation suffers on
    removal. {!to_digraph} snapshots the current graph as a symmetric
    {!Digraph.t} for the read-only algorithms ({!Scc}, cycle
    enumeration).

    Not domain-safe; confine one graph to one domain (or lock
    externally), like [Hashtbl]. *)

type t

val create : unit -> t

val add_vertex : t -> string -> unit
(** No-op if already present. *)

val remove_vertex : t -> string -> unit
(** Removes the vertex and every incident edge; no-op if absent. *)

val has_vertex : t -> string -> bool

val num_vertices : t -> int

val add_edge : t -> string -> string -> unit
(** Undirected; both endpoints must exist ([Invalid_argument]
    otherwise, as for a self-loop). Re-adding is a no-op. *)

val remove_edge : t -> string -> string -> unit
(** No-op if the edge (or either endpoint) is absent. *)

val num_edges : t -> int
(** Undirected edge count (each edge counted once). *)

val neighbours : t -> string -> string list
(** Sorted by name; [] for an absent vertex. *)

val to_digraph : t -> index_of:(string -> int) -> n:int -> Digraph.t
(** Snapshot as a symmetric digraph (both arcs per edge) on [n]
    vertices, mapping names through [index_of]. Raises
    [Invalid_argument] if [index_of] sends a vertex outside
    [0..n-1]. *)
