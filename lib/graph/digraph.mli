(** Directed graphs over vertices [0 .. n-1].

    The central objects of the paper — [D(T1,T2)] (Definition 1), transaction
    precedence DAGs, conflict graphs, and the [B_ijk] graphs of Section 6 —
    are all finite digraphs; this module is their common substrate. Arcs are
    stored both as adjacency lists (for traversal) and as a hash set (for
    O(1) membership). *)

type t

val create : int -> t
(** [create n] is the arcless digraph on [n] vertices. *)

val of_arcs : int -> (int * int) list -> t

val n : t -> int
(** Number of vertices. *)

val num_arcs : t -> int

val add_arc : t -> int -> int -> unit
(** [add_arc g u v] adds the arc [u -> v]; duplicate additions are no-ops.
    Self-loops are allowed. *)

val mem_arc : t -> int -> int -> bool

val succ : t -> int -> int list
(** Out-neighbours, in insertion order. *)

val pred : t -> int -> int list
(** In-neighbours, in insertion order. *)

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val arcs : t -> (int * int) list
(** All arcs, grouped by source vertex. *)

val copy : t -> t

val transpose : t -> t
(** The reverse digraph. *)

val iter_succ : t -> int -> (int -> unit) -> unit

val iter_arcs : t -> (int -> int -> unit) -> unit

val equal : t -> t -> bool
(** Same vertex count and same arc set (order-insensitive). *)

val union : t -> t -> t
(** Arc-set union of two digraphs on the same vertex set. *)

val induced : t -> Bitset.t -> t * int array
(** [induced g s] is the subgraph induced by vertex set [s], with vertices
    renumbered [0..|s|-1]; the returned array maps new indices back to
    original vertices. *)

val to_dot : ?name:string -> ?label:(int -> string) -> t -> string
(** Graphviz rendering, used by the CLI's [--dot] output. *)
