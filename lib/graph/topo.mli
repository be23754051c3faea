(** Topological sorting with priority tie-breaking, and cycle extraction.

    Theorem 2's certificate construction relies on two specially biased
    topological sorts ("place the [Ux] steps as early as possible", "place
    the [Lx] steps as late as possible"); [sort_with_priority] implements
    exactly that: among the currently available vertices, always emit one
    with the *smallest* priority value. *)

val sort : Digraph.t -> int array option
(** A topological order of the DAG, or [None] if the graph has a cycle. *)

val sort_with_priority : Digraph.t -> priority:(int -> int) -> int array option
(** Kahn's algorithm driven by a priority: whenever several vertices are
    available (all predecessors emitted), the one minimizing
    [priority v] — with the vertex id as final tie-break for determinism —
    is emitted first. [None] if the graph has a cycle. *)

val kahn :
  in_degree:int array ->
  iter_succ:(int -> (int -> unit) -> unit) ->
  priority:(int -> int) ->
  int array option
(** The Kahn loop behind {!sort_with_priority}, over any graph on the
    vertices [0 .. n-1] ([n] the length of [in_degree]) given by its
    in-degrees and a successor iterator ([iter_succ v f] calls [f] once
    per arc [v -> w]). Among the available vertices it emits the one
    with the least [(priority v, v)]. [in_degree] is consumed
    (decremented in place). [None] if some vertex is never emitted, i.e.
    the graph has a cycle. Posets run it directly over their closure
    rows, and over the successor arrays of the arcs they close. *)

val is_acyclic : Digraph.t -> bool

val find_cycle : Digraph.t -> int list option
(** Some cycle [v1; v2; ...; vk] with arcs [v1->v2->...->vk->v1], if any. *)

val is_topological_order : Digraph.t -> int array -> bool
(** Checks that the array is a permutation of the vertices in which every
    arc goes forward. *)
