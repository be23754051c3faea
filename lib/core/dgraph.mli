open Distlock_txn
open Distlock_graph

(** The digraph [D(T1,T2)] of Definition 1.

    Vertices are the entities locked-unlocked by *both* transactions; there
    is an arc [(x,y)] iff [Lx] precedes [Uy] in [T1] and [Ly] precedes [Ux]
    in [T2] (precedence in the partial orders). Equivalently: in every
    geometric picture of the pair, the path's side for [x] forces its side
    for [y] ([b_x <= b_y] in Theorem 1's proof). *)

type t
(** [D] of one two-transaction system, which it records. *)

(** Where the two transactions lock and unlock each vertex (the first
    step by index, as in {!Txn.lock_of}), sized by the step count.
    Steps never change when precedences are added, so one lookup
    serves every extension of the same pair. *)
type steps = private {
  common : Database.entity array;
      (** Vertex index to entity id: the entities both transactions lock
          and unlock, ascending. *)
  lock1 : int array;  (** Vertex to its lock step in [T1]. *)
  unlock1 : int array;  (** Vertex to its unlock step in [T1]. *)
  lock2 : int array;  (** Vertex to its lock step in [T2]. *)
  unlock2 : int array;  (** Vertex to its unlock step in [T2]. *)
}

val steps : t -> steps

val arc : steps -> Txn.t -> Txn.t -> int -> int -> bool
(** [arc s ti tj a b] is Definition 1's arc condition for vertices [a]
    and [b] under the orders of [ti] and [tj], which must have the steps
    [s] was found in. With the transactions [D] was built from, it is
    [D]'s arc relation; with extensions of them, the arcs of the
    extended pair's [D]. *)

val build_pair : System.t -> t
(** [D(T1,T2)] of a two-transaction system. *)

val system : t -> System.t
(** The system [D] was built from. *)

val graph : t -> Digraph.t

val entities : t -> Database.entity array
(** Vertex index to entity id. *)

val num_vertices : t -> int

val is_strongly_connected : t -> bool

val dominators : t -> Bitset.t list
(** All dominators (Definition 2) as vertex sets ({!Dominator.enumerate}). *)

val entity_set : t -> Bitset.t -> Database.entity list
(** Decode a vertex set into entity ids. *)

val vertex_set : t -> Database.entity list -> Bitset.t
(** Encode entity ids as a vertex set, ignoring ids that are not vertices. *)

val pp : Database.t -> Format.formatter -> t -> unit
