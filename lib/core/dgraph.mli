open Distlock_txn
open Distlock_graph

(** The digraph [D(T1,T2)] of Definition 1.

    Vertices are the entities locked-unlocked by *both* transactions; there
    is an arc [(x,y)] iff [Lx] precedes [Uy] in [T1] and [Ly] precedes [Ux]
    in [T2] (precedence in the partial orders). Equivalently: in every
    geometric picture of the pair, the path's side for [x] forces its side
    for [y] ([b_x <= b_y] in Theorem 1's proof). *)

type t

(** Where the two transactions lock and unlock each vertex, found in one
    pass over each transaction's steps (the first step by index, as in
    {!Txn.lock_of}). Steps never change when precedences are added, so
    one lookup serves every extension of the same pair. *)
type steps = private {
  common : Database.entity array;
      (** Vertex index to entity id: the entities both transactions lock
          and unlock, ascending. *)
  lock1 : int array;  (** Vertex to its lock step in [Ti]. *)
  unlock1 : int array;  (** Vertex to its unlock step in [Ti]. *)
  lock2 : int array;  (** Vertex to its lock step in [Tj]. *)
  unlock2 : int array;  (** Vertex to its unlock step in [Tj]. *)
}

val build : System.t -> int -> int -> t
(** [build sys i j] is [D(Ti, Tj)] (transaction indices). *)

val steps : t -> steps

val arc : steps -> Txn.t -> Txn.t -> int -> int -> bool
(** [arc s ti tj a b] is Definition 1's arc condition for vertices [a]
    and [b] under the orders of [ti] and [tj], which must have the steps
    [s] was found in. With the transactions [D] was built from, it is
    [D]'s arc relation; with extensions of them, the arcs of the
    extended pair's [D]. *)

val build_pair : System.t -> t
(** [D(T1,T2)] of a two-transaction system. *)

val graph : t -> Digraph.t

val entities : t -> Database.entity array
(** Vertex index to entity id. *)

val num_vertices : t -> int

val mem_arc : t -> Database.entity -> Database.entity -> bool

val is_strongly_connected : t -> bool

val dominators : ?limit:int -> t -> Bitset.t list
(** All dominators of the digraph (Definition 2), as vertex sets. *)

val entity_set : t -> Bitset.t -> Database.entity list
(** Decode a vertex set into entity ids. *)

val pp : Database.t -> Format.formatter -> t -> unit
