(** Fixed-capacity mutable bitsets over the universe [0 .. capacity-1].

    Used throughout the library as the backing store for transitive closures
    and reachability sets: the paper's conditions ("[Lx] precedes [Uy] in
    [T1]") all become O(1) membership probes once a closure has been
    computed. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0..n-1]. *)

val capacity : t -> int

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val copy : t -> t

val cardinal : t -> int

val count_from : t -> int -> int
(** [count_from t i] is the number of members [>= i]. *)

val is_empty : t -> bool

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets [dst := dst ∪ src]. Capacities must match. *)

val inter_into : dst:t -> t -> unit

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is [true] iff [a ⊆ b]. *)

val disjoint : t -> t -> bool

val iter : (int -> unit) -> t -> unit

val bits_per_word : int

val num_words : t -> int

val word : t -> int -> int
(** [word t w] holds the members [w * bits_per_word + k], one per set
    bit [k]: a read-only view for loops that walk the words themselves
    instead of calling back per member. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list

val of_list : int -> int list -> t

val full : int -> t
(** [full n] contains every element of [0..n-1]. *)

val complement : t -> t
(** Complement within the universe. *)
