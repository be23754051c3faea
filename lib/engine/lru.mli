(** A string-keyed LRU map with a fixed capacity, used as the verdict
    cache (keys are canonical system fingerprints, values are outcomes)
    and as the pair-verdict store (keys are pair fingerprints).
    All operations are O(1) (hash table + intrusive doubly-linked list).
    Not thread-safe. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Marks the entry most-recently used on a hit. *)

val mem : 'a t -> string -> bool
(** Does not touch recency. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or overwrite; the entry becomes most-recently used. Evicts the
    least-recently-used entry when the cache is full. *)

val evictions : 'a t -> int
(** Total entries evicted since creation. *)

val clear : 'a t -> unit
