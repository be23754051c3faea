(** A domain-safe sharded LRU map: the hash of the key selects one of
    16 independent {!Lru} instances, each behind its own mutex.
    All operations stay O(1); concurrent operations on different shards
    never contend.

    Semantics vs the plain {!Lru}: eviction is least-recently-used
    {e within a shard}, not globally — an approximation that is
    invisible for uniformly hashed keys (system fingerprints). Total
    capacity is the per-shard capacity summed, rounded {e up} from the
    request, never below it. *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** 16 shards — above any plausible [--jobs] width on one machine, small
    enough that per-shard capacity stays meaningful — or, for a cache
    smaller than that, [capacity] rounded up to a power of two. Raises
    [Invalid_argument] when [capacity < 1]. *)

val num_shards : _ t -> int

val capacity : _ t -> int
(** Summed over shards; [>=] the capacity passed to {!create}. *)

val length : _ t -> int

val find : 'a t -> string -> 'a option
(** Marks the entry most-recently used within its shard on a hit. *)

val mem : _ t -> string -> bool

val add : 'a t -> string -> 'a -> unit

val evictions : _ t -> int

val clear : _ t -> unit
