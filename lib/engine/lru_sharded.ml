(* A sharded LRU: hash of the fingerprint picks a shard, one mutex and
   one plain {!Lru} per shard. Contention drops by the shard count while
   each operation stays O(1); the price is that eviction is LRU *per
   shard* rather than globally (a cold shard can retain an entry older
   than one a hot shard just evicted). For a verdict cache keyed by
   cryptographic-quality fingerprints the shard loading is uniform and
   the approximation is invisible in hit rates.

   16 shards: comfortably above any plausible [--jobs] on one machine
   (so two domains rarely contend), small enough that per-shard capacity
   stays meaningful for caches of a few hundred entries. A power of two
   keeps shard selection a mask. *)

let max_shards = 16

type 'a shard = { lock : Mutex.t; lru : 'a Lru.t }

type 'a t = { shards : 'a shard array; mask : int }

let with_shard s f =
  Mutex.lock s.lock;
  match f s.lru with
  | r ->
      Mutex.unlock s.lock;
      r
  | exception e ->
      Mutex.unlock s.lock;
      raise e

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

let create ~capacity () =
  if capacity < 1 then
    invalid_arg "Lru_sharded.create: capacity must be >= 1";
  let n = next_pow2 (min max_shards capacity) 1 in
  (* Round per-shard capacity up: total capacity is at least the request
     (never below it — a cache that silently shrinks under-serves). *)
  let per_shard = (capacity + n - 1) / n in
  {
    shards =
      Array.init n (fun _ ->
          { lock = Mutex.create (); lru = Lru.create ~capacity:per_shard });
    mask = n - 1;
  }

let shard t key = t.shards.(Hashtbl.hash key land t.mask)

let num_shards t = Array.length t.shards

let capacity t =
  Array.fold_left (fun acc s -> acc + Lru.capacity s.lru) 0 t.shards

let length t =
  Array.fold_left
    (fun acc s -> acc + with_shard s Lru.length)
    0 t.shards

let find t key = with_shard (shard t key) (fun lru -> Lru.find lru key)

let mem t key = with_shard (shard t key) (fun lru -> Lru.mem lru key)

let add t key value =
  with_shard (shard t key) (fun lru -> Lru.add lru key value)

let evictions t =
  Array.fold_left
    (fun acc s -> acc + with_shard s Lru.evictions)
    0 t.shards

let clear t = Array.iter (fun s -> with_shard s Lru.clear) t.shards
