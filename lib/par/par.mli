(** A zero-dependency fixed-size domain pool: [domains] worker domains
    pulling thunks from one mutex-protected queue ([Domain] + [Mutex] +
    [Condition], nothing else).

    A pool of width 1 spawns no domains at all — {!map} and {!iter}
    degenerate to [List.map]/[List.iter] on the calling domain, so a
    1-wide pool is {e exactly} the sequential semantics (same order,
    same exceptions, same effects on thread-unsafe state). Callers can
    therefore use one code path for both.

    Tasks submitted through the pool run on worker domains; anything
    they touch must be domain-safe. Results of {!map} come back in input
    order regardless of scheduling. *)

type t

val create : domains:int -> t
(** Spawns [domains] worker domains ([domains = 1] spawns none). Raises
    [Invalid_argument] when [domains < 1]. Spawning costs ~1 ms per
    domain; reuse a pool across batches rather than creating one per
    small call. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Applies [f] to every element on the pool and returns the results in
    input order. Blocks the caller until all tasks finish. If any task
    raises, the exception of the {e lowest-indexed} failing element is
    re-raised in the caller — deterministically, and only after every
    task has completed (no abandoned work). *)

val iter : t -> ('a -> unit) -> 'a list -> unit
(** {!map} with unit results. *)

val shutdown : t -> unit
(** Signals the workers to exit once the queue drains and joins them.
    Idempotent. Submitting to a shut-down pool raises
    [Invalid_argument]. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run, then {!shutdown} — also on exception. *)
