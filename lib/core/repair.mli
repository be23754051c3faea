open Distlock_txn

(** Making unsafe systems safe by inserting precedences.

    The paper closes by noting that the strong-connectivity condition "can
    be a useful tool for guaranteeing safety in more complex situations":
    since Theorem 1 holds for any number of sites, a scheduler can *force*
    safety by adding synchronization (extra precedence arcs between a
    transaction's own steps — in practice, a message from one site's agent
    to another's) until [D(T1,T2)] is strongly connected.

    [make_safe] inserts, greedily and one [D]-arc at a time, precedences
    [Lz < Ux] into [T1] and [Lx < Uz] into [T2] for entity pairs that
    connect a dominator back to the rest of [D], preferring insertions
    that destroy the least concurrency, until the digraph is strongly
    connected. *)

type insertion = {
  txn : int;  (** 0 or 1. *)
  before : int;  (** step index made earlier *)
  after : int;  (** step index made later *)
}

val make_safe : System.t -> (System.t * insertion list) option
(** [None] on a system that is not well-formed, refused before any
    search, or when no sequence of consistent insertions reaches strong
    connectivity (does not happen on well-formed systems with ≥ 2 common
    entities, but the search is greedy, not complete). The result is
    guaranteed safe (Theorem 1), and well-formed as its input was. *)

val concurrency_loss : before:System.t -> after:System.t -> int
(** Number of step pairs (across both transactions) that were concurrent
    before and are ordered after — the price of the repair. *)
