open Distlock_txn

(** Workload construction for the simulator: many concurrent transaction
    instances over a shared database, in the locking styles the paper
    contrasts (Section 6). *)

type style =
  | Two_phase  (** All locks, then updates, then all unlocks. *)
  | Sequential  (** Lock-update-unlock one entity at a time (unsafe-prone). *)
  | Random_locked of float
      (** Random well-formed partial-order transactions
          ({!Txn_gen.random_txn}) with the given cross-site arc
          probability. *)

val make :
  Random.State.t ->
  db:Database.t ->
  style:style ->
  num_txns:int ->
  entities_per_txn:int ->
  System.t
(** Each transaction locks a random subset of the database's entities in
    the given style. *)

val proven_safe : System.t -> bool
(** Whether the shared safety-decision engine (cached, 200k-step budget)
    proves the system safe — [false] for unsafe {e and} undecided.
    {!Esim.measure} uses it to skip per-history serializability checks
    on fault-free runs. *)
