open Distlock_txn

(** One-call diagnostic reports for two-transaction systems, combining
    every tool in the library: well-formedness, the [D]-graph, the safety
    verdict with evidence, policy classification, deadlock analysis (for
    totally ordered pairs), and a repair proposal when unsafe. Drives the
    CLI's [analyze] command. *)

type deadlock_info =
  | Deadlock_possible of int  (** number of reachable deadlock states *)
  | Deadlock_impossible
  | Deadlock_unknown  (** partial orders: not analyzed geometrically *)

type txn_policies = {
  name : string;
  two_phase_strong : bool;
  two_phase_weak : bool;
}

type t = {
  system : System.t;
  violations : (string * string) list;  (** (txn name, rendered violation) *)
  sites : int list;
  common_entities : string list;
  d_vertices : int;
  d_arcs : int;
  strongly_connected : bool;
  decision : Checkers.evidence Distlock_engine.Outcome.t;
      (** The verdict with its provenance, stage trace and timings. *)
  policies : txn_policies list;
  deadlock : deadlock_info;
  repair : (int * int) option;
      (** (insertions, concurrency loss) when the system is unsafe and a
          repair was found. *)
}

val pair : ?try_repair:bool -> System.t -> t
(** [try_repair] defaults to [true]. *)

val pp : Format.formatter -> t -> unit
