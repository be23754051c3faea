(** The scenario/fault-configuration layer: which lock backend a run
    uses, message latency between sites, lease TTL, and crash
    injection. One value of {!t} fully describes a simulated deployment
    (beyond the transaction system itself), so the engine, CLI, and
    bench all speak the same language. *)

open Distlock_txn

(** The one place a backend kind is named. All three are the
    {!Backend} table: leased with a TTL, instant and bakery without one.
    Under instant a worker never queues; under bakery a lock request
    pays two rounds of messages to every other site. *)
type backend_kind = Instant | Leased | Bakery

type t = {
  backend : backend_kind;
  latency : Latency.t;
  lease_ttl : int option;
      (** TTL for the leased backend; [None] uses {!default_ttl}.
          Ignored by instant and bakery. *)
  crash_rate : float;
      (** Probability a worker crashes after completing a step. [0.]
          disables fault injection entirely. *)
  down_time : int;
      (** Ticks a crashed worker stays unresponsive before resuming —
          still believing it holds its locks. *)
  max_aborts : int;
}

val default_ttl : int

val default : t
(** Instant backend, zero latency, no faults: the paper's model, in
    which every schedule the simulator commits is legal. *)

val fault_free : t -> bool
(** [crash_rate <= 0.]: no fault events can occur, so static safety
    verdicts apply to the runs. *)

val make_backend : t -> Database.t -> Backend.t
(** An empty lock table over the database, with the TTL ({!default_ttl}
    unless set) when the backend is [Leased], without one otherwise. *)

val backend_of_string : string -> (backend_kind, string) result
val backend_to_string : backend_kind -> string

val to_attrs : t -> Distlock_obs.Attr.t
(** Scenario as span/event attributes for the obs layer. *)

val spread_sites : System.t -> sites:int -> System.t
(** Rebuild the system with its entities spread round-robin (by id)
    over [sites] sites, preserving entity names and transactions. Lets
    one fixture exercise cross-site latency. Raises [Invalid_argument]
    if [sites < 1]. *)
