(** Pluggable lock backends for the event-driven simulator.

    A backend is the lock *manager's* view of the world; workers keep
    their own beliefs about what they hold. The two views diverge under
    faults — a leased backend expires a crashed holder's locks and hands
    them to waiters, while the crashed worker later resumes still
    believing it holds them — and that divergence is exactly the
    static-safe/dynamically-unsafe gap bench E19 measures. *)

open Distlock_txn

type grant = Granted | Queued

type notice =
  | Expired of { entity : Database.entity; owner : int }
      (** A crashed holder's lease ran out; the entity is free (or about
          to be handed to a waiter in the same drain). *)
  | Handed of { entity : Database.entity; owner : int }
      (** A queued request was granted; [owner] now holds the lock. *)

module type S = sig
  type t

  val name : t -> string

  val queues : bool
  (** Whether [acquire] can return [Queued]. When [false] (instant
      backend) a denied lock is simply not an enabled choice. *)

  val acquire :
    t -> now:int -> owner:int -> ready_at:int -> Database.entity -> grant
  (** Request a lock. [ready_at] is when the request message reaches the
      entity's site ([now] under zero latency); a queued request cannot
      be granted before it has arrived. Re-acquiring an entity already
      held by [owner] is [Granted]. *)

  val release : t -> owner:int -> Database.entity -> bool
  (** [false] means [owner] was not the holder — a stale unlock from a
      worker whose lease expired while it was down. No state changes in
      that case. *)

  val holder : t -> Database.entity -> int option

  val crash : t -> now:int -> owner:int -> unit
  (** The worker stopped responding; a leasing backend starts the TTL
      countdown on each lock it holds. *)

  val resume : t -> owner:int -> unit
  (** The worker is back; surviving leases stop expiring. *)

  val forfeit : t -> owner:int -> unit
  (** Abort path: drop everything [owner] holds or has queued. *)

  val drain : t -> now:int -> notice list
  (** Apply everything due by [now]: expire overdue leases, then grant
      arrived queue-heads on free entities. Notices arrive in ascending
      entity order, so processing them is deterministic. *)

  val next_wakeup : t -> int option
  (** Earliest future time at which {!drain} would act: a pending lease
      deadline, or the arrival of a queue-head request on a free
      entity. *)
end

type t = B : (module S with type t = 's) * 's -> t
(** A backend instance packaged with its implementation. *)

(** Dispatch wrappers over the packed module. *)

val name : t -> string
val queues : t -> bool
val acquire : t -> now:int -> owner:int -> ready_at:int -> Database.entity -> grant
val release : t -> owner:int -> Database.entity -> bool
val holder : t -> Database.entity -> int option
val crash : t -> now:int -> owner:int -> unit
val resume : t -> owner:int -> unit
val forfeit : t -> owner:int -> unit
val drain : t -> now:int -> notice list
val next_wakeup : t -> int option

val instant : Database.t -> t
(** A perfect in-memory lock table: grants iff the entity is free or
    re-entrant, never queues, ignores crashes, locks never expire. *)

val leased : Database.t -> ttl:int -> t
(** FIFO queue per entity; locks held by a crashed worker expire [ttl]
    ticks after the crash and pass to the next arrived waiter. The
    CassandraLock-style TTL mutex. *)

val bakery : Database.t -> t
(** Bakery-algorithm model: strict FIFO arrival-order tickets, no
    expiry — a crashed holder's locks survive any outage, trading
    liveness for the safety leases give up. *)
