(** The simulator's lock manager: one table holding, per entity, a
    holder lease and a FIFO queue of requests.

    The table is the lock *manager's* view of the world; workers keep
    their own beliefs about what they hold. The two views diverge under
    faults — with a TTL, a crashed holder's locks expire and pass to
    waiters, while the crashed worker later resumes still believing it
    holds them — and that divergence is exactly the
    static-safe/dynamically-unsafe gap bench E19 measures.

    Every {!Scenario.backend_kind} is this table: leased with a TTL,
    instant and bakery without one. {!Esim} never lets an instant worker
    queue, so that table grants iff the entity is free, as the paper's
    lock manager does. *)

open Distlock_txn

type t

type grant = Granted | Queued

type notice =
  | Expired of { entity : Database.entity; owner : int }
      (** A crashed holder's lease ran out; the entity is free (or about
          to be handed to a waiter in the same drain). *)
  | Handed of { entity : Database.entity; owner : int }
      (** A queued request was granted; [owner] now holds the lock. *)

val create : Database.t -> ttl:int option -> t
(** An empty table over [db]'s entities. With [ttl = Some n], the locks
    of a crashed holder expire [n] ticks after the crash and pass to the
    next arrived waiter (the TTL CassandraLock proposes for a crashed
    holder). With [None], locks survive any outage (bakery tickets, the
    paper's table). *)

val acquire :
  t -> now:int -> owner:int -> ready_at:int -> Database.entity -> grant
(** Request a lock. [ready_at] is when the request message reaches the
    entity's site ([now] under zero latency); a queued request cannot be
    granted before it has arrived. Re-acquiring an entity already held
    by [owner] is [Granted]. *)

val release : t -> owner:int -> Database.entity -> bool
(** [false] means [owner] was not the holder — a stale unlock from a
    worker whose lease expired while it was down. No state changes in
    that case. *)

val holder : t -> Database.entity -> int option

val crash : t -> now:int -> owner:int -> unit
(** The worker stopped responding; with a TTL, the countdown starts on
    each lock it holds. *)

val resume : t -> owner:int -> unit
(** The worker is back (it never knows it was gone); surviving leases
    stop expiring. *)

val forfeit : t -> owner:int -> unit
(** Abort path: drop everything [owner] holds or has queued. *)

val drain : t -> now:int -> notice list
(** Apply everything due by [now]: expire leases strictly past their
    deadline, then grant arrived queue-heads on free entities. Notices
    arrive in ascending entity order, so processing them is
    deterministic. *)

val next_wakeup : t -> int option
(** Earliest future time at which {!drain} would act: a pending lease
    deadline, or the arrival of a queue-head request on a free
    entity. *)
