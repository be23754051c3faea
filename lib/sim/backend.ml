(* Pluggable lock managers for the event-driven simulator.

   The interface deliberately separates what the *worker believes* from
   what the *manager knows*: [release] returns [false] when the caller
   no longer holds the lock (its lease expired while it was crashed and
   the entity moved on), and [crash]/[resume] tell the manager about
   worker liveness without touching the worker's own state. That split
   is where the static-safety gap lives — a resumed worker keeps
   executing its critical section while the manager has already handed
   its locks to someone else. *)

open Distlock_txn

type grant = Granted | Queued

type notice =
  | Expired of { entity : Database.entity; owner : int }
      (** a crashed holder's lease ran out; the lock is free again *)
  | Handed of { entity : Database.entity; owner : int }
      (** a queued request was granted; [owner] now holds the lock *)

module type S = sig
  type t

  val name : t -> string

  val queues : bool
  (** Whether [acquire] can return [Queued]. The instant backend never
      queues — a denied request is simply not a choice this tick. *)

  val acquire :
    t -> now:int -> owner:int -> ready_at:int -> Database.entity -> grant

  val release : t -> owner:int -> Database.entity -> bool
  (** [false] means the caller was not the holder — a stale unlock from
      a worker whose lease already expired. The manager's state is
      unchanged in that case. *)

  val holder : t -> Database.entity -> int option

  val crash : t -> now:int -> owner:int -> unit
  (** The worker stopped responding. A leasing manager starts the TTL
      countdown on every lock it holds. *)

  val resume : t -> owner:int -> unit
  (** The worker is back (it never knows it was gone). Leases it still
      holds stop expiring. *)

  val forfeit : t -> owner:int -> unit
  (** Abort path: drop everything [owner] holds or has queued. *)

  val drain : t -> now:int -> notice list
  (** Apply everything due by [now]: expire overdue leases, then grant
      queue heads whose request has arrived and whose entity is free.
      Notices are returned in ascending entity order — determinism over
      Hashtbl-style iteration. *)

  val next_wakeup : t -> int option
  (** Earliest future time at which [drain] would do something new:
      a pending lease deadline, or the arrival time of a queue-head
      request on a free entity. *)
end

type t = B : (module S with type t = 's) * 's -> t

let name (B ((module M), s)) = M.name s
let queues (B ((module M), _)) = M.queues
let acquire (B ((module M), s)) ~now ~owner ~ready_at e =
  M.acquire s ~now ~owner ~ready_at e
let release (B ((module M), s)) ~owner e = M.release s ~owner e
let holder (B ((module M), s)) e = M.holder s e
let crash (B ((module M), s)) ~now ~owner = M.crash s ~now ~owner
let resume (B ((module M), s)) ~owner = M.resume s ~owner
let forfeit (B ((module M), s)) ~owner = M.forfeit s ~owner
let drain (B ((module M), s)) ~now = M.drain s ~now
let next_wakeup (B ((module M), s)) = M.next_wakeup s

(* ---- Instant: a perfect in-memory lock table. ---- *)

module Instant_impl = struct
  type t = { holder : int array }

  let name _ = "instant"
  let queues = false

  let acquire t ~now:_ ~owner ~ready_at:_ e =
    if t.holder.(e) >= 0 && t.holder.(e) <> owner then Queued
    else begin
      t.holder.(e) <- owner;
      Granted
    end

  let release t ~owner e =
    if t.holder.(e) = owner then begin
      t.holder.(e) <- -1;
      true
    end
    else false

  let holder t e = if t.holder.(e) >= 0 then Some t.holder.(e) else None
  let crash _ ~now:_ ~owner:_ = ()
  let resume _ ~owner:_ = ()

  let forfeit t ~owner =
    Array.iteri (fun e h -> if h = owner then t.holder.(e) <- -1) t.holder

  let drain _ ~now:_ = []
  let next_wakeup _ = None
end

let instant db =
  B
    ( (module Instant_impl),
      { Instant_impl.holder = Array.make (Database.num_entities db) (-1) } )

(* ---- Queued: shared machinery for leased and bakery. ----

   Each entity has at most one holder plus a FIFO queue of
   (owner, ready_at) requests; [ready_at] is when the request message
   reaches the entity's site, so a queued request can't be granted
   before it has arrived. With [ttl = Some n], a holder reported
   crashed gets a lease deadline [crash time + n] on every held
   entity; past the deadline [drain] expires the lease and the queue
   head (if arrived) takes over — even though the crashed worker will
   later resume believing it still holds the lock. With [ttl = None]
   (the Bakery model: tickets never time out) locks survive any
   outage and only [release]/[forfeit] free them. *)

module Queued_impl = struct
  type lease = { owner : int; mutable deadline : int (* max_int = none *) }

  type t = {
    label : string;
    ttl : int option;
    held : lease option array; (* per entity *)
    queue : (int * int) Queue.t array; (* per entity: owner, ready_at *)
  }

  let name t = t.label
  let queues = true

  let acquire t ~now ~owner ~ready_at e =
    match t.held.(e) with
    | Some l when l.owner = owner -> Granted (* re-entrant: already held *)
    | None when Queue.is_empty t.queue.(e) && ready_at <= now ->
        t.held.(e) <- Some { owner; deadline = max_int };
        Granted
    | _ ->
        Queue.add (owner, ready_at) t.queue.(e);
        Queued

  let release t ~owner e =
    match t.held.(e) with
    | Some l when l.owner = owner ->
        t.held.(e) <- None;
        true
    | _ -> false

  let holder t e = Option.map (fun l -> l.owner) t.held.(e)

  let crash t ~now ~owner =
    match t.ttl with
    | None -> ()
    | Some ttl ->
        Array.iter
          (function
            | Some l when l.owner = owner -> l.deadline <- now + ttl
            | _ -> ())
          t.held

  let resume t ~owner =
    Array.iter
      (function
        | Some l when l.owner = owner -> l.deadline <- max_int | _ -> ())
      t.held

  let forfeit t ~owner =
    Array.iteri
      (fun e held ->
        (match held with
        | Some l when l.owner = owner -> t.held.(e) <- None
        | _ -> ());
        let q = t.queue.(e) in
        let keep = Queue.create () in
        Queue.iter (fun (o, r) -> if o <> owner then Queue.add (o, r) keep) q;
        Queue.clear q;
        Queue.transfer keep q)
      t.held

  let drain t ~now =
    let notices = ref [] in
    Array.iteri
      (fun e held ->
        (* Strictly past the deadline: a holder that resumes exactly at
           its deadline keeps the lease, whatever order same-time events
           are processed in. *)
        (match held with
        | Some l when l.deadline < now ->
            t.held.(e) <- None;
            notices := Expired { entity = e; owner = l.owner } :: !notices
        | _ -> ());
        match t.held.(e) with
        | Some _ -> ()
        | None -> (
            match Queue.peek_opt t.queue.(e) with
            | Some (owner, ready_at) when ready_at <= now ->
                ignore (Queue.pop t.queue.(e));
                t.held.(e) <- Some { owner; deadline = max_int };
                notices := Handed { entity = e; owner } :: !notices
            | _ -> ()))
      t.held;
    List.rev !notices

  let next_wakeup t =
    let best = ref max_int in
    Array.iteri
      (fun e held ->
        match held with
        | Some l ->
            (* [drain] acts strictly past the deadline. *)
            if l.deadline <> max_int && l.deadline + 1 < !best then
              best := l.deadline + 1
        | None -> (
            match Queue.peek_opt t.queue.(e) with
            | Some (_, ready_at) -> if ready_at < !best then best := ready_at
            | None -> ()))
      t.held;
    if !best = max_int then None else Some !best
end

let queued db ~label ~ttl =
  let n = Database.num_entities db in
  B
    ( (module Queued_impl),
      {
        Queued_impl.label;
        ttl;
        held = Array.make n None;
        queue = Array.init n (fun _ -> Queue.create ());
      } )

let leased db ~ttl = queued db ~label:"leased" ~ttl:(Some ttl)
let bakery db = queued db ~label:"bakery" ~ttl:None
