(* The simulator's lock manager: one table, per entity at most one
   holder plus a FIFO queue of (owner, ready_at) requests; [ready_at]
   is when the request message reaches the entity's site, so a queued
   request can't be granted before it has arrived.

   The interface separates what the *worker believes* from what the
   *manager knows*: [release] returns [false] when the caller no longer
   holds the lock, and [crash]/[resume] tell the manager about worker
   liveness without touching the worker's own state. With [ttl = Some
   n], a holder reported crashed gets a lease deadline [crash time + n]
   on every held entity; past the deadline [drain] expires the lease
   and the queue head (if arrived) takes over — even though the crashed
   worker will later resume believing it still holds the lock. That is
   where the static-safety gap lives. With [ttl = None] locks survive
   any outage and only [release]/[forfeit] free them. *)

open Distlock_txn

type grant = Granted | Queued

type notice =
  | Expired of { entity : Database.entity; owner : int }
  | Handed of { entity : Database.entity; owner : int }

type lease = { owner : int; mutable deadline : int (* max_int = none *) }

type t = {
  ttl : int option;
  held : lease option array; (* per entity *)
  queue : (int * int) Queue.t array; (* per entity: owner, ready_at *)
}

let create db ~ttl =
  let n = Database.num_entities db in
  {
    ttl;
    held = Array.make n None;
    queue = Array.init n (fun _ -> Queue.create ());
  }

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
          | Some l when l.owner = owner -> l.deadline <- now + ttl | _ -> ())
        t.held

let resume t ~owner =
  Array.iter
    (function Some l when l.owner = owner -> l.deadline <- max_int | _ -> ())
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
      (* Strictly past the deadline: a holder that resumes exactly at its
         deadline keeps the lease, whatever order same-time events are
         processed in. *)
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
