(* A fixed-size domain pool over a mutex-protected work queue.

   Design constraints, in order:
   - [domains:1] must not spawn anything: callers rely on a 1-wide pool
     being exactly the sequential semantics (same ordering, same
     exceptions, same effects on thread-unsafe state).
   - Result order is deterministic: [map] writes each result into the
     slot of its input index, so output order never depends on
     scheduling.
   - Tasks are coarse (a whole safety decision), so one global queue
     behind one mutex is not a contention point; no work stealing. *)

type job = unit -> unit

type t = {
  mutable domains : unit Domain.t array;  (* [||] for a 1-wide pool *)
  queue : job Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

let rec worker t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.nonempty t.lock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.lock (* closed: drain done *)
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.lock;
    job ();
    worker t
  end

let create ~domains =
  if domains < 1 then invalid_arg "Par.create: domains must be >= 1";
  let t =
    {
      domains = [||];
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
    }
  in
  if domains > 1 then
    t.domains <-
      Array.init domains (fun _ -> Domain.spawn (fun () -> worker t));
  t

let submit t job =
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Par.submit: pool is shut down"
  end;
  Queue.push job t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock

let shutdown t =
  Mutex.lock t.lock;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  if not was_closed then Array.iter Domain.join t.domains

(* Each task writes its slot, then decrements a shared countdown; the
   caller waits on the countdown's condition. The first exception (by
   input index, so deterministically) is re-raised in the caller once
   every task has finished — tasks are never abandoned mid-flight. *)
let map t f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else if Array.length t.domains = 0 then List.map f xs
  else begin
    let out = Array.make n None in
    (* Exceptions carry the backtrace captured on the worker domain so a
       failure inside a task is debuggable from the caller's raise. *)
    let exn = Array.make n None in
    let remaining = ref n in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    for i = 0 to n - 1 do
      submit t (fun () ->
          (match f arr.(i) with
          | v -> out.(i) <- Some v
          | exception e -> exn.(i) <- Some (e, Printexc.get_raw_backtrace ()));
          Mutex.lock done_lock;
          decr remaining;
          if !remaining = 0 then Condition.broadcast all_done;
          Mutex.unlock done_lock)
    done;
    Mutex.lock done_lock;
    while !remaining > 0 do
      Condition.wait all_done done_lock
    done;
    Mutex.unlock done_lock;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      exn;
    Array.to_list (Array.map Option.get out)
  end

let iter t f xs = ignore (map t (fun x -> f x) xs)

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
