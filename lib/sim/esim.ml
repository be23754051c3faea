open Distlock_txn
open Distlock_sched
module Obs = Distlock_obs.Obs
module A = Distlock_obs.Attr
module M = Distlock_obs.Metric

(* The layered event-driven simulator: a Clock of timestamped events
   drives scheduling decisions, lock traffic goes through the Backend
   lock table, message costs come from a Latency model, and faults from
   a Scenario. With the instant backend and no faults, each Decide is one
   non-idle iteration of the lockstep loop in test/lockstep_sim.ml, and
   the clock jumps over the ticks that loop idles while messages are in
   flight — test/test_esim.ml checks that equivalence bit-for-bit.

   RNG discipline: three independent streams, so enabling one knob never
   perturbs another. The policy stream is seeded with [| seed |] and
   drawn once per decision with a non-empty choice set; the fault and
   latency streams are domain-salted and drawn only when crash_rate > 0
   / latency is non-zero. Everything else is arrays indexed by dense ids
   — no Hashtbl iteration anywhere a decision depends on. *)

let m_runs () =
  Distlock_obs.Registry.counter Obs.global
    ~help:"Event-driven simulator runs completed" "distlock_esim_runs_total"

(* Per-backend labeled instruments, resolved once per [run]: registry
   get-or-create takes a mutex, so handles are captured up front and the
   site-labeled histograms are memoized on first use. Ticks are integer
   simulated time, so power-of-two buckets up to 512 cover everything
   from an instant grant to a badly starved worker. *)
let tick_buckets = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. |]

type meters = {
  mm_grants : M.counter;
  mm_queued : M.counter;
  mm_expiries : M.counter;
  mm_stale : M.counter;
  mm_crashes : M.counter;
  mm_restarts : M.counter;
  mm_depth : M.gauge;
  mm_wait : int -> M.histogram; (* by site *)
  mm_hold : int -> M.histogram;
  mm_msg : int -> M.histogram;
}

let make_meters backend_name =
  let labels = [ ("backend", backend_name) ] in
  let counter help name =
    Distlock_obs.Registry.counter Obs.global ~labels ~help name
  in
  let site_histogram help name =
    let cache = Hashtbl.create 8 in
    fun site ->
      match Hashtbl.find_opt cache site with
      | Some h -> h
      | None ->
          let h =
            Distlock_obs.Registry.histogram Obs.global
              ~labels:(labels @ [ ("site", string_of_int site) ])
              ~buckets:tick_buckets ~help name
          in
          Hashtbl.add cache site h;
          h
  in
  {
    mm_grants = counter "Lock requests granted" "distlock_sim_grants_total";
    mm_queued =
      counter "Lock requests queued behind a holder" "distlock_sim_queued_total";
    mm_expiries =
      counter "Leases expired while their holder was down"
        "distlock_sim_lease_expiries_total";
    mm_stale =
      counter "Unlocks by a worker that no longer held the lock"
        "distlock_sim_stale_releases_total";
    mm_crashes =
      counter "Worker crash events injected" "distlock_sim_crashes_total";
    mm_restarts =
      counter "Workers restarted after a crash" "distlock_sim_restarts_total";
    mm_depth =
      Distlock_obs.Registry.gauge Obs.global ~labels
        ~help:"Pending events in the simulator clock"
        "distlock_sim_event_queue_depth";
    mm_wait =
      site_histogram "Ticks between lock request and grant"
        "distlock_sim_lock_wait_ticks";
    mm_hold =
      site_histogram "Ticks between lock grant and release"
        "distlock_sim_lock_hold_ticks";
    mm_msg =
      site_histogram "Sampled message delivery latency in ticks"
        "distlock_sim_message_latency_ticks";
  }

type stats = {
  ticks : int;  (** scheduling decisions taken *)
  makespan : int;  (** simulated time at completion *)
  commits : int;
  aborts : int;
  deadlocks : int;
  crashes : int;
  lease_expiries : int;
  stale_unlocks : int;
}

type outcome = {
  history : Schedule.t;
  serializable : bool;
  legal : bool;
  stats : stats;
  trace : Trace.event list;
}

type event = Decide | Resume of int

type instance = {
  txn_index : int;
  txn : Txn.t;
  succ : int array array; (* per step: the steps ordered after it, ascending *)
  indeg : int array; (* per step: how many steps are ordered before it *)
  done_ : bool array;
  pending : int array; (* per step: predecessors not yet executed *)
  ready_at : int array; (* per step: when its inputs have arrived *)
  mutable executed : int; (* steps of the current attempt *)
  mutable committed : bool;
  mutable birth : int;
  mutable attempt : int;
  mutable waiting : int; (* step index of an outstanding queued lock, or -1 *)
  mutable waiting_since : int; (* tick the outstanding request was issued *)
  mutable crashed : bool;
  mutable loc : int; (* site of the last executed step — where the worker is *)
  mutable pending_grants : int list; (* grants that arrived while crashed *)
  mutable held_since : (int * int) list; (* entity -> tick of its grant *)
}

let home_site db txn =
  if Txn.num_steps txn = 0 then 1
  else Database.site db (Txn.step txn 0).Step.entity

let run ~policy:(Engine.Random seed) ?(scenario = Scenario.default)
    ?(check_serializability = true) sys =
  let sp =
    Obs.start_span "esim.run"
      ~attrs:(fun () ->
        A.str "policy" (Printf.sprintf "random(%d)" seed)
        :: A.int "txns" (System.num_txns sys)
        :: Scenario.to_attrs scenario)
  in
  let db = System.db sys in
  let n = System.num_txns sys in
  let backend = Scenario.make_backend scenario db in
  (* An instant worker never queues: a lock held by another is simply
     not an enabled choice this tick. *)
  let queueing = scenario.Scenario.backend <> Scenario.Instant in
  let latency = scenario.Scenario.latency in
  let zero_latency = Latency.is_zero latency in
  let faulty = not (Scenario.fault_free scenario) in
  let succ = Enumerate.successors sys in
  let indeg = Enumerate.in_degrees succ in
  let instances =
    Array.init n (fun i ->
        let txn = System.txn sys i in
        let k = Txn.num_steps txn in
        {
          txn_index = i;
          txn;
          succ = succ.(i);
          indeg = indeg.(i);
          done_ = Array.make k false;
          pending = Array.copy indeg.(i);
          ready_at = Array.make k 0;
          executed = 0;
          (* Nothing to run: an empty transaction has committed. *)
          committed = k = 0;
          birth = 0;
          attempt = 1;
          waiting = -1;
          waiting_since = -1;
          crashed = false;
          loc = home_site db txn;
          pending_grants = [];
          held_since = [];
        })
  in
  let meters =
    make_meters (Scenario.backend_to_string scenario.Scenario.backend)
  in
  (* Fault and latency streams are salted so they cannot collide with
     the policy stream. *)
  let rng = Random.State.make [| seed |] in
  let fault_rng = Random.State.make [| seed; 0xFA17 |] in
  let lat_rng = Random.State.make [| seed; 0x1A7E |] in
  let clock = Clock.create () in
  let booked = ref max_int in
  let ensure_decide time =
    if time < !booked then begin
      Clock.at clock ~time Decide;
      booked := time
    end
  in
  let ticks = ref 0
  and aborts = ref 0
  and blocks = ref 0
  and crashes = ref 0
  and expiries = ref 0
  and stale = ref 0 in
  let trace = ref [] in
  let was_blocked = Array.make n false in
  let result = ref None in
  let uncommitted = ref 0 in
  Array.iter (fun i -> if not i.committed then incr uncommitted) instances;
  let all_committed () = !uncommitted = 0 in
  let now () = Clock.now clock in
  (* One tick's enabled steps, instance by instance and step by step
     within one: the policy draws an index below [n_choices]. *)
  let total = System.total_steps sys in
  let choice_inst = Array.make total 0 and choice_step = Array.make total 0 in
  let n_choices = ref 0 in
  let fresh_attempt inst =
    Array.fill inst.done_ 0 (Array.length inst.done_) false;
    Array.blit inst.indeg 0 inst.pending 0 (Array.length inst.indeg);
    Array.fill inst.ready_at 0 (Array.length inst.ready_at) 0;
    inst.executed <- 0;
    inst.birth <- now ();
    inst.attempt <- inst.attempt + 1;
    inst.waiting <- -1;
    inst.waiting_since <- -1;
    inst.pending_grants <- [];
    inst.held_since <- [];
    inst.loc <- home_site db inst.txn
  in
  (* A step whose predecessors have all run ([pending] counts down to 0
     in [complete]) is ready once their results have arrived, and
     awaits a message while one is still in flight. *)
  let unblocked inst s = (not inst.done_.(s)) && inst.pending.(s) = 0 in
  let ready inst s = unblocked inst s && inst.ready_at.(s) <= now () in
  let awaiting inst s = unblocked inst s && inst.ready_at.(s) > now () in
  let choose inst s =
    choice_inst.(!n_choices) <- inst.txn_index;
    choice_step.(!n_choices) <- s;
    incr n_choices
  in
  let gather_enabled inst =
    if not (inst.committed || inst.crashed) then
      for s = 0 to Txn.num_steps inst.txn - 1 do
        if ready inst s then begin
          let step = Txn.step inst.txn s in
          match step.Step.action with
          | Step.Lock ->
              if queueing then begin
                (* One outstanding request per worker: while queued it
                   issues no further locks (other actions still run). *)
                if inst.waiting < 0 then choose inst s
              end
              else begin
                match Backend.holder backend step.Step.entity with
                | Some h when h <> inst.txn_index -> () (* blocked *)
                | _ -> choose inst s
              end
          | Step.Unlock | Step.Update -> choose inst s
        end
      done
  in
  (* Wait-for edges for the deadlock victim chooser. A non-queueing
     worker waits on the holders of entities its ready locks need; a
     queueing worker waits on the holder of the entity its one
     outstanding request is queued behind. *)
  let blocked_on inst =
    let acc = ref [] in
    if queueing then begin
      if inst.waiting >= 0 then
        let e = (Txn.step inst.txn inst.waiting).Step.entity in
        match Backend.holder backend e with
        | Some h when h <> inst.txn_index -> acc := h :: !acc
        | _ -> ()
    end
    else
      for s = 0 to Txn.num_steps inst.txn - 1 do
        if ready inst s then begin
          let step = Txn.step inst.txn s in
          if step.Step.action = Step.Lock then
            match Backend.holder backend step.Step.entity with
            | Some h when h <> inst.txn_index -> acc := h :: !acc
            | _ -> ()
        end
      done;
    !acc
  in
  let step_attrs inst (step : Step.t) () =
    [
      A.int "tick" (now ());
      A.str "txn" (Txn.name inst.txn);
      A.str "entity" (Database.name db step.Step.entity);
      A.int "site" (Database.site db step.Step.entity);
      A.int "attempt" inst.attempt;
    ]
  in
  (* What a lock request costs to reach the entity's site. The bakery
     model pays two rounds (choosing, then reading the other tickets) of
     contacting every other site that stores an entity, in ascending
     order; the leased manager one request message. Instant never
     asks. *)
  let populated =
    lazy
      (List.sort_uniq compare
         (List.map (Database.site db) (Database.entities db)))
  in
  let request_cost inst dst =
    if zero_latency || not queueing then 0
    else
      match scenario.Scenario.backend with
      | Scenario.Bakery ->
          let round src =
            List.fold_left
              (fun m s' ->
                if s' = src then m
                else
                  max m
                    (Latency.sample latency lat_rng ~src ~dst:s'
                    + Latency.sample latency lat_rng ~src:s' ~dst:src))
              0 (Lazy.force populated)
          in
          round inst.loc + round inst.loc
      | Scenario.Instant | Scenario.Leased ->
          Latency.sample latency lat_rng ~src:inst.loc ~dst
  in
  let maybe_crash inst =
    if
      faulty
      && (not inst.committed)
      && Random.State.float fault_rng 1.0 < scenario.Scenario.crash_rate
    then begin
      inst.crashed <- true;
      incr crashes;
      M.incr meters.mm_crashes;
      Backend.crash backend ~now:(now ()) ~owner:inst.txn_index;
      Clock.after clock ~delay:scenario.Scenario.down_time
        (Resume inst.txn_index);
      Obs.event
        ~attrs:(fun () ->
          [
            A.int "tick" (now ());
            A.str "txn" (Txn.name inst.txn);
            A.int "down_time" scenario.Scenario.down_time;
          ])
        "sim.worker.crash"
    end
  in
  (* Mark step [s] executed at the current time: bookkeeping, the trace
     (the committed history is read off it at the end), its successors'
     pending counts and, for cross-site ones, arrival times (drawn in
     ascending successor order), commit, and the post-step crash draw. *)
  let complete inst s =
    let step = Txn.step inst.txn s in
    let site_s = Database.site db step.Step.entity in
    inst.done_.(s) <- true;
    inst.executed <- inst.executed + 1;
    inst.loc <- site_s;
    trace :=
      {
        Trace.tick = now ();
        txn = inst.txn_index;
        step = s;
        site = site_s;
        attempt = inst.attempt;
      }
      :: !trace;
    let succ = inst.succ.(s) in
    for j = 0 to Array.length succ - 1 do
      let q = succ.(j) in
      inst.pending.(q) <- inst.pending.(q) - 1;
      if not zero_latency then begin
        let site_q = Database.site db (Txn.step inst.txn q).Step.entity in
        if site_q <> site_s then begin
          let delay = Latency.sample latency lat_rng ~src:site_s ~dst:site_q in
          M.observe (meters.mm_msg site_q) (float_of_int delay);
          inst.ready_at.(q) <- max inst.ready_at.(q) (now () + delay)
        end
      end
    done;
    if inst.executed = Txn.num_steps inst.txn then begin
      inst.committed <- true;
      decr uncommitted;
      Obs.event
        ~attrs:(fun () ->
          [
            A.int "tick" (now ());
            A.str "txn" (Txn.name inst.txn);
            A.int "attempt" inst.attempt;
          ])
        "sim.txn.commit"
    end;
    maybe_crash inst
  in
  let complete_lock inst s =
    let step = Txn.step inst.txn s in
    let site = Database.site db step.Step.entity in
    let wait =
      if inst.waiting_since >= 0 then now () - inst.waiting_since else 0
    in
    inst.waiting_since <- -1;
    M.incr meters.mm_grants;
    M.observe (meters.mm_wait site) (float_of_int wait);
    inst.held_since <- (step.Step.entity, now ()) :: inst.held_since;
    Obs.event ~level:Obs.Debug ~attrs:(step_attrs inst step) "sim.lock.acquire";
    complete inst s
  in
  let execute inst s =
    let step = Txn.step inst.txn s in
    match step.Step.action with
    | Step.Lock -> (
        let dst = Database.site db step.Step.entity in
        let cost = request_cost inst dst in
        if cost > 0 then M.observe (meters.mm_msg dst) (float_of_int cost);
        let ready = now () + cost in
        inst.waiting_since <- now ();
        match
          Backend.acquire backend ~now:(now ()) ~owner:inst.txn_index
            ~ready_at:ready step.Step.entity
        with
        | Backend.Granted -> complete_lock inst s
        | Backend.Queued ->
            inst.waiting <- s;
            M.incr meters.mm_queued;
            Obs.event ~level:Obs.Debug ~attrs:(step_attrs inst step)
              "sim.lock.queue")
    | Step.Unlock ->
        (match List.assoc_opt step.Step.entity inst.held_since with
        | Some granted ->
            inst.held_since <-
              List.remove_assoc step.Step.entity inst.held_since;
            M.observe
              (meters.mm_hold (Database.site db step.Step.entity))
              (float_of_int (now () - granted))
        | None -> ());
        if not (Backend.release backend ~owner:inst.txn_index step.Step.entity)
        then begin
          (* The manager moved on without us: lease expired while we
             were down. The worker doesn't notice and keeps going. *)
          incr stale;
          M.incr meters.mm_stale;
          Obs.event ~attrs:(step_attrs inst step) "sim.lock.stale_release"
        end;
        Obs.event ~level:Obs.Debug ~attrs:(step_attrs inst step)
          "sim.lock.release";
        complete inst s
    | Step.Update -> complete inst s
  in
  let handle_notice = function
    | Backend.Expired { entity; owner } ->
        incr expiries;
        M.incr meters.mm_expiries;
        Obs.event
          ~attrs:(fun () ->
            [
              A.int "tick" (now ());
              A.str "entity" (Database.name db entity);
              A.str "txn" (Txn.name instances.(owner).txn);
            ])
          "sim.lease.expire"
    | Backend.Handed { entity = _; owner } ->
        let inst = instances.(owner) in
        let s = inst.waiting in
        if s >= 0 then begin
          inst.waiting <- -1;
          if inst.crashed then
            (* The grant arrived at a down worker; it acts on it when it
               comes back. *)
            inst.pending_grants <- s :: inst.pending_grants
          else complete_lock inst s
        end
  in
  let abort_victim () =
    (* Build the wait-for graph, find a cycle, abort its youngest member:
       a victim outside the cycle (e.g. a just-restarted instance
       re-blocking on a cycle member) would not break the deadlock.
       Crashed workers are outside the graph (they are paused, not
       waiting). *)
    let wf = Distlock_graph.Digraph.create n in
    Array.iter
      (fun inst ->
        if (not inst.committed) && not inst.crashed then
          List.iter
            (fun h -> Distlock_graph.Digraph.add_arc wf inst.txn_index h)
            (blocked_on inst))
      instances;
    let victim =
      match Distlock_graph.Topo.find_cycle wf with
      | Some cycle ->
          Obs.event
            ~attrs:(fun () ->
              [
                A.int "tick" (now ());
                A.str "cycle"
                  (String.concat " -> "
                     (List.map (fun i -> Txn.name instances.(i).txn) cycle));
              ])
            "sim.deadlock.detect";
          List.fold_left
            (fun best i ->
              let inst = instances.(i) in
              match best with
              | Some v when v.birth >= inst.birth -> best
              | _ -> Some inst)
            None cycle
      | None ->
          Array.fold_left
            (fun best inst ->
              if
                (not inst.committed)
                && (not inst.crashed)
                && blocked_on inst <> []
              then match best with Some _ -> best | None -> Some inst
              else best)
            None instances
    in
    match victim with
    | None -> failwith "Esim: stuck with no blocked instance"
    | Some inst ->
        incr aborts;
        Obs.event
          ~attrs:(fun () ->
            [
              A.int "tick" (now ());
              A.str "txn" (Txn.name inst.txn);
              A.int "attempt" inst.attempt;
              A.int "wasted_steps" inst.executed;
            ])
          "sim.txn.abort";
        Backend.forfeit backend ~owner:inst.txn_index;
        fresh_attempt inst
  in
  (* One scheduling decision: drain the backend, then run one enabled
     step, or book the next wake-up time when nothing is enabled, or
     break a deadlock. *)
  let decide () =
    if !aborts > scenario.Scenario.max_aborts then
      result := Some (Error "max aborts exceeded")
    else begin
      incr ticks;
      M.set meters.mm_depth (float_of_int (Clock.length clock));
      let notices = Backend.drain backend ~now:(now ()) in
      List.iter handle_notice notices;
      if not (all_committed ()) then begin
        n_choices := 0;
        Array.iter gather_enabled instances;
        if Obs.logs Obs.Debug then
          Array.iter
            (fun inst ->
              if not inst.committed then
                match blocked_on inst with
                | [] -> was_blocked.(inst.txn_index) <- false
                | holders ->
                    if not was_blocked.(inst.txn_index) then begin
                      was_blocked.(inst.txn_index) <- true;
                      Obs.event ~level:Obs.Debug
                        ~attrs:(fun () ->
                          [
                            A.int "tick" (now ());
                            A.str "txn" (Txn.name inst.txn);
                            A.str "waiting_for"
                              (String.concat ", "
                                 (List.sort_uniq compare
                                    (List.map
                                       (fun h -> Txn.name instances.(h).txn)
                                       holders)));
                          ])
                        "sim.lock.block"
                    end)
            instances;
        if !n_choices > 0 then begin
          let c = Random.State.int rng !n_choices in
          execute instances.(choice_inst.(c)) choice_step.(c);
          if not (all_committed ()) then ensure_decide (now () + 1)
        end
        else if notices <> [] then
          (* drain made progress; look again next tick *)
          ensure_decide (now () + 1)
        else begin
          (* Earliest time anything can change on its own: a message
             arrival, or the backend expiring/granting. Crashed
             workers re-book the decision from their Resume event. *)
          let wake = ref max_int in
          Array.iter
            (fun inst ->
              if not (inst.committed || inst.crashed) then
                for s = 0 to Txn.num_steps inst.txn - 1 do
                  if awaiting inst s && inst.ready_at.(s) < !wake then
                    wake := inst.ready_at.(s)
                done)
            instances;
          (match Backend.next_wakeup backend with
          | Some t -> if t < !wake then wake := t
          | None -> ());
          if !wake < max_int then begin
            Obs.event ~level:Obs.Debug
              ~attrs:(fun () -> [ A.int "tick" (now ()) ])
              "sim.message.wait";
            ensure_decide (max !wake (now () + 1))
          end
          else if Array.exists (fun i -> i.crashed) instances then ()
          else begin
            (* Every live worker waits on a lock: consult the
               state-graph oracle's deadlock predicate online, then
               break the cycle. *)
            if
              Stategraph.deadlocked_now sys
                ~executed:(fun i s -> instances.(i).done_.(s))
                ~holder:(Backend.holder backend)
            then incr blocks;
            abort_victim ();
            ensure_decide (now () + 1)
          end
        end
      end
    end
  in
  let resume i =
    let inst = instances.(i) in
    inst.crashed <- false;
    M.incr meters.mm_restarts;
    Backend.resume backend ~owner:inst.txn_index;
    Obs.event
      ~attrs:(fun () ->
        [ A.int "tick" (now ()); A.str "txn" (Txn.name inst.txn) ])
      "sim.worker.resume";
    (* Grants that arrived while down take effect now, oldest first. *)
    let grants = List.rev inst.pending_grants in
    inst.pending_grants <- [];
    List.iter (fun s -> complete_lock inst s) grants;
    if not (all_committed ()) then ensure_decide (now () + 1)
  in
  ensure_decide 1;
  let rec loop () =
    if !result = None && not (all_committed ()) then
      match Clock.pop clock with
      | None -> result := Some (Error "simulation stalled")
      | Some (t, ev) ->
          (match ev with
          | Decide ->
              (* Only the earliest booked Decide is live; superseded
                 ones (booked, then re-booked earlier) are skipped. *)
              if t = !booked then begin
                booked := max_int;
                decide ()
              end
          | Resume i -> resume i);
          loop ()
  in
  loop ();
  let out =
    match !result with
    | Some err -> err
    | None ->
        let trace = List.rev !trace in
        (* The committed history: each transaction's final attempt. *)
        let history =
          Schedule.of_events
            (List.filter_map
               (fun (e : Trace.event) ->
                 if e.attempt = instances.(e.txn).attempt then
                   Some (e.txn, e.step)
                 else None)
               trace)
        in
        let serializable, legal =
          if check_serializability then
            ( Conflict.is_serializable sys history,
              Legality.is_legal sys history )
          else (true, true)
        in
        Ok
          {
            history;
            serializable;
            legal;
            trace;
            stats =
              {
                ticks = !ticks;
                makespan = now ();
                commits = n;
                aborts = !aborts;
                deadlocks = !blocks;
                crashes = !crashes;
                lease_expiries = !expiries;
                stale_unlocks = !stale;
              };
          }
  in
  M.incr (m_runs ());
  if Obs.enabled () then
    Obs.add_attrs sp
      [
        A.int "ticks" !ticks;
        A.int "makespan" (now ());
        A.int "aborts" !aborts;
        A.int "deadlocks" !blocks;
        A.int "crashes" !crashes;
        A.int "lease_expiries" !expiries;
        A.str "result"
          (match out with
          | Ok o ->
              if o.serializable then "serializable" else "non-serializable"
          | Error e -> "error: " ^ e);
      ];
  Obs.end_span sp;
  out

type summary = {
  runs : int;
  errors : int;
  violations : int;
  illegal : int;
  total_aborts : int;
  total_deadlocks : int;
  total_ticks : int;
  total_crashes : int;
  total_expiries : int;
  total_stale_unlocks : int;
}

let empty_summary =
  {
    runs = 0;
    errors = 0;
    violations = 0;
    illegal = 0;
    total_aborts = 0;
    total_deadlocks = 0;
    total_ticks = 0;
    total_crashes = 0;
    total_expiries = 0;
    total_stale_unlocks = 0;
  }

let measure ?(precheck = true) ?(scenario = Scenario.default)
    ?(seeds = List.init 20 Fun.id) ?(on_run = fun _ _ -> ()) sys =
  (* The static verdict quantifies over *legal* schedules, and only a
     fault-free run is guaranteed to produce one — so the precheck
     shortcut applies only when the scenario cannot lose locks. *)
  let check_serializability =
    not (precheck && Scenario.fault_free scenario && Workload.proven_safe sys)
  in
  List.fold_left
    (fun acc seed ->
      match
        run ~policy:(Engine.Random seed) ~scenario ~check_serializability sys
      with
      | Error _ -> { acc with errors = acc.errors + 1 }
      | Ok o ->
          on_run seed o;
          {
            runs = acc.runs + 1;
            errors = acc.errors;
            violations = (acc.violations + if o.serializable then 0 else 1);
            illegal = (acc.illegal + if o.legal then 0 else 1);
            total_aborts = acc.total_aborts + o.stats.aborts;
            total_deadlocks = acc.total_deadlocks + o.stats.deadlocks;
            total_ticks = acc.total_ticks + o.stats.ticks;
            total_crashes = acc.total_crashes + o.stats.crashes;
            total_expiries = acc.total_expiries + o.stats.lease_expiries;
            total_stale_unlocks =
              acc.total_stale_unlocks + o.stats.stale_unlocks;
          })
    empty_summary seeds

let violation_fraction s =
  if s.runs = 0 then 0. else float_of_int s.violations /. float_of_int s.runs

let pp_summary ppf s =
  (* Fault-era fields appear only when something actually happened, so
     default-scenario output keeps the short form. *)
  Format.fprintf ppf "%d runs: %d violations, %d aborts, %d deadlocks, %d ticks"
    s.runs s.violations s.total_aborts s.total_deadlocks s.total_ticks;
  if s.total_crashes > 0 then
    Format.fprintf ppf ", %d crashes" s.total_crashes;
  if s.total_expiries > 0 then
    Format.fprintf ppf ", %d lease expiries" s.total_expiries;
  if s.total_stale_unlocks > 0 then
    Format.fprintf ppf ", %d stale unlocks" s.total_stale_unlocks;
  if s.illegal > 0 then Format.fprintf ppf ", %d illegal histories" s.illegal;
  if s.errors > 0 then Format.fprintf ppf ", %d errors" s.errors
