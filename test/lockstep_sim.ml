(* Reference simulator for the equivalence properties in test_esim.ml: a
   lockstep loop that advances one tick per iteration, with a perfect
   in-memory lock table and a constant cross-site message delay.

   Each tick gathers every enabled step of every uncommitted instance (all
   intra-transaction predecessors executed, every cross-site predecessor
   at least [cross_site_delay] ticks old, and for a lock, the entity free)
   and lets the policy pick one. A tick with nothing enabled idles while a
   message is in flight; otherwise every live instance waits on a lock, so
   the wait-for cycle's youngest member is aborted and restarted. The run
   ends when every instance has committed. Esim must reproduce this loop
   seed for seed: its [ticks] at zero latency and its [makespan] under a
   constant delay equal this loop's tick count. *)

open Distlock_txn
open Distlock_sched

type stats = { ticks : int; commits : int; aborts : int; deadlocks : int }

type outcome = {
  history : Schedule.t;
  serializable : bool;
  stats : stats;
  trace : Distlock_sim.Trace.event list;
}

type instance = {
  txn_index : int;
  txn : Txn.t;
  mutable done_ : bool array;
  mutable done_tick : int array;
  mutable executed : int;
  mutable events : int list; (* step indices of the current attempt, reversed *)
  mutable committed : bool;
  mutable birth : int; (* tick of the current attempt's start *)
  mutable attempt : int;
}

let fresh_attempt inst tick =
  inst.done_ <- Array.make (Txn.num_steps inst.txn) false;
  inst.done_tick <- Array.make (Txn.num_steps inst.txn) 0;
  inst.executed <- 0;
  inst.events <- [];
  inst.birth <- tick;
  inst.attempt <- inst.attempt + 1

(* `Ready: all predecessors executed and any cross-site results have had
   time to arrive; `Awaiting_message: executed but a cross-site
   predecessor's notification is still in flight; `Blocked_order: some
   predecessor has not run. *)
let pred_status db ~delay ~now inst s =
  let site_of q = Database.site db (Txn.step inst.txn q).Step.entity in
  let status = ref `Ready in
  for p = 0 to Txn.num_steps inst.txn - 1 do
    if Txn.precedes inst.txn p s then
      if not inst.done_.(p) then status := `Blocked_order
      else if
        delay > 0
        && site_of p <> site_of s
        && inst.done_tick.(p) + delay > now
        && !status = `Ready
      then status := `Awaiting_message
  done;
  !status

let run ~policy:(Distlock_sim.Engine.Random seed) ?(cross_site_delay = 0)
    sys =
  let db = System.db sys in
  let n = System.num_txns sys in
  let instances =
    Array.init n (fun i ->
        let txn = System.txn sys i in
        {
          txn_index = i;
          txn;
          done_ = Array.make (Txn.num_steps txn) false;
          done_tick = Array.make (Txn.num_steps txn) 0;
          executed = 0;
          events = [];
          committed = false;
          birth = 0;
          attempt = 1;
        })
  in
  let holder : (Database.entity, int) Hashtbl.t = Hashtbl.create 16 in
  let rng = Random.State.make [| seed |] in
  let ticks = ref 0 and aborts = ref 0 and blocks = ref 0 in
  let global_log = ref [] in
  let trace = ref [] in
  let status inst s = pred_status db ~delay:cross_site_delay ~now:!ticks inst s in
  let enabled_steps inst =
    if inst.committed then []
    else begin
      let acc = ref [] in
      for s = 0 to Txn.num_steps inst.txn - 1 do
        if (not inst.done_.(s)) && status inst s = `Ready then begin
          let step = Txn.step inst.txn s in
          match step.Step.action with
          | Step.Lock -> (
              match Hashtbl.find_opt holder step.Step.entity with
              | Some h when h <> inst.txn_index -> ()
              | _ -> acc := s :: !acc)
          | Step.Unlock | Step.Update -> acc := s :: !acc
        end
      done;
      List.rev !acc
    end
  in
  let awaiting_message inst =
    (not inst.committed)
    && List.exists
         (fun s -> (not inst.done_.(s)) && status inst s = `Awaiting_message)
         (List.init (Txn.num_steps inst.txn) Fun.id)
  in
  (* Holders of the entities this instance's ready locks need. *)
  let blocked_on inst =
    let acc = ref [] in
    for s = 0 to Txn.num_steps inst.txn - 1 do
      if (not inst.done_.(s)) && status inst s = `Ready then begin
        let step = Txn.step inst.txn s in
        if step.Step.action = Step.Lock then
          match Hashtbl.find_opt holder step.Step.entity with
          | Some h when h <> inst.txn_index -> acc := h :: !acc
          | _ -> ()
      end
    done;
    !acc
  in
  let execute inst s =
    let step = Txn.step inst.txn s in
    (match step.Step.action with
    | Step.Lock -> Hashtbl.replace holder step.Step.entity inst.txn_index
    | Step.Unlock -> Hashtbl.remove holder step.Step.entity
    | Step.Update -> ());
    inst.done_.(s) <- true;
    inst.done_tick.(s) <- !ticks;
    inst.executed <- inst.executed + 1;
    inst.events <- s :: inst.events;
    global_log := (inst.txn_index, s) :: !global_log;
    trace :=
      {
        Distlock_sim.Trace.tick = !ticks;
        txn = inst.txn_index;
        step = s;
        site = Database.site db step.Step.entity;
        attempt = inst.attempt;
      }
      :: !trace;
    if inst.executed = Txn.num_steps inst.txn then inst.committed <- true
  in
  (* Abort the youngest member of a wait-for cycle: a victim outside the
     cycle would not break the deadlock. *)
  let abort_victim () =
    let wf = Distlock_graph.Digraph.create n in
    Array.iter
      (fun inst ->
        if not inst.committed then
          List.iter
            (fun h -> Distlock_graph.Digraph.add_arc wf inst.txn_index h)
            (blocked_on inst))
      instances;
    let victim =
      match Distlock_graph.Topo.find_cycle wf with
      | Some cycle ->
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
              if (not inst.committed) && blocked_on inst <> [] then
                match best with Some _ -> best | None -> Some inst
              else best)
            None instances
    in
    match victim with
    | None -> failwith "Lockstep_sim: stuck with no blocked instance"
    | Some inst ->
        incr aborts;
        let remaining = ref (List.length inst.events) in
        global_log :=
          List.filter
            (fun (i, _) ->
              if i = inst.txn_index && !remaining > 0 then begin
                decr remaining;
                false
              end
              else true)
            !global_log;
        Hashtbl.filter_map_inplace
          (fun _ h -> if h = inst.txn_index then None else Some h)
          holder;
        fresh_attempt inst !ticks
  in
  let all_committed () = Array.for_all (fun i -> i.committed) instances in
  let result = ref None in
  while !result = None && not (all_committed ()) do
    if !aborts > Distlock_sim.Scenario.default.max_aborts then
      result := Some (Error "max aborts exceeded")
    else begin
      incr ticks;
      let choices =
        Array.to_list instances
        |> List.concat_map (fun inst ->
               List.map (fun s -> (inst, s)) (enabled_steps inst))
      in
      match choices with
      | [] ->
          if not (Array.exists awaiting_message instances) then begin
            incr blocks;
            abort_victim ()
          end
      | _ ->
          let arr = Array.of_list choices in
          let inst, s = arr.(Random.State.int rng (Array.length arr)) in
          execute inst s
    end
  done;
  match !result with
  | Some err -> err
  | None ->
      let history = Schedule.of_events (List.rev !global_log) in
      Ok
        {
          history;
          serializable = Conflict.is_serializable sys history;
          trace = List.rev !trace;
          stats =
            { ticks = !ticks; commits = n; aborts = !aborts; deadlocks = !blocks };
        }
