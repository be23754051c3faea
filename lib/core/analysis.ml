open Distlock_txn
module O = Distlock_engine.Outcome

type deadlock_info =
  | Deadlock_possible of int
  | Deadlock_impossible
  | Deadlock_unknown

type txn_policies = {
  name : string;
  two_phase_strong : bool;
  two_phase_weak : bool;
}

type t = {
  system : System.t;
  violations : (string * string) list;
  sites : int list;
  common_entities : string list;
  d_vertices : int;
  d_arcs : int;
  strongly_connected : bool;
  decision : Checkers.evidence Distlock_engine.Outcome.t;
  policies : txn_policies list;
  deadlock : deadlock_info;
  repair : (int * int) option;
}

let pair ?(try_repair = true) sys =
  let db = System.db sys in
  let violations =
    List.map
      (fun (txn, v) -> (Txn.name txn, Validate.to_string db txn v))
      (System.validate sys)
  in
  let d = Dgraph.build_pair sys in
  let decision = Checkers.decide sys in
  let t1, t2 = System.pair sys in
  let policies =
    List.map
      (fun txn ->
        {
          name = Txn.name txn;
          two_phase_strong = Policy.is_two_phase_strong txn;
          two_phase_weak = Policy.is_two_phase_weak txn;
        })
      [ t1; t2 ]
  in
  let deadlock =
    if Txn.is_total t1 && Txn.is_total t2 then begin
      let plane = Distlock_geometry.Plane.make sys in
      match Distlock_geometry.Deadlock.reachable_deadlocks plane with
      | [] -> Deadlock_impossible
      | states -> Deadlock_possible (List.length states)
    end
    else Deadlock_unknown
  in
  let repair =
    match decision.O.verdict with
    | O.Unsafe _ when try_repair -> (
        match Repair.make_safe sys with
        | Some (sys', ins) ->
            Some
              (List.length ins, Repair.concurrency_loss ~before:sys ~after:sys')
        | None -> None)
    | _ -> None
  in
  {
    system = sys;
    violations;
    sites = System.sites_used sys;
    common_entities =
      List.map (Database.name db) (System.common_locked sys 0 1);
    d_vertices = Dgraph.num_vertices d;
    d_arcs = Distlock_graph.Digraph.num_arcs (Dgraph.graph d);
    strongly_connected = Dgraph.is_strongly_connected d;
    decision;
    policies;
    deadlock;
    repair;
  }

let pp ppf r =
  let sys = r.system in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "sites used: %s@,"
    (String.concat ", " (List.map string_of_int r.sites));
  (match r.violations with
  | [] -> Format.fprintf ppf "well-formed: yes@,"
  | vs ->
      Format.fprintf ppf "well-formed: NO@,";
      List.iter (fun (t, m) -> Format.fprintf ppf "  %s: %s@," t m) vs);
  Format.fprintf ppf
    "D(T1,T2): %d vertices {%s}, %d arcs, strongly connected: %b@,"
    r.d_vertices
    (String.concat ", " r.common_entities)
    r.d_arcs r.strongly_connected;
  List.iter
    (fun p ->
      Format.fprintf ppf "%s: two-phase %s@," p.name
        (if p.two_phase_strong then "strong"
         else if p.two_phase_weak then "weak only"
         else "no"))
    r.policies;
  (match r.decision.O.verdict with
  | O.Safe -> Format.fprintf ppf "verdict: SAFE — %s@," r.decision.O.detail
  | O.Unsafe ev ->
      Format.fprintf ppf "verdict: UNSAFE@,";
      (match ev with
      | Checkers.Certificate c ->
          Format.fprintf ppf "%a@," (Certificate.pp sys) c
      | Checkers.Counterexample h ->
          Format.fprintf ppf "counterexample: %s@,"
            (Distlock_sched.Schedule.to_string sys h))
  | O.Unknown m -> Format.fprintf ppf "verdict: UNKNOWN — %s@," m);
  (match r.deadlock with
  | Deadlock_possible k ->
      Format.fprintf ppf "deadlock: possible (%d reachable state(s))@," k
  | Deadlock_impossible -> Format.fprintf ppf "deadlock: impossible@,"
  | Deadlock_unknown ->
      Format.fprintf ppf "deadlock: not analyzed (partial orders)@,");
  (match r.repair with
  | Some (ins, loss) ->
      Format.fprintf ppf
        "repair: %d inserted precedence(s) make it safe (loss: %d pairs)@,"
        ins loss
  | None -> (
      match r.decision.O.verdict with
      | O.Unsafe _ ->
          Format.fprintf ppf "repair: no precedence insertion helps@,"
      | _ -> ()));
  Format.fprintf ppf "@]"
