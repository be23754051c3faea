open Distlock_txn

type event = { tick : int; txn : int; step : int; site : int; attempt : int }

type txn_metrics = {
  txn : int;
  attempts : int; (* 0 = never started *)
  first_start : int option;
  commit : int option;
  steps_executed : int;
  wasted_steps : int;
  wait_ticks : int;
}

type site_metrics = {
  site : int;
  events : int;
  busy_span : int;
  utilization : float;
}

type report = {
  events : event list;
  txns : txn_metrics list;
  sites : site_metrics list;
  makespan : int;
  wait_p50 : float;
  wait_p90 : float;
  wait_p99 : float;
}

module Metric = Distlock_obs.Metric

(* Powers of two up to 512 ticks — matches the simulator's live
   histograms so offline and scraped percentiles agree. *)
let wait_buckets = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. |]

let distinct_ticks evs =
  List.length (List.sort_uniq compare (List.map (fun (e : event) -> e.tick) evs))

let analyze sys events =
  let n = System.num_txns sys in
  let per_txn = Array.make n [] in
  List.iter (fun (e : event) -> per_txn.(e.txn) <- e :: per_txn.(e.txn)) events;
  (* Per-step waits (idle ticks between a transaction's consecutive
     steps) feed a bucket histogram so the report's percentiles use the
     same estimator as the live scrape endpoint. *)
  let wait_h = Metric.histogram ~buckets:wait_buckets () in
  let txns =
    List.init n (fun i ->
        let evs = List.rev per_txn.(i) in
        (let rec gaps = function
           | (a : event) :: (b :: _ as rest) ->
               Metric.observe wait_h (float_of_int (max 0 (b.tick - a.tick - 1)));
               gaps rest
           | _ -> ()
         in
         gaps evs);
        (* No events means the transaction never started: attempts is 0
           and start/commit are absent, distinguishable from one that
           committed at tick 0. *)
        let attempts =
          List.fold_left (fun m (e : event) -> max m e.attempt) 0 evs
        in
        let committed_steps =
          List.length (List.filter (fun (e : event) -> e.attempt = attempts) evs)
        in
        let first_start =
          match evs with [] -> None | (e : event) :: _ -> Some e.tick
        in
        let commit =
          match evs with
          | [] -> None
          | _ -> Some (List.fold_left (fun m (e : event) -> max m e.tick) 0 evs)
        in
        let wait_ticks =
          match (first_start, commit) with
          | Some s, Some c -> max 0 (c - s + 1 - distinct_ticks evs)
          | _ -> 0
        in
        {
          txn = i;
          attempts;
          first_start;
          commit;
          steps_executed = List.length evs;
          wasted_steps = List.length evs - committed_steps;
          wait_ticks;
        })
  in
  let site_tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : event) ->
      let evs =
        Option.value ~default:[] (Hashtbl.find_opt site_tbl e.site)
      in
      Hashtbl.replace site_tbl e.site (e :: evs))
    events;
  let makespan = List.fold_left (fun m (e : event) -> max m e.tick) 0 events in
  let sites =
    Hashtbl.fold
      (fun site evs acc ->
        let lo, hi =
          List.fold_left
            (fun (lo, hi) (e : event) -> (min lo e.tick, max hi e.tick))
            (max_int, min_int) evs
        in
        (* Busy span only says when the site was first and last touched;
           utilization counts the ticks it actually executed something,
           over the whole run. *)
        let utilization =
          if makespan = 0 then 0.
          else float_of_int (distinct_ticks evs) /. float_of_int makespan
        in
        { site; events = List.length evs; busy_span = hi - lo; utilization }
        :: acc)
      site_tbl []
    |> List.sort (fun a b -> compare a.site b.site)
  in
  let q p = Metric.quantile wait_h p in
  {
    events;
    txns;
    sites;
    makespan;
    wait_p50 = q 0.5;
    wait_p90 = q 0.9;
    wait_p99 = q 0.99;
  }

module Json = Distlock_obs.Json

(* One structured record per executed step — the JSONL schema behind
   `simulate --trace`. [seed] tags the run when several seeded runs
   share one file. *)
let event_to_json ?seed sys (e : event) =
  let txn = System.txn sys e.txn in
  let step = Txn.step txn e.step in
  Json.Obj
    ((match seed with Some s -> [ ("seed", Json.Int s) ] | None -> [])
    @ [
        ("tick", Json.Int e.tick);
        ("txn", Json.Str (Txn.name txn));
        ("step", Json.Str (Step.to_string (System.db sys) step));
        ( "action",
          Json.Str
            (match step.Step.action with
            | Step.Lock -> "lock"
            | Step.Unlock -> "unlock"
            | Step.Update -> "update") );
        ("entity", Json.Str (Database.name (System.db sys) step.Step.entity));
        ("site", Json.Int e.site);
        ("attempt", Json.Int e.attempt);
      ])

let write_jsonl ?seed sys oc events =
  List.iter
    (fun e ->
      output_string oc (Json.to_string (event_to_json ?seed sys e));
      output_char oc '\n')
    events

let pp_quantile v = Printf.sprintf "%.1f" v

let pp_report sys ppf r =
  Format.fprintf ppf "@[<v>makespan: %d ticks@," r.makespan;
  List.iter
    (fun m ->
      match (m.first_start, m.commit) with
      | Some start, Some commit ->
          Format.fprintf ppf
            "%s: start %d, commit %d, %d attempt(s), %d steps (%d wasted), \
             waited %d@,"
            (Txn.name (System.txn sys m.txn))
            start commit m.attempts m.steps_executed m.wasted_steps
            m.wait_ticks
      | _ ->
          Format.fprintf ppf "%s: never started@,"
            (Txn.name (System.txn sys m.txn)))
    r.txns;
  List.iter
    (fun s ->
      Format.fprintf ppf
        "site %d: %d events over %d ticks, utilization %.0f%%@," s.site
        s.events s.busy_span (100. *. s.utilization))
    r.sites;
  if not (Float.is_nan r.wait_p50) then
    Format.fprintf ppf "step waits (ticks): p50 %s p90 %s p99 %s@,"
      (pp_quantile r.wait_p50) (pp_quantile r.wait_p90)
      (pp_quantile r.wait_p99);
  Format.fprintf ppf "@]"
