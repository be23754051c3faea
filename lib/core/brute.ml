open Distlock_txn
open Distlock_sched
open Distlock_geometry

type verdict =
  | Safe
  | Unsafe of Schedule.t
  | Exhausted of { examined : int; limit : int }

(* Progress counters for the exhaustive oracles, so a long run is
   legible from the outside ([--metrics] snapshots show the census
   advancing). A counter bump is one atomic increment — noise even at
   tens of millions of iterations. The handle is fetched once per run
   through the registry's get-or-create. *)
let m_schedules () =
  Distlock_obs.Registry.counter Distlock_obs.Obs.global
    ~help:"Legal schedules examined by the brute-force oracle"
    "distlock_brute_schedules_examined_total"

let m_pictures () =
  Distlock_obs.Registry.counter Distlock_obs.Obs.global
    ~help:"Extension-pair pictures examined by the Lemma 1 oracle"
    "distlock_brute_pictures_examined_total"

exception Out_of_budget

let safe_by_schedules ?(limit = 20_000_000) sys =
  let examined = ref 0 in
  let progress = m_schedules () in
  match
    Enumerate.find_legal sys (fun h ->
        if !examined >= limit then raise Out_of_budget;
        incr examined;
        Distlock_obs.Metric.incr progress;
        not (Conflict.is_serializable sys h))
  with
  | Some h -> Unsafe h
  | None -> Safe
  | exception Out_of_budget -> Exhausted { examined = !examined; limit }

exception Found of Schedule.t

let safe_by_extensions ?(limit = 50_000_000) sys =
  let t1, t2 = System.pair sys in
  let examined = ref 0 in
  let progress = m_pictures () in
  try
    Distlock_order.Linext.iter (Txn.order t1) (fun ext1 ->
        let ext1 = Array.copy ext1 in
        Distlock_order.Linext.iter (Txn.order t2) (fun ext2 ->
            if !examined >= limit then raise Out_of_budget;
            incr examined;
            Distlock_obs.Metric.incr progress;
            let plane = Plane.of_extensions sys ext1 (Array.copy ext2) in
            match Separation.decide plane with
            | Separation.Safe -> ()
            | Separation.Unsafe { schedule; _ } -> raise (Found schedule)));
    Safe
  with
  | Found h -> Unsafe h
  | Out_of_budget -> Exhausted { examined = !examined; limit }

let safe_by_states ?(limit = 10_000_000) sys =
  match Stategraph.decide ~limit sys with
  | Stategraph.Safe, _ -> Safe
  | Stategraph.Unsafe h, _ -> Unsafe h
  | Stategraph.Exhausted { visited; limit }, _ ->
      Exhausted { examined = visited; limit }

let probe_random rng ~trials sys =
  let rec go k =
    if k = 0 then None
    else
      match Enumerate.random_legal rng sys with
      | None -> go (k - 1)
      | Some h -> if Conflict.is_serializable sys h then go (k - 1) else Some h
  in
  go trials
