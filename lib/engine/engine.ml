module Obs = Distlock_obs.Obs
module A = Distlock_obs.Attr

type ('sys, 'ev) t = {
  checkers : ('sys, 'ev) Checker.t list;
  fingerprint : 'sys -> string;
  cache : 'ev Outcome.t Lru.t option;
  stats : Stats.t;
}

let create ?(cache_capacity = 1024) ?stats ~fingerprint checkers =
  if checkers = [] then invalid_arg "Engine.create: no checkers";
  {
    checkers;
    fingerprint;
    cache =
      (if cache_capacity <= 0 then None
       else Some (Lru.create ~capacity:cache_capacity));
    stats = (match stats with Some s -> s | None -> Stats.create ());
  }

let checkers t = t.checkers

let stats t = t.stats

(* One staged pass over the pipeline. Applicable stages run in order.
   A stage Error is recorded and the pipeline continues — the final
   Unknown carries every error so nothing is silently masked. *)
let run ?stats ?(budget = Budget.unlimited) checkers sys =
  let started = Obs.mono_s () in
  let trace = ref [] in
  (* Span attributes shared by every pipeline stage. [cache_hit] is
     always false here: a cache hit never reaches [run] (the decide span
     carries the hit). *)
  let stage_attrs (c : _ Checker.t) () =
    [
      A.str "checker" c.Checker.name;
      A.str "procedure" (Checker.procedure_label c.Checker.procedure);
      A.str "cost" (Checker.cost_label c.Checker.procedure);
      A.bool "cache_hit" false;
    ]
  in
  let record (entry : Outcome.stage_trace) unsafe =
    trace := entry :: !trace;
    match stats with
    | None -> ()
    | Some st ->
        Stats.record_stage st ~name:entry.Outcome.stage
          (entry.Outcome.status, unsafe)
          entry.Outcome.seconds
  in
  let finish verdict procedure detail =
    let unknown = match verdict with Outcome.Unknown _ -> true | _ -> false in
    (match stats with
    | None -> ()
    | Some st -> Stats.record_decision st ~cached:false ~unknown);
    (* Anomaly hook: an undecided pipeline — stage errors, an exhausted
       budget — is exactly what the flight recorder exists to explain.
       No-op unless a global recorder is installed (the CLI installs
       one; library tests that exercise Unknown on purpose do not). *)
    if unknown then
      Distlock_obs.Recorder.anomaly
        ~reason:("engine decision ended Unknown: " ^ detail);
    {
      Outcome.verdict;
      procedure;
      detail;
      trace = List.rev !trace;
      seconds = Obs.mono_s () -. started;
      cached = false;
    }
  in
  let rec go = function
    | [] ->
        let errors =
          List.filter_map
            (fun (s : Outcome.stage_trace) ->
              match s.Outcome.status with
              | Outcome.Errored -> Some s.Outcome.detail
              | _ -> None)
            (List.rev !trace)
        in
        let msg =
          if errors <> [] then String.concat "; " errors
          else "no applicable procedure decided the system"
        in
        finish (Outcome.Unknown msg) None msg
    | (c : _ Checker.t) :: rest ->
        if not (c.Checker.applicable sys) then go rest
        else begin
          let sp = Obs.start_span "engine.stage" ~attrs:(stage_attrs c) in
          (* Stage timing is monotonic wall time; the span also carries
             the process CPU time, as an attribute, not the trace
             timing. *)
          let t0 = Obs.mono_s () in
          let c0 = Obs.cpu_s () in
          let result =
            try c.Checker.run budget sys with
            | Failure msg -> Checker.Error msg
            | Invalid_argument msg -> Checker.Error ("invalid argument: " ^ msg)
          in
          let dt = Obs.mono_s () -. t0 in
          let dt_cpu = Obs.cpu_s () -. c0 in
          (* Checkers report measurements (states visited, pair-cache
             traffic, …) by wrapping their result in [Annotated]; the
             attributes land on the trace entry and the stage span. *)
          let stage_metrics, result = Checker.strip result in
          if Obs.enabled () then begin
            let status, verdict =
              match result with
              | Checker.Safe _ -> ("decided", "safe")
              | Checker.Unsafe _ -> ("decided", "unsafe")
              | Checker.Pass _ -> ("passed", "none")
              | Checker.Error _ -> ("error", "none")
              | Checker.Annotated _ -> assert false (* stripped above *)
            in
            Obs.add_attrs sp
              ([
                 A.str "status" status; A.str "verdict" verdict;
                 A.float "seconds" dt; A.float "cpu_seconds" dt_cpu;
               ]
              @ stage_metrics)
          end;
          Obs.end_span sp;
          let entry status detail =
            {
              Outcome.stage = c.Checker.name;
              procedure = c.Checker.procedure;
              status;
              detail;
              seconds = dt;
              attrs = stage_metrics;
            }
          in
          match result with
          | Checker.Safe detail ->
              record (entry Outcome.Decided detail) false;
              finish Outcome.Safe (Some c.Checker.procedure) detail
          | Checker.Unsafe (detail, ev) ->
              record (entry Outcome.Decided detail) true;
              finish (Outcome.Unsafe ev) (Some c.Checker.procedure) detail
          | Checker.Pass detail ->
              record (entry Outcome.Passed detail) false;
              go rest
          | Checker.Error detail ->
              record (entry Outcome.Errored detail) false;
              go rest
          | Checker.Annotated _ -> assert false (* stripped above *)
        end
  in
  go checkers

let verdict_label (o : _ Outcome.t) =
  match o.Outcome.verdict with
  | Outcome.Safe -> "safe"
  | Outcome.Unsafe _ -> "unsafe"
  | Outcome.Unknown _ -> "unknown"

(* A decision keyed by the caller's fingerprint of [sys], so a caller
   that already holds it ([decide_batch], [decide_explained]) does not
   digest the system again. *)
let decide_keyed ?budget t fp sys =
  let sp = Obs.start_span "engine.decide" in
  let finish fp (o : _ Outcome.t) =
    if Obs.enabled () then
      Obs.add_attrs sp
        [
          A.str "fingerprint" (Digest.to_hex (Digest.string fp));
          A.str "verdict" (verdict_label o);
          A.str "procedure" (Outcome.provenance o);
          A.bool "cache_hit" o.Outcome.cached;
        ];
    Obs.end_span sp;
    o
  in
  match Option.bind t.cache (fun c -> Lru.find c fp) with
  | Some o ->
      Stats.record_decision t.stats ~cached:true
        ~unknown:(not (Outcome.decided o));
      finish fp { o with Outcome.cached = true }
  | None ->
      if t.cache <> None then Stats.record_cache_miss t.stats;
      let o = run ~stats:t.stats ?budget t.checkers sys in
      (match (t.cache, o.Outcome.verdict) with
      | Some _, Outcome.Unknown _ -> () (* budget-dependent: never cached *)
      | Some c, _ -> Lru.add c fp o
      | None, _ -> ());
      finish fp o

let decide ?budget t sys = decide_keyed ?budget t (t.fingerprint sys) sys

let explain t sys (o : _ Outcome.t) =
  Explain.of_outcome ~checkers:t.checkers ~fingerprint:(t.fingerprint sys) sys
    o

let decide_explained ?budget t sys =
  let fingerprint = t.fingerprint sys in
  let o = decide_keyed ?budget t fingerprint sys in
  (o, Explain.of_outcome ~checkers:t.checkers ~fingerprint sys o)

type batch_report = {
  submitted : int;
  unique : int;
  batch_dedup_hits : int;
  cache_hits : int;
  cache_misses : int;
  pair_hits : int;
  pair_misses : int;
  pairs_redecided : int;
  batch_seconds : float;
  per_procedure : (string * int) list;
}

let hit_rate r =
  if r.submitted = 0 then 0.
  else
    float_of_int (r.batch_dedup_hits + r.cache_hits)
    /. float_of_int r.submitted

(* Per-procedure tally: constant-time bumps plus a first-seen order
   list, replacing the old O(n²) assoc-list shuffle. *)
module Tally = struct
  type t = {
    counts : (string, int) Hashtbl.t;
    mutable order : string list;  (* reversed first-seen *)
  }

  let create () = { counts = Hashtbl.create 8; order = [] }

  let bump t (o : _ Outcome.t) =
    let label = Outcome.provenance o in
    match Hashtbl.find_opt t.counts label with
    | Some n -> Hashtbl.replace t.counts label (n + 1)
    | None ->
        Hashtbl.add t.counts label 1;
        t.order <- label :: t.order

  let to_list t =
    List.rev_map (fun l -> (l, Hashtbl.find t.counts l)) t.order
end

let decide_batch ?budget t syss =
  let submitted = List.length syss in
  let sp =
    Obs.start_span "engine.batch"
      ~attrs:(fun () -> [ A.int "submitted" submitted ])
  in
  let t0 = Obs.mono_s () in
  (* Pair-cache deltas over the batch: snapshot the engine's counters
     here and subtract on the way out. *)
  let ph0 = Stats.pair_hits t.stats
  and pm0 = Stats.pair_misses t.stats
  and pr0 = Stats.pairs_redecided t.stats in
  (* Each submission is fingerprinted once, and a distinct fingerprint
     is decided once, under that digest. *)
  let seen : (string, 'a Outcome.t) Hashtbl.t = Hashtbl.create 64 in
  let fps = Hashtbl.create 64 in
  let dedup = ref 0 and hits = ref 0 and misses = ref 0 in
  let tally = Tally.create () in
  let outcomes =
    List.map
      (fun sys ->
        let fp = t.fingerprint sys in
        Hashtbl.replace fps fp ();
        match Hashtbl.find_opt seen fp with
        | Some o ->
            incr dedup;
            { o with Outcome.cached = true }
        | None ->
            let o = decide_keyed ?budget t fp sys in
            if o.Outcome.cached then incr hits else incr misses;
            (* Unknowns are not replicated across the batch either: a
               duplicate of an undecided system re-runs the pipeline. *)
            if Outcome.decided o then Hashtbl.replace seen fp o;
            Tally.bump tally o;
            o)
      syss
  in
  let report =
    {
      submitted;
      unique = Hashtbl.length fps;
      batch_dedup_hits = !dedup;
      cache_hits = !hits;
      cache_misses = !misses;
      pair_hits = Stats.pair_hits t.stats - ph0;
      pair_misses = Stats.pair_misses t.stats - pm0;
      pairs_redecided = Stats.pairs_redecided t.stats - pr0;
      batch_seconds = Obs.mono_s () -. t0;
      per_procedure = Tally.to_list tally;
    }
  in
  if Obs.enabled () then
    Obs.add_attrs sp
      [
        A.int "unique" report.unique;
        A.int "batch_dedup_hits" report.batch_dedup_hits;
        A.int "cache_hits" report.cache_hits;
        A.int "cache_misses" report.cache_misses;
      ];
  Obs.end_span sp;
  (outcomes, report)

let pp_batch_report ppf r =
  Format.fprintf ppf
    "@[<v>batch: %d submitted, %d unique, %d batch duplicate(s), %d cache \
     hit(s), %d miss(es); hit rate %.1f%%; %.3f ms%s@,per procedure: %s@]"
    r.submitted r.unique r.batch_dedup_hits r.cache_hits r.cache_misses
    (100. *. hit_rate r)
    (r.batch_seconds *. 1_000.)
    (* Pair-cache numbers appear only when the pair store was consulted,
       so pair-free (two-transaction) batches print exactly as before. *)
    (if r.pair_hits + r.pair_misses > 0 then
      Printf.sprintf "; pairs: %d reused, %d re-decided" r.pair_hits
        r.pairs_redecided
    else "")
    (if r.per_procedure = [] then "-"
     else
       String.concat ", "
         (List.map
            (fun (p, n) -> Printf.sprintf "%s ×%d" p n)
            r.per_procedure))
