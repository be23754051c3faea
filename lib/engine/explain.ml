module A = Distlock_obs.Attr
module J = Distlock_obs.Json

(* The provenance record `check --explain` surfaces: the whole checker
   table in pipeline order (including the stages that never ran and
   why), the cache disposition, the exhaustive-oracle statistics when
   an oracle stage ran, and the winning procedure. Assembled from an
   outcome plus the engine's checker list — everything here is plain
   strings and numbers, so the record serializes without knowing the
   evidence type. *)

let schema_version = "distlock.explain/1"

type stage = {
  checker : string;
  procedure : string;
  cost : string;
  applicable : bool;
  status : string;
      (* decided | passed | error | inapplicable | not-reached *)
  detail : string;
  seconds : float;
  budget_spent_s : float;  (* cumulative pipeline time when this stage ended *)
  metrics : A.t;  (* checker-reported measurements, possibly empty *)
}

type cache = {
  fingerprint : string;  (* hex digest of the system fingerprint *)
  hit : bool;
  pair_hits : int;
  pair_misses : int;
  pairs_redecided : int;
}

type oracle = {
  states : int;
  dup_hits : int;
  dedup_ratio : float;  (* pruned transitions / explored transitions *)
  exhausted : bool;
}

type t = {
  verdict : string;
  procedure : string;
  detail : string;
  cached : bool;
  seconds : float;
  cache : cache;
  stages : stage list;
  oracle : oracle option;
}

let int_metric metrics key =
  match List.assoc_opt key metrics with Some (A.Int n) -> Some n | _ -> None

let bool_metric metrics key =
  match List.assoc_opt key metrics with Some (A.Bool b) -> b | _ -> false

(* Walk the full checker table against the recorded trace: trace
   entries cover exactly the applicable stages the pipeline reached, in
   order, so one linear merge recovers a status for every checker —
   including "inapplicable" and "not-reached", which the trace by
   construction cannot contain. *)
let stages_of ~checkers sys (o : _ Outcome.t) =
  let spent = ref 0. in
  let rec go checkers (trace : Outcome.stage_trace list) decided =
    match checkers with
    | [] -> []
    | (c : _ Checker.t) :: cs -> (
        let static status =
          {
            checker = c.Checker.name;
            procedure = Checker.procedure_label c.Checker.procedure;
            cost = Checker.cost_label c.Checker.procedure;
            applicable = status <> "inapplicable";
            status;
            detail = "";
            seconds = 0.;
            budget_spent_s = !spent;
            metrics = [];
          }
        in
        match trace with
        | (e : Outcome.stage_trace) :: es when e.Outcome.stage = c.Checker.name
          ->
            spent := !spent +. e.Outcome.seconds;
            let status = String.lowercase_ascii
                (Outcome.status_label e.Outcome.status) in
            (* Bound before the cons: [::] evaluates its tail first, and
               the recursion advances [spent]. *)
            let entry =
              {
                checker = c.Checker.name;
                procedure = Checker.procedure_label c.Checker.procedure;
                cost = Checker.cost_label c.Checker.procedure;
                applicable = true;
                status;
                detail = e.Outcome.detail;
                seconds = e.Outcome.seconds;
                budget_spent_s = !spent;
                metrics = e.Outcome.attrs;
              }
            in
            entry :: go cs es (decided || e.Outcome.status = Outcome.Decided)
        | _ ->
            let entry =
              if not (c.Checker.applicable sys) then static "inapplicable"
              else
                (* Applicable but absent from the trace: the pipeline
                   ended (decided or ran out of stages) before it. *)
                static "not-reached"
            in
            entry :: go cs trace decided)
  in
  go checkers o.Outcome.trace false

let oracle_of stages =
  (* The last stage that reported oracle statistics (the state-graph
     stage on either the pair or the multi-transaction path). *)
  List.fold_left
    (fun acc (s : stage) ->
      match int_metric s.metrics "states" with
      | None -> acc
      | Some states ->
          let dup_hits =
            Option.value ~default:0 (int_metric s.metrics "dup_hits")
          in
          let explored = states + dup_hits in
          Some
            {
              states;
              dup_hits;
              dedup_ratio =
                (if explored = 0 then 0.
                 else float_of_int dup_hits /. float_of_int explored);
              exhausted = bool_metric s.metrics "exhausted";
            })
    None stages

let cache_of ~fingerprint stages (o : _ Outcome.t) =
  let sum key =
    List.fold_left
      (fun acc (s : stage) ->
        acc + Option.value ~default:0 (int_metric s.metrics key))
      0 stages
  in
  {
    fingerprint = Digest.to_hex (Digest.string fingerprint);
    hit = o.Outcome.cached;
    pair_hits = sum "pair_hits";
    pair_misses = sum "pair_misses";
    pairs_redecided = sum "pairs_redecided";
  }

let of_outcome ~checkers ~fingerprint sys (o : _ Outcome.t) =
  let stages = stages_of ~checkers sys o in
  {
    verdict =
      (match o.Outcome.verdict with
      | Outcome.Safe -> "safe"
      | Outcome.Unsafe _ -> "unsafe"
      | Outcome.Unknown _ -> "unknown");
    procedure = Outcome.provenance o;
    detail = o.Outcome.detail;
    cached = o.Outcome.cached;
    seconds = o.Outcome.seconds;
    cache = cache_of ~fingerprint stages o;
    stages;
    oracle = oracle_of stages;
  }

(* ------------------------------------------------------------------ *)
(* Serialization. *)

let stage_to_json (s : stage) =
  J.Obj
    ([
       ("checker", J.Str s.checker);
       ("procedure", J.Str s.procedure);
       ("cost", J.Str s.cost);
       ("applicable", J.Bool s.applicable);
       ("status", J.Str s.status);
       ("detail", J.Str s.detail);
       ("seconds", J.Float s.seconds);
       ("budget_spent_s", J.Float s.budget_spent_s);
     ]
    @ if s.metrics = [] then [] else [ ("metrics", A.to_json s.metrics) ])

let to_json t =
  J.Obj
    ([
       ("schema", J.Str schema_version);
       ("verdict", J.Str t.verdict);
       ("procedure", J.Str t.procedure);
       ("detail", J.Str t.detail);
       ("cached", J.Bool t.cached);
       ("seconds", J.Float t.seconds);
       ( "cache",
         J.Obj
           [
             ("fingerprint", J.Str t.cache.fingerprint);
             ("hit", J.Bool t.cache.hit);
             ("pair_hits", J.Int t.cache.pair_hits);
             ("pair_misses", J.Int t.cache.pair_misses);
             ("pairs_redecided", J.Int t.cache.pairs_redecided);
           ] );
       ("stages", J.List (List.map stage_to_json t.stages));
     ]
    @
    match t.oracle with
    | None -> []
    | Some o ->
        [
          ( "oracle",
            J.Obj
              [
                ("states", J.Int o.states);
                ("dup_hits", J.Int o.dup_hits);
                ("dedup_ratio", J.Float o.dedup_ratio);
                ("exhausted", J.Bool o.exhausted);
              ] );
        ])

let pp ppf t =
  Format.fprintf ppf "@[<v>explain: %s via %s in %.3f ms (%s)" t.verdict
    t.procedure (t.seconds *. 1_000.)
    (if t.cache.hit then "cache hit on " ^ t.cache.fingerprint
     else "fingerprint " ^ t.cache.fingerprint);
  if t.cache.pair_hits + t.cache.pair_misses > 0 then
    Format.fprintf ppf "@,pairs: %d reused, %d re-decided" t.cache.pair_hits
      t.cache.pairs_redecided;
  List.iter
    (fun (s : stage) ->
      let line =
        Printf.sprintf "%-17s [%-7s] %-4s %-12s" s.checker s.procedure s.cost
          s.status
        ^ (if s.applicable && s.status <> "not-reached" then
             Printf.sprintf " %8.3f ms (spent %8.3f ms)" (s.seconds *. 1_000.)
               (s.budget_spent_s *. 1_000.)
           else "")
        ^ (if s.detail <> "" then "  " ^ s.detail else "")
        ^
        if s.metrics <> [] then
          Format.asprintf "  {%a}" A.pp s.metrics
        else ""
      in
      (* Right-trim: padded columns must not leave trailing blanks on
         lines with nothing after them (cram tests flag them). *)
      let n = ref (String.length line) in
      while !n > 0 && line.[!n - 1] = ' ' do decr n done;
      Format.fprintf ppf "@,%s" (String.sub line 0 !n))
    t.stages;
  (match t.oracle with
  | None -> ()
  | Some o ->
      Format.fprintf ppf
        "@,oracle: %d state(s), %d duplicate hit(s) (%.1f%% dedup)%s" o.states
        o.dup_hits (100. *. o.dedup_ratio)
        (if o.exhausted then ", budget exhausted" else ""));
  Format.fprintf ppf "@]"
