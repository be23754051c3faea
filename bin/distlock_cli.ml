(* distlock — command-line front end.

   Subcommands:
     check     decide safety of a transaction system file
     batch     decide many files at once through the cached engine
     mutate    decide a stream of edits of one system incrementally
     dgraph    print D(T1,T2) (optionally as Graphviz)
     figures   print the paper's worked examples with verdicts
     reduce    encode a DIMACS CNF as a transaction system (Theorem 3)
     simulate  run the lock-manager simulator on a system file *)

open Cmdliner
open Distlock_core
open Distlock_txn
module E = Distlock_engine
module Obs = Distlock_obs.Obs
module J = Distlock_obs.Json

(* A file the run cannot read or create ends it like a parse error:
   one line naming the path, exit 2. *)
let or_exit path f =
  try f path
  with Sys_error msg ->
    Printf.eprintf "error: %s\n"
      (if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg);
    exit 2

let read_file path =
  or_exit path (fun p -> In_channel.with_open_bin p In_channel.input_all)

let create_file path = or_exit path open_out

let load_system path =
  match Parse.system_of_string (read_file path) with
  | Ok sys -> sys
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2

(* The pair-only subcommands refuse any other system as they refuse a
   file that does not parse. *)
let load_pair cmd path =
  let sys = load_system path in
  if System.num_txns sys <> 2 then begin
    Printf.eprintf "error: %s expects a two-transaction system\n" cmd;
    exit 2
  end;
  sys

(* A flag value out of range ends the run before any work, as a file
   that cannot be read does: one line naming the flag, exit 2. *)
let require flag bound ok v =
  if not (ok v) then begin
    Printf.eprintf "distlock: %s must be %s\n" flag bound;
    exit 2
  end

(* `--budget` is a step count. *)
let steps_budget = function
  | None -> E.Budget.unlimited
  | Some n ->
      require "--budget" ">= 0" (fun n -> n >= 0) n;
      E.Budget.of_steps n

(* The labelled registries `--metrics`, `--metrics-port` and the flight
   recorder export: the global one, then each registered engine's or
   session's stats, in registration order. Read on every use, so stats
   registered after the server starts are scraped too. Subcommands
   register at most one, so the Prometheus output never carries
   duplicate samples. *)
let metric_registries = ref [ ("global", Obs.global) ]

let registries () = !metric_registries

let register_stats label s =
  metric_registries := !metric_registries @ [ (label, E.Stats.registry s) ]

let register_engine e =
  register_stats "engine" (Decision.stats e);
  e

(* One engine instance shared by every decision the process makes, so
   repeated systems (e.g. across `figures`) hit the verdict cache. *)
let engine = lazy (register_engine (Decision.create ()))

(* ------------------------------------------------------------------ *)
(* Observability flags. [--metrics] and [--log-level] are uniform across
   subcommands; [--trace] means "JSONL spans/events" everywhere except
   `simulate`, where it exports the step event stream instead. *)

let write_metrics oc =
  let ppf = Format.formatter_of_out_channel oc in
  List.iter
    (fun (_, r) -> Distlock_obs.Registry.pp_prometheus ppf r)
    (registries ());
  Format.pp_print_flush ppf ()

let start_metrics_server port =
  match Distlock_obs.Expose.start ~port ~registries () with
  | Ok srv ->
      (* The bound port goes to stderr so it never perturbs stdout
         expectations; with --metrics-port 0 it is the only way to learn
         the ephemeral port. *)
      Printf.eprintf "metrics: serving on http://127.0.0.1:%d/metrics\n%!"
        (Distlock_obs.Expose.port srv);
      at_exit (fun () -> Distlock_obs.Expose.stop srv);
      srv
  | Error msg ->
      Printf.eprintf "distlock: %s\n" msg;
      exit 2

(* The flight recorder rides along on every invocation as the one
   sink. --trace and --chrome-trace render it at exit, and an anomaly
   (a decision ending Unknown, a --verify divergence) dumps its newest
   records to stderr with a Gc snapshot and the current metric values.
   A run that names a trace file keeps every record until exit; any
   other run keeps the default bounded ring. Every output file is
   created before any work, so a bad path fails the run up front. *)
let setup_obs span_trace chrome metrics metrics_port level =
  let span_trace = Option.map create_file span_trace in
  let chrome = Option.map create_file chrome in
  let metrics = Option.map create_file metrics in
  Obs.set_level level;
  (match metrics_port with
  | None -> ()
  | Some port -> ignore (start_metrics_server port));
  let module R = Distlock_obs.Recorder in
  let r =
    if Option.is_none span_trace && Option.is_none chrome then R.create ()
    else R.create ~capacity:max_int ()
  in
  R.set_registries r registries;
  R.set_global (Some r);
  Obs.set_sink (R.sink r);
  let at_exit_write file render =
    Option.iter
      (fun oc ->
        at_exit (fun () ->
            render oc;
            close_out oc))
      file
  in
  at_exit_write span_trace (R.write_jsonl r);
  at_exit_write chrome (Distlock_obs.Trace_export.write r);
  at_exit_write metrics write_metrics

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "On exit, write the accumulated metrics (engine counters, \
           stage latency histograms, simulator totals) to $(docv) in \
           Prometheus text exposition format")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Serve live telemetry over HTTP on 127.0.0.1:$(docv) for the \
           duration of the run: $(b,/metrics) (Prometheus text), \
           $(b,/healthz), and $(b,/vars) (JSON snapshot). Port 0 picks a \
           free port; the bound address is printed to stderr")

let log_level_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("error", Obs.Error); ("warn", Obs.Warn); ("info", Obs.Info);
             ("debug", Obs.Debug) ])
        Obs.Info
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Event verbosity for $(b,--trace): $(docv) is error, warn, \
           info, or debug (debug adds per-lock traffic)")

let chrome_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome-trace" ] ~docv:"FILE"
        ~doc:
          "On exit, write the span/event stream as a Chrome trace-event \
           JSON file to $(docv) — open it in chrome://tracing or \
           Perfetto")

(* Full setup: --trace carries structured spans/events as JSON Lines. *)
let obs_setup =
  let span_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "On exit, write structured spans and events (engine \
             pipeline stages, simulator lifecycle) as JSON Lines to \
             $(docv)")
  in
  Term.(const setup_obs $ span_trace $ chrome_trace_arg $ metrics_arg
        $ metrics_port_arg $ log_level_arg)

(* Reduced setup for `simulate`, which owns the --trace flag (the step
   stream) but still exports its spans via --chrome-trace. *)
let obs_setup_no_trace =
  Term.(const setup_obs $ const None $ chrome_trace_arg $ metrics_arg
        $ metrics_port_arg $ log_level_arg)

let print_stats (o : Decision.evidence E.Outcome.t) =
  Format.printf "--@.procedure: %s%s@." (E.Outcome.provenance o)
    (if o.E.Outcome.cached then " (cached)" else "");
  Format.printf "%a@." E.Outcome.pp_trace o.E.Outcome.trace;
  Format.printf "%a@." E.Stats.pp (Decision.stats (Lazy.force engine))

(* Returns an exit status: 0 safe, 1 unsafe, 3 unknown. *)
let print_outcome ?(stats = false) sys (o : Decision.evidence E.Outcome.t) =
  let code =
    match o.E.Outcome.verdict with
    | E.Outcome.Safe ->
        if System.num_txns sys = 2 then
          Printf.printf "SAFE — %s\n" o.E.Outcome.detail
        else Printf.printf "SAFE — Proposition 2\n";
        0
    | E.Outcome.Unsafe (Decision.Pair ev) ->
        Printf.printf "UNSAFE\n";
        (match ev with
        | Checkers.Certificate c -> Format.printf "%a@." (Certificate.pp sys) c
        | Checkers.Counterexample h ->
            Printf.printf "non-serializable schedule:\n  %s\n"
              (Distlock_sched.Schedule.to_string sys h));
        1
    | E.Outcome.Unsafe (Decision.Multi reason) ->
        Printf.printf "UNSAFE — %s\n" (Decision.describe_multi sys reason);
        1
    | E.Outcome.Unknown msg ->
        Printf.printf "UNKNOWN — %s\n" msg;
        3
  in
  if stats then print_stats o;
  code

let print_verdict ?stats sys =
  print_outcome ?stats sys (Decision.decide (Lazy.force engine) sys)

let exit_code (o : _ E.Outcome.t) =
  match o.E.Outcome.verdict with
  | E.Outcome.Safe -> 0
  | E.Outcome.Unsafe _ -> 1
  | E.Outcome.Unknown _ -> 3

(* ------------------------------------------------------------------ *)
(* --json rendering: verdict, deciding procedure, stage trace, timings —
   machine-readable so CI stops parsing the pretty output. *)

let json_of_outcome ?file ?explain sys (o : Decision.evidence E.Outcome.t) =
  let verdict =
    match o.E.Outcome.verdict with
    | E.Outcome.Safe -> "safe"
    | E.Outcome.Unsafe _ -> "unsafe"
    | E.Outcome.Unknown _ -> "unknown"
  in
  let detail =
    match o.E.Outcome.verdict with
    | E.Outcome.Unsafe (Decision.Multi reason) -> Decision.describe_multi sys reason
    | _ -> o.E.Outcome.detail
  in
  let schedule =
    match o.E.Outcome.verdict with
    | E.Outcome.Unsafe ev -> (
        match Decision.schedule_of_evidence ev with
        | Some h ->
            [ ("schedule", J.Str (Distlock_sched.Schedule.to_string sys h)) ]
        | None -> [])
    | _ -> []
  in
  let stage (s : E.Outcome.stage_trace) =
    J.Obj
      ([
         ("stage", J.Str s.E.Outcome.stage);
         ("procedure", J.Str (E.Checker.procedure_label s.E.Outcome.procedure));
         ("status", J.Str (E.Outcome.status_label s.E.Outcome.status));
         ("detail", J.Str s.E.Outcome.detail);
         ("seconds", J.Float s.E.Outcome.seconds);
       ]
      (* Checker-reported measurements; absent (not empty) when a stage
         reported none, so pre-existing outputs are byte-identical. *)
      @
      if s.E.Outcome.attrs = [] then []
      else [ ("metrics", Distlock_obs.Attr.to_json s.E.Outcome.attrs) ])
  in
  J.Obj
    ((match file with Some f -> [ ("file", J.Str f) ] | None -> [])
    @ [
        ("verdict", J.Str verdict);
        ("procedure", J.Str (E.Outcome.provenance o));
        ("detail", J.Str detail);
        ("cached", J.Bool o.E.Outcome.cached);
        ("seconds", J.Float o.E.Outcome.seconds);
      ]
    @ schedule
    @ [ ("stages", J.List (List.map stage o.E.Outcome.trace)) ]
    @
    match explain with
    | None -> []
    | Some ex -> [ ("explain", E.Explain.to_json ex) ])

let json_of_report (r : E.Engine.batch_report) =
  J.Obj
    [
      ("submitted", J.Int r.E.Engine.submitted);
      ("unique", J.Int r.E.Engine.unique);
      ("batch_dedup_hits", J.Int r.E.Engine.batch_dedup_hits);
      ("cache_hits", J.Int r.E.Engine.cache_hits);
      ("cache_misses", J.Int r.E.Engine.cache_misses);
      ("pair_hits", J.Int r.E.Engine.pair_hits);
      ("pair_misses", J.Int r.E.Engine.pair_misses);
      ("pairs_redecided", J.Int r.E.Engine.pairs_redecided);
      ("hit_rate", J.Float (E.Engine.hit_rate r));
      ("seconds", J.Float r.E.Engine.batch_seconds);
      ( "per_procedure",
        J.Obj (List.map (fun (p, n) -> (p, J.Int n)) r.E.Engine.per_procedure)
      );
    ]

(* Engine counters and per-stage timing quantiles for --json --stats. *)
let json_of_stats st =
  let qs = E.Stats.quantiles st in
  J.Obj
    [
      ("decisions", J.Int (E.Stats.decisions st));
      ("unknowns", J.Int (E.Stats.unknowns st));
      ("cache_hits", J.Int (E.Stats.cache_hits st));
      ("cache_misses", J.Int (E.Stats.cache_misses st));
      ( "stages",
        J.List
          (List.map
             (fun (s : E.Stats.stage) ->
               let q50, q90, q99 =
                 match List.assoc_opt s.E.Stats.stage_name qs with
                 | Some t -> t
                 | None -> (Float.nan, Float.nan, Float.nan)
               in
               J.Obj
                 [
                   ("stage", J.Str s.E.Stats.stage_name);
                   ("runs", J.Int s.E.Stats.attempts);
                   ("safe", J.Int s.E.Stats.decided_safe);
                   ("unsafe", J.Int s.E.Stats.decided_unsafe);
                   ("passed", J.Int s.E.Stats.passed);
                   ("errors", J.Int s.E.Stats.errors);
                   ("seconds", J.Float s.E.Stats.seconds);
                   ("p50_seconds", J.Float q50);
                   ("p90_seconds", J.Float q90);
                   ("p99_seconds", J.Float q99);
                 ])
             (E.Stats.stages st)) );
    ]

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Also print the deciding procedure, the per-stage pipeline trace, \
           and the engine's cumulative counters")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the verdict, deciding procedure, stage trace, and \
           timings as JSON instead of pretty text")

(* Bypass the staged engine and decide with one exhaustive oracle.
   Exit status mirrors `check`: 0 safe, 1 unsafe, 3 budget exhausted. *)
let run_oracle sys which =
  let name, verdict =
    match which with
    | `States -> ("state-graph", Brute.safe_by_states sys)
    | `Schedules -> ("schedule-enumeration", Brute.safe_by_schedules sys)
    | `Extensions ->
        if System.num_txns sys <> 2 then begin
          Printf.eprintf
            "error: --oracle extensions needs a two-transaction system\n";
          exit 2
        end;
        ("extension-pair", Brute.safe_by_extensions sys)
  in
  match verdict with
  | Brute.Safe ->
      Printf.printf "SAFE — exhaustive %s oracle\n" name;
      0
  | Brute.Unsafe h ->
      Printf.printf "UNSAFE — exhaustive %s oracle\n" name;
      Printf.printf "non-serializable schedule:\n  %s\n"
        (Distlock_sched.Schedule.to_string sys h);
      1
  | Brute.Exhausted { examined; limit } ->
      Printf.printf "UNKNOWN — %s oracle exhausted its budget (%d of %d)\n"
        name examined limit;
      3

let explain_flag =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Emit the full decision-provenance record: every pipeline \
           stage with status and timing (including inapplicable and \
           not-reached stages), cache and pair-cache disposition, and \
           state-graph oracle statistics. With $(b,--json), embedded as \
           an $(i,explain) object")

let check_cmd =
  let run () file oracle budget explain stats json =
    let budget = steps_budget budget in
    let sys = load_system file in
    (match System.validate sys with
    | [] -> ()
    | vs ->
        List.iter
          (fun (t, v) ->
            Printf.eprintf "warning: %s: %s\n" (Txn.name t)
              (Validate.to_string (System.db sys) t v))
          vs);
    match oracle with
    | Some which -> exit (run_oracle sys which)
    | None ->
        let eng = Lazy.force engine in
        let o = Decision.decide ~budget eng sys in
        let ex = if explain then Some (Decision.explain eng sys o) else None in
        if json then begin
          let j = json_of_outcome ~file ?explain:ex sys o in
          let j =
            match (j, stats) with
            | J.Obj fields, true ->
                J.Obj
                  (fields
                  @ [ ("stats", json_of_stats (Decision.stats eng)) ])
            | _ -> j
          in
          print_endline (J.to_string_pretty j);
          exit (exit_code o)
        end
        else begin
          let code = print_outcome ~stats sys o in
          Option.iter (fun ex -> Format.printf "--@.%a@." E.Explain.pp ex) ex;
          exit code
        end
  in
  let oracle =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("states", `States); ("schedules", `Schedules);
                  ("extensions", `Extensions) ]))
          None
      & info [ "oracle" ] ~docv:"ORACLE"
          ~doc:
            "Bypass the staged engine and decide with one exhaustive \
             oracle: $(b,states) (memoized state graph), $(b,schedules) \
             (legal-schedule enumeration), or $(b,extensions) (Lemma 1 \
             over all extension pairs; two-transaction systems only)")
  in
  let budget =
    Arg.(
      value & opt (some int) None
      & info [ "budget" ]
          ~doc:"Step budget for the decision (caps the exhaustive stages)"
          ~docv:"STEPS")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Decide safety of a locked transaction system")
    Term.(
      const run $ obs_setup $ file_arg $ oracle $ budget $ explain_flag
      $ stats_flag $ json_flag)

let batch_cmd =
  let run () files repeat no_cache budget explain stats json =
    require "--repeat" ">= 1" (fun n -> n >= 1) repeat;
    let budget = steps_budget budget in
    let named = List.map (fun f -> (f, load_system f)) files in
    let named = List.concat (List.init repeat (fun _ -> named)) in
    let eng =
      register_engine
        (Decision.create
           ~cache_capacity:(if no_cache then 0 else 1024)
           ~pair_cache_capacity:(if no_cache then 0 else 4096)
           ())
    in
    let outcomes, report =
      Decision.decide_batch ~budget eng (List.map snd named)
    in
    let explain_of sys o =
      if explain then Some (Decision.explain eng sys o) else None
    in
    if json then
      print_endline
        (J.to_string_pretty
           (J.Obj
              ([
                 ( "results",
                   J.List
                     (List.map2
                        (fun (file, sys) o ->
                          json_of_outcome ~file ?explain:(explain_of sys o) sys
                            o)
                        named outcomes) );
                 ("report", json_of_report report);
               ]
              @
              if stats then
                [ ("stats", json_of_stats (Decision.stats eng)) ]
              else [])))
    else begin
      List.iter2
        (fun (file, sys) (o : Decision.evidence E.Outcome.t) ->
          let line =
            match o.E.Outcome.verdict with
            | E.Outcome.Safe -> "SAFE — " ^ o.E.Outcome.detail
            | E.Outcome.Unsafe (Decision.Pair _) ->
                "UNSAFE — " ^ o.E.Outcome.detail
            | E.Outcome.Unsafe (Decision.Multi reason) ->
                "UNSAFE — " ^ Decision.describe_multi sys reason
            | E.Outcome.Unknown msg -> "UNKNOWN — " ^ msg
          in
          Printf.printf "%s: %s%s\n" file line
            (if o.E.Outcome.cached then " (cached)" else "");
          Option.iter
            (fun ex -> Format.printf "%a@." E.Explain.pp ex)
            (explain_of sys o))
        named outcomes;
      Format.printf "%a@." E.Engine.pp_batch_report report;
      if stats then Format.printf "%a@." E.Stats.pp (Decision.stats eng)
    end;
    exit (List.fold_left (fun acc o -> max acc (exit_code o)) 0 outcomes)
  in
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE...")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ]
          ~doc:"Submit the file list $(docv) times (cache-behaviour demos)"
          ~docv:"N")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the verdict cache")
  in
  let budget =
    Arg.(
      value & opt (some int) None
      & info [ "budget" ]
          ~doc:"Step budget per decision (caps the exhaustive stages)"
          ~docv:"STEPS")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Decide many system files through the cached engine, with \
          fingerprint deduplication and a hit-rate report")
    Term.(
      const run $ obs_setup $ files $ repeat $ no_cache $ budget
      $ explain_flag $ stats_flag $ json_flag)

(* `mutate` drives an incremental session over a stream of snapshots:
   the first FILE is the base system, every later FILE is the system
   after one edit batch. Consecutive snapshots are diffed by transaction
   name and content fingerprint into add / remove / replace operations,
   and the session re-decides after each step, reusing every pair
   verdict and cycle judgement whose inputs the edit left untouched. *)
let mutate_cmd =
  let run () files verify budget stats json =
    let budget = steps_budget budget in
    match files with
    | [] -> assert false (* non_empty *)
    | base_file :: edit_files ->
        let base = load_system base_file in
        let session = Incremental.of_system base in
        register_stats "session" (Incremental.stats session);
        let db_sig sys =
          let db = System.db sys in
          List.map
            (fun e -> (Database.name db e, Database.site db e))
            (Database.entities db)
        in
        let base_sig = db_sig base in
        (* name -> fingerprint of what the session currently holds *)
        let fpt = Hashtbl.create 16 in
        Array.iter
          (fun t -> Hashtbl.replace fpt (Txn.name t) (Txn.fingerprint t))
          (System.txns base);
        (* From-scratch comparator for --verify: no verdict cache, no
           pair store, so agreement is with a genuinely fresh decision. *)
        let scratch =
          lazy (Decision.create ~cache_capacity:0 ~pair_cache_capacity:0 ())
        in
        let code = ref 0 in
        let steps = ref [] in
        let verdict_label = function
          | Incremental.Safe -> "safe"
          | Incremental.Unsafe _ -> "unsafe"
          | Incremental.Unknown _ -> "unknown"
        in
        let step file ~added ~removed ~replaced =
          let o = Incremental.decide_delta ~budget session in
          (code :=
             max !code
               (match o.Incremental.verdict with
               | Incremental.Safe -> 0
               | Incremental.Unsafe _ -> 1
               | Incremental.Unknown _ -> 3));
          if verify && Incremental.num_txns session > 0 then begin
            let sys = Incremental.system session in
            let fresh = Decision.decide ~budget (Lazy.force scratch) sys in
            let fresh_label =
              match fresh.E.Outcome.verdict with
              | E.Outcome.Safe -> "safe"
              | E.Outcome.Unsafe _ -> "unsafe"
              | E.Outcome.Unknown _ -> "unknown"
            in
            if fresh_label <> verdict_label o.Incremental.verdict then begin
              Printf.eprintf
                "error: %s: incremental verdict %s disagrees with \
                 from-scratch verdict %s\n"
                file
                (verdict_label o.Incremental.verdict)
                fresh_label;
              (* A divergence is exactly what the flight recorder is
                 for: dump the recent spans and counters before dying. *)
              Distlock_obs.Recorder.anomaly
                ~reason:
                  (Printf.sprintf
                     "mutate --verify divergence at %s: incremental %s vs \
                      from-scratch %s"
                     file
                     (verdict_label o.Incremental.verdict)
                     fresh_label);
              exit 4
            end
          end;
          if json then
            steps :=
              J.Obj
                [
                  ("file", J.Str file);
                  ("verdict", J.Str (verdict_label o.Incremental.verdict));
                  ("added", J.Int added);
                  ("removed", J.Int removed);
                  ("replaced", J.Int replaced);
                  ("pairs_total", J.Int o.Incremental.pairs_total);
                  ("pairs_reused", J.Int o.Incremental.pairs_reused);
                  ("pairs_redecided", J.Int o.Incremental.pairs_redecided);
                  ("cycles_total", J.Int o.Incremental.cycles_total);
                  ("cycles_reused", J.Int o.Incremental.cycles_reused);
                  ("cycles_rejudged", J.Int o.Incremental.cycles_rejudged);
                  ("seconds", J.Float o.Incremental.seconds);
                ]
              :: !steps
          else begin
            let line =
              match o.Incremental.verdict with
              | Incremental.Safe -> "SAFE"
              | Incremental.Unsafe r ->
                  "UNSAFE — "
                  ^ Decision.describe_multi (Incremental.system session) r
              | Incremental.Unknown m -> "UNKNOWN — " ^ m
            in
            Printf.printf "%s: %s\n" file line;
            Printf.printf
              "  edits: +%d -%d ~%d; pairs: %d reused, %d re-decided; \
               cycles: %d reused, %d re-judged\n"
              added removed replaced o.Incremental.pairs_reused
              o.Incremental.pairs_redecided o.Incremental.cycles_reused
              o.Incremental.cycles_rejudged
          end
        in
        step base_file ~added:(System.num_txns base) ~removed:0 ~replaced:0;
        List.iter
          (fun file ->
            let next = load_system file in
            if db_sig next <> base_sig then begin
              Printf.eprintf
                "error: %s: entity declarations differ from %s\n" file
                base_file;
              exit 2
            end;
            let next_txns = Array.to_list (System.txns next) in
            let next_names = List.map Txn.name next_txns in
            let stale =
              List.filter
                (fun nm -> not (List.mem nm next_names))
                (Incremental.txn_names session)
            in
            List.iter
              (fun nm ->
                Incremental.remove_txn session nm;
                Hashtbl.remove fpt nm)
              stale;
            let added = ref 0 and replaced = ref 0 in
            List.iter
              (fun txn ->
                let nm = Txn.name txn in
                let fp = Txn.fingerprint txn in
                match Hashtbl.find_opt fpt nm with
                | None ->
                    Incremental.add_txn session txn;
                    Hashtbl.replace fpt nm fp;
                    incr added
                | Some old when old <> fp ->
                    Incremental.replace_txn session nm txn;
                    Hashtbl.replace fpt nm fp;
                    incr replaced
                | Some _ -> ())
              next_txns;
            step file ~added:!added ~removed:(List.length stale)
              ~replaced:!replaced)
          edit_files;
        if json then
          print_endline
            (J.to_string_pretty (J.Obj [ ("steps", J.List (List.rev !steps)) ]));
        if stats then
          Format.printf "%a@." E.Stats.pp (Incremental.stats session);
        exit !code
  in
  let files =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"BASE EDIT..."
          ~doc:
            "The base system followed by one snapshot per edit step; \
             consecutive snapshots are diffed by transaction name and \
             content")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "After each step, also decide from scratch (no caches) and \
             fail with exit 4 if the verdicts disagree")
  in
  let budget =
    Arg.(
      value & opt (some int) None
      & info [ "budget" ]
          ~doc:"Step budget per decision (caps the exhaustive stages)"
          ~docv:"STEPS")
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:
         "Decide a stream of edits of one system incrementally, reusing \
          pair and cycle verdicts across steps")
    Term.(
      const run $ obs_setup $ files $ verify $ budget $ stats_flag
      $ json_flag)

let dgraph_cmd =
  let run () file dot =
    let sys = load_pair "dgraph" file in
    let d = Dgraph.build_pair sys in
    if dot then
      print_string
        (Distlock_graph.Digraph.to_dot
           ~label:(fun v ->
             Database.name (System.db sys) (Dgraph.entities d).(v))
           (Dgraph.graph d))
    else begin
      Format.printf "%a@." (Dgraph.pp (System.db sys)) d;
      Printf.printf "strongly connected: %b\n" (Dgraph.is_strongly_connected d)
    end
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz") in
  Cmd.v
    (Cmd.info "dgraph" ~doc:"Print D(T1,T2) of a two-transaction system")
    Term.(const run $ obs_setup $ file_arg $ dot)

let figures_cmd =
  let run () () =
    List.iter
      (fun (name, sys) ->
        Printf.printf "### %s\n%s\n" name (Parse.system_to_string sys);
        ignore (print_verdict sys))
      (Figures.all ())
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Print the paper's worked examples with verdicts")
    Term.(const run $ obs_setup $ const ())

let reduce_cmd =
  let run () file decide =
    match Distlock_sat.Dimacs.of_string (read_file file) with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    | Ok f -> (
        match Distlock_sat.Normalize.run f with
        | None -> Printf.printf "trivially unsatisfiable (empty clause)\n"
        | Some { Distlock_sat.Normalize.formula = g; _ }
          when Distlock_sat.Cnf.num_clauses g = 0 ->
            Printf.printf "trivially satisfiable (no clauses)\n"
        | Some { Distlock_sat.Normalize.formula = g; _ } ->
            Printf.printf
              "# restricted form: %d vars, %d clauses\n" g.Distlock_sat.Cnf.num_vars
              (Distlock_sat.Cnf.num_clauses g);
            let gadget = Reduction.encode g in
            Printf.printf "# gadget: %d entities (one site each)\n"
              (Reduction.num_entities gadget);
            print_string (Parse.system_to_string (Reduction.system gadget));
            if decide then
              match Reduction.decide_unsafe_by_closure gadget with
              | Some _ -> Printf.printf "# UNSAFE, hence SATISFIABLE\n"
              | None -> Printf.printf "# safe, hence UNSATISFIABLE\n")
  in
  let decide =
    Arg.(value & flag & info [ "decide" ]
           ~doc:"Also decide satisfiability via the dominator-closure sweep \
                 (exponential)")
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Encode a DIMACS CNF as a pair of distributed transactions \
             (Theorem 3)")
    Term.(const run $ obs_setup $ file_arg $ decide)

let analyze_cmd =
  let run () file =
    let sys = load_pair "analyze" file in
    Format.printf "%a@." Analysis.pp (Analysis.pair sys)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Full diagnostic report for a two-transaction system")
    Term.(const run $ obs_setup $ file_arg)

let repair_cmd =
  let run () file =
    let sys = load_pair "repair" file in
    (* Insertions cannot mend an ill-formed pair: name its first
       violation, as [check] warns of it, and search nothing. *)
    (match System.validate sys with
    | [] -> ()
    | (t, v) :: _ ->
        Printf.eprintf "error: repair expects a well-formed pair: %s: %s\n"
          (Txn.name t)
          (Validate.to_string (System.db sys) t v);
        exit 2);
    match Repair.make_safe sys with
    | None ->
        Printf.printf "# no precedence insertion makes this system safe\n";
        exit 1
    | Some (sys', insertions) ->
        Printf.printf "# %d precedence(s) inserted; system now SAFE (Theorem 1)\n"
          (List.length insertions);
        List.iter
          (fun { Repair.txn; before; after } ->
            let t = System.txn sys' txn in
            Printf.printf "# %s: %s before %s\n" (Txn.name t)
              (Txn.label t before) (Txn.label t after))
          insertions;
        print_string (Parse.system_to_string sys')
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:"Insert precedences until D(T1,T2) is strongly connected and \
             print the repaired system")
    Term.(const run $ obs_setup $ file_arg)

let deadlock_cmd =
  let run () file =
    let sys = load_pair "deadlock" file in
    let t1, t2 = System.pair sys in
    if not (Txn.is_total t1 && Txn.is_total t2) then begin
      (* partial orders: memoized state-graph exploration *)
      let d = Distlock_sched.Stategraph.has_deadlock sys in
      Printf.printf "deadlock reachable (state exploration): %b\n" d;
      exit (if d then 1 else 0)
    end;
    let plane = Distlock_geometry.Plane.make sys in
    match Distlock_geometry.Deadlock.reachable_deadlocks plane with
    | [] -> Printf.printf "deadlock: impossible\n"
    | states ->
        Printf.printf "deadlock: %d reachable state(s)\n" (List.length states);
        (match Distlock_geometry.Deadlock.witness_prefix plane with
        | Some prefix ->
            Printf.printf "witness prefix: %s\n"
              (String.concat " "
                 (List.map
                    (fun (ti, s) ->
                      Printf.sprintf "%s_%d"
                        (Step.to_string (System.db sys)
                           (Txn.step (System.txn sys ti) s))
                        (ti + 1))
                    prefix))
        | None -> ());
        exit 1
  in
  Cmd.v
    (Cmd.info "deadlock"
       ~doc:"Deadlock analysis of a two-transaction system (geometric for \
             total orders, state exploration otherwise)")
    Term.(const run $ obs_setup $ file_arg)

let advise_cmd =
  let run () file =
    let sys = load_pair "advise" file in
    let o = Checkers.decide sys in
    match o.E.Outcome.verdict with
    | E.Outcome.Safe -> Printf.printf "already SAFE — %s\n" o.E.Outcome.detail
    | E.Outcome.Unknown m ->
        Printf.printf "UNKNOWN — %s\n" m;
        exit 3
    | E.Outcome.Unsafe _ -> (
        Printf.printf "UNSAFE; repair options (cheapest first):\n";
        match Advisor.advise sys with
        | [] ->
            Printf.printf "  none found\n";
            exit 1
        | options ->
            List.iter
              (fun o ->
                Printf.printf "  %-22s loss: %d newly ordered pair(s)\n"
                  (Advisor.strategy_name o.Advisor.strategy)
                  o.Advisor.concurrency_loss)
              options)
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Compare repair strategies for an unsafe two-transaction system")
    Term.(const run $ obs_setup $ file_arg)

let show_cmd =
  let run () file =
    let sys = load_system file in
    print_string (Parse.system_to_string sys);
    print_newline ();
    print_string (Pretty.system sys)
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Print a system in the text format and as per-site columns")
    Term.(const run $ obs_setup $ file_arg)

let plane_cmd =
  let run () file =
    let sys = load_pair "plane" file in
    let t1, t2 = System.pair sys in
    if not (Txn.is_total t1 && Txn.is_total t2) then begin
      Printf.eprintf
        "error: plane rendering needs totally ordered transactions\n";
      exit 2
    end;
    let plane = Distlock_geometry.Plane.make sys in
    match (Checkers.decide sys).E.Outcome.verdict with
    | E.Outcome.Unsafe ev ->
        Printf.printf "UNSAFE — separating staircase:\n";
        print_string
          (Distlock_geometry.Render.plane
             ~schedule:(Checkers.schedule_of_evidence ev) plane)
    | E.Outcome.Safe | E.Outcome.Unknown _ ->
        print_string (Distlock_geometry.Render.plane plane)
  in
  Cmd.v
    (Cmd.info "plane"
       ~doc:"Draw the coordinated plane of a totally ordered pair, with \
             the separating schedule when unsafe")
    Term.(const run $ obs_setup $ file_arg)

let simulate_cmd =
  let run () file seeds backend lease_ttl crash_rate down_time latency sites
      trace_file =
    let non_negative n = n >= 0 in
    require "--seeds" ">= 0" non_negative seeds;
    Option.iter (require "--lease-ttl" ">= 0" non_negative) lease_ttl;
    require "--crash-rate" "in [0, 1]" (fun p -> p >= 0. && p <= 1.) crash_rate;
    require "--down-time" ">= 0" non_negative down_time;
    Option.iter (require "--sites" ">= 1" (fun n -> n >= 1)) sites;
    let trace_oc = Option.map create_file trace_file in
    let sys = load_system file in
    let sys =
      match sites with
      | None -> sys
      | Some n -> Distlock_sim.Scenario.spread_sites sys ~sites:n
    in
    let scenario =
      {
        Distlock_sim.Scenario.default with
        Distlock_sim.Scenario.backend;
        latency;
        lease_ttl;
        crash_rate;
        down_time;
      }
    in
    (* Each measured run exports its full step event stream —
       committed and aborted attempts alike. *)
    let on_run =
      Option.map
        (fun oc seed o ->
          Distlock_sim.Trace.write_jsonl ~seed sys oc o.Distlock_sim.Esim.trace)
        trace_oc
    in
    let summary =
      Distlock_sim.Esim.measure ~scenario ~seeds:(List.init seeds Fun.id)
        ?on_run sys
    in
    Option.iter close_out trace_oc;
    Format.printf "%a@." Distlock_sim.Esim.pp_summary summary
  in
  let seeds =
    Arg.(value & opt int 20 & info [ "seeds" ] ~doc:"Number of seeded runs")
  in
  let backend_conv =
    let parse s =
      match Distlock_sim.Scenario.backend_of_string s with
      | Ok b -> Ok b
      | Error m -> Error (`Msg m)
    in
    let print ppf b =
      Format.pp_print_string ppf (Distlock_sim.Scenario.backend_to_string b)
    in
    Arg.conv (parse, print)
  in
  let backend =
    Arg.(
      value
      & opt backend_conv Distlock_sim.Scenario.Instant
      & info [ "backend" ] ~docv:"KIND"
          ~doc:
            "Lock backend: $(b,instant) (perfect in-memory manager, locks \
             never lost), $(b,leased) (TTL leases; a crashed holder's \
             locks expire and pass to waiters), or $(b,bakery) \
             (arrival-order tickets, no expiry)")
  in
  let lease_ttl =
    Arg.(
      value
      & opt (some int) None
      & info [ "lease-ttl" ] ~docv:"TICKS"
          ~doc:
            (Printf.sprintf
               "Lease TTL for the leased backend: ticks a crashed \
                holder's locks survive before being granted to waiters \
                (default %d)"
               Distlock_sim.Scenario.default_ttl))
  in
  let crash_rate =
    Arg.(
      value
      & opt float 0.
      & info [ "crash-rate" ] ~docv:"P"
          ~doc:
            "Probability a worker crashes after each executed step \
             (default 0 — no fault injection); it resumes after \
             $(b,--down-time) ticks still believing it holds its locks")
  in
  let down_time =
    Arg.(
      value
      & opt int 16
      & info [ "down-time" ] ~docv:"TICKS"
          ~doc:"How long a crashed worker stays down (default 16)")
  in
  let latency_conv =
    let parse s =
      try Ok (Distlock_sim.Latency.of_string s)
      with _ ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid latency %S (use none, a constant, or LO-HI)" s))
    in
    Arg.conv (parse, Distlock_sim.Latency.pp)
  in
  let latency =
    Arg.(
      value
      & opt latency_conv Distlock_sim.Latency.none
      & info [ "latency" ] ~docv:"SPEC"
          ~doc:
            "Cross-site message latency in ticks: $(b,none), a constant \
             ($(b,3)), or a uniform range ($(b,1-5))")
  in
  let sites =
    Arg.(
      value
      & opt (some int) None
      & info [ "sites" ] ~docv:"N"
          ~doc:
            "Respread the system's entities round-robin over $(docv) \
             sites before simulating (names and transactions preserved)")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Export every executed step (tick, site, entity, attempt — \
             including aborted attempts) as JSON Lines to $(docv)")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the lock-manager simulator on a system")
    Term.(
      const run $ obs_setup_no_trace $ file_arg $ seeds $ backend $ lease_ttl
      $ crash_rate $ down_time $ latency $ sites $ trace_file)

(* Smoke-test the telemetry endpoint: serve the (initially idle) global
   registry until SIGINT, or for --for seconds in scripted runs. *)
let telemetry_cmd =
  let run port duration =
    match Distlock_obs.Expose.start ~port ~registries () with
    | Error msg ->
        Printf.eprintf "distlock: %s\n" msg;
        exit 2
    | Ok srv ->
        Printf.printf "serving on http://127.0.0.1:%d — /metrics /healthz \
                       /vars (SIGINT to stop)\n%!"
          (Distlock_obs.Expose.port srv);
        Sys.catch_break true;
        let deadline =
          match duration with
          | None -> Float.infinity
          | Some s -> Unix.gettimeofday () +. s
        in
        (try
           while Unix.gettimeofday () < deadline do
             Unix.sleepf 0.2
           done
         with Sys.Break | Unix.Unix_error (Unix.EINTR, _, _) -> ());
        Distlock_obs.Expose.stop srv
  in
  let port =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to bind on 127.0.0.1 (default 0: pick a free port)")
  in
  let duration =
    Arg.(
      value
      & opt (some float) None
      & info [ "for" ] ~docv:"SECONDS"
          ~doc:"Stop after $(docv) seconds instead of waiting for SIGINT")
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Serve the metrics endpoint (/metrics, /healthz, /vars) until \
          SIGINT — a smoke target for scrape configs")
    Term.(const run $ port $ duration)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "distlock" ~version:"1.8.0"
             ~doc:"Safety of distributed locked transactions (Kanellakis & \
                   Papadimitriou 1982)")
          [ advise_cmd; batch_cmd; check_cmd; analyze_cmd; dgraph_cmd;
            deadlock_cmd; figures_cmd; mutate_cmd; plane_cmd; reduce_cmd;
            repair_cmd; show_cmd; simulate_cmd; telemetry_cmd ]))
