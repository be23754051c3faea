#!/usr/bin/env python3
"""Validate the observability artifacts the CLI and bench emit.

Usage:
    validate_obs.py json FILE       # `check --json` / `batch --json` output
    validate_obs.py explain FILE    # `check --explain --json` output
    validate_obs.py trace FILE      # --trace JSONL spans/events
    validate_obs.py chrome FILE [MIN_TRACKS]  # --chrome-trace JSON
    validate_obs.py metrics FILE    # --metrics Prometheus text exposition
    validate_obs.py bench FILE      # BENCH_results.json

Exits non-zero with a message on the first violation. Used by CI; handy
locally too.
"""
import json
import re
import sys


def die(msg):
    sys.exit(f"validate_obs: {msg}")


def need(obj, keys, where):
    for k in keys:
        if k not in obj:
            die(f"{where}: missing key {k!r} (has {sorted(obj)})")


def check_outcome(o, where):
    need(o, ["verdict", "procedure", "detail", "cached", "seconds", "stages"], where)
    if o["verdict"] not in ("safe", "unsafe", "unknown"):
        die(f"{where}: bad verdict {o['verdict']!r}")
    for i, st in enumerate(o["stages"]):
        need(st, ["stage", "procedure", "status", "detail", "seconds"],
             f"{where}.stages[{i}]")


EXPLAIN_STATUSES = ("decided", "passed", "error", "skipped",
                    "inapplicable", "not-reached")


def check_explain_record(ex, where):
    """The typed provenance record: schema tag, the whole checker table
    with one entry per stage, cache disposition, optional oracle."""
    need(ex, ["schema", "verdict", "procedure", "detail", "cached",
              "seconds", "cache", "stages"], where)
    if ex["schema"] != "distlock.explain/1":
        die(f"{where}: bad schema {ex['schema']!r}")
    if ex["verdict"] not in ("safe", "unsafe", "unknown"):
        die(f"{where}: bad verdict {ex['verdict']!r}")
    need(ex["cache"], ["fingerprint", "hit", "pair_hits", "pair_misses",
                       "pairs_redecided"], f"{where}.cache")
    if not re.fullmatch(r"[0-9a-f]{32}", ex["cache"]["fingerprint"]):
        die(f"{where}.cache: fingerprint is not a 32-char hex digest")
    if not ex["stages"]:
        die(f"{where}: empty stage table")
    decided = 0
    for i, st in enumerate(ex["stages"]):
        w = f"{where}.stages[{i}]"
        need(st, ["checker", "procedure", "cost", "applicable", "status",
                  "detail", "seconds", "budget_spent_s"], w)
        if st["status"] not in EXPLAIN_STATUSES:
            die(f"{w}: bad status {st['status']!r}")
        if st["status"] == "decided":
            decided += 1
        if not st["applicable"] and st["status"] != "inapplicable":
            die(f"{w}: inapplicable stage has status {st['status']!r}")
    if ex["verdict"] in ("safe", "unsafe") and not ex["cache"]["hit"] \
            and decided != 1:
        die(f"{where}: decided verdict but {decided} 'decided' stages")
    if "oracle" in ex:
        need(ex["oracle"], ["states", "dup_hits", "dedup_ratio",
                            "exhausted"], f"{where}.oracle")
        if not 0 <= ex["oracle"]["dedup_ratio"] <= 1:
            die(f"{where}.oracle: dedup_ratio out of [0,1]")


def check_explain(path):
    data = json.load(open(path))
    outcomes = data["results"] if "results" in data else [data]
    n = 0
    for i, o in enumerate(outcomes):
        if "explain" not in o:
            die(f"outcome[{i}]: missing explain record "
                "(was --explain passed?)")
        check_explain_record(o["explain"], f"outcome[{i}].explain")
        n += 1
    if n == 0:
        die(f"{path}: no outcomes")


def check_json(path):
    data = json.load(open(path))
    if "results" in data:  # batch
        need(data, ["results", "report"], "batch")
        for i, o in enumerate(data["results"]):
            check_outcome(o, f"results[{i}]")
        need(data["report"],
             ["submitted", "unique", "batch_dedup_hits", "cache_hits",
              "cache_misses", "pair_hits", "pair_misses", "pairs_redecided",
              "hit_rate", "seconds", "jobs", "per_procedure"],
             "report")
        if not (isinstance(data["report"]["jobs"], int)
                and data["report"]["jobs"] >= 1):
            die(f"report: jobs must be a positive int, got "
                f"{data['report']['jobs']!r}")
    else:  # single check
        check_outcome(data, "outcome")


def check_trace(path):
    stage_attrs = ("checker", "verdict", "cache_hit")
    n = 0
    for ln, line in enumerate(open(path), 1):
        if not line.strip():
            continue
        rec = json.loads(line)
        n += 1
        if rec.get("type") == "span":
            need(rec, ["id", "name", "start_s", "duration_s"], f"line {ln}")
            if rec["name"] == "engine.stage":
                for k in stage_attrs:
                    if k not in rec.get("attrs", {}):
                        die(f"line {ln}: engine.stage span lacks attr {k!r}")
        elif rec.get("type") == "event":
            need(rec, ["name", "time_s"], f"line {ln}")
        else:
            die(f"line {ln}: record is neither span nor event")
    if n == 0:
        die(f"{path}: empty trace")


def check_chrome(path, min_tracks=1):
    """--chrome-trace output: the trace-event JSON object format that
    chrome://tracing and Perfetto load."""
    data = json.load(open(path))
    need(data, ["traceEvents"], "chrome")
    evs = data["traceEvents"]
    if not evs:
        die(f"{path}: no trace events")
    tracks = set()
    complete = 0
    for i, e in enumerate(evs):
        need(e, ["ph", "pid", "name"], f"traceEvents[{i}]")
        if e["ph"] == "M":  # metadata: names a process/thread track
            continue  # process_name events legitimately carry no tid
        need(e, ["ts", "tid"], f"traceEvents[{i}]")
        if e["ts"] < 0:
            die(f"traceEvents[{i}]: negative timestamp")
        if e["ph"] == "X":
            need(e, ["dur"], f"traceEvents[{i}]")
            if e["dur"] < 0:
                die(f"traceEvents[{i}]: negative duration")
            complete += 1
            tracks.add((e["pid"], e["tid"]))
        elif e["ph"] == "i":
            if e.get("s") not in ("t", "p", "g"):
                die(f"traceEvents[{i}]: instant without a scope")
        else:
            die(f"traceEvents[{i}]: unexpected phase {e['ph']!r}")
    if complete == 0:
        die(f"{path}: no complete (ph=X) events")
    if len(tracks) < min_tracks:
        die(f"{path}: {len(tracks)} track(s), expected >= {min_tracks}")


def check_metrics(path):
    sample = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$')
    families, current = set(), None
    n = 0
    for ln, line in enumerate(open(path), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            fam, kind = line.split()[2], line.split()[3]
            if fam in families:
                die(f"line {ln}: family {fam} declared twice")
            if kind not in ("counter", "gauge", "histogram"):
                die(f"line {ln}: bad kind {kind}")
            families.add(fam)
            current = fam
            continue
        if not sample.match(line):
            die(f"line {ln}: unparseable sample {line!r}")
        name = line.split("{")[0].split(" ")[0]
        base = name
        for suf in ("_bucket", "_sum", "_count"):
            if name.endswith(suf) and name[: -len(suf)] in families:
                base = name[: -len(suf)]
        if base != current:
            die(f"line {ln}: sample {name} outside its family block")
        n += 1
    if n == 0:
        die(f"{path}: no samples")


def check_bench(path):
    data = json.load(open(path))
    need(data, ["harness", "version", "experiments", "host"], "bench")
    host = data["host"]
    need(host, ["cpu_count", "ocaml_version", "git_describe", "os_type",
                "word_size"], "bench.host")
    if host["cpu_count"] < 1:
        die(f"bench: implausible cpu_count {host['cpu_count']}")
    if not host["ocaml_version"]:
        die("bench: empty ocaml_version")
    if not data["experiments"]:
        die("bench: no experiments recorded")
    for i, e in enumerate(data["experiments"]):
        need(e, ["id", "params", "wall_seconds", "cpu_seconds", "metrics"],
             f"experiments[{i}]")
        if e["id"] == "E6":
            check_e6(e)
        if e["id"] == "E13":
            check_e13(e)
        if e["id"] == "E15":
            check_e15(e)
        if e["id"] == "E16":
            check_e16(e)
        if e["id"] == "E17":
            check_e17(e)
        if e["id"] == "E18":
            check_e18(e)
        if e["id"] == "E19":
            check_e19(e)
        if e["id"] == "E20":
            check_e20(e)


def check_e6(e):
    """The Theorem 3 sweep artifact: one sweep time and one agreement
    flag per formula row, and every row's closure sweep must agree with
    DPLL (satisfiable iff the encoded system is unsafe)."""
    m = e["metrics"]
    rows = sorted(k[:-len("_agree")] for k in m
                  if k.startswith("vars") and k.endswith("_agree"))
    if not rows:
        die("E6: no formula rows recorded")
    for row in rows:
        need(m, [f"{row}_sweep_ms"], "E6.metrics")
        if m[f"{row}_sweep_ms"] < 0:
            die(f"E6: {row}_sweep_ms negative")
        if m[f"{row}_agree"] is not True:
            die(f"E6: {row}: the closure sweep disagrees with DPLL")
    need(m, ["all_agree"], "E6.metrics")
    if m["all_agree"] is not True:
        die("E6: some row's sweep disagrees with DPLL")


def check_e13(e):
    """The verdict-cache artifact: the batch must give the per-query
    decisions' verdicts, and its hit rate must be the batch's own hit
    counts over the queries submitted."""
    m = e["metrics"]
    need(e["params"], ["queries"], "E13.params")
    need(m, ["verdicts_agree", "batch_dedup_hits", "cache_hits", "hit_rate"],
         "E13.metrics")
    if m["verdicts_agree"] is not True:
        die("E13: decide_batch disagrees with per-query decide")
    queries = e["params"]["queries"]
    if queries <= 0:
        die(f"E13: implausible query count {queries}")
    expected = (m["batch_dedup_hits"] + m["cache_hits"]) / queries
    if abs(m["hit_rate"] - expected) > 1e-9:
        die(f"E13: hit_rate {m['hit_rate']} is not (batch_dedup_hits + "
            f"cache_hits) / queries = {expected}")


def check_e15(e):
    """The parallel-speedup artifact: a per-jobs curve with agreement
    flags, plus the headline jobs:4 speedup."""
    m = e["metrics"]
    need(e["params"], ["corpus_systems", "recommended_domain_count"],
         "E15.params")
    if e["params"]["corpus_systems"] < 500:
        die(f"E15: corpus too small ({e['params']['corpus_systems']} < 500)")
    for jobs in (1, 2, 4, 8):
        need(m, [f"jobs{jobs}_seconds", f"jobs{jobs}_speedup",
                 f"jobs{jobs}_verdicts_agree"], "E15.metrics")
        if m[f"jobs{jobs}_seconds"] <= 0:
            die(f"E15: jobs{jobs}_seconds not positive")
        if m[f"jobs{jobs}_verdicts_agree"] is not True:
            die(f"E15: verdicts disagree between jobs:1 and jobs:{jobs}")
    need(m, ["speedup_jobs4"], "E15.metrics")
    if m["speedup_jobs4"] <= 0:
        die("E15: speedup_jobs4 not positive")


# The seeded E16 corpus's state-graph work. A visited table that lost or
# merged states, or a successor walk in another order, moves these.
E16_TOTAL_STATES = 11113
E16_TOTAL_DUPLICATE_HITS = 13183


def check_e16(e):
    """The state-graph-oracle artifact: the memoized state graph must be
    strictly smaller than the schedule tree on every corpus system, do
    exactly the seeded corpus's pinned work, win the wall-clock race by
    at least 10x where schedule enumeration is feasible, and agree with
    itself across the batch domain pool."""
    m = e["metrics"]
    need(e["params"], ["corpus_systems", "count_cap"], "E16.params")
    if e["params"]["corpus_systems"] < 40:
        die(f"E16: corpus too small ({e['params']['corpus_systems']} < 40)")
    need(m, ["states_fewer_on_every_system", "total_states",
             "total_duplicate_hits", "speedup_subset_systems",
             "median_decide_speedup", "jobs1_seconds", "jobs4_seconds",
             "jobs_verdicts_agree"], "E16.metrics")
    if m["states_fewer_on_every_system"] is not True:
        die("E16: some system visited at least as many states as schedules")
    if (m["total_states"] != E16_TOTAL_STATES
            or m["total_duplicate_hits"] != E16_TOTAL_DUPLICATE_HITS):
        die(f"E16: state-graph work {m['total_states']} states, "
            f"{m['total_duplicate_hits']} duplicate hits; the seeded corpus "
            f"does {E16_TOTAL_STATES} and {E16_TOTAL_DUPLICATE_HITS}")
    if m["speedup_subset_systems"] < 1:
        die("E16: empty exhaustive-oracle speedup subset")
    if m["median_decide_speedup"] < 10:
        die(f"E16: median decision speedup {m['median_decide_speedup']:.1f}x "
            "below the 10x bar")
    if m["jobs_verdicts_agree"] is not True:
        die("E16: jobs:1 and jobs:4 verdicts disagree")


def check_e17(e):
    """The incremental-session artifact: for each corpus size the warm
    session must beat from-scratch decides by at least 10x at the
    median, agree with them on every step, and re-run at most 2n-3
    pairs per single-transaction edit."""
    m = e["metrics"]
    need(e["params"], ["edits_per_size"], "E17.params")
    for n in (64, 128):
        need(m, [f"n{n}_delta_median_seconds", f"n{n}_scratch_median_seconds",
                 f"n{n}_speedup", f"n{n}_max_pairs_redecided",
                 f"n{n}_pair_bound", f"n{n}_verdicts_agree"], "E17.metrics")
        if m[f"n{n}_delta_median_seconds"] <= 0:
            die(f"E17: n{n}_delta_median_seconds not positive")
        if m[f"n{n}_verdicts_agree"] is not True:
            die(f"E17: n={n}: decide_delta disagrees with from-scratch")
        if m[f"n{n}_pair_bound"] != 2 * n - 3:
            die(f"E17: n={n}: pair bound is {m[f'n{n}_pair_bound']}, "
                f"expected {2 * n - 3}")
        if m[f"n{n}_max_pairs_redecided"] > m[f"n{n}_pair_bound"]:
            die(f"E17: n={n}: re-decided {m[f'n{n}_max_pairs_redecided']} "
                f"pairs in one edit, above the 2n-3 bound "
                f"{m[f'n{n}_pair_bound']}")
        if m[f"n{n}_speedup"] < 10:
            die(f"E17: n={n}: warm-cache speedup {m[f'n{n}_speedup']:.1f}x "
                "below the 10x bar")


def check_e18(e):
    """The recorder-overhead artifact: the always-on flight recorder must
    cost under 5% at the median against a noop sink; the full stack
    (a keep-all recorder plus its JSONL and Chrome renderings, as
    --trace and --chrome-trace run it) just has to be measured."""
    m = e["metrics"]
    need(e["params"], ["queries", "full_stack"], "E18.params")
    need(m, ["noop_seconds", "recorder_seconds", "full_seconds",
             "recorder_overhead_ratio", "full_overhead_ratio"],
         "E18.metrics")
    for k in ("noop_seconds", "recorder_seconds", "full_seconds"):
        if m[k] <= 0:
            die(f"E18: {k} not positive")
    if m["recorder_overhead_ratio"] >= 1.05:
        die(f"E18: recorder overhead {m['recorder_overhead_ratio']:.3f}x "
            "at or above the 1.05x bar")


def check_e19(e):
    """The fault-injection artifact: on a corpus the decision engine
    proves safe, leased locks with crashes must produce non-serializable
    histories at small TTLs (the static-safe/dynamic-unsafe gap), and
    the gap must vanish exactly when the TTL covers the downtime, when
    faults are off, and under the expiry-free bakery backend. The whole
    sweep must be bit-deterministic."""
    m = e["metrics"]
    need(e["params"], ["corpus_systems", "seeds_per_system", "down_time"],
         "E19.params")
    need(m, ["corpus_statically_safe", "gap_small_ttl", "gap_infinite_ttl",
             "gap_faults_off", "bakery_gap", "deterministic"], "E19.metrics")
    if m["corpus_statically_safe"] is not True:
        die("E19: corpus not statically proven safe — the gap would be "
            "meaningless")
    if m["gap_small_ttl"] <= 0:
        die("E19: no non-serializable histories at small TTL; the "
            "static-safe/dynamic-unsafe gap did not appear")
    for k in ("gap_infinite_ttl", "gap_faults_off", "bakery_gap"):
        if m[k] != 0:
            die(f"E19: {k} is {m[k]}, expected exactly 0")
    if m["deterministic"] is not True:
        die("E19: re-run with the same seeds diverged")


def check_e20(e):
    """The live-telemetry artifact: a concurrent scraper on the fully
    instrumented simulator must cost under 1.10x against the
    recorder-only baseline, the sim metric families must be present on
    /metrics, and every scrape taken during a parallel batch must parse
    with monotone counters."""
    m = e["metrics"]
    need(e["params"], ["corpus_systems", "seeds_per_system", "batch_queries",
                       "batch_jobs"], "E20.params")
    need(m, ["baseline_seconds", "scraped_seconds", "scrape_overhead_ratio",
             "overhead_scrapes", "sim_families_present", "batch_scrapes",
             "scrapes_parse", "counters_monotone"], "E20.metrics")
    for k in ("baseline_seconds", "scraped_seconds"):
        if m[k] <= 0:
            die(f"E20: {k} not positive")
    if m["scrape_overhead_ratio"] >= 1.10:
        die(f"E20: scrape overhead {m['scrape_overhead_ratio']:.3f}x "
            "at or above the 1.10x bar")
    if m["overhead_scrapes"] < 1:
        die("E20: no scrapes landed during the overhead measurement")
    if m["sim_families_present"] is not True:
        die("E20: simulator metric families missing from /metrics")
    if m["batch_scrapes"] < 1:
        die("E20: no scrapes landed during the parallel batch")
    if m["scrapes_parse"] is not True:
        die("E20: a scrape taken under concurrent writes failed to parse")
    if m["counters_monotone"] is not True:
        die("E20: decision counter went backwards between scrapes")


def main():
    if len(sys.argv) not in (3, 4):
        die("usage: validate_obs.py "
            "{json|explain|trace|chrome|metrics|bench} FILE [MIN_TRACKS]")
    kind, path = sys.argv[1], sys.argv[2]
    handlers = {"json": check_json, "explain": check_explain,
                "trace": check_trace, "metrics": check_metrics,
                "bench": check_bench}
    if kind == "chrome":
        min_tracks = int(sys.argv[3]) if len(sys.argv) == 4 else 1
        check_chrome(path, min_tracks)
    elif kind in handlers:
        if len(sys.argv) == 4:
            die(f"{kind} takes no extra argument")
        handlers[kind](path)
    else:
        die(f"unknown artifact kind {kind!r}")
    print(f"validate_obs: {kind} {path}: OK")


if __name__ == "__main__":
    main()
