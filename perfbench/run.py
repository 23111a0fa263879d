#!/usr/bin/env python3
"""Fleet-admission benchmark: builds the harness, runs one workload, checks
the outputs, and prints the metrics BENCHMARK.json names.

    python3 perfbench/run.py --workload admit-steady --seed 1 --seconds 6 --trace 0

Run from the root of a source tree. The harness (perfbench/fleet_bench.cpp)
is built from source into .bench_build (or $CARGO_TARGET_DIR) on first use.
--trace 0 prints the end-to-end metrics of an untraced run; --trace 1 prints
the per-layer metrics of a traced run of the same workload and seed, and a
per-layer table. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Everything else goes before it
or to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("admit-steady", "admit-cold", "admit-observed", "fleet-scale")
# Program knobs that would change what is measured; the harness runs with
# all of them unset.
KNOB_PREFIX = "GAUGUR_"
RUN_TIMEOUT_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build(out_dir, tmp):
    """Configures and builds the harness; returns its path. Every run
    configures again with the settings below, so a build tree configured
    by hand with another build type, extra flags or a GAUGUR_* cache
    entry is put back to the program being measured."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out_dir),
         f"-U{KNOB_PREFIX}*", "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS="],
        ["cmake", "--build", str(out_dir), "--target", "fleet_bench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=clean_env(tmp), check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out_dir / "fleet_bench"


def clean_env(tmp):
    """The caller's environment without program knobs, with temporary
    files (the compiler's too) kept inside the build tree."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(KNOB_PREFIX)}
    env["TMPDIR"] = str(tmp)
    return env


def host_fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if shutil.which("git") is not None and (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            sha = done.stdout.strip()
    # A checkout without git history still identifies its program by the
    # digest of its sources.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "knobs_unset": sorted(k for k in os.environ if k.startswith(KNOB_PREFIX)),
    }


def run_harness(binary, args, scratch):
    """Runs the harness; returns its parsed last line."""
    out_path = scratch / f"out-{os.getpid()}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    with open(out_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, env=clean_env(scratch))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        while True:
            pid, status = os.waitpid(proc.pid, os.WNOHANG)
            if pid != 0:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                fail("harness timed out")
            time.sleep(0.05)
    finally:
        # On a timeout or a signal, stop the harness and reap it.
        if proc.returncode is None:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -9
    text = out_path.read_text()
    out_path.unlink()
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    lines = text.strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    return json.loads(lines[-1])


def check_runs(raw):
    """Output checks on the warm-up and every measured run; returns (the
    runs, warm-up first; an ok flag per run; failure messages)."""
    runs = [raw["warmup"]] + raw["runs"]
    failures = []
    per_run_ok = []
    for i, run in enumerate(runs):
        label = f"run {i}" if i else "warm-up run"
        arrivals = run["decisions"]
        ok = True
        if run["unplaced"] != 0 or run["sessions"] != arrivals:
            failures.append(f"{label}: {run['unplaced']} arrivals unplaced")
            ok = False
        if raw["workload"] == "fleet-scale" and run["peak_concurrent_sessions"] != arrivals:
            failures.append(f"{label}: peak concurrency {run['peak_concurrent_sessions']} != {arrivals}")
            ok = False
        if "sink_events_written" in run:
            if run["sink_dropped"] != 0 or run["sink_write_errors"] != 0:
                failures.append(f"{label}: sink dropped {run['sink_dropped']}, "
                                f"write errors {run['sink_write_errors']}")
                ok = False
            if run["sink_events_written"] != run["events_appended"]:
                failures.append(f"{label}: sink wrote {run['sink_events_written']} of "
                                f"{run['events_appended']} events")
                ok = False
        per_run_ok.append(ok)
    # The measured runs replay one trace: repeats, traced or not, must
    # place it identically, or no measured run of this seed can be trusted.
    digests = {run["placement_digest"] for run in raw["runs"]}
    if len(digests) != 1:
        failures.append(f"placement digests differ across runs: {sorted(digests)}")
        per_run_ok = per_run_ok[:1] + [False] * len(raw["runs"])
    return runs, per_run_ok, failures


def decisions_per_cpu_s(runs):
    """Decisions per CPU-second the process spent in SimulateShardedFleet.
    On a shared host the wall-clock rate follows how often both shard
    threads get a core at once; the CPU time a decision costs does not."""
    return median([r["decisions"] / r["fleet_cpu_s"] for r in runs])


def end_to_end(raw):
    runs = raw["runs"]
    first = runs[0]
    # The process's peak: set-up's, or a measured run's, whichever is
    # higher, with the runs' peaks taken as their median.
    peak_rss_mb = max(raw["setup_peak_rss_mb"], median([r["peak_rss_mb"] for r in runs]))
    return {
        "setup_s": (median(raw["setup_s"]), "s"),
        "decisions_per_cpu_s": (decisions_per_cpu_s(runs), "1/s"),
        "server_minutes_per_session": (first["server_minutes"] / first["sessions"], "min"),
        "qos_met_pct": (100.0 - 100.0 * first["violated_sessions"] / first["sessions"], "%"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(raw):
    traced = [r for r in raw["runs"] if r["traced"]]
    untraced = [r for r in raw["runs"] if not r["traced"]]
    run = traced[0]
    span = {}
    for s in raw["spans"]:
        span[s["name"]] = span.get(s["name"], 0.0) + s["end_s"] - s["start_s"]
    decisions = run["decisions"]
    hits = run.get("cache_hits", 0)
    misses = run.get("cache_misses", 0)
    lookups = hits + misses
    # Policy timings exist only where the predictor scores (not on
    # fleet-scale, whose packing policy is the harness's); 0 = bypassed.
    calls = run.get("score_calls", 0)
    busy_s = run.get("score_busy_s", 0.0)
    shard_busy = run.get("shard_busy_s", [])
    mean_busy = sum(shard_busy) / len(shard_busy) if shard_busy else 0.0
    profile = run.get("profile_us", {})
    m = {
        "profiling.profile_s": (span.get("profiling.profile", 0.0), "s"),
        "gaugur.corpus_s": (span.get("gaugur.corpus", 0.0), "s"),
        "ml.train_rm_s": (span.get("ml.train_rm", 0.0), "s"),
        "ml.train_cm_s": (span.get("ml.train_cm", 0.0), "s"),
        "ml.train_rows": (raw["train_rows"], "count"),
        "gaugur.score_calls": (calls, "count"),
        "gaugur.score_busy_s": (busy_s, "s"),
        "gaugur.score_p50_us": (run.get("score_p50_us", 0.0), "us"),
        "gaugur.score_p99_us": (run.get("score_p99_us", 0.0), "us"),
        "gaugur.candidates_per_call": (run.get("score_candidates", 0) / max(1, calls), "count"),
        "gaugur.cache.hit_rate": (hits / lookups if lookups else 0.0, "ratio"),
        "gaugur.cache.misses": (misses / decisions, "count/decision"),
        "gaugur.cache.evictions": (run.get("cache_evictions", 0) / decisions, "count/decision"),
        "sched.wall_decisions_per_s": (median([r["decisions"] / r["fleet_s"] for r in untraced]),
                                       "1/s"),
        "sched.decision_p50_us": (median([r["decision_p50_us"] for r in untraced]), "us"),
        "sched.decision_p99_us": (median([r["decision_p99_us"] for r in untraced]), "us"),
        "sched.fleet_s": (run["fleet_s"], "s"),
        "sched.self_s": (raw["shards"] * run["fleet_s"] - busy_s, "s"),
        "sched.shard_imbalance": (max(shard_busy) / mean_busy if mean_busy > 0 else 0.0, "ratio"),
        "sched.ticks": (run["ticks"], "count"),
        "sched.powerons": (run["powerons"], "count"),
        "sched.peak_servers": (run["peak_servers"], "count"),
        "sched.peak_concurrent_sessions": (run["peak_concurrent_sessions"], "count"),
        "obs.events_appended": (run.get("events_appended", 0), "count"),
        "obs.sink.events_written": (run.get("sink_events_written", 0), "count"),
        "obs.sink.dropped": (run.get("sink_dropped", 0), "count"),
        "obs.sink.write_errors": (run.get("sink_write_errors", 0), "count"),
        "obs.sink.rotations": (run.get("sink_rotations", 0), "count"),
        "obs.sink.max_drain_batch": (run.get("sink_max_drain_batch", 0), "count"),
        "obs.sink.bytes": (run.get("sink_bytes", 0), "B"),
        "obs.sink.stop_s": (run.get("sink_stop_s", 0.0), "s"),
        "obs.health.evaluations": (run.get("health_evaluations", 0), "count"),
        "ml.kernel_eval_us": (profile.get("kernel_eval", 0.0), "us"),
        "gaugur.feature_build_us": (profile.get("feature_build", 0.0), "us"),
        "gaugur.cache_lookup_us": (profile.get("cache_lookup", 0.0), "us"),
        "sched.candidate_enum_us": (profile.get("candidate_enum", 0.0), "us"),
        "sched.barrier_wait_us": (profile.get("barrier_wait", 0.0), "us"),
        "obs.event_emit_us": (profile.get("event_emit", 0.0), "us"),
        "gaugur.cache.lock_wait_us": (profile.get("cache_lock_wait", 0.0), "us"),
        "trace_overhead_pct": (100.0 * (decisions_per_cpu_s(untraced) / decisions_per_cpu_s(traced)
                                        - 1.0), "%"),
    }
    coverage, table = layer_table(raw, run, span)
    m["trace_coverage_pct"] = (coverage, "%")
    return m, table


def layer_table(raw, run, span):
    """Self time per layer in the first traced run's window: from process
    start to the end of the first traced fleet run, less the warm-up run
    (shown apart, counted nowhere). Only spans around calls into the
    program's modules count as covered, so the harness's own work between
    them (fleet-scale's input generation, telemetry resets, collecting
    results) is the uncovered share. The policy row and the fleet's self
    row split the sched.fleet span per shard: policy thread-seconds divided
    by the shard count."""
    warmup = span.get("bench.warmup", 0.0)
    wall = raw["traced_wall_s"] - warmup
    score = run.get("score_busy_s", 0.0) / raw["shards"]
    sink_stop = span.get("obs.sink.stop", 0.0)
    rows = [
        ("gamesim.catalog", span.get("gamesim.catalog", 0.0), 1),
        ("profiling.profile", span.get("profiling.profile", 0.0), 1),
        ("gaugur.corpus", span.get("gaugur.corpus", 0.0), 1),
        ("ml.train_rm", span.get("ml.train_rm", 0.0), 1),
        ("ml.train_cm", span.get("ml.train_cm", 0.0), 1),
        ("sched.trace", span.get("sched.trace", 0.0), 1),
        ("gaugur.score (policy)", score, run.get("score_calls", 0)),
        ("sched.fleet (self)", span.get("sched.fleet", 0.0) - score, run["ticks"]),
        ("obs.sink.stop", sink_stop, 1 if sink_stop else 0),
    ]
    covered = sum(r[1] for r in rows)
    coverage = 100.0 * covered / wall if wall > 0 else 0.0
    lines = [f"layer table: {raw['workload']} seed {raw['seed']}, wall {wall:.3f} s "
             f"(set-up, inputs, one traced fleet run)",
             f"  {'layer':<28} {'self_s':>10} {'share':>7} {'count':>10}"]
    for name, self_s, count in rows:
        lines.append(f"  {name:<28} {self_s:>10.4f} {100 * self_s / wall:>6.1f}% {count:>10}")
    lines.append(f"  {'covered by module spans':<28} {covered:>10.4f} {coverage:>6.1f}%")
    lines.append(f"  {'harness (not covered)':<28} {wall - covered:>10.4f} "
                 f"{100 - coverage:>6.1f}%")
    lines.append(f"  {'warm-up run (not counted)':<28} {warmup:>10.4f}")
    if coverage < 95.0:
        lines.append(f"  WARNING: module spans cover only {coverage:.1f}% of wall time (< 95%)")
    return coverage, "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminating signal unwinds through the finally blocks (and
    # subprocess.run), which stop and reap any child still running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    out_dir = build_dir()
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    binary = build(out_dir, tmp)
    fingerprint = host_fingerprint()
    raw = run_harness(binary, args, tmp)
    fingerprint.update({k: raw[k] for k in ("simd_tier", "quantized_active", "compiler",
                                            "build_type", "shards", "hardware_concurrency")})
    print("host: " + json.dumps(fingerprint, sort_keys=True))

    runs, per_run_ok, failures = check_runs(raw)
    attempted = sum(run["decisions"] for run in runs)
    failed = sum(run["decisions"] if not ok else run["unplaced"]
                 for ok, run in zip(per_run_ok, runs))
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    if args.trace:
        metrics, table = per_layer(raw)
        print(table)
    else:
        metrics = end_to_end(raw)
    arrivals = raw["arrivals"]
    print(f"{raw['workload']} seed {args.seed}: a warm-up run, then {len(raw['runs'])} "
          f"measured fleet runs x {arrivals} arrivals "
          f"({arrivals} latency samples per run), "
          f"failed_pct {100.0 * failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
