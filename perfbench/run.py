#!/usr/bin/env python3
"""Benchmark entry point: builds the perfbench binary from this checkout's
sources, runs one workload, checks its outputs and prints the result.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 20 --trace 0

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. The line before it is
the host stamp. Every run is also appended to .bench_work/runs.jsonl, the
record perfbench/steadiness.py compares.

Workloads (perfbench/README.md says why each exists):
  paper_cold    one paper pass per fresh process, no artifact store
  paper_warm    paper passes over a store that set-up filled with a cold pass
  serve_whatif  a closed loop of what-if queries against one ReportService
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_ROOT = ROOT / ".bench_work"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("paper_cold", "paper_warm", "serve_whatif")
# Set-up repetitions, reported as a median: paper_cold start-ups (about
# 50 ms each) and serve_whatif cold base-world builds.
STARTUPS = 5
SERVE_SETUPS = 3
CHILD_TIMEOUT_S = 170
# Traced pass: forced stages + studies must add up to the pass wall time.
STEP_SUM_TOLERANCE = 0.05


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no sources to build under {ROOT}")
    jobs = str(max(1, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
               "--target", "perfbench"])


def run_quiet(command):
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        log(result.stdout[-4000:])
        raise BenchError(f"{' '.join(command[:3])} failed")


def child(args, env):
    """Runs the binary once; returns (parsed last stdout line, wall seconds)."""
    start = time.monotonic()
    result = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            timeout=CHILD_TIMEOUT_S)
    wall = time.monotonic() - start
    if result.returncode != 0:
        log(result.stderr[-4000:])
        raise BenchError(f"perfbench {args[0]} exited {result.returncode}")
    lines = result.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else {}), wall


def host_stamp(env):
    stamp, _ = child(["host"], env)
    stamp["commit"] = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() == ROOT:  # not an enclosing repository's
            stamp["commit"] = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    stamp["source_digest"] = digest.hexdigest()[:16]
    return stamp


class Outcome:
    """Attempted/failed counts and the reasons a run is not correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, problem, counts=True):
        if counts:
            self.attempted += 1
        if not ok:
            if counts:
                self.failed += 1
            self.problems.append(problem)


def check_known_hash(key, digest, outcome):
    """Every run of one (scale, seed) must render the same report; the first
    run in this checkout records it."""
    path = WORK_ROOT / "report_hashes.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known:
        outcome.check(known[key] == digest,
                      f"report {digest} differs from earlier run's {known[key]}",
                      counts=False)
    else:
        known[key] = digest
        path.write_text(json.dumps(known, indent=1, sort_keys=True))


def paper_passes(args, env, store, outcome, reference):
    """Untraced passes, each in a fresh process as a batch user's re-run
    is; a pass starts only while it is expected to end within --seconds.
    Returns the passes and the report hash every pass must match."""
    command = ["paper", "--scale", args.scale, "--seed", str(args.seed)]
    if store:
        command += ["--store", str(store)]
    passes = []
    start = time.monotonic()
    last = 0.0
    while not passes or time.monotonic() - start + last <= args.seconds:
        result, last = child(command, env)
        reference = reference or result["hash"]
        outcome.check(result["hash"] == reference and result["health_ok"],
                      f"pass {len(passes)}: hash {result['hash']} "
                      f"(want {reference}), health_ok={result['health_ok']}")
        passes.append(result)
    return passes, reference


def startup_s(args, env):
    """paper_cold set-up: the pass's start-up, from spawning the process
    until its Pipeline is built, in STARTUPS processes that stop there."""
    times = []
    for _ in range(STARTUPS):
        spawned = time.monotonic()
        result, _ = child(["paper", "--scale", args.scale, "--seed",
                           str(args.seed), "--startup", "1"], env)
        times.append(result["ready_s"] - spawned)
    return statistics.median(times)


def fill_store(args, env, work, outcome):
    """paper_warm set-up: the cold pass that fills the store.
    Returns (seconds, store, report hash)."""
    store = work / "store"
    fill, wall = child(["paper", "--scale", args.scale, "--seed",
                        str(args.seed), "--store", str(store)], env)
    outcome.check(fill["health_ok"], "store fill pass: stage health not ok")
    return wall, store, fill["hash"]


def run_paper(args, env, work, outcome):
    """Set-up is the store fill on paper_warm; on paper_cold, which prepares
    nothing else, it is the pass's start-up."""
    store, reference = None, None
    if args.workload == "paper_warm":
        setup, store, reference = fill_store(args, env, work, outcome)
    else:
        setup = startup_s(args, env)
    passes, reference = paper_passes(args, env, store, outcome, reference)
    check_known_hash(f"{args.scale}/{args.seed}", reference, outcome)
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "setup_s": setup,
    }
    if not args.trace:
        return metrics

    traced, _ = child(["paper", "--scale", args.scale, "--seed",
                       str(args.seed), "--trace", "1"] +
                      (["--store", str(store)] if store else []), env)
    check_traced_pass(traced, reference, outcome)
    layers = dict(traced["layers"])
    layers["bench.trace_overhead_s"] = traced["wall_s"] - statistics.median(walls)
    return layers


def check_traced_pass(traced, reference, outcome):
    outcome.check(traced["labels_match"] and traced["health_ok"],
                  "clustering replay labels differ from clusterings(), "
                  f"or stage health not ok ({traced['health_ok']})")
    outcome.check(traced["hash"] == reference,
                  f"traced report {traced['hash']} != untraced {reference}",
                  counts=False)
    share = traced["step_sum_s"] / traced["wall_s"]
    outcome.check(abs(1 - share) <= STEP_SUM_TOLERANCE,
                  f"timed steps cover {share:.3f} of the traced pass",
                  counts=False)


def run_serve_child(args, env, work, setups, trace):
    result, _ = child(["serve", "--seed", str(args.seed), "--store",
                       str(work / "serve"), "--seconds", str(args.seconds),
                       "--setups", str(setups), "--trace", "1" if trace else "0"],
                      env)
    return result


def run_serve(args, env, work, outcome):
    result = run_serve_child(args, env, work, SERVE_SETUPS, False)
    outcome.attempted += int(result["queries"])
    outcome.failed += int(result["failed"])
    if result["failed"]:
        outcome.problems.append(f"{int(result['failed'])} failed queries")
    metrics = {
        "wall_s": statistics.median(result["round_wall_s"]),
        "cpu_s": statistics.median(result["round_cpu_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(result["setup_s"]),
    }
    if not args.trace:
        return metrics

    traced = run_serve_child(args, env, work, 1, True)
    outcome.attempted += int(traced["queries"])
    outcome.failed += int(traced["failed"])
    outcome.check(traced["labels_match"],
                  "clustering replay labels differ from clusterings()")
    share = traced["step_sum_s"] / traced["pass_wall_s"]
    outcome.check(abs(1 - share) <= STEP_SUM_TOLERANCE,
                  f"timed steps cover {share:.3f} of the probe pass",
                  counts=False)
    layers = dict(traced["layers"])
    layers["bench.trace_overhead_s"] = (statistics.median(traced["round_wall_s"]) -
                                        metrics["wall_s"])
    return layers


def select(spec, produced, outcome):
    """The metrics BENCHMARK.json names, with their units."""
    out = {}
    for entry in spec:
        name = entry["name"]
        if name not in produced:
            outcome.check(False, f"metric {name} not produced", counts=False)
            continue
        out[name] = {"value": float(produced[name]), "unit": entry["unit"]}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                        help="world size of the paper workloads (tiny: smoke)")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # Pipelines spill latency matrices under TMPDIR without a store; keep
    # every byte the run writes inside the checkout.
    env = dict(os.environ, TMPDIR=str(work / "tmp"), REPRO_TRACE="0")
    for name in ("REPRO_STORE", "REPRO_FAULT", "REPRO_SCALE", "REPRO_THREADS"):
        env.pop(name, None)
    outcome = Outcome()
    try:
        host = host_stamp(env)
        runner = run_serve if args.workload == "serve_whatif" else run_paper
        produced = runner(args, env, work, outcome)
        if args.trace and runner is run_paper:
            # The paper workloads never call the service.
            produced.update({m["name"]: 0.0 for m in spec["per_layer"]
                             if m["name"].startswith("serve.")})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = select(spec["per_layer" if args.trace else "end_to_end"],
                     produced, outcome)
    for problem in outcome.problems:
        log(f"check failed: {problem}")
    result = {"correct": not outcome.problems,
              "attempted": max(1, outcome.attempted),
              "failed": outcome.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale, "host": host, "result": result}
    with open(WORK_ROOT / "runs.jsonl", "a") as runs:
        runs.write(json.dumps(record, sort_keys=True) + "\n")
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as error:
        log(f"run.py: {error}")
        sys.exit(1)
