#!/usr/bin/env python3
"""Steadiness record for the benchmark: runs one workload over several seeds,
keeps every run's metric values, and reports per metric the quartiles and
the spread (q3 - q1) / median against the bound BENCHMARK.json fixes.

    python3 perfbench/steadiness.py run --workload paper_cold --seeds 1-10 \
        --out .bench_work/cold-a.json
    python3 perfbench/steadiness.py report .bench_work/cold-a.json
    python3 perfbench/steadiness.py compare .bench_work/cold-a.json \
        .bench_work/cold-b.json

`report` flags a spread above a third of the metric's bound (the target a
steady benchmark meets). `compare` flags a metric whose second median is
worse than the first by more than its bound. setup_s is exempt from the
spread target, not from the comparison.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_from(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run(args):
    record = {"workload": args.workload, "seconds": args.seconds, "runs": []}
    for seed in seeds_from(args.seeds):
        result = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        lines = result.stdout.strip().splitlines()
        if result.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: run.py exited {result.returncode}\n"
                     f"{result.stderr[-2000:]}")
        outcome = json.loads(lines[-1])
        record["host"] = json.loads(lines[-2].split(" ", 1)[1])
        values = {k: v["value"] for k, v in outcome["metrics"].items()}
        record["runs"].append({"seed": seed, "correct": outcome["correct"],
                               "metrics": values})
        print(f"seed {seed}: correct={outcome['correct']} " +
              " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    report_record(record)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report_record(record):
    print(f"\n{record['workload']}: {len(record['runs'])} runs, "
          f"{record['seconds']} s each")
    print(f"{'metric':<16}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>9}"
          f"{'bound':>7}  verdict")
    steady = True
    for metric in spec()["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name] for r in record["runs"]]
        q1, q2, q3 = quartiles(values)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        ok = name == "setup_s" or spread <= metric["bound"] / 3
        steady = steady and ok
        print(f"{name:<16}{q1:>12.5g}{q2:>12.5g}{q3:>12.5g}{spread:>9.3f}"
              f"{metric['bound']:>7}  {'ok' if ok else 'SPREAD TOO WIDE'}")
    incorrect = [r["seed"] for r in record["runs"] if not r["correct"]]
    if incorrect:
        print(f"incorrect runs: seeds {incorrect}")
    return steady and not incorrect


def compare(args):
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    print(f"{'metric':<16}{'first':>12}{'second':>12}{'change':>9}{'bound':>7}")
    agree = True
    for metric in spec()["end_to_end"]:
        name = metric["name"]
        a = statistics.median(r["metrics"][name] for r in first["runs"])
        b = statistics.median(r["metrics"][name] for r in second["runs"])
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        ok = worse <= metric["bound"]
        agree = agree and ok
        print(f"{name:<16}{a:>12.5g}{b:>12.5g}{worse:>+9.3f}{metric['bound']:>7}"
              f"  {'ok' if ok else 'WORSE BEYOND BOUND'}")
    return agree


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seeds", default="1-10")
    p_run.add_argument("--seconds", type=int,
                       default=spec()["run_seconds"])
    p_run.add_argument("--out", required=True)
    p_report = sub.add_parser("report")
    p_report.add_argument("record")
    p_compare = sub.add_parser("compare")
    p_compare.add_argument("first")
    p_compare.add_argument("second")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args)
        return 0
    if args.command == "report":
        return 0 if report_record(json.loads(Path(args.record).read_text())) else 1
    return 0 if compare(args) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
