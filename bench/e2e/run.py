#!/usr/bin/env python3
"""Build and run the rcsim_e2e benchmark (see bench/e2e/README.md).

One run, the command BENCHMARK.json names:
    python3 bench/e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  Builds the benchmark if needed, then runs it once. The last line of
  stdout is the result JSON; the exit status is the benchmark's.

A set of runs:
    python3 bench/e2e/run.py --set DIR [--seconds S]
  10 rounds of every workload, each run in its own process, with the
  workload order rotated every round and seed r in round r (1..10); then
  one traced run per workload at seed 1. Writes DIR/runs/*.json and
  DIR/summary.json (median and quartiles per metric) and prints
  `workload metric value unit` lines.

Comparing two sets:
    python3 bench/e2e/run.py --compare BASE_DIR CUR_DIR
  Applies the BENCHMARK.json bounds to every (workload, end-to-end metric)
  pair. A pair whose spread (quartile distance over median) is wider than
  its bound is `unresolved`, unless every current run beats every base run.
  Exits 1 when any pair regressed.

Everything is built and written under .bench_build/ in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build" / "e2e"
OUT = ROOT / ".bench_build" / "e2e-out"
BINARY = BUILD / "rcsim_e2e"
ROUNDS = 10  # seeds 1..ROUNDS; the recorded sets and the bounds were measured at 10


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build the benchmark; build output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "rcsim_e2e", "-j", jobs],
                   stdout=sys.stderr, check=True)


def bench_args(workload, seed, seconds, trace):
    return [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out-dir", str(OUT)]


def run_captured(workload, seed, seconds, trace):
    """One run in its own process; returns the parsed result line."""
    proc = subprocess.run(bench_args(workload, seed, seconds, trace), stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0 or result is None:
        print(f"run.py: {workload} seed {seed} trace {trace} exited {proc.returncode}",
              file=sys.stderr)
    return result


def spread(summary):
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def run_set(out_dir, seconds):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    (out_dir / "runs").mkdir(parents=True, exist_ok=True)
    samples = {w: {} for w in names}
    failures = {w: 0 for w in names}
    for r in range(ROUNDS):
        shift = r % len(names)
        for w in names[shift:] + names[:shift]:
            seed = r + 1
            result = run_captured(w, seed, seconds, 0)
            (out_dir / "runs" / f"{w}-seed{seed}.json").write_text(json.dumps(result) + "\n")
            if result is None or not result["correct"]:
                failures[w] += 1
                continue
            for name, metric in result["metrics"].items():
                samples[w].setdefault(name, []).append(metric["value"])

    summary = {}
    for w in names:
        traced = run_captured(w, 1, seconds, 1)
        trace_file = out_dir / "runs" / f"{w}-seed1-trace.json"
        trace_file.write_text(json.dumps(traced) + "\n")
        if traced is None or not traced["correct"]:
            failures[w] += 1
        summary[w] = {
            "failed_runs": failures[w],
            "end_to_end": {m: summarize(v) for m, v in samples[w].items()},
            "per_layer": {m: v["value"] for m, v in (traced or {}).get("metrics", {}).items()},
        }
        for m, s in summary[w]["end_to_end"].items():
            print(f"{w} {m} {s['median']:.6g} {units[m]}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
                  f"spread {spread(s):.2%})")
        for m, v in summary[w]["per_layer"].items():
            print(f"{w} {m} {v:.6g} {units[m]}")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if not any(failures.values()) else 1


def compare(base_dir, cur_dir):
    bench = load_benchmark()
    base = json.loads((base_dir / "summary.json").read_text())
    cur = json.loads((cur_dir / "summary.json").read_text())
    regressed = False
    print(f"{'workload':<18} {'metric':<16} {'base':>12} {'current':>12} {'change':>8}  verdict")
    for w in cur:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b, c = base[w]["end_to_end"][name], cur[w]["end_to_end"][name]
            change = (c["median"] - b["median"]) / b["median"]
            worse = change if metric["better"] == "lower" else -change
            if metric["better"] == "lower":
                all_better = max(c["values"]) < min(b["values"])
            else:
                all_better = min(c["values"]) > max(b["values"])
            if max(spread(b), spread(c)) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressed = True
            else:
                verdict = "ok"
            print(f"{w:<18} {name:<16} {b['median']:>12.6g} {c['median']:>12.6g} "
                  f"{change:>+8.2%}  {verdict}")
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--set", type=Path, metavar="DIR")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "CUR"))
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not args.workload and not args.set:
        p.error("give --workload, --set or --compare")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    seconds = args.seconds or load_benchmark()["run_seconds"]
    if args.set:
        return run_set(args.set, seconds)
    return subprocess.run(bench_args(args.workload, args.seed, seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
