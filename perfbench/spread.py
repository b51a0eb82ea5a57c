#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per workload and seed, one run at a time, workloads
interleaved seed by seed, and prints for each workload and metric the median
of the runs, their first and third quartiles (`statistics.quantiles(n=4)`)
and the spread, (q3 - q1) / median:

    python3 perfbench/spread.py --seeds 101-110 --seconds 24 --out spread.json

`--workloads` picks some of them (comma-separated).  The result lines of
every run go to the `--out` file as well, with the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("101-110"))
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    runs = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900, cwd=HERE.parent)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs[name].append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                flush=True)
    report = {}
    for name, results in runs.items():
        metrics = results[0]["metrics"]
        report[name] = {m: {"unit": metrics[m]["unit"], **summary(
            [r["metrics"][m]["value"] for r in results])} for m in metrics}
        report[name]["all_correct"] = all(r["correct"] for r in results)
        report[name]["failed_of_attempted"] = [
            [r["failed"], r["attempted"]] for r in results]
    print(f"{'workload':<8} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7}")
    for name, rows in report.items():
        for m, row in rows.items():
            if isinstance(row, dict):
                print(f"{name:<8} {m:<12} {row['median']:>10.4g} {row['q1']:>10.4g} "
                      f"{row['q3']:>10.4g} {row['spread']:>7.3f}")
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                        "summary": report, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
