#!/usr/bin/env python3
"""setcat benchmark.

One workload per run, from the root of a checkout:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 24 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end metrics; with `--trace 1` they are the per-layer metrics of a
traced run, plus its overhead.  Details (machine facts, every op's latency and
outcome, failure messages, and with `--trace 1` the recorded spans) go to
`perfbench/out/`.

Every workload, one row each, with names and units:

    python3 perfbench/run.py --table            # end-to-end metrics
    python3 perfbench/run.py --table --trace 1  # per-layer table and overhead

A run is set-up (timed several times as `setup_s`), one untimed warm-up pass
of the job list, then timed passes until `--seconds` is used up.  Times are
medians over the timed passes, rescaled to a fixed machine speed by a
reference kernel timed next to every op and every set-up (see `calib.py`).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import calib
import workloads
from tracer import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5  # this process's set-up plus fresh processes that only set up
# Workloads whose set-up already fills every cache their ops use, so that they
# skip the warm-up pass: split's set-up builds its inputs and computes their
# S-matrices; its first pass took 10.9 s and the next 10.5 s on the machine of
# README.md, while a pass costs half a run.
NO_WARM_UP = {"split"}
# An op that took less than REP_TARGET_S in the warm-up pass runs several times
# back to back in each untraced timed pass (at most MAX_REPS), so that short
# ops, whose times vary most, get more samples; traced passes run each op once,
# so that per-layer counts do not depend on the machine's speed.
REP_TARGET_S = 0.1
MAX_REPS = 4
# How strongly a workload's ops feel the machine's slow state compared with the
# reference kernel (see calib.py): the slope of log op time on log reference
# time, pooled over each op's timed runs.  It was 0.95-1.0 for short ops and
# 0.85 for long ones on oracle, arith and stack, and 0.6 for split's long ops,
# the split-fusion searches, which fully rescaled read up to 20% high whenever
# the machine ran fast.  Set-up is rescaled with 1.
SENSITIVITY = {"split": 0.6}
TAIL_BEYOND = 10
SETCAT_MODULES = ["cyclo", "fusion", "premodular", "pointed", "relprod", "equiv",
                  "double", "catalog", "randomized"]

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# -- set-up ------------------------------------------------------------------


def load_setcat() -> SimpleNamespace:
    """Import setcat from this checkout's `src` and return its modules."""
    if not (SRC / "setcat" / "__init__.py").is_file():
        raise SystemExit(f"error: no setcat sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("setcat")
    if Path(pkg.__file__).resolve().parent != SRC / "setcat":
        raise SystemExit(f"error: imported setcat from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(setcat=pkg, **{
        name: importlib.import_module(f"setcat.{name}") for name in SETCAT_MODULES})


def set_up(workload: str, seed: int):
    """import setcat + catalog() with its self-validation + input generation.

    The times are rescaled by the reference kernel timed just after (not
    before: in a fresh interpreter its first runs are slow for reasons of
    their own); the raw set-up time is kept as `setup_raw_s`."""
    t0 = time.perf_counter()
    lib = load_setcat()
    t1 = time.perf_counter()
    lib.catalog.catalog()
    t2 = time.perf_counter()
    ops = workloads.WORKLOADS[workload](lib, seed)
    t3 = time.perf_counter()
    speed = calib.speed([calib.sample() for _ in range(calib.SETUP_REF_SAMPLES)])
    return lib, ops, {"setup_s": (t3 - t0) * speed, "catalog_s": (t2 - t1) * speed,
                      "setup_raw_s": t3 - t0, "speed": speed}


def setup_probe(workload: str, seed: int) -> dict:
    """Set up once in a fresh interpreter, so that every import is cold."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- passes ------------------------------------------------------------------


@dataclass
class Pass:
    """One run of the job list."""

    raw_times: list[float]  # per op, as measured (mean over its runs)
    runs: list[int]  # per op: how often it ran back to back
    spans: list[tuple[float, float]]  # per op: (start, end) on the run's clock
    outcomes: list  # per op: None, or (kind, exception class, message)
    refs: list[tuple[float, float]]  # (end, duration) of reference samples
    duration: float  # real time of the pass, reference samples included
    times: list[float] | None = None  # per op, rescaled; see `rescale`
    layers: dict | None = None  # per-layer metrics of a traced pass

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(ops, tracer=None, reps=None) -> Pass:
    """Run the job list once, with a reference sample before every op and
    after the last one.  Op i runs `reps[i]` times back to back (default
    once, and stopping at a failure); its time is the mean of those runs."""
    gc.collect()
    times, runs, spans, outcomes = [], [], [], []
    t_pass = time.perf_counter()
    refs = [(time.perf_counter(), calib.sample())]
    for i, op in enumerate(ops):
        n = 0
        t0 = time.perf_counter()
        try:
            for _ in range(reps[i] if reps else 1):
                n += 1
                if tracer is None:
                    op.run()
                else:
                    tracer.run_op(i, op.run)
            outcome = None
        except workloads.WrongAnswer as exc:
            outcome = ("wrong", type(exc).__name__, str(exc))
        except workloads.Inconclusive as exc:
            outcome = ("inconclusive", type(exc).__name__, str(exc))
        except Exception as exc:  # an engine limit or crash: record it, carry on
            last = traceback.extract_tb(exc.__traceback__)[-1]
            outcome = ("raised", type(exc).__name__,
                       f"{exc} [{Path(last.filename).name}:{last.lineno}]")
        t1 = time.perf_counter()
        times.append((t1 - t0) / n)
        runs.append(n)
        spans.append((t0, t1))
        outcomes.append(outcome)
        refs.append((time.perf_counter(), calib.sample()))
    return Pass(times, runs, spans, outcomes, refs, time.perf_counter() - t_pass)


def repetitions(warm_up: Pass | None) -> list[int] | None:
    """How often each op runs back to back in an untraced timed pass: as often
    as its warm-up time fits in `REP_TARGET_S`, between 1 and `MAX_REPS`."""
    if warm_up is None:
        return None
    return [max(1, min(MAX_REPS, int(REP_TARGET_S / t))) for t in warm_up.raw_times]


def rescale(passes: list[Pass], sensitivity: float) -> list[Pass]:
    """Fill in each op's rescaled time from the run's reference samples."""
    refs = sorted(r for p in passes for r in p.refs)
    for p in passes:
        speeds = calib.op_speeds(refs, p.spans, sensitivity)
        p.times = [t * f for t, f in zip(p.raw_times, speeds)]
    return passes


def timed_passes(ops, seconds: float, sensitivity: float, tracer=None,
                 reps=None) -> list[Pass]:
    """Passes until `seconds` is used up: at least one, and none that would
    end past the budget judging by the median pass so far."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        result = run_pass(ops, tracer, reps)
        if tracer is not None:
            result.layers = tracer.metrics()
        passes.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.duration for p in passes) > seconds:
            return rescale(passes, sensitivity)


# -- statistics --------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it.  With too few samples for that percentile
    to lie above the median, the maximum (percentile 100)."""
    v = sorted(values)
    n = len(v)
    if n < 2 * TAIL_BEYOND + 1:
        return v[-1], 100.0
    return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def op_latencies(passes, raw: bool = False) -> list[float]:
    """Each op's latency: its median over the timed passes."""
    return [statistics.median((p.raw_times if raw else p.times)[i] for p in passes)
            for i in range(len(passes[0].times))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -- machine facts -----------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from its .git directory (none: "unknown")."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy  # only after set-up, which must pay for importing it

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
    }


# -- one workload ------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    """Set up, warm up and time one workload: (result line, details)."""

    lib, ops, first = set_up(workload, seed)
    facts = machine_facts()
    samples = [first] + [setup_probe(workload, seed)
                         for _ in range(SETUP_SAMPLES - 1)]
    # fills process-wide caches; not timed
    warm_up = None if workload in NO_WARM_UP else run_pass(ops)
    reps = repetitions(warm_up)
    sensitivity = SENSITIVITY.get(workload, 1.0)

    tracer = None
    if trace:  # untraced and traced passes alike run each op once
        passes = timed_passes(ops, seconds / 2, sensitivity)
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced = timed_passes(ops, seconds - sum(p.duration for p in passes),
                                  sensitivity, tracer)
        finally:
            tracer.uninstall()
    else:
        passes = timed_passes(ops, seconds, sensitivity, reps=reps)
        traced = []

    counted = passes + traced
    statuses = [o for p in counted for o in p.outcomes]
    attempted = sum(n for p in counted for n in p.runs)
    failed = sum(o is not None for o in statuses)
    wrong = sum(o is not None and o[0] == "wrong" for o in statuses)
    wall = statistics.median(p.wall for p in passes)
    latencies = op_latencies(passes)
    tail_s, tail_pct = tail(latencies)
    raw_latencies = op_latencies(passes, raw=True)
    raw = {
        "wall_s": statistics.median(sum(p.raw_times) for p in passes),
        "op_p50_ms": 1000.0 * statistics.median(raw_latencies),
        "op_tail_ms": 1000.0 * tail(raw_latencies)[0],
        "setup_s": statistics.median(s["setup_raw_s"] for s in samples),
    }

    if trace:
        traced_wall = statistics.median(p.wall for p in traced)
        metrics = {name: statistics.median(p.layers[name] for p in traced)
                   for name in traced[0].layers}
        metrics["catalog.build_s"] = statistics.median(s["catalog_s"] for s in samples)
        metrics["trace.untraced_wall_s"] = wall
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall
        metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = {
            "wall_s": wall,
            "op_p50_ms": 1000.0 * statistics.median(latencies),
            "op_tail_ms": 1000.0 * tail_s,
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END

    failures = {}
    for p in counted:
        for op, outcome in zip(ops, p.outcomes):
            if outcome is not None:
                kind, cls, msg = outcome
                entry = failures.setdefault(op.label, {
                    "op": op.label, "kind": kind, "class": cls, "message": msg,
                    "count": 0})
                entry["count"] += 1
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": facts,
        "loadavg_1m_end": os.getloadavg()[0],
        "setup_samples": samples,
        "warm_up_wall_s": warm_up and warm_up.duration,
        "op_runs_per_pass": reps or [1] * len(ops),
        "passes": len(passes),
        "traced_passes": len(traced),
        "pass_wall_s": [p.wall for p in passes],
        "pass_raw_wall_s": [sum(p.raw_times) for p in passes],
        "pass_ref_s": [[r for _, r in p.refs] for p in passes],
        "traced_pass_wall_s": [p.wall for p in traced],
        "ref_nominal_s": calib.REF_NOMINAL_S,
        "sensitivity": sensitivity,
        "raw_metrics": raw,
        "ops": [{"op": op.label, "latency_s": lat, "pass_s": [p.times[i] for p in passes],
                 "raw_pass_s": [p.raw_times[i] for p in passes]}
                for i, (op, lat) in enumerate(zip(ops, latencies))],
        "op_tail_percentile": tail_pct,
        "op_samples": sum(sum(p.runs) for p in passes),
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "failures": list(failures.values()),
        "metrics": metrics,
    }
    if tracer is not None:
        detail["spans_recorded"] = len(tracer.spans)
        detail["spans_dropped"] = tracer.dropped
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            fh.write(json.dumps(["id", "parent", "op", "layer", "start", "end"]) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, detail


# -- the table of every workload ---------------------------------------------


def table(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process; print one row (or column) each."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        detail = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
        results[name] = json.loads(detail.read_text())
    first = next(iter(results.values()))
    print("machine: " + json.dumps(first["machine"]))
    if trace:
        names = list(LAYER_METRICS)
        width = max(map(len, names)) + 9
        print(f"{'metric [unit]':<{width}}" + "".join(f"{w:>14}" for w in results))
        for name in names:
            unit = LAYER_METRICS[name][0]
            row = f"{name + ' [' + unit + ']':<{width}}"
            print(row + "".join(f"{_fmt(r['metrics'][name]):>14}" for r in results.values()))
    else:
        cols = ([f"{n} [{u}]" for n, u in END_TO_END.items()]
                + ["unscaled wall_s", "ops_failed_frac", "tail"])
        print(f"{'workload':<8}" + "".join(f"{c:>18}" for c in cols))
        for name, r in results.items():
            m = r["metrics"]
            cells = [_fmt(m[n]) for n in END_TO_END]
            cells.append(_fmt(r["raw_metrics"]["wall_s"]))
            cells.append(f"{r['ops_failed_frac']:.3g} ({r['failed']}/{r['attempted']})")
            cells.append(f"p{r['op_tail_percentile']:.0f} of {len(r['ops'])} ops")
            print(f"{name:<8}" + "".join(f"{c:>18}" for c in cells))
    for name, r in results.items():
        for f in r["failures"]:
            print(f"{name}: {f['kind']} x{f['count']} {f['op']}: {f['class']}: {f['message']}")
    return 0


def _fmt(x) -> str:
    return f"{x:.4g}" if isinstance(x, float) else str(x)


# -- command line ------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--table", action="store_true",
                    help="run every workload, one row each")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.table:
        return table(args.seed, args.seconds, bool(args.trace))
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        _, _, sample = set_up(args.workload, args.seed)
        print(json.dumps(sample))
        return 0
    result, detail = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print("# machine " + json.dumps(detail["machine"]))
    print("# unscaled " + json.dumps(detail["raw_metrics"]))
    for f in detail["failures"]:
        print(f"# {f['kind']} x{f['count']} {f['op']}: {f['class']}: {f['message']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
