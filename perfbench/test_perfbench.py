"""Self-tests of the benchmark.  Run with `python3 -m pytest perfbench`."""

import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import calib
import run
import workloads
from su2 import su2_level
from tracer import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def lib():
    return run.load_setcat()


class RecordingRandom(random.Random):
    """A Random that logs every raw draw, so two draw sequences can be compared."""

    def __init__(self, seed):
        self.log = []
        super().__init__(seed)

    def random(self):
        x = super().random()
        self.log.append(("random", x))
        return x

    def getrandbits(self, k):
        x = super().getrandbits(k)
        self.log.append(("bits", k, x))
        return x


def _recording(monkeypatch, module) -> list:
    """Make `module.random.Random` a RecordingRandom; returns the instances."""
    made = []

    def factory(seed):
        made.append(RecordingRandom(seed))
        return made[-1]

    monkeypatch.setattr(module, "random", SimpleNamespace(Random=factory))
    return made


def test_oracle_inputs_are_the_acceptance_draws(lib, monkeypatch):
    count = 4
    rng = RecordingRandom(workloads.ORACLE_SEED)
    trials = [lib.randomized.pointed_oracle_trial(rng, workloads.ORACLE_MAX_ORDER)
              for _ in range(count)]
    made = _recording(monkeypatch, workloads)
    drawn = workloads.draw_oracle_inputs(lib, count)
    assert made[0].log == rng.log
    for trial, (M, H) in zip(trials, drawn):
        assert M.invariant_factors == trial["metric_group"].invariant_factors
        assert M.q == trial["metric_group"].q
        assert H == trial["subgroup"]


def test_arith_inputs_are_the_acceptance_draws(lib, monkeypatch):
    count = 5
    theirs = _recording(monkeypatch, lib.randomized)
    assert lib.randomized.run_arithmetic_trials(count, workloads.ARITH_SEED)["ok"]
    ours = _recording(monkeypatch, workloads)
    drawn = workloads.draw_arith_inputs(lib, count)
    assert len(drawn) == count
    assert ours[0].log == theirs[0].log


def test_su2_level_matches_known_categories(lib):
    for k in range(1, 7):
        assert su2_level(lib.setcat, k).validate() == []
    semion = lib.catalog.get("semion").category
    assert lib.equiv.find_equivalence(su2_level(lib.setcat, 1), semion) is not None
    su2_2 = su2_level(lib.setcat, 2)
    assert [su2_2.twist(x) for x in su2_2.labels] == [0, Fraction(3, 16), Fraction(1, 2)]
    assert su2_2.dim("1") == lib.cyclo.parse_cyclo("z8 + z8^7")


def test_split_su2_4_condenses_to_z3(lib):
    ops = {op.label: op for op in workloads.split_ops(lib, seed=0)}
    ops["split su2_4 / {0,4}"].run()  # raises unless equivalent to Z3, q = x^2/3


def test_ops_do_not_depend_on_the_seed_beyond_their_order(lib):
    a = [op.label for op in workloads.stack_ops(lib, seed=1)]
    b = [op.label for op in workloads.stack_ops(lib, seed=2)]
    assert a != b and sorted(a) == sorted(b)
    assert a == [op.label for op in workloads.stack_ops(lib, seed=1)]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(x) for x in range(1, 31)])
    assert value == 20.0 and pct == pytest.approx(100 * 20 / 30)
    assert run.tail([float(x) for x in range(20)]) == (19.0, 100.0)


def test_rescaling_follows_the_reference_samples_around_each_op():
    nominal = calib.REF_NOMINAL_S
    refs = [(0.0, nominal), (0.01, nominal), (10.0, 2 * nominal), (10.02, 2 * nominal)]
    short_early, short_late, long_op = (0.001, 0.009), (10.001, 10.019), (0.011, 9.99)
    speeds = calib.op_speeds(refs, [short_early, short_late, long_op])
    assert speeds[0] == pytest.approx(1.0)  # the machine ran at nominal speed
    assert speeds[1] == pytest.approx(0.5)  # the kernel took twice as long
    assert speeds[2] == pytest.approx(2 / 3)  # a long op sees every sample
    # the mean drops the top and bottom tenth: one outlier in ten is ignored
    assert calib.speed([nominal] * 9 + [100 * nominal]) == pytest.approx(1.0)
    # code that feels the slow state less is rescaled less
    assert calib.speed([4 * nominal], sensitivity=0.5) == pytest.approx(0.5)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    child = tracer.span("child", lambda: time.sleep(0.02))

    def parent():
        time.sleep(0.01)
        child()

    tracer.run_op(0, tracer.span("parent", parent))
    m = tracer._agg
    assert m["parent"][1] == pytest.approx(0.01, abs=0.008)
    assert m["child"][1] == pytest.approx(0.02, abs=0.008)
    assert m["op"][1] < 0.005
    ids = {s[0]: s for s in tracer.spans}
    child_span = next(s for s in tracer.spans if s[3] == "child")
    assert ids[child_span[1]][3] == "parent" and child_span[2] == 0


def test_tracer_counts_layers_and_restores_them(lib):
    Cyclo, P = lib.cyclo.Cyclo, lib.catalog.get("ising").category
    original = Cyclo.__mul__
    tracer = Tracer()
    tracer.install(lib)
    try:
        z8, z15 = lib.cyclo.root_of_unity(Fraction(1, 8)), lib.cyclo.root_of_unity(Fraction(1, 15))
        z8 * z8
        z8 * z15
        P.s_entry("sigma", "sigma")
        P.s_entry("sigma", "sigma")
        m = tracer.metrics()
    finally:
        tracer.uninstall()
    assert Cyclo.__mul__ is original
    assert m["cyclo.mul.calls"] == 2
    assert m["cyclo.mul.calls.ge120"] == 1
    assert m["cyclo.max_conductor"] == 120
    assert m["premodular.s_entry.calls"] == 2
    assert m["premodular.s_entry.hit_ratio"] == 0.5
    assert set(m) == set(LAYER_METRICS) - {
        "catalog.build_s", "trace.untraced_wall_s", "trace.traced_wall_s",
        "trace.overhead_s", "trace.overhead_frac"}


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "arith", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
