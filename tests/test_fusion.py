import math
import subprocess
import sys

import pytest

from setcat.catalog import catalog
from setcat.errors import InputError
from setcat.fusion import FusionRing, pair_label

from .dense_reference import dense_fp_dims, triples
from .test_invariants import su2_level


def toric_ring() -> FusionRing:
    labels = ["1", "e", "m", "f"]
    table = {("e", "m"): "f", ("m", "e"): "f", ("e", "f"): "m", ("f", "e"): "m",
             ("m", "f"): "e", ("f", "m"): "e"}
    fusion = {}
    for a in labels:
        fusion[("1", a, a)] = 1
        if a != "1":
            fusion[(a, "1", a)] = 1
            fusion[(a, a, "1")] = 1
    for (a, b), c in table.items():
        fusion[(a, b, c)] = 1
    return FusionRing(labels, {x: x for x in labels}, fusion)


def ising_ring() -> FusionRing:
    labels = ["1", "psi", "sigma"]
    fusion = {
        ("1", "1", "1"): 1, ("1", "psi", "psi"): 1, ("1", "sigma", "sigma"): 1,
        ("psi", "1", "psi"): 1, ("sigma", "1", "sigma"): 1,
        ("psi", "psi", "1"): 1,
        ("psi", "sigma", "sigma"): 1, ("sigma", "psi", "sigma"): 1,
        ("sigma", "sigma", "1"): 1, ("sigma", "sigma", "psi"): 1,
    }
    return FusionRing(labels, {x: x for x in labels}, fusion)


def fib_ring() -> FusionRing:
    labels = ["1", "tau"]
    fusion = {
        ("1", "1", "1"): 1, ("1", "tau", "tau"): 1, ("tau", "1", "tau"): 1,
        ("tau", "tau", "1"): 1, ("tau", "tau", "tau"): 1,
    }
    return FusionRing(labels, {x: x for x in labels}, fusion)


def test_toric_ring_valid():
    assert toric_ring().validate() == []


def test_ising_ring_valid():
    assert ising_ring().validate() == []


def test_broken_duality_reported():
    ring = toric_ring()
    bad = triples(ring)
    del bad[("e", "e", "1")]
    broken = FusionRing(ring.labels, ring.dual, bad)
    report = broken.validate()
    assert any("duality" in r and "e" in r for r in report)


def test_fp_dims_pointed():
    assert toric_ring().fp_dims() == pytest.approx([1.0, 1.0, 1.0, 1.0])


def test_fp_dims_ising():
    d = ising_ring().fp_dims()
    assert d[0] == pytest.approx(1.0)
    assert d[1] == pytest.approx(1.0)
    # independent oracle: d_sigma solves d^2 = d_1 + d_psi = 2
    assert d[2] == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_fp_dims_fibonacci():
    d = fib_ring().fp_dims()
    # independent oracle: the positive root of d^2 = 1 + d
    golden = (1 + math.sqrt(5)) / 2
    assert d[1] == pytest.approx(golden, abs=1e-8)


def test_fp_dims_satisfy_dimension_equation():
    for ring in (toric_ring(), ising_ring(), fib_ring()):
        d = dict(zip(ring.labels, ring.fp_dims()))
        for i in ring.labels:
            for j in ring.labels:
                rhs = sum(n * d[k] for k, n in ring.fuse(i, j).items())
                assert d[i] * d[j] == pytest.approx(rhs, abs=1e-8)


def test_fp_dims_match_the_numpy_power_iteration():
    rings = [e.category.ring for e in catalog().values()]
    rings += [A.product(B) for A in rings for B in rings]
    rings += [su2_level(k).ring for k in range(1, 17)]
    for ring in rings:
        assert ring.fp_dims() == pytest.approx(dense_fp_dims(ring), rel=0, abs=1e-12)


def test_import_loads_no_numpy():
    code = "import sys, setcat; print('numpy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"


def test_product_of_valid_rings_is_valid():
    prod = toric_ring().product(toric_ring())
    assert prod.rank() == 16
    assert prod.validate() == []


def test_product_with_trivial_ring_relabels():
    vec = FusionRing(["1"], {"1": "1"}, {("1", "1", "1"): 1})
    ring = toric_ring()
    prod = vec.product(ring)
    assert prod.labels == [pair_label("1", x) for x in ring.labels]
    for (i, j, k), n in triples(ring).items():
        assert prod.n(pair_label("1", i), pair_label("1", j), pair_label("1", k)) == n


def test_product_dims_multiply():
    prod = ising_ring().product(ising_ring())
    dims = sorted(round(x, 6) for x in prod.fp_dims())
    s2 = round(math.sqrt(2.0), 6)
    assert dims == sorted([1.0] * 4 + [s2] * 4 + [2.0])


def test_restrict_requires_closure():
    ring = toric_ring()
    sub = ring.restrict(["1", "e"])
    assert sub.validate() == []
    with pytest.raises(InputError):
        ising_ring().restrict(["1", "sigma"])
