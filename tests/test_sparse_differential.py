"""Differential tests: the sparse, integer-indexed condensation scan and
`FusionRing.validate` against the dense references in `dense_reference.py`,
on the catalog, the first 17 pointed-oracle inputs, split inputs 1-4 and
seeded corruptions of catalog rings. Every condensation that succeeds here
also passes `test_invariants.assert_condensation_invariants`."""

import random

from setcat import relprod
from setcat.catalog import catalog, get
from setcat.double import drinfeld_double
from setcat.errors import SetcatError
from setcat.fusion import FusionRing, pair_label
from setcat.io import serialize_category
from setcat.pointed import element_label
from setcat.randomized import random_conserving_pair

from .dense_reference import dense_orbit_fusion, dense_validate
from .test_invariants import assert_condensation_invariants, su2_level

ORACLE_SEED = 20260808
ORACLE_INPUTS = 17
CORRUPTIONS_PER_KIND = 80


def _outcome(P, bosons):
    try:
        return relprod.condense_by_invertible_bosons(P, bosons)
    except SetcatError as exc:
        return (type(exc), str(exc))


def _fields(res):
    if isinstance(res, tuple):
        return res
    ring = res.result.ring
    return {
        "result": serialize_category(res.result),
        "fusion_order": list(ring.N.items()),
        "report": res.result.validate(),
        "ring_report": ring.validate(),
        **{name: getattr(res, name) for name in (
            "algebra", "deconfined", "confined", "orbits", "splittings",
            "provenance", "ambiguity_flags", "conservation")},
    }


def assert_same_condensation(P, bosons, monkeypatch):
    new = _outcome(P, bosons)
    with monkeypatch.context() as m:
        m.setattr(relprod, "_orbit_fusion", dense_orbit_fusion)
        old = _outcome(P, bosons)
    assert _fields(new) == _fields(old)
    if isinstance(new, tuple):
        return
    assert_condensation_invariants(P, new)
    of_orbit = {o.representative: new.result_labels_of_orbit(o.representative)
                for o in new.orbits}
    args = (P, new.algebra, new.orbits, of_orbit)
    forced, unknown, margins = relprod._orbit_fusion(*args)
    d_forced, d_unknown, d_margins = dense_orbit_fusion(*args)
    assert list(forced.items()) == list(d_forced.items())
    assert unknown == d_unknown
    for sparse, dense in zip(margins, d_margins):
        assert sparse == {t: v for t, v in dense.items() if v}
    assert new.result.ring.validate() == dense_validate(new.result.ring)


def test_condensation_matches_dense_on_catalog(monkeypatch):
    for name, entry in catalog().items():
        C = entry.category
        assert_same_condensation(C, [C.unit], monkeypatch)
        for key, emb in entry.embeddings.items():
            assert_same_condensation(C, emb.image(), monkeypatch)
            Z, embZ = drinfeld_double(emb.group)
            algebra = relprod.canonical_algebra(embZ, emb)
            assert_same_condensation(Z.deligne(C), algebra, monkeypatch)


def oracle_inputs():
    rng = random.Random(ORACLE_SEED)
    return [random_conserving_pair(rng, 64) for _ in range(ORACLE_INPUTS)]


def test_condensation_matches_dense_on_oracle_inputs(monkeypatch):
    for M, H in oracle_inputs():
        P = M.to_premodular(check_smatrix=False)
        assert P.ring.validate() == dense_validate(P.ring)
        assert_same_condensation(P, [element_label(h) for h in H], monkeypatch)


def test_condensation_matches_dense_on_split_inputs(monkeypatch):
    ising, ising_rev = get("ising").category, get("ising_rev").category
    z2 = [pair_label("1", "1"), pair_label("psi", "psi")]
    su2_4, su2_8 = su2_level(4), su2_level(8)
    for P, bosons in [(ising.deligne(ising_rev), z2), (ising.deligne(ising), z2),
                      (su2_4, ["0", "4"]), (su2_8, ["0", "8"])]:
        assert P.ring.validate() == dense_validate(P.ring)
        assert_same_condensation(P, bosons, monkeypatch)


def test_validate_matches_dense_on_catalog():
    for entry in catalog().values():
        ring = entry.category.ring
        assert ring.validate() == dense_validate(ring) == []


def _corrupt(ring, kind, rng):
    fusion, dual = dict(ring.N), dict(ring.dual)
    if kind == "bump":
        key = tuple(rng.choice(ring.labels) for _ in range(3))
        fusion[key] = fusion.get(key, 0) + 1
    elif kind == "drop":
        del fusion[rng.choice(sorted(fusion))]
    else:
        x = rng.choice(ring.labels)
        dual[x] = rng.choice([y for y in ring.labels if y != dual[x]] or [dual[x]])
    return FusionRing(ring.labels, dual, fusion)


def test_validate_matches_dense_on_corruptions():
    rng = random.Random(4)
    rings = [entry.category.ring for entry in catalog().values()]
    rings.append(get("ising").category.deligne(get("toric_code").category).ring)
    for kind in ("bump", "drop", "dual"):
        reported = 0
        for _ in range(CORRUPTIONS_PER_KIND):
            broken = _corrupt(rng.choice(rings), kind, rng)
            report = broken.validate()
            assert report == dense_validate(broken)
            reported += bool(report)
        assert reported >= 0.8 * CORRUPTIONS_PER_KIND, kind
