"""Differential tests: the condensation's representative-row quotient,
`FusionRing.validate` and the row-built `FusionRing.product` against the
dense references in `dense_reference.py`, and the rows `restrict` keeps
against a checked rebuild, on the catalog, the Deligne products of the
stacking identities, the first 17 pointed-oracle inputs, split inputs
1-4, seeded corruptions of catalog rings and, for the closure error,
seeded corruptions of the free condensations' rows. Every condensation
that succeeds here also passes
`test_invariants.assert_condensation_invariants`."""

import random
from collections import Counter

from setcat import fusion, relprod
from setcat.catalog import catalog, get
from setcat.double import drinfeld_double
from setcat.errors import SetcatError, ValidationInputError
from setcat.fusion import FusionRing, pair_label
from setcat.io import serialize_category
from setcat.pointed import element_label
from setcat.premodular import Premodular
from setcat.randomized import random_conserving_pair

from .dense_reference import dense_orbit_fusion, dense_validate, triple_product, triples
from .split_reference import _build_result
from .test_acceptance import STACKING_SET
from .test_invariants import assert_condensation_invariants, su2_level

ORACLE_SEED = 20260808
ORACLE_INPUTS = 17
CORRUPTIONS_PER_KIND = 80


def _outcome(P, bosons):
    try:
        return relprod.condense_by_invertible_bosons(P, bosons)
    except SetcatError as exc:
        return (type(exc), str(exc))


def _ring_fields(Q):
    ring = Q.ring
    return {
        "result": serialize_category(Q),
        "fusion_order": list(triples(ring).items()),
        "dual": list(ring.dual.items()),
        "report": Q.validate(),
        "ring_report": ring.validate(),
    }


def _fields(res):
    if isinstance(res, tuple):
        return res
    return {**_ring_fields(res.result), **{name: getattr(res, name) for name in (
        "algebra", "deconfined", "confined", "orbits", "splittings",
        "provenance", "ambiguity_flags", "conservation")}}


def _rows(forced):
    """Forced coefficients as the rows {(a, b): {c: N}} in first-seen order."""
    rows = {}
    for (a, b, c), n in forced.items():
        rows.setdefault((a, b), {})[c] = n
    return rows


def assert_same_condensation(P, bosons, monkeypatch):
    """The engine against `dense_orbit_fusion`: the whole condensation, its
    error text included; a free quotient against the dense triples through
    `split_reference._build_result`; and `_orbit_fusion`'s forced rows,
    unknowns and margins, which it builds only for orbit triples with two or
    more split slots."""
    new, seen = _outcome(P, bosons), []

    def dense(*args):
        seen.append(dense_orbit_fusion(*args))
        forced, unknown, margins = seen[-1]
        return _rows(forced), unknown, margins

    with monkeypatch.context() as m:
        m.setattr(relprod, "_orbit_fusion", dense)
        old = _outcome(P, bosons)
    assert _fields(new) == _fields(old)
    if isinstance(new, tuple):
        return new
    assert_condensation_invariants(P, new)
    (d_forced, d_unknown, d_margins), = seen
    Q, split = new.result, new.splittings
    if max(split.values()) == 1:
        built = _build_result(Q.labels, d_forced, Q.dims, Q.twists, Q.name)
        assert _ring_fields(Q) == _ring_fields(built)
    rep_of = {lab: rep for lab, (rep, _) in new.provenance.items()}
    of_orbit = {}
    for lab, rep in rep_of.items():
        of_orbit.setdefault(rep, []).append(lab)
    rep = {m: o.representative for o in new.orbits for m in o.members}
    forced, unknown, margins = relprod._orbit_fusion(P, rep, of_orbit)
    assert [(k, list(r.items())) for k, r in forced.items()] == [
        (k, list(r.items())) for k, r in _rows(d_forced).items()]
    # the dense reference leaves every triple with two split slots unknown; the
    # engine only those whose three margins are nonzero (the rest are 0)
    assert unknown == [t for t in d_unknown
                       if all(m[tuple(map(rep_of.get, t))] for m in d_margins)]
    for built_margins, dense in zip(margins, d_margins):
        assert built_margins == {t: v for t, v in dense.items()
                                 if v and sum(split[x] > 1 for x in t) >= 2}
    assert new.result.ring.validate() == dense_validate(new.result.ring)
    return new


def test_condensation_matches_dense_on_catalog(monkeypatch):
    for name, entry in catalog().items():
        C = entry.category
        assert_same_condensation(C, [C.unit], monkeypatch)
        for key, emb in entry.embeddings.items():
            assert_same_condensation(C, emb.image(), monkeypatch)
            Z, embZ = drinfeld_double(emb.group)
            algebra = relprod.canonical_algebra(embZ, emb)
            assert_same_condensation(Z.deligne(C), algebra, monkeypatch)


def test_condensation_matches_dense_on_stacking_products(monkeypatch):
    """The products C x D of the stacking identities and of the centralizers
    of their symmetries, each with its canonical algebra."""
    for n1, k1 in STACKING_SET:
        for n2, k2 in STACKING_SET:
            e1, e2 = get(n1), get(n2)
            C, D, embC, embD = e1.category, e2.category, e1.embeddings[k1], e2.embeddings[k2]
            Cp, Dp = relprod.relative_centralizer(C, embC), relprod.relative_centralizer(D, embD)
            for (A, embA), (B, embB) in (((C, embC), (D, embD)),
                                         ((Cp, embC.restrict_to(Cp)), (Dp, embD.restrict_to(Dp)))):
                assert_same_condensation(A.deligne(B), relprod.canonical_algebra(embA, embB),
                                         monkeypatch)


def near_group_ring():
    """x x x = 1 + 2x: a rank-2 fusion ring with a multiplicity of 2."""
    return FusionRing(["1", "x"], {"1": "1", "x": "x"},
                      {("1", "1", "1"): 1, ("1", "x", "x"): 1, ("x", "1", "x"): 1,
                       ("x", "x", "1"): 1, ("x", "x", "x"): 2})


def test_product_matches_triple_product():
    rings = [near_group_ring(), get("ising").category.ring, su2_level(4).ring,
             get("double_4").category.ring]
    assert rings[0].validate() == []
    for R in rings:
        new, old = R.product(R), triple_product(R, R)
        assert new.labels == old.labels and new.dual == old.dual
        assert triples(new) == triples(old)
        assert max(triples(new).values()) == max(triples(R).values()) ** 2
        for i in new.labels:
            for j in new.labels:
                assert new.fuse(i, j) == old.fuse(i, j)
                assert all(new.n(i, j, k) == n for k, n in old.fuse(i, j).items())
        if new.rank() <= 25:  # every triple, zeros too
            assert all(new.n(i, j, k) == old.n(i, j, k) for i in new.labels
                       for j in new.labels for k in new.labels)
        assert new.validate() == []
    # restrict keeps its parent's rows; on the relative centralizers of the
    # catalog, of D(Z4) x D(Z4) and of ising x ising_rev, a checked rebuild
    # from the parent's triples on the kept labels agrees
    D4 = get("double_4")
    Q, emb = D4.category.deligne(D4.category), D4.embeddings["canonical"]
    ii = get("ising").category.deligne(get("ising_rev").category)
    parents = [(e.category, emb.image()) for e in catalog().values()
               for emb in e.embeddings.values()]
    parents += [(Q, relprod.canonical_algebra(emb, emb)),
                (ii, [pair_label("1", "1"), pair_label("psi", "psi")])]
    ranks = []
    for P, subset in parents:
        keep = set(labels := P.centralizer(subset))
        R = P.ring.restrict(labels)
        checked = FusionRing(R.labels, R.dual, {t: n for t, n in triples(P.ring).items()
                                                if t[0] in keep and t[1] in keep})
        assert triples(R) == triples(checked) and R.validate() == []
        assert all(R.fuse(i, j) == checked.fuse(i, j) for i in R.labels for j in R.labels)
        ranks.append(R.rank())
    assert ranks[-2:] == [64, 5]  # (sigma,sigma)^2 has four outputs in the last


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


def closure_corruptions(P, res, rng, count):
    """Copies of P, each with one row (a, b) between labels outside H that
    the condensation `res` of P keeps sent to a confined label c, or given c
    besides its outputs, and the closure error that row raises: valid P has
    no other such row."""
    outside = [x for x in res.deconfined if x not in res.algebra]
    rows, rep = dict(P.ring.rows()), {m: o.representative for o in res.orbits for m in o.members}
    for _ in range(count):
        a, b, c = rng.choice(outside), rng.choice(outside), rng.choice(res.confined)
        broken = {**rows, (a, b): {c: 1} if rng.random() < 0.5 else {**rows[a, b], c: 1}}
        ring = FusionRing(P.labels, P.ring.dual, {(i, j, k): n for (i, j), row in broken.items()
                                                  for k, n in row.items()})
        yield (Premodular(ring, P.dims, P.twists, name=P.name), str(fusion.closure_error(a, b, c)),
               rep[a] == a and rep[b] == b)


def test_closure_errors_match_dense_on_corruptions(monkeypatch):
    """On the free condensations with confined labels among the catalog's
    embeddings and the oracle inputs, each corrupted row is named as the walk
    over every row names it, representative or not."""
    inputs = [(e.category, emb.image()) for e in catalog().values()
              for emb in e.embeddings.values()]
    inputs += [(M.to_premodular(check_smatrix=False), [element_label(h) for h in H])
               for M, H in oracle_inputs()]
    rng, named = random.Random(6), Counter()
    for P, bosons in inputs:
        res = relprod.condense_by_invertible_bosons(P, bosons)
        if (not res.confined or len(res.deconfined) == len(res.algebra)
                or max(res.splittings.values()) > 1):
            continue
        for Q, text, representative in closure_corruptions(P, res, rng, 8):
            assert assert_same_condensation(Q, bosons, monkeypatch) == (ValidationInputError, text)
            named[representative] += 1
    assert min(named[True], named[False]) >= 5, named


def test_validate_matches_dense_on_catalog():
    for entry in catalog().values():
        ring = entry.category.ring
        assert ring.validate() == dense_validate(ring) == []


def _corrupt(ring, kind, rng):
    fusion, dual = triples(ring), dict(ring.dual)
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


def test_sorted_triple_scan_matches_the_full_scan(monkeypatch):
    # a commutative ring is checked for associativity on sorted triples only;
    # that verdict is the full scan's, and the reports the dense reference's
    verdicts = []
    scan = fusion._commutative_and_associative
    monkeypatch.setattr(fusion, "_commutative_and_associative",
                        lambda prod: verdicts.append(scan(prod)) or verdicts[-1])
    rng = random.Random(5)
    rings = [entry.category.ring for entry in catalog().values()] + [
        get("ising").category.deligne(get("toric_code").category).ring, su2_level(8).ring]
    # and a commutative ring on which (a b) c = (b c) a on sorted triples, but
    # not (a c) b: (x, x) -> z, (x, z) -> x + y, (y, y) -> y, (z, z) -> z
    labels = ["1", "x", "y", "z"]
    entries = [("x", "x", "z"), ("x", "z", "x"), ("x", "z", "y"), ("z", "x", "x"),
               ("z", "x", "y"), ("y", "y", "y"), ("z", "z", "z")]
    entries += [(a, "1", a) for a in labels] + [("1", a, a) for a in labels[1:]]
    cases = rings + [FusionRing(labels, dict(zip(labels, labels)), dict.fromkeys(entries, 1))]
    for kind in ("bump", "drop", "dual", "commuting bump"):
        for _ in range(CORRUPTIONS_PER_KIND // 2):
            ring = rng.choice(rings)
            if kind != "commuting bump":
                cases.append(_corrupt(ring, kind, rng))
                continue
            fusion_ = triples(ring)
            a, b, c = (rng.choice(ring.labels) for _ in range(3))
            for key in {(a, b, c), (b, a, c)}:
                fusion_[key] = fusion_.get(key, 0) + 1
            cases.append(FusionRing(ring.labels, ring.dual, fusion_))
    seen = Counter()
    for ring in cases:
        report = ring.validate()
        assert report == dense_validate(ring)
        commutative = all(ring.fuse(a, b) == ring.fuse(b, a)
                          for a in ring.labels for b in ring.labels)
        associative = not any(msg.startswith("associativity") for msg in report)
        assert verdicts.pop() is (commutative and associative)
        seen[commutative, associative] += 1
    assert min(seen[True, True], seen[True, False], seen[False, False]) >= 5, seen
