"""Invariants that follow from validated input and so are not re-checked at
run time, asserted on the inputs where the engine used to check them:

- the S-matrix's first row is the dims, S is symmetric, and the dims are the
  float Frobenius-Perron dims (once part of `Premodular.validate`);
- the orbits of a condensation satisfy |orbit| * |stabilizer| = |H|, carry one
  dim and one twist each, and the unit's orbit comes first, and the result
  validates (once checked inside `condense_by_invertible_bosons`; the
  condensations of `test_sparse_differential.py` call
  `assert_condensation_invariants`);
- both formulations of deconfinement agree with each other and with the
  condensation (once checked for every label pair by `relative_tensor_product`);
- the facts a relative stacking once re-derived (`assert_stacking_facts`): the
  canonical algebra is a transparent group of invertible bosons inside the
  product, each (e, 1) lies in a free orbit with (1, e), that orbit is the
  image of e, and the induced embedding validates; and in a centralizer
  stack the symmetry is central and no label is confined;
- a pointed S-matrix is the conjugate pairing B(a, -b) (once checked by every
  `MetricGroup.to_premodular`);
- an isotropic subgroup H lies in H_perp, and q is constant on each coset
  x + H of H_perp (once checked inside `MetricGroup.condense`). Both follow
  from B(x, y) = q(x + y) - q(x) - q(y) for any table q that vanishes on H,
  so they are asserted on the oracle draws and on tables that are not
  quadratic forms.

A seeded fuzz over validated pointed data that need not be a braided category
checks that such input ends in an input error or a valid result, never in an
internal fault."""

import hashlib
import importlib.util
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from setcat import abelian
from setcat.catalog import catalog, get
from setcat.cyclo import Cyclo
from setcat.double import drinfeld_double, rep_abelian
from setcat.embedding import SymmetryEmbedding
from setcat.errors import InputError
from setcat.fusion import pair_label
from setcat.pointed import MetricGroup, element_label
from setcat.relprod import (_boson_group, canonical_algebra, is_deconfined,
                            relative_centralizer, relative_tensor_product)

from .test_acceptance import STACKING_SET, UNIT_LAW_INSTANCES
from .test_pointed import oracle_draws

ONE = Cyclo.one()
FUZZ_SEED = 5
FUZZ_TRIALS = 100
FUZZ_SHAPES = [[2], [2, 2], [2, 2, 2], [4], [2, 4]]


def su2_level(k):
    """SU(2)_k from the benchmark's closed-formula builder."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "su2.py"
    spec = importlib.util.spec_from_file_location("su2", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    import setcat
    return mod.su2_level(setcat, k)


def is_central(emb, category):
    """Whether the image of emb lands in the Mueger center of category
    (category over E)."""
    center = set(category.muger_center())
    return all(emb.mapping[e] in center for e in emb.elements())


def assert_derived_invariants(P):
    assert P.validate() == [], P.name
    fp = P.ring.fp_dims()
    for a, i in enumerate(P.labels):
        assert P.s_entry(P.unit, i) == P.dim(i), (P.name, i)
        assert abs(P.dim(i).approx().real - fp[a]) <= 1e-6, (P.name, i)
        for j in P.labels[a:]:
            assert P.s_entry(i, j) == P.s_entry(j, i), (P.name, i, j)


def assert_condensation_invariants(P, res):
    assert res.orbits[0].representative == P.unit
    for orb in res.orbits:
        assert len(orb.members) * len(orb.stabilizer) == len(res.algebra)
        assert len({P.twist(m) for m in orb.members}) == 1, orb
        assert len({P.dim(m) for m in orb.members}) == 1, orb
    assert_derived_invariants(res.result)


def assert_stacking_facts(C, D, embC, embD, H, res, emb):
    """What `relative_tensor_product` takes from its validated embeddings: A
    passes `_boson_group` in C x D (dims 1, twists 0, fusion as the group,
    so mutual centrality by the twist rule) as the H it condensed, inside the
    deconfined labels; (e, 1) and (1, e) lie in one free orbit, which is the
    image of e; and the induced embedding validates."""
    assert H == res.algebra and set(H) <= set(res.deconfined), (C.name, D.name)
    orbit = {m: o for o in res.orbits for m in o.members}
    for e in embC.elements():
        o = orbit[pair_label(embC.mapping[e], D.unit)]
        assert pair_label(C.unit, embD.mapping[e]) in o.members, (C.name, D.name, e)
        assert len(o.stabilizer) == 1 and emb.mapping[e] == o.representative, (C.name, e)
    assert emb.validate(res.result) == [], (C.name, D.name)


def assert_deconfinement(C, D, embC, embD):
    """Stack C and D; the monodromy test, the centralizer of the canonical
    algebra in C x D and the condensation's deconfined labels must agree, and
    the stacking facts hold."""
    CD = C.deligne(D)
    H = _boson_group(CD, canonical_algebra(embC, embD))  # even where stacking fails
    res, emb = relative_tensor_product(C, D, embC, embD)
    deconfined = set(res.deconfined)
    for x in C.labels:
        for y in D.labels:
            against_algebra = all(
                C.monodromy(embC.map_neg(e), x) * D.monodromy(embD.mapping[e], y) == ONE
                for e in embC.elements())
            centralizes = all(CD.centralizes(pair_label(x, y), a) for a in H)
            assert is_deconfined(C, D, embC, embD, x, y) == against_algebra == centralizes \
                == (pair_label(x, y) in deconfined), (C.name, D.name, x, y)
    assert_stacking_facts(C, D, embC, embD, H, res, emb)
    return res


def test_derived_invariants_on_catalog_and_su2():
    for entry in catalog().values():
        assert_derived_invariants(entry.category)
    for k in range(1, 9):
        assert_derived_invariants(su2_level(k))


@pytest.mark.parametrize("name,key", UNIT_LAW_INSTANCES)
def test_deconfinement_unit_law(name, key):
    entry = get(name)
    Z, embZ = drinfeld_double(entry.embeddings[key].group)
    assert_deconfinement(Z, entry.category, embZ, entry.embeddings[key])


@pytest.mark.parametrize("right", STACKING_SET)
@pytest.mark.parametrize("left", STACKING_SET)
def test_deconfinement_stacking(left, right):
    # C x D and cent(C) x cent(D), the two stackings verify_stacking_identity forms
    (C, embC), (D, embD) = [(get(name).category, get(name).embeddings[key])
                            for name, key in (left, right)]
    assert_deconfinement(C, D, embC, embD)
    Cp, Dp = relative_centralizer(C, embC), relative_centralizer(D, embD)
    embCp, embDp = embC.restrict_to(Cp), embD.restrict_to(Dp)
    # every label of Cp centralizes E, and E lies in Cp: E is central there
    assert is_central(embCp, Cp) and is_central(embDp, Dp)
    assert assert_deconfinement(Cp, Dp, embCp, embDp).confined == []


def test_pointed_smatrix_is_the_conjugate_pairing(monkeypatch):
    """S_ab = exp(2 pi i B(a, -b)) on every metric group the suite builds: the
    catalog's 7 pointed entries and 3 doubles, Z(G) and Rep(G) for each G the
    suite uses, and the 200 oracle draws with their quotients H_perp / H."""
    checked = []
    to_premodular = MetricGroup.to_premodular

    def checking(M, name="", check_smatrix=False):
        checked.append(M.invariant_factors)
        return to_premodular(M, name, check_smatrix=True)

    monkeypatch.setattr(MetricGroup, "to_premodular", checking)
    catalog.__wrapped__()
    for G in ([], [2], [3], [4], [2, 2]):
        drinfeld_double(G)
        rep_abelian(G)
    assert len(checked) == 7 + 3 + 2 * 5
    for M, H in oracle_draws():
        M.to_premodular()
        M.condense([h for h in H if h != M.zero()]).to_premodular()
    assert len(checked) == 20 + 2 * 200


def assert_coset_identities(M, H):
    Hperp = set(M.orthogonal_complement(H))
    assert set(H) <= Hperp
    for x in Hperp:
        assert {M.q[M.add(x, h)] for h in H} == {M.q[x]}, (M.q, H, x)


def test_coset_identities_on_oracle_draws():
    for M, H in oracle_draws():
        assert_coset_identities(M, H)


def tables_that_are_not_quadratic() -> list:
    """40 pairs (M, H): q = 0 on a cyclic H and random twelfths elsewhere."""
    rng = random.Random(FUZZ_SEED)
    out = []
    for _ in range(40):
        factors = rng.choice([[4], [6], [2, 2], [2, 4], [3, 3], [2, 2, 2]])
        elems = abelian.iter_elements(factors)
        H = abelian.subgroup_closure(factors, [rng.choice(elems)])
        q = {a: Fraction(0) if a in H else Fraction(rng.randrange(12), 12) for a in elems}
        out.append((MetricGroup(factors, q), H))
    return out


def test_coset_identities_on_tables_that_are_not_quadratic():
    not_quadratic = 0
    for M, H in tables_that_are_not_quadratic():
        not_quadratic += bool(M.validate())
        assert_coset_identities(M, H)
    assert not_quadratic >= 20, not_quadratic  # 29 of the 40 tables


def full_scan_report(M):
    """MetricGroup.validate as a scan of all |A|^3 triples for biadditivity."""
    bad = ["q(0) != 0"] if M.q[M.zero()] != 0 else []
    elems = M.elements()
    bad += [f"q(-a) != q(a) at a = {element_label(a)}" for a in elems if M.q[M.neg(a)] != M.q[a]]
    for a in elems:
        for b in elems:
            for c in elems:
                if M.bilinear(M.add(a, b), c) != (M.bilinear(a, c) + M.bilinear(b, c)) % 1:
                    bad.append(f"B not biadditive at ({element_label(a)},"
                               f"{element_label(b)},{element_label(c)})")
    return bad


def biadditive_by_full_scan(M) -> bool:
    """B(a + b, c) = B(a, c) + B(b, c) on all triples, in integer arrays."""
    elems = M.elements()
    at = {a: i for i, a in enumerate(elems)}
    den = math.lcm(*(M.q[a].denominator for a in elems))
    q = np.array([M.q[a].numerator * (den // M.q[a].denominator) for a in elems])
    add = np.array([[at[M.add(a, b)] for b in elems] for a in elems])
    B = (q[add] - q[:, None] - q[None, :]) % den
    return bool(np.all(B[add] == (B[:, None, :] + B[None, :, :]) % den))


def test_metric_group_validate_matches_the_full_scan():
    reports = [M.validate() for M, _ in tables_that_are_not_quadratic()]
    assert reports == [full_scan_report(M) for M, _ in tables_that_are_not_quadratic()]
    assert sum(any("biadditive" in r for r in rep) for rep in reports) >= 20
    for M, _ in oracle_draws():
        assert M.validate() == [] and biadditive_by_full_scan(M)


def test_metric_group_validate_reads_generator_rows_only(monkeypatch):
    M = next(M for M, _ in oracle_draws() if M.invariant_factors == [8, 8])
    calls = []
    add = MetricGroup.add
    monkeypatch.setattr(MetricGroup, "add", lambda self, a, b: calls.append(1) or add(self, a, b))
    assert M.validate() == []
    assert len(calls) <= (len(M.invariant_factors) + 1) * M.order() ** 2  # not 3 |A|^3


def _random_pointed(rng):
    """Pointed data on a small 2-group with twists 0 or 1/2, equal on duals:
    it often validates without being a braided category."""
    factors = rng.choice(FUZZ_SHAPES)
    q = {abelian.zero(factors): Fraction(0)}
    for a in abelian.iter_elements(factors):
        q.setdefault(a, q.get(abelian.neg(factors, a), Fraction(rng.randrange(2), 2)))
    return factors, MetricGroup(factors, q).to_premodular(check_smatrix=False)


def _random_z2_embedding(rng, factors, P):
    order_two = [a for a in abelian.iter_elements(factors)
                 if any(a) and not any(abelian.add(factors, a, a))]
    b = element_label(rng.choice(order_two))
    emb = SymmetryEmbedding([2], P.name, {(0,): P.unit, (1,): b})
    return None if emb.validate(P) else emb


# the number and the sha256 of the JSON list of the fuzz's closure-error texts,
# recorded when the Deligne product was built triple by triple and the margins
# walked every fusion triple: which triple an error names depends on both orders
FUZZ_CLOSURE_ERRORS = (11, "22539ecdab70135a04f25faedf96dbd6ebb42e29cad81ce96250528e222464c4")


def test_fuzz_validated_pointed_data_never_faults():
    rng = random.Random(FUZZ_SEED)
    outcomes = {"valid result": 0, "input error": 0}
    errors = []
    trials = 0
    while trials < FUZZ_TRIALS:
        (f1, C), (f2, D) = _random_pointed(rng), _random_pointed(rng)
        if C.validate() or D.validate():
            continue
        embC, embD = _random_z2_embedding(rng, f1, C), _random_z2_embedding(rng, f2, D)
        if embC is None or embD is None:
            continue
        trials += 1
        try:
            res = assert_deconfinement(C, D, embC, embD)
        except InputError as exc:
            assert "not closed under fusion" in str(exc), exc
            outcomes["input error"] += 1
            errors.append(str(exc))
        else:
            assert_condensation_invariants(C.deligne(D), res)
            outcomes["valid result"] += 1
    # both outcomes occur, so the fuzz reaches the closure check
    assert min(outcomes.values()) >= 10, outcomes
    digest = hashlib.sha256(json.dumps(errors).encode()).hexdigest()
    assert (len(errors), digest) == FUZZ_CLOSURE_ERRORS
