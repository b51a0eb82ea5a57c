import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from setcat.abelian import iter_elements
from setcat.catalog import catalog, get
from setcat.cyclo import Cyclo, parse_cyclo, root_of_unity
from setcat.double import drinfeld_double
from setcat.equiv import label_fingerprints
from setcat.errors import InputError, LimitExceeded
from setcat.fusion import FusionRing, pair_label
from setcat.pointed import MetricGroup, element_label
from setcat.premodular import Premodular
from setcat.randomized import random_conserving_pair
from setcat.relprod import condense_by_invertible_bosons, relative_centralizer

from .dense_reference import (cyclo_s_invertibility, cyclo_validate, dense_smatrix_invertible,
                              s_centralizes, s_monodromy)
from .test_acceptance import ORACLE_COUNT, ORACLE_SEED, STACKING_SET, UNIT_LAW_INSTANCES
from .test_cyclo import rank_two
from .test_invariants import FUZZ_SEED, _random_pointed, su2_level, tables_that_are_not_quadratic
from .test_pointed import oracle_draws
from .test_split_differential import (benchmark_split_inputs, condensed, permuted_cases,
                                      permuted_rows)

ONE = Cyclo.one()
MINUS_ONE = Cyclo.from_rational(-1)
SQRT2 = parse_cyclo("z8 + z8^7")


def toric() -> Premodular:
    labels = ["1", "e", "m", "f"]
    fusion = {}
    for a in labels:
        fusion[("1", a, a)] = 1
        if a != "1":
            fusion[(a, "1", a)] = 1
            fusion[(a, a, "1")] = 1
    for (a, b), c in {("e", "m"): "f", ("m", "e"): "f", ("e", "f"): "m",
                      ("f", "e"): "m", ("m", "f"): "e", ("f", "m"): "e"}.items():
        fusion[(a, b, c)] = 1
    ring = FusionRing(labels, {x: x for x in labels}, fusion)
    return Premodular(ring, {x: ONE for x in labels},
                      {"1": Fraction(0), "e": Fraction(0), "m": Fraction(0),
                       "f": Fraction(1, 2)}, name="toric")


def rep_z2() -> Premodular:
    ring = FusionRing(["1", "e"], {"1": "1", "e": "e"},
                      {("1", "1", "1"): 1, ("1", "e", "e"): 1,
                       ("e", "1", "e"): 1, ("e", "e", "1"): 1})
    return Premodular(ring, {"1": ONE, "e": ONE},
                      {"1": Fraction(0), "e": Fraction(0)}, name="rep_z2")


def ising(reversed_braiding: bool = False) -> Premodular:
    labels = ["1", "psi", "sigma"]
    fusion = {
        ("1", "1", "1"): 1, ("1", "psi", "psi"): 1, ("1", "sigma", "sigma"): 1,
        ("psi", "1", "psi"): 1, ("sigma", "1", "sigma"): 1,
        ("psi", "psi", "1"): 1,
        ("psi", "sigma", "sigma"): 1, ("sigma", "psi", "sigma"): 1,
        ("sigma", "sigma", "1"): 1, ("sigma", "sigma", "psi"): 1,
    }
    ring = FusionRing(labels, {x: x for x in labels}, fusion)
    tw = Fraction(15, 16) if reversed_braiding else Fraction(1, 16)
    return Premodular(ring, {"1": ONE, "psi": ONE, "sigma": SQRT2},
                      {"1": Fraction(0), "psi": Fraction(1, 2), "sigma": tw},
                      name="ising_rev" if reversed_braiding else "ising")


def semion(anti: bool = False) -> Premodular:
    ring = FusionRing(["1", "s"], {"1": "1", "s": "s"},
                      {("1", "1", "1"): 1, ("1", "s", "s"): 1,
                       ("s", "1", "s"): 1, ("s", "s", "1"): 1})
    t = Fraction(3, 4) if anti else Fraction(1, 4)
    return Premodular(ring, {"1": ONE, "s": ONE}, {"1": Fraction(0), "s": t},
                      name="anti_semion" if anti else "semion")


def test_toric_validates():
    assert toric().validate() == []


def test_ising_validates():
    assert ising().validate() == []


def test_toric_smatrix_golden():
    # hand expansion of the balancing sum over the four pointed labels
    P = toric()
    want = {
        ("1", "1"): 1, ("1", "e"): 1, ("1", "m"): 1, ("1", "f"): 1,
        ("e", "e"): 1, ("e", "m"): -1, ("e", "f"): -1,
        ("m", "m"): 1, ("m", "f"): -1,
        ("f", "f"): 1,
    }
    for (i, j), v in want.items():
        assert P.s_entry(i, j) == Cyclo.from_rational(v)
        assert P.s_entry(j, i) == Cyclo.from_rational(v)


def test_rep_z2_smatrix_all_ones():
    P = rep_z2()
    for i in P.labels:
        for j in P.labels:
            assert P.s_entry(i, j) == ONE


def test_ising_smatrix_golden():
    P = ising()
    assert P.s_entry("1", "sigma") == SQRT2
    assert P.s_entry("psi", "sigma") == -SQRT2
    assert P.s_entry("sigma", "sigma") == Cyclo.zero()
    assert P.s_entry("psi", "psi") == ONE
    # numeric cross-check: S^2 is proportional to charge conjugation (identity here)
    labels = P.labels
    n = len(labels)
    import numpy as np
    S = np.array([[P.s_entry(a, b).approx() for b in labels] for a in labels])
    S2 = S @ S
    assert abs(S2 - 4.0 * np.eye(n)).max() < 1e-9


def test_centralizes():
    P = toric()
    assert not P.centralizes("e", "m")
    for j in P.labels:
        assert P.centralizes("1", j)
    I = ising()
    assert I.centralizes("psi", "psi")
    assert not I.centralizes("psi", "sigma")


def test_monodromy_scalars():
    P = toric()
    assert P.monodromy("e", "m") == MINUS_ONE
    assert P.monodromy("1", "f") == ONE
    I = ising()
    assert I.monodromy("psi", "sigma") == MINUS_ONE
    with pytest.raises(InputError):
        I.monodromy("sigma", "psi")


def test_centralizer_and_center():
    P = toric()
    assert P.centralizer(["1", "e"]) == ["1", "e"]
    assert P.muger_center() == ["1"]
    assert rep_z2().muger_center() == ["1", "e"]
    with pytest.raises(InputError):
        toric().centralizer(["e", "nope"])


def test_centralizes_symmetric():
    for P in (toric(), ising(), rep_z2()):
        for i in P.labels:
            for j in P.labels:
                assert P.centralizes(i, j) == P.centralizes(j, i)


def test_center_is_closed():
    for P in (toric(), ising(), rep_z2(), semion()):
        center = P.muger_center()
        keep = set(center)
        assert P.unit in keep
        for x in center:
            assert P.dual(x) in keep
            for y in center:
                assert set(P.ring.fuse(x, y)) <= keep


def test_is_nondegenerate():
    assert toric().is_nondegenerate()
    assert not rep_z2().is_nondegenerate()
    assert ising().is_nondegenerate()
    assert semion().is_nondegenerate()


def test_global_dim_and_gauss_sum():
    P = toric()
    assert P.global_dim() == Cyclo.from_rational(4)
    assert P.gauss_sum() == Cyclo.from_rational(2)
    I = ising()
    assert I.global_dim() == Cyclo.from_rational(4)
    assert I.gauss_sum() == root_of_unity(Fraction(1, 16)) * 2


def test_deligne_product():
    P = toric()
    prod = P.deligne(P)
    assert prod.ring.rank() == 16
    assert prod.global_dim() == Cyclo.from_rational(16)
    assert prod.validate() == []


def assert_kronecker(A: Premodular, B: Premodular) -> None:
    """S of the Deligne product is the Kronecker product S_(a,b),(c,d) = S_ac S_bd."""
    prod = A.deligne(B)
    for a in A.labels:
        for b in B.labels:
            for c in A.labels:
                for d in B.labels:
                    assert prod.s_entry(pair_label(a, b), pair_label(c, d)) == \
                        A.s_entry(a, c) * B.s_entry(b, d), (A.name, B.name, a, b, c, d)


def test_deligne_smatrix_kronecker():
    # every catalog pair of rank <= 4, semion x ising and ising x ising_rev among them
    entries = [e for e in catalog().values() if e.category.ring.rank() <= 4]
    for e1 in entries:
        for e2 in entries:
            assert_kronecker(e1.category, e2.category)


@pytest.mark.parametrize("name,key", UNIT_LAW_INSTANCES)
def test_deligne_smatrix_kronecker_unit_law(name, key):
    # the product Z(G) x C that verify_unit_law condenses
    entry = get(name)
    Z, _ = drinfeld_double(entry.embeddings[key].group)
    assert_kronecker(Z, entry.category)


@pytest.mark.parametrize("centralized", [False, True])
@pytest.mark.parametrize("right", STACKING_SET)
@pytest.mark.parametrize("left", STACKING_SET)
def test_deligne_smatrix_kronecker_stacking(left, right, centralized):
    # the products C x D and cent(C) x cent(D) that verify_stacking_identity
    # condenses
    cats = []
    for name, key in (left, right):
        entry = get(name)
        cats.append(relative_centralizer(entry.category, entry.embeddings[key])
                    if centralized else entry.category)
    assert_kronecker(*cats)


def test_reverse_braiding():
    I = ising()
    R = I.reverse()
    assert [R.twist(x) for x in R.labels] == [Fraction(0), Fraction(1, 2), Fraction(15, 16)]
    for P in [e.category for e in catalog().values()]:
        R = P.reverse()
        for i in P.labels:
            for j in P.labels:
                assert R.s_entry(i, j) == P.s_entry(i, j).conjugate(), (P.name, i, j)


def test_double_semion_from_semion_pair():
    prod = semion().deligne(semion(anti=True))
    tw = sorted(prod.twist(x) for x in prod.labels)
    assert tw == [Fraction(0), Fraction(0), Fraction(1, 4), Fraction(3, 4)]


def test_product_nondegeneracy_iff_factors():
    assert toric().deligne(semion()).is_nondegenerate()
    assert not toric().deligne(rep_z2()).is_nondegenerate()


def broken_twist() -> Premodular:
    # theta_e = 1/4 on the toric ring is not a quadratic refinement of any
    # bilinear form; the dual-row conjugation check must fire
    P = toric()
    return Premodular(P.ring, P.dims, {"1": Fraction(0), "e": Fraction(1, 4),
                                       "m": Fraction(0), "f": Fraction(1, 2)}, name="broken")


def test_validate_catches_inconsistent_twist():
    report = broken_twist().validate()
    assert any("smatrix" in r for r in report)


def test_all_zero_twists_on_toric_ring_is_valid_symmetric_data():
    # the same fusion ring with trivial twists is Rep(Z/2 x Z/2): valid, degenerate
    P = toric()
    sym = Premodular(P.ring, P.dims, {x: Fraction(0) for x in P.labels}, name="rep_z2xz2")
    assert sym.validate() == []
    assert not sym.is_nondegenerate()


def test_product_nondegeneracy_iff_factors_over_catalog():
    entries = [e for e in catalog().values() if e.category.ring.rank() <= 4]
    for e1 in entries:
        for e2 in entries:
            prod = e1.category.deligne(e2.category)
            want = e1.category.is_nondegenerate() and e2.category.is_nondegenerate()
            assert prod.is_nondegenerate() == want, (e1.name, e2.name)


def fibonacci_conjugate() -> Premodular:
    # zeta5 -> zeta5^2 sends d_tau = 1 + z5 + z5^4 (the golden ratio) to
    # 1 + z5^2 + z5^3 = -1/phi and the twist 2/5 to 4/5; only the sign of
    # d_tau is wrong, and d_tau is within 0.62 of 0
    fib = get("fibonacci").category
    return Premodular(fib.ring, {"1": ONE, "tau": parse_cyclo("1 + z5^2 + z5^3")},
                      {"1": Fraction(0), "tau": Fraction(4, 5)}, name="fib_conjugate")


def test_validate_rejects_the_fibonacci_galois_conjugate():
    assert fibonacci_conjugate().validate() == ["dims: d[tau] is not positive"]


# twists whose denominators multiply far past MAX_CONDUCTOR, on the toric ring
LARGE_TWISTS = {"1": Fraction(0), "e": Fraction(1, 9973), "m": Fraction(1, 9967),
                "f": Fraction(1, 9949)}


def test_validate_refuses_twists_above_the_conductor_limit_after_the_dims():
    P = toric()
    big = Premodular(P.ring, P.dims, LARGE_TWISTS)
    with pytest.raises(LimitExceeded, match="the dims and twists lie at conductor "
                                            "988,939,464,559, above the limit "
                                            "MAX_CONDUCTOR = 10,000"):
        big.validate()
    # an S-entry's root of unity is refused before it is made at its conductor
    with pytest.raises(LimitExceeded, match="a cyclotomic value reached conductor "
                                            "988,939,464,559, above the limit"):
        big.s_entry("e", "m")
    # a dims report is made before the twists are read
    bad = Premodular(P.ring, {**P.dims, "e": Cyclo.from_rational(2)}, LARGE_TWISTS)
    assert bad.validate()[0] == "dims: dimension equation fails at (e,e)"


def validate_inputs() -> list[Premodular]:
    """The catalog, its Deligne pairs up to rank 64, SU(2)_k for k <= 16, the
    broken twist, the Fibonacci conjugate, rank_two data, seeded fuzzed pointed
    data, bad dims under twists above the conductor limit and a dim that is no
    algebraic integer (every other dim has denominator 1)."""
    cats = [e.category for e in catalog().values()]
    rng, toric_ring = random.Random(FUZZ_SEED), toric().ring
    return cats + [C.deligne(D) for C in cats for D in cats
                   if C.ring.rank() * D.ring.rank() <= 64] + [
        su2_level(k) for k in range(1, 17)] + [broken_twist(), fibonacci_conjugate()] + [
        rank_two(n) for n in (1, 3, 7)] + [
        Premodular(rank_two(3).ring, rank_two(1).dims, rank_two(3).twists)] + [
        _random_pointed(rng)[1] for _ in range(40)] + [
        M.to_premodular() for M, _ in tables_that_are_not_quadratic()] + [
        Premodular(toric_ring, {**toric().dims, "e": Cyclo.from_rational(2)}, LARGE_TWISTS),
        # a dim with a denominator, so the rules' common denominator is not 1
        Premodular(toric_ring, {**toric().dims, "e": Cyclo.from_rational(Fraction(1, 2))},
                   toric().twists)]


def test_validate_matches_the_cyclo_reference(monkeypatch):
    inputs = validate_inputs()
    with monkeypatch.context() as m:  # validate computes no S-entry
        m.setattr(Premodular, "s_entry", lambda *a: pytest.fail("validate called s_entry"))
        packed = [P.validate() for P in inputs]
    reports = list(zip(packed, map(cyclo_validate, inputs)))
    assert all(packed == cyclo for packed, cyclo in reports)
    # both outcomes, and how often each of the two rules fails
    kinds = Counter(msg.split(" at ")[0] for packed, _ in reports for msg in packed)
    assert (sum(not packed for packed, _ in reports), len(reports),
            kinds["dims: dimension equation fails"],
            kinds["smatrix: dual row is not the conjugate"]) == (241, 282, 15, 182)


def balancing_reference(P, i, j):
    """S_ij by the balancing formula as s_entry computed it before it used
    integer turns: Fraction turn differences and a sum seeded with zero."""
    ri, rj = P.twist(i), P.twist(j)
    val = Cyclo.zero()
    for k, n in P.ring.fuse(P.dual(i), j).items():
        term = root_of_unity(P.twist(k) - ri - rj) * P.dim(k)
        val = val + (term if n == 1 else term * n)
    return val


def test_s_entry_and_fingerprint_match_the_balancing_reference():
    # the S-entries equal the reference; the equivalence fingerprints, which
    # read no S, refine the S-rows: labels with equal fingerprints, in one
    # category or in two, have equal S-row multisets (the units of the two
    # products differ only in the dims of the outputs in their balancing tuples)
    fib = get("fibonacci").category
    small = [e.category for e in catalog().values()] + [su2_level(k) for k in range(4, 17)] + [
        get("rep_z2").category.deligne(fib), fib.deligne(fib)]
    pointed = [M.to_premodular(check_smatrix=False) for M, _ in oracle_draws()]
    s_row_of: dict = {}
    for P in small + pointed:
        want = {(i, j): balancing_reference(P, i, j) for i in P.labels for j in P.labels}
        assert {(i, j): P.s_entry(i, j) for i in P.labels for j in P.labels} == want, P.name
        for x, fp in label_fingerprints(P).items():
            s_row = sorted(want[(x, j)].sort_key() for j in P.labels)
            assert s_row_of.setdefault(fp, s_row) == s_row, (P.name, x)


def z2_cubed() -> Premodular:
    """Pointed Z2^3, all labels self-dual, twist 1/2 on (1,1,1) only: the
    data validates, yet it is no braided category."""
    q = {a: Fraction(1, 2) if a == (1, 1, 1) else Fraction(0) for a in iter_elements([2, 2, 2])}
    return MetricGroup([2, 2, 2], q, name="z2cubed").to_premodular()


def test_transparency_matches_the_s_reference():
    # the twist rule of centralizes and monodromy against S_ij = d_i d_j and
    # S_ex / d_x on every ordered pair, also on data that is no braided category;
    # in ising x ising_rev, (sigma,sigma)* x (sigma,sigma) has outputs of twists
    # 0, 1/2, 1/2 and 0, so a rule that reads only the first output fails here
    cats = [e.category for e in catalog().values()]
    inputs = cats + [C.deligne(D) for C in cats for D in cats
                     if C.ring.rank() * D.ring.rank() <= 36] + [
        su2_level(k) for k in (2, 4, 8, 12, 16)] + [z2_cubed()]
    for M, H in oracle_draws():
        P = M.to_premodular(check_smatrix=False)
        inputs += [P, condense_by_invertible_bosons(P, [element_label(h) for h in H]).result]
    counts = Counter()
    for P in inputs:
        for i, j in product(P.labels, P.labels):
            transparent = P.centralizes(i, j)
            assert transparent == s_centralizes(P, i, j), (P.name, i, j)
            counts["pairs"] += 1
            counts["transparent"] += transparent
            if P.is_invertible(i):
                assert P.monodromy(i, j) == s_monodromy(P, i, j), (P.name, i, j)
                counts["monodromies"] += 1
    assert (len(inputs), counts["pairs"], counts["transparent"], counts["monodromies"]) == (
        572, 314_518, 94_182, 310_191)


# -- the S-invertibility decision against the dense test -----------------------

DENSE_RANK = 17  # every SU(2)_k here; the dense r^3 test takes a second at rank 64


def s_decision(P):
    """P's (Verlinde holds, S invertible), compared with the same decision in
    Cyclo arithmetic, with the dense rank^3 test up to rank DENSE_RANK and,
    via is_nondegenerate, with the Mueger center."""
    verlinde, invertible = decided = P._s_invertibility
    assert decided == cyclo_s_invertibility(P), P.name
    if P.ring.rank() <= DENSE_RANK:
        assert invertible == dense_smatrix_invertible(P), P.name
    assert P.is_nondegenerate() == (P.muger_center() == [P.unit]) == invertible, P.name
    return verlinde, invertible


def test_s_decision_matches_dense_on_catalog_products_and_su2():
    cats = [e.category for e in catalog().values()]
    decided = [s_decision(P) for P in cats + [A.deligne(B) for A in cats for B in cats]
               + [su2_level(k) for k in range(1, 17)]]
    assert all(verlinde for verlinde, _ in decided)
    assert sum(invertible for _, invertible in decided) == 11 + 11 ** 2 + 16


def test_s_decision_matches_dense_on_oracle_inputs_and_condensations():
    rng, decided = random.Random(ORACLE_SEED), []
    for _ in range(ORACLE_COUNT):
        M, H = random_conserving_pair(rng, 64)
        P = M.to_premodular(check_smatrix=False)
        res = condense_by_invertible_bosons(P, [element_label(h) for h in H])
        decided += [s_decision(P), s_decision(res.result)]
    assert all(verlinde for verlinde, _ in decided)
    assert {invertible for _, invertible in decided} == {True, False}


def test_s_decision_matches_dense_on_split_results_and_permuted_rows():
    for P, bosons in benchmark_split_inputs():
        assert s_decision(condensed(P, bosons)) == (True, True)
    for P, image, automorphism in permuted_cases():  # a broken Verlinde reaches the dense test
        assert s_decision(permuted_rows(P, dict(zip(P.labels, image)))) == (automorphism, True)


def test_s_decision_compares_characters_across_dims():
    # with trivial twists the Fibonacci ring's S is d_i d_j: the columns of 1 and tau,
    # of dims 1 and phi, are one character, which only the comparison across dims
    # finds; times ising, each dim's own columns are distinct characters
    fib, ising = get("fibonacci").category, get("ising").category
    flat = Premodular(fib.ring, fib.dims, {x: Fraction(0) for x in fib.labels}, name="flat fib")
    assert flat.validate() == []
    assert s_decision(flat) == s_decision(flat.deligne(ising)) == (True, False)
