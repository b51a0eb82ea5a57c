import random
import re
from fractions import Fraction
from functools import cache
from math import prod

import pytest

from setcat import abelian
from setcat.cyclo import Cyclo, root_of_unity
from setcat.double import drinfeld_double, rep_abelian
from setcat.embedding import SymmetryEmbedding
from setcat.errors import InputError
from setcat.pointed import MetricGroup, element_label, quadratic_form_from_rule
from setcat.premodular import Premodular
from setcat.randomized import (random_conserving_pair, random_isotropic_subgroup,
                               random_metric_group as _random_metric_group)

from .test_acceptance import ORACLE_COUNT, ORACLE_SEED

F = Fraction


def semion_group() -> MetricGroup:
    return MetricGroup([2], {(0,): F(0), (1,): F(1, 4)}, name="semion")


def toric_group() -> MetricGroup:
    # q(a, b) = a*b/2 on Z/2 x Z/2
    q = {(a, b): F(a * b, 2) for a in range(2) for b in range(2)}
    return MetricGroup([2, 2], q, name="toric")


def test_validate_toric():
    assert toric_group().validate() == []
    assert semion_group().validate() == []


def test_to_premodular_semion():
    P = semion_group().to_premodular()
    assert [P.twist(x) for x in P.labels] == [F(0), F(1, 4)]
    assert P.validate() == []


def test_to_premodular_toric():
    P = toric_group().to_premodular()
    assert sorted(P.twist(x) for x in P.labels) == [F(0), F(0), F(0), F(1, 2)]
    assert P.validate() == []
    assert P.is_nondegenerate()


def test_float_turns_are_refused_below_the_parser():
    """No float becomes a twist or a value of q: each entry point refuses it
    with the TypeError of `Cyclo.from_rational`, and int and Fraction turns
    still pass."""
    P = semion_group().to_premodular()
    for bad in (0.1, 0.25, "1/4"):
        with pytest.raises(TypeError, match="exact rational expected"):
            Premodular(P.ring, P.dims, {P.unit: F(0), P.labels[1]: bad})
        with pytest.raises(TypeError, match="exact rational expected"):
            MetricGroup([2], {(0,): F(0), (1,): bad})
    with pytest.raises(TypeError, match="exact rational expected"):
        quadratic_form_from_rule([2], {(0, 0): 0.25})
    assert Premodular(P.ring, P.dims, {P.unit: 0, P.labels[1]: F(5, 4)}).twist(
        P.labels[1]) == F(1, 4)
    assert MetricGroup([2], {(0,): 1, (1,): F(-3, 4)}).q == semion_group().q
    assert quadratic_form_from_rule([2], {(0, 0): F(1, 4)}) == semion_group().q
    assert quadratic_form_from_rule([2], {(0, 0): 1}) == {(0,): F(0), (1,): F(0)}


def test_trivial_group_is_vec():
    M = MetricGroup([], {(): F(0)}, name="vec")
    P = M.to_premodular()
    assert P.labels == ["()"]
    assert P.global_dim() == Cyclo.one()


def test_orthogonal_complement_and_isotropy():
    M = toric_group()
    e = (1, 0)
    H = M.subgroup([e])
    assert M.orthogonal_complement(H) == [(0, 0), (1, 0)]
    assert M.is_isotropic(H)
    f = (1, 1)
    assert not M.is_isotropic(M.subgroup([f]))
    assert M.orthogonal_complement([M.zero()]) == M.elements()
    with pytest.raises(InputError):
        M.subgroup([(2, 0)])


def test_condense_toric_by_e_gives_vec():
    M = toric_group()
    out = M.condense([(1, 0)])
    assert out.invariant_factors == []
    assert out.order() == 1


def test_condense_rejects_nonisotropic():
    # Z/4 with q(a) = a^2/8: q(2) = 1/2, so <2> is not condensable
    q = {(a,): F(a * a, 8) for a in range(4)}
    M = MetricGroup([4], q, name="z4")
    assert M.validate() == []
    with pytest.raises(InputError):
        M.condense([(2,)])


def test_condense_double_toric_diagonal():
    # toric + toric condensed along <(e, e)> gives the toric code back
    q = {}
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    q[(a, b, c, d)] = F(a * b, 2) + F(c * d, 2)
    M = MetricGroup([2, 2, 2, 2], q, name="toric+toric")
    out = M.condense([(1, 0, 1, 0)])
    assert out.order() == 4
    assert sorted(out.q.values()) == [F(0), F(0), F(0), F(1, 2)]


def test_random_metric_groups_validate_construction():
    rng = random.Random(4242)
    for _ in range(25):
        M = _random_metric_group(rng, max_order=16)
        assert M.validate() == []


def test_condense_conservation_randomized():
    rng = random.Random(20240812)
    done = 0
    while done < 40:
        M = _random_metric_group(rng, max_order=64)
        H = random_isotropic_subgroup(M, rng)
        Hperp = M.orthogonal_complement(H)
        if len(Hperp) * len(H) != M.order():
            continue  # only pairing-saturating subgroups conserve dimensions
        done += 1
        out = M.condense([g for g in H if g != M.zero()])
        assert out.order() * len(H) ** 2 == M.order()
        g_in = M.to_premodular(check_smatrix=False).gauss_sum()
        g_out = out.to_premodular(check_smatrix=False).gauss_sum()
        assert g_out * len(H) == g_in


def test_condense_preserves_nondegeneracy():
    rng = random.Random(77)
    done = 0
    while done < 15:
        M = _random_metric_group(rng, max_order=32)
        if not M.is_perfect_pairing():
            continue
        H = random_isotropic_subgroup(M, rng)
        done += 1
        out = M.condense([g for g in H if g != M.zero()])
        assert out.is_perfect_pairing()


def test_perfect_pairing_matches_premodular_nondegeneracy():
    rng = random.Random(31337)
    for _ in range(10):
        M = _random_metric_group(rng, max_order=16)
        P = M.to_premodular(check_smatrix=False)
        assert M.is_perfect_pairing() == P.is_nondegenerate()


@cache
def oracle_draws() -> tuple:
    """The (M, H) pairs of the acceptance pointed oracle."""
    rng = random.Random(ORACLE_SEED)
    return tuple(random_conserving_pair(rng, 64) for _ in range(ORACLE_COUNT))


def assert_quotient_basis(M, H):
    Hperp = M.orthogonal_complement(H)
    ns, xs = abelian.quotient_basis(M.invariant_factors, Hperp, H)
    assert all(n > 1 for n in ns) and all(b % a == 0 for a, b in zip(ns, ns[1:]))
    in_H = set(H)
    for n, x in zip(ns, xs):
        assert x in Hperp
        multiples = [x]
        while multiples[-1] not in in_H:
            multiples.append(M.add(multiples[-1], x))
        assert len(multiples) == n  # the order of x modulo H
    cosets = {min(M.add(h, tuple(sum(c * g[j] for c, g in zip(t, xs)) % f
                                 for j, f in enumerate(M.invariant_factors)))
                  for h in H)
              for t in abelian.iter_elements(ns)}
    assert len(cosets) == prod(ns) == len(Hperp) // len(H)
    return ns


def closure_quotient_basis(factors, sup, sub):
    """`abelian.quotient_basis` as it was before K + <x> was built from the
    cosets K + m x: by the closure of K and x."""
    def order_mod(x, K):
        n, y = 1, x
        while y not in K:
            n, y = n + 1, abelian.add(factors, y, x)
        return n

    sub_set, K = set(sub), set(sub)
    ns, xs = [], []
    while len(K) < len(sup):
        n, x = 1, None
        for y in sup:
            m = order_mod(y, K)
            if m > n and m == order_mod(y, sub_set):
                n, x = m, y
        K = set(abelian.subgroup_closure(factors, [*K, x]))
        ns.append(n)
        xs.append(x)
    return ns[::-1], xs[::-1]


def test_quotient_basis_on_oracle_draws():
    for M, H in oracle_draws():
        assert_quotient_basis(M, H)
        args = (M.invariant_factors, M.orthogonal_complement(H), H)
        assert abelian.quotient_basis(*args) == closure_quotient_basis(*args)


def test_quotient_basis_on_nonconserving_subgroups():
    rng = random.Random(5)
    done = 0
    while done < 40:
        M = _random_metric_group(rng, max_order=64)
        H = random_isotropic_subgroup(M, rng)
        if len(M.orthogonal_complement(H)) * len(H) == M.order():
            continue
        done += 1
        assert_quotient_basis(M, H)


def test_quotient_basis_on_toric_cases():
    M = toric_group()
    assert assert_quotient_basis(M, [M.zero()]) == [2, 2]
    assert assert_quotient_basis(M, M.subgroup([(1, 0)])) == []
    assert assert_quotient_basis(M, M.subgroup([(0, 1)])) == []
    q = {a: F(a[0] * a[1] + a[2] * a[3], 2) for a in abelian.iter_elements([2, 2, 2, 2])}
    M2 = MetricGroup([2, 2, 2, 2], q, name="toric+toric")
    assert assert_quotient_basis(M2, M2.subgroup([(1, 0, 1, 0)])) == [2, 2]
    assert assert_quotient_basis(M2, M2.subgroup([(1, 0, 1, 0), (0, 1, 0, 1)])) == []


def test_group_data_that_is_not_a_positive_integer_is_refused_not_truncated():
    # refused, not truncated: int() would make [2.7] double_2 and [True, 2] double_1x2
    builders = [(lambda: drinfeld_double([2.7]), 2.7), (lambda: drinfeld_double([True, 2]), True),
                (lambda: rep_abelian([2, 0]), 0),
                (lambda: MetricGroup([2.9], {(0,): F(0), (1,): F(0)}), 2.9),
                (lambda: SymmetryEmbedding([2.0], "rep_z2", {(0,): "1", (1,): "e"}), 2.0)]
    for build, value in builders:
        with pytest.raises(InputError, match=re.escape(f"invariant factor {value!r} is not")):
            build()
    M = toric_group()
    for bad in [(1.0, 0), (True, 0), (0, 2), (0,)]:
        with pytest.raises(InputError, match=re.escape(f"element {bad} is not in the group")):
            M.orthogonal_complement([bad])
    assert M.subgroup([(1, 0)]) == [(0, 0), (1, 0)] and drinfeld_double([2])[0].name == "double_2"


def test_integer_pairing_matches_the_fraction_pairing(monkeypatch):
    """orthogonal_complement and is_perfect_pairing decide B(a, b) = 0 in the
    integer form q * den; a reference reads `bilinear`, in Fractions, on the
    oracle draws, on every metric group the catalog builds (each with its
    cyclic subgroups) and on forms on Z24 whose turns mix denominators."""
    from setcat import catalog

    def perp(M, H):
        return [a for a in M.elements() if all(M.bilinear(a, h) == 0 for h in H)]

    built = []
    to_premodular = MetricGroup.to_premodular
    monkeypatch.setattr(MetricGroup, "to_premodular",
                        lambda M, *args, **kw: built.append(M) or to_premodular(M, *args, **kw))
    catalog.catalog.__wrapped__()
    assert len(built) >= 10
    mixed = [MetricGroup([24], {(x,): F((x % 8) ** 2, c8) + F(c3 * (x % 3) ** 2, 3)
                                for x in range(24)})
             for c8 in (8, 16) for c3 in (0, 1, 2)]
    assert all(M.validate() == [] for M in mixed)
    assert {r.denominator for M in mixed for r in M.q.values()} >= {3, 8, 16, 24, 48}
    cases = [*oracle_draws(), *((M, M.subgroup([g])) for M in built + mixed for g in M.elements())]
    for M, H in cases:
        assert M.orthogonal_complement(H) == perp(M, H)
    groups = {id(M): M for M, _ in cases}.values()
    perfect = [M.is_perfect_pairing() for M in groups]
    assert perfect == [perp(M, M.elements()) == [M.zero()] for M in groups]
    assert True in perfect and False in perfect
