"""Seeded randomized property trials: exact-arithmetic identities, and the
engine-versus-oracle comparison on random pointed categories."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, prod

from .cyclo import Cyclo, root_of_unity
from .equiv import find_equivalence
from .errors import InternalFault
from .pointed import MetricGroup, element_label, quadratic_form_from_rule
from .relprod import condense_by_invertible_bosons

_SHAPES = [[2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2], [9],
           [3, 3], [10], [12], [2, 6], [16], [4, 4], [2, 2, 4], [2, 8],
           [5, 5], [2, 2, 2, 2], [3, 12], [2, 16], [6, 6], [24], [32],
           [2, 4, 4], [48], [64], [2, 32], [4, 16], [2, 2, 2, 2, 2], [8, 8]]

_CONSERVING_ATTEMPTS = 50


def random_cyclo(rng: random.Random, max_order: int = 24) -> Cyclo:
    """All terms of one value drawn from a single field of order <= max_order."""
    n = rng.randint(1, max_order)
    val = Cyclo.zero()
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(n)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        val = val + root_of_unity(Fraction(k, n)) * c
    return val


def random_metric_group(rng: random.Random, max_order: int = 64) -> MetricGroup:
    factors = list(rng.choice(
        [s for s in _SHAPES if prod(s) <= max_order]))
    coeffs = {}
    for i, ni in enumerate(factors):
        a = rng.randrange(2 * ni)
        if ni % 2 == 1 and a % 2 == 1:
            a += 1  # odd cyclic factors need an even numerator over 2n
        coeffs[(i, i)] = Fraction(a, 2 * ni)
        for j in range(i + 1, len(factors)):
            g = gcd(ni, factors[j])
            coeffs[(i, j)] = Fraction(rng.randrange(g), g)
    q = quadratic_form_from_rule(factors, coeffs)
    return MetricGroup(factors, q, name="random")


def random_isotropic_subgroup(M: MetricGroup, rng: random.Random) -> list:
    """A random isotropic subgroup, grown by closure of accepted elements."""
    elems = M.elements()
    rng.shuffle(elems)
    H = [M.zero()]
    for a in elems:
        if M.q[a] != 0 or a in H:
            continue
        cand = M.subgroup([g for g in H if g != M.zero()] + [a])
        if M.is_isotropic(cand):
            H = cand
    return H


def random_conserving_pair(rng: random.Random,
                           max_order: int = 64) -> tuple[MetricGroup, list]:
    """(M, H) with H isotropic and |H_perp| * |H| = |A|, so that the
    dimension conservation law applies to the condensation."""
    for _ in range(_CONSERVING_ATTEMPTS):
        M = random_metric_group(rng, max_order)
        H = random_isotropic_subgroup(M, rng)
        if len(M.orthogonal_complement(H)) * len(H) == M.order():
            return M, H
        H = [M.zero()]
        if len(M.orthogonal_complement(H)) == M.order():
            return M, H
    raise InternalFault("could not sample a conserving pair")


def pointed_oracle_trial(rng: random.Random, max_order: int = 64) -> dict:
    """One engine-vs-oracle comparison; returns the exact bookkeeping."""
    M, H = random_conserving_pair(rng, max_order)
    oracle = M.condense([g for g in H if g != M.zero()])
    P = M.to_premodular()
    res = condense_by_invertible_bosons(P, [element_label(h) for h in H])
    sigma = find_equivalence(res.result, oracle.to_premodular())
    return {
        "group": list(M.invariant_factors),
        "subgroup_size": len(H),
        "result_rank": res.result.ring.rank(),
        "agrees": sigma is not None,
        "input_perfect_pairing": M.is_perfect_pairing(),
        "condensation": res,
        "metric_group": M,
        "subgroup": H,
    }


def run_pointed_oracle_trials(count: int, max_order: int, seed: int) -> dict:
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        trial = pointed_oracle_trial(rng, max_order)
        if not trial["agrees"]:
            failures.append(i)
    return {"count": count, "max_order": max_order, "seed": seed,
            "failures": failures, "ok": not failures}


def run_arithmetic_trials(count: int, seed: int) -> dict:
    """Field axioms, conjugation, and root-of-unity identities, exactly,
    plus float cross-checks of every exact computation."""
    rng = random.Random(seed)
    failures = []
    one = Cyclo.one()
    for i in range(count):
        a = random_cyclo(rng)
        b = random_cyclo(rng)
        c = random_cyclo(rng)
        checks = [
            (a + b) - b == a,
            a + b == b + a,
            a * b == b * a,
            (a + b) * c == a * c + b * c,
            (a * b) * c == a * (b * c),
            (a + b).conjugate() == a.conjugate() + b.conjugate(),
            (a * b).conjugate() == a.conjugate() * b.conjugate(),
            a.conjugate().conjugate() == a,
        ]
        if not a.is_zero():
            checks.append(a * a.inverse() == one)
        q = rng.randint(1, 24)
        p = rng.randrange(q)
        r = root_of_unity(Fraction(p, q))
        checks.append(r ** q == one)
        checks.append(r.conjugate() * r == one)
        checks.append(abs((a * b).approx() - a.approx() * b.approx()) < 1e-9)
        checks.append(abs((a + b).approx() - (a.approx() + b.approx())) < 1e-9)
        checks.append(abs(abs(r.approx()) - 1.0) < 1e-12)
        if not all(checks):
            failures.append(i)
    return {"count": count, "seed": seed, "failures": failures, "ok": not failures}
