"""Pointed premodular categories as metric groups (A, q), and the exact
brute-force condensation oracle H -> H_perp / H."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from . import abelian
from .abelian import Element
from .cyclo import Cyclo, root_of_unity, turn_mod1
from .errors import InputError, InternalFault
from .fusion import _with_rows
from .premodular import Premodular


def element_label(a: Element) -> str:
    return "(" + ",".join(str(x) for x in a) + ")"


@dataclass
class MetricGroup:
    """Finite abelian group with a quadratic form q valued in rational turns."""

    invariant_factors: list[int]
    q: dict[Element, Fraction]
    name: str = "metric"

    def __post_init__(self):
        self.invariant_factors = abelian.check_factors(self.invariant_factors)
        elems = self.elements()
        for a in elems:
            if a not in self.q:
                raise InputError(f"q is missing element {element_label(a)}")
        self.q = {a: turn_mod1(self.q[a]) for a in elems}

    def elements(self) -> list[Element]:
        return abelian.iter_elements(self.invariant_factors)

    def order(self) -> int:
        return abelian.group_order(self.invariant_factors)

    def add(self, a: Element, b: Element) -> Element:
        return abelian.add(self.invariant_factors, a, b)

    def neg(self, a: Element) -> Element:
        return abelian.neg(self.invariant_factors, a)

    def zero(self) -> Element:
        return abelian.zero(self.invariant_factors)

    def bilinear(self, a: Element, b: Element) -> Fraction:
        return turn_mod1(self.q[self.add(a, b)] - self.q[a] - self.q[b])

    def validate(self) -> list[str]:
        bad: list[str] = []
        if self.q[self.zero()] != 0:
            bad.append("q(0) != 0")
        elems = self.elements()
        for a in elems:
            if self.q[self.neg(a)] != self.q[a]:
                bad.append(f"q(-a) != q(a) at a = {element_label(a)}")
        factors = self.invariant_factors
        basis = [tuple(int(j == i) % n for j, n in enumerate(factors)) for i in range(len(factors))]
        if self.q[self.zero()] == 0 and next(self._not_biadditive(basis), None) is None:
            return bad
        return bad + [f"B not biadditive at ({element_label(a)},{element_label(b)},"
                      f"{element_label(c)})" for a, b, c in self._not_biadditive(elems)]

    def _not_biadditive(self, firsts):
        """The triples (a, b, c), a in firsts, in order, with B(a + b, c) !=
        B(a, c) + B(b, c), read from an integer table of B.

        Given q(0) = 0, none with a in a basis means none at all: B(0, c) = 0
        and biadditivity holds at a = 0; from a and e_i it follows at a + e_i,
        as B(a + e_i + b, c) = B(e_i, c) + B(a + b, c) = B(e_i, c) + B(a, c) +
        B(b, c) = B(a + e_i, c) + B(b, c).  So validity reads rank * |A|^2
        triples, not |A|^3."""
        elems = self.elements()
        at = {a: i for i, a in enumerate(elems)}
        den, Q = self._integer_form()
        q = [Q[a] for a in elems]
        sums = [[at[self.add(a, b)] for b in elems] for a in elems]  # indices of a + b
        B = [[(q[k] - qa - qb) % den for k, qb in zip(row, q)]
             for row, qa in zip(sums, q)]  # B(a, b) in turns of 1/den
        for a in firsts:
            for b, row_b, ab in zip(elems, B, sums[at[a]]):
                for c, x, y, z in zip(elems, B[at[a]], row_b, B[ab]):
                    if (x + y - z) % den:
                        yield a, b, c

    def _integer_form(self) -> tuple[int, dict[Element, int]]:
        """den, the lcm of q's denominators, and Q = q * den in integers, so
        that B(a, b) = 0 iff (Q[a + b] - Q[a] - Q[b]) % den == 0."""
        den = lcm(*(r.denominator for r in self.q.values()))
        return den, {a: r.numerator * (den // r.denominator) for a, r in self.q.items()}

    def _perp(self, sub: list[Element]):
        """The elements a, in order, with B(a, h) = 0 for every h in sub."""
        den, Q = self._integer_form()
        for a in self.elements():
            if all((Q[self.add(a, h)] - Q[a] - Q[h]) % den == 0 for h in sub):
                yield a

    def is_perfect_pairing(self) -> bool:
        """B nondegenerate: only 0 pairs trivially with everything."""
        radical = self._perp(self.elements())
        next(radical)  # 0
        return next(radical, None) is None

    # -- subgroups -----------------------------------------------------------

    def subgroup(self, gens) -> list[Element]:
        return abelian.subgroup_closure(self.invariant_factors, gens)

    def orthogonal_complement(self, subgroup: list[Element]) -> list[Element]:
        return list(self._perp([abelian.check_element(self.invariant_factors, h)
                                for h in subgroup]))

    def is_isotropic(self, subgroup: list[Element]) -> bool:
        sub = [abelian.check_element(self.invariant_factors, h) for h in subgroup]
        return all(self.q[h] == 0 for h in sub)

    # -- condensation oracle ---------------------------------------------------

    def condense(self, subgroup_gens) -> "MetricGroup":
        """Exact condensation by an isotropic subgroup: (H_perp / H, q-bar)."""
        H = self.subgroup(subgroup_gens)
        if not self.is_isotropic(H):
            bad = next(h for h in H if self.q[h] != 0)
            raise InputError(
                f"subgroup is not isotropic: q({element_label(bad)}) = {self.q[bad]}")
        Hperp = self.orthogonal_complement(H)
        # H <= H_perp and q is constant on the cosets x + H follow from
        # isotropy and the definition of B (tests/test_invariants.py)
        ns, xs = abelian.quotient_basis(self.invariant_factors, Hperp, H)
        new_q = {}
        for t in abelian.iter_elements(ns):
            x = tuple(sum(c * g[j] for c, g in zip(t, xs)) % n
                      for j, n in enumerate(self.invariant_factors))
            new_q[t] = self.q[x]
        return MetricGroup(ns, new_q, name=f"{self.name}/H{len(H)}")

    # -- categorification --------------------------------------------------------

    def to_premodular(self, name: str = "", check_smatrix: bool = False) -> Premodular:
        elems = self.elements()
        lab = {a: element_label(a) for a in elems}
        labels = list(lab.values())
        dual = {lab[a]: lab[self.neg(a)] for a in elems}
        rows = {}
        for a in elems:
            # a + b for b in lexicographic order: each coordinate range rotated by a
            sums = product(*([*range(x, n), *range(x)]
                             for x, n in zip(a, self.invariant_factors)))
            la = lab[a]
            rows.update(((la, lb), {lab[c]: 1}) for lb, c in zip(labels, sums))
        ring = _with_rows(labels, dual, rows)
        one = Cyclo.one()
        P = Premodular(ring, {x: one for x in labels},
                       {lab[a]: self.q[a] for a in elems},
                       name=name or self.name)
        if check_smatrix:  # the balancing formula pairs i* with j: S realizes B(a, -b)
            for a, b in product(elems, elems):
                if P.s_entry(lab[a], lab[b]) != root_of_unity(self.bilinear(a, self.neg(b))):
                    raise InternalFault(
                        f"pointed S-matrix differs from the pairing at ({lab[a]},{lab[b]})")
        return P


def quadratic_form_from_rule(factors: list[int],
                             coeffs: dict[tuple[int, int], Fraction]) -> dict[Element, Fraction]:
    """Evaluate q(x) = sum_(i<=j) c_ij x_i x_j on every element."""
    r = len(factors)
    for (i, j) in coeffs:
        if not (0 <= i <= j < r):
            raise InputError(f"bad coefficient index ({i},{j})")
    out = {}
    for a in abelian.iter_elements(factors):
        val = Fraction(0)
        for (i, j), c in coeffs.items():
            val += c * a[i] * a[j]
        out[a] = turn_mod1(val)
    return out
