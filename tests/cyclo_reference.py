"""Test-only reference: the cyclotomic arithmetic core as it was before
values became integer coordinates over one denominator.  Each value keeps one
`fractions.Fraction` per coordinate of the basis B_n at its conductor (the
basis, Phi_n and the cosine bounds are shared with `setcat.cyclo`, which did
not change them).  `tests/test_cyclo_differential.py` asserts that the engine
and this core agree on every operation, value text and key.  Nothing in
`src/` imports it."""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from setcat.cyclo import _basis, _cos_bounds, cyclotomic_polynomial, turn_mod1
from setcat.errors import InputError


def _canonical(n: int, raw: dict[int, Fraction]) -> dict[int, Fraction]:
    """Rewrite sum c*z^e (any integer exponents e) in the basis B_n."""
    if n == 1:
        c = sum(raw.values())
        return {0: c} if c else {}
    for p, pa, u, phi, step in _basis(n):
        out: dict[int, Fraction] = {}
        for e, c in raw.items():
            if e * u % pa < phi:
                e %= n
                out[e] = out.get(e, 0) + c
            else:
                for f in range(e - step, e - p * step, -step):
                    f %= n
                    out[f] = out.get(f, 0) - c
        raw = out
    return {e: c for e, c in raw.items() if c}


def _lift(coeffs: dict[int, Fraction], n: int, big: int) -> dict[int, Fraction]:
    """A form canonical at n, rewritten at a multiple big of n (still canonical)."""
    if n == big:
        return coeffs
    f = big // n
    return {e * f: c for e, c in coeffs.items()}


def _minimize(n: int, coeffs: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    """Rewrite a form canonical at n at the conductor of its value.

    The value lies in Q(zeta_(n/p)) iff p divides every exponent, and
    dividing the exponents by p keeps the form canonical, so the conductor
    is n / gcd(n, exponents).
    """
    if not coeffs:
        return 1, {}
    g = gcd(n, *coeffs)
    if g == 1:
        return n, coeffs
    return n // g, {e // g: c for e, c in coeffs.items()}


def _power_basis(n: int, coeffs: dict[int, Fraction]) -> dict[int, Fraction]:
    """Coordinates over 1, z, ..., z^(phi(n)-1): one long division by Phi_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    if max(coeffs) < deg:
        return coeffs
    den = lcm(*(c.denominator for c in coeffs.values()))
    rem = [0] * n
    for e, c in coeffs.items():
        rem[e] = c.numerator * (den // c.denominator)
    low = [(j, c) for j, c in enumerate(phi[:deg]) if c]
    for i in range(n - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, pj in low:
                rem[i - deg + j] -= c * pj
    return {e: Fraction(c, den) for e, c in enumerate(rem[:deg]) if c}


class Cyclo:
    """An exact element of some cyclotomic field, in canonical form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, Fraction], _canonical_form: bool = False):
        if not _canonical_form:
            coeffs = _canonical(order, {e: Fraction(c) for e, c in coeffs.items()})
            order, coeffs = _minimize(order, coeffs)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo values are immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Cyclo":
        q = Fraction(q)
        return Cyclo(1, {0: q} if q else {}, _canonical_form=True)

    @staticmethod
    def zero() -> "Cyclo":
        return _ZERO

    @staticmethod
    def one() -> "Cyclo":
        return _ONE

    # -- basic predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return self.order == 1

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise InputError(f"value {self} is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def is_real(self) -> bool:
        return self.conjugate() == self

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclo.from_rational(x)
        return NotImplemented

    def __add__(self, other):
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.coeffs:  # values are immutable, so an operand can be shared
            return self
        if not self.coeffs:
            return other
        if self.order == 1 and other.order == 1:
            return Cyclo.from_rational(self.as_fraction() + other.as_fraction())
        big = lcm(self.order, other.order)
        a = _lift(self.coeffs, self.order, big)
        b = _lift(other.coeffs, other.order, big)
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        n, out = _minimize(big, out)
        return Cyclo(n, out, _canonical_form=True)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, {e: -c for e, c in self.coeffs.items()}, _canonical_form=True)

    def __sub__(self, other):
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Cyclo):
            if self.order == 1:
                self, other = other, self.as_fraction()
            elif other.order == 1:
                other = other.as_fraction()
            else:
                big = lcm(self.order, other.order)
                a = _lift(self.coeffs, self.order, big)
                b = _lift(other.coeffs, other.order, big)
                raw: dict[int, Fraction] = {}
                for e1, c1 in a.items():
                    for e2, c2 in b.items():
                        e = e1 + e2
                        raw[e] = raw.get(e, 0) + c1 * c2
                out = _canonical(big, raw)
                n, out = _minimize(big, out)
                return Cyclo(n, out, _canonical_form=True)
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return _ZERO
        if other == 1:  # values are immutable, so an operand can be shared
            return self
        return Cyclo(self.order, {e: c * other for e, c in self.coeffs.items()},
                     _canonical_form=True)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise InputError("division by zero in cyclotomic field")
        if self.order == 1:
            return Cyclo.from_rational(1 / self.as_fraction())
        # norm trick: multiply the remaining Galois conjugates, divide by the norm
        prod = _ONE
        n = self.order
        for k in range(2, n):
            if gcd(k, n) == 1:
                prod = prod * self.galois(k)
        norm = self * prod
        return prod * (1 / norm.as_fraction())

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclo._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- Galois actions ----------------------------------------------------

    def galois(self, k: int) -> "Cyclo":
        """Apply zeta_n -> zeta_n^k; k must be coprime to the order."""
        n = self.order
        if n == 1:
            return self
        if gcd(k, n) != 1:
            raise InputError(f"galois exponent {k} not coprime to order {n}")
        out = _canonical(n, {e * k: c for e, c in self.coeffs.items()})
        return Cyclo(n, out, _canonical_form=True)

    def conjugate(self) -> "Cyclo":
        if self.order == 1:
            return self
        return self.galois(self.order - 1)

    # -- exact sign ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign (-1, 0 or 1) of a real value.

        A rational value reads its Fraction.  Otherwise the value, the sum of
        c * cos(2 pi e / n) over its terms, is bracketed between rational
        bounds on each cosine, refined until the bracket excludes 0; a real
        value that is not rational is not 0, so the refinement ends."""
        if self.order == 1:
            q = self.as_fraction()
            return (q > 0) - (q < 0)
        if not self.is_real():
            raise InputError(f"value {self} is not real")
        bits = 32
        while True:
            lo = hi = Fraction(0)
            for e, c in self.coeffs.items():
                a, b = _cos_bounds(Fraction(e, self.order), bits)
                lo += c * (a if c > 0 else b)
                hi += c * (b if c > 0 else a)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    # -- numeric embedding -------------------------------------------------

    def approx(self) -> complex:
        n = self.order
        return sum((complex(c) * cmath.exp(2j * cmath.pi * e / n)
                    for e, c in self.coeffs.items()), complex(0))

    # -- comparisons, hashing, ordering keys -------------------------------

    def __eq__(self, other):
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def sort_key(self):
        """Deterministic total-order key (no numeric meaning)."""
        items = tuple(sorted((e, c.numerator, c.denominator)
                             for e, c in self.coeffs.items()))
        return (self.order, items)

    def __str__(self):
        return format_cyclo(self)

    def __repr__(self):
        return f"Cyclo({format_cyclo(self)})"


_ZERO = Cyclo(1, {}, _canonical_form=True)
_ONE = Cyclo(1, {0: Fraction(1)}, _canonical_form=True)


@lru_cache(maxsize=None)
def _root(p: int, q: int) -> Cyclo:
    return Cyclo(q, {p: Fraction(1)})


@lru_cache(maxsize=None)
def root_of_unity(r, q: int | None = None) -> Cyclo:
    """Exact e^(2*pi*i*r) for a rational turn r (or a p, q pair of ints).

    Memoised on the turn as given, so the reduction mod 1 runs once per
    distinct argument."""
    if q is not None:
        if q == 0:
            raise InputError("root_of_unity: zero denominator")
        r = Fraction(r, q)
    r = turn_mod1(r)
    return _root(r.numerator, r.denominator)


def format_cyclo(v: Cyclo) -> str:
    """Canonical textual form; parse(format(v)) == v when v.order <= MAX_CONDUCTOR."""
    if v.is_zero():
        return "0"
    coeffs = _power_basis(v.order, v.coeffs)
    parts = []
    for e in sorted(coeffs):
        c = coeffs[e]
        if e == 0:
            term = str(c) if c > 0 else f"-{-c}"
        else:
            base = f"z{v.order}" if e == 1 else f"z{v.order}^{e}"
            if c == 1:
                term = base
            elif c == -1:
                term = f"-{base}"
            elif c > 0:
                term = f"{c}*{base}"
            else:
                term = f"-{-c}*{base}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out
