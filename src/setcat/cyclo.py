"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is stored at its conductor n, the smallest cyclotomic field
containing it (never congruent to 2 mod 4), as integer coordinates c_e over
one denominator d > 0 with gcd(d, c_e) = 1: the value sum c_e/d * z^e over the
basis B_n.  For each prime power p^a || n let u_p = (n/p^a)^-1 mod p^a; then
z^e = prod_p zeta_(p^a)^(e*u_p), and B_n is the set of z^e, 0 <= e < n, with
(e*u_p mod p^a) < phi(p^a) for every p | n: the tensor product of the power
bases of the fields Q(zeta_(p^a)).  A term that breaks the condition for p is
rewritten by the relation 1 + zeta_p + ... + zeta_p^(p-1) = 0 as

    z^e = -(z^(e - n/p) + z^(e - 2n/p) + ... + z^(e - (p-1)n/p)),

which leaves the coordinates of the other primes unchanged, so one sparse
pass per prime reduces any exponent polynomial (as in Breuer, "Integral
bases for subfields of cyclotomic fields", AAECC 8, 1997), in integers only.
In this basis a value lies in Q(zeta_(n/p)) exactly when p divides every
exponent, and lifting to a multiple of n only scales the exponents.  The form
is unique, so exact equality is a plain comparison of (order, denominator,
coefficient map), and values can be hashed and sorted.  Text is written over
the power basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n), converted by one long
division by Phi_n.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod
from numbers import Rational

from .errors import InputError, LimitExceeded, SyntaxInputError

__all__ = ["Cyclo", "root_of_unity", "parse_cyclo", "format_cyclo", "turn_mod1",
           "MAX_CONDUCTOR"]

# Largest N of a parsed root zN or twist denominator, and of any value's conductor (`_make`).
MAX_CONDUCTOR = 10_000


def turn_mod1(r) -> Fraction:
    """Normalize a rational turn into [0, 1); a float or string is a TypeError."""
    return _rational(r) % 1


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree.

    Phi_n(x) = Phi_r(x^(n/r)) for the radical r of n, and Phi_r is the
    product of (x^d - 1)^mu(r/d) over the divisors d of r.
    """
    primes = _prime_factors(n)
    r = prod(primes)
    mul, div = [], []
    for k in range(len(primes) + 1):
        for picked in combinations(primes, k):
            (div if k % 2 else mul).append(r // prod(picked))
    poly = [1]
    for d in mul:  # times (x^d - 1)
        out = [0] * (len(poly) + d)
        for i, c in enumerate(poly):
            out[i] -= c
            out[i + d] += c
        poly = out
    for d in div:  # exact quotient by (x^d - 1)
        q: list[int] = []
        for i in range(len(poly) - d):
            q.append((q[i - d] if i >= d else 0) - poly[i])
        poly = q
    s = n // r
    out = [0] * ((len(poly) - 1) * s + 1)
    out[::s] = poly
    return tuple(out)


@lru_cache(maxsize=None)
def _basis(n: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """(p, p^a, u_p, phi(p^a), n/p) for each prime power p^a || n."""
    out = []
    for p in _prime_factors(n):
        pa = p
        while n % (pa * p) == 0:
            pa *= p
        out.append((p, pa, pow(n // pa, -1, pa), pa - pa // p, n // p))
    return tuple(out)


def _canonical(n: int, raw: dict[int, int]) -> dict[int, int]:
    """Rewrite sum c*z^e (any integer exponents e) in the basis B_n."""
    if n == 1:
        c = sum(raw.values())
        return {0: c} if c else {}
    for p, pa, u, phi, step in _basis(n):
        out: dict[int, int] = {}
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


def _lift(coeffs: dict[int, int], n: int, big: int) -> dict[int, int]:
    """A form canonical at n, rewritten at a multiple big of n (still canonical)."""
    if n == big:
        return coeffs
    f = big // n
    return {e * f: c for e, c in coeffs.items()}


def _make(n: int, coeffs: dict[int, int], den: int) -> "Cyclo":
    """The value sum c/den * z^e of a form canonical at n, with den reduced,
    at its conductor n / gcd(n, exponents): the value lies in Q(zeta_(n/p))
    iff p divides every exponent, and dividing them by p keeps the form
    canonical."""
    if not coeffs:
        return _ZERO
    g = gcd(n, *coeffs)
    if g != 1:
        n //= g
        coeffs = {e // g: c for e, c in coeffs.items()}
    if n > MAX_CONDUCTOR:
        raise _above_limit(f"conductor {n:,}")
    g = gcd(den, *coeffs.values())
    if g != 1:
        den //= g
        coeffs = {e: c // g for e, c in coeffs.items()}
    return Cyclo(n, coeffs, den)


def _above_limit(where: str) -> LimitExceeded:
    return LimitExceeded(f"a cyclotomic value reached {where}, above the limit "
                         f"MAX_CONDUCTOR = {MAX_CONDUCTOR:,}")


def _power_basis(n: int, coeffs: dict[int, int]) -> dict[int, int]:
    """Coordinates over 1, z, ..., z^(phi(n)-1): one long division by Phi_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    if max(coeffs) < deg:
        return coeffs
    rem = [0] * n
    for e, c in coeffs.items():
        rem[e] = c
    low = [(j, c) for j, c in enumerate(phi[:deg]) if c]
    for i in range(n - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, pj in low:
                rem[i - deg + j] -= c * pj
    return {e: c for e, c in enumerate(rem[:deg]) if c}


def _rational(q) -> Fraction:
    """q as a Fraction; a float, string or other non-rational is a TypeError."""
    if not isinstance(q, Rational):
        raise TypeError(f"exact rational expected, not {type(q).__name__} {q!r}")
    return Fraction(q)


class Cyclo:
    """An exact element of some cyclotomic field: the sum of coeffs[e]/den *
    zeta_order^e over the basis B_order at its conductor, with integer
    coefficients, den > 0 and gcd(den, coefficients) = 1."""

    __slots__ = ("order", "coeffs", "den", "_hash")  # _hash is set by the first __hash__

    def __init__(self, order: int, coeffs: dict[int, int], den: int):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo values are immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Cyclo":
        q = _rational(q)
        return Cyclo(1, {0: q.numerator} if q else {}, q.denominator)

    @staticmethod
    def zero() -> "Cyclo":
        return _ZERO

    @staticmethod
    def one() -> "Cyclo":
        return _ONE

    # -- basic predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise InputError(f"value {self} is not rational")
        return Fraction(self.coeffs.get(0, 0), self.den)

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
        big = lcm(self.order, other.order)
        a = _lift(self.coeffs, self.order, big)
        b = _lift(other.coeffs, other.order, big)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = dict(a) if fa == 1 else {e: c * fa for e, c in a.items()}
        for e, c in b.items():
            s = out.get(e, 0) + c * fb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _make(big, out, den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, {e: -c for e, c in self.coeffs.items()}, self.den)

    def __sub__(self, other):
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):  # NotImplemented from __add__ lets Python name the "-"
        return (-self).__add__(other)

    def _scaled(self, num: int, den: int) -> "Cyclo":
        """self * num/den, for integers num and den > 0."""
        if not num:
            return _ZERO
        if num == den:  # values are immutable, so an operand can be shared
            return self
        return _make(self.order, {e: c * num for e, c in self.coeffs.items()},
                     self.den * den)

    def __mul__(self, other):
        if isinstance(other, Cyclo):
            if other.order == 1:
                return self._scaled(other.coeffs.get(0, 0), other.den)
            if self.order == 1:
                return other._scaled(self.coeffs.get(0, 0), self.den)
            big = lcm(self.order, other.order)
            if big > MAX_CONDUCTOR:  # refused before _canonical expands it at big
                # where p^a || order and p^b || other.order with a != b, p^max(a, b) divides
                # the product's conductor: x's divides lcm(that, y's), as x = (x y) y^-1
                x, y = ({p: pa for p, pa, *_ in _basis(v.order)} for v in (self, other))
                m = prod(max(x.get(p, 1), y.get(p, 1)) for p in x.keys() | y.keys()
                         if x.get(p, 1) != y.get(p, 1))
                if m > MAX_CONDUCTOR:
                    raise _above_limit(f"a multiple of conductor {m:,}")
            a = _lift(self.coeffs, self.order, big)
            b = _lift(other.coeffs, other.order, big)
            raw: dict[int, int] = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    raw[e] = raw.get(e, 0) + c1 * c2
            return _make(big, _canonical(big, raw), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        return NotImplemented

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
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

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
        # an automorphism keeps the conductor and the content of the coordinates
        out = _canonical(n, {e * k: c for e, c in self.coeffs.items()})
        return Cyclo(n, out, self.den)

    def conjugate(self) -> "Cyclo":
        if self.order == 1:
            return self
        return self.galois(self.order - 1)

    # -- exact sign ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign (-1, 0 or 1) of a real value.

        A rational value reads its numerator.  Otherwise den times the value,
        the sum of c * cos(2 pi e / n) over its terms, is bracketed between
        rational bounds on each cosine, refined until the bracket excludes 0;
        a real value that is not rational is not 0, so the refinement ends."""
        if self.order == 1:
            c = self.coeffs.get(0, 0)
            return (c > 0) - (c < 0)
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
        n, den = self.order, self.den
        return sum((complex(c / den) * cmath.exp(2j * cmath.pi * e / n)
                    for e, c in self.coeffs.items()), complex(0))

    # -- comparisons, hashing, ordering keys -------------------------------

    def __eq__(self, other):
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.coeffs == other.coeffs

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # a rational value hashes as the Fraction it equals
            h = hash(self.as_fraction() if self.order == 1 else
                     (self.order, self.den, frozenset(self.coeffs.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def __bool__(self):
        return bool(self.coeffs)

    def sort_key(self):
        """Deterministic total-order key (no numeric meaning): the sorted
        terms (e, numerator, denominator) of the fractions c/den in lowest terms."""
        items = ((e, c, gcd(c, self.den)) for e, c in self.coeffs.items())
        return (self.order, tuple(sorted((e, c // g, self.den // g) for e, c, g in items)))

    def __str__(self):
        return format_cyclo(self)

    def __repr__(self):
        return f"Cyclo({format_cyclo(self)})"


_ZERO = Cyclo(1, {}, 1)
_ONE = Cyclo(1, {0: 1}, 1)


def _dyadic(x: Fraction, bits: int, up: bool) -> Fraction:
    """x rounded down (or strictly up) to a multiple of 2^-bits."""
    return Fraction(x.numerator * 2 ** bits // x.denominator + up, 2 ** bits)


@lru_cache(maxsize=None)
def _pi_bounds(bits: int) -> tuple[Fraction, Fraction]:
    """lo <= pi <= hi with hi - lo < 2^(2-bits), by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239).  The series of atan(1/m) alternates
    with falling terms, so two consecutive partial sums bracket it."""
    def atan_inv(m: int) -> tuple[Fraction, Fraction]:
        s, k = Fraction(0), 0
        while True:
            term = Fraction(1, (2 * k + 1) * m ** (2 * k + 1))
            nxt = s - term if k % 2 else s + term
            if term < Fraction(1, 2 ** (bits + 5)):
                return min(s, nxt), max(s, nxt)
            s, k = nxt, k + 1

    (a_lo, a_hi), (b_lo, b_hi) = atan_inv(5), atan_inv(239)
    return (_dyadic(16 * a_lo - 4 * b_hi, bits, False),
            _dyadic(16 * a_hi - 4 * b_lo, bits, True))


def _cos_taylor(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """lo <= cos(x) <= hi: a Taylor polynomial, widened by the size of the
    next term, which bounds the remainder because |cos^(k)| <= 1."""
    s, term, k = Fraction(0), Fraction(1), 0
    while abs(term) >= Fraction(1, 2 ** bits):
        s += term
        k += 2
        term = -term * x * x / ((k - 1) * k)
    return s - abs(term), s + abs(term)


@lru_cache(maxsize=None)
def _cos_bounds(t: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """lo <= cos(2 pi t) <= hi, rational, with hi - lo = O(2^-bits)."""
    t %= 1
    if t > Fraction(1, 2):
        t = 1 - t  # cos(2 pi t) = cos(2 pi (1 - t))
    flip = t > Fraction(1, 4)
    if flip:
        t = Fraction(1, 2) - t  # cos(2 pi t) = -cos(2 pi (1/2 - t))
    # 0 <= x_lo <= 2 pi t <= x_hi < 2, and cos falls on [0, pi]
    p_lo, p_hi = _pi_bounds(bits)
    lo = _cos_taylor(_dyadic(2 * t * p_hi, bits, True), bits)[0]
    hi = _cos_taylor(_dyadic(2 * t * p_lo, bits, False), bits)[1]
    return (-hi, -lo) if flip else (lo, hi)


@lru_cache(maxsize=None)
def _root(p: int, q: int) -> Cyclo:
    """zeta_q^p for coprime p and q: its conductor, q or q/2 when q = 2 mod 4,
    is checked before _canonical expands it at q."""
    if (conductor := q // 2 if q % 4 == 2 else q) > MAX_CONDUCTOR:
        raise _above_limit(f"conductor {conductor:,}")
    return _make(q, _canonical(q, {p: 1}), 1)


@lru_cache(maxsize=None, typed=True)
def root_of_unity(r, q: int | None = None) -> Cyclo:
    """Exact e^(2*pi*i*r) for a rational turn r (or a p, q pair of ints).

    Memoised on the turn as given (and its type, so that a float turn equal
    to a cached rational one is still refused), so the reduction mod 1 runs
    once per distinct argument."""
    if q is not None:
        if q == 0:
            raise InputError("root_of_unity: zero denominator")
        r = Fraction(r, q)
    r = turn_mod1(r)
    return _root(r.numerator, r.denominator)


# -- textual value grammar --------------------------------------------------

_TOKEN = re.compile(r"\s*(z\d+\^\d+|z\d+|\d+/\d+|\d+|[+\-*()])")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise SyntaxInputError(f"bad token at {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_int(digits: str) -> int:
    """int(digits), with Python's limit on str -> int digits as an input error."""
    try:
        return int(digits)
    except ValueError as exc:
        raise SyntaxInputError(f"integer of {len(digits)} digits is too long") from exc


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> Cyclo:
        val = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self) -> Cyclo:
        val = self.factor()
        while self.peek() == "*":
            self.take()
            val = val * self.factor()
        return val

    def factor(self) -> Cyclo:
        tok = self.take()
        if tok is None:
            raise SyntaxInputError("unexpected end of expression")
        if tok == "-":
            return -self.factor()
        if tok == "(":
            val = self.expr()
            if self.take() != ")":
                raise SyntaxInputError("unbalanced parenthesis")
            return val
        if tok.startswith("z"):
            body = tok[1:]
            if "^" in body:
                n_s, k_s = body.split("^")
                n, k = parse_int(n_s), parse_int(k_s)
            else:
                n, k = parse_int(body), 1
            if n == 0:
                raise SyntaxInputError("z0 is not a root of unity")
            if n > MAX_CONDUCTOR:
                raise SyntaxInputError(
                    f"root z{n} exceeds the conductor limit {MAX_CONDUCTOR}")
            return root_of_unity(Fraction(k, n))
        if re.fullmatch(r"\d+/\d+", tok):
            p_s, q_s = tok.split("/")
            p, q = parse_int(p_s), parse_int(q_s)
            if q == 0:
                raise SyntaxInputError("zero denominator")
            return Cyclo.from_rational(Fraction(p, q))
        if re.fullmatch(r"\d+", tok):
            return Cyclo.from_rational(parse_int(tok))
        raise SyntaxInputError(f"unexpected token {tok!r}")


def parse_cyclo(text: str) -> Cyclo:
    """Parse the exact value grammar: integers, rationals p/q, zN^k, +, -, *."""
    if not isinstance(text, str):
        raise SyntaxInputError("exact values must be strings")
    tokens = _tokenize(text)
    if not tokens:
        raise SyntaxInputError("empty expression")
    parser = _Parser(tokens)
    val = parser.expr()
    if parser.peek() is not None:
        raise SyntaxInputError(f"trailing input at {parser.peek()!r}")
    return val


def format_cyclo(v: Cyclo) -> str:
    """Canonical textual form; parse(format(v)) == v when v.order <= MAX_CONDUCTOR."""
    if v.is_zero():
        return "0"
    coeffs = _power_basis(v.order, v.coeffs)
    parts = []
    for e in sorted(coeffs):
        c = Fraction(coeffs[e], v.den)
        base = f"z{v.order}" if e == 1 else f"z{v.order}^{e}"
        parts.append(str(c) if e == 0 else base if c == 1 else f"-{base}" if c == -1
                     else f"{c}*{base}")
    return " + ".join(parts).replace(" + -", " - ")  # only a term's sign is a "-"
