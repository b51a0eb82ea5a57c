import cmath
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from setcat.cyclo import Cyclo, format_cyclo, parse_cyclo, root_of_unity
from setcat.errors import InputError, LimitExceeded, SyntaxInputError
from setcat.fusion import FusionRing
from setcat.premodular import Premodular
from setcat.randomized import random_cyclo


def test_root_of_unity_identity():
    assert root_of_unity(0) == Cyclo.one()
    assert root_of_unity(Fraction(1, 2)) == Cyclo.from_rational(-1)
    assert root_of_unity(Fraction(5, 4)) == root_of_unity(Fraction(1, 4))


def test_sqrt2_from_eighth_roots():
    v = root_of_unity(Fraction(1, 8)) + root_of_unity(Fraction(7, 8))
    assert abs(v.approx() - cmath.sqrt(2)) < 1e-12
    assert v.is_real()


def test_i_squared():
    i = root_of_unity(Fraction(1, 4))
    assert i * i == Cyclo.from_rational(-1)


def test_cube_roots_sum_to_zero():
    total = Cyclo.from_rational(1) + root_of_unity(Fraction(1, 3)) + root_of_unity(Fraction(2, 3))
    assert total.is_zero()


def test_inverse_of_sqrt2():
    v = root_of_unity(Fraction(1, 8)) + root_of_unity(Fraction(7, 8))
    inv = v.inverse()
    assert inv == v * Fraction(1, 2)
    assert v * inv == Cyclo.one()


def test_conjugate_examples():
    i = root_of_unity(Fraction(1, 4))
    assert i.conjugate() == root_of_unity(Fraction(3, 4))
    assert i.conjugate().conjugate() == i
    r = Cyclo.from_rational(Fraction(3, 2))
    assert r.conjugate() == r


def test_approx_real_value():
    v = root_of_unity(Fraction(1, 8)) + root_of_unity(Fraction(7, 8))
    z = v.approx()
    assert abs(z - 1.41421356237) < 1e-9
    assert abs(z.imag) < 1e-12


def test_conductor_minimization():
    # zeta_8^2 is really zeta_4
    v = root_of_unity(Fraction(2, 8))
    assert v.order == 4
    # zeta_6 lives at order 3 (orders are never 2 mod 4)
    w = root_of_unity(Fraction(1, 6))
    assert w.order == 3
    # sqrt(2) assembled at order 24 must land back at order 8
    a = root_of_unity(Fraction(3, 24)) + root_of_unity(Fraction(21, 24))
    b = root_of_unity(Fraction(1, 8)) + root_of_unity(Fraction(7, 8))
    assert a == b
    assert a.order == 8
    # a full sum of 5th roots collapses to a rational
    s = sum((root_of_unity(Fraction(k, 5)) for k in range(5)), Cyclo.zero())
    assert s.is_zero()


def rank_two(n: int) -> Premodular:
    """Fusion x x = 1 + n x with both twists 0: it passes validation (it is
    no braided category for n > 1), and for n^2 + 4 a prime p = 1 mod 4 the
    dim of x, (n + sqrt(p)) / 2 with sqrt(p) the Gauss sum, has conductor p."""
    p = n * n + 4
    root = sum((root_of_unity(Fraction(k, p)) * (1 if pow(k, p // 2, p) == 1 else -1)
                for k in range(1, p)), Cyclo.zero())
    ring = FusionRing(["1", "x"], {"1": "1", "x": "x"}, {
        ("1", "1", "1"): 1, ("1", "x", "x"): 1, ("x", "1", "x"): 1, ("x", "x", "1"): 1,
        ("x", "x", "x"): n})
    dims = {"1": Cyclo.one(), "x": (root + n) * Cyclo.from_rational(Fraction(1, 2))}
    return Premodular(ring, dims, {"1": Fraction(0), "x": Fraction(0)}, name=f"rank_two_{n}")


def test_values_above_the_conductor_limit_raise():
    # the limit holds for every value made, not only for parsed text
    with pytest.raises(LimitExceeded, match="conductor 99,991, above the limit "
                                            "MAX_CONDUCTOR = 10,000"):
        root_of_unity(Fraction(1, 99991))
    A, B = rank_two(7), rank_two(15)
    assert A.validate() == B.validate() == []
    assert (A.dim("x").order, B.dim("x").order) == (53, 229)
    with pytest.raises(LimitExceeded, match="conductor 12,137, above the limit "
                                            "MAX_CONDUCTOR = 10,000"):
        A.deligne(B)  # d_x d_x lies at conductor 53 * 229


def test_roots_and_products_above_the_conductor_limit_raise_before_expanding():
    # the conductor of zeta_q is q, or q/2 when q = 2 mod 4
    assert root_of_unity(Fraction(1, 10006)).order == 5003
    with pytest.raises(LimitExceeded, match="reached conductor 10,003, above the limit"):
        root_of_unity(Fraction(1, 20006))
    # the product once took 9.6 s to fill the memory; the sum was always refused at once
    a, b = parse_cyclo("z9973 + z9973^9972"), parse_cyclo("z9967 + z9967^9966")
    with pytest.raises(LimitExceeded, match="reached a multiple of conductor 99,400,891, "
                                            "above the limit MAX_CONDUCTOR = 10,000"):
        a * b
    with pytest.raises(LimitExceeded, match="reached conductor 99,400,891, above the limit"):
        a + b
    # the operands' orders 2,991 and 15 have their lcm 14,955 above the limit, but the
    # primes of unequal valuation only 4,985, the product's own conductor: it is made
    x = root_of_unity(Fraction(1, 3)) * root_of_unity(Fraction(1, 997))
    y = root_of_unity(Fraction(2, 3)) * root_of_unity(Fraction(1, 5))
    assert (x.order, y.order, (x * y).order) == (2991, 15, 4985)
    assert x * y == root_of_unity(Fraction(1, 997)) * root_of_unity(Fraction(1, 5))


def test_division_by_zero_rejected():
    with pytest.raises(InputError):
        Cyclo.zero().inverse()
    with pytest.raises(InputError):
        root_of_unity(1, 0)


def test_field_axioms_numeric_crosscheck():
    rng = random.Random(20240811)
    for _ in range(150):
        a = random_cyclo(rng)
        b = random_cyclo(rng)
        assert abs((a + b).approx() - (a.approx() + b.approx())) < 1e-9
        assert abs((a - b).approx() - (a.approx() - b.approx())) < 1e-9
        assert abs((a * b).approx() - (a.approx() * b.approx())) < 1e-9


def test_roots_have_unit_modulus():
    rng = random.Random(7)
    for _ in range(100):
        q = rng.randint(1, 48)
        p = rng.randrange(q)
        assert abs(abs(root_of_unity(Fraction(p, q)).approx()) - 1.0) < 1e-12


def test_inverse_roundtrip_random():
    rng = random.Random(99)
    count = 0
    while count < 100:
        a = random_cyclo(rng, max_order=16)
        if a.is_zero():
            continue
        count += 1
        assert a * a.inverse() == Cyclo.one()


def test_galois_conjugates_permute_embeddings():
    v = root_of_unity(Fraction(1, 5)) + Cyclo.from_rational(2)
    w = v.galois(2)
    assert abs(w.approx() - (cmath.exp(2j * cmath.pi * 2 / 5) + 2)) < 1e-12
    with pytest.raises(InputError):
        v.galois(5)


def test_parse_and_format_roundtrip():
    cases = [
        "0",
        "1",
        "3/2",
        "z8 + z8^7",
        "1 + z5 + z5^4",
        "2*z16",
        "z4",
        "1/2 - z3",
        "(1 + z3) * (1 - z3)",
    ]
    for text in cases:
        v = parse_cyclo(text)
        assert parse_cyclo(format_cyclo(v)) == v


def test_parse_rejects_floats_and_garbage():
    for bad in ["0.5", "z8 +", "1..2", "z0", "3/0", "", "zeta8"]:
        with pytest.raises(SyntaxInputError):
            parse_cyclo(bad)


def test_sort_key_total_order():
    vals = [Cyclo.from_rational(1), root_of_unity(Fraction(1, 3)),
            root_of_unity(Fraction(1, 4)), Cyclo.zero()]
    keys = [v.sort_key() for v in vals]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted(keys)


def test_hash_consistency():
    a = root_of_unity(Fraction(3, 24)) + root_of_unity(Fraction(21, 24))
    b = parse_cyclo("z8 + z8^7")
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_rational_values_hash_as_the_rationals_they_equal():
    # Cyclo.one() == 1, so 1 must find Cyclo.one() in a set or a dict
    for q in (0, 1, -3, Fraction(1, 2), Fraction(-7, 12)):
        v = Cyclo.from_rational(q)
        assert v == q and hash(v) == hash(q) and q in {v} and v in {q}, q
    assert 1 in {Cyclo.one()} and {Cyclo.one(): "one"}[1] == "one"
    assert Fraction(1, 2) in {parse_cyclo("z6 + z6^5 - 1/2")}  # a rational reached through z6


def test_equal_values_built_differently_hash_equal():
    # sqrt(2) four ways, and a rational reached through a cyclotomic product; the
    # hash is kept after the first call, so it is read before and after every use
    z8 = root_of_unity(Fraction(1, 8))
    sqrt2 = [z8 + z8.conjugate(), parse_cyclo("z8 - z8^3"), 2 * (z8 + z8 ** 7).inverse(),
             (z8 + z8 ** 7) * (z8 + z8 ** 7) * (z8 + z8 ** 7) / 2]
    halves = [Cyclo.from_rational(Fraction(1, 2)), root_of_unity(Fraction(1, 6)) *
              root_of_unity(Fraction(5, 6)) - Cyclo.from_rational(Fraction(1, 2))]
    for values in (sqrt2, halves):
        first = [hash(v) for v in values]
        assert all(v == values[0] for v in values)
        assert len(set(first)) == 1 and [hash(v) for v in values] == first
        assert len({*values, *(parse_cyclo(str(v)) for v in values)}) == 1
    assert hash(sqrt2[0]) == hash((sqrt2[0].order, sqrt2[0].den,
                                   frozenset(sqrt2[0].coeffs.items())))


# -- independent cross-check against sympy -----------------------------------

_X = sympy.Symbol("x")


def _text_terms(text: str, big: int) -> dict[int, Fraction]:
    """Exponent polynomial of `format_cyclo` text, lifted to Q(zeta_big):
    zN^k becomes x^(k*big/N).  Reads the text only, not the engine."""
    out: dict[int, Fraction] = {}
    if text == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        coeff, _, root = term.rpartition("*") if "z" in term else (term, "", "")
        c = sign * Fraction(coeff or 1)
        e = 0
        if root:
            n, _, k = root[1:].partition("^")
            e = int(k or 1) * (big // int(n))
        out[e] = out.get(e, 0) + c
    return out


def _reduced(terms: dict[int, Fraction], big: int) -> sympy.Poly:
    """sum c*x^e reduced modulo x^big - 1 and then Phi_big, by sympy."""
    dense: dict[tuple[int], sympy.Rational] = {}
    for e, c in terms.items():
        key = (e % big,)
        dense[key] = dense.get(key, 0) + sympy.Rational(c.numerator, c.denominator)
    poly = sympy.Poly.from_dict(dense or {(0,): 0}, _X, domain=sympy.QQ)
    return poly.rem(sympy.Poly(sympy.cyclotomic_poly(big, _X), _X, domain=sympy.QQ))


def _product(f: dict[int, Fraction], g: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def test_arithmetic_matches_sympy():
    rng = random.Random(31337)
    scalars = random.Random(31338)  # its own stream, so a, b, c, k are drawn as before
    for _ in range(40):
        a, b, c = random_cyclo(rng), random_cyclo(rng), random_cyclo(rng)
        k = rng.choice([j for j in range(1, 2 * a.order + 1) if gcd(j, a.order) == 1])
        q = Fraction(scalars.randint(-9, 9), scalars.randint(1, 9))
        big = lcm(a.order, b.order)
        fa = _text_terms(format_cyclo(a), big)
        fb = _text_terms(format_cyclo(b), big)
        sums, diffs = dict(fa), dict(fa)
        for e, x in fb.items():
            sums[e] = sums.get(e, 0) + x
            diffs[e] = diffs.get(e, 0) - x
        bc = lcm(b.order, c.order)
        own = _text_terms(format_cyclo(a), a.order)
        cases = [
            (a * b, big, _product(fa, fb)),
            (a + b, big, sums),
            (a - b, big, diffs),
            (a * q, a.order, {e: x * q for e, x in own.items()}),
            (a.galois(k), a.order, {e * k: x for e, x in own.items()}),
            (a.conjugate(), a.order, {-e: x for e, x in own.items()}),
            (b * c, bc, _product(_text_terms(format_cyclo(b), bc),
                                 _text_terms(format_cyclo(c), bc))),
        ]
        for result, n, expected in cases:
            got = _text_terms(format_cyclo(result), n)
            assert _reduced(got, n) == _reduced(expected, n), (a, b, c, k, q)
        if not a.is_zero():  # a times its inverse reduces to 1 in sympy
            inv = _text_terms(format_cyclo(a.inverse()), a.order)
            assert _reduced(_product(own, inv), a.order) == \
                _reduced({0: Fraction(1)}, a.order), a


# -- parse/format round trip --------------------------------------------------

_VALUE = st.tuples(
    st.integers(1, 40),
    st.lists(st.tuples(st.integers(0, 39),
                       st.fractions(min_value=-4, max_value=4, max_denominator=6)),
             min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(_VALUE, _VALUE)
def test_parse_format_roundtrip_property(left, right):
    # each side sums terms c*zeta_n^k of one order n <= 40, so the product
    # reaches composite conductors up to lcm(n1, n2)
    def value(n, terms):
        return sum((root_of_unity(k, n) * c for k, c in terms), Cyclo.zero())

    a, b = value(*left), value(*right)
    for v in (a, b, a * b):
        w = parse_cyclo(format_cyclo(v))
        assert w == v
        assert hash(w) == hash(v)
        assert w.order == v.order


# -- identity shortcuts ---------------------------------------------------------


def arith_values(count: int = 64) -> list[Cyclo]:
    """The values of the first `count` arithmetic trials (seed 1729) with their
    products a*b and (a*b)*c; the second trial's reach conductor 5681."""
    rng = random.Random(1729)
    out = []
    for _ in range(count):
        a, b, c = random_cyclo(rng), random_cyclo(rng), random_cyclo(rng)
        rng.randrange(rng.randint(1, 24))  # the trial's root of unity
        out += [a, b, c, a * b, (a * b) * c]
    return out


def test_multiplying_by_one_and_adding_zero_keep_the_value():
    rng = random.Random(2718)
    values = [random_cyclo(rng) for _ in range(300)] + arith_values()
    assert max(v.order for v in values) == 5681
    ones = [Cyclo.one(), Cyclo.from_rational(1), parse_cyclo("z5 - z5 + 1"), 1, Fraction(1)]
    zeros = [Cyclo.zero(), Cyclo.from_rational(0), parse_cyclo("z7 - z7"), 0, Fraction(0)]
    for a in values:
        text = format_cyclo(a)
        got = [a * one for one in ones] + [one * a for one in ones]
        got += [a + zero for zero in zeros] + [zero + a for zero in zeros]
        for v in got:
            assert v == a and hash(v) == hash(a) and v.order == a.order, (a, v)
            assert format_cyclo(v) == text
    a = values[0]
    assert a * Cyclo.one() is a and Cyclo.one() * a is a
    assert a + Cyclo.zero() is a and Cyclo.zero() + a is a


def test_root_of_unity_memoised_on_the_turn():
    for r in (Fraction(3, 7), Fraction(-4, 7), Fraction(10, 7)):
        assert root_of_unity(r) is root_of_unity(Fraction(3, 7))
    assert root_of_unity(3, 7) is root_of_unity(Fraction(3, 7))
    assert root_of_unity(-11, 14) == root_of_unity(Fraction(3, 14))
    with pytest.raises(InputError):
        root_of_unity(1, 0)


# -- exact sign -----------------------------------------------------------------


def test_sign_of_rationals_and_roots():
    assert [Cyclo.from_rational(q).sign() for q in (Fraction(-1, 3), 0, 5)] == [-1, 0, 1]
    assert parse_cyclo("z8 + z8^7").sign() == 1       # sqrt 2
    assert parse_cyclo("1 + z5 + z5^4").sign() == 1   # the golden ratio
    assert parse_cyclo("1 + z5^2 + z5^3").sign() == -1  # its Galois conjugate
    assert parse_cyclo("z12 + z12^11 - 2").sign() == -1  # sqrt 3 - 2
    with pytest.raises(InputError):
        root_of_unity(Fraction(1, 4)).sign()


def test_sign_beyond_float_precision():
    # sqrt 2 - p/q over the continued-fraction convergents p/q of sqrt 2,
    # which alternate below and above it, from |d| < 1e-17 on
    sqrt2 = parse_cyclo("z8 + z8^7")
    p, q = 1, 1
    signs = []
    while q < 10 ** 40:
        p, q = p + 2 * q, p + q
        d = sqrt2 - Fraction(p, q)
        if q * q < 10 ** 17:
            continue  # |sqrt2 - p/q| = |p^2 - 2q^2| / (q^2 (sqrt2 + p/q)) < 1 / q^2
        want = 1 if p * p < 2 * q * q else -1
        assert d.sign() == want, (p, q)
        signs.append(want)
    assert signs.count(1) >= 10 and signs.count(-1) >= 10


# -- operators with operands of other types ---------------------------------------


def test_float_operands_are_refused_under_their_own_operator():
    v = root_of_unity(Fraction(1, 5))
    cases = {"+": lambda: 1.5 + v, "-": lambda: 1.5 - v, "*": lambda: 1.5 * v,
             "/": lambda: 2.0 / v}
    for op, call in cases.items():
        with pytest.raises(TypeError, match=rf"for {re.escape(op)}: 'float' and 'Cyclo'"):
            call()
    for op, call in {"+": lambda: v + 1.5, "-": lambda: v - 1.5, "*": lambda: v * 1.5,
                     "/": lambda: v / 2.0}.items():
        with pytest.raises(TypeError, match=rf"for {re.escape(op)}: 'Cyclo' and 'float'"):
            call()


def test_rational_operands_on_either_side():
    v = root_of_unity(Fraction(1, 5)) + Fraction(1, 3)
    assert Fraction(3, 2) - v == -(v - Fraction(3, 2)) == Cyclo.from_rational(Fraction(3, 2)) - v
    assert 2 / v == v.inverse() * 2 and Fraction(1, 2) / v == v.inverse() / 2
    assert v / 3 == v * Fraction(1, 3) and v / Fraction(2, 3) == v * Fraction(3, 2)


def test_division_by_any_zero_is_an_input_error():
    v = root_of_unity(Fraction(1, 5))
    for zero in (0, Fraction(0), Cyclo.zero(), v - v):
        with pytest.raises(InputError, match="division by zero in cyclotomic field"):
            v / zero
    with pytest.raises(InputError, match="division by zero in cyclotomic field"):
        1 / Cyclo.zero()


def test_float_turns_and_rationals_are_refused():
    root_of_unity(Fraction(1, 2))  # a cached equal rational turn must not let 0.5 in
    for bad in (0.1, 0.5, "1/2"):
        with pytest.raises(TypeError, match="exact rational expected"):
            Cyclo.from_rational(bad)
        with pytest.raises(TypeError, match="exact rational expected"):
            root_of_unity(bad)
    with pytest.raises(TypeError):
        root_of_unity(0.5, 3)
    assert Cyclo.from_rational(True) == Cyclo.one()
