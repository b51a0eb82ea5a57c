"""The integer-coordinate core of `setcat.cyclo` against the Fraction-dict
core it replaced (`tests/cyclo_reference.py`): on the first 1000 values the
arithmetic trials draw (seed 1729) and on hypothesis-drawn values up to
conductor 5681, both cores give the same value (conductor and coordinates),
text, sort key, sign and float for every operation."""

import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from setcat.cyclo import Cyclo, format_cyclo, root_of_unity
from setcat.randomized import random_cyclo

from . import cyclo_reference as ref

ARITH_SEED = 1729
ARITH_TRIALS = 334  # three values a trial: the first 1002 draws


def draw_terms(rng: random.Random, max_order: int = 24) -> tuple[int, list]:
    """The draws of `randomized.random_cyclo`: an order n and terms (k, c)."""
    n = rng.randint(1, max_order)
    return n, [(rng.randrange(n), Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
               for _ in range(rng.randint(1, 3))]


def build(n: int, terms: list) -> tuple[Cyclo, ref.Cyclo]:
    """sum c * zeta_n^k, summed in the order of `random_cyclo`, in both cores."""
    new, old = Cyclo.zero(), ref.Cyclo.zero()
    for k, c in terms:
        new = new + root_of_unity(Fraction(k, n)) * c
        old = old + ref.root_of_unity(Fraction(k, n)) * c
    return new, old


def assert_same(new: Cyclo, old: ref.Cyclo, what) -> None:
    assert new.den > 0 and gcd(new.den, *new.coeffs.values()) == 1, what
    assert new.order == old.order, what
    assert {e: Fraction(c, new.den) for e, c in new.coeffs.items()} == old.coeffs, what
    assert new.sort_key() == old.sort_key(), what
    assert new.approx() == old.approx(), what  # bit for bit: same terms, same order


def assert_same_values(pairs: dict, what) -> None:
    """Each pair agrees, and so does the text of each distinct value;
    equality and its hashes match across the pairs; the sort keys order the
    values alike."""
    texts = {}
    for name, (new, old) in pairs.items():
        assert_same(new, old, (what, name))
        if new not in texts:
            texts[new] = format_cyclo(new)
            assert texts[new] == ref.format_cyclo(old), (what, name)
    items = list(pairs.values())
    for x, ox in items:
        for y, oy in items:
            assert (x == y) == (ox == oy), what
            if x == y:
                assert hash(x) == hash(y), what
    by_new = sorted(range(len(items)), key=lambda i: (items[i][0].sort_key(), i))
    by_old = sorted(range(len(items)), key=lambda i: (items[i][1].sort_key(), i))
    assert by_new == by_old, what


def operations(a, b, c, k: int, q: Fraction) -> dict:
    """The same operations on values of either core."""
    out = {"a": a, "b": b, "c": c, "a+b": a + b, "a-b": a - b, "b+a": b + a,
           "(a+b)-b": (a + b) - b, "-a": -a, "a*b": a * b, "b*a": b * a,
           "(a*b)*c": (a * b) * c, "a*(b*c)": a * (b * c), "(a+b)*c": (a + b) * c,
           "a*c+b*c": a * c + b * c, "a*q": a * q, "q*b": q * b, "a+q": a + q,
           "q-a": q - a, "galois": a.galois(k), "conj": a.conjugate(),
           "conj conj": a.conjugate().conjugate(), "|a|^2": a * a.conjugate(),
           "re 2a": a + a.conjugate(), "re 2a - q": a + a.conjugate() - q}
    if not b.is_zero() and b.order <= 24:
        out["1/b"] = b.inverse()
        out["a/b"] = a * b.inverse()
    return out


def compare(triple_new, triple_old, k: int, q: Fraction, what) -> None:
    new = operations(*triple_new, k, q)
    old = operations(*triple_old, k, q)
    assert new.keys() == old.keys()
    assert_same_values({name: (new[name], old[name]) for name in new}, what)
    for name in ("|a|^2", "re 2a", "re 2a - q"):
        assert new[name].sign() == old[name].sign(), (what, name)


def test_cores_agree_on_the_arithmetic_trials():
    rng, parallel = random.Random(ARITH_SEED), random.Random(ARITH_SEED)
    orders = []
    for i in range(ARITH_TRIALS):
        drawn = [build(*draw_terms(rng)) for _ in range(3)]
        assert [new for new, _ in drawn] == [random_cyclo(parallel) for _ in range(3)]
        p_q = (rng.randint(1, 24),)
        p_q += (rng.randrange(p_q[0]),)
        assert p_q[0] == parallel.randint(1, 24) and p_q[1] == parallel.randrange(p_q[0])
        (a, oa), (b, ob), (c, oc) = drawn
        k = next(j for j in range(a.order - 1, 0, -1) if gcd(j, a.order) == 1) \
            if a.order > 2 else 1
        compare((a, b, c), (oa, ob, oc), k, Fraction(p_q[1] - 2, p_q[0]), i)
        r, o_r = root_of_unity(Fraction(p_q[1], p_q[0])), ref.root_of_unity(Fraction(p_q[1], p_q[0]))
        assert_same_values({"r": (r, o_r), "r^q": (r ** p_q[0], o_r ** p_q[0]),
                            "r^-1": (r ** -1, o_r ** -1), "one": (Cyclo.one(), ref.Cyclo.one())},
                           i)
        orders.append(((a * b) * c).order)
    assert orders[1] == 5681


# values of up to three terms c*zeta_n^k, n <= 24, whose product stays within 5681
_TERMS = st.tuples(
    st.integers(1, 24),
    st.lists(st.tuples(st.integers(0, 23),
                       st.fractions(min_value=-9, max_value=9, max_denominator=12)),
             min_size=1, max_size=3))


@settings(max_examples=120, deadline=None)
@given(_TERMS, _TERMS, _TERMS, st.integers(1, 60),
       st.fractions(min_value=-3, max_value=3, max_denominator=7))
def test_cores_agree_on_drawn_values(left, middle, right, k, q):
    orders = (left[0], middle[0], right[0])
    assume(lcm(*orders) <= 5681)
    a, b, c = (build(n, [(e % n, x) for e, x in terms]) for n, terms in (left, middle, right))
    k = next(j for j in range(k, k + a[0].order) if gcd(j, a[0].order) == 1)
    compare(tuple(v for v, _ in (a, b, c)), tuple(v for _, v in (a, b, c)), k, q,
            (left, middle, right, k, q))
