"""Golden value text: the `format_cyclo` output and conductor of a fixed set
of exact values, from trivial ones to products at conductors 24, 120, 437,
552 and 5681.  Any rewrite of the arithmetic core must print every value
exactly as before."""

import hashlib
import random

from setcat import randomized
from setcat.cyclo import format_cyclo, parse_cyclo

# expression -> (conductor, canonical text)
GOLDEN_TEXT = {
    "0": (1, "0"),
    "-7/3": (1, "-7/3"),
    "z8 + z8^7": (8, "z8 - z8^3"),
    "1 + z5 + z5^4": (5, "-z5^2 - z5^3"),
    "z6": (3, "1 + z3"),
    "z4": (4, "z4"),
    "z8^2": (4, "z4"),
    "z10^3": (5, "1 + z5 + z5^2 + z5^3"),
    "z18^5": (9, "z9 + z9^4"),
    "z14 + z14^13": (7, "-z7^3 - z7^4"),
    "z12": (12, "z12"),
    "z9^7": (9, "-z9 - z9^4"),
    "z16^11": (16, "-z16^3"),
    "z27^20": (27, "-z27^2 - z27^11"),
    "z15^8": (15, "-1 + z15 - z15^3 + z15^4 - z15^5 + z15^7"),
    "z20^7": (20, "z20^7"),
    "z36^5": (36, "z36^5"),
    "1 + z3 + z3^2": (1, "0"),
    "z7 + z7^2 + z7^4 - z7^3 - z7^5 - z7^6": (7, "1 + 2*z7 + 2*z7^2 + 2*z7^4"),
    "z3 - z3^2": (3, "1 + 2*z3"),
    "(z8 + z8^7) * (z8 + z8^7)": (1, "2"),
    "(z8 + z3) * (1 - z8^3)": (24, "z24^3 + z24^4 + z24^5"),
    "(z8 - 2*z3) * (z5 + 1/2)": (
        120, "1 + z120^3 + 2*z120^4 - z120^11 - 1/2*z120^15 - z120^20"
             " + z120^27 + z120^31"),
    "(z24 + z8^3) * (1 + z23^5)": (552, "-z552^51 + z552^115 + z552^143"),
    "(1 + z5) * (1 + z5^4) * z12^5": (60, "-2*z60^5 - z60^7 + z60^13 + 2*z60^15"),
    "z45^7 * z40^3 - 3/4*z60": (360, "-3/4*z360^6 + z360^83"),
}


def _arith_trials(count: int) -> list[tuple]:
    """(a, b, c) of the first trials of `run_arithmetic_trials(seed=1729)`."""
    rng = random.Random(1729)
    out = []
    for _ in range(count):
        a, b, c = (randomized.random_cyclo(rng) for _ in range(3))
        q = rng.randint(1, 24)
        rng.randrange(q)
        out.append((a, b, c))
    return out


def test_expression_text_is_frozen():
    got = {}
    for text in GOLDEN_TEXT:
        v = parse_cyclo(text)
        got[text] = (v.order, format_cyclo(v))
    assert got == GOLDEN_TEXT


def test_operation_text_is_frozen():
    trials = _arith_trials(58)
    a, b, c = trials[1]
    got = {
        "a*b": ((a * b).order, format_cyclo(a * b)),
        "(a*b)*c": (((a * b) * c).order, format_cyclo((a * b) * c)),
        "a.galois(5)": (a.galois(5).order, format_cyclo(a.galois(5))),
        "1/(1 + z7)": format_cyclo(parse_cyclo("1 + z7").inverse()),
        "(z8 + z3).galois(5)": format_cyclo(parse_cyclo("z8 + z3").galois(5)),
        "conj(z7 + 2*z7^3)": format_cyclo(parse_cyclo("z7 + 2*z7^3").conjugate()),
    }
    assert got == {
        "a*b": (437, "-4/3*z437^218 + 3/4*z437^356"),
        "(a*b)*c": (5681, "-3/8*z5681^258 + 2/3*z5681^4145"),
        "a.galois(5)": (23, "z23^15"),
        "1/(1 + z7)": "-z7 - z7^3 - z7^5",
        "(z8 + z3).galois(5)": "-z24^3 - z24^4",
        "conj(z7 + 2*z7^3)": "-1 - z7 - z7^2 - z7^3 + z7^4 - z7^5",
    }
    # long texts of (a*b)*c in arith trials 21 and 57, by digest
    long = {}
    for i in (21, 57):
        a, b, c = trials[i]
        v = (a * b) * c
        text = format_cyclo(v)
        long[i] = (v.order, len(text),
                   hashlib.sha256(text.encode("utf-8")).hexdigest())
    assert long == {
        21: (1235, 6208,
             "2cdf670156b704ce84c2d5b3c867f508c8c0855f4ac84ce4c04bee39979570ca"),
        57: (1989, 3090,
             "fe6f25f65a78e27bb80c388eadb27980412137d0a75ccf93339f4378394029d0"),
    }
