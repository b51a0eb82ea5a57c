"""Finite abelian groups presented by invariant factors, and a cyclic
decomposition of quotients of their subgroups."""

from __future__ import annotations

from itertools import product as _iproduct
from math import prod
from numbers import Integral

from .errors import InputError

Element = tuple[int, ...]


def group_order(factors: list[int]) -> int:
    return prod(factors)


def iter_elements(factors: list[int]) -> list[Element]:
    """All elements in lexicographic order; the zero element comes first."""
    return [tuple(t) for t in _iproduct(*(range(n) for n in factors))]


def zero(factors: list[int]) -> Element:
    return tuple(0 for _ in factors)


def _is_int(x) -> bool:  # a float or a bool is refused, not truncated
    return isinstance(x, Integral) and not isinstance(x, bool)


def check_factors(factors) -> list[int]:
    """The invariant factors as a list of ints, each at least 1."""
    for n in factors:
        if not _is_int(n) or n < 1:
            raise InputError(f"invariant factor {n!r} is not a positive integer")
    return [int(n) for n in factors]


def check_element(factors: list[int], a) -> Element:
    a = tuple(a)
    if len(a) != len(factors) or not all(_is_int(x) and 0 <= x < n for x, n in zip(a, factors)):
        raise InputError(f"element {a} is not in the group with factors {factors}")
    return tuple(map(int, a))


def add(factors: list[int], a: Element, b: Element) -> Element:
    return tuple((x + y) % n for x, y, n in zip(a, b, factors))


def neg(factors: list[int], a: Element) -> Element:
    return tuple((-x) % n for x, n in zip(a, factors))


def subgroup_closure(factors: list[int], gens) -> list[Element]:
    """Closure of the generators under addition, sorted lexicographically."""
    gens = [check_element(factors, g) for g in gens]
    seen = {zero(factors)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = add(factors, a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(seen)


def quotient_basis(factors: list[int], sup: list[Element],
                   sub: list[Element]) -> tuple[list[int], list[Element]]:
    """Invariant factors n_1 | n_2 | ... (all > 1) of sup/sub and elements x_i
    of sup such that t -> sum t_i x_i + sub is an isomorphism onto sup/sub.

    Greedy, from K = sub: adjoin the first x of largest order n modulo K
    among those whose order modulo sub is also n (so <x> meets K only
    inside sub), until K = sup. Such an x exists and K/sub stays a direct
    summand, because a cyclic subgroup of maximal order is a direct summand.
    K + <x> is the union of the n cosets K + m x, m < n.
    """
    def order_mod(x: Element, K: set[Element]) -> int:  # the first n with n x in K
        n, y = 1, x
        while y not in K:
            n, y = n + 1, add(factors, y, x)
        return n

    sub_set, K = set(sub), set(sub)
    ns: list[int] = []
    xs: list[Element] = []
    while len(K) < len(sup):
        n, x = 1, None
        for y in sup:
            m = order_mod(y, K)
            if m > n and m == order_mod(y, sub_set):
                n, x = m, y
        coset = list(K)
        for _ in range(n - 1):
            coset = [add(factors, k, x) for k in coset]
            K.update(coset)
        ns.append(n)
        xs.append(x)
    return ns[::-1], xs[::-1]
