"""Modular data of Drinfeld doubles Z(Rep G) for finite abelian G, with the
canonical symmetry embedding, plus Rep(G) itself as a pointed symmetric
category."""

from __future__ import annotations

from fractions import Fraction

from . import abelian
from .embedding import SymmetryEmbedding
from .pointed import MetricGroup, element_label
from .premodular import Premodular


def _group_name(factors: list[int]) -> str:
    return "x".join(str(n) for n in factors) if factors else "1"


def drinfeld_double(factors: list[int]) -> tuple[Premodular, SymmetryEmbedding]:
    """Z(Rep G) for abelian G: pairs (g, chi) with twist the pairing <chi, g>.

    Realized as the metric group G + G-hat with q(g, chi) = sum g_i chi_i / n_i.
    The canonical embedding sends chi to (0, chi).
    """
    factors = abelian.check_factors(factors)
    r = len(factors)
    layout = factors + factors  # first half G, second half the characters
    order = sorted(range(2 * r), key=lambda i: (layout[i], i))
    sorted_factors = [layout[i] for i in order]
    inv = {pos: slot for slot, pos in enumerate(order)}

    def natural(a):  # sorted coordinates -> (g, chi) layout
        return tuple(a[inv[i]] for i in range(2 * r))

    q = {}
    for a in abelian.iter_elements(sorted_factors):
        nat = natural(a)
        g, chi = nat[:r], nat[r:]
        q[a] = sum((Fraction(gi * ci, ni) for gi, ci, ni in zip(g, chi, factors)),
                   Fraction(0))
    name = f"double_{_group_name(factors)}"
    metric = MetricGroup(sorted_factors, q, name=name)
    category = metric.to_premodular(name=name)

    mapping = {}
    for chi in abelian.iter_elements(factors):
        nat = tuple([0] * r) + chi
        a = tuple(nat[order[i]] for i in range(2 * r))
        mapping[chi] = element_label(a)
    emb = SymmetryEmbedding(list(factors), name, mapping)
    return category, emb


def rep_abelian(factors: list[int]) -> tuple[Premodular, SymmetryEmbedding]:
    """Rep(G) for abelian G: the character group with the zero form."""
    factors = abelian.check_factors(factors)
    name = f"rep_{_group_name(factors)}"
    q = {a: Fraction(0) for a in abelian.iter_elements(factors)}
    metric = MetricGroup(list(factors), q, name=name)
    category = metric.to_premodular(name=name)
    mapping = {e: element_label(e) for e in abelian.iter_elements(factors)}
    emb = SymmetryEmbedding(list(factors), name, mapping)
    return category, emb
