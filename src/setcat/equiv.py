"""Modular-data equivalence: fingerprint-pruned backtracking over label
bijections, optionally constrained to respect a symmetry embedding on both
sides, plus an independent verifier for found bijections."""

from __future__ import annotations

from .embedding import SymmetryEmbedding, same_symmetry
from .errors import InputError
from .premodular import Premodular

Fingerprint = tuple


def label_fingerprint(P: Premodular, x: str) -> Fingerprint:
    """Per-label invariant: exact dim, twist, S-row multiset, self-fusion counts."""
    tw = P.twist(x)
    row = tuple(sorted(P.s_entry(x, j).sort_key() for j in P.labels))
    stats = tuple(sorted(P.ring.fuse(x, x).values()))
    return (P.dim(x).sort_key(), (tw.numerator, tw.denominator), row, stats)


def canonical_fingerprint(P: Premodular) -> tuple[Fingerprint, ...]:
    """Sorted fingerprint multiset; equal for data-equivalent categories."""
    return tuple(sorted(label_fingerprint(P, x) for x in P.labels))


def check_bijection(P1: Premodular, P2: Premodular, sigma: dict[str, str],
                    emb1: SymmetryEmbedding | None = None,
                    emb2: SymmetryEmbedding | None = None) -> bool:
    """Verify a candidate bijection against every preserved quantity.

    Deliberately independent of the search: a straight re-check of unit,
    duals, dims, twists, all fusion coefficients, and all S-matrix entries.
    """
    labels1, labels2 = P1.labels, P2.labels
    if sorted(sigma) != sorted(labels1) or sorted(sigma.values()) != sorted(labels2):
        return False
    if sigma[P1.unit] != P2.unit:
        return False
    if emb1 is not None or emb2 is not None:
        if emb1 is None or emb2 is None:
            return False
        same_symmetry(emb1, emb2)
        for e in emb1.elements():
            if sigma[emb1.mapping[e]] != emb2.mapping[e]:
                return False
    for x in labels1:
        if sigma[P1.dual(x)] != P2.dual(sigma[x]):
            return False
        if P1.dim(x) != P2.dim(sigma[x]):
            return False
        if P1.twist(x) != P2.twist(sigma[x]):
            return False
    for i in labels1:
        for j in labels1:
            if P1.s_entry(i, j) != P2.s_entry(sigma[i], sigma[j]):
                return False
            f1 = P1.ring.fuse(i, j)
            f2 = P2.ring.fuse(sigma[i], sigma[j])
            if {sigma[k]: n for k, n in f1.items()} != f2:
                return False
    return True


def _targets_in(P: Premodular) -> dict[str, list[tuple[str, str, int]]]:
    out: dict[str, list[tuple[str, str, int]]] = {x: [] for x in P.labels}
    for (i, j), row in P.ring.rows():
        for k, n in row.items():
            out[k].append((i, j, n))
    return out


def find_equivalence(P1: Premodular, P2: Premodular,
                     emb1: SymmetryEmbedding | None = None,
                     emb2: SymmetryEmbedding | None = None) -> dict[str, str] | None:
    """First label bijection (in lexicographic backtracking order) preserving
    the modular data exactly, or None; with embeddings, the bijection is also
    required to intertwine them pointwise."""
    if (emb1 is None) != (emb2 is None):
        raise InputError("either both or neither embedding must be given")
    if P1.ring.rank() != P2.ring.rank():
        return None
    pins: dict[str, str] = {P1.unit: P2.unit}
    if emb1 is not None:
        same_symmetry(emb1, emb2)
        for e in emb1.elements():
            a, b = emb1.mapping[e], emb2.mapping[e]
            if pins.get(a, b) != b:
                return None
            pins[a] = b
    fps1 = {x: label_fingerprint(P1, x) for x in P1.labels}
    fps2 = {u: label_fingerprint(P2, u) for u in P2.labels}
    if sorted(fps1.values()) != sorted(fps2.values()):
        return None

    pools: dict[str, list[str]] = {}
    for x, fp in fps1.items():
        if x in pins:
            cand = [pins[x]] if fps2[pins[x]] == fp else []
        else:
            cand = [u for u in P2.labels if fps2[u] == fp]
        if not cand:
            return None
        pools[x] = cand

    t_in1 = _targets_in(P1)
    t_in2 = _targets_in(P2)
    order = list(P1.labels)
    assign: dict[str, str] = {}
    inverse: dict[str, str] = {}

    def consistent(x: str, u: str) -> bool:
        xd = P1.dual(x)
        if xd == x:
            if P2.dual(u) != u:
                return False
        elif xd in assign and assign[xd] != P2.dual(u):
            return False
        if P1.s_entry(x, x) != P2.s_entry(u, u):
            return False
        for a, va in assign.items():
            if P1.s_entry(x, a) != P2.s_entry(u, va):
                return False
            for (p, q), (vp, vq) in (((x, a), (u, va)), ((a, x), (va, u))):
                f1 = P1.ring.fuse(p, q)
                f2 = P2.ring.fuse(vp, vq)
                if sorted(f1.values()) != sorted(f2.values()):
                    return False
                for k, n in f1.items():
                    if k in assign and f2.get(assign[k], 0) != n:
                        return False
                    if k == x and f2.get(u, 0) != n:
                        return False
        for (a, b, n) in t_in1[x]:
            va = assign.get(a, u if a == x else None)
            vb = assign.get(b, u if b == x else None)
            if va is not None and vb is not None:
                if P2.ring.n(va, vb, u) != n:
                    return False
        for (a2, b2, n2) in t_in2[u]:
            pa = inverse.get(a2, x if a2 == u else None)
            pb = inverse.get(b2, x if b2 == u else None)
            if pa is not None and pb is not None:
                if P1.ring.n(pa, pb, x) != n2:
                    return False
        return True

    def backtrack(pos: int) -> bool:
        if pos == len(order):
            return True
        x = order[pos]
        for u in pools[x]:
            if u in inverse:
                continue
            if not consistent(x, u):
                continue
            assign[x] = u
            inverse[u] = x
            if backtrack(pos + 1):
                return True
            del assign[x]
            del inverse[u]
        return False

    # on valid data the pools and `consistent` enforce all that check_bijection
    # verifies, by the argument in CHANGES.md; tests/test_equiv.py asserts it
    return dict(assign) if backtrack(0) else None
