"""Modular-data equivalence: backtracking over label bijections, pruned by
per-label fingerprints of integer data (no S-matrix entry is read), optionally
constrained to respect a symmetry embedding on both sides, plus an independent
verifier for found bijections."""

from __future__ import annotations

from .embedding import SymmetryEmbedding, same_symmetry
from .errors import InputError
from .premodular import Premodular

Fingerprint = tuple


def label_fingerprints(P: Premodular) -> dict[str, Fingerprint]:
    """Per-label invariants: exact dim, twist turn and its denominator, the
    balancing multiset over j of sorted ((t_k - t_x - t_j) mod den, dim of k,
    N_(x* j)^k), self-fusion counts.  S_xj is a function of the j-th tuple, so
    equal fingerprints give equal S-rows."""
    turn, den = P.turns()
    keys = {x: d.sort_key() for x, d in P.dims.items()}
    bal: dict[str, list[tuple]] = {x: [] for x in P.labels}
    for (i, j), row in P.ring.rows():  # row (x*, j) for x = i*
        x = P.dual(i)
        t = turn[x] + turn[j]
        if len(row) == 1:  # every row of a pointed category; one term is sorted
            [(k, n)] = row.items()
            bal[x].append((((turn[k] - t) % den, keys[k], n),))
        else:
            bal[x].append(tuple(sorted([((turn[k] - t) % den, keys[k], n)
                                        for k, n in row.items()])))
    return {x: (keys[x], turn[x], den, tuple(sorted(bal[x])),
                tuple(sorted(P.ring.fuse(x, x).values()))) for x in P.labels}


def _classes(fps: dict[str, Fingerprint]) -> dict[Fingerprint, list[str]]:
    """The labels grouped by fingerprint, each group in label order."""
    out: dict[Fingerprint, list[str]] = {}
    for x, fp in fps.items():
        out.setdefault(fp, []).append(x)
    return out


def canonical_fingerprint(P: Premodular) -> tuple[Fingerprint, ...]:
    """Sorted fingerprint multiset; equal for data-equivalent categories."""
    return tuple(sorted(label_fingerprints(P).values()))


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
    # one hash per label: equal ranks and equal class sizes make equal multisets
    pool_of = _classes(label_fingerprints(P2))
    pools: dict[str, list[str]] = {}
    for fp, xs in _classes(label_fingerprints(P1)).items():
        pool = pool_of.get(fp, [])
        if len(pool) != len(xs):
            return None
        for x in xs:
            if x in pins and pins[x] not in pool:
                return None
            pools[x] = [pins[x]] if x in pins else pool

    t_in1: dict[str, list[tuple[str, str, int]]] = {x: [] for x in P1.labels}
    for (i, j), row in P1.ring.rows():  # k -> the entries (i, j, N_ij^k) into k
        for k, n in row.items():
            t_in1[k].append((i, j, n))
    order = list(P1.labels)
    assign: dict[str, str] = {}
    used: set[str] = set()

    def consistent(x: str, u: str) -> bool:
        xd = P1.dual(x)
        if xd == x:
            if P2.dual(u) != u:
                return False
        elif xd in assign and assign[xd] != P2.dual(u):
            return False
        for a, va in ((x, u), *assign.items()):  # rows (x, x), (x, a) and (a, x)
            for (p, q), (vp, vq) in (((x, a), (u, va)), ((a, x), (va, u))):
                f1 = P1.ring.fuse(p, q)
                f2 = P2.ring.fuse(vp, vq)
                if len(f1) != len(f2):
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
        return True

    def backtrack(pos: int) -> bool:
        if pos == len(order):
            return True
        x = order[pos]
        for u in pools[x]:
            if u in used:
                continue
            if not consistent(x, u):
                continue
            assign[x] = u
            used.add(u)
            if backtrack(pos + 1):
                return True
            del assign[x]
            used.remove(u)
        return False

    # on valid data the pools and `consistent` enforce all that check_bijection
    # verifies, by the argument in CHANGES.md; tests/test_equiv.py asserts it
    return dict(assign) if backtrack(0) else None
