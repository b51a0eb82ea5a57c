"""Modular-data equivalence: backtracking over label bijections, optionally
constrained to respect a symmetry embedding on both sides, plus an
independent verifier for found bijections.  Neither reads an S-matrix
entry: S follows from fusion, duals, dims and twists (`Premodular.s_entry`)."""

from __future__ import annotations

from .embedding import SymmetryEmbedding, same_symmetry
from .errors import InputError
from .premodular import Premodular, _generators

Fingerprint = tuple


def _pool_keys(P: Premodular) -> dict[str, tuple]:
    """The search's pool key per label, read in O(1): exact dim, twist turn
    and its denominator, self-fusion counts, self-duality."""
    (turn, den), dual = P.turns(), P.ring.dual
    return {x: (P.dims[x].sort_key(), turn[x], den, tuple(sorted(P.ring.fuse(x, x).values())),
                dual[x] == x) for x in P.labels}


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
        bal[x].append(tuple(sorted([((turn[k] - t) % den, keys[k], n) for k, n in row.items()])))
    return {x: (*key[:3], tuple(sorted(bal[x])), key[3]) for x, key in _pool_keys(P).items()}


def _classes(keys: dict[str, tuple]) -> dict[tuple, list[str]]:
    """The labels grouped by key, each group in label order."""
    out: dict[tuple, list[str]] = {}
    for x, key in keys.items():
        out.setdefault(key, []).append(x)
    return out


def canonical_fingerprint(P: Premodular) -> tuple[Fingerprint, ...]:
    """Sorted fingerprint multiset; equal for data-equivalent categories."""
    return tuple(sorted(label_fingerprints(P).values()))


def check_bijection(P1: Premodular, P2: Premodular, sigma: dict[str, str],
                    emb1: SymmetryEmbedding | None = None,
                    emb2: SymmetryEmbedding | None = None) -> bool:
    """Verify a candidate bijection against every preserved quantity.

    Deliberately independent of the search: a straight re-check of unit,
    duals, dims, twists and all fusion coefficients, which fix S.
    """
    if sorted(sigma) != sorted(P1.labels) or sorted(sigma.values()) != sorted(P2.labels) \
            or sigma[P1.unit] != P2.unit or (emb1 is None) != (emb2 is None):
        return False
    if emb1 is not None:
        same_symmetry(emb1, emb2)
        if any(sigma[emb1.mapping[e]] != emb2.mapping[e] for e in emb1.elements()):
            return False
    return all(sigma[P1.dual(x)] == P2.dual(sigma[x]) and P1.dim(x) == P2.dim(sigma[x])
               and P1.twist(x) == P2.twist(sigma[x]) for x in P1.labels) and all(
        {sigma[k]: n for k, n in P1.ring.fuse(i, j).items()} == P2.ring.fuse(sigma[i], sigma[j])
        for i in P1.labels for j in P1.labels)


def find_equivalence(P1: Premodular, P2: Premodular,
                     emb1: SymmetryEmbedding | None = None,
                     emb2: SymmetryEmbedding | None = None) -> dict[str, str] | None:
    """First label bijection (in lexicographic backtracking order) preserving
    the modular data exactly, or None; with embeddings, the bijection is also
    required to intertwine them pointwise.

    A label's candidates are the labels of P2 with its `_pool_keys`, in P2's
    order.  A candidate must respect duals and every entry N_ga^k, g in
    G = `_generators(P1.ring)`, once g, a and k are assigned; G's monomials
    span the ring, so on valid data a bijection multiplicative on these rows
    is a ring isomorphism.  A complete bijection is kept only if it maps
    every dual and every fusion row of P1 onto P2's, so the search stays
    exact on data that is no category.  Every bijection that preserves the
    data passes each check, so the answer is the first such bijection."""
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
    pool_of = _classes(_pool_keys(P2))
    pools: dict[str, list[str]] = {}
    for key, xs in _classes(_pool_keys(P1)).items():
        pool = pool_of.get(key, [])
        if len(pool) != len(xs):
            return None
        for x in xs:
            if x in pins and pins[x] not in pool:
                return None
            pools[x] = [pins[x]] if x in pins else pool

    order = P1.labels
    at = {x: p for p, x in enumerate(order)}
    due: dict[str, list[tuple[str, str, str, int]]] = {x: [] for x in order}
    via: dict[str, tuple[str, str]] = {}  # x -> a row (g, a) into x, g and a before x
    for g in _generators(P1.ring):  # N_ga^k is checked when the last of g, a, k is assigned
        for a in order:
            for k, n in P1.ring.fuse(g, a).items():
                due[last := max(g, a, k, key=at.__getitem__)].append((g, a, k, n))
                if last == k != g and k != a:
                    via.setdefault(k, (g, a))
    dual1, dual2, n2 = P1.ring.dual, P2.ring.dual, P2.ring.n
    rows1, fuse2 = P1.ring.rows(), P2.ring.fuse
    assign: dict[str, str] = {}
    used: set[str] = set()

    def complete() -> bool:
        return all(assign[dual1[x]] == dual2[assign[x]] for x in order) and \
            len(rows1) == len(P2.ring.rows()) and all(
                fuse2(assign[i], assign[j]) == {assign[k]: n for k, n in row.items()}
                for (i, j), row in rows1)

    def backtrack(pos: int) -> bool:
        if pos == len(order):
            return complete()
        x = order[pos]
        xd, cands = dual1[x], pools[x]
        if x in via:  # only the outputs of the image of that row
            g, a = via[x]
            row = fuse2(assign[g], assign[a])
            cands = [u for u in cands if u in row]
        for u in cands:
            if u in used or (dual2[u] == u) != (xd == x) or xd in assign and assign[xd] != dual2[u]:
                continue
            assign[x] = u
            if all(n2(assign[g], assign[a], assign[k]) == n for g, a, k, n in due[x]):
                used.add(u)
                if backtrack(pos + 1):
                    return True
                used.remove(u)
            del assign[x]
        return False

    return dict(assign) if backtrack(0) else None
