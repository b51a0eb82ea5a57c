"""Fusion rings: Grothendieck-level fusion data with validation, float
Frobenius-Perron dimensions, and Deligne products."""

from __future__ import annotations

import numpy as np

from .errors import InputError

_FP_TOL = 1e-12
_FP_MAX_ITER = 20000


def pair_label(a: str, b: str) -> str:
    return f"({a},{b})"


def _lincomb(terms) -> tuple:
    """Sum of n * v over (v, n) in terms, v and the sum sorted ((index, mult), ...)."""
    acc: dict[int, int] = {}
    for v, n in terms:
        for k, c in v:
            acc[k] = acc.get(k, 0) + n * c
    return tuple(sorted(acc.items()))


class FusionRing:
    """Simple-object labels with duals and sparse fusion multiplicities.

    The first label is the tensor unit.  Fusion data is a map
    (i, j, k) -> N_ij^k with absent entries meaning zero.
    """

    def __init__(self, labels: list[str], dual: dict[str, str],
                 fusion: dict[tuple[str, str, str], int]):
        if not labels:
            raise InputError("a fusion ring needs at least the unit label")
        if len(set(labels)) != len(labels):
            raise InputError("duplicate labels")
        self.labels = list(labels)
        self.unit = labels[0]
        self.index = {x: i for i, x in enumerate(labels)}
        for x in labels:
            if x not in dual:
                raise InputError(f"dual map misses label {x!r}")
            if dual[x] not in self.index:
                raise InputError(f"dual of {x!r} is the unknown label {dual[x]!r}")
        self.dual = {x: dual[x] for x in labels}
        self.N: dict[tuple[str, str, str], int] = {}
        self._fuse: dict[tuple[str, str], dict[str, int]] = {}
        for (i, j, k), n in fusion.items():
            if i not in self.index or j not in self.index or k not in self.index:
                raise InputError(f"fusion entry {(i, j, k)} uses unknown labels")
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise InputError(f"fusion multiplicity N[{i},{j}]^{k} must be a nonnegative integer")
            if n:
                self.N[(i, j, k)] = n
                self._fuse.setdefault((i, j), {})[k] = n

    def n(self, i: str, j: str, k: str) -> int:
        return self.N.get((i, j, k), 0)

    def fuse(self, i: str, j: str) -> dict[str, int]:
        return self._fuse.get((i, j), {})

    def rank(self) -> int:
        return len(self.labels)

    # -- validation --------------------------------------------------------

    def validate(self) -> list[str]:
        """Exhaustive invariant check; returns violations in deterministic order.

        Works on integer indices.  The unit, duality and Frobenius checks visit
        only the triples that a nonzero entry enters; associativity compares
        the rows k -> (i x j) x k and k -> i x (j x k) one index i at a time."""
        L, r, ix, one = self.labels, self.rank(), self.index, self.unit
        dual = [ix[self.dual[x]] for x in L]
        N = {(ix[i], ix[j], ix[k]): n for (i, j, k), n in self.N.items()}
        prod = [[()] * r for _ in range(r)]  # a x b: sorted ((k, N_ab^k), ...)
        into: list[list[tuple[int, int]]] = [[] for _ in range(r)]  # k -> [(a, b)]
        for (a, b, k) in sorted(N):
            prod[a][b] += ((k, N[(a, b, k)]),)
            into[k].append((a, b))
        pre = [[j for j in range(r) if dual[j] == x] for x in range(r)]  # x -> [j : j* = x]
        bad: list[str] = []
        for j in range(r):
            left, right = dict(prod[0][j]), dict(prod[j][0])
            for k in sorted({j, *left, *right}):
                for x, y, got in ((one, L[j], left.get(k, 0)), (L[j], one, right.get(k, 0))):
                    if got != (j == k):
                        bad.append(f"unit: N[{x},{y}]^{L[k]} = {got}, expected {int(j == k)}")
        bad += [f"duality: dual(dual({L[i]})) = {L[dual[dual[i]]]}"
                for i in range(r) if dual[dual[i]] != i]
        if dual[0] != 0:
            bad.append(f"duality: dual({one}) = {L[dual[0]]}, expected {one}")
        for i in range(r):
            for j in sorted({dual[i]} | {b for a, b in into[0] if a == i}):
                if N.get((i, j, 0), 0) != (j == dual[i]):
                    bad.append(f"duality: N[{L[i]},{L[j]}]^{one} = {N.get((i, j, 0), 0)}, "
                               f"expected {int(j == dual[i])}")
        for i in range(r):  # (j, k) with N_ij^k, N_(i*)k^j or N_k(j*)^i nonzero
            pairs = {(j, k) for j in range(r) for k, _ in prod[i][j]}
            pairs.update((j, k) for k in range(r) for j, _ in prod[dual[i]][k])
            pairs.update((j, a) for a, b in into[i] for j in pre[b])
            for j, k in sorted(pairs):
                for x, y, z in ((dual[i], k, j), (k, dual[j], i)):
                    if N.get((i, j, k), 0) != N.get((x, y, z), 0):
                        bad.append(f"frobenius: N[{L[i]},{L[j]}]^{L[k]} != N[{L[x]},{L[y]}]^{L[z]}")
        for i in range(r):
            p_i = prod[i]
            for j in range(r):
                ij = p_i[j]
                lhs = (prod[ij[0][0]] if len(ij) == 1 and ij[0][1] == 1 else
                       [_lincomb((prod[m][k], n) for m, n in ij) for k in range(r)])
                rhs = [p_i[jk[0][0]] if len(jk) == 1 and jk[0][1] == 1 else
                       _lincomb((p_i[m], n) for m, n in jk) for jk in prod[j]]
                if lhs != rhs:
                    bad += [f"associativity: ({L[i]} x {L[j]}) x {L[k]} != "
                            f"{L[i]} x ({L[j]} x {L[k]})" for k in range(r) if lhs[k] != rhs[k]]
        return bad

    # -- Frobenius-Perron dimensions (float; no exact decision reads them) --

    def fp_dims(self) -> list[float]:
        n = self.rank()
        T = np.zeros((n, n))
        for (i, j, k), mult in self.N.items():
            T[self.index[j], self.index[k]] += mult
        v = np.ones(n)
        for _ in range(_FP_MAX_ITER):
            w = T @ v
            norm = np.max(np.abs(w))
            if norm == 0:
                raise InputError("fp_dims: fusion matrix is nilpotent; ring invalid")
            w /= norm
            if np.max(np.abs(w - v)) < _FP_TOL:
                v = w
                break
            v = w
        else:
            raise InputError("fp_dims: power iteration did not converge; ring invalid")
        u = self.index[self.unit]
        if v[u] <= 0:
            raise InputError("fp_dims: Perron vector is not positive; ring invalid")
        d = v / v[u]
        if np.any(d <= 0):
            raise InputError("fp_dims: nonpositive dimension; ring invalid")
        return [float(x) for x in d]

    # -- products and restriction -------------------------------------------

    def product(self, other: "FusionRing") -> "FusionRing":
        labels = [pair_label(a, b) for a in self.labels for b in other.labels]
        dual = {pair_label(a, b): pair_label(self.dual[a], other.dual[b])
                for a in self.labels for b in other.labels}
        fusion: dict[tuple[str, str, str], int] = {}
        for (i, j, k), n1 in self.N.items():
            for (a, b, c), n2 in other.N.items():
                fusion[(pair_label(i, a), pair_label(j, b), pair_label(k, c))] = n1 * n2
        return FusionRing(labels, dual, fusion)

    def restrict(self, labels: list[str]) -> "FusionRing":
        keep = set(labels)
        if self.unit not in keep:
            raise InputError("restriction must contain the unit")
        for x in labels:
            if x not in self.index:
                raise InputError(f"unknown label {x!r}")
            if self.dual[x] not in keep:
                raise InputError(f"restriction is not dual-closed at {x!r}")
        for i in labels:
            for j in labels:
                for k in self.fuse(i, j):
                    if k not in keep:
                        raise InputError(f"restriction is not fusion-closed: {i} x {j} hits {k}")
        ordered = [x for x in self.labels if x in keep]
        fusion = {(i, j, k): n for (i, j, k), n in self.N.items()
                  if i in keep and j in keep and k in keep}
        return FusionRing(ordered, {x: self.dual[x] for x in ordered}, fusion)
