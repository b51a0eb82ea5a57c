"""Test-only references: the dense orbit-triple scan of the condensation
engine, the label-keyed `FusionRing.validate` and the triple-wise
`FusionRing.product`, as they were before the engine read only the
representative rows, the validation became sparse and integer-indexed and
the product was built row by row; the numpy Frobenius-Perron dims and the
rank^3 S-invertibility test, as they were before `FusionRing.fp_dims` ran in
plain Python and the S decision conjugated each entry once; and the
(i, j, k) -> N_ij^k triple view that `FusionRing.N` used to give; and
`Premodular.validate` with its dimension equations and conjugate-dual rule
as `Cyclo` loops, the latter through `s_entry`, as it was before
`premodular.linear_rules` evaluated both on integers; and `centralizes` and
`monodromy` by S-entries, as they were before they read the twists; and
`Premodular._s_invertibility` in `Cyclo` arithmetic through `s_entry`, as
it was before it read the packed S table.  The differential tests assert
that the engine matches them.  They are not a second path of the package;
nothing in `src/` imports them."""

from functools import cache

import numpy as np

from setcat.cyclo import Cyclo
from setcat.errors import InputError, InternalFault
from setcat.fusion import FusionRing, closure_error, pair_label
from setcat.premodular import _generators
from setcat.relprod import _act

_FP_TOL = 1e-12
_FP_MAX_ITER = 20000
_inverse = cache(Cyclo.inverse)  # of dims, by value


def triples(ring) -> dict:
    """{(i, j, k): N_ij^k} over the nonzero entries, in row order and, within
    a row, in output order: the order of the split digests' fusion tables."""
    return {(i, j, k): n for (i, j), row in ring.rows() for k, n in row.items()}


def triple_product(R1, R2):
    """The Deligne product of two fusion rings, one entry per pair of nonzero
    triples with three `pair_label` calls each."""
    labels = [pair_label(a, b) for a in R1.labels for b in R2.labels]
    dual = {pair_label(a, b): pair_label(R1.dual[a], R2.dual[b])
            for a in R1.labels for b in R2.labels}
    fusion = {}
    for (i, j, k), n1 in triples(R1).items():
        for (a, b, c), n2 in triples(R2).items():
            fusion[(pair_label(i, a), pair_label(j, b), pair_label(k, c))] = n1 * n2
    return FusionRing(labels, dual, fusion)


def dense_fp_dims(ring) -> list[float]:
    """`FusionRing.fp_dims` as numpy power iteration on the dense matrix."""
    self = ring
    n = self.rank()
    T = np.zeros((n, n))
    for (i, j, k), mult in triples(self).items():
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


def dense_smatrix_invertible(P) -> bool:
    """S conj(S)^T = D^2 Id, the S decision's dense test, with a conjugation
    per product."""
    self = P
    # S * conj(S)^T = (global dim) * Id holds exactly iff nondegenerate
    d2 = self.global_dim()
    for i in self.labels:
        for j in self.labels:
            acc = Cyclo.zero()
            for k in self.labels:
                acc = acc + self.s_entry(i, k) * self.s_entry(j, k).conjugate()
            want = d2 if i == j else Cyclo.zero()
            if acc != want:
                return False
    return True


def cyclo_s_invertibility(P) -> tuple[bool, bool]:
    """`Premodular._s_invertibility` on `Cyclo` values: the columns chi_l =
    S_.l / d_l through `s_entry` and the dims' inverses, multiplicative on
    the generators iff Verlinde holds, then pairwise distinct on them; else
    the dense test."""
    labels, fuse, S = P.labels, P.ring.fuse, P.s_entry
    G = _generators(P.ring)
    chis = [{x: S(x, l) * d for x in labels}
            for l, d in zip(labels, map(_inverse, P.dims.values()))]
    if all(chi[g] * chi[x] == sum((chi[k] * n for k, n in fuse(g, x).items()), Cyclo.zero())
           for chi in chis for g in G for x in labels):
        return True, len({tuple(chi[g] for g in G) for chi in chis}) == len(labels)
    return False, dense_smatrix_invertible(P)


def dense_orbit_fusion(P, rep, of_orbit):
    """Walk every row between deconfined labels for the closure error, then
    scan every orbit triple and |H| for each one, with margins as sums of
    `FusionRing.n` lookups and checked against each other; the arguments of
    `relprod._orbit_fusion`, but the forced coefficients as triples in
    orbit-triple order, the margin dicts hold every triple, zeros too, and
    every triple with two or more split slots is unknown, dead ones (a margin
    of 0) too.  H is the unit's orbit."""
    for (a, b), row in P.ring.rows():
        if a in rep and b in rep:
            for c in row:
                if c not in rep:
                    raise closure_error(a, b, c)
    members = {r: [m for m in rep if rep[m] == r] for r in of_orbit}
    H = members[P.unit]
    child_count = {r: len(labs) for r, labs in of_orbit.items()}

    def parent_n(a, b, c):
        return P.ring.n(a, b, c)

    def margin_row(ox, oy, oz):
        return sum(parent_n(u, oy, oz) for u in members[ox])

    def margin_col(ox, oy, oz):
        return sum(parent_n(ox, v, oz) for v in members[oy])

    def margin_out(ox, oy, oz):
        return sum(parent_n(ox, oy, w) for w in members[oz])

    n_result = {}
    unknown = []
    row, col, out = {}, {}, {}
    reps = list(of_orbit)
    for ox in reps:
        for oy in reps:
            for oz in reps:
                cx, cy, cz = child_count[ox], child_count[oy], child_count[oz]
                split_slots = (cx > 1) + (cy > 1) + (cz > 1)
                t_total = sum(parent_n(ox, _act(P, h, oy), oz) for h in H)
                r_m, c_m, o_m = (margin_row(ox, oy, oz), margin_col(ox, oy, oz),
                                 margin_out(ox, oy, oz))
                row[(ox, oy, oz)], col[(ox, oy, oz)], out[(ox, oy, oz)] = r_m, c_m, o_m
                if cx * r_m != cy * c_m or cy * c_m != cz * o_m or cx * r_m != t_total:
                    raise InternalFault(
                        f"inconsistent fusion margins at orbits ({ox},{oy},{oz})")
                if split_slots == 0:
                    if t_total:
                        n_result[(ox, oy, oz)] = t_total
                    continue
                if split_slots == 1:
                    for a in of_orbit[ox]:
                        for b in of_orbit[oy]:
                            for c in of_orbit[oz]:
                                val = r_m if cx > 1 else (c_m if cy > 1 else o_m)
                                if val:
                                    n_result[(a, b, c)] = val
                    continue
                for a in of_orbit[ox]:
                    for b in of_orbit[oy]:
                        for c in of_orbit[oz]:
                            unknown.append((a, b, c))
    return n_result, unknown, (row, col, out)


def dense_validate(ring) -> list[str]:
    """`FusionRing.validate` on string labels over every triple."""
    self = ring
    bad = []
    one = self.unit
    for j in self.labels:
        for k in self.labels:
            want = 1 if j == k else 0
            if self.n(one, j, k) != want:
                bad.append(f"unit: N[{one},{j}]^{k} = {self.n(one, j, k)}, expected {want}")
            if self.n(j, one, k) != want:
                bad.append(f"unit: N[{j},{one}]^{k} = {self.n(j, one, k)}, expected {want}")
    for i in self.labels:
        if self.dual[self.dual[i]] != i:
            bad.append(f"duality: dual(dual({i})) = {self.dual[self.dual[i]]}")
    if self.dual[one] != one:
        bad.append(f"duality: dual({one}) = {self.dual[one]}, expected {one}")
    for i in self.labels:
        for j in self.labels:
            want = 1 if j == self.dual[i] else 0
            if self.n(i, j, one) != want:
                bad.append(f"duality: N[{i},{j}]^{one} = {self.n(i, j, one)}, expected {want}")
    for i in self.labels:
        for j in self.labels:
            for k in self.labels:
                nijk = self.n(i, j, k)
                if nijk != self.n(self.dual[i], k, j):
                    bad.append(f"frobenius: N[{i},{j}]^{k} != N[{self.dual[i]},{k}]^{j}")
                if nijk != self.n(k, self.dual[j], i):
                    bad.append(f"frobenius: N[{i},{j}]^{k} != N[{k},{self.dual[j]}]^{i}")
    for i in self.labels:
        for j in self.labels:
            for k in self.labels:
                lhs = {}
                for m, nij in self.fuse(i, j).items():
                    for l, nmk in self.fuse(m, k).items():
                        lhs[l] = lhs.get(l, 0) + nij * nmk
                rhs = {}
                for m, njk in self.fuse(j, k).items():
                    for l, nim in self.fuse(i, m).items():
                        rhs[l] = rhs.get(l, 0) + njk * nim
                if lhs != rhs:
                    bad.append(f"associativity: ({i} x {j}) x {k} != {i} x ({j} x {k})")
    return bad


def cyclo_validate(P) -> list[str]:
    """`Premodular.validate` with the dimension equation and the rule
    S(i*, j) = conj S(i, j) in Cyclo arithmetic."""
    self = P
    bad = [f"ring: {msg}" for msg in self.ring.validate()]
    one = self.unit
    if self.dims[one] != Cyclo.one():
        bad.append(f"dims: d[{one}] != 1")
    if self.twists[one] != 0:
        bad.append(f"twists: theta[{one}] != 1")
    for x in self.labels:
        d = self.dims[x]
        if d.conjugate() != d:
            bad.append(f"dims: d[{x}] is not real")
        elif d.sign() <= 0:
            bad.append(f"dims: d[{x}] is not positive")
        if self.dims[self.dual(x)] != d:
            bad.append(f"dims: d[{self.dual(x)}] != d[{x}]")
        if self.twists[self.dual(x)] != self.twists[x]:
            bad.append(f"twists: theta[{self.dual(x)}] != theta[{x}]")
    for i in self.labels:
        for j in self.labels:
            rhs = Cyclo.zero()
            for k, n in self.ring.fuse(i, j).items():
                rhs = rhs + self.dims[k] * n
            if self.dims[i] * self.dims[j] != rhs:
                bad.append(f"dims: dimension equation fails at ({i},{j})")
    for i in self.labels:
        for j in self.labels:
            if self.ring.fuse(i, j) != self.ring.fuse(j, i):
                bad.append(f"braiding: fusion is not commutative at ({i},{j})")
                break
    if not bad:
        S = self.s_entry
        for a, i in enumerate(self.labels):
            for j in self.labels[a:]:
                if S(self.dual(i), j) != S(i, j).conjugate():
                    bad.append(f"smatrix: dual row is not the conjugate at ({i},{j})")
    return bad


def s_centralizes(P, i, j) -> bool:
    """`Premodular.centralizes` as Mueger's criterion S_ij = d_i d_j."""
    return P.s_entry(i, j) == P.dim(i) * P.dim(j)


def s_monodromy(P, e, x) -> Cyclo:
    """`Premodular.monodromy` as S_ex / d_x."""
    return P.s_entry(e, x) * _inverse(P.dim(x))
