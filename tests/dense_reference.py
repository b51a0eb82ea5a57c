"""Test-only references: the dense orbit-triple scan of the condensation
engine and the label-keyed `FusionRing.validate`, as they were before both
became sparse and integer-indexed.  The differential tests in
`tests/test_sparse_differential.py` assert that the engine matches them.
They are not a second path of the package; nothing in `src/` imports them."""

from setcat.errors import InternalFault
from setcat.relprod import _act


def dense_orbit_fusion(P, H, orbits, of_orbit):
    """Scan every orbit triple and |H| for each one, with margins as sums
    of `FusionRing.n` lookups; same signature and result as
    `relprod._orbit_fusion` (the margin dicts hold every triple, zeros too)."""
    child_count = {o.representative: len(o.stabilizer) for o in orbits}
    orbit_by_rep = {o.representative: o for o in orbits}

    def parent_n(a, b, c):
        return P.ring.n(a, b, c)

    def margin_row(ox, oy, oz):
        return sum(parent_n(u, oy, oz) for u in orbit_by_rep[ox].members)

    def margin_col(ox, oy, oz):
        return sum(parent_n(ox, v, oz) for v in orbit_by_rep[oy].members)

    def margin_out(ox, oy, oz):
        return sum(parent_n(ox, oy, w) for w in orbit_by_rep[oz].members)

    n_result = {}
    unknown = []
    row, col, out = {}, {}, {}
    reps = [o.representative for o in orbits]
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
