"""Premodular (ribbon fusion) category data: exact dimensions and twists on
top of a fusion ring, the derived unnormalized S-matrix, and the centralizer
calculus (transparency, Mueger center, nondegeneracy)."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from .cyclo import Cyclo, root_of_unity, turn_mod1
from .errors import InputError, ValidationInputError
from .fusion import FusionRing

_ONE = Cyclo.one()


class Premodular:
    """Fusion ring plus exact quantum dimensions and rational twist turns.

    The S-matrix is never supplied; it is derived from the balancing formula
    S_ij = sum_k N_(i*,j)^k * e^(2 pi i (r_k - r_i - r_j)) * d_k and cached.
    """

    def __init__(self, ring: FusionRing, dims: dict[str, Cyclo],
                 twists: dict[str, Fraction], name: str = ""):
        self.ring = ring
        self.name = name or "unnamed"
        for x in ring.labels:
            if x not in dims:
                raise InputError(f"missing dimension for label {x!r}")
            if x not in twists:
                raise InputError(f"missing twist for label {x!r}")
        self.dims = {x: dims[x] for x in ring.labels}
        self.twists = {x: turn_mod1(twists[x]) for x in ring.labels}
        # the twist turns as integers over one denominator, for s_entry
        self._den = lcm(*(r.denominator for r in self.twists.values()))
        self._turn = {x: r.numerator * (self._den // r.denominator)
                      for x, r in self.twists.items()}
        self._s: dict[tuple[str, str], Cyclo] = {}
        self._s_full = False
        self._inv_dims: dict[str, Cyclo] = {}
        self._nondeg: bool | None = None

    # -- conveniences --------------------------------------------------------

    @property
    def labels(self) -> list[str]:
        return self.ring.labels

    @property
    def unit(self) -> str:
        return self.ring.unit

    def dual(self, x: str) -> str:
        return self.ring.dual[x]

    def dim(self, x: str) -> Cyclo:
        return self.dims[x]

    def twist(self, x: str) -> Fraction:
        return self.twists[x]

    def theta(self, x: str) -> Cyclo:
        return root_of_unity(self.twists[x])

    def is_invertible(self, x: str) -> bool:
        return self.dims[x] == _ONE

    def _inv_dim(self, x: str) -> Cyclo:
        if x not in self._inv_dims:
            self._inv_dims[x] = self.dims[x].inverse()
        return self._inv_dims[x]

    # -- derived S-matrix ------------------------------------------------------

    def s_entry(self, i: str, j: str) -> Cyclo:
        key = (i, j)
        val = self._s.get(key)
        if val is None:
            turn, den, dims = self._turn, self._den, self.dims
            rij = turn[i] + turn[j]
            terms = [root_of_unity((turn[k] - rij) % den, den) * dims[k] * n
                     for k, n in self.ring.fuse(self.dual(i), j).items()]
            val = sum(terms[1:], terms[0]) if terms else Cyclo.zero()
            self._s[key] = val
        return val

    def smatrix(self) -> dict[tuple[str, str], Cyclo]:
        if not self._s_full:
            for i in self.labels:
                for j in self.labels:
                    self.s_entry(i, j)
            self._s_full = True
        return self._s

    # -- centralizer calculus -------------------------------------------------

    def centralizes(self, i: str, j: str) -> bool:
        """Mueger's criterion: trivial double braiding iff S_ij = d_i d_j."""
        return self.s_entry(i, j) == self.dims[i] * self.dims[j]

    def monodromy(self, e: str, x: str) -> Cyclo:
        """Scalar of the double braiding of an invertible e around x."""
        if not self.is_invertible(e):
            raise InputError(f"monodromy requires an invertible label, got {e!r}")
        return self.s_entry(e, x) * self._inv_dim(x)

    def centralizer(self, subset: list[str]) -> list[str]:
        seen = set(subset)
        for s in subset:
            if s not in self.ring.index:
                raise InputError(f"unknown label {s!r}")
            if self.dual(s) not in seen:
                raise InputError(f"centralizer input is not dual-closed at {s!r}")
        return [x for x in self.labels if all(self.centralizes(x, s) for s in subset)]

    def muger_center(self) -> list[str]:
        return self.centralizer(self.labels)

    def is_nondegenerate(self) -> bool:
        """Trivial Mueger center, cross-checked against exact S-matrix invertibility.

        Data that passes `validate` yet is no braided category can split the
        two; that is an input error."""
        if self._nondeg is None:
            claim = self.muger_center() == [self.unit]
            invertible = self._smatrix_invertible()
            if claim != invertible:
                raise ValidationInputError(
                    f"{self.name}: Mueger-center criterion ({claim}) disagrees with "
                    f"S-matrix invertibility ({invertible}); the data is not a "
                    f"braided category")
            self._nondeg = claim
        return self._nondeg

    def _smatrix_invertible(self) -> bool:
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

    # -- scalar invariants -----------------------------------------------------

    def global_dim(self) -> Cyclo:
        total = Cyclo.zero()
        for x in self.labels:
            total = total + self.dims[x] * self.dims[x]
        return total

    def gauss_sum(self) -> Cyclo:
        total = Cyclo.zero()
        for x in self.labels:
            total = total + root_of_unity(self.twists[x]) * self.dims[x] * self.dims[x]
        return total

    # -- constructions -----------------------------------------------------------

    def deligne(self, other: "Premodular") -> "Premodular":
        """Deligne product: dimensions multiply, twist turns add mod 1.

        Its S-matrix is the Kronecker product S_(a,b),(c,d) = S_ac * S_bd, as
        tests/test_premodular.py asserts."""
        ring = self.ring.product(other.ring)
        dims, twists = {}, {}
        for lab, (a, b) in zip(ring.labels, product(self.labels, other.labels)):
            dims[lab] = self.dims[a] * other.dims[b]
            twists[lab] = turn_mod1(self.twists[a] + other.twists[b])
        return Premodular(ring, dims, twists, name=f"{self.name} (x) {other.name}")

    def reverse(self) -> "Premodular":
        """Same fusion and dimensions, inverse braiding: twists negate mod 1.

        Its S-matrix is the complex conjugate of this one, as
        tests/test_premodular.py asserts."""
        twists = {x: turn_mod1(-self.twists[x]) for x in self.labels}
        return Premodular(self.ring, self.dims, twists, name=f"rev({self.name})")

    def relabel(self, mapping: dict[str, str], name: str) -> "Premodular":
        """The same data with every label x renamed to mapping[x]."""
        m = mapping
        ring = FusionRing([m[x] for x in self.labels],
                          {m[x]: m[self.dual(x)] for x in self.labels},
                          {(m[i], m[j], m[k]): n for (i, j, k), n in self.ring.N.items()})
        return Premodular(ring, {m[x]: self.dims[x] for x in self.labels},
                          {m[x]: self.twists[x] for x in self.labels}, name=name)

    def restrict(self, labels: list[str], name: str = "") -> "Premodular":
        ring = self.ring.restrict(labels)
        return Premodular(ring, {x: self.dims[x] for x in ring.labels},
                          {x: self.twists[x] for x in ring.labels},
                          name=name or f"{self.name}|{{{','.join(ring.labels)}}}")

    # -- validation ---------------------------------------------------------------

    def validate(self) -> list[str]:
        bad = [f"ring: {msg}" for msg in self.ring.validate()]
        one = self.unit
        if self.dims[one] != _ONE:
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
            # S_1i = d_i and S_ij = S_ji follow from the checks above, and the
            # dims, a positive eigenvector of the positive matrix sum_i N_i, are
            # its Perron vector; tests/test_invariants.py asserts all three
            smat = self.smatrix()
            for a, i in enumerate(self.labels):
                for j in self.labels[a:]:
                    if smat[(self.dual(i), j)] != smat[(i, j)].conjugate():
                        bad.append(f"smatrix: dual row is not the conjugate at ({i},{j})")
        return bad

    def __repr__(self):
        return f"Premodular({self.name}, rank {self.ring.rank()})"
