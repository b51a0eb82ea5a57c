"""Premodular (ribbon fusion) category data: exact dimensions and twists on
top of a fusion ring, the derived unnormalized S-matrix, and the centralizer
calculus (transparency, Mueger center, nondegeneracy)."""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from math import lcm

from .cyclo import MAX_CONDUCTOR, Cyclo, cyclotomic_polynomial, root_of_unity, turn_mod1
from .errors import InputError, LimitExceeded, ValidationInputError
from .fusion import FusionRing, _with_rows

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
        # the twist turns as integers over one denominator, for S and transparency
        self._den = lcm(*(r.denominator for r in self.twists.values()))
        self._turn = {x: r.numerator * (self._den // r.denominator)
                      for x, r in self.twists.items()}
        self._s: dict[tuple[str, str], Cyclo] = {}
        self._inverse = cache(Cyclo.inverse)  # of dims, by value
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

    def turns(self) -> tuple[dict[str, int], int]:
        return self._turn, self._den  # theta_x = e^(2 pi i turn[x] / den)

    def is_invertible(self, x: str) -> bool:
        return self.dims[x] == _ONE

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

    # -- centralizer calculus -------------------------------------------------

    def centralizes(self, i: str, j: str) -> bool:
        """Mueger's criterion S_ij = d_i d_j, read from the twists: i and j
        centralize each other iff theta_k = theta_i theta_j for every k in
        i* x j.  It is exact on validated data: S_ij = sum_k N_(i*j)^k d_k
        theta_k / (theta_i theta_j), the dims are positive and sum_k
        N_(i*j)^k d_k = d_i d_j, so S_ij = d_i d_j iff every phase is 1
        (Mueger, Proc. LMS 87, 2003)."""
        turn, den = self._turn, self._den
        t = turn[i] + turn[j]
        return all((turn[k] - t) % den == 0 for k in self.ring.fuse(self.dual(i), j))

    def monodromy(self, e: str, x: str) -> Cyclo:
        """Scalar S_ex / d_x of the double braiding of an invertible e around
        x: e* x x is one simple k of dim d_x, so it is theta_k / (theta_e theta_x)."""
        if not self.is_invertible(e):
            raise InputError(f"monodromy requires an invertible label, got {e!r}")
        [k], turn = self.ring.fuse(self.dual(e), x), self._turn
        return root_of_unity((turn[k] - turn[e] - turn[x]) % self._den, self._den)

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

        The two are independent computations: the Mueger center is read from
        the twists (`centralizes`), invertibility from the S characters
        (`_s_invertibility`).  Data that passes `validate` yet is no braided
        category can split the two; that is an input error."""
        if self._nondeg is None:
            claim = self.muger_center() == [self.unit]
            invertible = self._s_invertibility[1]
            if claim != invertible:
                raise ValidationInputError(
                    f"{self.name}: Mueger-center criterion ({claim}) disagrees with "
                    f"S-matrix invertibility ({invertible}); the data is not a "
                    f"braided category")
            self._nondeg = claim
        return self._nondeg

    @cached_property
    def _s_invertibility(self) -> tuple[bool, bool]:
        """(Verlinde holds, S is invertible), on validated data, from the
        columns chi_l = S_.l / d_l (EGNO, Tensor Categories, ch. 8).
        Validation gives chi_l(1) = 1; if also chi_l(g x) = chi_l(g) chi_l(x)
        for g in G (`_generators`) and every x, chi_l is a character, fixed by
        its values on G, and Verlinde holds.  Then S is invertible iff the
        characters are pairwise distinct: distinct characters are linearly
        independent (Dedekind), and two equal columns make S singular.
        Otherwise the dense test decides."""
        labels, fuse, S = self.labels, self.ring.fuse, self.s_entry
        G, chis = _generators(self.ring), [{x: S(x, l) * d for x in labels} for l, d in
                                           zip(labels, map(self._inverse, self.dims.values()))]
        if all(chi[g] * chi[x] == sum((chi[k] * n for k, n in fuse(g, x).items()), Cyclo.zero())
               for chi in chis for g in G for x in labels):
            return True, len({tuple(chi[g] for g in G) for chi in chis}) == len(labels)
        return False, self._smatrix_invertible()

    def _smatrix_invertible(self) -> bool:
        # S * conj(S)^T = (global dim) * Id holds exactly iff nondegenerate
        d2, labels = self.global_dim(), self.labels
        conj = {(j, k): self.s_entry(j, k).conjugate() for j in labels for k in labels}
        return all(sum((self.s_entry(i, k) * conj[(j, k)] for k in labels), Cyclo.zero()) ==
                   (d2 if i == j else Cyclo.zero()) for i in labels for j in labels)

    # -- scalar invariants -----------------------------------------------------

    def global_dim(self) -> Cyclo:
        return sum((d * d for d in self.dims.values()), Cyclo.zero())

    def gauss_sum(self) -> Cyclo:
        return sum((root_of_unity(self.twists[x]) * d * d for x, d in self.dims.items()),
                   Cyclo.zero())

    # -- constructions -----------------------------------------------------------

    def deligne(self, other: "Premodular", keys=None) -> "Premodular":
        """Deligne product: dimensions multiply, twist turns add mod 1; with
        `keys`, only its deconfined pairs (`FusionRing.product`).

        Its S-matrix is the Kronecker product S_(a,b),(c,d) = S_ac * S_bd, as
        tests/test_premodular.py asserts."""
        ring = self.ring.product(other.ring, keys)
        kx, ky = keys or ({}, {})
        dims, twists = {}, {}
        for lab, (a, b) in zip(ring.labels, ((a, b) for a, b in product(self.labels, other.labels)
                                             if kx.get(a) == ky.get(b))):
            dims[lab] = self.dims[a] * other.dims[b]
            twists[lab] = self.twists[a] + other.twists[b]
        return Premodular(ring, dims, twists, name=f"{self.name} (x) {other.name}")

    def reverse(self) -> "Premodular":
        """Same fusion and dimensions, inverse braiding: twists negate mod 1.

        Its S-matrix is the complex conjugate of this one, as
        tests/test_premodular.py asserts."""
        twists = {x: -self.twists[x] for x in self.labels}
        return Premodular(self.ring, self.dims, twists, name=f"rev({self.name})")

    def relabel(self, mapping: dict[str, str], name: str) -> "Premodular":
        """The same data with every label x renamed to mapping[x]."""
        m = mapping
        ring = _with_rows([m[x] for x in self.labels],
                          {m[x]: m[self.dual(x)] for x in self.labels},
                          {(m[i], m[j]): {m[k]: n for k, n in row.items()}
                           for (i, j), row in self.ring.rows()})
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
        labels, fuse = self.labels, self.ring.fuse
        dim_rule, s_rule = linear_rules(self.dims, self.twists, max(
            (n for _, row in self.ring.rows() for n in row.values()), default=0))
        bad += [f"dims: dimension equation fails at ({i},{j})"
                for i, j in product(labels, labels) if not dim_rule(i, j, fuse(i, j))]
        for i in labels:
            for j in labels:
                if fuse(i, j) != fuse(j, i):
                    bad.append(f"braiding: fusion is not commutative at ({i},{j})")
                    break
        if not bad:
            # S_1i = d_i and S_ij = S_ji follow from the checks above, and the
            # dims, a positive eigenvector of the positive matrix sum_i N_i, are
            # its Perron vector; tests/test_invariants.py asserts all three
            bad += [f"smatrix: dual row is not the conjugate at ({i},{j})"
                    for a, i in enumerate(labels) for j in labels[a:]
                    if not s_rule(i, self.dual(i), j, fuse(i, j), fuse(self.dual(i), j))]
        return bad

    def __repr__(self):
        return f"Premodular({self.name}, rank {self.ring.rank()})"


def linear_rules(dims: dict[str, Cyclo], twists: dict[str, Fraction], bound: int):
    """Exact tests of a category's two linear identities on fusion rows with
    coefficients at most `bound`, making no Cyclo value: dim_rule(a, b, row)
    is d_a d_b = sum_c row[c] d_c, and s_rule(i, i2, j, n_ij, n_i2j) is
    S(i2, j) = conj S(i, j) for i2 = i* on the rows (i, j) and (i2, j), by the
    balancing formula (`s_entry`) sum_k N_ij^k theta_k d_k = z^t conj(sum_k
    N_(i2)j^k theta_k d_k) with z^t = theta_i theta_i2 theta_j^2.

    Times den^2 or den (den clears the dims' denominators) a rule's difference
    is some x = sum_e c_e z^e in Z[z], z = zeta_n, read as sum_e c_e 2^(w e)
    mod M = Phi_n(2^w).  A nonzero x in the kernel (2^w - z) of z -> 2^w has
    |norm(x)| >= M >= (2^w - 1)^phi(n), and no conjugate of x exceeds
    sum_e |c_e| <= big^2 + 2 den rank bound big (big the largest such sum of a
    den d_x), which w keeps below 2^w - 1.  n is the dims' lcm order for
    dim_rule and also the twists' for s_rule, read at its first call; a
    conductor of n above MAX_CONDUCTOR is a LimitExceeded, before Phi_n."""
    den = lcm(*(d.den for d in dims.values()))
    big = max(sum(map(abs, d.coeffs.values())) * (den // d.den) for d in dims.values())
    w = (big * big + 2 * den * len(dims) * bound * big).bit_length() + 1

    def field(n, turn):  # M, and s -> x -> the image of den (theta_x d_x)^s, s = +-1
        if (conductor := n // 2 if n % 4 == 2 else n) > MAX_CONDUCTOR:
            raise LimitExceeded(f"the dims and twists lie at conductor {conductor:,}, above "
                                f"the limit MAX_CONDUCTOR = {MAX_CONDUCTOR:,}")
        terms = {x: [(e * (n // d.order) + turn.get(x, 0), c * (den // d.den))
                     for e, c in d.coeffs.items()] for x, d in dims.items()}
        return (sum(c << w * e for e, c in enumerate(cyclotomic_polynomial(n))),
                lambda s: {x: sum(c << w * (s * e % n) for e, c in ts) for x, ts in terms.items()})

    mod, pack = field(lcm(*(d.order for d in dims.values())), {})
    dd = pack(1)

    def dim_rule(a, b, row):
        return not (dd[a] * dd[b] - den * sum(v * dd[c] for c, v in row.items() if v)) % mod

    @cache
    def s_field():
        n = lcm(*(r.denominator for r in twists.values()), *(d.order for d in dims.values()))
        turn = {x: r.numerator * (n // r.denominator) for x, r in twists.items()}  # z^turn
        s_mod, pack = field(n, turn)
        return n, turn, s_mod, pack(1), pack(-1)

    def s_rule(i, i2, j, n_ij, n_i2j):
        n, turn, s_mod, theta_d, conj_theta_d = s_field()
        t = w * ((turn[i] + turn[i2] + 2 * turn[j]) % n)
        return not (sum(v * theta_d[k] for k, v in n_ij.items() if v) -
                    (sum(v * conj_theta_d[k] for k, v in n_i2j.items() if v) << t)) % s_mod
    return dim_rule, s_rule


def _generators(ring: FusionRing) -> list[str]:
    """A set G of labels whose monomials span the ring over Q: a label joins
    the span when it is the only output outside it of some g x y with g in G
    and y in the span; when none joins, the first label outside is added to G."""
    span, G = {ring.unit}, []
    while len(span) < ring.rank():
        G.append(next(x for x in ring.labels if x not in span))
        span.add(G[-1])
        while grown := {out.pop() for g, y in product(G, span)
                        if len(out := ring.fuse(g, y).keys() - span) == 1}:
            span |= grown
    return G
