"""Premodular (ribbon fusion) category data: exact dimensions and twists on
top of a fusion ring, the derived unnormalized S-matrix, and the centralizer
calculus (transparency, Mueger center, nondegeneracy)."""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product
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

    def _s_table(self) -> tuple[int, dict[str, int], dict[str, dict[str, int]]]:
        """(M, x -> den d_x, x -> l -> den S_xl), read at z = 2^w and reduced mod
        M = Phi_n(2^w), n and z^turn[x] = theta_x as in `_s_turns` and den and
        big as in `_scale`: by the balancing formula den S_xl = (sum_k
        N_(x*)l^k den theta_k d_k) z^-(turn[x] + turn[l]).  S_lx = S_xl on
        validated data, so each pair is summed once.  Only the cached
        `_s_invertibility` reads it, so it is not kept.

        The tests of `_s_invertibility` are differences of integer polynomials
        in z; zero mod M means zero in Q(zeta_n) when the coefficient sum of
        the difference is below 2^w - 1, by the norm argument of
        `linear_rules`.  A den S entry sums to at most A = R big (R the largest
        row sum of the ring), so a row of S conj(S)^T's difference sums to at
        most rank (A^2 + big^2), which w keeps below 2^w - 1; the character
        rule's, A^2 + big R A = 2 A^2, and a distinctness test's, 2 A big,
        are no larger."""
        labels, fuse, dual, dims = self.labels, self.ring.fuse, self.dual, self.dims
        n, turn = _s_turns(dims, self.twists)
        big = _scale(dims)[1]
        A = big * max(sum(row.values()) for _, row in self.ring.rows())
        w = (len(labels) * (A * A + big * big)).bit_length() + 1
        mod, pack = _field(dims, w, n, turn)
        theta_d, S = pack(1), {x: {} for x in labels}
        for a, x in enumerate(labels):
            for l in labels[a:]:
                v = sum(c * theta_d[k] for k, c in fuse(dual(x), l).items())
                S[x][l] = S[l][x] = (v << w * (-(turn[x] + turn[l]) % n)) % mod
        return mod, {x: (theta_d[x] << w * (-turn[x] % n)) % mod for x in labels}, S

    @cached_property
    def _s_invertibility(self) -> tuple[bool, bool]:
        """(Verlinde holds, S is invertible), on validated data, from the
        columns chi_l = S_.l / d_l (EGNO, Tensor Categories, ch. 8), each
        test an integer congruence on `_s_table`.  Validation gives
        chi_l(1) = 1; if also chi_l(g x) = chi_l(g) chi_l(x) for g in G
        (`_generators`) and every x, i.e. S_gl S_xl = d_l sum_k N_gx^k S_kl,
        chi_l is a character, fixed by its values on G, and Verlinde holds.
        Then S is invertible iff the characters are pairwise distinct:
        distinct characters are linearly independent (Dedekind), and two
        equal columns make S singular.  chi_l = chi_m iff S_gl d_m = S_gm d_l
        for every g, so the columns are compared by dim: within one dim as
        their values on G, across dims d and d' as the sets of S_gl d' and
        S_gm d.  Otherwise S conj(S)^T = D^2 Id decides, with conj S_jk =
        S_(j*)k, the conjugate-dual rule that validation checks."""
        labels, fuse, dual = self.labels, self.ring.fuse, self.dual
        mod, d, S = self._s_table()
        G = _generators(self.ring)
        for l in labels:
            col = {x: S[x][l] for x in labels}
            dcol = {k: d[l] * s for k, s in col.items()}
            if any((col[g] * col[x] - sum(c * dcol[k] for k, c in fuse(g, x).items())) % mod
                   for g in G for x in labels):
                dim2 = sum(v * v for v in d.values())  # den^2 D^2
                return False, not any((sum(S[i][k] * S[dual(j)][k] for k in labels) -
                                       (dim2 if i == j else 0)) % mod
                                      for i in labels for j in labels)
        chis = defaultdict(list)  # d_l -> the chi_l, each as its values S_gl on G
        for l in labels:
            chis[d[l]].append(tuple(S[g][l] for g in G))
        return True, all(len(set(cs)) == len(cs) for cs in chis.values()) and not any(
            {tuple(s * e % mod for s in c) for c in cs} &
            {tuple(s * f % mod for s in c) for c in ds}
            for (f, cs), (e, ds) in combinations(chis.items(), 2))

    # -- scalar invariants -----------------------------------------------------

    def global_dim(self) -> Cyclo:
        return sum((d * d * m for d, m in Counter(self.dims.values()).items()), Cyclo.zero())

    def gauss_sum(self) -> Cyclo:
        return sum((root_of_unity(t) * d * d * m for (t, d), m in
                    Counter((self.twists[x], d) for x, d in self.dims.items()).items()),
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
    dim_rule and also the twists' for s_rule (`_s_turns`), read at its first
    call; a conductor of n above MAX_CONDUCTOR is a LimitExceeded, before Phi_n."""
    den, big = _scale(dims)
    w = (big * big + 2 * den * len(dims) * bound * big).bit_length() + 1
    mod, pack = _field(dims, w, lcm(*(d.order for d in dims.values())), {})
    dd = pack(1)

    def dim_rule(a, b, row):
        return not (dd[a] * dd[b] - den * sum(v * dd[c] for c, v in row.items() if v)) % mod

    @cache
    def s_field():
        n, turn = _s_turns(dims, twists)
        s_mod, pack = _field(dims, w, n, turn)
        return n, turn, s_mod, pack(1), pack(-1)

    def s_rule(i, i2, j, n_ij, n_i2j):
        n, turn, s_mod, theta_d, conj_theta_d = s_field()
        t = w * ((turn[i] + turn[i2] + 2 * turn[j]) % n)
        return not (sum(v * theta_d[k] for k, v in n_ij.items() if v) -
                    (sum(v * conj_theta_d[k] for k, v in n_i2j.items() if v) << t)) % s_mod
    return dim_rule, s_rule


def _scale(dims: dict[str, Cyclo]) -> tuple[int, int]:
    """den, the lcm of the dims' denominators, and big, the largest sum of the
    absolute coefficients of a den d_x."""
    den = lcm(*(d.den for d in dims.values()))
    return den, max(sum(map(abs, d.coeffs.values())) * (den // d.den) for d in dims.values())


def _s_turns(dims: dict[str, Cyclo], twists: dict[str, Fraction]) -> tuple[int, dict[str, int]]:
    """n, the lcm of the twists' denominators and the dims' orders, and each
    theta_x as a power z^turn[x] of z = zeta_n."""
    n = lcm(*(r.denominator for r in twists.values()), *(d.order for d in dims.values()))
    return n, {x: r.numerator * (n // r.denominator) for x, r in twists.items()}


def _field(dims: dict[str, Cyclo], w: int, n: int, turn: dict[str, int]):
    """M = Phi_n(2^w), and s -> x -> the image at z = 2^w of den (theta_x d_x)^s,
    s = +-1, theta_x = z^turn[x] (1 where turn has no x), den as in `_scale`."""
    if (conductor := n // 2 if n % 4 == 2 else n) > MAX_CONDUCTOR:
        raise LimitExceeded(f"the dims and twists lie at conductor {conductor:,}, above "
                            f"the limit MAX_CONDUCTOR = {MAX_CONDUCTOR:,}")
    den = _scale(dims)[0]
    terms = {x: [(e * (n // d.order) + turn.get(x, 0), c * (den // d.den))
                 for e, c in d.coeffs.items()] for x, d in dims.items()}
    return (sum(c << w * e for e, c in enumerate(cyclotomic_polynomial(n))),
            lambda s: {x: sum(c << w * (s * e % n) for e, c in ts) for x, ts in terms.items()})


def _span(ring: FusionRing, G: list[str], span=()) -> set[str]:
    """The labels that G's monomials reach from `span`, the unit and G: a
    label joins when it is the only output outside of some g y, g in G and
    y inside; the closure does not depend on the order of joining."""
    span = list(dict.fromkeys((ring.unit, *span, *G)))
    inside, open_, done = set(span), [], 0
    while done < len(span):  # products of the labels that joined last
        open_ += [ring.fuse(g, y).keys() for y in span[done:] for g in G]
        done = len(span)
        open_ = [rest for out in open_ if (rest := out - inside)]
        span += (fresh := {x for out in open_ if len(out) == 1 for x in out})
        inside |= fresh
    return inside


def _generators(ring: FusionRing) -> list[str]:
    """An irredundant set G of labels whose monomials span the ring over Q
    (`_span`): the first label outside the span joins G until the span is
    the ring, then each g in turn leaves G if the rest still span it."""
    span, G = {ring.unit}, []
    while len(span) < ring.rank():
        G.append(next(x for x in ring.labels if x not in span))
        span = _span(ring, G, span)
    for g in list(G):
        if len(_span(ring, rest := [h for h in G if h != g])) == ring.rank():
            G = rest
    return G
