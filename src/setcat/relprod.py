"""Condensation engine: condense a transparent group of invertible bosons
inside one premodular category, and on top of it the relative stacking of two
categories sharing a symmetry Rep(G) (deconfinement of the canonical algebra
in the Deligne product), with verifiers for the unit-law, stacking, and
centralizer identities."""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

from .cyclo import Cyclo
from .double import drinfeld_double
from .embedding import SymmetryEmbedding, same_symmetry
from .equiv import find_equivalence
from .errors import InputError, InternalFault, ValidationInputError
from .fusion import FusionRing, pair_label
from .premodular import Premodular

_SEARCH_NODE_BUDGET = 200_000
_MAX_SURVIVORS = 64


@dataclass
class Orbit:
    representative: str
    members: list[str]
    stabilizer: list[str]


@dataclass
class CondensationResult:
    result: Premodular
    algebra: list[str]
    deconfined: list[str]
    confined: list[str]
    orbits: list[Orbit]
    splittings: dict[str, int]
    provenance: dict[str, tuple[str, int]]
    ambiguity_flags: list[str]
    conservation: dict[str, object] = field(default_factory=dict)

    def orbit_of(self, label: str) -> Orbit:
        for orb in self.orbits:
            if label in orb.members:
                return orb
        raise InputError(f"label {label!r} is not deconfined")

    def result_labels_of_orbit(self, rep: str) -> list[str]:
        return [lab for lab, (r, _) in self.provenance.items() if r == rep]


def _group_table(P: Premodular, bosons: list[str]) -> dict[tuple[str, str], str]:
    """Check the boson set is a transparent group of invertible bosons and
    return its multiplication table."""
    seen = []
    for h in bosons:
        if h not in P.ring.index:
            raise InputError(f"unknown boson label {h!r}")
        if h not in seen:
            seen.append(h)
    H = sorted(seen, key=P.ring.index.__getitem__)
    if P.unit not in H:
        raise InputError("the boson group must contain the unit")
    for h in H:
        if not P.is_invertible(h):
            raise InputError(f"boson {h!r} is not invertible (pair: ({h},{h}))")
        if P.twist(h) != 0:
            raise InputError(f"label {h!r} has a nontrivial twist (pair: ({h},{h}))")
    table = {}
    hset = set(H)
    for a in H:
        for b in H:
            fused = P.ring.fuse(a, b)
            if len(fused) != 1 or set(fused.values()) != {1}:
                raise InputError(f"bosons do not fuse to single simples (pair: ({a},{b}))")
            c = next(iter(fused))
            if c not in hset:
                raise InputError(f"boson set is not closed under fusion (pair: ({a},{b}))")
            table[(a, b)] = c
    for a in H:
        for b in H:
            if not P.centralizes(a, b):
                raise InputError(f"bosons are not pairwise transparent (pair: ({a},{b}))")
    return table


def _act(P: Premodular, h: str, x: str) -> str:
    fused = P.ring.fuse(h, x)
    if len(fused) != 1 or set(fused.values()) != {1}:
        raise InputError(
            f"action of {h!r} on {x!r} is not multiplicity-free; unsupported input")
    return next(iter(fused))


def condense_by_invertible_bosons(P: Premodular, bosons: list[str]) -> CondensationResult:
    """Condense a transparent group H of invertible bosons in P.

    Deconfined labels are those transparent to H; H acts on them by fusion.
    Free orbits hand their data straight to the quotient; orbits with a
    stabilizer of size s split into s simples of dimension d/s, with the
    split fusion coefficients resolved by exhaustive constraint enumeration.
    """
    table = _group_table(P, bosons)
    H = sorted({h for pair in table for h in pair}, key=P.ring.index.__getitem__)
    hset = set(H)

    deconfined = [x for x in P.labels if all(P.centralizes(x, h) for h in H)]
    confined = [x for x in P.labels if x not in set(deconfined)]

    # For valid P, H acts on the deconfined labels (x is deconfined iff the
    # twist is constant on H.x*), with |orbit| * |stabilizer| = |H|, one dim
    # and one twist per orbit, and the unit's orbit first.
    orbits: list[Orbit] = []
    placed: dict[str, str] = {}
    for x in deconfined:
        if x in placed:
            continue
        members = sorted({_act(P, h, x) for h in H}, key=P.ring.index.__getitem__)
        stab = [h for h in H if _act(P, h, x) == x]
        rep = members[0]
        for m in members:
            placed[m] = rep
        orbits.append(Orbit(rep, members, stab))
    orbits.sort(key=lambda o: P.ring.index[o.representative])

    # result skeleton
    child_count = {o.representative: len(o.stabilizer) for o in orbits}
    result_labels: list[str] = []
    provenance: dict[str, tuple[str, int]] = {}
    dims: dict[str, Cyclo] = {}
    twists: dict[str, Fraction] = {}
    of_orbit: dict[str, list[str]] = {}
    for o in orbits:
        s = child_count[o.representative]
        labs = [o.representative] if s == 1 else [f"{o.representative}#{k}" for k in range(s)]
        of_orbit[o.representative] = labs
        d_child = P.dim(o.representative) if s == 1 else P.dim(o.representative) / s
        for k, lab in enumerate(labs):
            result_labels.append(lab)
            provenance[lab] = (o.representative, k)
            dims[lab] = d_child
            twists[lab] = P.twist(o.representative)

    rep_of = {lab: provenance[lab][0] for lab in result_labels}
    n_result, unknown, margins = _orbit_fusion(P, H, orbits, of_orbit)

    ambiguity_flags: list[str] = []
    if unknown:
        survivors = _resolve_split_fusion(
            n_result, unknown, result_labels, rep_of, dims, twists, margins)
        if not survivors:
            raise InternalFault(
                "splitting enumeration found no consistent fusion assignment")
        classes = _dedupe_by_child_permutation(survivors, of_orbit, child_count)
        chosen = classes[0]
        if len(classes) > 1:
            differing = sorted({t for cls in classes for t in cls.keys()
                                if any(cls2.get(t, 0) != cls.get(t, 0) for cls2 in classes)})
            ambiguity_flags = [
                f"{len(classes)} fusion assignments survive all constraints"] + [
                f"undetermined coefficient N[{a},{b}]^{c}" for (a, b, c) in differing]
        n_result = chosen

    # valid without a check: a split result is a relabelling of a candidate
    # that passed _candidate_ok; a forced one, all orbits free, is the orbit
    # quotient of the fusion-closed deconfined labels of a valid P
    ring, result = _build_result(result_labels, n_result, dims, twists,
                                 name=f"{P.name} / H{len(H)}")

    dim_in, dim_out = P.global_dim(), result.global_dim()
    gauss_in, gauss_out = P.gauss_sum(), result.gauss_sum()
    conservation = {
        "algebra_size": len(H),
        "global_dim_input": dim_in,
        "global_dim_result": dim_out,
        "global_dim_conserved": dim_out * (len(H) ** 2) == dim_in,
        "gauss_input": gauss_in,
        "gauss_result": gauss_out,
        "gauss_conserved": gauss_out * len(H) == gauss_in,
    }
    return CondensationResult(
        result=result, algebra=H, deconfined=deconfined, confined=confined,
        orbits=orbits, splittings=child_count, provenance=provenance,
        ambiguity_flags=ambiguity_flags, conservation=conservation)


def _orbit_fusion(P, H, orbits, of_orbit):
    """From the nonzero entries of P among deconfined labels: the forced
    coefficients of the quotient in orbit order, the triples left unknown, and
    the margins per orbit triple (X, Y, Z), i.e. N summed over the orbit of X
    (row), Y (column) or Z (output) with the other two at representatives.
    A confined label in the product of two deconfined ones is an input error."""
    pos = {o.representative: i for i, o in enumerate(orbits)}
    orbit_of = {m: o.representative for o in orbits for m in o.members}
    size = {o.representative: len(o.stabilizer) for o in orbits}
    weight: dict[str, Counter] = defaultdict(Counter)  # b -> {Y: #{h : h.Y = b}}
    for o in orbits:
        for h in H:
            weight[_act(P, h, o.representative)][o.representative] += 1
    row, col, out, total = Counter(), Counter(), Counter(), Counter()
    for (a, b, c), n in P.ring.N.items():
        ox, oy, oz = orbit_of.get(a), orbit_of.get(b), orbit_of.get(c)
        if a == ox and c == oz:  # total: the sum over h of N(X, h.Y, Z)
            for y, w in weight.get(b, {}).items():
                total[(ox, y, oz)] += w * n
        if None in (ox, oy, oz):
            if oz is None and None not in (ox, oy):
                raise ValidationInputError(
                    f"deconfined labels are not closed under fusion: {a} x {b} "
                    f"contains the confined label {c}")
            continue
        for margin, hit in ((row, b == oy and c == oz), (col, a == ox and c == oz),
                            (out, a == ox and b == oy)):
            if hit:
                margin[(ox, oy, oz)] += n
    n_result: dict[tuple[str, str, str], int] = {}
    for key in sorted(row.keys() | col.keys() | out.keys() | total.keys(),
                      key=lambda t: tuple(pos[x] for x in t)):
        cx, cy, cz = (size[x] for x in key)
        r_m, c_m, o_m = row[key], col[key], out[key]
        if cx * r_m != cy * c_m or cy * c_m != cz * o_m or cx * r_m != total[key]:
            raise InternalFault("inconsistent fusion margins at orbits ({},{},{})".format(*key))
        if (cx > 1) + (cy > 1) + (cz > 1) < 2:
            val = r_m if cx > 1 else c_m if cy > 1 else o_m if cz > 1 else total[key]
            n_result.update(dict.fromkeys(product(*(of_orbit[x] for x in key)), val))
    # every triple with two or more split slots is left to the enumeration
    unknown = [t for key in product(pos, repeat=3) if sum(size[x] > 1 for x in key) >= 2
               for t in product(*(of_orbit[x] for x in key))] if max(size.values()) > 1 else []
    return n_result, unknown, (row, col, out)


def _build_result(labels, n_dict, dims, twists, name):
    unit = labels[0]
    dual: dict[str, str] = {}
    for a in labels:
        partners = [b for b in labels if n_dict.get((a, b, unit), 0) == 1]
        if len(partners) != 1:
            raise InternalFault(f"result label {a!r} has no unique dual")
        dual[a] = partners[0]
    ring = FusionRing(labels, dual, dict(n_dict))
    return ring, Premodular(ring, dims, twists, name=name)


def _resolve_split_fusion(forced, unknown, labels, rep_of, dims, twists, orbit_margins):
    """Enumerate split fusion coefficients consistent with the margins, then
    filter by ring axioms, exact S-matrix consistency, and Verlinde when the
    candidate is nondegenerate."""
    margins: dict[tuple, int] = {}

    def margin_keys(triple):
        a, b, c = triple
        ox, oy, oz = rep_of[a], rep_of[b], rep_of[c]
        return (("r", a, oy, oz), ("c", b, ox, oz), ("o", c, ox, oy))

    for t in unknown:
        for key, m in zip(margin_keys(t), orbit_margins):
            margins.setdefault(key, m.get(tuple(rep_of[x] for x in t), 0))

    # commutativity ties (a,b,c) with (b,a,c); one variable per class
    var_of: dict[tuple, tuple] = {}
    variables: dict[tuple, list[tuple]] = {}
    for t in unknown:
        a, b, c = t
        canon = min(t, (b, a, c))
        var_of[t] = canon
        variables.setdefault(canon, [])
        if t not in variables[canon]:
            variables[canon].append(t)
    var_list = sorted(variables)

    solutions: list[dict[tuple, int]] = []
    budget = [_SEARCH_NODE_BUDGET]

    def dfs(idx: int, current: dict[tuple, int]):
        if budget[0] <= 0:
            raise InternalFault(
                f"splitting enumeration exhausted its search budget of "
                f"{_SEARCH_NODE_BUDGET:,} nodes over {len(var_list)} unknown variables")
        budget[0] -= 1
        if idx == len(var_list):
            if all(v == 0 for v in margins.values()):
                if len(solutions) >= _MAX_SURVIVORS:
                    raise InternalFault(
                        f"splitting enumeration: too many candidates, {len(solutions) + 1} "
                        f"reached against the cap of {_MAX_SURVIVORS}, over "
                        f"{len(var_list)} unknown variables")
                solutions.append(dict(current))
            return
        var = var_list[idx]
        concretes = variables[var]
        ub = min(min(margins[k] for k in margin_keys(t)) for t in concretes)
        for val in range(ub + 1):
            for t in concretes:
                for k in margin_keys(t):
                    margins[k] -= val
            if all(m >= 0 for m in margins.values()):
                if val:
                    current[var] = val
                dfs(idx + 1, current)
                current.pop(var, None)
            for t in concretes:
                for k in margin_keys(t):
                    margins[k] += val
        return

    try:
        dfs(0, {})
    except RecursionError:
        raise InternalFault(
            f"splitting enumeration over {len(var_list)} unknown variables needs a "
            f"deeper recursion than the limit {sys.getrecursionlimit()}") from None

    survivors = []
    for sol in solutions:
        n_dict = dict(forced)
        for t in unknown:
            v = sol.get(var_of[t], 0)
            if v:
                n_dict[t] = v
        if _candidate_ok(labels, n_dict, dims, twists):
            survivors.append(n_dict)
    return survivors


def _candidate_ok(labels, n_dict, dims, twists) -> bool:
    try:
        ring, cand = _build_result(labels, n_dict, dims, twists, name="candidate")
        if cand.validate():
            return False
    except (InternalFault, InputError):
        return False
    # Verlinde consistency whenever the candidate S-matrix is invertible
    if cand._smatrix_invertible():
        if cand.muger_center() != [cand.unit]:
            return False
        d2_inv = cand.global_dim().inverse()
        inv_d = {x: cand.dim(x).inverse() for x in labels}
        for i in labels:
            for j in labels:
                for k in labels:
                    acc = Cyclo.zero()
                    for l in labels:
                        acc = acc + (cand.s_entry(i, l) * cand.s_entry(j, l)
                                     * cand.s_entry(k, l).conjugate() * inv_d[l])
                    if acc * d2_inv != Cyclo.from_rational(ring.n(i, j, k)):
                        return False
    return True


def _dedupe_by_child_permutation(survivors, of_orbit, child_count):
    """Group surviving assignments up to relabeling children within orbits."""
    split_orbits = [rep for rep, c in child_count.items() if c > 1]
    perm_maps = [{}]
    for rep in split_orbits:
        labs = of_orbit[rep]
        new_maps = []
        for base in perm_maps:
            for perm in permutations(labs):
                m = dict(base)
                m.update(dict(zip(labs, perm)))
                new_maps.append(m)
        perm_maps = new_maps

    def apply_map(n_dict, m):
        out = {}
        for (a, b, c), v in n_dict.items():
            out[(m.get(a, a), m.get(b, b), m.get(c, c))] = v
        return out

    def canon(n_dict):
        return min(tuple(sorted(apply_map(n_dict, m).items())) for m in perm_maps)

    classes: dict[tuple, dict] = {}
    for sol in survivors:
        key = canon(sol)
        if key not in classes:
            classes[key] = dict(key)
    ordered = [classes[k] for k in sorted(classes)]
    return ordered


# -- the relative stacking over Rep(G) ---------------------------------------


def canonical_algebra(embC: SymmetryEmbedding, embD: SymmetryEmbedding) -> list[str]:
    """Simple components of the canonical algebra inside the Deligne product:
    the label pairs (map_C(-e), map_D(e))."""
    same_symmetry(embC, embD)
    return [pair_label(embC.map_neg(e), embD.mapping[e]) for e in embC.elements()]


def is_deconfined(C: Premodular, D: Premodular, embC: SymmetryEmbedding,
                  embD: SymmetryEmbedding, x: str, y: str) -> bool:
    """True iff the two symmetry braidings agree on (x, y): the monodromy of
    every symmetry charge around x in C equals its monodromy around y in D.
    Equivalently, (x, y) centralizes the canonical algebra in C x D, so this
    agrees with the deconfined labels of `relative_tensor_product`."""
    same_symmetry(embC, embD)
    return all(
        C.monodromy(embC.mapping[e], x) == D.monodromy(embD.mapping[e], y)
        for e in embC.elements())


def relative_tensor_product(C: Premodular, D: Premodular,
                            embC: SymmetryEmbedding, embD: SymmetryEmbedding,
                            ) -> tuple[CondensationResult, SymmetryEmbedding]:
    """Relative stacking of C and D over their shared symmetry: condense the
    canonical algebra in the Deligne product.  Returns the condensation data
    and the induced symmetry embedding into the result."""
    same_symmetry(embC, embD)
    for emb, cat in ((embC, C), (embD, D)):
        report = emb.validate(cat)
        if report:
            raise InputError(f"invalid embedding into {cat.name}: {report[0]}")
    prod = C.deligne(D)
    algebra = canonical_algebra(embC, embD)
    res = condense_by_invertible_bosons(prod, algebra)

    member_to_result: dict[str, str] = {}
    for lab, (rep, _) in res.provenance.items():
        orb = res.orbit_of(rep)
        if len(orb.stabilizer) == 1:
            for m in orb.members:
                member_to_result[m] = lab
    mapping = {}
    for e in embC.elements():
        left = pair_label(embC.mapping[e], D.unit)
        right = pair_label(C.unit, embD.mapping[e])
        if left not in member_to_result or right not in member_to_result:
            raise InternalFault("symmetry charge is confined in the product")
        if member_to_result[left] != member_to_result[right]:
            raise InternalFault(
                f"the two canonical images of {e} land in different orbits")
        mapping[e] = member_to_result[left]
    emb = SymmetryEmbedding(list(embC.group), res.result.name, mapping)
    report = emb.validate(res.result)
    if report:
        raise InternalFault(f"induced embedding is invalid: {report[0]}")
    return res, emb


def relative_centralizer(C: Premodular, embC: SymmetryEmbedding) -> Premodular:
    """Centralizer of the symmetry image, as a premodular subcategory."""
    report = embC.validate(C)
    if report:
        raise InputError(f"invalid embedding into {C.name}: {report[0]}")
    labels = C.centralizer(embC.image())
    return C.restrict(labels, name=f"cent_E({C.name})")


def verify_unit_law(C: Premodular, embC: SymmetryEmbedding) -> bool | None:
    """Check that stacking with the double of the symmetry group returns C.

    None means the condensation was ambiguous (inconclusive verdict).
    """
    Z, embZ = drinfeld_double(embC.group)
    res, emb_ind = relative_tensor_product(Z, C, embZ, embC)
    if res.ambiguity_flags:
        return None
    return find_equivalence(res.result, C, emb_ind, embC) is not None


def verify_stacking_identity(C: Premodular, D: Premodular,
                             embC: SymmetryEmbedding, embD: SymmetryEmbedding,
                             ) -> bool | None:
    """Check (cent_E C) x_E (cent_E D) = cent_E (C stack_E D) as categories
    with symmetry.  None means some condensation was ambiguous."""
    Cp = relative_centralizer(C, embC)
    Dp = relative_centralizer(D, embD)
    embCp = embC.restrict_to(Cp)
    embDp = embD.restrict_to(Dp)
    if not embCp.is_central(Cp) or not embDp.is_central(Dp):
        raise InternalFault("symmetry image is not central in its own centralizer")
    lhs, lhs_emb = relative_tensor_product(Cp, Dp, embCp, embDp)
    if lhs.confined:
        raise InternalFault(
            "stacking with a central symmetry must leave every label deconfined")
    rhs, rhs_emb = relative_tensor_product(C, D, embC, embD)
    Rp = relative_centralizer(rhs.result, rhs_emb)
    rhs_emb_p = rhs_emb.restrict_to(Rp)
    if lhs.ambiguity_flags or rhs.ambiguity_flags:
        return None
    return find_equivalence(lhs.result, Rp, lhs_emb, rhs_emb_p) is not None
