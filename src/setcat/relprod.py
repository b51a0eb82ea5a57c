"""Condensation engine: condense a transparent group of invertible bosons
inside one premodular category, and on top of it the relative stacking of two
categories sharing a symmetry Rep(G) (deconfinement of the canonical algebra
in the Deligne product), with verifiers for the unit-law, stacking, and
centralizer identities."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import groupby, permutations, product

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


def _boson_group(P: Premodular, bosons: list[str]) -> list[str]:
    """The boson labels in label order, checked to form a transparent group of
    invertible bosons."""
    for h in bosons:
        if h not in P.ring.index:
            raise InputError(f"unknown boson label {h!r}")
    H = sorted(set(bosons), key=P.ring.index.__getitem__)
    if P.unit not in H:
        raise InputError("the boson group must contain the unit")
    for h in H:
        if not P.is_invertible(h):
            raise InputError(f"boson {h!r} is not invertible (pair: ({h},{h}))")
        if P.twist(h) != 0:
            raise InputError(f"label {h!r} has a nontrivial twist (pair: ({h},{h}))")
    for a, b in product(H, H):
        fused = P.ring.fuse(a, b)
        if len(fused) != 1 or set(fused.values()) != {1}:
            raise InputError(f"bosons do not fuse to single simples (pair: ({a},{b}))")
        if next(iter(fused)) not in H:
            raise InputError(f"boson set is not closed under fusion (pair: ({a},{b}))")
    for a, b in product(H, H):
        if not P.centralizes(a, b):
            raise InputError(f"bosons are not pairwise transparent (pair: ({a},{b}))")
    return H


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
    split fusion coefficients found by `_resolve_split_fusion`."""
    H = _boson_group(P, bosons)
    deconfined = [x for x in P.labels if all(P.centralizes(x, h) for h in H)]
    confined = [x for x in P.labels if x not in set(deconfined)]

    # For valid P, H acts on the deconfined labels (x is deconfined iff the
    # twist is constant on H.x*), with |orbit| * |stabilizer| = |H|, one dim
    # and one twist per orbit, and the unit's orbit first.
    orbits: list[Orbit] = []
    placed: set[str] = set()
    for x in (x for x in deconfined if x not in placed):
        members = sorted({_act(P, h, x) for h in H}, key=P.ring.index.__getitem__)
        placed.update(members)
        orbits.append(Orbit(members[0], members, [h for h in H if _act(P, h, x) == x]))
    orbits.sort(key=lambda o: P.ring.index[o.representative])

    # result skeleton
    child_count = {o.representative: len(o.stabilizer) for o in orbits}
    of_orbit = {r: [r] if s == 1 else [f"{r}#{k}" for k in range(s)]
                for r, s in child_count.items()}
    provenance = {lab: (r, k) for r, labs in of_orbit.items() for k, lab in enumerate(labs)}
    result_labels, rep_of = list(provenance), {lab: r for lab, (r, _) in provenance.items()}
    dims = {lab: P.dim(r) if child_count[r] == 1 else P.dim(r) / child_count[r]
            for lab, r in rep_of.items()}
    twists = {lab: P.twist(r) for lab, r in rep_of.items()}
    n_result, unknown, margins = _orbit_fusion(P, H, orbits, of_orbit)

    ambiguity_flags: list[str] = []
    if unknown:
        classes = _resolve_split_fusion(
            n_result, unknown, result_labels, rep_of, dims, twists, margins)
        if not classes:
            raise ValidationInputError(
                f"{P.name}: no fusion assignment of the split orbit(s) "
                f"{', '.join(r for r, s in child_count.items() if s > 1)} is consistent; "
                f"the data is not a braided category")
        if len(classes) > 1:
            ambiguity_flags = [f"{len(classes)} fusion assignments survive all constraints"] + [
                f"undetermined coefficient N[{a},{b}]^{c}" for (a, b, c) in sorted(
                    {t for cls in classes for t in cls if any(c2.get(t, 0) != cls[t]
                                                              for c2 in classes)})]
        n_result = classes[0]

    # valid without a check: a split result is a candidate that passed
    # _candidate_ok; a forced one, all orbits free, is the orbit quotient of
    # the fusion-closed deconfined labels of a valid P
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
    row, col, out, total = {}, {}, {}, {}
    for (a, b), entries in P.ring.rows():  # no margin reads a row with a confined input
        ox, oy = orbit_of.get(a), orbit_of.get(b)
        if ox is None or oy is None:
            continue
        for c, n in entries.items():
            oz = orbit_of.get(c)
            if oz is None:
                raise ValidationInputError(
                    f"deconfined labels are not closed under fusion: {a} x {b} "
                    f"contains the confined label {c}")
            key = (ox, oy, oz)
            if a == ox and c == oz:  # total: the sum over h of N(X, h.Y, Z)
                col[key] = col.get(key, 0) + n
                for y, w in weight[b].items():
                    total[(ox, y, oz)] = total.get((ox, y, oz), 0) + w * n
            if b == oy and c == oz:
                row[key] = row.get(key, 0) + n
            if a == ox and b == oy:
                out[key] = out.get(key, 0) + n
    n_result: dict[tuple[str, str, str], int] = {}
    for key in sorted(row.keys() | col.keys() | out.keys() | total.keys(),
                      key=lambda t: (pos[t[0]], pos[t[1]], pos[t[2]])):
        x, y, z = key
        cx, cy, cz = size[x], size[y], size[z]
        r_m, c_m, o_m, t_m = row.get(key, 0), col.get(key, 0), out.get(key, 0), total.get(key, 0)
        if cx * r_m != cy * c_m or cy * c_m != cz * o_m or cx * r_m != t_m:
            raise InternalFault("inconsistent fusion margins at orbits ({},{},{})".format(*key))
        if (cx > 1) + (cy > 1) + (cz > 1) < 2:
            val = r_m if cx > 1 else c_m if cy > 1 else o_m if cz > 1 else t_m
            n_result.update(dict.fromkeys(product(of_orbit[x], of_orbit[y], of_orbit[z]), val))
    # every triple with two or more split slots is left to the enumeration
    unknown = [t for key in product(pos, repeat=3) if sum(size[x] > 1 for x in key) >= 2
               for t in product(*(of_orbit[x] for x in key))] if max(size.values()) > 1 else []
    return n_result, unknown, (row, col, out)


def _build_result(labels, n_dict, dims, twists, name):
    # N_ab^1 = [b = a*] holds by the split search for children, by P's validity for the rest
    ring = FusionRing(labels, {a: b for (a, b, c) in n_dict if c == labels[0]}, dict(n_dict))
    return ring, Premodular(ring, dims, twists, name=name)


def _resolve_split_fusion(forced, unknown, labels, rep_of, dims, twists, orbit_margins):
    """The assignments of the unknown coefficients that pass `_candidate_ok`,
    one per class up to relabelling children within orbits (its least member
    in sorted-items order, as a dict in that order), sorted.

    Depth-first search on an explicit stack, one commutativity class of live
    unknowns (all three margins nonzero; the rest are 0) per level in sorted
    order, the N_xy^1 that fix the dual involution of the children first.  A
    value spreads over N_ab^c = N_(a*)c^b = N_(b*)(a*)^(c*).  Each margin, and
    each row whose open entries share one dim, is a group of fixed sum.
    Checked once decided: the group sums, the other rows' dimension equation,
    associativity once the rows it reads are complete, and the lex-leader
    condition V <= V o g for each relabelling g (Crawford et al., KR 1996) in
    search order and the value order 1 < 2 < ... < 0, each comparison waiting
    for the level of the later position it reads: one dual involution per
    class outlives the level that decides it, and one survivor, the class's
    least member in search order, outlives the search.  Each survivor is then
    relabelled to its least member in live (sorted-items) order."""
    unit, gid, rem, grp = labels[0], {}, [], {}  # sum groups: the sum each still needs
    for t in unknown:
        o = tuple(rep_of[x] for x in t)
        keys = (("r", t[0], o[1], o[2]), ("c", t[1], o[0], o[2]), ("o", t[2], o[0], o[1]))
        for key, m in zip(keys, orbit_margins):
            if key not in gid:
                gid[key] = len(rem)
                rem.append(m.get(o, 0))
        grp[t] = [gid[k] for k in keys]
    live = sorted(t for t in unknown if all(rem[g] for g in grp[t]))
    at, grp, n = {t: p for p, t in enumerate(live)}, [grp[t] for t in live], len(live)
    rows, fixed, checks = defaultdict(list), defaultdict(dict), []  # checks: [what, rows]
    for p, t in enumerate(live):
        rows[t[:2]].append(p)
    for (a, b, c), v in forced.items():
        fixed[(a, b)][c] = v
    rid, V = {r: i for i, r in enumerate(rows)}, [None] * n

    def row(a, b):  # N_ab^c by c, open entries as None
        return {**fixed[(a, b)], **{live[p][2]: V[p] for p in rows[(a, b)]}}

    for (a, b), ps in rows.items():
        ds = {dims[live[p][2]] for p in ps}
        if len(ds) > 1:  # mixed dims: the row's dimension equation waits for the row
            checks.append([(a, b), (rid[(a, b)],)])
            continue
        k = (dims[a] * dims[b] - sum((dims[c] * v for c, v in fixed[(a, b)].items()),
                                     Cyclo.zero())) / ds.pop()
        rem.append(int(k.as_fraction()) if k.is_rational() and
                   k.as_fraction().denominator == 1 else -1)
        for p in ps:
            grp[p].append(len(rem) - 1)
    for i, x in enumerate(labels[1:], 1):  # (x y) z = x (y z), x <= z, waits for its rows
        for z, y in product(labels[i:], labels[1:]):
            reads = {(x, y), (y, z), *((m, z) for m in row(x, y)), *((x, m) for m in row(y, z))}
            checks.append([(x, y, z), tuple({rid[r] for r in reads if r in rid})])
    watch, wait = defaultdict(list), [len(rs) for _, rs in checks]
    for i, (_, rs) in enumerate(checks):
        for r in rs:
            watch[r].append(i)
    row_of = [rid[t[:2]] for t in live]  # then the open entries per sum group and per row
    left = list(map(Counter(g for gs in grp for g in gs).__getitem__, range(len(rem))))
    row_left = list(map(Counter(row_of).__getitem__, range(len(rows))))
    classes = sorted({tuple(sorted({at[t], at.get((t[1], t[0], t[2]), at[t])}))
                      for t in live if unit not in t[:2]},
                     key=lambda cl: (live[cl[0]][2] != unit, cl))
    n_dual, nv = sum(live[cl[0]][2] == unit for cl in classes), len(classes)
    level = {p: v for v, cl in enumerate(classes) for p in cl}
    order = [p for cl in classes for p in cl]  # search order; the unit rows are invariant
    split = [ch for ch in (list(g) for _, g in groupby(labels, rep_of.get)) if len(ch) > 1]
    maps = [m for m in (dict(zip(sum(split, []), sum(pm, ())))
                        for pm in product(*map(permutations, split))) if m != dict(zip(m, m))]
    images = [[] for _ in maps]  # s -> the position of order[s] relabelled by maps[g]
    dual, trail, ready = {a: b for (a, b, c) in forced if c == unit}, [], []

    def move(p, val, s):  # s = 1 sets V[p] to val, s = -1 clears it
        V[p] = val if s > 0 else None
        for g in grp[p]:
            rem[g] -= s * val
            left[g] -= s
        row_left[row_of[p]] -= s
        for i in watch[row_of[p]] if row_left[row_of[p]] == (s < 0) else ():
            wait[i] -= s
            if not wait[i]:
                ready.append(i)

    def put(p, val):
        if V[p] is None:
            move(p, val, 1)
            trail.append(p)
            return all(rem[g] >= 0 and (left[g] or not rem[g]) for g in grp[p])
        return V[p] == val

    def spread(ps, val, full):  # then run the checks that became decidable
        ok = True
        for a, b, c in (live[p] for p in ps):
            for t in ({(x, y, dual[z]) for s in ((a, b, dual[c]), (dual[a], dual[b], c))
                       for x, y, z in permutations(s)} if full else {(a, b, c), (b, a, c)}):
                ok = (put(at[t], val) if t in at else val == 0) and ok
        for what in (checks[i][0] for i in ready if ok):
            if len(what) == 2:
                ok = sum((dims[c] * v for c, v in row(*what).items()),
                         Cyclo.zero()) == dims[what[0]] * dims[what[1]]
                continue
            x, y, z = what  # (x y) z and x (y z), the latter as (y z) x
            lhs, rhs = Counter(), Counter()
            for (a, b, c), side in (((x, y, z), lhs), ((y, z, x), rhs)):
                for m, v in row(a, b).items():
                    for w, k in row(m, c).items():
                        side[w] += v * k
            ok = +lhs == +rhs
        ready.clear()
        return ok

    agenda = defaultdict(list)  # level -> comparisons (g, s) of V and V o g resumed there

    def image(g, p):  # the position of live[p] relabelled by maps[g]
        (a, b, c), m = live[p], maps[g]
        return at[m.get(a, a), m.get(b, b), m.get(c, c)]

    def lex(items, log):  # V <= V o g on order[s:], in the value order 1 < 2 < ... < 0
        for g, s in items:
            img = images[g]
            for s in range(s, len(order)):
                p = order[s]
                if s == len(img):  # a walk reaches order[s] only after order[:s]
                    img.append(image(g, p))
                x, y = V[p], V[img[s]]
                if x == y is not None:
                    continue
                if None in (x, y):
                    log.append(max(level[p], level[img[s]]))
                    agenda[log[-1]].append((g, s))
                elif (y == 0, y) < (x == 0, x):
                    return False
                break
        return True

    def least(W):  # the least W o g in live order, as a dict in items order
        best = W
        for g in range(len(maps)):
            x, y = next(((v, W[image(g, p)]) for p, v in enumerate(best)
                         if v != W[image(g, p)]), (0, 0))
            best = [W[image(g, p)] for p in range(n)] if (y == 0, y) < (x == 0, x) else best
        return dict(sorted({**forced, **{t: v for t, v in zip(live, best) if v}}.items()))

    # the unit rows: N_1x^y = N_x1^y = [x = y]
    ok = all(put(p, int(b == c if a == unit else a == c))
             for p, (a, b, c) in enumerate(live) if unit in (a, b))
    stack = [[0, None, [], len(trail)]] if ok and spread([], 0, False) and lex(
        [(g, 0) for g in range(len(maps))], []) else []
    survivors, nodes = [], 0
    while stack:  # frames: level, values left to try, lex-log, trail length
        v, vals, log, mark = frame = stack[-1]
        while len(trail) > mark:
            p = trail.pop()
            move(p, V[p], -1)
        while log:
            agenda[log.pop()].pop()
        if vals is None:
            frame[1] = vals = list(range(min(rem[g] for p in classes[v] for g in grp[p]) + 1))
        if not vals:
            stack.pop()
            continue
        nodes += 1
        if nodes > _SEARCH_NODE_BUDGET:
            raise InternalFault(f"splitting enumeration exhausted its search budget of "
                                f"{_SEARCH_NODE_BUDGET:,} nodes over {nv} unknown variables")
        if not spread(classes[v], vals.pop(), v >= n_dual):
            continue
        nxt = next((w for w in range(v + 1, nv) if V[classes[w][0]] is None), nv)
        if not all(lex(agenda[w], log) for w in range(v, nxt)):
            continue
        if v < n_dual <= nxt:  # the dual involution is decided
            dual.update(live[p][:2] for cl in classes[:n_dual] for p in cl if V[p])
        if nxt < nv:
            stack.append([nxt, None, [], len(trail)])
        elif len(survivors) < _MAX_SURVIVORS:
            survivors.append(V[:])
        else:
            raise InternalFault(
                f"splitting enumeration: too many candidates, {len(survivors) + 1} reached "
                f"against the cap of {_MAX_SURVIVORS}, over {nv} unknown variables")
    return sorted((d for d in map(least, survivors) if _candidate_ok(labels, d, dims, twists)),
                  key=lambda d: tuple(d.items()))


def _candidate_ok(labels, n_dict, dims, twists) -> bool:
    ring, cand = _build_result(labels, n_dict, dims, twists, name="candidate")
    if cand.validate():
        return False
    # S conj(S)^T = D^2 Id decides invertibility; given it, Verlinde's formula
    # is the character identity S_il S_jl = d_l sum_k N_ij^k S_kl
    S = cand.s_entry
    return not cand._smatrix_invertible() or cand.muger_center() == [cand.unit] and all(
        S(i, l) * S(j, l) == dims[l] * sum((S(k, l) * m for k, m in ring.fuse(i, j).items()),
                                           Cyclo.zero())
        for a, i in enumerate(labels) for j in labels[a:] for l in labels)


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

    member_to_result = {m: lab for lab, (rep, _) in res.provenance.items()
                        if res.splittings[rep] == 1 for m in res.orbit_of(rep).members}
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
