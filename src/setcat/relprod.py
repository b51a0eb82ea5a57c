"""Condensation engine: condense a transparent group of invertible bosons
inside one premodular category, and on top of it the relative stacking of two
categories sharing a symmetry Rep(G) (deconfinement of the canonical algebra
in the Deligne product), with verifiers for the unit-law, stacking, and
centralizer identities."""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import (accumulate, chain, compress, count, groupby, permutations, product,
                       repeat)
from math import factorial, prod

from .cyclo import Cyclo
from .double import drinfeld_double
from .embedding import SymmetryEmbedding, same_symmetry
from .equiv import find_equivalence
from .errors import InputError, LimitExceeded, ValidationInputError
from .fusion import _with_rows, closure_error, pair_label
from .premodular import Premodular, linear_rules

_SEARCH_NODE_BUDGET = 200_000
_MAX_SURVIVORS = 64
_MAX_RELABELLINGS = 100_000  # relabellings of the split children the lex-leader walks


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
    conservation: dict[str, object]


def _boson_group(P: Premodular, bosons: list[str]) -> list[str]:
    """The boson labels in label order, checked to form a group of invertible
    bosons.  On a valid ring a product of invertibles is one simple, and the
    group is transparent: theta_(a* b) = 1 = theta_a theta_b (`centralizes`)."""
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
        if _act(P, a, b) not in H:
            raise InputError(f"boson set is not closed under fusion (pair: ({a},{b}))")
    return H


def _act(P: Premodular, h: str, x: str) -> str:
    """h x x for an invertible h: one simple in a valid ring."""
    [y] = P.ring.fuse(h, x)
    return y


def condense_by_invertible_bosons(P: Premodular, bosons: list[str]) -> CondensationResult:
    """Condense a transparent group H of invertible bosons in P.

    Deconfined labels are those transparent to H; H acts on them by fusion.
    Free orbits hand their data straight to the quotient; orbits with a
    stabilizer of size s split into s simples of dimension d/s, with the
    split fusion coefficients found by `_resolve_split_fusion`."""
    H = _boson_group(P, bosons)
    confined = [x for x in P.labels if not all(P.centralizes(x, h) for h in H)]
    central = 1 + sum(all(P.centralizes(h, x) for x in P.labels) for h in H[1:])
    return _condense(P, H, confined, P.global_dim(), P.gauss_sum(), central)


def _condense(P: Premodular, H: list[str], confined: list[str], dim_in: Cyclo,
              gauss_in: Cyclo, central: int) -> CondensationResult:
    """Condense H in P, given the confined labels, the input's global
    dimension and Gauss sum, and |H meet Z2(input)|, the number of bosons
    transparent in the whole input; P may leave out confined labels."""
    out = set(confined)
    deconfined = [x for x in P.labels if x not in out]

    # For valid P, H acts on the deconfined labels (x is deconfined iff the
    # twist is constant on H.x*), with |orbit| * |stabilizer| = |H|, one dim
    # and one twist per orbit, and the unit's orbit first.
    orbits: list[Orbit] = []
    rep: dict[str, str] = {}  # deconfined label -> its orbit's representative
    for x in (x for x in deconfined if x not in rep):
        images = [_act(P, h, x) for h in H]
        members = sorted(set(images), key=P.ring.index.__getitem__)
        rep.update(dict.fromkeys(members, members[0]))
        orbits.append(Orbit(members[0], members, [h for h, y in zip(H, images) if y == x]))
    orbits.sort(key=lambda o: P.ring.index[o.representative])

    # result skeleton
    child_count = {o.representative: len(o.stabilizer) for o in orbits}
    for r, s in child_count.items():  # s children of dim d/s need d >= s
        if s > 1 and (P.dim(r) - s).sign() < 0:
            raise InputError(
                f"{P.name}: split orbit(s) {r}: dim {P.dim(r)} is below the stabilizer's order "
                f"{s}, so {s} children would have dims below 1: either the data is not a "
                f"braided category, or the stabilizer carries a nontrivial 2-cocycle; "
                f"unsupported input")
    of_orbit = {r: [r] if s == 1 else [f"{r}#{k}" for k in range(s)]
                for r, s in child_count.items()}
    provenance = {lab: (r, k) for r, labs in of_orbit.items() for k, lab in enumerate(labs)}
    result_labels, rep_of = list(provenance), {lab: r for lab, (r, _) in provenance.items()}
    dims = {lab: P.dim(r) if child_count[r] == 1 else P.dim(r) / child_count[r]
            for lab, r in rep_of.items()}
    twists = {lab: P.twist(r) for lab, r in rep_of.items()}
    forced, unknown, margins = _orbit_fusion(P, rep, of_orbit)

    ambiguity_flags, name = [], f"{P.name} / H{len(H)}"
    if unknown:
        classes = _resolve_split_fusion(forced, unknown, result_labels, rep_of, dims, twists,
                                        margins)
        if not classes:
            raise ValidationInputError(
                f"{P.name}: no fusion assignment of the split orbit(s) "
                f"{', '.join(r for r, s in child_count.items() if s > 1)} is consistent: "
                f"either the data is not a braided category, or a stabilizer carries a "
                f"nontrivial 2-cocycle, which the engine does not support")
        if len(classes) > 1:
            rings = [cls.ring for cls in classes]
            ambiguity_flags = [f"{len(classes)} fusion assignments survive all constraints"] + [
                f"undetermined coefficient N[{a},{b}]^{c}" for (a, b, c) in sorted(
                    {(a, b, c) for ring in rings for (a, b), row in ring.rows() for c in row
                     if len({r.n(a, b, c) for r in rings}) > 1})]
        result = classes[0]  # the candidate that passed _candidate_ok
        result.name = name
    else:  # every orbit is free: the forced rows are the quotient's, X* the orbit of x*
        dual = {r: rep[P.dual(r)] for r in result_labels}
        result = Premodular(_with_rows(result_labels, dual, forced), dims, twists, name=name)

    dim_out, gauss_out = result.global_dim(), result.gauss_sum()
    conservation = {
        "algebra_size": len(H),
        "global_dim_input": dim_in,
        "global_dim_result": dim_out,
        "global_dim_conserved": dim_out * len(H) ** 2 == dim_in * central,  # README
        "gauss_input": gauss_in,
        "gauss_result": gauss_out,
        "gauss_conserved": gauss_out * len(H) == gauss_in,
    }
    return CondensationResult(
        result=result, algebra=H, deconfined=deconfined, confined=confined,
        orbits=orbits, splittings=child_count, provenance=provenance,
        ambiguity_flags=ambiguity_flags, conservation=conservation)


def _orbit_fusion(P, rep, of_orbit):
    """The quotient's forced rows {(a, b): {c: N_ab^c}} in orbit order, the
    triples left unknown, and the margins of the orbit triples (X, Y, Z) with
    two or more split slots: N summed over the orbit of X (row), Y (column) or
    Z (output) with the other two at representatives.  `rep` maps each
    deconfined label to its orbit's representative, `of_orbit` each
    representative to its result labels, in orbit order.

    Only the representative rows (x, y) are read, each output summed by its
    orbit: that sum o is the output margin, and for valid P, with |stabilizer|
    c_X, the others follow from c_X row = c_Y column = c_Z o, as N_(hx)y^z =
    N_xy^(h* z) = N_x(hy)^z.  A triple with no split slot has the coefficient
    o (Kirillov-Ostrik, Adv. Math. 171, 2002), one with one split slot that
    slot's margin at every child; one with two or more is unknown if o > 0
    (the rest are 0).  A confined label in the product of two deconfined ones
    is an input error, named at its first entry in P's row order."""
    if len(rep) < P.ring.rank():  # walk every row between deconfined labels
        for (a, b), entries in P.ring.rows():
            if a in rep and b in rep and not entries.keys() <= rep.keys():
                raise closure_error(a, b, next(c for c in entries if c not in rep))
    pos = {r: i for i, r in enumerate(of_orbit)}
    size = {r: len(labs) for r, labs in of_orbit.items()}
    fuse, free = P.ring.fuse, max(size.values()) == 1
    forced, unknown, margins = {}, [], ({}, {}, {})
    for x in pos:
        cx = size[x]
        for y in pos:
            entries = fuse(x, y)
            if len(entries) == 1:  # N_xy^c alone: the quotient may keep P's row
                (c, o), = entries.items()
                summed = entries if rep[c] == c else {rep[c]: o}
            else:
                by_orbit = Counter()
                for c, n in entries.items():
                    by_orbit[rep[c]] += n
                summed = {z: by_orbit[z] for z in sorted(by_orbit, key=pos.__getitem__)}
            if free:
                forced[x, y] = summed
                continue
            cy = size[y]
            for z, o in summed.items():
                cz = size[z]
                if cx == cy == cz == 1:
                    forced.setdefault((x, y), {})[z] = o
                elif (cx > 1) + (cy > 1) + (cz > 1) < 2:  # one split slot: its margin
                    val = o // cx if cx > 1 else o // cy if cy > 1 else o
                    for ab in product(of_orbit[x], of_orbit[y]):
                        forced.setdefault(ab, {}).update(dict.fromkeys(of_orbit[z], val))
                else:
                    for m, v in zip(margins, (cz * o // cx, cz * o // cy, o)):
                        m[x, y, z] = v
                    unknown += product(of_orbit[x], of_orbit[y], of_orbit[z])
    return forced, unknown, margins


def _resolve_split_fusion(forced, unknown, labels, rep_of, dims, twists, orbit_margins):
    """The categories of the assignments of the unknown coefficients that
    pass `_candidate_ok`, one per class up to relabelling children within
    orbits, each at its least member in live (sorted-triple) order and the
    value order 1 < 2 < ... < 0, sorted in that order.  `forced` holds the
    forced rows {(a, b): {c: N_ab^c}}.

    Depth-first search on an explicit stack, one commutativity class of live
    unknowns (all three margins nonzero; the rest are 0) per level.  A block
    is a self-dual split orbit or a pair of mutually dual ones, and blocks
    rank by their sorted orbit indices.  Block b's segment of levels holds
    its dual levels, the N_xy^1 that fix its children's dual involution, then
    every other class whose row (its inputs and open outputs) touches block
    b last, each part in sorted order; the segments follow block rank.  A
    value spreads over N_ab^c = N_(a*)c^b = N_(b*)(a*)^(c*).  Each margin,
    and each row whose open entries share one dim, is a group of fixed sum.
    Checked once decided, on rows kept in place: the group sums, the other
    rows' dimension equation, associativity and the rule S(i*, j) =
    conj S(i, j) (`linear_rules`) once the rows they read are complete.
    Symmetry breaking: each block's involution is drawn from its classes
    under relabelling, each as its least member in search order and the
    value order 1 < 0 (`_dual_classes`).  The lex-leader condition
    V <= V o g (Crawford et al., KR 1996) is checked only for the
    relabellings that fix the drawn involutions, their centralizer (Puget,
    CP 2003): when block b's involution is drawn, for each g that fixes the
    involutions so far, moves block b and fixes every later block.  Each
    comparison runs in the value order 1 < 2 < ... < 0 over the positions g
    moves, which leaves out the dual levels it fixes, from the first not
    known to agree (Frisch et al., CP 2002), waiting for the level of the
    later position it reads.  One survivor per class outlives the search,
    its least member in search order.  Take any g whose first component
    outside the centralizer is at block j, and g'' the centralizer element
    that is g cut to the blocks below j: a segment before block j's touches
    only those blocks, so V o g agrees there with V o g'', and V <= V o g''.
    If V and V o g'' differ there, the first difference gives V < V o g.
    Otherwise V o g agrees with V up to block j's dual levels, where it
    draws another member of the class of the involution drawn there, which
    is that class's least member: V < V o g again.  Each survivor is
    relabelled to its least member in live order before the check, so the
    category checked is the one returned."""
    split = [ch for ch in (list(g) for _, g in groupby(labels, rep_of.get)) if len(ch) > 1]
    if (n_maps := prod(map(factorial, map(len, split)))) > _MAX_RELABELLINGS:
        raise LimitExceeded(f"splitting enumeration: relabelling the split children gives "
                            f"{n_maps:,} relabellings, above the limit of {_MAX_RELABELLINGS:,}")
    unit, gid, rem, grp = labels[0], {}, [], {}  # sum groups: the sum each still needs
    for t in unknown:
        o = tuple(rep_of[x] for x in t)
        keys = (("r", t[0], o[1], o[2]), ("c", t[1], o[0], o[2]), ("o", t[2], o[0], o[1]))
        for key, m in zip(keys, orbit_margins):
            if key not in gid:
                gid[key] = len(rem)
                rem.append(m[o])
        grp[t] = [gid[k] for k in keys]
    live = sorted(t for t in unknown if all(rem[g] for g in grp[t]))
    at, grp, n = {t: p for p, t in enumerate(live)}, [grp[t] for t in live], len(live)
    rows, checks = defaultdict(list), []  # checks: [what, rows]
    row = defaultdict(dict, {ab: dict(r) for ab, r in forced.items()})
    for p, (a, b, c) in enumerate(live):  # row[(a, b)]: N_ab^c by c, open entries as None
        rows[(a, b)].append(p)
        row[(a, b)][c] = None
    # and packed[b][a]: row (a, b) as one integer, N_ab^c in the bits from shift[c] on,
    # wide enough that no sum an associativity check forms carries into the next
    top = max(1, *(v for r in forced.values() for v in r.values()), *rem)  # bounds every N
    width = (len(labels) * top ** 2).bit_length()
    shift = {c: width * i for i, c in enumerate(labels)}
    packed = {b: dict.fromkeys(labels, 0) for b in labels}
    for (a, b), r in forced.items():
        packed[b][a] = sum(v << shift[c] for c, v in r.items())
    rid, V = {r: i for i, r in enumerate(rows)}, [None] * n
    cell = [(row[(a, b)], c, packed[b], a, shift[c]) for a, b, c in live]
    dim_rule, s_rule = linear_rules(dims, twists, top)
    sums = {}  # the open entries' sum (None: mixed dims) by the orbits of the row's inputs,
    for (a, b), ps in rows.items():  # which fix its forced entries and open outputs
        if (key := (rep_of[a], rep_of[b])) not in sums:
            c, sums[key] = live[ps[0]][2], None
            if len({dims[live[p][2]] for p in ps}) == 1:  # d_a d_b = forced + k d_c, and
                sums[key] = next((k for k in range(len(ps) * top + 1)  # each entry <= top
                                  if dim_rule(a, b, {**row[(a, b)], c: k})), -1)
        if sums[key] is None:  # mixed dims: the row's dimension equation waits for the row
            checks.append([(a, b), (rid[(a, b)],)])
            continue
        rem.append(sums[key])
        for p in ps:
            grp[p].append(len(rem) - 1)
    # (x y) z = x (y z), x <= z, waits for its rows; on forced rows alone it holds for P, so
    # only the triples that read an open row: (x, y), (y, z), (m, z) for m in x y, or (x, m)
    # for m in y z
    opened, into = {x: {} for x in labels}, {x: [] for x in labels}
    for (a, b), k in rid.items():  # a -> b -> the index of the open row (a, b)
        opened[a][b] = k
    for ab, r in row.items():  # m -> the rows with an entry at m
        for m in r:
            into[m].append(ab)
    for i, x in enumerate(labels[1:], 1):
        ox, by_y = opened[x], {y: set() for y in labels}  # y -> the z with (x, m) open, m in y z
        for y, z in chain.from_iterable(map(into.__getitem__, ox)):
            by_y[y].add(z)
        after = {z: [] for z in labels[i:]}  # z -> (y, the open rows (x, y, z) reads), y in order
        for y in labels[1:]:
            reads = [opened[y], *map(opened.__getitem__, row.get((x, y), ()))]  # (y, z), (m, z)
            for z in after if y in ox else by_y[y].union(*reads):
                if z in after:
                    rs = {r[z] for r in reads if z in r}
                    rs.update(ox[m] for m in row.get((y, z), ()) if m in ox)
                    if y in ox:
                        rs.add(ox[y])
                    after[z].append((y, rs))
        checks += ([(x, y, z), rs] for z, found in after.items() for y, rs in found)
    # S(i*, j) = conj S(i, j) for j >= i, one check per i2 that may be i*: it waits for the
    # rows (i, j), (i2, j) and (i, i2) and is vacuous unless N_(i i2)^1 = 1
    s_checks = len(checks)
    for a, i in enumerate(labels):
        duals = [y for y in labels if unit in row.get((i, y), ())]
        for j, i2 in product(labels[a:], duals):
            reads = ((i, j), (i2, j), (i, i2))
            checks.append([(i, i2, j), tuple({rid[r] for r in reads if r in rid})])
    watch, wait = defaultdict(list), [len(rs) for _, rs in checks]
    for i, (_, rs) in enumerate(checks):
        for r in rs:
            watch[r].append(i)
    row_of = [rid[t[:2]] for t in live]  # then the open entries per sum group and per row
    left = list(map(Counter(g for gs in grp for g in gs).__getitem__, range(len(rem))))
    row_left = list(map(Counter(row_of).__getitem__, range(len(rows))))
    classes = sorted({tuple(sorted({at[t], at.get((t[1], t[0], t[2]), at[t])}))
                      for t in live if unit not in t[:2]})
    at_split, dual_levels = {x: i for i, ch in enumerate(split) for x in ch}, defaultdict(list)
    for cl in classes:  # (i, j) -> the dual levels pairing split[i] with split[j]
        if live[cl[0]][2] == unit:
            dual_levels[tuple(sorted(at_split[x] for x in live[cl[0]][:2]))].append(cl)
    keys = sorted(dual_levels)  # the blocks, ranked
    block_of = dict.fromkeys(labels, 0)
    block_of.update((x, b) for b, key in enumerate(keys) for i in key for x in split[i])
    segments = [list(dual_levels[key]) for key in keys]  # block b's dual levels, then each class
    for cl in classes:  # whose row (its inputs and open outputs) touches block b last
        x, y, c = live[cl[0]]
        if c != unit:
            touched = chain((x, y), (live[p][2] for p in rows[x, y]))
            segments[max(map(block_of.__getitem__, touched))].append(cl)
    classes = sum(segments, [])
    nv = len(classes)
    level = {p: v for v, cl in enumerate(classes) for p in cl}
    start = list(accumulate(map(len, classes), initial=0))  # level -> its first index in order
    order = [p for cl in classes for p in cl]  # search order; the unit rows are invariant
    maps = [m for m in (dict(zip(sum(split, []), sum(pm, ())))
                        for pm in product(*map(permutations, split))) if m != dict(zip(m, m))]
    blocks = []  # per block its dual levels, and per class its least member's values there
    for key in keys:
        ps = [cl[0] for cl in dual_levels[key]]
        blocks.append((ps, [(tuple(int(sigma[live[p][0]] == live[p][1]) for p in ps), gs)
                            for sigma, gs in _dual_classes(split, *key)]))
    block_at = {p: (ps, cls, j) for ps, cls in blocks for j, p in enumerate(ps)}
    ends = {level[ps[-1]]: b for b, (ps, _) in enumerate(blocks)}  # the level ending block b

    def agreeing(ps, cls, j):  # the block's classes whose least member is V on ps[:j]
        return [c for c in cls if all(V[p] == x for p, x in zip(ps[:j], c[0]))]

    bit = {x: 1 << i for i, x in enumerate(sum(split, []))}
    mask = [0 if c == unit else bit.get(a, 0) | bit.get(b, 0) | bit.get(c, 0)
            for a, b, c in map(live.__getitem__, order)]  # the centralizer fixes N_ab^1
    moving = [sum(bit[a] for a, b in m.items() if a != b) for m in maps]  # the labels g moves
    # key -> the indices s of the order[s] it moves, then a stop
    scans = {key: chain(compress(count(), map(key.__and__, mask)), repeat(len(order) + 1))
             for key in moving}
    moved = {key: array("i", [next(scan)]) for key, scan in scans.items()}  # found so far
    images = [[] for _ in maps]  # i -> order[s] relabelled by maps[g], s the i-th of those
    dual, trail = {a: b for (a, b), r in forced.items() if unit in r}, []
    ready = [k for k in range(s_checks, len(checks)) if not wait[k]]  # S checks, forced rows

    def move(p, val, s):  # s = 1 sets V[p] to val, s = -1 clears it
        entries, c, col, a, at_c = cell[p]
        V[p] = entries[c] = val if s > 0 else None
        col[a] += s * val << at_c
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
            ts = ((x, y, dual[z]) for s in ((a, b, dual[c]), (dual[a], dual[b], c))
                  for x, y, z in permutations(s)) if full else ((a, b, c), (b, a, c))
            for t in dict.fromkeys(ts):  # in insertion order, not the string hash's
                ok = (put(at[t], val) if t in at else val == 0) and ok
        for k in ready:
            if not ok:
                break
            what = checks[k][0]
            if k >= s_checks:
                i, i2, j = what  # the S rule, once N_(i i2)^1 = 1 says i2 = i*
                ok = row[(i, i2)][unit] != 1 or s_rule(i, i2, j, row[(i, j)], row[(i2, j)])
            elif len(what) == 2:
                ok = dim_rule(*what, row[what])
            else:
                x, y, z = what  # (x y) z and x (y z), the latter as (y z) x
                by_z, by_x = packed[z], packed[x]
                ok = (sum(v * by_z[m] for m, v in row[(x, y)].items() if v) ==
                      sum(v * by_x[m] for m, v in row[(y, z)].items() if v))
        ready.clear()
        return ok

    agenda = [[] for _ in range(nv + 1)]  # level -> comparisons (g, i) resumed there

    def image(g, p):  # the position of live[p] relabelled by maps[g]
        (a, b, c), m = live[p], maps[g]
        return at[m.get(a, a), m.get(b, b), m.get(c, c)]

    def lex(items, log, w):  # V <= V o g in the value order 1 < 2 < ... < 0; level w is open
        u = start[w]  # order[:u] is set
        for g, i in items:  # i: the first of the indices g moves not known to agree
            ms, img = moved[moving[g]], images[g]
            while ms[-1] <= u:
                ms.append(next(scans[moving[g]]))
            while (s := ms[i]) <= u:
                if i == len(img):  # a walk reaches ms[i] only after ms[:i]
                    img.append(image(g, order[s]))
                x, y = V[order[s]], V[img[i]]
                if x != y or x is None:
                    break
                i += 1
            else:  # V = V o g on order[:u]; g moves order[s] next: resume once order[:s] is set
                if s < len(order):
                    log.append(level[order[s - 1]])
                    agenda[log[-1]].append((g, i))
                continue
            if x is None or y is None:  # wait for the level of the later open position
                log.append(max(level[order[s]], level[img[i]]))
                agenda[log[-1]].append((g, i))
            elif (y == 0, y) < (x == 0, x):
                return False
        return True

    body = [p for p, t in enumerate(live) if unit not in t[:2]]  # the unit rows are invariant

    def least(W):  # the least W o g in live order
        best = W
        for g in range(len(maps)):
            x, y = next(((x, y) for x, y in zip(map(best.__getitem__, body),
                                                (W[image(g, p)] for p in body)) if x != y), (0, 0))
            if (y == 0, y) < (x == 0, x):
                best = W[:]
                for p in body:
                    best[p] = W[image(g, p)]
        return best

    def category(W):  # the forced rows and W's nonzero entries, rows and outputs sorted
        # N_ab^1 = [b = a*] holds by the search for children, by P's validity for the rest
        out = {ab: dict(r) for ab, r in forced.items()}
        for (a, b, c), v in zip(live, W):
            if v:
                out.setdefault((a, b), {})[c] = v
        out = {ab: dict(sorted(out[ab].items())) for ab in sorted(out)}
        ring = _with_rows(labels, {a: b for (a, b), r in out.items() if unit in r}, out)
        return Premodular(ring, dims, twists, name="candidate")

    # the unit rows: N_1x^y = N_x1^y = [x = y]
    ok = all(put(p, int(b == c if a == unit else a == c))
             for p, (a, b, c) in enumerate(live) if unit in (a, b))
    stack = [[0, None, [], len(trail)]] if ok and spread([], 0, False) else []
    survivors, nodes = [], 0
    while stack:  # frames: level, values left to try, lex-log, trail length
        v, vals, log, mark = frame = stack[-1]
        while len(trail) > mark:
            p = trail.pop()
            move(p, V[p], -1)
        while log:
            agenda[log.pop()].pop()
        if vals is None and classes[v][0] in block_at:  # the values its block's least
            ps, cls, j = block_at[classes[v][0]]  # involutions take
            frame[1] = vals = sorted({c[0][j] for c in agreeing(ps, cls, j)})
        elif vals is None:
            frame[1] = vals = list(range(min(rem[g] for p in classes[v] for g in grp[p]) + 1))
        if not vals:
            stack.pop()
            continue
        nodes += 1
        if nodes > _SEARCH_NODE_BUDGET:
            raise LimitExceeded(f"splitting enumeration exhausted its search budget of "
                                f"{_SEARCH_NODE_BUDGET:,} nodes over {nv} unknown variables")
        if not spread(classes[v], vals.pop(), classes[v][0] not in block_at):
            continue
        nxt = next((w for w in range(v + 1, nv) if V[classes[w][0]] is None), nv)
        if not all(lex(agenda[w], log, nxt) for w in range(v, nxt)):
            continue
        if v in ends:  # block b's involution is decided: compare with each g that fixes the
            b = ends[v]  # involutions so far, moves block b and fixes every later block
            dual.update(live[p][:2] for p in chain(*dual_levels[keys[b]]) if V[p])
            gs = [0]
            for ps, cls in blocks[:b]:
                gs = [g + h for g in gs for h in agreeing(ps, cls, len(ps))[0][1]]
            ps, cls = blocks[b]
            # only schedules: order[:start[nxt]] holds no label of block b past its dual
            # levels, so there g reads what g cut below block b reads, whose comparison is open
            lex([(g + h - 1, 0) for g in gs for h in agreeing(ps, cls, len(ps))[0][1] if h],
                log, nxt)
        if nxt < nv:
            stack.append([nxt, None, [], len(trail)])
        elif len(survivors) < _MAX_SURVIVORS:
            survivors.append(V[:])
        else:
            raise LimitExceeded(
                f"splitting enumeration: too many candidates, {len(survivors) + 1} reached "
                f"against the cap of {_MAX_SURVIVORS}, over {nv} unknown variables")
    bests = sorted(map(least, survivors), key=lambda W: [(v == 0, v) for v in W])
    return [cand for W in bests if _candidate_ok(cand := category(W))]


def _dual_classes(split, i, j):
    """The classes under relabelling of the dual involutions pairing the
    children split[i] of an orbit with split[j] of its dual (i == j: self-dual),
    each as its least member sigma in the order 1 < 0 of N_ab^1 = [sigma(a) = b]
    over the sorted pairs a <= b, and the relabellings that fix sigma as indices
    g in product(*map(permutations, split)), 0 the identity.  A self-dual orbit
    of k children has a class per number t of 2-cycles: sigma fixes the first
    k - 2t children and swaps the rest in consecutive pairs.  A dual pair has
    one class, xs[k] <-> ys[k], fixed by the relabellings that move both alike."""
    xs, ys = sorted(split[i]), sorted(split[j])
    if i != j:
        found = [(dict(zip(xs + ys, ys + xs)), [dict(zip(xs + ys, [*pm, *map(
            dict(zip(xs, ys)).get, pm)])) for pm in permutations(xs)])]
    else:
        found = []
        for f in range(len(xs), -1, -2):  # f fixed points
            cycles = [xs[k:k + 2] for k in range(f, len(xs), 2)]
            found.append((dict(zip(xs, xs[:f] + [y for c in cycles for y in c[::-1]])), [
                dict(zip(xs, [*fixed, *(y for c, s in zip(cs, signs) for y in c[::s])]))
                for fixed in permutations(xs[:f]) for cs in permutations(cycles)
                for signs in product((1, -1), repeat=len(cycles))]))
    radix = [factorial(len(ch)) for ch in split]  # g is mixed radix over split
    rank = {k: {pm: r * prod(radix[k + 1:]) for r, pm in enumerate(permutations(split[k]))}
            for k in {i, j}}
    return [(sigma, [sum(rank[k][tuple(map(m.get, split[k]))] for k in rank) for m in ms])
            for sigma, ms in found]


def _candidate_ok(cand: Premodular) -> bool:
    """What the search leaves open (README, "Condensation engine"): the S
    decision; the candidate passes `Premodular.validate`."""
    verlinde, invertible = cand._s_invertibility
    return verlinde or not invertible  # a singular S passes whatever Verlinde says


# -- the relative stacking over Rep(G) ---------------------------------------


def canonical_algebra(embC: SymmetryEmbedding, embD: SymmetryEmbedding) -> list[str]:
    """Simple components of the canonical algebra inside the Deligne product:
    the label pairs (map_C(-e), map_D(e))."""
    same_symmetry(embC, embD)
    return [pair_label(embC.map_neg(e), embD.mapping[e]) for e in embC.elements()]


def _charge(P: Premodular, emb: SymmetryEmbedding, x: str) -> tuple[Cyclo, ...]:
    """x's charge character: the monodromy (from the twists) of each charge around x."""
    return tuple(P.monodromy(emb.mapping[e], x) for e in emb.elements())


def is_deconfined(C: Premodular, D: Premodular, embC: SymmetryEmbedding,
                  embD: SymmetryEmbedding, x: str, y: str) -> bool:
    """True iff x and y carry the same charge character: every symmetry charge
    has the same monodromy around x in C as around y in D.  That is exactly
    "(x, y) centralizes the canonical algebra A in C x D": twists add in the
    product, so by the twist rule (`Premodular.centralizes`) (x, y)
    centralizes the component (-e, e) iff theta_(e x) theta_(-e y) = theta_x
    theta_y, iff the monodromies of e around x and of -e around y multiply
    to 1, and that of -e is the inverse of that of e."""
    same_symmetry(embC, embD)
    return _charge(C, embC, x) == _charge(D, embD, y)


def _check_embedding(emb: SymmetryEmbedding, cat: Premodular) -> None:
    report = emb.validate(cat)
    if report:
        raise InputError(f"invalid embedding into {cat.name}: {report[0]}")


def relative_tensor_product(C: Premodular, D: Premodular,
                            embC: SymmetryEmbedding, embD: SymmetryEmbedding,
                            ) -> tuple[CondensationResult, SymmetryEmbedding]:
    """Relative stacking of C and D over their shared symmetry: condense the
    canonical algebra A in the Deligne product.  Only the labels that
    centralize A survive (Kirillov-Ostrik, Adv. Math. 171, 2002), the pairs
    of equal charge characters (`is_deconfined`), so only those pairs and
    their rows are built.  Returns the condensation data and the induced
    symmetry embedding into the result."""
    same_symmetry(embC, embD)
    for emb, cat in ((embC, C), (embD, D)):
        _check_embedding(emb, cat)
    return _relative_tensor_product(C, D, embC, embD)


def _relative_tensor_product(C, D, embC, embD):
    """`relative_tensor_product` of embeddings with one symmetry group that
    are validated or built by the engine."""
    charges = {}  # each distinct charge character as a small int
    keys = tuple({x: charges.setdefault(_charge(P, emb, x), len(charges)) for x in P.labels}
                 for P, emb in ((C, embC), (D, embD)))
    prod = C.deligne(D, keys)
    confined = [pair_label(x, y) for x in C.labels for y in D.labels if keys[0][x] != keys[1][y]]
    # Z2(C x D) = Z2(C) x Z2(D): (-e, e) is transparent iff e has charge 1 around every
    # label of C and of D, in column e of every character; column 0 is the unit's
    one = Cyclo.one()
    central = 1 + sum(all(v == one for v in col) for col in list(zip(*charges))[1:])
    # by the validated embeddings, A is a transparent group of invertible bosons
    # of the keyed product (README, "not re-checked at run time")
    res = _condense(prod, sorted(canonical_algebra(embC, embD), key=prod.ring.index.__getitem__),
                    confined, C.global_dim() * D.global_dim(), C.gauss_sum() * D.gauss_sum(),
                    central)
    # (e, 1) (-f, f) = (e - f, f): the orbit of (e, 1) is free and holds (1, e),
    # so its one result label, its representative, is the image of e
    rep = {m: o.representative for o in res.orbits for m in o.members}
    mapping = {e: rep[pair_label(embC.mapping[e], D.unit)] for e in embC.elements()}
    return res, SymmetryEmbedding(list(embC.group), res.result.name, mapping)


def relative_centralizer(C: Premodular, embC: SymmetryEmbedding) -> Premodular:
    """Centralizer of the symmetry image, as a premodular subcategory."""
    _check_embedding(embC, C)
    return _relative_centralizer(C, embC)


def _relative_centralizer(C, embC):
    return C.restrict(C.centralizer(embC.image()), name=f"cent_E({C.name})")


def verify_unit_law(C: Premodular, embC: SymmetryEmbedding) -> bool | None:
    """Check that stacking with the double of the symmetry group returns C.

    None means the condensation was ambiguous (inconclusive verdict).
    """
    Z, embZ = drinfeld_double(embC.group)
    _check_embedding(embC, C)  # embZ is built valid, on embC's group
    res, emb_ind = _relative_tensor_product(Z, C, embZ, embC)
    if res.ambiguity_flags:
        return None
    return find_equivalence(res.result, C, emb_ind, embC) is not None


def verify_stacking_identity(C: Premodular, D: Premodular,
                             embC: SymmetryEmbedding, embD: SymmetryEmbedding,
                             ) -> bool | None:
    """Check (cent_E C) x_E (cent_E D) = cent_E (C stack_E D) as categories
    with symmetry.  None means some condensation was ambiguous.  Each input
    embedding is validated once; their restrictions to the centralizers, which
    hold their images, stay valid, and the induced embedding is built valid."""
    Cp = relative_centralizer(C, embC)
    Dp = relative_centralizer(D, embD)
    embCp = embC.restrict_to(Cp)
    embDp = embD.restrict_to(Dp)
    same_symmetry(embC, embD)
    # E is central in Cp and Dp, so lhs confines no label (README, "not re-checked")
    lhs, lhs_emb = _relative_tensor_product(Cp, Dp, embCp, embDp)
    rhs, rhs_emb = _relative_tensor_product(C, D, embC, embD)
    Rp = _relative_centralizer(rhs.result, rhs_emb)
    rhs_emb_p = rhs_emb.restrict_to(Rp)
    if lhs.ambiguity_flags or rhs.ambiguity_flags:
        return None
    return find_equivalence(lhs.result, Rp, lhs_emb, rhs_emb_p) is not None
