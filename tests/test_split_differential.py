"""The split-fusion solver: known answers, and differential tests against the
previous solver kept in `split_reference.py`.

Known answers: su2_4 / {0,4} is the Z3 theory with q = x^2/3
(Bais-Slingerland, PRB 79, 045316, 2009); su2_8 / {0,8} is
rev(fib) x rev(fib); su2_12 / {0,12} and su2_16 / {0,16} are the D-series
quotients of rank 5 and 6 (Kirillov-Ostrik, Adv. Math. 171, 2002).  The
surviving classes, representatives and their order included, are compared
with the reference wherever the reference finishes; the sparse Verlinde check
of `relprod._candidate_ok` is compared with the dense O(r^4) sum on
candidates that pass it and on candidates that fail it.  On all eight inputs
of the benchmark's `split` workload, the reports (flags and fusion table) are
compared with digests recorded before the lex-leader comparison followed the
search order, under the real candidate check and under `ring_only`."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import islice, permutations, product
from pathlib import Path

import pytest

from setcat import premodular, relprod
from setcat.catalog import get
from setcat.cyclo import Cyclo, root_of_unity
from setcat.embedding import SymmetryEmbedding
from setcat.errors import LimitExceeded
from setcat.equiv import find_equivalence
from setcat.fusion import FusionRing, pair_label
from setcat.pointed import MetricGroup, element_label
from setcat.premodular import Premodular

from . import split_reference
from .dense_reference import cyclo_s_invertibility, dense_smatrix_invertible, triples
from .test_invariants import su2_level

Z2 = [pair_label("1", "1"), pair_label("psi", "psi")]


def metric_cyclic(n, den):
    q = {(x,): Fraction(x * x, den) for x in range(n)}
    return MetricGroup([n], q, name=f"z{n}_x2/{den}").to_premodular()


def condensed(P, bosons):
    res = relprod.condense_by_invertible_bosons(P, bosons)
    assert res.ambiguity_flags == []
    assert res.conservation["global_dim_conserved"] and res.conservation["gauss_conserved"]
    return res.result


def ising_squared():
    """(ising x ising_rev)^2 and its Z2 x Z2 of (psi, psi) bosons."""
    ii = get("ising").category.deligne(get("ising_rev").category)
    return ii.deligne(ii), [pair_label(a, b) for a in Z2 for b in Z2]


def test_su2_4_is_z3():
    assert find_equivalence(condensed(su2_level(4), ["0", "4"]), metric_cyclic(3, 3))


def test_su2_8_is_rev_fib_squared():
    rev_fib = get("fibonacci").category.reverse()
    assert find_equivalence(condensed(su2_level(8), ["0", "8"]), rev_fib.deligne(rev_fib))


@pytest.mark.parametrize("k,rank", [(12, 5), (16, 6)])
def test_su2_d_series_quotient(k, rank):
    result = condensed(su2_level(k), ["0", str(k)])
    assert result.ring.rank() == rank
    assert result.is_nondegenerate()


def assert_pinned_nodes(monkeypatch, P, bosons, nodes, scheduled):
    """The search needs exactly `nodes` nodes: it finishes within them and
    exhausts a budget of one fewer.  Its blocks' ends schedule `scheduled`
    relabelling comparisons in all."""
    found, schedule = [], relprod._scheduled
    with monkeypatch.context() as m:
        m.setattr(relprod, "_scheduled", lambda *a: found.append(schedule(*a)) or found[-1])
        relprod.condense_by_invertible_bosons(P, bosons)
    assert sum(map(len, found)) == scheduled
    for budget, enough in ((nodes, True), (nodes - 1, False)):
        monkeypatch.setattr(relprod, "_SEARCH_NODE_BUDGET", budget)
        try:
            relprod.condense_by_invertible_bosons(P, bosons)
        except LimitExceeded:
            assert not enough
        else:
            assert enough


@pytest.mark.parametrize("index,nodes", enumerate([15, 12, 12, 36, 58, 81, 59, 352]))
def test_split_inputs_take_their_pinned_nodes(monkeypatch, index, nodes):
    # the nodes the search needs on each benchmark split input, to the node: a change in
    # where a check prunes shows here ((ising x ising_rev)^2 / Z2xZ2, the last, took 2,617
    # while the rule S(i*, j) = conj S(i, j) waited for complete candidates, 1,634 while
    # the lex-leader compared every relabelling on the dual levels, and 1,300 while every
    # block's involution was drawn before any other class; ii x fib took 77); and the
    # comparisons its blocks' ends schedule (the last scheduled 558 while a block's end
    # compared every g' h, also for g' whose comparison was settled)
    scheduled = [2, 2, 2, 2, 2, 2, 6, 150][index]
    assert_pinned_nodes(monkeypatch, *benchmark_split_inputs()[index], nodes, scheduled)


def test_ising_squared_within_3000_nodes(monkeypatch):
    # 5,413 nodes when the lex-leader walked the positions in sorted order
    monkeypatch.setattr(relprod, "_SEARCH_NODE_BUDGET", 3_000)
    toric = get("toric_code").category
    assert find_equivalence(condensed(*ising_squared()), toric.deligne(toric))


def test_ising_ising_rev_fib_is_toric_fib():
    fib = get("fibonacci").category
    P = get("ising").category.deligne(get("ising_rev").category).deligne(fib)
    result = condensed(P, [pair_label(h, "1") for h in Z2])
    assert find_equivalence(result, get("toric_code").category.deligne(fib))


@pytest.mark.parametrize("third,nodes,pairs", [
    ("z3", 51, [(1, 2)]), ("double_3", 339, [(1, 2), (3, 6), (4, 8), (5, 7)])])
def test_mutually_dual_split_orbits(monkeypatch, third, nodes, pairs):
    # ising x ising_rev x T / Z2: ((sigma, sigma), t) splits for every label t of T, and its
    # orbit is dual to that of t*, so the search draws the involutions of dual pairs of split
    # orbits (T = Z3 with q = x^2/3: one pair; T = D(Z3): four); the result is toric_code x T
    # (69 and 507 nodes while every block's involution was drawn before any other class;
    # 4 and 32 comparisons scheduled while settled ones were extended too)
    T = metric_cyclic(3, 3) if third == "z3" else get(third).category
    P = get("ising").category.deligne(get("ising_rev").category).deligne(T)
    bosons = [pair_label(h, T.unit) for h in Z2]
    blocks, dual_classes = [], relprod._dual_classes
    monkeypatch.setattr(relprod, "_dual_classes",
                        lambda split, i, j: blocks.append((i, j)) or dual_classes(split, i, j))
    assert find_equivalence(condensed(P, bosons), get("toric_code").category.deligne(T))
    assert [(i, j) for i, j in blocks if i != j] == pairs
    assert_pinned_nodes(monkeypatch, P, bosons, nodes, {"z3": 4, "double_3": 10}[third])


@pytest.mark.parametrize("case,nodes", [("su2_4 x su2_4", 150), ("su2_4 x su2_8", 1_653),
                                        ("ii x su2_4", 172)])
def test_multi_block_condensations(monkeypatch, case, nodes):
    # Z2 x Z2 condensations with three self-dual split orbits, each its own block, two of
    # 2 children and one of 4: the answers are the products of the factors' Z2 quotients
    # (su2_4 / {0, 4} = Z3, su2_8 / {0, 8} = rev(fib)^2, ii / Z2 = toric_code); 316, 15,601
    # and 544 nodes while every block's involution was drawn before any other class, and
    # 138, 278 and 278 comparisons scheduled while settled ones were extended too
    s4, s8, z3 = su2_level(4), su2_level(8), metric_cyclic(3, 3)
    ii = get("ising").category.deligne(get("ising_rev").category)
    rev_fib = get("fibonacci").category.reverse()
    P, bosons, answer = {
        "su2_4 x su2_4": (s4.deligne(s4), ["(0,0)", "(0,4)", "(4,0)", "(4,4)"], z3.deligne(z3)),
        "su2_4 x su2_8": (s4.deligne(s8), ["(0,0)", "(0,8)", "(4,0)", "(4,8)"],
                          z3.deligne(rev_fib.deligne(rev_fib))),
        "ii x su2_4": (ii.deligne(s4), ["((1,1),0)", "((1,1),4)", "((psi,psi),0)",
                                        "((psi,psi),4)"], get("toric_code").category.deligne(z3)),
    }[case]
    assert find_equivalence(condensed(P, bosons), answer)
    scheduled = {"su2_4 x su2_4": 138, "su2_4 x su2_8": 146, "ii x su2_4": 142}[case]
    assert_pinned_nodes(monkeypatch, P, bosons, nodes, scheduled)


@pytest.mark.parametrize("k", [4, 8, 12, 16])
def test_unit_law_through_the_boson_j_equals_k(k):
    C = su2_level(k)
    emb = SymmetryEmbedding([2], C.name, {(0,): "0", (1,): str(k)})
    assert emb.validate(C) == []
    assert relprod.verify_unit_law(C, emb) is True


@pytest.mark.parametrize("sizes,i,j", [((3, 2), 1, 1), ((3, 2), 0, 0), ((2, 4, 2), 1, 1),
                                        ((5, 2), 0, 0), ((2, 3, 2), 0, 2), ((3, 2, 3), 0, 2)])
def test_dual_classes_match_brute_force(sizes, i, j):
    # self-dual orbits of 2 to 5 children and dual pairs of 2 and 3, which no catalog input
    # has: every involution (matching) of the block, grouped under the relabellings of its
    # children; one sigma per class, the class's least member over the block's dual levels
    # in the value order 1 < 0, and as its centralizer the indices into the product of the
    # orbits' permutations of exactly the relabellings of the block that fix it
    split = [[f"o{n}#{k}" for k in range(size)] for n, size in enumerate(sizes)]
    xs, ys = split[i], split[j]
    maps = [dict(zip(sum(split, []), sum(pm, ()))) for pm in product(*map(permutations, split))]
    block = [g for g, m in enumerate(maps) if all(m[x] == x for x in m if x not in xs + ys)]
    levels = sorted({(min(a, b), max(a, b)) for a in xs for b in ys})

    def relabelled(sigma, m):  # the involution of V o g: N_ab^1 there is N_(m a)(m b)^1 in V
        back = {y: x for x, y in m.items()}
        return {a: back[sigma[m[a]]] for a in sigma}

    def order_key(sigma):  # its values on the dual levels, 1 before 0
        return [sigma[a] != b for a, b in levels]

    if i == j:
        involutions = [s for s in (dict(zip(xs, pm)) for pm in permutations(xs))
                       if all(s[s[x]] == x for x in xs)]
    else:
        involutions = [{**dict(zip(xs, pm)), **dict(zip(pm, xs))} for pm in permutations(ys)]
    classes = {frozenset(tuple(sorted(relabelled(s, maps[g]).items())) for g in block)
               for s in involutions}
    found = relprod._dual_classes(split, i, j)
    assert len(found) == len(classes) == (len(xs) // 2 + 1 if i == j else 1)
    seen = []
    for sigma, gs in found:
        seen.append(next(c for c in classes if tuple(sorted(sigma.items())) in c))
        assert min(map(dict, seen[-1]), key=order_key) == sigma
        assert sorted(gs) == [g for g in block if relabelled(sigma, maps[g]) == sigma]
    assert len(set(seen)) == len(found)


def assert_least_relabelling(res):
    """The reported assignment is the least, in sorted-items order, of all its
    relabellings of children within orbits: the reference's dedupe keeps it."""
    of_orbit = {}
    for lab, (rep, _) in res.provenance.items():
        of_orbit.setdefault(rep, []).append(lab)
    items = list(triples(res.result.ring).items())
    assert [list(d.items()) for d in split_reference._dedupe_by_child_permutation(
        [dict(items)], of_orbit, res.splittings)] == [items]


def test_reported_assignment_is_the_least_relabelling():
    fib = get("fibonacci").category
    ii = get("ising").category.deligne(get("ising_rev").category)
    for P, bosons in [(su2_level(12), ["0", "12"]), (su2_level(16), ["0", "16"]),
                      (ii.deligne(fib), [pair_label(h, "1") for h in Z2]), ising_squared()]:
        assert_least_relabelling(relprod.condense_by_invertible_bosons(P, bosons))


def split_inputs():
    """Fixed-point condensations on which the reference solver finishes."""
    ising, ising_rev = get("ising").category, get("ising_rev").category
    su2_2 = su2_level(2)
    return [(ising.deligne(ising_rev), Z2), (ising.deligne(ising), Z2),
            (ising_rev.deligne(ising_rev), Z2), (su2_level(4), ["0", "4"]),
            (su2_level(8), ["0", "8"]),
            (su2_2.deligne(su2_2), [pair_label("0", "0"), pair_label("2", "2")])]


def solver_arguments(P, bosons, monkeypatch):
    seen = []
    solve = relprod._resolve_split_fusion
    with monkeypatch.context() as m:
        m.setattr(relprod, "_resolve_split_fusion", lambda *a: seen.append(a) or solve(*a))
        relprod.condense_by_invertible_bosons(P, bosons)
    return seen[0]


def test_split_classes_match_reference(monkeypatch):
    for P, bosons in split_inputs():
        args = solver_arguments(P, bosons, monkeypatch)
        new = relprod._resolve_split_fusion(*args)
        old = split_reference.reference_split_classes(*args)
        assert [list(triples(c.ring).items()) for c in new] == [
            list(d.items()) for d in old], P.name
        assert len(new) == 1


def search_precondition(candidate) -> bool:
    """Whether a candidate, as the reference checks' arguments, meets what
    the search guarantees its check: it passes `Premodular.validate`."""
    return split_reference._build_result(*candidate).validate() == []


def unpacked(cand):
    """A candidate category as the reference checks' arguments."""
    return cand.labels, triples(cand.ring), cand.dims, cand.twists


def test_candidate_checks_match_reference(monkeypatch):
    # of the complete assignments the reference enumerates, those that meet
    # the search's guarantee: one per input passes, and the check agrees with
    # the dense and the sparse reference on each
    seen = []

    def record(*candidate):
        seen.append(candidate)
        return split_reference.dense_candidate_ok(*candidate)

    for P, bosons in split_inputs():
        args = solver_arguments(P, bosons, monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(split_reference, "_candidate_ok", record)
            split_reference.reference_split_classes(*args)
    kept = [c for c in seen if search_precondition(c)]
    verdicts = [(relprod._candidate_ok(split_reference._build_result(*c)),
                 split_reference.dense_candidate_ok(*c), split_reference.sparse_candidate_ok(*c))
                for c in kept]
    assert all(new == dense == sparse for new, dense, sparse in verdicts)
    assert (len(seen), len(kept), sum(new for new, _, _ in verdicts)) == (104, 6, 6)


def ring_only(cand):
    """A candidate check without the braiding: ring axioms and dimension
    equations.  The search itself applies one braiding rule, S(i*, j) =
    conj S(i, j), which alone tells Z2 x Z2 from Z4 fusion on ising x
    ising_rev / Z2."""
    ring, labels, dims = cand.ring, cand.labels, cand.dims
    return not ring.validate() and all(sum(
        (dims[k] * n for k, n in ring.fuse(i, j).items()), Cyclo.zero()) == dims[i] * dims[j]
        for i in labels for j in labels)


def reference_classes(forced, unknown, labels, rep_of, dims, twists, orbit_margins):
    """The reference's classes as the engine's solver returns them."""
    return [split_reference._build_result(labels, d, dims, twists) for d in
            split_reference.reference_split_classes(
                forced, unknown, labels, rep_of, dims, twists, orbit_margins)]


def conjugate_dual_rule(cand) -> bool:
    """S(i*, j) = conj S(i, j) for j at or after i, in Cyclo arithmetic."""
    S, labels = cand.s_entry, cand.labels
    return all(S(cand.dual(i), j) == S(i, j).conjugate()
               for a, i in enumerate(labels) for j in labels[a:])


def rep_d8(twists=(0, 0, 0, 0, 0)):
    """The fusion ring of Rep(D8) (and of Rep(Q8)): 1, a, b, c of dim 1 and
    m of dim 2, m m = 1 + a + b + c; all twists 0 by default, a symmetric
    category.  Condensing {1, a} splits m into two dim-1 children whose
    fusion is Z4 or Z2 x Z2; the ring, which permutes a, b and c freely,
    cannot tell which, so two classes survive every check."""
    labels, fusion = ["1", "a", "b", "c", "m"], {}
    for x in labels[:4]:
        fusion.update(dict.fromkeys([("1", x, x), (x, "1", x), (x, x, "1"), (x, "m", "m"),
                                     ("m", x, "m"), ("m", "m", x)], 1))
    for x, y, z in permutations("abc"):
        fusion[(x, y, z)] = 1
    ring = FusionRing(labels, {x: x for x in labels}, fusion)
    dims = {**dict.fromkeys(labels[:4], Cyclo.one()), "m": Cyclo.from_rational(2)}
    return Premodular(ring, dims, dict(zip(labels, map(Fraction, twists))), name="rep_d8")


def test_distinct_classes_raise_the_reference_flags(monkeypatch):
    # the reference checks its complete candidates with the rule the search applies
    # as it goes; the first two inputs kept two classes under ring_only before the
    # search applied it and keep one now, Rep(D8) / {1, a} keeps two under any check
    inputs = split_inputs()
    for P, bosons in (inputs[0], inputs[5], (rep_d8(), ["1", "a"])):
        outcomes = []
        for solve in (relprod._resolve_split_fusion, reference_classes):
            with monkeypatch.context() as m:
                m.setattr(relprod, "_candidate_ok", ring_only)
                m.setattr(split_reference, "_candidate_ok", lambda *c: ring_only(
                    cand := split_reference._build_result(*c)) and conjugate_dual_rule(cand))
                m.setattr(relprod, "_resolve_split_fusion", solve)
                res = relprod.condense_by_invertible_bosons(P, bosons)
            outcomes.append((res.ambiguity_flags, list(triples(res.result.ring).items())))
        assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][0] == "2 fusion assignments survive all constraints"
    assert relprod.condense_by_invertible_bosons(rep_d8(), ["1", "a"]).ambiguity_flags == \
        outcomes[0][0]


def permuted_rows(P, sigma):
    """P's data with the S-matrix rows permuted: S'_ij = S_sigma(i),j, in the
    packed table that the S decision reads and in the S-entries that its
    Cyclo reference reads.  For a sigma that fixes the unit and commutes
    with duality, S' is orthogonal, has conjugate dual rows and a trivial
    Mueger center, so the candidate passes every check before Verlinde;
    Verlinde holds iff sigma preserves fusion."""
    Q = Premodular(P.ring, P.dims, P.twists, name=P.name)
    mod, dims, S = P._s_table()
    Q._s_table = lambda: (mod, dims, {i: S[sigma[i]] for i in P.labels})
    Q._s = {(i, j): P.s_entry(sigma[i], j) for i in P.labels for j in P.labels}
    return Q


def permuted_cases():
    """(category, sigma on labels, sigma preserves fusion)"""
    z5, z7 = metric_cyclic(5, 5), metric_cyclic(7, 7)
    cube = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    q = [0, Fraction(3, 4), 0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(1, 4), 0]
    z2_cubed = MetricGroup([2, 2, 2], dict(zip(cube, q)), name="z2^3").to_premodular()

    def lab(*xs):
        return [element_label(x if isinstance(x, tuple) else (x,)) for x in xs]

    # on z2^3 sigma keeps the products with (0,0,1), the first of the three
    # generators the character check needs, and breaks some with the others
    return [(z5, lab(0, 1, 2, 3, 4), True), (z5, lab(0, 2, 4, 1, 3), True),
            (z5, lab(0, 2, 1, 4, 3), False), (z7, lab(0, 3, 6, 2, 5, 1, 4), True),
            (z7, lab(0, 2, 1, 3, 4, 6, 5), False), (z7, lab(0, 1, 3, 2, 5, 4, 6), False),
            (z2_cubed, lab(*(cube[i] for i in (0, 4, 6, 2, 5, 1, 7, 3))), False)]


def test_sparse_verlinde_matches_dense(monkeypatch):
    for P, image, automorphism in permuted_cases():
        Q = permuted_rows(P, dict(zip(P.labels, image)))
        assert Q.validate() == [] and dense_smatrix_invertible(Q)
        assert Q.muger_center() == [Q.unit]
        assert relprod._candidate_ok(Q) is automorphism
        with monkeypatch.context() as m:
            m.setattr(split_reference, "_build_result", lambda *a, **k: Q)
            args = (P.labels, triples(P.ring), P.dims, P.twists)
            assert split_reference.dense_candidate_ok(*args) is automorphism


def benchmark_split_inputs():
    """The eight condensations of the benchmark's `split` workload, in its order."""
    ising, ising_rev, fib = (get(n).category for n in ("ising", "ising_rev", "fibonacci"))
    ii = ising.deligne(ising_rev)
    return [(ii, Z2), (ising.deligne(ising), Z2)] + [
        (su2_level(k), ["0", str(k)]) for k in (4, 8, 12, 16)] + [
        (ii.deligne(fib), [pair_label(h, "1") for h in Z2]), ising_squared()]


# per input: the number of ambiguity flags and the sha256 of the JSON text of
# [ambiguity_flags, list(triples(result.ring).items())], recorded under the real check
# when the lex-leader comparison still walked the positions in sorted order; under
# ring_only recorded once the search applied the rule S(i*, j) = conj S(i, j), which
# leaves each input the one class of the real check (9, 9, 41 and 257 flags before, on
# the first two and the last two inputs)
_REAL_CHECK_REPORTS = [
    (0, "c7f29dff2c6ffc8b882ca014be757b2bcfb7985d8eef9ea51a53d379cceab998"),
    (0, "0444fa51fec266d720401837375570b6d0195de025a6a1a624d03dc2a8a23f7f"),
    (0, "51c3a029ab3b1037058bd4c94bf5e58cc88ff9530fa20452c159febc8fa5dd76"),
    (0, "c4cc9a9a98180c37b5df508aa39c12116296f4cb06796724c2088f0205c6ac8e"),
    (0, "ed4712d7d426639c661f655ab1f6c800243e1542710acaaa3b1f4dd06ffe55f4"),
    (0, "af39c573f16ec68cefb9ade95bc0f62055312cfae3e17899c6796f39606e0bbb"),
    (0, "c584c7e7dec0636150e220d53bacce53d84576e08207becc03a485443b8742a6"),
    (0, "f0448ab90e695c7a6d54113d38987f2629e146fb267c5025e9d27ae5be8e891e")]
FROZEN_REPORTS = {"candidate_ok": _REAL_CHECK_REPORTS, "ring_only": _REAL_CHECK_REPORTS}


@pytest.mark.parametrize("check", sorted(FROZEN_REPORTS))
def test_split_reports_match_the_frozen_digests(check, monkeypatch):
    if check == "ring_only":
        monkeypatch.setattr(relprod, "_candidate_ok", ring_only)
    reports = []
    for P, bosons in benchmark_split_inputs():
        res = relprod.condense_by_invertible_bosons(P, bosons)
        text = json.dumps([res.ambiguity_flags,
                           [[list(t), v] for t, v in triples(res.result.ring).items()]])
        reports.append((len(res.ambiguity_flags), hashlib.sha256(text.encode()).hexdigest()))
    assert reports == FROZEN_REPORTS[check]


_COUNT_PRODUCTS = """
import json
from setcat import relprod
from setcat.cyclo import Cyclo, root_of_unity
from tests.test_split_differential import benchmark_split_inputs

inputs, counts, mul = benchmark_split_inputs(), [], Cyclo.__mul__

def counted(a, b):
    counts[-1] += 1
    return mul(a, b)

Cyclo.__mul__ = counted
for P, bosons in inputs:
    counts.append(0)
    relprod.condense_by_invertible_bosons(P, bosons)
print(json.dumps(counts))
"""


def test_split_work_does_not_follow_the_string_hash():
    """The search runs its checks in an order fixed by the input: two
    interpreters with different hash seeds make the same number of cyclotomic
    products on each of the eight split inputs."""
    root = Path(__file__).resolve().parents[1]
    runs = [subprocess.run([sys.executable, "-c", _COUNT_PRODUCTS], cwd=root, check=True,
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(root / "src"),
                                "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1")]
    assert len(json.loads(runs[0])) == 8
    assert runs[0] == runs[1]


# -- the candidate check against the check it replaced ------------------------


def candidates_of(monkeypatch, check, runs):
    """Every candidate the solver hands to `_candidate_ok` (here `check`)."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(relprod, "_candidate_ok", lambda cand: seen.append(cand) or check(cand))
        for run in runs:
            run()
    return seen


def corrupted(candidate, count=6):
    """The candidate with one fusion entry moved to another output, or with
    one twist changed by a quarter or by a half turn: `count` of each."""
    labels, n_dict, dims, twists = candidate
    unit = labels[0]
    moved = ((t, c) for t in n_dict if unit not in t
             for c in labels[1:] if (*t[:2], c) not in n_dict)
    for (a, b, c), c2 in islice(moved, count):
        n = {t: v for t, v in n_dict.items() if t != (a, b, c)}
        yield labels, {**n, (a, b, c2): n_dict[(a, b, c)]}, dims, twists
    for x, turn in product(labels[1:count + 1], (Fraction(1, 4), Fraction(1, 2))):
        yield labels, n_dict, dims, {**twists, x: twists[x] + turn}


def test_candidate_verdicts_match_the_check_they_replace(monkeypatch):
    # every candidate the solver checks on the split inputs (under the real
    # check and under ring_only), on SU(2)_k x_Z2 SU(2)_k for k = 4, 8 and on
    # the carrying inputs, corruptions of those that pass up to rank 16, and
    # the permuted S rows: those of them that meet the search's guarantee (a
    # moved fusion entry breaks the ring, a quarter turn the dual twists or
    # the conjugate-dual rule; some half turns keep both)
    def condense(P, bosons):
        return lambda: relprod.condense_by_invertible_bosons(P, bosons)

    def stack(k):
        P = su2_level(k)
        emb = SymmetryEmbedding([2], P.name, {(0,): P.unit, (1,): str(k)})
        return lambda: relprod.verify_stacking_identity(P, P, emb, emb)

    runs = [condense(P, bosons) for P, bosons in benchmark_split_inputs()]
    real = [unpacked(c) for c in candidates_of(monkeypatch, relprod._candidate_ok, runs + [
        stack(4), stack(8)] + [condense(P, bosons) for P, bosons in carrying_inputs()])]
    ring = [unpacked(c) for c in candidates_of(monkeypatch, ring_only, runs)]
    cases = [(c, split_reference.sparse_candidate_ok(*c)) for c in real + ring]
    cases += [(bad, split_reference.sparse_candidate_ok(*bad))
              for c, ok in cases[:len(real)] if ok and len(c[0]) <= 16 for bad in corrupted(c)]
    all_cases, cases = len(cases), [(c, ok) for c, ok in cases if search_precondition(c)]
    decision, decided = Premodular._s_invertibility.func, []

    def counted(cand):  # uncached: _candidate_ok reads it once per candidate
        decided.append(decision(cand))
        assert decided[-1] == cyclo_s_invertibility(cand), cand.name
        return decided[-1]

    monkeypatch.setattr(Premodular, "_s_invertibility", property(counted))
    for c, ok in cases:
        assert relprod._candidate_ok(split_reference._build_result(*c)) is ok
    for P, image, _ in permuted_cases():
        Q = permuted_rows(P, dict(zip(P.labels, image)))
        with monkeypatch.context() as m:
            m.setattr(split_reference, "_build_result", lambda *a, **k: Q)
            args = (P.labels, triples(P.ring), P.dims, P.twists)
            assert relprod._candidate_ok(Q) is split_reference.sparse_candidate_ok(*args)
    # the characters decide every candidate here, except the permuted S rows
    # that break Verlinde, which the dense test does
    assert (len(real), len(ring), all_cases, len(cases)) == (17, 8, 257, 34)
    assert [[v for v, _ in decided].count(v) for v in (True, False)] == [31, 10]


# -- what the search guarantees its candidate check ----------------------------


def carrying_inputs():
    """Condensations whose associativity sums carry: (x y) z has coefficients
    of 2 and more, and the search refutes assignments on such sums.  Orbits
    of 2 and 4 children, and inputs where most candidates break the
    conjugate-dual rule of S."""
    s = {k: su2_level(k) for k in (2, 4, 6)}
    ii = get("ising").category.deligne(get("ising_rev").category)
    ii_s4, s4_s4 = ii.deligne(s[4]), s[4].deligne(s[4])
    return [(s4_s4, ["(0,0)", "(0,4)", "(4,0)", "(4,4)"]),
            (ii_s4, ["((1,1),0)", "((1,1),4)", "((psi,psi),0)", "((psi,psi),4)"]),
            (ii.deligne(ii), ["((1,1),(1,1))", "((psi,psi),(psi,psi))"]),
            (s[2].deligne(s[6]), ["(0,0)", "(2,6)"]), (s[6].deligne(s[6]), ["(0,0)", "(6,6)"])]


def searched_candidates(monkeypatch):
    """Every candidate the search hands to its check on the split inputs,
    the reference's cases, the carrying inputs, SU(2)_k x_Z2 SU(2)_k for
    k = 4, 8, 12, and the Z2 stackings of toric_code/e, double_semion,
    ising x ising_rev and SU(2)_4 (each pair once)."""
    def condense(P, bosons):
        return lambda: relprod.condense_by_invertible_bosons(P, bosons)

    def stack(C, D):
        return lambda: relprod.verify_stacking_identity(C[0], D[0], C[1], D[1])

    def z2(P, generator):
        return P, SymmetryEmbedding([2], P.name, {(0,): P.unit, (1,): generator})

    ii = get("ising").category.deligne(get("ising_rev").category)
    z2_cats = [z2(get("toric_code").category, "e"), z2(get("double_semion").category, "b"),
               z2(ii, pair_label("psi", "psi")), z2(su2_level(4), "4")]
    runs = [condense(P, bosons)
            for P, bosons in benchmark_split_inputs() + split_inputs() + carrying_inputs()]
    runs += [stack(z2(su2_level(k), str(k)), z2(su2_level(k), str(k))) for k in (4, 8, 12)]
    runs += [stack(C, D) for i, C in enumerate(z2_cats) for D in z2_cats[i:]]
    return candidates_of(monkeypatch, relprod._candidate_ok, runs)


def test_every_searched_candidate_passes_validation(monkeypatch):
    # the search enforces the ring axioms, the dimension equations and the
    # conjugate-dual rule of S, and dims and twists come from the valid parent:
    # every candidate passes Premodular.validate (before the search enforced
    # the rule, 63 were checked and 24 of them failed it); the S decision of each
    # matches its Cyclo reference
    seen = searched_candidates(monkeypatch)
    assert all(c.validate() == [] for c in seen)
    assert all(c._s_invertibility == cyclo_s_invertibility(c) for c in seen)
    verdicts = [relprod._candidate_ok(c) for c in seen]
    assert (len(seen), verdicts.count(True)) == (39, 39)


def test_split_results_are_the_checked_candidates(monkeypatch):
    # every candidate the search hands to its check is already its least relabelling,
    # and the result is the very candidate that passed: the check and is_nondegenerate
    # compute no S-entry, and is_nondegenerate makes no S decision beyond those the
    # candidate check made
    decisions, generators, results = [], premodular._generators, []
    monkeypatch.setattr(premodular, "_generators",
                        lambda ring: decisions.append(ring) or generators(ring))
    for P, bosons in benchmark_split_inputs() + carrying_inputs():
        decisions.clear()
        seen = candidates_of(monkeypatch, relprod._candidate_ok, [
            lambda: results.append(relprod.condense_by_invertible_bosons(P, bosons))])
        res, made = results[-1], len(decisions)
        result = res.result
        assert any(c is result for c in seen), P.name
        for c in seen:
            assert_least_relabelling(replace(res, result=c))
        assert result.is_nondegenerate() is True and result._s == {}
        assert made == len(decisions) == sum("_s_invertibility" in vars(c) for c in seen)


def balanced_rule(dims, twists, i, i2, j, n_ij, n_i2j) -> bool:
    """S(i2, j) = conj S(i, j) for i2 = i*, each side by the balancing formula
    S(x, y) = sum_k N_(x*)y^k theta_k / (theta_x theta_y) d_k in Cyclo arithmetic."""
    def s(x, y, row):
        return sum((root_of_unity(twists[k] - twists[x] - twists[y]) * dims[k] * n
                    for k, n in row.items() if n), Cyclo.zero())
    return s(i2, j, n_ij) == s(i, j, n_i2j).conjugate()


def test_split_search_makes_no_cyclo_operation(monkeypatch):
    # its value checks, the S decision on each complete candidate (`_candidate_ok`)
    # included, run on packed integers (`premodular.linear_rules`, `_s_table`)
    searching, search = [False], relprod._resolve_split_fusion

    def guarded(name, op):
        def run(*args):
            assert not searching[0], f"Cyclo.{name} in the split search"
            return op(*args)
        return run

    def flagged(*args):
        searching[0] = True
        try:
            return search(*args)
        finally:
            searching[0] = False

    for name in ("__add__", "__mul__", "inverse", "galois"):
        monkeypatch.setattr(Cyclo, name, guarded(name, getattr(Cyclo, name)))
    monkeypatch.setattr(relprod, "_resolve_split_fusion", flagged)
    for P, bosons in benchmark_split_inputs():
        relprod.condense_by_invertible_bosons(P, bosons)


def dimension_equation(dims, a, b, row) -> bool:
    """d_a d_b = sum_c row[c] d_c in Cyclo arithmetic."""
    return dims[a] * dims[b] == sum((dims[c] * v for c, v in row.items() if v), Cyclo.zero())


def test_packed_linear_rules_match_cyclo_arithmetic(monkeypatch):
    # every firing of the search's two rules on the split inputs, the carrying inputs
    # and SU(2)_k x_Z2 SU(2)_k for k = 4, 8, against the same rule in Cyclo arithmetic
    firings, make = {"dim": [], "s": []}, relprod.linear_rules

    def recording(dims, twists, bound):
        dim_rule, s_rule = make(dims, twists, bound)

        def fired(kind, packed, cyclo):
            firings[kind][-1].append((packed, cyclo))
            return packed

        return (lambda a, b, row: fired("dim", dim_rule(a, b, row),
                                        dimension_equation(dims, a, b, row)),
                lambda i, i2, j, n_ij, n_i2j: fired("s", s_rule(i, i2, j, n_ij, n_i2j),
                                                    balanced_rule(dims, twists, i, i2, j,
                                                                  n_ij, n_i2j)))

    def run(verify, *args):
        for runs in firings.values():
            runs.append([])
        verify(*args)

    monkeypatch.setattr(relprod, "linear_rules", recording)
    for P, bosons in benchmark_split_inputs() + carrying_inputs():
        run(relprod.condense_by_invertible_bosons, P, bosons)
    for k in (4, 8):
        P = su2_level(k)
        emb = SymmetryEmbedding([2], P.name, {(0,): P.unit, (1,): str(k)})
        run(relprod.verify_stacking_identity, P, P, emb, emb)
    assert all(packed == cyclo for runs in firings.values() for run in runs
               for packed, cyclo in run)
    # (firings, failing firings) per run: 3 S rules fail on (ising x ising_rev)^2 / Z2xZ2
    # (37 of 536 while every block's involution was drawn before any other class); a
    # dimension equation fails for each k below a row's sum that the set-up tries
    assert {kind: [(len(run), sum(not packed for packed, _ in run)) for run in runs]
            for kind, runs in firings.items()} == {
        "s": [(12, 1), (11, 1), (7, 1), (16, 0), (28, 1), (39, 0), (42, 1), (168, 3),
              (59, 2), (101, 2), (323, 1), (45, 3), (164, 5), (81, 0), (458, 0)],
        "dim": [(10, 5), (10, 5), (6, 3), (17, 9), (21, 10), (25, 13), (46, 16), (130, 65),
                (30, 15), (64, 32), (37, 20), (31, 12), (51, 22), (44, 20), (108, 52)]}
