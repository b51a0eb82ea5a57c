from fractions import Fraction
from itertools import permutations

import pytest

from setcat.catalog import catalog, get
from setcat.embedding import SymmetryEmbedding
from setcat.cyclo import Cyclo
from setcat.equiv import (canonical_fingerprint, check_bijection, find_equivalence,
                           label_fingerprints)
from setcat.errors import InputError
from setcat.fusion import FusionRing
from setcat.premodular import Premodular

from .equiv_reference import reference_equivalence

F = Fraction


def brute_force_equivalent(P1, P2, emb1=None, emb2=None):
    """Oracle: try every unit-fixing bijection with the independent verifier."""
    if P1.ring.rank() != P2.ring.rank():
        return None
    rest1 = [x for x in P1.labels if x != P1.unit]
    rest2 = [x for x in P2.labels if x != P2.unit]
    for perm in permutations(rest2):
        sigma = {P1.unit: P2.unit}
        sigma.update(dict(zip(rest1, perm)))
        if check_bijection(P1, P2, sigma, emb1, emb2):
            return sigma
    return None


def test_relabeled_toric_found():
    toric = get("toric_code").category
    swapped = toric.relabel({"1": "1", "e": "m", "m": "e", "f": "f"}, "toric_swapped")
    sigma = find_equivalence(toric, swapped)
    assert sigma is not None
    assert sigma == {"1": "1", "e": "m", "m": "e", "f": "f"} or \
        check_bijection(toric, swapped, sigma)


def test_toric_vs_double_semion_none():
    assert find_equivalence(get("toric_code").category,
                            get("double_semion").category) is None


def test_respecting_symmetry_e_vs_m():
    toric = get("toric_code")
    sigma = find_equivalence(toric.category, toric.category,
                             toric.embeddings["e"], toric.embeddings["m"])
    assert sigma is not None
    assert sigma["e"] == "m"


def test_identity_returned_on_self():
    for name in ("toric_code", "ising", "double_semion", "semion"):
        P = get(name).category
        sigma = find_equivalence(P, P)
        assert sigma == {x: x for x in P.labels}


def test_fingerprints_toric_equals_double_z2():
    assert canonical_fingerprint(get("toric_code").category) == \
        canonical_fingerprint(get("double_2").category)


def test_fingerprints_semion_vs_anti_semion_differ():
    assert canonical_fingerprint(get("semion").category) != \
        canonical_fingerprint(get("anti_semion").category)


def test_embedding_mismatch_rejected():
    toric = get("toric_code")
    rz4 = get("rep_z4")
    with pytest.raises(InputError):
        find_equivalence(toric.category, rz4.category,
                         toric.embeddings["e"], rz4.embeddings["identity"])


def test_search_matches_brute_force_small_pairs():
    small = [e for e in catalog().values() if e.category.ring.rank() <= 6]
    for e1 in small:
        for e2 in small:
            got = find_equivalence(e1.category, e2.category)
            want = brute_force_equivalent(e1.category, e2.category)
            assert (got is None) == (want is None), (e1.name, e2.name)
            if got is not None:
                assert check_bijection(e1.category, e2.category, got)


def test_search_reads_no_s_entries_and_the_verifier_does(monkeypatch):
    entries = list(catalog().values())
    calls = []
    s_entry = Premodular.s_entry
    monkeypatch.setattr(Premodular, "s_entry",
                        lambda P, i, j: calls.append((i, j)) or s_entry(P, i, j))
    found = [(e1.category, e2.category, find_equivalence(e1.category, e2.category))
             for e1 in entries for e2 in entries]
    assert calls == []
    assert all(check_bijection(*case) for case in found if case[2] is not None)
    assert calls


def test_verifier_independent_of_search():
    toric = get("toric_code").category
    bad = {"1": "1", "e": "e", "m": "f", "f": "m"}
    assert not check_bijection(toric, toric, bad)
    good = {"1": "1", "e": "m", "m": "e", "f": "f"}
    assert check_bijection(toric, toric, good)


def test_double_z4_pinned_embeddings_not_equivalent():
    # two Z/2 embeddings of the same double whose condensations differ can
    # admit no equivalence respecting the symmetry
    d4 = get("double_4").category
    from setcat.relprod import condense_by_invertible_bosons
    order2 = [x for x in d4.labels
              if x != d4.unit and d4.is_invertible(x) and d4.twist(x) == 0
              and d4.ring.fuse(x, x) == {d4.unit: 1}]
    by_result = {}
    for x in order2:
        res = condense_by_invertible_bosons(d4, [d4.unit, x])
        key = tuple(sorted(res.result.twist(t) for t in res.result.labels))
        by_result.setdefault(key, []).append(x)
    (toric_like, ds_like) = sorted(by_result.values(), key=len, reverse=True)
    a, b = toric_like[0], ds_like[0]
    emb_a = SymmetryEmbedding([2], d4.name, {(0,): d4.unit, (1,): a})
    emb_b = SymmetryEmbedding([2], d4.name, {(0,): d4.unit, (1,): b})
    assert emb_a.validate(d4) == []
    assert emb_b.validate(d4) == []
    assert find_equivalence(d4, d4, emb_a, emb_b) is None
    # and the verdict is stable across a fresh run
    assert find_equivalence(d4, d4, emb_a, emb_b) is None
    # while both subgroups of the same kind are related by an equivalence
    if len(toric_like) > 1:
        emb_c = SymmetryEmbedding([2], d4.name, {(0,): d4.unit, (1,): toric_like[1]})
        assert find_equivalence(d4, d4, emb_a, emb_c) is not None


# -- every bijection the search returns passes the verifier -----------------
#
# find_equivalence does not re-check its result at run time: its pools and
# consistency test enforce what check_bijection verifies (the argument is in
# CHANGES.md).  These tests hold it to that on the inputs the package and the
# benchmark run, and compare it with the search as it was while it still read
# S-entries (tests/equiv_reference.py): pruning by true invariants must leave
# the first bijection in backtracking order, or its absence, unchanged.


@pytest.fixture
def verified(monkeypatch):
    """find_equivalence, also as relprod and randomized call it, with each
    answer compared with the reference search and each bijection checked by
    check_bijection; returns the wrapper and the bijections found."""
    from setcat import randomized, relprod
    found = []

    def search(P1, P2, emb1=None, emb2=None):
        sigma = find_equivalence(P1, P2, emb1, emb2)
        assert sigma == reference_equivalence(P1, P2, emb1, emb2), (P1.name, P2.name)
        if sigma is not None:
            assert check_bijection(P1, P2, sigma, emb1, emb2), (P1.name, P2.name)
            found.append(sigma)
        return sigma

    monkeypatch.setattr(relprod, "find_equivalence", search)
    monkeypatch.setattr(randomized, "find_equivalence", search)
    return search, found


def test_search_results_verify_on_catalog_pairs(verified):
    search, found = verified
    entries = list(catalog().values())
    for e1 in entries:
        for e2 in entries:
            search(e1.category, e2.category)
    embedded = [(e.category, emb) for e in entries for emb in e.embeddings.values()]
    for C1, emb1 in embedded:
        for C2, emb2 in embedded:
            if emb1.group == emb2.group:
                search(C1, C2, emb1, emb2)
    assert len(found) >= len(entries) + len(embedded)


def test_search_results_verify_on_oracle_inputs(verified):
    from setcat.randomized import run_pointed_oracle_trials

    from .test_acceptance import ORACLE_COUNT, ORACLE_SEED
    _, found = verified
    assert run_pointed_oracle_trials(ORACLE_COUNT, 64, ORACLE_SEED)["ok"]
    assert len(found) == ORACLE_COUNT


def test_search_results_verify_on_split_results(verified):
    from .test_split_differential import benchmark_split_inputs, condensed, metric_cyclic
    search, found = verified
    toric, fib = get("toric_code").category, get("fibonacci").category
    rev_fib = fib.reverse()
    references = [toric, metric_cyclic(4, 8), metric_cyclic(3, 3), rev_fib.deligne(rev_fib),
                  None, None, toric.deligne(fib), toric.deligne(toric)]
    for (P, bosons), ref in zip(benchmark_split_inputs(), references):
        result = condensed(P, bosons)
        if ref is None:  # no closed-form reference: the result with its labels reversed
            ref = result.relabel(dict(zip(result.labels, [result.unit, *result.labels[:0:-1]])),
                                 "reversed")
        assert search(result, ref) is not None, P.name
    assert len(found) == len(references)


def test_search_results_verify_on_stack_identities(verified):
    from setcat.relprod import verify_stacking_identity, verify_unit_law

    from .test_acceptance import STACKING_SET, UNIT_LAW_INSTANCES
    _, found = verified
    for name, key in UNIT_LAW_INSTANCES:
        entry = get(name)
        assert verify_unit_law(entry.category, entry.embeddings[key]) is True
    for n1, k1 in STACKING_SET:
        for n2, k2 in STACKING_SET:
            e1, e2 = get(n1), get(n2)
            assert verify_stacking_identity(e1.category, e2.category,
                                            e1.embeddings[k1], e2.embeddings[k2]) is True
    assert len(found) == len(UNIT_LAW_INSTANCES) + len(STACKING_SET) ** 2


def with_twist(P, x, turn):
    return Premodular(P.ring, P.dims, {**P.twists, x: turn}, name=f"{P.name}~twist")


def with_entries_swapped(P, i, j):
    """P with N_ij^k and N_ij^l exchanged, for the first output k of row
    (i, j) and the first label l that is not one."""
    rows = {ij: dict(row) for ij, row in P.ring.rows()}
    row = rows[(i, j)]
    k = next(iter(row))
    l = next(y for y in P.labels if y not in row)
    row[l] = row.pop(k)
    ring = FusionRing(P.labels, P.ring.dual,
                      {(a, b, c): n for (a, b), r in rows.items() for c, n in r.items()})
    return Premodular(ring, P.dims, P.twists, name=f"{P.name}~swap({i},{j})")


def test_perturbed_copies_are_equivalent_to_nothing(verified):
    # one twist changed, or two entries swapped in a row of two distinct
    # labels (so the ring is no longer commutative): no bijection can
    # preserve the data, and neither search may find one
    search, found = verified
    checked = 0
    for e in catalog().values():
        P = e.category
        if P.ring.rank() < 3:
            continue
        x, y = P.labels[1:3]
        for Q in (with_twist(P, x, (P.twist(x) + F(1, 2)) % 1), with_entries_swapped(P, x, y)):
            assert search(P, Q) is None, Q.name
            assert search(Q, P) is None, Q.name
            checked += 1
    assert found == [] and checked >= 16


def test_search_checks_self_rows_without_frobenius_reciprocity():
    # rep_z4 with (1) x (1) = (0): Frobenius reciprocity fails in that row.
    # The search checks self rows entry by entry and finds nothing; the
    # reference, which inferred them by reciprocity, returned a bijection
    # that the verifier rejects.
    P = get("rep_z4").category
    Q = with_entries_swapped(P, "(1)", "(1)")
    assert Q.ring.fuse("(1)", "(1)") == {"(0)": 1}
    assert find_equivalence(P, Q) is None
    sigma = reference_equivalence(P, Q)
    assert sigma is not None and not check_bijection(P, Q, sigma)


def z2_fusion_with_twist(twist):
    """The Z2 fusion ring with twist(f) = twist: balancing-formula data, a
    braided category only for twists in Z/4."""
    ring = FusionRing(["1", "f"], {"1": "1", "f": "f"}, {
        ("1", "1", "1"): 1, ("1", "f", "f"): 1, ("f", "1", "f"): 1, ("f", "f", "1"): 1})
    return Premodular(ring, dict.fromkeys(ring.labels, Cyclo.one()),
                      {"1": F(0), "f": twist}, name=f"z2_{twist}")


def test_turn_denominator_separates_equal_turns():
    # twists 3/5 and 3/10: turn 3 on both, and the balancing value of
    # f x f = 1 is -6 mod 5 = -6 mod 10 = 4; only the denominator differs
    P, Q = z2_fusion_with_twist(F(3, 5)), z2_fusion_with_twist(F(3, 10))
    fp, fq = label_fingerprints(P)["f"], label_fingerprints(Q)["f"]
    assert (fp[1:3], fq[1:3]) == ((3, 5), (3, 10)) and fp[:2] + fp[3:] == fq[:2] + fq[3:]
    assert find_equivalence(P, Q) is None


def test_fingerprint_classes_are_compared_by_size_and_pooled_in_p2_order(monkeypatch):
    """With label_fingerprints replaced: classes with the same fingerprints
    but other sizes give None before any fusion row is read; one class for
    all labels gives the first bijection in P2's label order, not in the
    order of label names."""
    from setcat import equiv
    T = get("toric_code").category
    R = T.relabel({"1": "1", "e": "z", "m": "y", "f": "x"}, "renamed")
    fake = {id(T): dict(zip(T.labels, "abbc")), id(R): dict(zip(R.labels, "abcc"))}
    monkeypatch.setattr(equiv, "label_fingerprints", lambda P: fake[id(P)])

    def no_rows(*args):
        raise AssertionError("the search read a fusion row")

    with monkeypatch.context() as m:
        m.setattr(FusionRing, "fuse", no_rows)
        assert find_equivalence(T, R) is None
    fake = {id(T): dict.fromkeys(T.labels, "a"), id(R): dict.fromkeys(R.labels, "a")}
    assert find_equivalence(T, R) == {"1": "1", "e": "z", "m": "y", "f": "x"}
