from fractions import Fraction
from itertools import permutations

import pytest

from setcat.catalog import catalog, get
from setcat.embedding import SymmetryEmbedding
from setcat.equiv import (canonical_fingerprint, check_bijection,
                          find_equivalence, label_fingerprint)
from setcat.errors import InputError

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
