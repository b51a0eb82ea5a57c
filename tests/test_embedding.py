from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from setcat.catalog import catalog, get
from setcat.double import drinfeld_double, rep_abelian
from setcat.embedding import SymmetryEmbedding
from setcat.premodular import Premodular

from .dense_reference import s_centralizes
from .test_invariants import is_central
from .test_premodular import ising, rep_z2, toric


def test_valid_embedding_toric_e():
    emb = SymmetryEmbedding([2], "toric", {(0,): "1", (1,): "e"})
    assert emb.validate(toric()) == []


def test_invalid_embedding_toric_f():
    emb = SymmetryEmbedding([2], "toric", {(0,): "1", (1,): "f"})
    report = emb.validate(toric())
    assert any("bosonic" in r for r in report)


def test_invalid_embedding_ising_psi():
    emb = SymmetryEmbedding([2], "ising", {(0,): "1", (1,): "psi"})
    report = emb.validate(ising())
    assert any("bosonic" in r for r in report)


@pytest.mark.parametrize("target,image,message", [
    ("toric_code", ["e", "1"], "0 must map to the unit, got 'e'"),
    ("toric_code", ["1", "1"], "embedding is not injective on simples"),
    ("ising", ["1", "sigma"], "image of (1,) is not invertible: d[sigma] != 1"),
    # Z4 onto bosons of D(Z3) that form Z3 x Z3, not Z4
    ("double_3", ["(0,0)", "(0,1)", "(1,0)", "(0,2)"], "not a homomorphism at ((1,),(1,))")])
def test_invalid_embedding_reports_the_broken_invariant(target, image, message):
    emb = SymmetryEmbedding([len(image)], target, {(i,): x for i, x in enumerate(image)})
    report = emb.validate(get(target).category)
    assert message in report
    assert not any("transparent" in line for line in report)


def embeddings_onto_bosons():
    """(category, embedding): every catalog embedding, and every Z2 embedding
    onto an order-2 twist-0 invertible of a catalog category or of a Deligne
    pair of them of rank <= 36."""
    entries = catalog().values()
    cats = [entry.category for entry in entries]
    found = [(entry.category, emb) for entry in entries for emb in entry.embeddings.values()]
    for P in cats + [C.deligne(D) for C, D in combinations_with_replacement(cats, 2)
                     if C.ring.rank() * D.ring.rank() <= 36]:
        found += [(P, SymmetryEmbedding([2], P.name, {(0,): P.unit, (1,): x}))
                  for x in P.labels[1:] if P.is_invertible(x) and P.twist(x) == 0
                  and P.ring.fuse(x, x) == {P.unit: 1}]
    return found


def test_validation_tests_no_pair_for_transparency(monkeypatch):
    # twist-0 invertible images forming a group are transparent (the twist rule),
    # so validation never asks `centralizes`
    found = embeddings_onto_bosons()
    assert len(found) > 100

    def centralizes(self, i, j):
        raise AssertionError(f"validation asked centralizes({i}, {j})")

    monkeypatch.setattr(Premodular, "centralizes", centralizes)
    assert [(P.name, emb.mapping) for P, emb in found if emb.validate(P)] == []


def test_valid_embeddings_have_transparent_images():
    # what the deleted pairwise check tested: each pair of images centralizes,
    # by the twist rule and by Mueger's S criterion
    for P, emb in embeddings_onto_bosons():
        assert emb.validate(P) == []
        for a, b in product(emb.image(), repeat=2):
            assert P.centralizes(a, b) and s_centralizes(P, a, b), (P.name, a, b)


def test_is_central():
    emb = SymmetryEmbedding([2], "toric", {(0,): "1", (1,): "e"})
    assert not is_central(emb, toric())
    emb2 = SymmetryEmbedding([2], "rep_z2", {(0,): "1", (1,): "e"})
    assert emb2.validate(rep_z2()) == []
    assert is_central(emb2, rep_z2())


def test_embedding_image_is_symmetric_subcategory():
    emb = SymmetryEmbedding([2], "toric", {(0,): "1", (1,): "e"})
    C = toric()
    sub = C.restrict(emb.image(), name="image")
    assert sub.validate() == []
    assert sub.muger_center() == sub.labels
    assert all(sub.twist(x) == 0 for x in sub.labels)


def test_monodromy_order_divides_group_order():
    from setcat.cyclo import Cyclo
    C, emb = drinfeld_double([4])
    for e in emb.elements():
        img = emb.mapping[e]
        # order of e in the character group
        k = 1
        cur = e
        while cur != (0,) * len(e):
            cur = tuple((a + b) % n for a, b, n in zip(cur, e, emb.group))
            k += 1
            if cur == (0,) * len(e):
                break
        k = max(k, 1)
        for x in C.labels:
            m = C.monodromy(img, x)
            assert m ** k == Cyclo.one()


def test_double_z2_is_toric_data():
    C, emb = drinfeld_double([2])
    assert C.ring.rank() == 4
    assert sorted(C.twist(x) for x in C.labels) == [0, 0, 0, Fraction(1, 2)]
    assert C.is_nondegenerate()
    assert emb.validate(C) == []


def test_double_z3():
    C, emb = drinfeld_double([3])
    assert C.ring.rank() == 9
    # independent oracle: pairing g*chi mod 3 over Z/3 x Z/3 hits 0 five times
    # (g = 0 or chi = 0) and each of 1/3, 2/3 twice; gauss sum 5 + 2w + 2w^2 = 3
    tw = sorted(C.twist(x) for x in C.labels)
    assert tw == [0, 0, 0, 0, 0, Fraction(1, 3), Fraction(1, 3),
                  Fraction(2, 3), Fraction(2, 3)]
    assert C.gauss_sum() == 3
    assert C.is_nondegenerate()
    assert emb.validate(C) == []


def test_double_trivial_group_is_vec():
    C, emb = drinfeld_double([])
    assert C.ring.rank() == 1
    assert emb.validate(C) == []


def test_rep_abelian_symmetric():
    C, emb = rep_abelian([4])
    assert C.ring.rank() == 4
    assert C.muger_center() == C.labels
    assert emb.validate(C) == []
    assert is_central(emb, C)


def test_double_centralizer_of_image_is_rep():
    # centralizer of the canonical image in Z(Rep G) is the character part
    C, emb = drinfeld_double([2])
    cent = C.centralizer(emb.image())
    assert sorted(cent) == sorted(emb.image())
