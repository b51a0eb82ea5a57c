"""The relative stacking against the composition it replaced.

`relative_tensor_product` builds only the deconfined part of the Deligne
product and hands the condensation the factors' global dimensions and Gauss
sums.  The reference is the public composition it stands for: condense the
canonical algebra in the full product, `condense_by_invertible_bosons(C.deligne(D),
canonical_algebra(embC, embD))`.  Every field of the two condensation results
must agree, the conservation values as their canonical text, and so must the
serialized result categories and the CLI's `relprod` reports."""

import pytest

from setcat import cli, relprod
from setcat.catalog import get
from setcat.cli import main
from setcat.cyclo import Cyclo, format_cyclo
from setcat.double import drinfeld_double
from setcat.fusion import pair_label
from setcat.io import serialize_category
from setcat.relprod import (canonical_algebra, condense_by_invertible_bosons,
                            relative_centralizer, relative_tensor_product)

from .test_acceptance import STACKING_SET, UNIT_LAW_INSTANCES
from .test_invariants import su2_level
from .test_relprod import z2_embedding


def reference(C, D, embC, embD):
    return condense_by_invertible_bosons(C.deligne(D), canonical_algebra(embC, embD))


def fields(res):
    conservation = {key: format_cyclo(v) if isinstance(v, Cyclo) else v
                    for key, v in res.conservation.items()}
    return (res.algebra, res.deconfined, res.confined, res.orbits, res.splittings,
            res.provenance, res.ambiguity_flags, conservation,
            serialize_category(res.result))


def centralized(C, embC):
    Cp = relative_centralizer(C, embC)
    return Cp, embC.restrict_to(Cp)


def stacking_inputs():
    """(id, C, D, embC, embD): the unit laws, the stacking pairs with their
    centralized forms, and the Z2 self-stackings through a fixed point."""
    cases = []
    for name, key in UNIT_LAW_INSTANCES:
        emb = get(name).embeddings[key]
        Z, embZ = drinfeld_double(emb.group)
        cases.append((f"unit_law {name}/{key}", Z, get(name).category, embZ, emb))
    for n1, k1 in STACKING_SET:
        for n2, k2 in STACKING_SET:
            (C, embC), (D, embD) = ((get(n).category, get(n).embeddings[k])
                                    for n, k in ((n1, k1), (n2, k2)))
            (Cp, embCp), (Dp, embDp) = centralized(C, embC), centralized(D, embD)
            cases.append((f"{n1}/{k1} x {n2}/{k2}", C, D, embC, embD))
            cases.append((f"cent {n1}/{k1} x cent {n2}/{k2}", Cp, Dp, embCp, embDp))
    ii = get("ising").category.deligne(get("ising_rev").category)
    for name, P, boson in (("su2_4", su2_level(4), "4"), ("su2_8", su2_level(8), "8"),
                           ("ising x ising_rev", ii, pair_label("psi", "psi"))):
        emb = z2_embedding(P, boson)
        Pp, embp = centralized(P, emb)
        cases.append((f"{name} x {name}", P, P, emb, emb))
        cases.append((f"cent {name} x cent {name}", Pp, Pp, embp, embp))
    return cases


def test_stacking_matches_the_full_product_composition():
    cases = stacking_inputs()
    assert len(cases) == 8 + 2 * 16 + 2 * 3
    for case_id, C, D, embC, embD in cases:
        res, emb = relative_tensor_product(C, D, embC, embD)
        ref = reference(C, D, embC, embD)
        assert fields(res) == fields(ref), case_id
        assert emb.validate(ref.result) == [], case_id


def test_keyed_product_is_the_full_product_restricted():
    for case_id, C, D, embC, embD in stacking_inputs():
        keys = tuple({x: relprod._charge(P, emb, x) for x in P.labels}
                     for P, emb in ((C, embC), (D, embD)))
        part, full = C.deligne(D, keys), C.deligne(D)
        kept = full.restrict([x for x in full.labels if x in part.ring.index])
        assert list(part.ring.rows()) == list(kept.ring.rows()), case_id  # in order
        assert (part.labels, part.ring.dual, part.dims, part.twists) == \
            (kept.labels, kept.ring.dual, kept.dims, kept.twists), case_id


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_relprod_report_matches_the_full_product_composition(fmt, tmp_path, capsys,
                                                            monkeypatch):
    assert main(["catalog", "--export", str(tmp_path)]) == 0
    emb = str(tmp_path / "double_4.emb_canonical.json")
    argv = ["relprod", str(tmp_path / "double_4.json"), str(tmp_path / "double_4.json"),
            "--emb", emb, "--emb", emb, "--format", fmt]
    capsys.readouterr()
    assert main(argv) == 0
    restricted = capsys.readouterr().out
    monkeypatch.setattr(cli, "relative_tensor_product", lambda C, D, embC, embD: (
        reference(C, D, embC, embD), relative_tensor_product(C, D, embC, embD)[1]))
    assert main(argv) == 0
    assert capsys.readouterr().out == restricted
    assert fmt == "json" or "\nconfined (192): " in restricted
