"""Built-in fixture catalog: small exact categories with their declared
symmetry embeddings.  Entries are not validated at run time:
tests/test_io.py parses, and so validates, every category and embedding."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import abelian
from .cyclo import Cyclo, parse_cyclo
from .double import drinfeld_double
from .embedding import SymmetryEmbedding
from .errors import InternalFault
from .fusion import FusionRing
from .pointed import MetricGroup
from .premodular import Premodular

F = Fraction
_ONE = Cyclo.one()


@dataclass
class CatalogEntry:
    name: str
    category: Premodular
    embeddings: dict[str, SymmetryEmbedding] = field(default_factory=dict)


def _pointed(name: str, factors: list[int], q: list[Fraction], labels: list[str],
             embeddings: dict[str, list[str]] | None = None) -> CatalogEntry:
    """The metric group with invariant factors `factors`, with q and the
    labels listed in element order; each embedding of the cyclic group Z/n is
    listed as the images of 0, 1, ..., n-1."""
    elems = abelian.iter_elements(factors)
    cat = MetricGroup(factors, dict(zip(elems, q))).to_premodular(name=name)
    cat = cat.relabel(dict(zip(cat.labels, labels)), name)
    embs = {key: SymmetryEmbedding([len(image)], name,
                                   {(i,): x for i, x in enumerate(image)})
            for key, image in (embeddings or {}).items()}
    return CatalogEntry(name, cat, embs)


def _double(factors: list[int]) -> CatalogEntry:
    cat, emb = drinfeld_double(factors)
    return CatalogEntry(cat.name, cat, {"canonical": emb})


def _ising(reverse: bool) -> CatalogEntry:
    labels = ["1", "psi", "sigma"]
    fusion = {
        ("1", "1", "1"): 1, ("1", "psi", "psi"): 1, ("1", "sigma", "sigma"): 1,
        ("psi", "1", "psi"): 1, ("sigma", "1", "sigma"): 1,
        ("psi", "psi", "1"): 1,
        ("psi", "sigma", "sigma"): 1, ("sigma", "psi", "sigma"): 1,
        ("sigma", "sigma", "1"): 1, ("sigma", "sigma", "psi"): 1,
    }
    ring = FusionRing(labels, {x: x for x in labels}, fusion)
    name = "ising_rev" if reverse else "ising"
    tw = F(15, 16) if reverse else F(1, 16)
    cat = Premodular(ring, {"1": _ONE, "psi": _ONE, "sigma": parse_cyclo("z8 + z8^7")},
                     {"1": F(0), "psi": F(1, 2), "sigma": tw}, name=name)
    return CatalogEntry(name, cat)


def _fibonacci() -> CatalogEntry:
    labels = ["1", "tau"]
    fusion = {("1", "1", "1"): 1, ("1", "tau", "tau"): 1, ("tau", "1", "tau"): 1,
              ("tau", "tau", "1"): 1, ("tau", "tau", "tau"): 1}
    ring = FusionRing(labels, {x: x for x in labels}, fusion)
    cat = Premodular(ring, {"1": _ONE, "tau": parse_cyclo("1 + z5 + z5^4")},
                     {"1": F(0), "tau": F(2, 5)}, name="fibonacci")
    return CatalogEntry("fibonacci", cat)


@lru_cache(maxsize=1)
def catalog() -> dict[str, CatalogEntry]:
    """All fixtures, keyed by name."""
    entries = [
        _pointed("vec", [], [F(0)], ["1"]),
        _pointed("rep_z2", [2], [F(0), F(0)], ["1", "e"],
                 {"identity": ["1", "e"]}),
        _pointed("rep_z4", [4], [F(0)] * 4, ["(0)", "(1)", "(2)", "(3)"],
                 {"identity": ["(0)", "(1)", "(2)", "(3)"]}),
        _pointed("semion", [2], [F(0), F(1, 4)], ["1", "s"]),
        _pointed("anti_semion", [2], [F(0), F(3, 4)], ["1", "s"]),
        _pointed("double_semion", [2, 2], [F(0), F(1, 4), F(3, 4), F(0)],
                 ["1", "s", "sb", "b"], {"boson": ["1", "b"]}),
        _pointed("toric_code", [2, 2], [F(0), F(0), F(0), F(1, 2)],
                 ["1", "e", "m", "f"], {"e": ["1", "e"], "m": ["1", "m"]}),
        _double([2]),
        _double([3]),
        _double([4]),
        _ising(reverse=False),
        _ising(reverse=True),
        _fibonacci(),
    ]
    return {entry.name: entry for entry in entries}


def get(name: str) -> CatalogEntry:
    entries = catalog()
    if name not in entries:
        raise InternalFault(f"no catalog fixture named {name!r}")
    return entries[name]
