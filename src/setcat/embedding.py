"""Symmetry embeddings of Rep(G) for finite abelian G, presented by the
character group: an injective homomorphism from the character group onto a
transparent group of invertible bosons of a target category."""

from __future__ import annotations

from dataclasses import dataclass

from . import abelian
from .abelian import Element
from .errors import InputError
from .premodular import Premodular


@dataclass
class SymmetryEmbedding:
    """Map from the character group (invariant factors) into a category's labels."""

    group: list[int]
    target: str
    mapping: dict[Element, str]

    def __post_init__(self):
        self.group = abelian.check_factors(self.group)
        elems = abelian.iter_elements(self.group)
        for e in elems:
            if e not in self.mapping:
                raise InputError(f"embedding map misses group element {e}")
        self.mapping = {e: self.mapping[e] for e in elems}

    def elements(self) -> list[Element]:
        return abelian.iter_elements(self.group)

    def image(self) -> list[str]:
        return [self.mapping[e] for e in self.elements()]

    def map_neg(self, e: Element) -> str:
        """Label of the dual component: invertible images give i^L = map(-e)."""
        return self.mapping[abelian.neg(self.group, e)]

    def validate(self, category: Premodular) -> list[str]:
        """Check the embedding invariants against the validated target.  The
        image's transparency is not tested: a* x b is the one image i(e2 - e1),
        of twist 0, so a and b centralize each other by the twist rule."""
        bad: list[str] = []
        if self.target and category.name and self.target != category.name:
            bad.append(f"target name {self.target!r} does not match {category.name!r}")
        elems = self.elements()
        for e in elems:
            lab = self.mapping[e]
            if lab not in category.ring.index:
                bad.append(f"image {lab!r} of {e} is not a label of the category")
        if any(bad):
            return bad
        zero = abelian.zero(self.group)
        if self.mapping[zero] != category.unit:
            bad.append(f"0 must map to the unit, got {self.mapping[zero]!r}")
        labels = [self.mapping[e] for e in elems]
        if len(set(labels)) != len(labels):
            bad.append("embedding is not injective on simples")
        for e in elems:
            lab = self.mapping[e]
            if not category.is_invertible(lab):
                bad.append(f"image of {e} is not invertible: d[{lab}] != 1")
            if category.twist(lab) != 0:
                bad.append(f"image of {e} is not bosonic: theta[{lab}] != 1")
        if any(bad):
            return bad
        for e1 in elems:
            for e2 in elems:
                s = abelian.add(self.group, e1, e2)
                got = category.ring.fuse(self.mapping[e1], self.mapping[e2])
                if got != {self.mapping[s]: 1}:
                    bad.append(f"not a homomorphism at ({e1},{e2})")
        return bad

    def restrict_to(self, category: Premodular) -> "SymmetryEmbedding":
        """Same mapping retargeted at a subcategory containing the image."""
        for e in self.elements():
            if self.mapping[e] not in category.ring.index:
                raise InputError(
                    f"image label {self.mapping[e]!r} is not in {category.name!r}")
        return SymmetryEmbedding(list(self.group), category.name, dict(self.mapping))


def same_symmetry(emb1: SymmetryEmbedding, emb2: SymmetryEmbedding) -> None:
    if emb1.group != emb2.group:
        raise InputError(
            f"embeddings present different symmetry groups: {emb1.group} vs {emb2.group}")
