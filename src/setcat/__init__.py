"""Exact modular-data computations for braided fusion categories:
condensation of transparent boson groups, relative stacking over a symmetric
subcategory Rep(G), Drinfeld doubles of finite abelian groups, and exact
equivalence search."""

from .cyclo import Cyclo, format_cyclo, parse_cyclo, root_of_unity
from .double import drinfeld_double, rep_abelian
from .embedding import SymmetryEmbedding
from .equiv import canonical_fingerprint, check_bijection, find_equivalence
from .errors import (
    InputError,
    InternalFault,
    LimitExceeded,
    SetcatError,
    SyntaxInputError,
    ValidationInputError,
)
from .fusion import FusionRing, pair_label
from .pointed import MetricGroup
from .premodular import Premodular
from .relprod import (
    CondensationResult,
    canonical_algebra,
    condense_by_invertible_bosons,
    is_deconfined,
    relative_centralizer,
    relative_tensor_product,
    verify_stacking_identity,
    verify_unit_law,
)

__version__ = "0.1.0"

__all__ = [
    "Cyclo", "root_of_unity", "parse_cyclo", "format_cyclo",
    "FusionRing", "pair_label", "Premodular", "MetricGroup",
    "SymmetryEmbedding", "drinfeld_double", "rep_abelian",
    "CondensationResult", "canonical_algebra", "condense_by_invertible_bosons",
    "is_deconfined", "relative_tensor_product", "relative_centralizer",
    "verify_unit_law", "verify_stacking_identity",
    "find_equivalence", "check_bijection", "canonical_fingerprint",
    "SetcatError", "InputError", "SyntaxInputError", "ValidationInputError",
    "InternalFault", "LimitExceeded",
]
