"""File formats: JSON-shaped containers whose scalars are exact strings
(rationals "p/q", cyclotomic expressions "z8 + z8^7").  Floats are rejected
everywhere.  A category or embedding file parses iff it validates."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import prod

from .cyclo import MAX_CONDUCTOR, format_cyclo, parse_cyclo, parse_int
from .embedding import SymmetryEmbedding
from .errors import InternalFault, SyntaxInputError, ValidationInputError
from .fusion import FusionRing
from .pointed import MetricGroup, quadratic_form_from_rule
from .premodular import Premodular

_RATIONAL = re.compile(r"-?\d+(/\d+)?$")


def _reject_floats(node, path="$"):
    if isinstance(node, float):
        raise SyntaxInputError(f"floats are forbidden (at {path}); use exact strings")
    if isinstance(node, dict):
        for k, v in node.items():
            _reject_floats(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _reject_floats(v, f"{path}[{i}]")


def loads(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SyntaxInputError(f"malformed JSON: {exc}") from exc
    except ValueError as exc:  # an integer beyond Python's str -> int digit limit
        raise SyntaxInputError("malformed JSON: an integer is too long") from exc
    if not isinstance(obj, dict):
        raise SyntaxInputError("top level must be an object")
    _reject_floats(obj)
    return obj


def _parse_turn(text, field: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise SyntaxInputError(
            f"{field}: expected an exact rational string 'p/q', got {text!r}")
    p, _, q = text.partition("/")
    p, q = parse_int(p), parse_int(q or "1")
    if q == 0:
        raise SyntaxInputError(f"{field}: zero denominator")
    r = Fraction(p, q)
    if r.denominator > MAX_CONDUCTOR:
        raise SyntaxInputError(f"{field}: denominator {r.denominator} exceeds "
                               f"the conductor limit {MAX_CONDUCTOR}")
    return r


def _format_turn(r: Fraction) -> str:
    return str(r)


def _parse_tuple_key(key: str, field: str) -> tuple[int, ...]:
    key = key.strip()
    if key == "":
        return ()
    try:
        return tuple(int(part) for part in key.split(","))
    except ValueError as exc:
        raise SyntaxInputError(f"{field}: bad tuple key {key!r}") from exc


def _format_tuple_key(t: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in t)


def _check_types(obj: dict, types: dict[str, tuple[type, str]]) -> None:
    """Reject a present field whose JSON container type is wrong."""
    for key, (kind, what) in types.items():
        if key in obj and not isinstance(obj[key], kind):
            raise SyntaxInputError(
                f"{key} must be {what}, got a {type(obj[key]).__name__}")


def file_kind(obj: dict) -> str:
    if "simples" in obj:
        return "category"
    if "map" in obj and "target" in obj:
        return "embedding"
    if "invariant_factors" in obj:
        return "metric_group"
    raise SyntaxInputError("unrecognized file kind (no simples/map/invariant_factors)")


# -- categories ---------------------------------------------------------------


def parse_category(obj: dict | str) -> Premodular:
    if isinstance(obj, str):
        obj = loads(obj)
    for key in ("name", "simples", "dual", "fusion", "twists", "dims"):
        if key not in obj:
            raise SyntaxInputError(f"category file misses field {key!r}")
    _check_types(obj, {"name": (str, "a string"),
                       "dual": (dict, "a map label -> label"),
                       "fusion": (list, "a list of [i, j, k, N] rows"),
                       "twists": (dict, "a map label -> turn"),
                       "dims": (dict, "a map label -> exact value")})
    simples = obj["simples"]
    if not isinstance(simples, list) or not all(isinstance(x, str) for x in simples):
        raise SyntaxInputError("simples must be a list of label strings")
    dual = obj["dual"]
    if not all(isinstance(x, str) for x in dual.values()):
        raise SyntaxInputError("dual must be a map label -> label")
    fusion = {}
    for row in obj["fusion"]:
        if (not isinstance(row, list) or len(row) != 4
                or not all(isinstance(x, str) for x in row[:3])
                or not isinstance(row[3], int) or isinstance(row[3], bool)):
            raise SyntaxInputError(f"fusion rows must be [i, j, k, N], got {row!r}")
        if row[3] < 1:
            raise SyntaxInputError(f"fusion multiplicities must be >= 1, got {row!r}")
        fusion[(row[0], row[1], row[2])] = row[3]
    twists = {}
    for x in simples:
        if x not in obj["twists"]:
            raise SyntaxInputError(f"twists misses label {x!r}")
        twists[x] = _parse_turn(obj["twists"][x], f"twists[{x}]")
    dims = {}
    for x in simples:
        if x not in obj["dims"]:
            raise SyntaxInputError(f"dims misses label {x!r}")
        dims[x] = parse_cyclo(obj["dims"][x])
    try:
        ring = FusionRing(simples, dual, fusion)
        cat = Premodular(ring, dims, twists, name=obj["name"])
    except Exception as exc:
        raise ValidationInputError(f"category data rejected: {exc}") from exc
    report = cat.validate()
    if report:
        raise ValidationInputError(
            f"category {obj['name']!r} fails validation: " + "; ".join(report[:5]))
    return cat


def serialize_category(P: Premodular) -> dict:
    for x in P.labels:  # never write a file that parse_category would refuse
        for what, noun, n in (("dim", "conductor", P.dim(x).order),
                              ("twist", "denominator", P.twist(x).denominator)):
            if n > MAX_CONDUCTOR:
                raise InternalFault(f"cannot write category {P.name!r}: the {what} of {x!r} "
                                    f"has {noun} {n}, above the conductor limit {MAX_CONDUCTOR}")
    fusion_rows = sorted(
        ([i, j, k, n] for (i, j), row in P.ring.rows() for k, n in row.items()),
        key=lambda row: (P.ring.index[row[0]], P.ring.index[row[1]],
                         P.ring.index[row[2]]))
    return {
        "name": P.name,
        "simples": list(P.labels),
        "dual": {x: P.dual(x) for x in P.labels},
        "fusion": fusion_rows,
        "twists": {x: _format_turn(P.twist(x)) for x in P.labels},
        "dims": {x: format_cyclo(P.dim(x)) for x in P.labels},
    }


# -- embeddings ----------------------------------------------------------------


def parse_embedding(obj: dict | str, category: Premodular | None = None) -> SymmetryEmbedding:
    if isinstance(obj, str):
        obj = loads(obj)
    for key in ("group", "target", "map"):
        if key not in obj:
            raise SyntaxInputError(f"embedding file misses field {key!r}")
    _check_types(obj, {"target": (str, "a string"),
                       "map": (dict, "a map element -> label")})
    group = obj["group"]
    if not isinstance(group, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in group):
        raise SyntaxInputError("group must be a list of positive integers")
    if prod(group) != len(obj["map"]):  # before anything enumerates the group
        raise SyntaxInputError(f"map has {len(obj['map'])} entries, "
                               f"but the group has order {prod(group)}")
    mapping = {}
    for key, lab in obj["map"].items():
        if not isinstance(lab, str):
            raise SyntaxInputError(f"map[{key}] must be a label string")
        mapping[_parse_tuple_key(key, "map")] = lab
    try:
        emb = SymmetryEmbedding(group, obj["target"], mapping)
    except Exception as exc:
        raise ValidationInputError(f"embedding data rejected: {exc}") from exc
    if category is not None:
        report = emb.validate(category)
        if report:
            raise ValidationInputError(
                "embedding fails validation: " + "; ".join(report[:5]))
    return emb


def serialize_embedding(emb: SymmetryEmbedding) -> dict:
    return {
        "group": list(emb.group),
        "target": emb.target,
        "map": {_format_tuple_key(e): emb.mapping[e] for e in emb.elements()},
    }


# -- metric groups ----------------------------------------------------------------


def parse_metric_group(obj: dict | str) -> MetricGroup:
    if isinstance(obj, str):
        obj = loads(obj)
    _check_types(obj, {"name": (str, "a string"),
                       "q": (dict, "a map element -> turn"),
                       "q_poly": (dict, "a map index pair -> turn")})
    factors = obj["invariant_factors"]
    if not isinstance(factors, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in factors):
        raise SyntaxInputError("invariant_factors must be a list of positive integers")
    if "q" in obj:
        q = {}
        for key, val in obj["q"].items():
            q[_parse_tuple_key(key, "q")] = _parse_turn(val, f"q[{key}]")
    elif "q_poly" in obj:
        coeffs = {}
        for key, val in obj["q_poly"].items():
            idx = _parse_tuple_key(key, "q_poly")
            if len(idx) != 2:
                raise SyntaxInputError(f"q_poly keys are index pairs, got {key!r}")
            coeffs[idx] = _parse_turn(val, f"q_poly[{key}]")
        q = quadratic_form_from_rule(factors, coeffs)
    else:
        raise SyntaxInputError("metric group file needs 'q' or 'q_poly'")
    try:
        M = MetricGroup(factors, q, name=obj.get("name", "metric"))
    except Exception as exc:
        raise ValidationInputError(f"metric group data rejected: {exc}") from exc
    report = M.validate()
    if report:
        raise ValidationInputError(
            "metric group fails validation: " + "; ".join(report[:5]))
    return M


def serialize_metric_group(M: MetricGroup) -> dict:
    return {
        "name": M.name,
        "invariant_factors": list(M.invariant_factors),
        "q": {_format_tuple_key(a): _format_turn(M.q[a]) for a in M.elements()},
    }


def to_text(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
