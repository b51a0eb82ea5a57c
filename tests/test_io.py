import json
from fractions import Fraction

import pytest

from setcat.catalog import catalog, get
from setcat.cyclo import MAX_CONDUCTOR, root_of_unity
from setcat.errors import InternalFault, LimitExceeded, SyntaxInputError, ValidationInputError
from setcat.io import (file_kind, loads, parse_category, parse_embedding,
                       parse_metric_group, serialize_category,
                       serialize_embedding, serialize_metric_group, to_text)
from setcat.pointed import MetricGroup
from setcat.premodular import Premodular

from .dense_reference import triples


def test_category_roundtrip_all_fixtures():
    for entry in catalog().values():
        obj = serialize_category(entry.category)
        back = parse_category(to_text(obj))
        assert serialize_category(back) == obj
        assert back.labels == entry.category.labels
        for x in back.labels:
            assert back.dim(x) == entry.category.dim(x)
            assert back.twist(x) == entry.category.twist(x)
        assert triples(back.ring) == triples(entry.category.ring)


def test_embedding_roundtrip_all_fixtures():
    for entry in catalog().values():
        for emb in entry.embeddings.values():
            obj = serialize_embedding(emb)
            back = parse_embedding(to_text(obj), entry.category)
            assert serialize_embedding(back) == obj


def test_metric_group_roundtrip():
    from fractions import Fraction
    q = {(a, b): Fraction(a * b, 2) for a in range(2) for b in range(2)}
    M = MetricGroup([2, 2], q, name="toric_mg")
    obj = serialize_metric_group(M)
    back = parse_metric_group(to_text(obj))
    assert serialize_metric_group(back) == obj


def test_metric_group_poly_rule():
    text = json.dumps({
        "name": "semion",
        "invariant_factors": [2],
        "q_poly": {"0,0": "1/4"},
    })
    M = parse_metric_group(text)
    from fractions import Fraction
    assert M.q[(1,)] == Fraction(1, 4)


def test_float_twist_rejected_as_syntax():
    entry = catalog()["toric_code"]
    obj = serialize_category(entry.category)
    obj["twists"]["f"] = "0.5"
    with pytest.raises(SyntaxInputError):
        parse_category(to_text(obj))
    obj["twists"]["f"] = 0.5
    with pytest.raises(SyntaxInputError):
        parse_category(json.dumps(obj))


@pytest.mark.parametrize("field,value,message", [
    ("dims", "z99991", f"root z99991 exceeds the conductor limit {MAX_CONDUCTOR}"),
    ("twists", "1/99991", f"denominator 99991 exceeds the conductor limit {MAX_CONDUCTOR}")])
def test_parser_refuses_over_limit_values_before_any_value_is_made(field, value, message):
    # the syntax error of the parser, not the LimitExceeded of the value layer
    obj = serialize_category(get("toric_code").category)
    obj[field]["e"] = value
    with pytest.raises(SyntaxInputError, match=message) as err:
        parse_category(to_text(obj))
    assert not isinstance(err.value, LimitExceeded)


def test_float_anywhere_rejected():
    with pytest.raises(SyntaxInputError):
        loads('{"name": "x", "value": 0.25}')


def test_validation_rejection_distinct_from_syntax():
    entry = catalog()["toric_code"]
    obj = serialize_category(entry.category)
    obj["twists"]["e"] = "1/4"  # inconsistent twist data (parses, fails validation)
    with pytest.raises(ValidationInputError):
        parse_category(to_text(obj))


def test_file_kind_detection():
    entry = catalog()["toric_code"]
    assert file_kind(serialize_category(entry.category)) == "category"
    assert file_kind(serialize_embedding(entry.embeddings["e"])) == "embedding"
    assert file_kind({"invariant_factors": [2], "q": {}}) == "metric_group"
    with pytest.raises(SyntaxInputError):
        file_kind({"bogus": 1})


def test_metric_group_without_invariant_factors_names_the_field():
    with pytest.raises(SyntaxInputError, match="misses field 'invariant_factors'"):
        parse_metric_group({"name": "x", "q": {}})


def test_missing_dim_label_reported():
    entry = catalog()["toric_code"]
    obj = serialize_category(entry.category)
    del obj["dims"]["m"]
    with pytest.raises(SyntaxInputError) as err:
        parse_category(to_text(obj))
    assert "m" in str(err.value)


def test_serialize_refuses_values_above_the_conductor_limit():
    # a dim of conductor 11,803 can no longer be made, so only a twist can be
    # above the limit when a category is written
    toric = get("toric_code").category
    with pytest.raises(LimitExceeded, match="conductor 11,803, above the limit MAX_CONDUCTOR"):
        root_of_unity(Fraction(11, 29)) * (
            root_of_unity(Fraction(6, 11)) + root_of_unity(Fraction(1, 37)))
    P = Premodular(toric.ring, toric.dims, dict(toric.twists, e=Fraction(1, 11_803)),
                   name="big")
    with pytest.raises(InternalFault, match="the twist of 'e' has denominator 11803"):
        serialize_category(P)


@pytest.mark.parametrize("field,value", [("dims", "1"), ("twists", "0"), ("dual", "e")])
def test_category_entry_for_no_simple_is_refused(field, value):
    obj = serialize_category(get("toric_code").category)
    obj[field]["x"] = value
    with pytest.raises(SyntaxInputError,
                       match=f"{field} has an entry for 'x', which is not in simples"):
        parse_category(to_text(obj))


def test_category_second_fusion_row_is_refused():
    obj = serialize_category(get("toric_code").category)
    obj["fusion"].insert(0, ["e", "m", "f", 2])  # read first, then overwritten
    with pytest.raises(SyntaxInputError, match=r"second row for \['e', 'm', 'f'\]"):
        parse_category(to_text(obj))


@pytest.mark.parametrize("q,message", [
    ({"0": "0", "1": "1/4", "2": "0"}, r"q\[2\]: element \(2,\) is not in the group"),
    ({"0": "0", "1": "1/4", "0,1": "0"}, r"q\[0,1\]: element \(0, 1\) is not in the group"),
    ({"0": "0", "1": "1/4", " 1": "1/4"}, r"q\[ 1\]: a second entry for element \(1,\)")])
def test_metric_group_q_entry_that_is_no_element_is_refused(q, message):
    with pytest.raises(SyntaxInputError, match=message):
        parse_metric_group({"name": "semion", "invariant_factors": [2], "q": q})


@pytest.mark.parametrize("key,message", [
    ("5", r"map\[5\]: element \(5,\) is not in the group with factors \[2\]"),
    ("0,1", r"map\[0,1\]: element \(0, 1\) is not in the group"),
    (" 0", r"map\[ 0\]: a second entry for element \(0,\)")])
def test_embedding_map_key_that_is_no_element_or_repeats_is_refused(key, message):
    entry = get("toric_code")
    obj = serialize_embedding(entry.embeddings["e"])
    obj["map"] = {"0": "1", key: "e"}
    with pytest.raises(SyntaxInputError, match=message):
        parse_embedding(obj, entry.category)


def test_metric_group_with_q_and_q_poly_is_refused():
    obj = {"name": "semion", "invariant_factors": [2], "q": {"0": "0", "1": "1/4"},
           "q_poly": {"0,0": "3/4"}}
    with pytest.raises(SyntaxInputError, match="has both 'q' and 'q_poly'"):
        parse_metric_group(obj)


def test_metric_group_second_q_poly_entry_is_refused():
    obj = {"name": "semion", "invariant_factors": [2], "q_poly": {"0,0": "1/4", "0, 0": "3/4"}}
    with pytest.raises(SyntaxInputError, match=r"q_poly\[0, 0\]: a second entry"):
        parse_metric_group(obj)
