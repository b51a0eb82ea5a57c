import contextlib
import io
import json
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcat import abelian, premodular, relprod
from setcat.abelian import iter_elements
from setcat.catalog import get
from setcat.cli import main, split_labels
from setcat.cyclo import MAX_CONDUCTOR
from setcat.embedding import SymmetryEmbedding
from setcat.fusion import pair_label
from setcat.io import serialize_category, serialize_embedding, serialize_metric_group, to_text
from setcat.pointed import MetricGroup

from .test_premodular import z2_cubed
from .test_split_differential import ising_squared, rep_d8


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("fixtures")
    assert main(["catalog", "--export", str(d)]) == 0
    return d


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_split_labels_respects_parens():
    assert split_labels("1,e") == ["1", "e"]
    assert split_labels("(0,0),(1,1)") == ["(0,0)", "(1,1)"]
    assert split_labels("((1,1),(0,0)),x") == ["((1,1),(0,0))", "x"]


def test_catalog_lists_fixtures(capsys):
    code, out, _ = run(capsys, ["catalog"])
    assert code == 0
    assert "toric_code" in out
    assert "fibonacci" in out


def test_validate_category(capsys, fixture_dir):
    code, out, _ = run(capsys, ["validate", str(fixture_dir / "toric_code.json")])
    assert code == 0
    assert "valid" in out


def test_validate_embedding_against(capsys, fixture_dir):
    code, out, _ = run(capsys, [
        "validate", str(fixture_dir / "toric_code.emb_e.json"),
        "--against", str(fixture_dir / "toric_code.json")])
    assert code == 0


def test_validate_rejects_float_twist(capsys, fixture_dir, tmp_path):
    obj = json.loads((fixture_dir / "toric_code.json").read_text())
    obj["twists"]["f"] = "0.5"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == 2
    assert "rational" in err or "float" in err


def test_info_json(capsys, fixture_dir):
    code, out, _ = run(capsys, ["info", str(fixture_dir / "ising.json"),
                                "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 3
    assert data["nondegenerate"] is True
    assert data["gauss_sum"] == "2*z16"


def test_condense_toric_to_vec(capsys, fixture_dir):
    code, out, _ = run(capsys, ["condense", str(fixture_dir / "toric_code.json"),
                                "--bosons", "1,e", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["simples"] == ["1"]
    assert data["conservation"]["global_dim_conserved"] is True
    assert data["ambiguity_flags"] == []


def test_condense_bad_bosons_exit_2(capsys, fixture_dir):
    code, _, err = run(capsys, ["condense", str(fixture_dir / "toric_code.json"),
                                "--bosons", "1,f"])
    assert code == 2
    assert "twist" in err


@pytest.mark.parametrize("bosons,message", [("1,x", "unknown boson label 'x'"),
                                            ("e", "the boson group must contain the unit")])
def test_condense_bosons_that_are_no_group_exit_2(capsys, fixture_dir, bosons, message):
    err = assert_input_error(capsys, ["condense", str(fixture_dir / "toric_code.json"),
                                      "--bosons", bosons])
    assert message in err


def test_relprod_toric_toric(capsys, fixture_dir):
    code, out, _ = run(capsys, [
        "relprod", str(fixture_dir / "toric_code.json"),
        str(fixture_dir / "toric_code.json"),
        "--emb", str(fixture_dir / "toric_code.emb_e.json"),
        "--emb", str(fixture_dir / "toric_code.emb_e.json"),
        "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["result"]["simples"]) == 4
    assert len(data["orbits"]) == 4
    assert data["induced_embedding"]["group"] == [2]


def test_equiv_found_and_none(capsys, fixture_dir):
    code, out, _ = run(capsys, ["equiv", str(fixture_dir / "toric_code.json"),
                                str(fixture_dir / "double_2.json")])
    assert code == 0
    code, out, _ = run(capsys, ["equiv", str(fixture_dir / "toric_code.json"),
                                str(fixture_dir / "double_semion.json")])
    assert code == 1
    assert "none" in out


def test_equiv_respecting_symmetry(capsys, fixture_dir):
    code, out, _ = run(capsys, [
        "equiv", str(fixture_dir / "toric_code.json"),
        str(fixture_dir / "toric_code.json"),
        "--emb", str(fixture_dir / "toric_code.emb_e.json"),
        "--emb", str(fixture_dir / "toric_code.emb_m.json"),
        "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["mapping"]["e"] == "m"


def test_verify_unit_law_cli(capsys, fixture_dir):
    code, out, _ = run(capsys, [
        "verify", "unit-law", str(fixture_dir / "toric_code.json"),
        "--emb", str(fixture_dir / "toric_code.emb_e.json")])
    assert code == 0
    assert "true" in out.lower()


def test_verify_centralizer_set_cli(capsys, fixture_dir):
    code, out, _ = run(capsys, [
        "verify", "centralizer-set", str(fixture_dir / "double_semion.json"),
        "--emb", str(fixture_dir / "double_semion.emb_boson.json")])
    assert code == 0


def test_verify_arithmetic_cli(capsys):
    code, out, _ = run(capsys, ["verify", "arithmetic", "--count", "50",
                                "--seed", "11", "--format", "json"])
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_verify_pointed_oracle_cli(capsys):
    code, out, _ = run(capsys, ["verify", "pointed-oracle", "--count", "5",
                                "--max-order", "16", "--seed", "3"])
    assert code == 0


def test_double_command(capsys, tmp_path):
    code, out, _ = run(capsys, ["double", "--group", "2",
                                "--out-dir", str(tmp_path)])
    assert code == 0
    cat = json.loads((tmp_path / "double_2.json").read_text())
    assert len(cat["simples"]) == 4


@pytest.mark.parametrize("argv", [["catalog", "--export", "e"],
                                  ["double", "--group", "2", "--out-dir", "e"],
                                  ["rep", "--group", "4", "--out-dir", "e"]],
                         ids=["catalog", "double", "rep"])
def test_export_report_follows_format_and_out(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, text, _ = run(capsys, argv)
    files = {p.name: p.read_bytes() for p in Path("e").iterdir()}
    written = text.splitlines()
    assert code == 0
    assert sorted(written) == sorted(f"e/{name}" for name in files)
    assert run(capsys, argv + ["--format", "json"]) == (
        0, json.dumps({"written": written}, indent=2) + "\n", "")
    assert run(capsys, argv + ["--out", "report.txt"]) == (0, "", "")
    assert Path("report.txt").read_text() == text
    assert run(capsys, argv + ["--format", "json", "--out", "report.json"]) == (0, "", "")
    assert json.loads(Path("report.json").read_text()) == {"written": written}
    assert {p.name: p.read_bytes() for p in Path("e").iterdir()} == files


def test_product_command(capsys, fixture_dir):
    code, out, _ = run(capsys, ["product", str(fixture_dir / "semion.json"),
                                str(fixture_dir / "anti_semion.json"),
                                "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["simples"]) == 4
    assert sorted(data["twists"].values()) == ["0", "0", "1/4", "3/4"]


def test_center_and_centralizer_commands(capsys, fixture_dir):
    code, out, _ = run(capsys, ["center", str(fixture_dir / "rep_z4.json"),
                                "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["muger_center"]) == 4
    code, out, _ = run(capsys, ["centralizer", str(fixture_dir / "toric_code.json"),
                                "--labels", "1,e", "--format", "json"])
    assert code == 0
    assert json.loads(out)["centralizer"] == ["1", "e"]


def test_centralizer_of_a_subset_that_is_not_dual_closed_exit_2(capsys, fixture_dir):
    err = assert_input_error(capsys, ["centralizer", str(fixture_dir / "double_3.json"),
                                      "--labels", "(0,0),(0,1)"])
    assert "centralizer input is not dual-closed at '(0,1)'" in err


def test_validate_embedding_without_against_exit_2(capsys, fixture_dir):
    err = assert_input_error(capsys, ["validate", str(fixture_dir / "toric_code.emb_e.json")])
    assert "embedding validation needs --against <category file>" in err


def test_inconclusive_verdict_exit_3(capsys, tmp_path):
    # ising x ising_rev stacked with itself over the Z2 of (psi,psi) decides nothing
    P = get("ising").category.deligne(get("ising_rev").category)
    emb = SymmetryEmbedding([2], P.name, {(0,): pair_label("1", "1"),
                                          (1,): pair_label("psi", "psi")})
    cat, e = tmp_path / "ii.json", tmp_path / "ii.emb.json"
    cat.write_text(to_text(serialize_category(P)))
    e.write_text(to_text(serialize_embedding(emb)))
    argv = ["verify", "stacking", str(cat), str(cat), "--emb", str(e), "--emb", str(e)]
    assert run(capsys, argv) == (3, "verdict: inconclusive\n", "")
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert (code, json.loads(out)["verdict"]) == (3, "inconclusive")


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["info", "/nonexistent/x.json"])
    assert code == 2


def test_reports_are_deterministic(capsys, fixture_dir):
    argv = ["relprod", str(fixture_dir / "toric_code.json"),
            str(fixture_dir / "toric_code.json"),
            "--emb", str(fixture_dir / "toric_code.emb_e.json"),
            "--emb", str(fixture_dir / "toric_code.emb_m.json"),
            "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    code, out3, _ = run(capsys, ["verify", "pointed-oracle", "--count", "3",
                                 "--max-order", "16", "--seed", "9",
                                 "--format", "json"])
    _, out4, _ = run(capsys, ["verify", "pointed-oracle", "--count", "3",
                              "--max-order", "16", "--seed", "9",
                              "--format", "json"])
    assert out3 == out4


def test_verify_nondegeneracy_cli(capsys, fixture_dir):
    code, out, _ = run(capsys, [
        "verify", "nondegeneracy",
        str(fixture_dir / "toric_code.json"), str(fixture_dir / "double_2.json"),
        "--emb", str(fixture_dir / "toric_code.emb_e.json"),
        "--emb", str(fixture_dir / "double_2.emb_canonical.json"),
        "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["factors_nondegenerate"] is True
    assert data["result_nondegenerate"] is True


def test_verify_nondegeneracy_degenerate_factor_cli(capsys, fixture_dir):
    # Rep(Z2) is degenerate: nothing to preserve, so the verdict is vacuously true
    code, out, _ = run(capsys, [
        "verify", "nondegeneracy",
        str(fixture_dir / "rep_z2.json"), str(fixture_dir / "toric_code.json"),
        "--emb", str(fixture_dir / "rep_z2.emb_identity.json"),
        "--emb", str(fixture_dir / "toric_code.emb_e.json"),
        "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["factors_nondegenerate"] is False
    assert data["verdict"] is True


def assert_input_error(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "input error" in err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("kind,flag,value,bound", [
    ("pointed-oracle", "--max-order", "1", "2"), ("pointed-oracle", "--max-order", "0", "2"),
    ("pointed-oracle", "--count", "-3", "1"), ("arithmetic", "--count", "-3", "1"),
    ("arithmetic", "--count", "0", "1")])
def test_verify_trial_arguments_out_of_range_exit_2(capsys, kind, flag, value, bound):
    err = assert_input_error(capsys, ["verify", kind, flag, value])
    assert f"{flag} must be at least {bound}, got {value}" in err


def _refused_argv():
    """(argv, stderr text) for each flag or combination that a command does not
    read, and for each single-value option given twice, with its id; files are
    fixture names, and OUT is a path in a scratch directory.  Each once exited 0,
    the flag (or the option's first value) ignored."""
    one = ["toric_code", "--emb", "toric_code.emb_e"]
    two = ["toric_code", "double_2", "--emb", "toric_code.emb_e",
           "--emb", "double_2.emb_canonical"]
    unread = "unrecognized arguments"
    cases = [(f"{kind} {flag}", ["verify", kind] + files + [flag, value], unread)
             for kind, files in (("unit-law", one), ("centralizer-set", one),
                                 ("stacking", two), ("nondegeneracy", two))
             for flag, value in (("--count", "5"), ("--max-order", "16"), ("--seed", "3"))]
    trials = {"pointed-oracle": ["--count", "2", "--max-order", "8"],
              "arithmetic": ["--count", "5"]}
    cases += [(f"{kind} {extra[0]}", ["verify", kind] + extra + trials[kind], unread)
              for kind in trials
              for extra in (["toric_code"], ["--emb", "toric_code.emb_e"])]
    cases += [
        ("arithmetic --max-order", ["verify", "arithmetic", "--count", "5",
                                    "--max-order", "16"], unread),
        ("flag before the kind", ["verify", "--format", "json", "unit-law"] + one,
         "invalid choice: 'json'"),
        ("centralizer --labels --emb", ["centralizer", "toric_code", "--labels", "1,e",
                                        "--emb", "toric_code.emb_e"],
         "argument --emb: not allowed with argument --labels"),
        ("centralizer --emb twice", ["centralizer", "toric_code", "--emb", "toric_code.emb_e",
                                     "--emb", "/nonexistent.json"],
         "centralizer needs one --emb per category file (1), got 2"),
        ("validate category --against", ["validate", "toric_code", "--against", "/nonexistent"],
         "--against applies only to embedding files"),
    ]
    cases += [(f"{flag} twice", argv, f"argument {flag}: may be given only once")
              for flag, argv in (
        ("--against", ["validate", "toric_code.emb_e", "--against", "/nonexistent.json",
                       "--against", "toric_code"]),
        ("--bosons", ["condense", "toric_code", "--bosons", "1,m", "--bosons", "1,e"]),
        ("--labels", ["centralizer", "toric_code", "--labels", "1,m", "--labels", "1,e"]),
        ("--out", ["info", "toric_code", "--out", "OUT", "--out", "OUT"]),
        ("--format", ["info", "toric_code", "--format", "json", "--format", "text"]),
        ("--count", ["verify", "arithmetic", "--count", "200", "--count", "5"]),
        ("--seed", ["verify", "arithmetic", "--count", "5", "--seed", "1", "--seed", "2"]),
        ("--max-order", ["verify", "pointed-oracle", "--count", "2", "--max-order", "64",
                         "--max-order", "8"]),
        ("--group", ["double", "--group", "x", "--group", "2"]),
        ("--out-dir", ["rep", "--group", "2", "--out-dir", "OUT", "--out-dir", "OUT"]),
        ("--export", ["catalog", "--export", "OUT", "--export", "OUT"]))]
    return [pytest.param(argv, message, id=name) for name, argv, message in cases]


@pytest.mark.parametrize("argv,message", _refused_argv())
def test_unread_flags_exit_2(capsys, fixture_dir, tmp_path, argv, message):
    files = {p.name[:-len(".json")]: str(p) for p in fixture_dir.glob("*.json")}
    files["OUT"] = str(tmp_path / "out")
    try:
        code = main([files.get(a, a) for a in argv])
    except SystemExit as exc:  # an argparse refusal
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


def write_json(tmp_path, obj) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("argv", [["double", "--group", "x"],
                                  ["rep", "--group", "2.5"]])
def test_bad_group_exit_2(capsys, argv):
    assert_input_error(capsys, argv)


@pytest.mark.parametrize("field,value", [("fusion", 5), ("dims", "1"), ("name", 7),
                                         ("dual", {"1": "1", "e": ["e"]})])
def test_malformed_category_file_exit_2(capsys, fixture_dir, tmp_path, field, value):
    obj = json.loads((fixture_dir / "toric_code.json").read_text())
    obj[field] = value
    assert_input_error(capsys, ["validate", write_json(tmp_path, obj)])


def test_metric_group_q_list_exit_2(capsys, tmp_path):
    obj = {"name": "z2", "invariant_factors": [2], "q": ["0", "1/4"]}
    assert_input_error(capsys, ["validate", write_json(tmp_path, obj)])


def test_invalid_order_64_metric_group_lists_its_first_five_triples(capsys, tmp_path):
    # a quadratic form on Z8 x Z8, then q = 1/3 at (1,2) and at its negative
    q = {(x, y): Fraction(x * x + 2 * x * y + 3 * y * y, 16) for x, y in iter_elements([8, 8])}
    obj = serialize_metric_group(MetricGroup([8, 8], q, name="z8 x z8"))
    obj["q"]["1,2"] = obj["q"]["7,6"] = "1/3"
    code, out, _ = run(capsys, ["validate", write_json(tmp_path, obj)])
    assert code == 1  # the invalid verdict; parse errors exit 2
    assert out == "invalid metric_group: metric group fails validation: " + "; ".join(
        f"B not biadditive at ((0,1),(0,1),{c})"
        for c in ("(1,0)", "(1,1)", "(1,2)", "(7,4)", "(7,5)")) + "\n"


@pytest.mark.parametrize("field,value", [("map", ["1", "e"]), ("target", 3),
                                         ("map", {"0": "1", "5": "e"}),
                                         ("map", {"0": "1", " 0": "e"})])
def test_malformed_embedding_file_exit_2(capsys, fixture_dir, tmp_path, field, value):
    obj = json.loads((fixture_dir / "toric_code.emb_e.json").read_text())
    obj[field] = value
    assert_input_error(capsys, ["validate", write_json(tmp_path, obj),
                                "--against", str(fixture_dir / "toric_code.json")])


HUGE = "1" * 5000  # beyond Python's limit on str -> int digits


@pytest.mark.parametrize("path,raw", [(("twists", "s"), f'"{HUGE}/4"'),
                                      (("dims", "s"), f'"{HUGE}"'),
                                      (("name",), HUGE),
                                      (("dims", "s"), f'"z5^{HUGE}"')],
                         ids=["twist-numerator", "dim-integer", "json-integer", "root-exponent"])
def test_huge_integer_exit_2(capsys, fixture_dir, tmp_path, path, raw):
    obj = json.loads((fixture_dir / "semion.json").read_text())
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "HUGE"
    bad = tmp_path / "semion.json"
    bad.write_text(json.dumps(obj).replace('"HUGE"', raw))
    assert_input_error(capsys, ["validate", str(bad)])


def test_embedding_group_bounded_by_map_exit_2(capsys, fixture_dir, tmp_path, monkeypatch):
    enumerate_small = abelian.iter_elements

    def no_large_groups(factors):
        if prod(factors) > 10**6:
            raise AssertionError("enumerated a group larger than its map")
        return enumerate_small(factors)

    monkeypatch.setattr("setcat.abelian.iter_elements", no_large_groups)
    obj = {"group": [10**9], "target": "toric_code", "map": {}}
    err = assert_input_error(capsys, ["validate", write_json(tmp_path, obj),
                                      "--against", str(fixture_dir / "toric_code.json")])
    assert "map has 0 entries, but the group has order 1000000000" in err


def no_arithmetic(*args):
    raise AssertionError("cyclotomic arithmetic ran on an over-limit input")


@pytest.mark.parametrize("field,value", [("dims", "z1000000"), ("twists", "1/1000000")])
def test_conductor_limit_exit_2(capsys, fixture_dir, tmp_path, monkeypatch, field, value):
    obj = json.loads((fixture_dir / "toric_code.json").read_text())
    obj[field]["e"] = value
    path = write_json(tmp_path, obj)
    monkeypatch.setattr("setcat.cyclo._canonical", no_arithmetic)
    code, _, err = run(capsys, ["info", path])
    assert code == 2
    assert "Traceback" not in err
    assert f"conductor limit {MAX_CONDUCTOR}" in err
    assert "1000000" in err


def test_twists_whose_lcm_is_above_the_conductor_limit_exit_3(capsys, fixture_dir, tmp_path,
                                                               monkeypatch):
    # each twist's denominator is within the limit, their lcm is far above it: the S rule's
    # field is refused before Phi_n or any value is made there (the S-entries that validation
    # once computed filled the memory); bad dims are reported first, as an input error
    obj = json.loads((fixture_dir / "toric_code.json").read_text())
    obj["twists"] = {"1": "0", "e": "1/9973", "m": "1/9967", "f": "1/9949"}
    monkeypatch.setattr("setcat.cyclo._canonical", no_arithmetic)
    phi = premodular.cyclotomic_polynomial
    monkeypatch.setattr(premodular, "cyclotomic_polynomial",
                        lambda n: phi(n) if n <= MAX_CONDUCTOR else no_arithmetic())
    code, _, err = run(capsys, ["validate", write_json(tmp_path, obj)])
    assert code == 3
    assert err == ("internal fault: the dims and twists lie at conductor 988,939,464,559, "
                   "above the limit MAX_CONDUCTOR = 10,000\n")
    obj["dims"]["e"] = "2"
    code, _, err = run(capsys, ["info", write_json(tmp_path, obj)])
    assert code == 2
    assert "Traceback" not in err
    assert "fails validation: dims: dimension equation fails at (e,e)" in err


def test_split_ising_squared_exit_0(capsys, tmp_path):
    P, bosons = ising_squared()
    path = tmp_path / "ii2.json"
    path.write_text(to_text(serialize_category(P)))
    code, out, err = run(capsys, ["condense", str(path), "--bosons", ",".join(bosons)])
    assert (code, err) == (0, "")
    assert "splits into 4" in out and "ambiguity" not in out


def test_split_node_budget_exit_3(capsys, tmp_path, monkeypatch):
    # an engine limit is an internal fault (exit 3) that names its numbers
    monkeypatch.setattr(relprod, "_SEARCH_NODE_BUDGET", 10)
    path = tmp_path / "ii.json"
    path.write_text(to_text(serialize_category(
        get("ising").category.deligne(get("ising_rev").category))))
    code, out, err = run(capsys, ["condense", str(path), "--bosons", "(1,1),(psi,psi)"])
    assert (code, out) == (3, "")
    assert err.startswith("internal fault: splitting enumeration exhausted its search budget "
                          "of 10 nodes over ") and "Traceback" not in err


def test_split_without_consistent_fusion_exit_2(capsys, tmp_path):
    # the Ising fusion ring with every twist 0 validates, yet no braiding
    # exists, and the fixed point sigma of {1, psi} has no consistent splitting:
    # its dim sqrt(2) is below 2, so the engine refuses it before the search
    ising = serialize_category(get("ising").category)
    ising.update(name="ising_untwisted", twists=dict.fromkeys(ising["twists"], "0"))
    path = tmp_path / "ising0.json"
    path.write_text(to_text(ising))
    assert run(capsys, ["validate", str(path)])[0] == 0
    err = assert_input_error(capsys, ["condense", str(path), "--bosons", "1,psi"])
    assert "ising_untwisted" in err and "split orbit(s) sigma" in err
    assert "either the data is not a braided category, or the stabilizer carries" in err


def test_split_search_without_consistent_fusion_exit_2(capsys, tmp_path):
    # the Rep(D8) fusion ring with twists 1/2 on b and c and 1/16 on m validates, and
    # the dim-2 fixed point m of {1, a} has room for 2 children; the search itself
    # finds no consistent assignment
    path = tmp_path / "rep_d8.json"
    path.write_text(to_text(serialize_category(
        rep_d8((0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 16))))))
    assert run(capsys, ["validate", str(path)])[0] == 0
    err = assert_input_error(capsys, ["condense", str(path), "--bosons", "1,a"])
    assert "rep_d8: no fusion assignment of the split orbit(s) m is consistent: either the " \
        "data is not a braided category, or a stabilizer carries a nontrivial 2-cocycle" in err


def test_split_orbit_with_a_2_cocycle_exit_2(capsys, fixture_dir, tmp_path):
    # (ising x ising_rev) x ising validates; its Z2 x Z2 of bosons fixes the dim-2 sqrt(2)
    # label ((sigma,sigma),sigma), which cannot split into 4 children of dim sqrt(2)/2
    ii = str(tmp_path / "ii.json")
    assert run(capsys, ["product", str(fixture_dir / "ising.json"),
                        str(fixture_dir / "ising_rev.json"), "--out", ii])[0] == 0
    iii = str(tmp_path / "iii.json")
    assert run(capsys, ["product", ii, str(fixture_dir / "ising.json"), "--out", iii])[0] == 0
    assert run(capsys, ["validate", iii])[0] == 0
    err = assert_input_error(capsys, ["condense", iii, "--bosons",
                                      "((1,1),1),((1,psi),psi),((psi,1),psi),((psi,psi),1)"])
    assert "split orbit(s) ((sigma,sigma),sigma): dim 2*z8 - 2*z8^3" in err
    assert "stabilizer's order 4" in err and "nontrivial 2-cocycle" in err



def test_validated_but_inconsistent_data_exit_2(capsys, tmp_path):
    # the file validates, yet it is no braided category. The labels transparent
    # to the boson (1,0,0) are not closed under fusion, and the Mueger center
    # is trivial while the S-matrix is singular.
    path = tmp_path / "z2cubed.json"
    path.write_text(to_text(serialize_category(z2_cubed())))
    assert run(capsys, ["validate", str(path)])[0] == 0
    err = assert_input_error(capsys, ["condense", str(path), "--bosons", "(0,0,0),(1,0,0)"])
    assert "(0,0,1) x (0,1,0) contains the confined label (0,1,1)" in err
    err = assert_input_error(capsys, ["info", str(path)])
    assert "z2cubed" in err and "not a braided category" in err


# -- fuzzed input files ------------------------------------------------------------

# Each mutation leaves a file that is malformed or invalid: a value of another
# JSON type, a string that no longer parses or names no label, or a missing
# field.  Names stay out of the string mutations, which would leave them valid.
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=2),
                    st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2))
_SUFFIXES = st.sampled_from(["/", "(", "^", "*", "@", " 1"])


def _paths(node, path=()):
    """The path of every node below the root of a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(data, obj):
    obj = json.loads(json.dumps(obj))
    paths = list(_paths(obj))
    strings = [p for p in paths if p != ("name",) and isinstance(_at(obj, p), str)]
    required = [k for k in obj if k != "name" or "simples" in obj]  # metric groups default it
    kind = data.draw(st.sampled_from(["type", "string", "field"]))
    if kind == "field":
        del obj[data.draw(st.sampled_from(required))]
        return obj
    path = data.draw(st.sampled_from(strings if kind == "string" else paths))
    old = _at(obj, path[:-1])[path[-1]]
    new = (old + data.draw(_SUFFIXES) if kind == "string" else
           data.draw(_VALUES.filter(lambda v: type(v) is not type(old))))
    _at(obj, path[:-1])[path[-1]] = new
    return obj


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _metric_group_file():
    q = {a: Fraction(a[0] ** 2, 4) + Fraction(a[1] ** 2, 8) for a in iter_elements([2, 4])}
    M = MetricGroup([2, 4], q, name="semion x z4")
    assert M.validate() == []
    return serialize_metric_group(M)


@pytest.mark.parametrize("source,argv", [
    ("toric_code.json", ["info"]),
    ("fibonacci.json", ["info"]),
    ("ising.json", ["info"]),
    ("toric_code.emb_e.json", ["centralizer", "toric_code.json", "--emb"]),
    (None, ["validate"]),
], ids=["toric-code", "fibonacci", "ising", "embedding", "metric-group"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_input_files_exit_2(fixture_dir, source, argv, data):
    obj = (json.loads((fixture_dir / source).read_text()) if source
           else _metric_group_file())
    path = fixture_dir / "fuzzed.json"
    path.write_text(json.dumps(_mutate(data, obj)))
    argv = [str(fixture_dir / a) if a.endswith(".json") else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + [str(path)])
    assert code == 2, err.getvalue()
    assert err.getvalue().startswith("input error") and "Traceback" not in err.getvalue()


def test_metric_group_factor_zero_exit_2(capsys, tmp_path):
    obj = {"name": "z2 x z0", "invariant_factors": [2, 0], "q_poly": {"0,0": "1/4"}}
    err = assert_input_error(capsys, ["validate", write_json(tmp_path, obj)])
    assert "invariant factor 0 is not a positive integer" in err
