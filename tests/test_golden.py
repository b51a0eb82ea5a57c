"""Golden-output net: the sha256 of every file `setcat catalog --export`
writes and of a fixed set of `--format json` CLI reports.  The digests were
captured from the engine before the pointed fixtures were rebuilt from metric
groups; a refactor of the structure layer must leave every byte unchanged."""

import hashlib
from pathlib import Path

from setcat.catalog import get
from setcat.cli import main
from setcat.fusion import pair_label
from setcat.io import serialize_category, to_text

from .test_invariants import su2_level
from .test_split_differential import rep_d8

GOLDEN_EXPORT = {
    "anti_semion.json":
        "aed55d67593657468d84633b69c97329c46806d9213e923ba7994aac64619829",
    "double_2.emb_canonical.json":
        "280b795df346423635155b1a11e4b8bb9bcf16ade9aa695f69e3b2d01fc3f052",
    "double_2.json":
        "038c1a0b4f5cc3ae5f3d930c0b2323435489ba3eefac21766efb17587eb72417",
    "double_3.emb_canonical.json":
        "161f44da5ad9b973ba02ddf08bd8549376264e5f2463cd675e17c3f544bc1d77",
    "double_3.json":
        "e36b225fb40d58a8d824f03cd2bce5181d8bcbae84c86cf2369942644e73349a",
    "double_4.emb_canonical.json":
        "c07816680d90e60478359b6d15a358ed0dbdde26c5e85cef91a127ce0913b0eb",
    "double_4.json":
        "f09b437ad747eb370361cf7d82d39234873fcf1dce4f48a54f2f3b2e0af90f88",
    "double_semion.emb_boson.json":
        "103e30a04f517d402ff6b966b839929f8ce00d5d07528df5c1d94b1326fe2ed1",
    "double_semion.json":
        "44bdb5bcbc373f8d5fd7861d86070417c934a18c89dd1620ef6f9298409eedca",
    "fibonacci.json":
        "788f99e286234d5f923b9f2ca53d14cf07ba25b0de6acf7f9c216be9adbad825",
    "ising.json":
        "ff18fe72999c7fa801f29a4cb3f8b76399c33fa5e28bccd60e762323b84640ef",
    "ising_rev.json":
        "f71cb3c224ab1e6263184e721db513940532cd8633fa05a383f07f87c0c2f917",
    "rep_z2.emb_identity.json":
        "9c368b7266ece14ce777fe153bc151974d50376d9edf00eafe5f9ecaf543625c",
    "rep_z2.json":
        "e9435216c91944a7d2767a718fbd8a5e9fd15273c486cb1ec39023c514e45ba8",
    "rep_z4.emb_identity.json":
        "f259127bf9117f45a0904d35a29aa2c6232185c2cc88c5f0e2dc350cf79a877e",
    "rep_z4.json":
        "d49ec0688c9a276a73db506896d4177cb61dd0f6567cba36e041a51466711d9f",
    "semion.json":
        "d50b78008b94d010efc70b2504d02a9399c082e4e16416b5f670d25b1fe59e2f",
    "toric_code.emb_e.json":
        "8cabd0b1f99001d573d7d2ae9552e902969db83f470877bb29edf88238af5f1b",
    "toric_code.emb_m.json":
        "ba041a8c28a12075f82ceae0f1ff6c2b225cccb2900ea486806d7fdf2c3ed074",
    "toric_code.json":
        "323a4de5e7c93db5d2690389761fa336236a634f6f81ddc1d2ace5398b10e8b8",
    "vec.json":
        "adc8d5dc0c3ef6e246ca79d3aac5814b4dd5666617ab864cd0af213e1027d96e",
}

GOLDEN_REPORTS = {
    "info anti_semion":
        "02ce91f82108b92d7eb7126fed7054770c15707480a04d9787f2858975246331",
    "info double_2":
        "f30b479a7ca25df9c973c2322c721d5e400a2f79498160f26ef3bcbfb0e6d776",
    "info double_3":
        "1505bae3fdf5f545621e2e70e754bbd73fd3ebe3be36611147b7635e6d0f35e4",
    "info double_4":
        "aa8a41cdfe745018594536611bb967a158cd9ddbcdffa7e4c68dc70ce97a0666",
    "info double_semion":
        "6c04cd1016f3da1ab92e85e82c0243e5310ffd0432c6903a9ed43fd4386bc7c8",
    "info fibonacci":
        "8729242dee7d573ae5919edd7041c81d7ecb7ca1a63123be05806599b0459844",
    "info ising":
        "1956c139a0c823915c401710a1c157d4dfb513cd212a8b8e23f9485226baf57a",
    "info ising_rev":
        "80be8ede238aa55e07e516521f678dd8b4ccd3ee237afc861102712723dca8fe",
    "info rep_z2":
        "4a261ab5d5566863bea25818977942eaa6baf3cb06c84bce80812879f495986e",
    "info rep_z4":
        "ad993f0cdbd24f7d19549c62f9a4155b4858942b46f28ccdcb4b1f16246198f3",
    "info semion":
        "63bff1af50d53bae0bee598883c187d43f37c1f2efd65d318100de2dcafb48d0",
    "info toric_code":
        "3e35bce1b84d114eb839cf9cf7b54064e6b02bbf42bd9592610fbae581fd32a0",
    "info vec":
        "cf12539f83c0e7ecc05bee9c7a494dbcc220b5be9457c7d6936aade0f982467c",
    "catalog":
        "ffdd070df716003e4066c9549f6fa7d5e0afa8fa06009695900d6a9c05250a7c",
    "condense toric_code 1,e":
        "1a67158acbf3dcac6d86307bfa0f5bb2ef8bfc4dc422a80e4a1bf6c2f7802827",
    "relprod toric_code toric_code e e":
        "295df18806e3b328ea8f788757aa55fa84e1536f4943c6c1c32ae4aa659d7c2d",
    "product semion ising":
        "d2a5613cbc4bdb31d8dd9c544151724fad84d698edbbe8bcc14108e352017211",
    "equiv toric_code double_2":
        "9ce5792d21544e31dfdc186b28285d2907fed721548c9ddd99eee9da75fbe364",
}


# `condense --format json` on the four fixed-point condensations that the
# split-fusion search resolved before its rewrite; each input is written as a
# category file through `serialize_category`
GOLDEN_SPLIT_REPORTS = {
    "condense ising x ising_rev / Z2":
        "70780d681f5d04c2f9d25461681700a99102a835ea42e7b585088dc9da5f9e0a",
    "condense ising x ising / Z2":
        "a5e778195a251886a5ab7320749356a6cfdfa765d2e103e3c5e478fb71696265",
    "condense su2_4 / {0,4}":
        "1c1c7411cb7040b261fe2ed6d2bda14adb6baedcb67313162423164be9ab06ad",
    "condense su2_8 / {0,8}":
        "b3f2611e79edb5a6217f5daf8f6d64f096cdcb2d74eb9b19e2a9585e8ad9b860",
}


# every `verify` kind's report, text and `--format json`, on the exported
# fixtures; the digests were captured before each kind got its own sub-parser
GOLDEN_VERIFY_REPORTS = {
    "unit-law toric_code e text":
        "c18e830fd03b691b3096b50aae65f2b9731009106b67b658f5351fb959fa9a40",
    "unit-law toric_code e json":
        "0f7e6bcb97c718a7ebc6139617f740a602b3afaccd9dea73fd57362b424c82ae",
    "stacking double_4 rep_z4 text":
        "c18e830fd03b691b3096b50aae65f2b9731009106b67b658f5351fb959fa9a40",
    "stacking double_4 rep_z4 json":
        "b6505586f7bdf7ed895a71ab04bdae4f110d248261aa5ecbc4d02a0739c39550",
    "centralizer-set double_semion boson text":
        "c18e830fd03b691b3096b50aae65f2b9731009106b67b658f5351fb959fa9a40",
    "centralizer-set double_semion boson json":
        "ff74af109e7d6b75b6826f69f53d8fc0cebe96ddd533d183e277262650adf3f4",
    "nondegeneracy toric_code double_2 text":
        "c18e830fd03b691b3096b50aae65f2b9731009106b67b658f5351fb959fa9a40",
    "nondegeneracy toric_code double_2 json":
        "e0847e1791a1838a84cef6778dbb433dd406cc7e67b60a917c97c5f3fc0c537e",
    "nondegeneracy rep_z2 toric_code text":
        "c18e830fd03b691b3096b50aae65f2b9731009106b67b658f5351fb959fa9a40",
    "nondegeneracy rep_z2 toric_code json":
        "d6e9db2253a95a3191e94c66ca65ea8ff1ee5d3bbb9220ac46c5f92877dbee7c",
    "pointed-oracle 5 16 3 text":
        "c18e830fd03b691b3096b50aae65f2b9731009106b67b658f5351fb959fa9a40",
    "pointed-oracle 5 16 3 json":
        "429c4b03982a7f98b22f4c538033f9f2ab5a59e1dc93102b572609ce90ace6ba",
    "arithmetic 50 11 text":
        "c18e830fd03b691b3096b50aae65f2b9731009106b67b658f5351fb959fa9a40",
    "arithmetic 50 11 json":
        "a18172d81c8a0c66d671c1789a6c67ecba3ddb8b67cdb51ed07188024afefa1f",
}

VERIFY_RUNS = {
    "unit-law toric_code e":
        ["unit-law", "toric_code", "--emb", "toric_code.emb_e"],
    "stacking double_4 rep_z4":
        ["stacking", "double_4", "rep_z4",
         "--emb", "double_4.emb_canonical", "--emb", "rep_z4.emb_identity"],
    "centralizer-set double_semion boson":
        ["centralizer-set", "double_semion", "--emb", "double_semion.emb_boson"],
    "nondegeneracy toric_code double_2":
        ["nondegeneracy", "toric_code", "double_2",
         "--emb", "toric_code.emb_e", "--emb", "double_2.emb_canonical"],
    "nondegeneracy rep_z2 toric_code":
        ["nondegeneracy", "rep_z2", "toric_code",
         "--emb", "rep_z2.emb_identity", "--emb", "toric_code.emb_e"],
    "pointed-oracle 5 16 3":
        ["pointed-oracle", "--count", "5", "--max-order", "16", "--seed", "3"],
    "arithmetic 50 11": ["arithmetic", "--count", "50", "--seed", "11"],
}


# `double` and `rep` to stdout and with `--out-dir` (the printed paths and every
# file written), `centralizer --emb`, and the text report of a condensation that
# keeps two classes; the digests were captured before the three exporters
# (these two and `catalog --export`) shared one writer
GOLDEN_COMMAND_REPORTS = {
    "double 2,4 text":
        "9ab3453a6a30c27144efe58d98e5463c01389f7630960a3680ec5a623fee61b3",
    "double 2,4 json":
        "bb5793d97efd75341a28722dc2fc1436956154bcfef0c65e9db3f134b1d8934a",
    "double 2,4 --out-dir":
        "61a5e6b78ce809885ca3181418ff343c89c1a12a36e5779a40b37b3b2f828034",
    "rep 4 text":
        "1cec77b9819a3943fcec7d31d5400f58f323af79075552ac3442d81a762d0b1c",
    "rep 4 json":
        "ec87ebf98d4ad3e1fa7e8a0e746bffb9a7cf8f6ae62d59b84e09567f2a22f4dd",
    "rep 4 --out-dir":
        "cf78ea2c55f9bd48ebc97f7a56e8dda0f27a2e48515bdc0cfbf7639b7cdaab89",
    "out/double_2x4.emb_canonical.json":
        "f8e342a6b60043f7b308375bbcb61e2df088ada5c5da3f16103dd127342aa654",
    "out/double_2x4.json":
        "c185fb0a785cf66949c91f7ae1c0bdd5168a0d9e2aa3ed60149f3eb7d7299f86",
    "out/rep_4.emb_canonical.json":
        "260282e398695d4fd08bd95a9b481c57c80cff42e44cec5b4577d3fbe06e5302",
    "out/rep_4.json":
        "55e9b9246f70dd83bf1139064daecd13fe8adc8eea7af59dec7a2b8eb41f7c09",
    "centralizer toric_code --emb e":
        "9ac5ab4adfe2065b3087193793fd5135a7cdbd18caa5445a5b057bca4003fc1c",
    "condense rep_d8 1,a":
        "523d7688033357aa8f9fc55a79fcdd50b5822c8473d4dd43a98752a18668a83d",
}


def split_inputs():
    """(key, category, bosons) for the split inputs 1-4."""
    ising, ising_rev = get("ising").category, get("ising_rev").category
    z2 = [pair_label("1", "1"), pair_label("psi", "psi")]
    return [("condense ising x ising_rev / Z2", ising.deligne(ising_rev), z2),
            ("condense ising x ising / Z2", ising.deligne(ising), z2),
            ("condense su2_4 / {0,4}", su2_level(4), ["0", "4"]),
            ("condense su2_8 / {0,8}", su2_level(8), ["0", "8"])]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli(capsys, argv) -> str:
    assert main(argv) in (0, 1), argv
    return capsys.readouterr().out


def export_digests(capsys, d: Path) -> dict[str, str]:
    _cli(capsys, ["catalog", "--export", str(d)])
    return {p.name: _sha(p.read_text(encoding="utf-8"))
            for p in sorted(d.iterdir())}


def report_digests(capsys, d: Path) -> dict[str, str]:
    """Digests of the JSON reports, run on the exported fixtures in `d`."""
    f = {p.name[:-len(".json")]: str(p) for p in d.iterdir()}
    out = {}
    for name in sorted(f):
        if ".emb_" not in name:
            out[f"info {name}"] = _sha(_cli(capsys, ["info", f[name], "--format", "json"]))
    runs = {
        "catalog": ["catalog"],
        "condense toric_code 1,e": ["condense", f["toric_code"], "--bosons", "1,e"],
        "relprod toric_code toric_code e e": [
            "relprod", f["toric_code"], f["toric_code"],
            "--emb", f["toric_code.emb_e"], "--emb", f["toric_code.emb_e"]],
        "product semion ising": ["product", f["semion"], f["ising"]],
        "equiv toric_code double_2": ["equiv", f["toric_code"], f["double_2"]],
    }
    for key, argv in runs.items():
        out[key] = _sha(_cli(capsys, argv + ["--format", "json"]))
    return out


def verify_digests(capsys, d: Path) -> dict[str, str]:
    """Digests of the verify reports, run on the exported fixtures in `d`."""
    files = {p.name[:-len(".json")]: str(p) for p in d.iterdir()}
    out = {}
    for key, argv in VERIFY_RUNS.items():
        argv = ["verify"] + [files.get(a, a) for a in argv]
        for fmt in ("text", "json"):
            out[f"{key} {fmt}"] = _sha(_cli(capsys, argv + ["--format", fmt]))
    return out


def test_catalog_export_is_byte_identical(capsys, tmp_path):
    assert export_digests(capsys, tmp_path) == GOLDEN_EXPORT


def test_json_reports_are_byte_identical(capsys, tmp_path):
    export_digests(capsys, tmp_path)
    assert report_digests(capsys, tmp_path) == GOLDEN_REPORTS


def test_split_condense_reports_are_byte_identical(capsys, tmp_path):
    out = {}
    for key, P, bosons in split_inputs():
        path = tmp_path / "category.json"
        path.write_text(to_text(serialize_category(P)), encoding="utf-8")
        out[key] = _sha(_cli(capsys, ["condense", str(path), "--bosons", ",".join(bosons),
                                      "--format", "json"]))
    assert out == GOLDEN_SPLIT_REPORTS


def test_verify_reports_are_byte_identical(capsys, tmp_path):
    export_digests(capsys, tmp_path)
    assert verify_digests(capsys, tmp_path) == GOLDEN_VERIFY_REPORTS


def command_digests(capsys) -> dict[str, str]:
    """Digests of the reports and files in GOLDEN_COMMAND_REPORTS, run from the
    current directory so that the printed paths are relative."""
    out = {}
    for cmd, group in (("double", "2,4"), ("rep", "4")):
        for fmt in ("text", "json"):
            out[f"{cmd} {group} {fmt}"] = _sha(_cli(capsys, [cmd, "--group", group,
                                                             "--format", fmt]))
        out[f"{cmd} {group} --out-dir"] = _sha(_cli(capsys, [cmd, "--group", group,
                                                             "--out-dir", "out"]))
    for p in sorted(Path("out").iterdir()):
        out[f"out/{p.name}"] = _sha(p.read_text(encoding="utf-8"))
    _cli(capsys, ["catalog", "--export", "fixtures"])
    out["centralizer toric_code --emb e"] = _sha(_cli(capsys, [
        "centralizer", "fixtures/toric_code.json", "--emb", "fixtures/toric_code.emb_e.json"]))
    Path("rep_d8.json").write_text(to_text(serialize_category(rep_d8())), encoding="utf-8")
    out["condense rep_d8 1,a"] = _sha(_cli(capsys, ["condense", "rep_d8.json",
                                                    "--bosons", "1,a"]))
    return out


def test_command_reports_are_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert command_digests(capsys) == GOLDEN_COMMAND_REPORTS
