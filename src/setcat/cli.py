"""Command-line interface.

Exit codes: 0 success or true verdict, 1 false verdict, 2 input error,
3 internal fault or inconclusive verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as sio
from .catalog import catalog
from .cyclo import format_cyclo
from .double import drinfeld_double, rep_abelian
from .equiv import find_equivalence
from .errors import (InputError, InternalFault, SetcatError, SyntaxInputError,
                     ValidationInputError)
from .premodular import Premodular
from .randomized import run_arithmetic_trials, run_pointed_oracle_trials
from .relprod import (
    CondensationResult,
    condense_by_invertible_bosons,
    relative_centralizer,
    relative_tensor_product,
    verify_stacking_identity,
    verify_unit_law,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_FAULT = 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def load_category(path: str) -> Premodular:
    return sio.parse_category(_read(path))


def load_embedding(path: str, category: Premodular):
    return sio.parse_embedding(_read(path), category)


def split_labels(text: str) -> list[str]:
    """Split a comma-separated label list; commas inside parens don't split."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [x for x in out if x]


def _emit(args, json_obj: dict, text: str) -> None:
    if args.format == "json":
        _write_out(json.dumps(json_obj, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write_out(text, args.out)


def _condensation_json(res: CondensationResult) -> dict:
    return {
        "algebra": res.algebra,
        "deconfined": res.deconfined,
        "confined": res.confined,
        "orbits": [{"representative": o.representative, "members": o.members,
                    "stabilizer": o.stabilizer} for o in res.orbits],
        "splittings": {rep: n for rep, n in res.splittings.items()},
        "provenance": {lab: {"orbit": rep, "child": k}
                       for lab, (rep, k) in res.provenance.items()},
        "ambiguity_flags": res.ambiguity_flags,
        "conservation": {
            "algebra_size": res.conservation["algebra_size"],
            "global_dim_input": format_cyclo(res.conservation["global_dim_input"]),
            "global_dim_result": format_cyclo(res.conservation["global_dim_result"]),
            "global_dim_conserved": res.conservation["global_dim_conserved"],
            "gauss_input": format_cyclo(res.conservation["gauss_input"]),
            "gauss_result": format_cyclo(res.conservation["gauss_result"]),
            "gauss_conserved": res.conservation["gauss_conserved"],
        },
        "result": sio.serialize_category(res.result),
    }


def _condensation_text(res: CondensationResult) -> str:
    lines = [f"condensed by {len(res.algebra)} bosons: {', '.join(res.algebra)}"]
    lines.append(f"deconfined ({len(res.deconfined)}): {', '.join(res.deconfined)}")
    lines.append(f"confined ({len(res.confined)}): {', '.join(res.confined) or '-'}")
    lines.append("orbits:")
    for o in res.orbits:
        split = res.splittings[o.representative]
        extra = f" splits into {split}" if split > 1 else ""
        lines.append(f"  [{o.representative}] members {{{', '.join(o.members)}}} "
                     f"stabilizer {{{', '.join(o.stabilizer)}}}{extra}")
    cons = res.conservation
    lines.append(f"global dim: {format_cyclo(cons['global_dim_input'])} -> "
                 f"{format_cyclo(cons['global_dim_result'])} "
                 f"(conserved: {cons['global_dim_conserved']})")
    lines.append(f"gauss sum: {format_cyclo(cons['gauss_input'])} -> "
                 f"{format_cyclo(cons['gauss_result'])} "
                 f"(conserved: {cons['gauss_conserved']})")
    if res.ambiguity_flags:
        lines.append("ambiguity flags:")
        lines.extend(f"  {flag}" for flag in res.ambiguity_flags)
    lines.append("result category:")
    lines.append(_category_text(res.result, indent="  "))
    return "\n".join(lines) + "\n"


def _category_text(P: Premodular, indent: str = "") -> str:
    lines = [f"{indent}name: {P.name}  rank: {P.ring.rank()}"]
    for x in P.labels:
        approx = P.dim(x).approx().real
        lines.append(f"{indent}{x}: d = {format_cyclo(P.dim(x))} "
                     f"(~{approx:.6f}), theta turn = {P.twist(x)}, dual = {P.dual(x)}")
    return "\n".join(lines)


# -- subcommands -----------------------------------------------------------------


def cmd_validate(args) -> int:
    obj = sio.loads(_read(args.file))
    kind = sio.file_kind(obj)
    try:
        if kind == "category":
            sio.parse_category(obj)
        elif kind == "embedding":
            if not args.against:
                raise InputError("embedding validation needs --against <category file>")
            sio.parse_embedding(obj, sio.parse_category(sio.loads(_read(args.against))))
        else:
            sio.parse_metric_group(obj)
    except ValidationInputError as exc:
        _emit(args, {"kind": kind, "valid": False, "report": str(exc)},
              f"invalid {kind}: {exc}\n")
        return EXIT_FALSE
    _emit(args, {"kind": kind, "valid": True}, f"valid {kind}\n")
    return EXIT_OK


def cmd_info(args) -> int:
    P = load_category(args.file)
    center = P.muger_center()
    nondeg = P.is_nondegenerate()
    obj = {
        "name": P.name,
        "rank": P.ring.rank(),
        "labels": P.labels,
        "dims": {x: format_cyclo(P.dim(x)) for x in P.labels},
        "twists": {x: str(P.twist(x)) for x in P.labels},
        "global_dim": format_cyclo(P.global_dim()),
        "gauss_sum": format_cyclo(P.gauss_sum()),
        "muger_center": center,
        "nondegenerate": nondeg,
    }
    text = (_category_text(P) + "\n"
            f"global dim: {format_cyclo(P.global_dim())}\n"
            f"gauss sum: {format_cyclo(P.gauss_sum())}\n"
            f"Mueger center: {', '.join(center)}\n"
            f"nondegenerate: {nondeg}\n")
    _emit(args, obj, text)
    return EXIT_OK


def cmd_product(args) -> int:
    A = load_category(args.left)
    B = load_category(args.right)
    report = sio.serialize_category(A.deligne(B))
    _emit(args, report, sio.to_text(report))
    return EXIT_OK


def cmd_center(args) -> int:
    P = load_category(args.file)
    center = P.muger_center()
    _emit(args, {"name": P.name, "muger_center": center},
          f"Mueger center of {P.name}: {', '.join(center)}\n")
    return EXIT_OK


def cmd_centralizer(args) -> int:
    P = load_category(args.file)
    if args.emb:
        emb = load_embedding(args.emb[0], P)
        subset = emb.image()
    elif args.labels:
        subset = split_labels(args.labels)
    else:
        raise InputError("centralizer needs --labels or --emb")
    cent = P.centralizer(subset)
    _emit(args, {"name": P.name, "subset": subset, "centralizer": cent},
          f"centralizer of {{{', '.join(subset)}}} in {P.name}: "
          f"{', '.join(cent)}\n")
    return EXIT_OK


def cmd_condense(args) -> int:
    P = load_category(args.file)
    bosons = split_labels(args.bosons)
    res = condense_by_invertible_bosons(P, bosons)
    _emit(args, _condensation_json(res), _condensation_text(res))
    return EXIT_OK


def cmd_relprod(args) -> int:
    if len(args.emb) != 2:
        raise InputError("relprod needs exactly two --emb files")
    C = load_category(args.left)
    D = load_category(args.right)
    embC = load_embedding(args.emb[0], C)
    embD = load_embedding(args.emb[1], D)
    res, induced = relative_tensor_product(C, D, embC, embD)
    obj = _condensation_json(res)
    obj["induced_embedding"] = sio.serialize_embedding(induced)
    text = (_condensation_text(res)
            + "induced symmetry embedding: "
            + json.dumps(sio.serialize_embedding(induced)["map"], sort_keys=True)
            + "\n")
    _emit(args, obj, text)
    return EXIT_OK


def _emit_pair(args, cat: Premodular, emb) -> int:
    cat_obj = sio.serialize_category(cat)
    emb_obj = sio.serialize_embedding(emb)
    if args.out_dir:
        d = Path(args.out_dir)
        d.mkdir(parents=True, exist_ok=True)
        cat_path = d / f"{cat.name}.json"
        emb_path = d / f"{cat.name}.emb_canonical.json"
        cat_path.write_text(sio.to_text(cat_obj), encoding="utf-8")
        emb_path.write_text(sio.to_text(emb_obj), encoding="utf-8")
        sys.stdout.write(f"{cat_path}\n{emb_path}\n")
    else:
        _emit(args, {"category": cat_obj, "embedding": emb_obj},
              sio.to_text({"category": cat_obj, "embedding": emb_obj}))
    return EXIT_OK


def _group_factors(text: str) -> list[int]:
    try:
        return [int(x) for x in split_labels(text)]
    except ValueError as exc:
        raise SyntaxInputError(
            f"--group must be comma-separated integers, got {text!r}") from exc


def cmd_double(args) -> int:
    cat, emb = drinfeld_double(_group_factors(args.group))
    return _emit_pair(args, cat, emb)


def cmd_rep(args) -> int:
    cat, emb = rep_abelian(_group_factors(args.group))
    return _emit_pair(args, cat, emb)


def cmd_equiv(args) -> int:
    A = load_category(args.left)
    B = load_category(args.right)
    emb1 = emb2 = None
    if args.emb:
        if len(args.emb) != 2:
            raise InputError("equiv with embeddings needs exactly two --emb files")
        emb1 = load_embedding(args.emb[0], A)
        emb2 = load_embedding(args.emb[1], B)
    sigma = find_equivalence(A, B, emb1, emb2)
    if sigma is None:
        _emit(args, {"equivalent": False, "mapping": None}, "none\n")
        return EXIT_FALSE
    _emit(args, {"equivalent": True, "mapping": sigma},
          "".join(f"{x} -> {sigma[x]}\n" for x in A.labels))
    return EXIT_OK


def _verdict_exit(args, verdict: bool | None, detail: dict) -> int:
    shown = {"verdict": ("inconclusive" if verdict is None else bool(verdict))}
    shown.update(detail)
    _emit(args, shown, f"verdict: {shown['verdict']}\n")
    if verdict is None:
        return EXIT_FAULT
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_verify(args) -> int:
    kind = args.kind
    if kind == "unit-law":
        if len(args.files) != 1 or len(args.emb) != 1:
            raise InputError("verify unit-law takes one category and one --emb")
        C = load_category(args.files[0])
        embC = load_embedding(args.emb[0], C)
        verdict = verify_unit_law(C, embC)
        return _verdict_exit(args, verdict, {"identity": "unit-law", "category": C.name})
    if kind == "stacking":
        if len(args.files) != 2 or len(args.emb) != 2:
            raise InputError("verify stacking takes two categories and two --emb")
        C = load_category(args.files[0])
        D = load_category(args.files[1])
        embC = load_embedding(args.emb[0], C)
        embD = load_embedding(args.emb[1], D)
        verdict = verify_stacking_identity(C, D, embC, embD)
        return _verdict_exit(args, verdict,
                             {"identity": "stacking", "left": C.name, "right": D.name})
    if kind == "centralizer-set":
        if len(args.files) != 1 or len(args.emb) != 1:
            raise InputError("verify centralizer-set takes one category and one --emb")
        C = load_category(args.files[0])
        embC = load_embedding(args.emb[0], C)
        cent = relative_centralizer(C, embC)
        res = condense_by_invertible_bosons(C, embC.image())
        verdict = cent.labels == res.deconfined
        return _verdict_exit(args, verdict,
                             {"identity": "centralizer-set", "category": C.name,
                              "centralizer": cent.labels, "deconfined": res.deconfined})
    if kind == "nondegeneracy":
        if len(args.files) != 2 or len(args.emb) != 2:
            raise InputError("verify nondegeneracy takes two categories and two --emb")
        C = load_category(args.files[0])
        D = load_category(args.files[1])
        embC = load_embedding(args.emb[0], C)
        embD = load_embedding(args.emb[1], D)
        res, _ = relative_tensor_product(C, D, embC, embD)
        factors_nondeg = C.is_nondegenerate() and D.is_nondegenerate()
        result_nondeg = res.result.is_nondegenerate()
        verdict = result_nondeg if factors_nondeg else None
        if verdict is None:
            # nothing to preserve: report the facts, verdict vacuously true
            verdict = True
        return _verdict_exit(args, verdict,
                             {"identity": "nondegeneracy", "left": C.name,
                              "right": D.name,
                              "factors_nondegenerate": factors_nondeg,
                              "result_nondegenerate": result_nondeg})
    if kind == "pointed-oracle":
        report = run_pointed_oracle_trials(args.count, args.max_order, args.seed)
        return _verdict_exit(args, report["ok"], report)
    if kind == "arithmetic":
        report = run_arithmetic_trials(args.count, args.seed)
        return _verdict_exit(args, report["ok"], report)
    raise InputError(f"unknown verify kind {kind!r}")


def cmd_catalog(args) -> int:
    entries = catalog()
    if args.export:
        d = Path(args.export)
        d.mkdir(parents=True, exist_ok=True)
        written = []
        for entry in entries.values():
            path = d / f"{entry.name}.json"
            path.write_text(sio.to_text(sio.serialize_category(entry.category)),
                            encoding="utf-8")
            written.append(str(path))
            for key, emb in entry.embeddings.items():
                epath = d / f"{entry.name}.emb_{key}.json"
                epath.write_text(sio.to_text(sio.serialize_embedding(emb)),
                                 encoding="utf-8")
                written.append(str(epath))
        sys.stdout.write("\n".join(written) + "\n")
        return EXIT_OK
    listing = {name: {"rank": e.category.ring.rank(),
                      "embeddings": sorted(e.embeddings)}
               for name, e in entries.items()}
    text = "".join(
        f"{name}: rank {info['rank']}, embeddings: "
        f"{', '.join(info['embeddings']) or '-'}\n"
        for name, info in listing.items())
    _emit(args, listing, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="setcat",
        description="Exact modular-data computations: condensation of "
                    "transparent bosons and relative stacking over Rep(G).")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", default=None, help="write the report to a file")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="validate a data file")
    p.add_argument("file")
    p.add_argument("--against", default=None,
                   help="category file an embedding is validated against")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("info", help="summarize a category file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("product", help="Deligne product of two categories")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("center", help="Mueger center of a category")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("centralizer", help="centralizer of a label subset")
    p.add_argument("file")
    p.add_argument("--labels", default=None, help="comma-separated labels")
    p.add_argument("--emb", action="append", default=[],
                   help="embedding file whose image is centralized")
    common(p)
    p.set_defaults(func=cmd_centralizer)

    p = sub.add_parser("condense", help="condense a group of invertible bosons")
    p.add_argument("file")
    p.add_argument("--bosons", required=True, help="comma-separated boson labels")
    common(p)
    p.set_defaults(func=cmd_condense)

    p = sub.add_parser("relprod", help="relative stacking over the shared symmetry")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--emb", action="append", default=[],
                   help="embedding file (give twice: left then right)")
    common(p)
    p.set_defaults(func=cmd_relprod)

    p = sub.add_parser("double", help="Drinfeld double of a finite abelian group")
    p.add_argument("--group", required=True, help="invariant factors, e.g. 2,4")
    p.add_argument("--out-dir", default=None)
    common(p)
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("rep", help="Rep(G) as a pointed symmetric category")
    p.add_argument("--group", required=True)
    p.add_argument("--out-dir", default=None)
    common(p)
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("equiv", help="search for a modular-data equivalence")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--emb", action="append", default=[],
                   help="embedding files (give twice) to respect the symmetry")
    common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("verify", help="verify one of the structural identities")
    p.add_argument("kind", choices=["unit-law", "stacking", "centralizer-set",
                                    "nondegeneracy", "pointed-oracle",
                                    "arithmetic"])
    p.add_argument("files", nargs="*")
    p.add_argument("--emb", action="append", default=[])
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--max-order", type=int, default=64)
    common(p, seed=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="list or export the fixture catalog")
    p.add_argument("--export", default=None, help="directory to write fixtures to")
    common(p)
    p.set_defaults(func=cmd_catalog)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, ValidationInputError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except InternalFault as exc:
        sys.stderr.write(f"internal fault: {exc}\n")
        return EXIT_FAULT
    except SetcatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
