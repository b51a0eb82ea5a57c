"""Command-line interface.

Exit codes: 0 success or true verdict, 1 false verdict, 2 input error,
3 internal fault or inconclusive verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from . import io as sio
from .catalog import catalog
from .cyclo import Cyclo, format_cyclo
from .double import drinfeld_double, rep_abelian
from .equiv import find_equivalence
from .errors import InputError, InternalFault, SyntaxInputError, ValidationInputError
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


def _with_embeddings(what: str, paths: list[str], emb_paths: list[str]):
    """The categories in `paths`, each paired with its embedding, in order."""
    if len(emb_paths) != len(paths):
        raise InputError(f"{what} needs one --emb per category file ({len(paths)}), "
                         f"got {len(emb_paths)}")
    cats = [load_category(path) for path in paths]
    return [(C, sio.parse_embedding(_read(e), C)) for C, e in zip(cats, emb_paths)]


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
        "splittings": res.splittings,
        "provenance": {lab: {"orbit": rep, "child": k}
                       for lab, (rep, k) in res.provenance.items()},
        "ambiguity_flags": res.ambiguity_flags,
        "conservation": {k: format_cyclo(v) if isinstance(v, Cyclo) else v
                         for k, v in res.conservation.items()},
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
    if kind != "embedding" and args.against is not None:
        raise InputError(f"--against applies only to embedding files, "
                         f"and {args.file} is a {kind} file")
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
    if args.emb is None:
        P, subset = load_category(args.file), split_labels(args.labels)
    else:
        [(P, emb)] = _with_embeddings("centralizer", [args.file], args.emb)
        subset = emb.image()
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
    (C, embC), (D, embD) = _with_embeddings("relprod", [args.left, args.right], args.emb)
    res, induced = relative_tensor_product(C, D, embC, embD)
    obj = _condensation_json(res)
    obj["induced_embedding"] = sio.serialize_embedding(induced)
    text = (_condensation_text(res)
            + "induced symmetry embedding: "
            + json.dumps(sio.serialize_embedding(induced)["map"], sort_keys=True)
            + "\n")
    _emit(args, obj, text)
    return EXIT_OK


def _export(args, directory: str, entries) -> int:
    """Write NAME.json and NAME.emb_KEY.json into `directory` for each
    (category, {KEY: embedding}) and report the written paths."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    written = []
    for cat, embeddings in entries:
        files = {f"{cat.name}.json": sio.serialize_category(cat)}
        files.update((f"{cat.name}.emb_{key}.json", sio.serialize_embedding(emb))
                     for key, emb in embeddings.items())
        for name, obj in files.items():
            (d / name).write_text(sio.to_text(obj), encoding="utf-8")
            written.append(str(d / name))
    _emit(args, {"written": written}, "".join(f"{path}\n" for path in written))
    return EXIT_OK


def cmd_group(build, args) -> int:
    """`double` or `rep`: the category and canonical embedding that `build`
    makes of the group."""
    try:
        factors = [int(x) for x in split_labels(args.group)]
    except ValueError as exc:
        raise SyntaxInputError(
            f"--group must be comma-separated integers, got {args.group!r}") from exc
    cat, emb = build(factors)
    if args.out_dir:
        return _export(args, args.out_dir, [(cat, {"canonical": emb})])
    obj = {"category": sio.serialize_category(cat), "embedding": sio.serialize_embedding(emb)}
    _emit(args, obj, sio.to_text(obj))
    return EXIT_OK


def cmd_equiv(args) -> int:
    if args.emb:
        (A, emb1), (B, emb2) = _with_embeddings("equiv", [args.left, args.right], args.emb)
    else:
        A, B, emb1, emb2 = load_category(args.left), load_category(args.right), None, None
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


def cmd_verify_unit_law(args) -> int:
    [(C, embC)] = _with_embeddings("verify unit-law", args.files, args.emb)
    return _verdict_exit(args, verify_unit_law(C, embC),
                         {"identity": "unit-law", "category": C.name})


def cmd_verify_stacking(args) -> int:
    [(C, embC), (D, embD)] = _with_embeddings("verify stacking", args.files, args.emb)
    return _verdict_exit(args, verify_stacking_identity(C, D, embC, embD),
                         {"identity": "stacking", "left": C.name, "right": D.name})


def cmd_verify_centralizer_set(args) -> int:
    [(C, embC)] = _with_embeddings("verify centralizer-set", args.files, args.emb)
    cent = relative_centralizer(C, embC)
    res = condense_by_invertible_bosons(C, embC.image())
    return _verdict_exit(args, cent.labels == res.deconfined,
                         {"identity": "centralizer-set", "category": C.name,
                          "centralizer": cent.labels, "deconfined": res.deconfined})


def cmd_verify_nondegeneracy(args) -> int:
    [(C, embC), (D, embD)] = _with_embeddings("verify nondegeneracy", args.files, args.emb)
    res, _ = relative_tensor_product(C, D, embC, embD)
    factors_nondeg = C.is_nondegenerate() and D.is_nondegenerate()
    result_nondeg = res.result.is_nondegenerate()
    # degenerate factors leave nothing to preserve: the verdict is vacuously true
    return _verdict_exit(args, result_nondeg or not factors_nondeg,
                         {"identity": "nondegeneracy", "left": C.name, "right": D.name,
                          "factors_nondegenerate": factors_nondeg,
                          "result_nondegenerate": result_nondeg})


def cmd_verify_trials(args) -> int:
    if args.count < 1:
        raise InputError(f"--count must be at least 1, got {args.count}")
    if args.kind == "pointed-oracle":
        if args.max_order < 2:  # the smallest group drawn has order 2
            raise InputError(f"--max-order must be at least 2, got {args.max_order}")
        report = run_pointed_oracle_trials(args.count, args.max_order, args.seed)
    else:
        report = run_arithmetic_trials(args.count, args.seed)
    return _verdict_exit(args, report["ok"], report)


def cmd_catalog(args) -> int:
    entries = catalog()
    if args.export:
        return _export(args, args.export, [(e.category, e.embeddings) for e in entries.values()])
    listing = {name: {"rank": e.category.ring.rank(),
                      "embeddings": sorted(e.embeddings)}
               for name, e in entries.items()}
    text = "".join(
        f"{name}: rank {info['rank']}, embeddings: "
        f"{', '.join(info['embeddings']) or '-'}\n"
        for name, info in listing.items())
    _emit(args, listing, text)
    return EXIT_OK


class _StoreOnce(argparse.Action):
    """The default action: refuses a single-value option given twice, whose
    first value argparse's store action would drop unread (each parse fills a
    new namespace, so storing into the same one again is a repeat)."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(self, "stored_in", None) is namespace:
            raise argparse.ArgumentError(self, "may be given only once")
        self.stored_in = namespace
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)  # add_subparsers makes sub-parsers of this class
        self.register("action", None, _StoreOnce)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="setcat",
        description="Exact modular-data computations: condensation of "
                    "transparent bosons and relative stacking over Rep(G).")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, func, seed=False):
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", default=None, help="write the report to a file")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)

    p = sub.add_parser("validate", help="validate a data file")
    p.add_argument("file")
    p.add_argument("--against", default=None,
                   help="category file an embedding is validated against")
    common(p, cmd_validate)

    p = sub.add_parser("info", help="summarize a category file")
    p.add_argument("file")
    common(p, cmd_info)

    p = sub.add_parser("product", help="Deligne product of two categories")
    p.add_argument("left")
    p.add_argument("right")
    common(p, cmd_product)

    p = sub.add_parser("center", help="Mueger center of a category")
    p.add_argument("file")
    common(p, cmd_center)

    p = sub.add_parser("centralizer", help="centralizer of a label subset")
    p.add_argument("file")
    subset = p.add_mutually_exclusive_group(required=True)
    subset.add_argument("--labels", help="comma-separated labels")
    subset.add_argument("--emb", action="append",
                        help="embedding file whose image is centralized")
    common(p, cmd_centralizer)

    p = sub.add_parser("condense", help="condense a group of invertible bosons")
    p.add_argument("file")
    p.add_argument("--bosons", required=True, help="comma-separated boson labels")
    common(p, cmd_condense)

    p = sub.add_parser("relprod", help="relative stacking over the shared symmetry")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--emb", action="append", default=[],
                   help="embedding file (give twice: left then right)")
    common(p, cmd_relprod)

    groups = (("double", drinfeld_double, "Drinfeld double of a finite abelian group"),
              ("rep", rep_abelian, "Rep(G) as a pointed symmetric category"))
    for name, build, what in groups:
        p = sub.add_parser(name, help=what)
        p.add_argument("--group", required=True, help="invariant factors, e.g. 2,4")
        p.add_argument("--out-dir", default=None)
        common(p, partial(cmd_group, build))

    p = sub.add_parser("equiv", help="search for a modular-data equivalence")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--emb", action="append", default=[],
                   help="embedding files (give twice) to respect the symmetry")
    common(p, cmd_equiv)

    p = sub.add_parser("verify", help="verify one of the structural identities")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, func, n in (("unit-law", cmd_verify_unit_law, 1),
                          ("stacking", cmd_verify_stacking, 2),
                          ("centralizer-set", cmd_verify_centralizer_set, 1),
                          ("nondegeneracy", cmd_verify_nondegeneracy, 2)):
        p = kinds.add_parser(kind)
        p.add_argument("files", nargs=n, metavar="FILE", help="category file")
        p.add_argument("--emb", action="append", required=True,
                       help="embedding file (one per category, in order)")
        common(p, func)

    for kind in ("pointed-oracle", "arithmetic"):
        p = kinds.add_parser(kind)
        p.add_argument("--count", type=int, default=200)
        if kind == "pointed-oracle":
            p.add_argument("--max-order", type=int, default=64)
        common(p, cmd_verify_trials, seed=True)

    p = sub.add_parser("catalog", help="list or export the fixture catalog")
    p.add_argument("--export", default=None, help="directory to write fixtures to")
    common(p, cmd_catalog)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except InternalFault as exc:
        sys.stderr.write(f"internal fault: {exc}\n")
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
