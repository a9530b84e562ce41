"""Command line interface.

Subcommands:

* ``compress``: run the full pipeline and print (or write) the JSON report.
* ``herald``: build the causaloid for a scenario and answer one query.
* ``diagram``: emit a DOT or SVG composition scene.
* ``validate``: print only the exterior span diagnostics.

All four build their causaloid through ``report.checked_causaloid``, so a
table, compression or span failure exits the same way from each.

Exit codes: 0 success, 2 scenario or schema problems, 3 numerical
failures (an ``errors.NumericalError``), 4 a herald came back ill defined
while ``--require-herald`` was set.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys

from .causaloid import json_text
from .diagram import born_scene, emit_diagram, expansion_scene, product_scene
from .errors import CausaloidError, NumericalError, SchemaError, write_text
from .heralding import herald
from .report import (
    checked_causaloid,
    report_json,
    run_pipeline,
    span_rows,
)
from .scenario import ScenarioFile, check_tolerance, herald_query, label_refs, parse_scenario

__all__ = ["main"]

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_HERALD = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="causaloid",
        description="compress operational scenarios and answer herald queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.add_argument("--tol-rank", type=float, default=None, help="rank tolerance override")

    p = sub.add_parser("compress", help="run the full compression pipeline")
    common(p)
    p.add_argument("--tol-herald", type=float, default=None, help="herald tolerance override")
    p.add_argument("--seed", type=int, default=None, help="seed recorded in the report")
    p.add_argument(
        "--full-matrices",
        action="store_true",
        help="embed exact hex expansion matrices in the report",
    )
    p.add_argument(
        "--require-herald",
        action="store_true",
        help="exit 4 when any scenario herald is ill defined",
    )

    p = sub.add_parser("herald", help="answer one herald query")
    common(p)
    p.add_argument("--tol-herald", type=float, default=None, help="herald tolerance override")
    p.add_argument("--target", required=True, help="REGION:LABEL_INDEX")
    p.add_argument("--given", default="", help="comma list of REGION:LABEL_INDEX")
    p.add_argument(
        "--require-herald",
        action="store_true",
        help="exit 4 when the query is ill defined",
    )

    p = sub.add_parser("diagram", help="emit a composition scene")
    common(p)
    p.add_argument(
        "--expr",
        required=True,
        help="born:REGION, expand:REGION, or product:REGION,REGION",
    )
    p.add_argument("--format", choices=("dot", "svg"), default="dot")

    p = sub.add_parser("validate", help="exterior span diagnostics only")
    common(p)
    return parser


def _load(args) -> ScenarioFile:
    """The parsed scenario with the flags that were given written into it."""
    given = vars(args)  # a subcommand has only the flags it reads
    flags = {f: given[f] for f in ("seed", "tol_rank", "tol_herald") if given.get(f) is not None}
    for field in ("tol_rank", "tol_herald"):
        if field in flags:
            check_tolerance(flags[field], "--" + field.replace("_", "-"))
    return dataclasses.replace(parse_scenario(args.scenario), **flags)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        write_text(out_path, text)


def _cmd_compress(args) -> int:
    scenario = _load(args)
    report = run_pipeline(scenario, full_matrices=args.full_matrices)
    _emit(report_json(report), args.out)
    if args.require_herald:
        for name, result in report.heralds:
            if not result.well_defined:
                sys.stderr.write(f"herald {name!r} is not well defined\n")
                return EXIT_HERALD
    return EXIT_OK


def _parse_ref(label_ref, text: str, flag: str):
    region_name, sep, index = text.partition(":")
    if not sep or not re.fullmatch(r"-?[0-9]+", index):
        raise SchemaError(f"wants REGION:LABEL_INDEX, got {text!r}", flag)
    try:
        number = int(index)
    except ValueError:  # more digits than int() converts
        raise SchemaError(f"label index of {len(index)} characters", flag) from None
    return label_ref(region_name, number, flag)


def _cmd_herald(args) -> int:
    scenario = _load(args)
    label_ref = label_refs(scenario.spec, dict(zip(scenario.region_names, scenario.regions)))
    target = _parse_ref(label_ref, args.target, "--target")
    given = tuple(
        _parse_ref(label_ref, part, "--given")
        for part in args.given.split(",")
        if part
    )
    query = herald_query(target, given, set(scenario.composites), "--given")
    table, _, causaloid = checked_causaloid(scenario)
    result = herald(causaloid, query, tol=scenario.tol_herald, table=table)

    payload = {
        "scenario": scenario.name,
        "target": args.target,
        "given": sorted(part for part in args.given.split(",") if part),
        "well_defined": result.well_defined,
        "residual": result.residual,
        "p": result.p,
    }
    if result.witness is not None:
        (hi_ext, hi_p), (lo_ext, lo_p) = result.witness
        payload["witness"] = {
            "high": {"exterior": hi_ext.describe(), "p": hi_p},
            "low": {"exterior": lo_ext.describe(), "p": lo_p},
        }
    _emit(json_text(payload), args.out)
    if args.require_herald and not result.well_defined:
        sys.stderr.write("herald query is not well defined\n")
        return EXIT_HERALD
    return EXIT_OK


_SCENES = {"born": born_scene, "expand": expansion_scene, "product": product_scene}


def _cmd_diagram(args) -> int:
    scenario = _load(args)
    kind, sep, rest = args.expr.partition(":")
    if not sep:
        raise SchemaError(
            f"wants born:R, expand:R, or product:R1,R2, got {args.expr!r}", "--expr"
        )
    if kind not in _SCENES:
        raise SchemaError(f"unknown diagram expression kind {kind!r}", "--expr")
    names = [part for part in rest.split(",") if part] if kind == "product" else [rest]
    if kind == "product" and len(names) != 2:
        raise SchemaError("product wants exactly two region names", "--expr")
    if kind == "product" and names[0] == names[1]:
        raise SchemaError("product wants two different region names", "--expr")
    declared = dict(zip(scenario.region_names, scenario.regions))
    for name in names:
        if name not in declared:
            raise SchemaError(f"region {name!r} is not declared", "--expr")
    _, _, causaloid = checked_causaloid(scenario)
    scene = _SCENES[kind](causaloid, *(declared[name] for name in names))
    _emit(emit_diagram(scene, args.format), args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = _load(args)
    _, spans, _ = checked_causaloid(scenario)
    payload = {"scenario": scenario.name, "span_validation": span_rows(scenario, spans)}
    _emit(json_text(payload), args.out)
    return EXIT_OK


_COMMANDS = {
    "compress": _cmd_compress,
    "herald": _cmd_herald,
    "diagram": _cmd_diagram,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except CausaloidError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA


if __name__ == "__main__":
    raise SystemExit(main())
