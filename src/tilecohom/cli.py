"""Command line front end.

Subcommands: atlas, omega, cohomology, render, compare.  Exit codes:
0 on success, 1 when any verdict fails, 2 on parse/validation errors and
on growth that does not close within --max-level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .atlas import NotClosed
from .pipeline import (
    MissingTable,
    RunConfig,
    atlas_stage,
    compare_routes,
    figures_stage,
    report_to_json,
    run_pipeline,
    start_run,
    winding_stage,
)
from .tiling import ParseError, RuleViolation, ValidationError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilecohom",
        description="Cohomology workbench for planar substitution tiling spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("system", help="tiling-system JSON file")
        p.add_argument("--max-level", type=int, default=12,
                       help="maximum substitution level for atlas growth and collaring")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="write the report JSON here")

    p_atlas = sub.add_parser("atlas", help="star atlas class counts and orders")
    add_common(p_atlas)

    p_omega = sub.add_parser("omega", help="edge rotation values and winding numbers")
    add_common(p_omega)

    p_coh = sub.add_parser("cohomology", help="run the cohomology route(s)")
    add_common(p_coh)
    p_coh.add_argument("--route", choices=["spectral", "mapping-torus", "both"],
                       default="both")
    p_coh.add_argument("--out", metavar="DIR", default=None,
                       help="output directory for report and figures")
    p_coh.add_argument("--svg", action="store_true",
                       help="emit star-class SVG drawings (requires --out)")

    p_render = sub.add_parser("render", help="star-class SVG drawings")
    p_render.add_argument("system")
    p_render.add_argument("--max-level", type=int, default=12)
    p_render.add_argument("--out", metavar="DIR", required=True)

    p_cmp = sub.add_parser("compare", help="compare two report files")
    p_cmp.add_argument("report1")
    p_cmp.add_argument("report2")
    return parser


def _write_atomic(path: str, content: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(content)
    os.replace(tmp, path)


def _write_files(out_dir: str, documents: dict):
    os.makedirs(out_dir, exist_ok=True)
    for name, doc in sorted(documents.items()):
        _write_atomic(os.path.join(out_dir, name), doc)


def _emit(text: str, json_path: str | None):
    if json_path:
        _write_atomic(json_path, text)
    sys.stdout.write(text)


def _staged_run(args, *stages):
    """A run of the given front stages only, with the command's settings.

    A symbolic system has no atlas: its run stops at the alphabet.
    """
    run = start_run(RunConfig(args.system, max_level=args.max_level))
    if not run.symbolic:
        for stage in stages:
            stage(run)
    return run


def _atlas_command(args, with_omega: bool) -> int:
    stages = (atlas_stage, winding_stage) if with_omega else (atlas_stage,)
    report = _staged_run(args, *stages).report
    keys = ("system", "atlas", "rho", "omega")
    _emit(report_to_json({k: report[k] for k in keys if k in report}), args.json)
    return 0


def _cohomology_command(args) -> int:
    run = run_pipeline(RunConfig(args.system, route=args.route, max_level=args.max_level,
                                 emit_svg=args.svg))
    text = report_to_json(run.report)
    if args.out:
        _write_files(args.out, {"report.json": text, **(run.figures or {})})
    _emit(text, args.json)
    return 0 if run.report["passed"] else 1


def _render_command(args) -> int:
    run = _staged_run(args, atlas_stage, winding_stage, figures_stage)
    if run.symbolic:
        raise ValidationError("render needs a two-dimensional system")
    _write_files(args.out, run.figures)
    sys.stdout.write(f"wrote {len(run.figures)} SVG files to {args.out}\n")
    return 0


def _compare_command(args) -> int:
    reports = []
    for path in (args.report1, args.report2):
        try:
            with open(path) as fh:
                reports.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read report {path}: {exc}") from exc
    verdict = compare_routes(reports[0], reports[1])
    sys.stdout.write(json.dumps(verdict, sort_keys=True, indent=1) + "\n")
    return 0 if verdict["passed"] else 1


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "atlas":
            return _atlas_command(args, with_omega=False)
        if args.command == "omega":
            return _atlas_command(args, with_omega=True)
        if args.command == "cohomology":
            return _cohomology_command(args)
        if args.command == "render":
            return _render_command(args)
        if args.command == "compare":
            return _compare_command(args)
        parser.error("unknown command")
    except (ParseError, ValidationError, RuleViolation, MissingTable, NotClosed) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
