"""Batch orchestration: load a system, run either route or both, report.

``run_pipeline`` returns a ``Run`` that holds the result of every stage
once; the CLI, the demos and the test fixtures all read from it, and the
``atlas``, ``omega`` and ``render`` subcommands run the same stage
functions on their own.  Writing files is left to the caller.

Reports are plain dictionaries serialized as canonical JSON (sorted keys,
fixed indentation) so that a fixed configuration and package version
produce byte-identical output.  Wall-clock timings therefore go to the
log, never into the report.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass

from . import abelian as ab
from . import spectral as sp
from .abelian import FgAbGroup, GroupHom, MappingTorusDegree
from .approximant import (
    ApproximantComplex,
    HullDegree,
    Symbolic1DSystem,
    build_ap_complex,
    build_symbolic_complex,
    collar,
    hull_cohomology,
    quotient_cohomology,
    rotation_action,
)
from .atlas import StarAtlas, check_isotropy, grow_star_closure
from .tiling import TilingSystem, ValidationError, load_system
from .winding import (
    RhoAssignment,
    WindingChain,
    assign_rho,
    atlas_boundary,
    dagger_orders,
    degree_zero_homology,
    omega_chain,
    rational_coboundary_check,
)
from . import __version__

log = logging.getLogger("tilecohom")


class MissingTable(Exception):
    """A report lacks the final group table needed for comparison."""


@dataclass
class RunConfig:
    system_path: str
    route: str = "both"  # "spectral" | "mapping-torus" | "both"
    max_level: int = 12  # bounds atlas growth and collaring
    emit_svg: bool = False

    def __post_init__(self):
        if self.route not in ("spectral", "mapping-torus", "both"):
            raise ValidationError(f"unknown route {self.route!r}")


@dataclass
class Run:
    """The result of every stage of one run; stages a route skips stay None.

    The collared tiles are not kept: their class count and level are in
    ``complex.labels``, and their patches are the largest objects a run
    makes.
    """

    config: RunConfig
    system: TilingSystem | Symbolic1DSystem
    report: dict
    atlas: StarAtlas | None = None
    rho: RhoAssignment | None = None
    omega: WindingChain | None = None
    complex: ApproximantComplex | None = None
    hull: list[HullDegree] | None = None
    rotation: list[GroupHom] | None = None
    torus: list[MappingTorusDegree] | None = None
    quotient: list[HullDegree] | None = None
    spectral: tuple | None = None  # (second page, stable page, total degrees)
    figures: dict | None = None  # SVG documents by file name

    @property
    def symbolic(self) -> bool:
        return isinstance(self.system, Symbolic1DSystem)


def group_json(g: FgAbGroup) -> dict:
    return {"rank": g.free_rank, "torsion": list(g.torsion)}


def matrix_json(mat) -> list:
    return [[int(x) for x in row] for row in mat]


def run_pipeline(cfg: RunConfig) -> Run:
    """Execute the configured routes; the report is ``run.report``.

    This is where the stages are chosen: a symbolic system has no atlas,
    so it runs only the complex and mapping-torus stages.
    """
    t0 = time.time()
    run = start_run(cfg)
    if run.symbolic:
        if cfg.route == "spectral":
            raise ValidationError("the spectral route needs a two-dimensional system")
        run.complex = cx = build_symbolic_complex(run.system)
        mapping_torus_stage(run)
        run.report["routes"]["mapping_torus"]["collared_cells"] = cx.labels.get(
            "collared_letters")
    else:
        atlas_stage(run)
        winding_stage(run)
        if cfg.route != "spectral":
            run.complex = build_ap_complex(collar(run.system, max_level=cfg.max_level))
            mapping_torus_stage(run)
            quotient_stage(run)
        if cfg.route != "mapping-torus":
            spectral_stage(run)
        if cfg.emit_svg:
            figures_stage(run)
    run.report["passed"] = all(v["passed"] for v in run.report["verdicts"])
    log.info("pipeline finished in %.1fs", time.time() - t0)
    return run


def start_run(cfg: RunConfig) -> Run:
    """Load the system and open its report; no stage has run yet.

    A symbolic system's atlas is its alphabet, known on loading.
    """
    system = load_system(cfg.system_path)
    report = {
        "system": getattr(system, "name", "unknown"),
        "version": __version__,
        "config": {"route": cfg.route, "max_level": cfg.max_level},
        "verdicts": [],
        "routes": {},
    }
    run = Run(cfg, system, report)
    if run.symbolic:
        report["atlas"] = {"tile_classes": len(system.alphabet)}
    return run


def atlas_stage(run: Run):
    """Star atlas and isotropy check of a two-dimensional system."""
    atlas = grow_star_closure(run.system, max_level=run.config.max_level)
    counts = atlas.counts()
    run.atlas = atlas
    run.report["atlas"] = {
        "counts": {
            "tile_classes": counts[0],
            "edge_star_classes": counts[1],
            "vertex_star_classes": counts[2],
        },
        "closure_level": atlas.closure_level,
        "orders": list(dagger_orders(atlas)),
        "isotropy": check_isotropy(atlas)["isotropy"],
    }


def winding_stage(run: Run):
    """Edge rotation values, the winding chain and its coboundary check."""
    atlas = run.atlas
    run.rho = rho = assign_rho(atlas)
    run.omega = omega = omega_chain(atlas, rho)
    report = run.report
    report["rho"] = [
        {
            "edge_class": cls.index,
            "turns": [rho[cls.index].numerator, rho[cls.index].denominator],
            "left_tile_class": cls.left_tile_class,
            "right_tile_class": cls.right_tile_class,
        }
        for cls in atlas.edge_classes
    ]
    report["omega"] = [
        {"vertex_class": cls.index, "winding": omega[cls.index],
         "symmetry_order": cls.symmetry_order}
        for cls in atlas.vertex_classes
    ]
    report["boundary_matrices"] = {
        "degree_1": matrix_json(atlas_boundary(atlas, 1)),
        "degree_2": matrix_json(atlas_boundary(atlas, 2)),
    }
    cob = rational_coboundary_check(atlas, rho, omega)
    report["verdicts"].append({"name": "rational_coboundary", "passed": cob["passed"],
                               "details": cob})


def mapping_torus_stage(run: Run):
    """Hull cohomology of ``run.complex``, its rotation action and mapping torus."""
    cx = run.complex
    run.hull = hull = hull_cohomology(cx)
    run.rotation = rotation_action(cx, hull)
    run.torus = torus = ab.mapping_torus_cohomology(run.rotation)
    run.report["routes"]["mapping_torus"] = {
        "hull": [group_json(h.group) for h in hull],
        "stabilization_stages": [h.stage for h in hull],
        # torus degree k sits between the coinvariants of k - 1 and the invariants of k
        "invar": [group_json(d.invariants) for d in torus[:-1]],
        "coinvar": [group_json(d.coinvariants_below) for d in torus[1:]],
        "groups": [group_json(d.group) for d in torus],
        "flags": [d.extension_ambiguous for d in torus],
    }


def quotient_stage(run: Run):
    """Quotient hull of a collared complex, checked against the invariant ranks.

    A complex without a rotation is its own quotient.
    """
    cx, torus = run.complex, run.torus
    run.quotient = quot = run.hull if cx.rotation is None else quotient_cohomology(cx)
    run.report["routes"]["mapping_torus"].update(
        collared_classes=cx.labels["collared_classes"],
        collar_level=cx.labels["collar_level"],
        cells=cx.cell_counts,
        quotient_hull=[group_json(h.group) for h in quot],
        complex={
            "cells": cx.cell_counts,
            "boundary": [matrix_json(b) for b in cx.boundary],
            "self_map": [matrix_json(s) for s in cx.self_map],
        },
    )
    run.report["verdicts"].append({
        "name": "quotient_rank_equals_invariant_rank",
        "passed": all(d.invariants.free_rank == q.group.free_rank
                      for d, q in zip(torus, quot)),
        "details": {},
    })


def spectral_stage(run: Run):
    """Second page, stable page and total cohomology of the spectral route.

    The degree-zero homology and the winding class come from the atlas.
    The quotient-hull groups come from the mapping-torus stage when it ran
    and from the system's ``h_omega0`` otherwise.
    """
    verdicts = run.report["verdicts"]
    h0_t0, omega_class = degree_zero_homology(run.atlas, run.omega)
    fixture = run.system.quotient_hull
    if run.quotient is not None:
        h_omega0 = tuple(h.group for h in run.quotient)
        if fixture is not None:
            verdicts.append({
                "name": "quotient_matches_fixture",
                "passed": fixture == h_omega0,
                "details": {
                    "fixture": [str(g) for g in fixture],
                    "computed": [str(g) for g in h_omega0],
                },
            })
    elif fixture is not None:
        h_omega0 = fixture
    else:
        raise ValidationError(
            "the spectral route needs quotient-hull groups "
            "(run the mapping-torus route or provide the h_omega0 fixture)"
        )
    try:
        data = sp.SpectralInput(h_omega0, h0_t0, omega_class)
        run.spectral = sp.spectral_route(data)
    except (ValueError, sp.RankMismatch) as exc:
        raise ValidationError(f"inconsistent spectral input: {exc}") from exc
    e2, einf, total = run.spectral
    collapse = sp.rational_collapse_check(data, total)
    verdicts.append({"name": "rational_collapse", "passed": collapse["passed"],
                     "details": collapse})
    page_json = lambda page: {
        "q1": [group_json(page.entry(p, 1)) for p in range(3)],
        "q0": [group_json(page.entry(p, 0)) for p in range(3)],
    }
    groups = [group_json(d.group) for d in total]
    order = sp.class_order(h0_t0, omega_class)
    run.report["routes"]["spectral"] = {
        "E2": page_json(e2),
        "Einf": page_json(einf),
        "groups": groups,
        "flags": [d.extension_ambiguous for d in total],
        "omega_order": order,
    }
    order_product = math.prod(dagger_orders(run.atlas))
    verdicts.append({
        "name": "omega_order_divides_symmetry_orders",
        "passed": order != 0 and order_product % order == 0,
        "details": {"omega_order": order, "symmetry_product": order_product},
    })
    if run.torus is not None:
        agreement = compare_tables(groups, run.report["routes"]["mapping_torus"]["groups"])
        verdicts.append({"name": "route_agreement", **agreement})


def figures_stage(run: Run):
    """One SVG document per star class."""
    from .svg import render_star_svg

    run.figures = render_star_svg(run.atlas, rho=run.rho, omega=run.omega)


def compare_tables(groups1: list, groups2: list) -> dict:
    top = max(len(groups1), len(groups2))
    for k in range(top):
        a = groups1[k] if k < len(groups1) else {"rank": 0, "torsion": []}
        b = groups2[k] if k < len(groups2) else {"rank": 0, "torsion": []}
        if a != b:
            return {
                "passed": False,
                "details": {"first_mismatch_degree": k, "left": a, "right": b},
            }
    return {"passed": True, "details": {}}


def compare_routes(report1: dict, report2: dict) -> dict:
    """Compare the final group tables of two reports, degree by degree."""
    return compare_tables(_final_groups(report1), _final_groups(report2))


def _final_groups(report) -> list:
    routes = report.get("routes") if isinstance(report, dict) else None
    for key in ("spectral", "mapping_torus"):
        route = routes.get(key) if isinstance(routes, dict) else None
        if isinstance(route, dict) and isinstance(route.get("groups"), list):
            return route["groups"]
    raise MissingTable("report has no final group table")


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=1) + "\n"
