"""Per-layer tracing by wrapping the public functions of each tilecohom module.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces module and
class attributes with wrappers, including every other module's binding of
the same function made by ``from ... import ...``, and ``Tracer.remove``
puts the originals back.  Spans are kept in memory as
``(id, parent id, name, start, end)``; a layer's self time is its span's
duration minus the time its child spans cover.

Small arithmetic kernels are counted, not timed, because a clock read per
call would distort them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); "Class.method" attributes patch the class
SPANS = [
    ("tilecohom.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("tilecohom.pipeline", "report_to_json", "pipeline.report_to_json"),
    ("tilecohom.tiling", "load_system", "tiling.load_system"),
    ("tilecohom.tiling", "Patch.substitute", "tiling.substitute"),
    ("tilecohom.tiling", "canonical_key", "tiling.canonical_key"),
    ("tilecohom.tiling", "cross_is_zero", "tiling.cross_is_zero"),
    ("tilecohom.atlas", "grow_star_closure", "atlas.grow_star_closure"),
    ("tilecohom.atlas", "check_isotropy", "atlas.check_isotropy"),
    ("tilecohom.winding", "omega_chain", "winding.omega_chain"),
    ("tilecohom.winding", "atlas_boundary", "winding.atlas_boundary"),
    ("tilecohom.winding", "rational_coboundary_check", "winding.rational_coboundary_check"),
    ("tilecohom.approximant", "collar", "approximant.collar"),
    ("tilecohom.approximant", "build_ap_complex", "approximant.build_ap_complex"),
    ("tilecohom.approximant", "ApproximantComplex.validate", "approximant.validate"),
    ("tilecohom.approximant", "hull_cohomology", "approximant.hull_cohomology"),
    ("tilecohom.approximant", "rotation_action", "approximant.rotation_action"),
    ("tilecohom.approximant", "quotient_cohomology", "approximant.quotient_cohomology"),
    ("tilecohom.abelian", "smith_normal_form", "abelian.snf"),
    ("tilecohom.abelian", "direct_limit_full", "abelian.direct_limit"),
    ("tilecohom.abelian", "mapping_torus_cohomology", "abelian.mapping_torus"),
    ("tilecohom.spectral", "spectral_route", "spectral.spectral_route"),
    ("tilecohom.spectral", "rational_collapse_check", "spectral.rational_collapse_check"),
]

COUNTS = [
    ("tilecohom.cyclotomic", "mul_coeffs", "cyclotomic.mul_coeffs"),
    ("tilecohom.cyclotomic", "reduce_poly", "cyclotomic.reduce_poly"),
]

# per-layer metric name -> (unit, better); the order is the printing order
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "pipeline.run_pipeline_s": ("s", "lower"),
    "pipeline.report_to_json_s": ("s", "lower"),
    "pipeline.report_bytes": ("bytes", "lower"),
    "tiling.load_system_s": ("s", "lower"),
    "tiling.substitute_calls": ("count", "lower"),
    "tiling.substitute_s": ("s", "lower"),
    "tiling.canonical_key_calls": ("count", "lower"),
    "tiling.canonical_key_s": ("s", "lower"),
    "tiling.cross_is_zero_calls": ("count", "lower"),
    "tiling.cross_is_zero_s": ("s", "lower"),
    "tiling.max_patch_tiles": ("count", "lower"),
    "cyclotomic.mul_coeffs_calls": ("count", "lower"),
    "cyclotomic.reduce_poly_calls": ("count", "lower"),
    "atlas.grow_star_closure_s": ("s", "lower"),
    "atlas.check_isotropy_s": ("s", "lower"),
    "atlas.closure_level": ("count", "lower"),
    "atlas.star_classes": ("count", "lower"),
    "winding.omega_chain_s": ("s", "lower"),
    "winding.atlas_boundary_s": ("s", "lower"),
    "winding.rational_coboundary_check_s": ("s", "lower"),
    "approximant.collar_s": ("s", "lower"),
    "approximant.collar_level": ("count", "lower"),
    "approximant.collared_classes": ("count", "lower"),
    "approximant.build_ap_complex_s": ("s", "lower"),
    "approximant.validate_s": ("s", "lower"),
    "approximant.validate_calls": ("count", "lower"),
    "approximant.cells": ("count", "lower"),
    "approximant.nnz": ("count", "lower"),
    "approximant.hull_cohomology_s": ("s", "lower"),
    "approximant.rotation_action_s": ("s", "lower"),
    "approximant.quotient_cohomology_s": ("s", "lower"),
    "abelian.snf_calls": ("count", "lower"),
    "abelian.snf_s": ("s", "lower"),
    "abelian.snf_entries": ("count", "lower"),
    "abelian.snf_max_dim": ("count", "lower"),
    "abelian.snf_max_bits": ("bits", "lower"),
    "abelian.direct_limit_stages": ("count", "lower"),
    "abelian.mapping_torus_s": ("s", "lower"),
    "spectral.spectral_route_s": ("s", "lower"),
    "spectral.rational_collapse_check_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.stage_self_s": ("s", "lower"),
    "trace.accounted_frac": ("fraction", "higher"),
}

# span name -> metric names for its inclusive time and its call count
_TIMED = {
    "pipeline.run_pipeline": ("pipeline.run_pipeline_s", None),
    "pipeline.report_to_json": ("pipeline.report_to_json_s", None),
    "tiling.load_system": ("tiling.load_system_s", None),
    "tiling.substitute": ("tiling.substitute_s", "tiling.substitute_calls"),
    "tiling.canonical_key": ("tiling.canonical_key_s", "tiling.canonical_key_calls"),
    "tiling.cross_is_zero": ("tiling.cross_is_zero_s", "tiling.cross_is_zero_calls"),
    "atlas.grow_star_closure": ("atlas.grow_star_closure_s", None),
    "atlas.check_isotropy": ("atlas.check_isotropy_s", None),
    "winding.omega_chain": ("winding.omega_chain_s", None),
    "winding.atlas_boundary": ("winding.atlas_boundary_s", None),
    "winding.rational_coboundary_check": ("winding.rational_coboundary_check_s", None),
    "approximant.collar": ("approximant.collar_s", None),
    "approximant.build_ap_complex": ("approximant.build_ap_complex_s", None),
    "approximant.validate": ("approximant.validate_s", "approximant.validate_calls"),
    "approximant.hull_cohomology": ("approximant.hull_cohomology_s", None),
    "approximant.rotation_action": ("approximant.rotation_action_s", None),
    "approximant.quotient_cohomology": ("approximant.quotient_cohomology_s", None),
    "abelian.snf": ("abelian.snf_s", "abelian.snf_calls"),
    "abelian.mapping_torus": ("abelian.mapping_torus_s", None),
    "spectral.spectral_route": ("spectral.spectral_route_s", None),
    "spectral.rational_collapse_check": ("spectral.rational_collapse_check_s", None),
}


def _max_bits(mat) -> int:
    return max((abs(int(x)).bit_length() for x in mat.flat), default=0)


def _nonzeros(mat) -> int:
    return sum(1 for x in mat.flat if x != 0)


class Tracer:
    """Collects spans, call counts and size observations for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.sizes: dict = defaultdict(int)
        self._stack: list[int] = [-1]
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def _span_wrapper(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def note_max(self, key: str, value: int):
        self.sizes[key] = max(self.sizes[key], value)

    # -- patching ----------------------------------------------------------

    def install(self):
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr,
                        lambda fn, name=name: self._span_wrapper(name, fn, _OBSERVE.get(name)))
        for module_name, attr, name in COUNTS:
            self._patch(module_name, attr,
                        lambda fn, name=name: self._count_wrapper(name, fn))

    def _patch(self, module_name, attr, make_wrapper):
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            self._set(owner, meth, original, make_wrapper(original))
            return
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        # every binding of the same function object, including `from x import f`
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "tilecohom" or name.startswith("tilecohom.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, original, wrapper)

    def _set(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def remove(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict:
        """Self time of every span, by span id."""
        child = defaultdict(float)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return {sid: (end - start) - child[sid] for sid, _, _, start, end in self.spans}

    def stage_self_time(self) -> float:
        """Summed self time of every span below a root span."""
        return sum(t for sid, t in self.self_times().items() if self.spans[sid][1] >= 0)

    def metrics(self) -> dict:
        """Per-layer numbers; a layer that never ran reports zero."""
        out = {name: 0 for name in PER_LAYER}
        names = {sid: name for sid, _, name, _, _ in self.spans}
        parents = {sid: parent for sid, parent, _, _, _ in self.spans}
        for sid, parent, name, start, end in self.spans:
            if name not in _TIMED:
                continue
            time_key, calls_key = _TIMED[name]
            if calls_key:
                out[calls_key] += 1
            # inclusive time counts outermost spans only, so recursion is not doubled
            p = parent
            while p >= 0 and names[p] != name:
                p = parents[p]
            if p < 0:
                out[time_key] += end - start
        out["cyclotomic.mul_coeffs_calls"] = self.counts["cyclotomic.mul_coeffs"]
        out["cyclotomic.reduce_poly_calls"] = self.counts["cyclotomic.reduce_poly"]
        out.update(self.sizes)
        return out


# -- size observations taken from results, outside the span's clock ----------

def _observe_report(tr: Tracer, args, text):
    tr.note_max("pipeline.report_bytes", len(text.encode()))


def _observe_substitute(tr: Tracer, args, patch):
    tr.note_max("tiling.max_patch_tiles", len(patch))


def _observe_atlas(tr: Tracer, args, atlas):
    tr.note_max("atlas.closure_level", atlas.closure_level)
    tr.note_max("atlas.star_classes", sum(atlas.counts()))


def _observe_collar(tr: Tracer, args, collared):
    tr.note_max("approximant.collar_level", collared.level)
    tr.note_max("approximant.collared_classes", collared.count)


def _observe_hull(tr: Tracer, args, hull):
    cx = args[0]
    tr.note_max("approximant.cells", sum(cx.cell_counts))
    tr.note_max("approximant.nnz", sum(_nonzeros(d) for d in cx.boundary))


def _observe_snf(tr: Tracer, args, dec):
    m, n = dec.s.shape
    tr.sizes["abelian.snf_entries"] += m * n
    tr.note_max("abelian.snf_max_dim", max(m, n))
    tr.note_max("abelian.snf_max_bits",
                max(_max_bits(x) for x in (dec.s, dec.u, dec.v, dec.u_inv, dec.v_inv)))


def _observe_limit(tr: Tracer, args, limit):
    # tower stages examined: a limit found at stage k looked at k + 1 images
    tr.sizes["abelian.direct_limit_stages"] += limit.stage + 1


_OBSERVE = {
    "pipeline.report_to_json": _observe_report,
    "tiling.substitute": _observe_substitute,
    "atlas.grow_star_closure": _observe_atlas,
    "approximant.collar": _observe_collar,
    "approximant.hull_cohomology": _observe_hull,
    "abelian.snf": _observe_snf,
    "abelian.direct_limit": _observe_limit,
}
