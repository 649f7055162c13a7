"""One hull-algebra operation, in a process of its own.

    python3 perfbench/hull_op.py SEED INDEX OUT.json [--trace]

Relabels the stored Penrose complex by the signed permutations of
operation INDEX of workload SEED, computes hull cohomology, the rotation
action, the mapping torus and the quotient, and checks every group against
``penrose.expected.json``.  OUT.json gets the wall and CPU time of the
computation alone, the problems the checks found and, with ``--trace``,
the per-layer metrics and the summed self time of all stage spans.

The operation runs in a child of ``run.py`` so that the benchmark can
time its reference computation on the same CPU while the work runs.
"""

from __future__ import annotations

import json
import sys
import time

from common import STORED_COMPLEX, Checker, expected_values, groups_json, use_source_tree


def compute(cx):
    from tilecohom import abelian as ab
    from tilecohom.approximant import hull_cohomology, quotient_cohomology, rotation_action

    hull = hull_cohomology(cx)
    rot = rotation_action(cx, hull)
    torus = ab.mapping_torus_cohomology(rot)
    quot = quotient_cohomology(cx)
    return hull, torus, quot


def check(result, exp: dict) -> list:
    """Problems in a computed (hull, mapping torus, quotient), against the expected values."""
    from tilecohom.pipeline import group_json

    hull, torus, quot = result
    c = Checker()
    c.want("hull", [group_json(h.group) for h in hull], groups_json(exp["hull"]))
    c.want("stabilization stages", [h.stage for h in hull], exp["stabilization_stages"])
    c.want("invar", [group_json(d.invariants) for d in torus[:-1]], groups_json(exp["invar"]))
    c.want("coinvar", [group_json(d.coinvariants_below) for d in torus[1:]],
           groups_json(exp["coinvar"]))
    c.want("mapping torus", [group_json(d.group) for d in torus],
           groups_json(exp["mapping_torus"]))
    c.want("quotient hull", [group_json(h.group) for h in quot],
           groups_json(exp["quotient_hull"]))
    return c.problems


def main(argv) -> int:
    seed, index, out_path = int(argv[0]), int(argv[1]), argv[2]
    traced = argv[3:] == ["--trace"]
    use_source_tree()
    from complexes import load_triplets, seeded_conjugate, to_complex
    from tracer import Tracer

    cx = to_complex(seeded_conjugate(load_triplets(STORED_COMPLEX), seed, index))
    tracer = Tracer() if traced else None
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            result = compute(cx)
        else:
            tracer.install()
            result = tracer.span("bench.operation", compute, cx)
    except Exception as exc:  # an operation that raises counts as failed
        result = None
        problems = [f"{type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.remove()
    out = {"wall": time.perf_counter() - start, "cpu": time.process_time() - cpu_start,
           "trace": None}
    if result is not None:
        problems = check(result, expected_values("penrose"))
    out["problems"] = problems
    if tracer is not None:
        out["trace"] = {"metrics": tracer.metrics(), "stage_self_s": tracer.stage_self_time()}
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
