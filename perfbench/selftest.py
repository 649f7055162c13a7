"""Checks of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers the stored hull-algebra input (a chain complex with the expected
groups), the seeded signed-permutation conjugation (groups unchanged, P
then P^T is the identity), the per-operation report checks, the fixed
result of the reference computation and the tracer's patching and
self-time arithmetic.  Takes about 20 s, most of it two hull computations.
"""

from __future__ import annotations

import copy
import random
import unittest

from common import STORED_COMPLEX, expected_values, groups_json, use_source_tree

use_source_tree()

import complexes as cxs  # noqa: E402
from hull_op import check  # noqa: E402
from reference import RESULT, reference_work  # noqa: E402
from run import check_report  # noqa: E402
from tracer import Tracer  # noqa: E402


def _groups(cx):
    from tilecohom import abelian as ab
    from tilecohom.approximant import hull_cohomology, quotient_cohomology, rotation_action
    from tilecohom.pipeline import group_json

    hull = hull_cohomology(cx)
    torus = ab.mapping_torus_cohomology(rotation_action(cx, hull))
    quot = quotient_cohomology(cx)
    return ([group_json(h.group) for h in hull], [group_json(d.group) for d in torus],
            [group_json(h.group) for h in quot])


class StoredComplexTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.data = cxs.load_triplets(STORED_COMPLEX)
        cls.expected = expected_values("penrose")
        cls.groups = _groups(cxs.to_complex(cls.data))

    def test_is_chain_complex(self):
        self.assertTrue(cxs.boundary_squared_zero(self.data))

    def test_sizes(self):
        self.assertEqual(self.data["cell_counts"], self.expected["approximant_cells"])
        total = sum(cxs.nnz(self.data, kind) for kind in ("boundary", "self_map", "rotation"))
        self.assertEqual(total, 2778)

    def test_expected_groups(self):
        exp = self.expected
        self.assertEqual(self.groups, (groups_json(exp["hull"]),
                                       groups_json(exp["mapping_torus"]),
                                       groups_json(exp["quotient_hull"])))

    def test_corrupted_boundary_detected(self):
        bad = copy.deepcopy(self.data)
        bad["boundary"][1]["entries"][0][2] *= -1
        self.assertFalse(cxs.boundary_squared_zero(bad))

    def test_conjugate_has_identical_groups(self):
        conj = cxs.seeded_conjugate(self.data, seed=7, index=0)
        self.assertTrue(cxs.boundary_squared_zero(conj))
        self.assertNotEqual(conj["boundary"], self.data["boundary"])
        self.assertEqual(_groups(cxs.to_complex(conj)), self.groups)

    def test_conjugate_then_transpose_is_identity(self):
        rng = random.Random(3)
        perms = [cxs.random_signed_permutation(n, rng) for n in self.data["cell_counts"]]
        there = cxs.conjugate(self.data, perms)
        back = cxs.conjugate(there, [cxs.inverse_signed_permutation(p) for p in perms])
        for kind in ("boundary", "self_map", "rotation"):
            self.assertEqual(back[kind], self.data[kind], kind)

    def test_seed_determines_input(self):
        a = cxs.seeded_conjugate(self.data, seed=5, index=1)
        self.assertEqual(a, cxs.seeded_conjugate(self.data, seed=5, index=1))
        self.assertNotEqual(a, cxs.seeded_conjugate(self.data, seed=6, index=1))
        self.assertNotEqual(a, cxs.seeded_conjugate(self.data, seed=5, index=2))


def _report_from_expected(exp: dict) -> dict:
    """A both-routes report carrying exactly the expected values."""
    spectral = {
        "groups": groups_json(exp["final_groups"]),
        "E2": {"q0": groups_json(exp["e2_q0"]), "q1": groups_json(exp["e2_q1"])},
        "Einf": {"q0": groups_json(exp["einf_q0"]), "q1": groups_json(exp["einf_q1"])},
    }
    mapping_torus = {key: groups_json(exp[key])
                     for key in ("hull", "invar", "coinvar", "quotient_hull")}
    mapping_torus.update(
        groups=groups_json(exp["mapping_torus"]),
        cells=exp["approximant_cells"],
        collared_classes=exp["collared_classes"],
        collar_level=exp["collar_level"],
        stabilization_stages=exp["stabilization_stages"],
    )
    tiles, edges, vertices = exp["atlas_counts"]
    return {
        "passed": True,
        "verdicts": [{"name": "route_agreement", "passed": True}],
        "atlas": {"counts": {"tile_classes": tiles, "edge_star_classes": edges,
                             "vertex_star_classes": vertices},
                  "closure_level": exp["atlas_closure_level"],
                  "orders": exp["symmetry_orders"]},
        "omega": [{"winding": w} for w in exp["omega_multiset"]],
        "rho": [{"turns": [t, 10]} for t in exp["rho_multiset_tenths"]],
        "routes": {"spectral": spectral, "mapping_torus": mapping_torus},
    }


class ReportCheckTest(unittest.TestCase):
    def setUp(self):
        self.exp = expected_values("penrose")
        self.report = _report_from_expected(self.exp)

    def test_expected_report_passes(self):
        self.assertEqual(check_report(self.report, self.exp, "both"), [])

    def test_wrong_group_fails(self):
        self.report["routes"]["mapping_torus"]["groups"][2]["rank"] = 4
        self.assertTrue(check_report(self.report, self.exp, "both"))

    def test_failed_verdict_fails(self):
        self.report["verdicts"][0]["passed"] = False
        self.assertTrue(check_report(self.report, self.exp, "both"))

    def test_spectral_route_ignores_mapping_torus(self):
        del self.report["routes"]["mapping_torus"]
        self.assertEqual(check_report(self.report, self.exp, "spectral"), [])
        self.report["routes"]["spectral"]["E2"]["q1"][0]["torsion"] = []
        self.assertTrue(check_report(self.report, self.exp, "spectral"))


class HullAlgebraCheckTest(unittest.TestCase):
    def test_wrong_result_fails(self):
        from tilecohom import abelian as ab

        z = ab.FgAbGroup(1, ())
        torus = [ab.MappingTorusDegree(k, z, z, z, False) for k in range(4)]
        problems = check(([], torus, []), expected_values("penrose"))
        self.assertTrue(any(p.startswith("hull") for p in problems))
        self.assertTrue(any(p.startswith("mapping torus") for p in problems))


class ReferenceTest(unittest.TestCase):
    def test_result_is_fixed(self):
        self.assertEqual(reference_work(), RESULT)


class TracerTest(unittest.TestCase):
    def test_patches_from_import_bindings_and_restores(self):
        from tilecohom import approximant, pipeline

        original = approximant.collar
        self.assertIs(pipeline.collar, original)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(approximant.collar, original)
            self.assertIs(pipeline.collar, approximant.collar)
        finally:
            tracer.remove()
        self.assertIs(approximant.collar, original)
        self.assertIs(pipeline.collar, original)

    def test_self_time_and_outermost_inclusive_time(self):
        tracer = Tracer()
        tracer.spans = [
            (0, -1, "bench.operation", 0.0, 10.0),
            (1, 0, "approximant.hull_cohomology", 1.0, 7.0),
            (2, 1, "abelian.snf", 2.0, 4.0),
            (3, 1, "approximant.hull_cohomology", 4.0, 6.0),
        ]
        self_times = tracer.self_times()
        self.assertEqual(self_times, {0: 4.0, 1: 2.0, 2: 2.0, 3: 2.0})
        metrics = tracer.metrics()
        self.assertEqual(metrics["approximant.hull_cohomology_s"], 6.0)
        self.assertEqual(metrics["abelian.snf_s"], 2.0)
        self.assertEqual(metrics["abelian.snf_calls"], 1)


if __name__ == "__main__":
    unittest.main()
