"""Approximant complexes: collaring, self-maps, hull and quotient cohomology."""

import pytest

from conftest import as_group, expected_values
from tilecohom import abelian as ab
from tilecohom.abelian import FgAbGroup
from tilecohom.approximant import quotient_complex


class TestSquareTorus:
    def test_single_collared_class(self, square_run):
        assert square_run.complex.labels["collared_classes"] == 1

    def test_torus_cells(self, square_run):
        assert square_run.complex.cell_counts == [1, 2, 1]

    def test_torus_cohomology(self, square_run):
        groups = [h.group for h in square_run.hull]
        assert groups == [FgAbGroup(1), FgAbGroup(2), FgAbGroup(1)]

    def test_quotient_equals_hull_for_trivial_group(self, square_run):
        hull = [h.group for h in square_run.hull]
        quot = [h.group for h in square_run.quotient]
        assert hull == quot

    def test_mapping_torus_kunneth(self, square_run):
        torus = ab.mapping_torus_cohomology(square_run.rotation)
        assert [d.group for d in torus] == [
            FgAbGroup(1), FgAbGroup(3), FgAbGroup(3), FgAbGroup(1),
        ]


class TestFibonacci:
    def test_collared_letter_count(self, fibonacci_run):
        assert fibonacci_run.complex.labels["collared_letters"] == 4

    def test_connected(self, fibonacci_run):
        from tilecohom.approximant import hull_cohomology

        hull = hull_cohomology(fibonacci_run.complex)
        assert hull[0].approximant_group == FgAbGroup(1)

    def test_hull_cohomology(self, fibonacci_run):
        from tilecohom.approximant import hull_cohomology

        hull = hull_cohomology(fibonacci_run.complex)
        expected = [as_group(g) for g in expected_values("fibonacci")["hull"]]
        assert [h.group for h in hull] == expected


class TestPenroseHull:
    def test_collared_count_regression(self, penrose_run):
        expected = expected_values("penrose")
        labels = penrose_run.complex.labels
        assert labels["collared_classes"] == expected["collared_classes"]
        assert labels["collar_level"] == expected["collar_level"]
        assert penrose_run.complex.cell_counts == expected["approximant_cells"]

    def test_hull_groups(self, penrose_run):
        expected = [as_group(g) for g in expected_values("penrose")["hull"]]
        assert [h.group for h in penrose_run.hull] == expected

    def test_stabilization_stages(self, penrose_run):
        expected = expected_values("penrose")["stabilization_stages"]
        assert [h.stage for h in penrose_run.hull] == expected
        assert all(s <= 20 for s in expected)

    def test_degree_zero_is_connected(self, penrose_run):
        assert penrose_run.hull[0].group == FgAbGroup(1)

    def test_invariants_coinvariants(self, penrose_run):
        expected = expected_values("penrose")
        rot = penrose_run.rotation
        assert [ab.invariants_of(r) for r in rot] == [
            as_group(g) for g in expected["invar"]
        ]
        assert [ab.coinvariants_of(r) for r in rot] == [
            as_group(g) for g in expected["coinvar"]
        ]

    def test_degree_one_action_matches_published_matrix(self, penrose_run):
        # basis-invariant comparison: one zero elementary divisor with all
        # other divisors units, and the characteristic polynomial
        # (x - 1)(x^4 - x^3 + x^2 - x + 1)
        f = penrose_run.rotation[1]
        delta = f.matrix - ab.eye(5)
        divisors = ab.smith_normal_form(delta).divisors
        assert sorted(divisors) == [0, 1, 1, 1, 1]
        assert ab.characteristic_polynomial(f.matrix) == [1, -2, 2, -2, 2, -1]

    def test_rotation_has_order_ten(self, penrose_run):
        for f in penrose_run.rotation:
            power = ab.GroupHom.identity(f.source)
            for _ in range(10):
                power = f.compose(power)
            assert ab.hom_equal_mod_torsion(power, ab.GroupHom.identity(f.source))

    def test_mapping_torus(self, penrose_run):
        torus = ab.mapping_torus_cohomology(penrose_run.rotation)
        expected = [as_group(g) for g in expected_values("penrose")["mapping_torus"]]
        assert [d.group for d in torus] == expected
        assert not any(d.extension_ambiguous for d in torus)

    def test_euler_characteristic_vanishes(self, penrose_run):
        torus = ab.mapping_torus_cohomology(penrose_run.rotation)
        assert sum((-1) ** d.degree * d.group.free_rank for d in torus) == 0

    def test_quotient_groups(self, penrose_run):
        expected = [as_group(g) for g in expected_values("penrose")["quotient_hull"]]
        assert [h.group for h in penrose_run.quotient] == expected

    def test_quotient_rank_equals_invariant_rank(self, penrose_run):
        for r, q in zip(penrose_run.rotation, penrose_run.quotient):
            assert ab.invariants_of(r).free_rank == q.group.free_rank

    def test_rational_exact_sequence_ranks(self, penrose_run):
        rot = penrose_run.rotation
        torus = ab.mapping_torus_cohomology(rot)
        for k, d in enumerate(torus):
            inv = ab.invariants_of(rot[k]).free_rank if k < len(rot) else 0
            coinv = ab.coinvariants_of(rot[k - 1]).free_rank if k >= 1 else 0
            assert d.group.free_rank == inv + coinv

    def test_quotient_complex_euler(self, penrose_run):
        cx = penrose_run.complex
        q = quotient_complex(cx)
        # the orbit complex has one tenth of the free-orbit cells
        assert q.cell_counts[2] == cx.cell_counts[2] // 10


def test_signed_union_find_detects_reversed_self_identification():
    from tilecohom.approximant import InconsistentIdentification, _SignedUnionFind

    uf = _SignedUnionFind()
    uf.union("a", "b", -1)
    uf.union("b", "c", -1)
    assert uf.find("c")[0] == uf.find("a")[0]
    assert uf.find("c")[1] * uf.find("a")[1] == 1
    with pytest.raises(InconsistentIdentification):
        uf.union("a", "c", -1)
