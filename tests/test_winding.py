"""Edge rotation values, winding numbers, and the atlas chain complex."""

from fractions import Fraction

import pytest

from conftest import expected_values
from tilecohom import abelian as ab
from tilecohom.winding import (
    NonIntegralWinding,
    RhoAssignment,
    assign_rho,
    atlas_boundary,
    dagger_orders,
    omega_chain,
    rational_coboundary_check,
)


class TestPenroseValues:
    def test_rho_multiset(self, penrose_atlas, penrose_rho_omega):
        rho, _ = penrose_rho_omega
        expected = [Fraction(k, 10) for k in expected_values("penrose")["rho_multiset_tenths"]]
        assert list(rho.multiset()) == sorted(expected)

    def test_omega_multiset(self, penrose_rho_omega):
        _, omega = penrose_rho_omega
        assert list(omega.multiset()) == expected_values("penrose")["omega_multiset"]

    def test_positive_windings_on_fivefold_classes(self, penrose_atlas, penrose_rho_omega):
        _, omega = penrose_rho_omega
        orders = dagger_orders(penrose_atlas)
        fivefold = [omega[i] for i, o in enumerate(orders) if o == 5]
        assert fivefold == expected_values("penrose")["omega_on_order5_classes"]

    def test_coboundary_check_passes(self, penrose_atlas, penrose_rho_omega):
        rho, omega = penrose_rho_omega
        assert rational_coboundary_check(penrose_atlas, rho, omega)["passed"]

    def test_corrupted_rho_fails_with_witness(self, penrose_atlas, penrose_rho_omega):
        rho, omega = penrose_rho_omega
        values = list(rho.values)
        values[0] += Fraction(1, 10)  # break the defining congruence
        verdict = rational_coboundary_check(
            penrose_atlas, RhoAssignment(tuple(values)), omega
        )
        assert not verdict["passed"]
        assert "witness_vertex_class" in verdict

    def test_full_turn_shift_changes_omega_by_boundary(self, penrose_atlas, penrose_rho_omega):
        # shifting rho by a whole turn on one class moves omega by exactly
        # the boundary of (minus) that class's indicator chain
        rho, omega = penrose_rho_omega
        d1 = atlas_boundary(penrose_atlas, 1)
        for target in range(len(penrose_atlas.edge_classes)):
            values = list(rho.values)
            values[target] += 1
            shifted = omega_chain(
                penrose_atlas, RhoAssignment(tuple(values)), audit=False
            )
            for v in range(len(penrose_atlas.vertex_classes)):
                assert shifted[v] - omega[v] == -int(d1[v, target])

    def test_boundary_composition_zero(self, penrose_atlas):
        d1 = atlas_boundary(penrose_atlas, 1)
        d2 = atlas_boundary(penrose_atlas, 2)
        assert ab.is_zero(d1.dot(d2))

    def test_dagger_orders(self, penrose_atlas):
        assert sorted(dagger_orders(penrose_atlas)) == [1, 1, 1, 1, 1, 5, 5]


class TestSquareValues:
    def test_all_rho_zero(self, square_run):
        rho = assign_rho(square_run.atlas)
        assert all(v == 0 for v in rho.values)

    def test_omega_identically_zero(self, square_run):
        rho = assign_rho(square_run.atlas)
        omega = omega_chain(square_run.atlas, rho)
        assert set(omega.values) == {0}

    def test_boundary_degree_one_vanishes(self, square_run):
        # each vertex class sees each edge class once in and once out
        d1 = atlas_boundary(square_run.atlas, 1)
        assert ab.is_zero(d1)


def test_integrality_never_fires_on_fixtures(penrose_atlas, square_run):
    for atlas in (penrose_atlas, square_run.atlas):
        rho = assign_rho(atlas)
        omega_chain(atlas, rho, audit=True)  # raises NonIntegralWinding on failure


def test_non_integral_winding_raises(penrose_atlas, penrose_rho_omega):
    rho, _ = penrose_rho_omega
    values = list(rho.values)
    values[0] += Fraction(1, 10)
    with pytest.raises(NonIntegralWinding):
        omega_chain(penrose_atlas, RhoAssignment(tuple(values)), audit=False)
