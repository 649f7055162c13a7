"""Second-page assembly, the winding differential, and total cohomology."""

import pytest

from conftest import as_group, expected_values
from tilecohom.abelian import FgAbGroup, ZERO_GROUP
from tilecohom.spectral import (
    SpectralInput,
    RankMismatch,
    apply_d2,
    assemble_e2,
    class_order,
    rational_collapse_check,
    spectral_route,
    total_cohomology,
)

Z = FgAbGroup(1)
Z2 = FgAbGroup(2)


def penrose_input():
    return SpectralInput(
        h_omega0=(Z, Z, Z2),
        h0_t0=FgAbGroup(2, (5,)),
        omega_class=(0, 0, 1),
    )


def square_input():
    return SpectralInput(
        h_omega0=(Z, Z2, Z),
        h0_t0=Z,
        omega_class=(0,),
    )


class TestAssemble:
    def test_penrose_page(self):
        page = assemble_e2(penrose_input())
        assert page.entry(0, 1) == FgAbGroup(2, (5,))
        assert page.entry(1, 1) == Z and page.entry(2, 1) == Z
        assert page.entry(0, 0) == Z2
        assert page.entry(1, 0) == Z and page.entry(2, 0) == Z

    def test_square_page(self):
        page = assemble_e2(square_input())
        for q in (0, 1):
            assert page.entry(0, q) == Z
            assert page.entry(1, q) == Z2
            assert page.entry(2, q) == Z

    def test_rank_mismatch_rejected(self):
        with pytest.raises(RankMismatch):
            assemble_e2(SpectralInput((Z, Z, Z2), FgAbGroup(1, (5,)), (0, 1)))

    def test_zero_groups_give_zero_page(self):
        data = SpectralInput((ZERO_GROUP,) * 3, ZERO_GROUP, ())
        with pytest.raises(RankMismatch):
            # the (2,0) entry must be infinite cyclic for the differential
            page = assemble_e2(data)
            apply_d2(page, (), ZERO_GROUP)


class TestDifferential:
    def test_torsion_generator_killed(self):
        data = penrose_input()
        page = apply_d2(assemble_e2(data), data.omega_class, data.h0_t0)
        assert page.entry(2, 0) == Z          # kernel of k -> k*omega is 5Z
        assert page.entry(0, 1) == Z2         # torsion killed
        assert page.page == 3

    def test_zero_class_keeps_page(self):
        data = square_input()
        e2 = assemble_e2(data)
        e3 = apply_d2(e2, data.omega_class, data.h0_t0)
        assert e3.entries == e2.entries

    def test_free_generator_drops_rank(self):
        data = SpectralInput((Z, Z, Z), Z, (1,))
        page = apply_d2(assemble_e2(data), data.omega_class, data.h0_t0)
        assert page.entry(2, 0) == ZERO_GROUP
        assert page.entry(0, 1) == ZERO_GROUP

    def test_only_two_entries_change(self):
        data = penrose_input()
        e2 = assemble_e2(data)
        e3 = apply_d2(e2, data.omega_class, data.h0_t0)
        for pq in ((1, 1), (2, 1), (0, 0), (1, 0)):
            assert e2.entries[pq] == e3.entries[pq]


class TestClassOrder:
    def test_orders(self):
        g = FgAbGroup(2, (5,))
        assert class_order(g, (0, 0, 1)) == 5
        assert class_order(g, (1, 0, 0)) == 0
        assert class_order(g, (0, 0, 0)) == 1
        assert class_order(FgAbGroup(0, (4,)), (2,)) == 2


class TestTotal:
    def test_penrose_final_groups(self):
        _, _, total = spectral_route(penrose_input())
        expected = [as_group(g) for g in expected_values("penrose")["final_groups"]]
        assert [d.group for d in total] == expected
        assert not any(d.extension_ambiguous for d in total)

    def test_square_final_groups(self):
        _, _, total = spectral_route(square_input())
        assert [d.group for d in total] == [
            FgAbGroup(1), FgAbGroup(3), FgAbGroup(3), FgAbGroup(1),
        ]

    def test_kunneth_for_torsion_free_zero_class(self):
        # with no torsion and zero winding class the answer is the product
        # with a circle in every degree
        h = (FgAbGroup(1), FgAbGroup(3), FgAbGroup(2))
        data = SpectralInput(h, FgAbGroup(2), (0, 0))
        _, _, total = spectral_route(data)
        for k, d in enumerate(total):
            expect = (h[k].free_rank if k < 3 else 0) + (
                h[k - 1].free_rank if 1 <= k <= 3 else 0
            )
            assert d.group == FgAbGroup(expect)


def collapse_verdict(data: SpectralInput) -> dict:
    _, _, total = spectral_route(data)
    return rational_collapse_check(data, total)


class TestCollapse:
    def test_penrose_passes(self):
        verdict = collapse_verdict(penrose_input())
        assert verdict["passed"]
        assert verdict["ranks"] == [1, 2, 3, 2]

    def test_square_passes(self):
        assert collapse_verdict(square_input())["passed"]

    def test_corrupted_input_fails(self):
        # a winding class of infinite order destroys free rank, so the
        # product-with-a-circle rank pattern cannot hold
        data = SpectralInput((Z, Z, Z2), FgAbGroup(2, (5,)), (1, 0, 0))
        verdict = collapse_verdict(data)
        assert not verdict["passed"]
        assert "degree" in verdict
