"""Approximant complexes: collaring, self-maps, hull and quotient cohomology."""

import copy
import random

import numpy as np
import pytest

from conftest import as_group, expected_values
from tilecohom import abelian as ab
from tilecohom.abelian import FgAbGroup
from tilecohom.approximant import (
    ApproximantComplex,
    _collared_key,
    _identification_data,
    _trusted_classes,
    collar,
    hull_cohomology,
    quotient_cohomology,
    quotient_complex,
    rotation_action,
)
from tilecohom.tiling import prototile_patch


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


@pytest.mark.parametrize("system_fixture", ["penrose_system", "square_system"])
def test_children_table_matches_child_patch(system_fixture, request):
    """Each class's children equal those read one level deeper, where the
    table used to come from: the first occurrence in the closing patch
    whose children are all trusted in a patch substituted once more."""
    system = request.getfixturevalue(system_fixture)
    collared = collar(system)
    class_index = {k: i for i, k in enumerate(collared.class_keys)}
    before = prototile_patch(system, 0).substitute(collared.level - 1)
    closing = before.substitute(1)
    child_patch = closing.substitute(1)

    # every tile trusted before the closing level has trusted children
    for cf, f in enumerate(closing.parents):
        if before.cells.tile_complete(f):
            assert closing.cells.tile_complete(cf)

    children_of = {}
    for cf, f in enumerate(child_patch.parents):
        children_of.setdefault(f, []).append(cf)
    expected = {}
    for f in range(len(closing)):
        if len(expected) == collared.count:
            break
        if not closing.cells.tile_complete(f):
            continue
        ci = class_index[_collared_key(closing, f)]
        if ci not in expected and all(
                child_patch.cells.tile_complete(cf) for cf in children_of[f]):
            expected[ci] = tuple(class_index[_collared_key(child_patch, cf)]
                                 for cf in children_of[f])
    assert collared.children == [expected[ci] for ci in range(collared.count)]


@pytest.mark.parametrize("system_fixture", ["penrose_system", "square_system"])
def test_closing_data_observed_one_level_deeper(system_fixture, request):
    """The rotation-saturated classes and gluing data equal the plain
    translation classes and gluing observed one level past the closing
    one, and the children table commutes with the class rotation."""
    system = request.getfixturevalue(system_fixture)
    collared = collar(system)
    deeper = prototile_patch(system, 0).substitute(collared.level + 1)
    tile_class = _trusted_classes(deeper)
    assert collared.class_keys == sorted(set(tile_class.values()))

    edge_pairs, vertex_sets = _identification_data(deeper, tile_class)
    class_index = {k: i for i, k in enumerate(collared.class_keys)}
    indexed = [sorted((class_index[k], s) for k, s in entries) for entries in vertex_sets]
    assert collared.edge_idents == sorted(
        tuple(sorted((class_index[k], s) for k, s in pair)) for pair in edge_pairs)
    assert collared.vertex_idents == sorted(
        {(entries[0], other) for entries in indexed for other in entries[1:]})

    r = collared.class_rotation or list(range(collared.count))
    assert sorted(r) == list(range(collared.count))
    power = list(range(collared.count))
    for _ in range(system.rotation_order):
        power = [r[i] for i in power]
    assert power == list(range(collared.count))
    for i, kids in enumerate(collared.children):
        assert collared.children[r[i]] == tuple(r[c] for c in kids)


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((-1, 1)) for _ in range(n)]


def _conjugate(mat, rows, cols):
    """P · mat · Qᵀ for signed permutations P and Q, each given as (perm,
    signs) with P e_j = signs[j] e_perm[j]; Qᵀ = Q⁻¹, so this is a change
    of cell basis."""
    (p, p_signs), (q, q_signs) = rows, cols
    out = ab.zeros(*mat.shape)
    for i, j in zip(*np.nonzero(mat)):
        out[p[i], q[j]] = p_signs[i] * mat[i, j] * q_signs[j]
    return out


def test_groups_unchanged_under_signed_cell_relabelling(penrose_run):
    cx = penrose_run.complex
    rng = random.Random(20261018)
    p = [_signed_permutation(rng, n) for n in cx.cell_counts]
    relabelled = ApproximantComplex(
        dimension=cx.dimension,
        cell_counts=list(cx.cell_counts),
        boundary=[_conjugate(d, p[k], p[k + 1]) for k, d in enumerate(cx.boundary)],
        self_map=[_conjugate(s, p[k], p[k]) for k, s in enumerate(cx.self_map)],
        rotation=[_conjugate(r, p[k], p[k]) for k, r in enumerate(cx.rotation)],
        rotation_order=cx.rotation_order,
        labels=dict(cx.labels),
    )
    relabelled.validate()
    assert not any(ab.mat_eq(a, b) for a, b in zip(relabelled.boundary, cx.boundary))
    hull = hull_cohomology(relabelled)
    torus = ab.mapping_torus_cohomology(rotation_action(relabelled, hull))
    quotient = quotient_cohomology(relabelled)
    assert [h.group for h in hull] == [h.group for h in penrose_run.hull]
    assert [h.stage for h in hull] == [h.stage for h in penrose_run.hull]
    assert [(d.group, d.invariants, d.coinvariants_below, d.extension_ambiguous)
            for d in torus] == [
        (d.group, d.invariants, d.coinvariants_below, d.extension_ambiguous)
        for d in penrose_run.torus]
    assert [h.group for h in quotient] == [h.group for h in penrose_run.quotient]


def _bump_entry(mat, row_ok):
    """Add 1 to the first entry of column 0 whose row index passes ``row_ok``."""
    i = next(i for i in range(mat.shape[0]) if row_ok(i))
    mat[i, 0] += 1


def _break_boundary(cx):
    # d1 of edge i is nonzero, so adding edge i to the boundary of face 0
    # makes d1 d2 nonzero
    _bump_entry(cx.boundary[1], lambda i: any(cx.boundary[0][:, i]))


def _break_self_map(cx):
    _bump_entry(cx.self_map[2], lambda i: any(cx.boundary[1][:, i]))


def _break_rotation(cx):
    _bump_entry(cx.rotation[2], lambda i: any(cx.boundary[1][:, i]))


def _break_rotation_self_map(cx):
    # add the null-homotopic chain map d h + h d, with h sending vertex 0 to
    # edge e: the self-map stays a chain map but no longer commutes with
    # the rotation
    d = cx.boundary[0]
    e = next(j for j in range(d.shape[1]) if d[0, j] != 0)
    cx.self_map[0][:, 0] += d[:, e]
    cx.self_map[1][e, :] += d[0, :]


def _break_rotation_order(cx):
    cx.rotation_order = 9


@pytest.mark.parametrize("corrupt,message", [
    (_break_boundary, "boundary squared nonzero in degree 2"),
    (_break_self_map, "self-map does not commute with boundary at 2"),
    (_break_rotation, "rotation does not commute with boundary at 2"),
    (_break_rotation_self_map, "rotation does not commute with self-map at 0"),
    (_break_rotation_order, "rotation order violated in degree 0"),
], ids=["boundary", "self-map", "rotation", "rotation-self-map", "rotation-order"])
def test_validate_rejects_each_broken_identity(corrupt, message, penrose_run, square_run):
    penrose_run.complex.validate()
    square_run.complex.validate()
    cx = copy.deepcopy(penrose_run.complex)
    corrupt(cx)
    with pytest.raises(AssertionError, match=message):
        cx.validate()


@pytest.mark.parametrize("corrupt,error", [
    (_break_boundary, ab.CompositionNotZero),
    (_break_self_map, ab.NotChainMap),
], ids=["boundary", "self-map"])
def test_hull_cohomology_rejects_broken_complex(corrupt, error, penrose_run):
    cx = copy.deepcopy(penrose_run.complex)
    corrupt(cx)
    with pytest.raises(error):
        hull_cohomology(cx)


def test_quotient_cohomology_rejects_broken_self_map(penrose_run):
    # the orbit complex is checked by hull_cohomology, not validated again
    cx = copy.deepcopy(penrose_run.complex)
    _break_self_map(cx)
    with pytest.raises(ab.NotChainMap):
        quotient_cohomology(cx)


def test_rotation_action_rejects_broken_rotation(penrose_run):
    cx = copy.deepcopy(penrose_run.complex)
    _break_rotation(cx)
    hull = hull_cohomology(cx)
    with pytest.raises(ab.NotChainMap):
        rotation_action(cx, hull)


class TestPenroseCollapse:
    """The cochain complex collapsed along its unit incidences, against the
    Smith normal form route on the full 54 / 270 / 220-cell complex."""

    def test_core_is_one_five_eight_and_shared(self, penrose_run):
        core = penrose_run.hull[0].collapse
        assert [len(p) for p in core.projection] == penrose_run.complex.cell_counts
        assert core.sizes == [1, 5, 8]
        assert all(h.collapse is core for h in penrose_run.hull)

    def test_projection_inverts_inclusion_and_carries_differential(self, penrose_run):
        core = penrose_run.hull[0].collapse
        for k, n in enumerate(core.sizes):
            assert ab.sparse_product(core.projection[k], core.inclusion[k]) == \
                [{i: 1} for i in range(n)]
        for k, d in enumerate(penrose_run.complex.boundary):
            carried = ab.sparse_product(
                core.projection[k + 1],
                ab.sparse_product(ab.sparse_columns(d.T), core.inclusion[k]))
            assert carried == core.differential[k]

    def test_matches_full_complex(self, penrose_run):
        cx = penrose_run.complex
        for h, rot in zip(penrose_run.hull, penrose_run.rotation):
            k = h.degree
            d_in = cx.boundary[k - 1].T if k else ab.zeros(cx.cell_counts[0], 0)
            d_out = cx.boundary[k].T if k < cx.dimension else ab.zeros(0, cx.cell_counts[k])
            full = ab.Subquotient.of_pair(d_in, d_out)
            endo = full.induced_endomorphism(cx.self_map[k].T)
            limit = ab.direct_limit_full(ab.DirectSystem(full.group, endo))
            assert (full.group, limit.group, limit.stage) == \
                (h.approximant_group, h.group, h.stage)
            assert ab.characteristic_polynomial(endo.matrix) == \
                ab.characteristic_polynomial(h.self_endo.matrix)
            full_rot = limit.restrict(full.induced_endomorphism(cx.rotation[k].T))
            assert ab.characteristic_polynomial(full_rot.matrix) == \
                ab.characteristic_polynomial(rot.matrix)


def test_signed_union_find_detects_reversed_self_identification():
    from tilecohom.approximant import InconsistentIdentification, _SignedUnionFind

    uf = _SignedUnionFind()
    uf.union("a", "b", -1)
    uf.union("b", "c", -1)
    assert uf.find("c")[0] == uf.find("a")[0]
    assert uf.find("c")[1] * uf.find("a")[1] == 1
    with pytest.raises(InconsistentIdentification):
        uf.union("a", "c", -1)
