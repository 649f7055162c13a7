"""Star atlas: closure, classes, symmetry, isotropy."""

import json
import random
from pathlib import Path

import pytest

from conftest import apply_motion, expected_values, system_path
from tilecohom.atlas import (
    IsotropyViolation,
    NotClosed,
    _edge_star,
    _vertex_star,
    atlas_edge_lookup,
    atlas_vertex_lookup,
    check_isotropy,
    edge_occurrence,
    grow_star_closure,
)
from tilecohom.cyclotomic import RigidMotion, euler_phi
from tilecohom.tiling import (
    Patch,
    canonical_key,
    load_system,
    matching_motions,
    oriented_edge_key,
    system_from_dict,
)
from tilecohom.winding import dagger_orders


class TestPenroseAtlas:
    def test_class_counts(self, penrose_atlas):
        expected = expected_values("penrose")
        assert list(penrose_atlas.counts()) == expected["atlas_counts"]
        assert penrose_atlas.closure_level == expected["atlas_closure_level"]

    def test_symmetry_orders(self, penrose_atlas):
        expected = expected_values("penrose")
        assert sorted(dagger_orders(penrose_atlas)) == expected["symmetry_orders"]

    def test_orders_divide_rotation_order(self, penrose_atlas):
        for order in dagger_orders(penrose_atlas):
            assert 10 % order == 0

    def test_isotropy_passes(self, penrose_atlas):
        report = check_isotropy(penrose_atlas)
        assert report["isotropy"] == "trivial"

    def test_sun_star_motions(self, penrose_atlas):
        # the five-fold stars admit exactly five self-motions
        for cls in penrose_atlas.vertex_classes:
            motions = matching_motions(
                cls.patch, cls.patch, center1=cls.center, center2=cls.center
            )
            assert len(motions) == cls.symmetry_order

    def test_fivefold_star_has_two_translation_classes(self, penrose_atlas):
        # 10 rotations of a 5-fold symmetric star collapse to 2 translation
        # classes and a single rigid class
        from tilecohom.cyclotomic import RigidMotion

        cls = next(c for c in penrose_atlas.vertex_classes if c.symmetry_order == 5)
        keys_t = set()
        keys_r = set()
        for k in range(10):
            moved = cls.patch.transform(RigidMotion.rotation(10, k))
            from tilecohom.tiling import _rotate_center

            center = _rotate_center(penrose_atlas.system, cls.center, k)
            keys_t.add(canonical_key(moved, "translation", center=center))
            keys_r.add(canonical_key(moved, "rigid", center=center))
        assert len(keys_t) == 2
        assert len(keys_r) == 1

    def test_atlas_closed_under_substitution(self, penrose_system, penrose_atlas):
        # substituting any vertex-star representative and re-extracting stars
        # yields only listed classes
        from tilecohom.atlas import atlas_vertex_lookup

        lookup = atlas_vertex_lookup(penrose_atlas)
        native = penrose_system
        for cls in penrose_atlas.vertex_classes:
            # work at the half-tile level: split, substitute, regroup
            halves = []
            for t in cls.patch.tiles:
                rule = native.regroups[t.proto]
                for part in rule.parts:
                    halves.append(native.transform_tile(t.motion(native.n), part))
            sub = Patch(native, halves).substitute(2).regrouped()
            cells = sub.cells
            for v in cells.complete_vertices():
                star, center = _vertex_star(sub, v)
                key = canonical_key(star, "rigid", center=center)
                assert key in lookup


class TestRigidKeyMemo:
    """Rigid keys are memoized per TilingSystem by translation normal form."""

    def test_fresh_keys_equal_memoized_keys(self, penrose_atlas):
        # every key of the audit patch, computed in full on a fresh system
        # (memo emptied before each call), equals the session system's key
        patch = penrose_atlas.audit_patch
        fresh = load_system(system_path("penrose")).public_system
        assert fresh.rigid_keys == {}
        cells = patch.cells
        for v in cells.complete_vertices():
            star, center = _vertex_star(patch, v)
            fresh.rigid_keys.clear()
            assert canonical_key(Patch(fresh, star.tiles), "rigid", center=center) == \
                canonical_key(star, "rigid", center=center)
        for e in cells.complete_edges():
            star, pa, pb = _edge_star(patch, e)
            for tail, head in ((pa, pb), (pb, pa)):
                fresh.rigid_keys.clear()
                assert oriented_edge_key(Patch(fresh, star.tiles), tail, head) == \
                    oriented_edge_key(star, tail, head)
        for t in patch.tiles:
            fresh.rigid_keys.clear()
            assert canonical_key(Patch(fresh, [t]), "rigid", center=("t", t)) == \
                canonical_key(Patch(patch.system, [t]), "rigid", center=("t", t))

    def test_memo_owned_by_each_system(self, penrose_system, penrose_atlas, square_run):
        public = penrose_atlas.system
        assert public is penrose_system.public_system
        assert public.rigid_keys
        assert not penrose_system.rigid_keys.keys() & public.rigid_keys.keys()
        square = square_run.atlas.system
        assert square.rigid_keys
        assert not square.rigid_keys.keys() & public.rigid_keys.keys()
        # the memo takes no part in comparing systems
        assert load_system(system_path("penrose")) == penrose_system

    def test_classes_invariant_under_a_seeded_rigid_motion(self, penrose_atlas):
        # metamorphic: move the whole audit patch by a group rotation and a
        # nonzero translation; every cell keeps its class
        rng = random.Random(20261018)
        system = penrose_atlas.system
        n = system.n
        shift = (0,) * euler_phi(n)
        while not any(shift):
            shift = tuple(rng.randint(-3, 3) for _ in range(euler_phi(n)))
        motion = RigidMotion(n, rng.choice(system.group_rotation_indices()[1:]), shift)
        patch = penrose_atlas.audit_patch
        moved = patch.transform(motion)
        cells, moved_cells = patch.cells, moved.cells
        assert len(moved_cells.complete_vertices()) == len(cells.complete_vertices())
        assert len(moved_cells.complete_edges()) == len(cells.complete_edges())

        vertex_index = atlas_vertex_lookup(penrose_atlas)
        for v in cells.complete_vertices():
            mv = moved_cells.vertex_id[apply_motion(motion, cells.vertex_pos[v])]
            star, center = _vertex_star(patch, v)
            moved_star, moved_center = _vertex_star(moved, mv)
            assert vertex_index[canonical_key(moved_star, "rigid", center=moved_center)] == \
                vertex_index[canonical_key(star, "rigid", center=center)]

        edge_index = atlas_edge_lookup(penrose_atlas)
        for e in cells.complete_edges():
            idx, tail, head = edge_occurrence(patch, e, edge_index)
            ends = sorted(
                moved_cells.vertex_id[apply_motion(motion, cells.vertex_pos[p])]
                for p in cells.edge_ends[e]
            )
            me = moved_cells.edge_id[tuple(ends)]
            assert edge_occurrence(moved, me, edge_index) == (
                idx, apply_motion(motion, tail), apply_motion(motion, head)
            )


class TestSquareAtlas:
    def test_counts(self, square_run):
        expected = expected_values("square")
        assert list(square_run.atlas.counts()) == expected["atlas_counts"]

    def test_single_vertex_class_has_order_one(self, square_run):
        assert dagger_orders(square_run.atlas) == (1,)

    def test_isotropy_vacuous_for_trivial_group(self, square_run):
        assert check_isotropy(square_run.atlas)["isotropy"] == "trivial"


def undecorated_square_system():
    """The same square tiling but with the full four-fold rotation group."""
    data = json.loads(Path(system_path("square")).read_text())
    data["rotation_order"] = 4
    data["name"] = "undecorated_square"
    data.pop("fixtures", None)
    return system_from_dict(data)


class TestIsotropyViolation:
    def test_undecorated_square_edge_flip(self):
        system = undecorated_square_system()
        atlas = grow_star_closure(system)
        # a half-turn about an edge midpoint preserves the edge star
        with pytest.raises(IsotropyViolation):
            check_isotropy(atlas)


def test_not_closed_when_level_too_small(penrose_system):
    with pytest.raises(NotClosed):
        grow_star_closure(penrose_system, max_level=2)


def _atlas_classes(atlas):
    """Counts, class keys, oriented edge keys and vertex slots of an atlas."""
    return (atlas.counts(),
            [c.key for c in atlas.tile_classes],
            [(c.key, c.oriented_key) for c in atlas.edge_classes],
            [(c.key, c.slots) for c in atlas.vertex_classes])


@pytest.mark.parametrize("system_fixture", ["penrose_system", "square_system"])
def test_atlas_independent_of_seed_prototile(system_fixture, request):
    # the closure level may differ: Penrose seeds 2 and 3 close at level 7
    system = request.getfixturevalue(system_fixture)
    atlases = [grow_star_closure(system, seed_proto=p) for p in range(len(system.prototiles))]
    assert all(_atlas_classes(a) == _atlas_classes(atlases[0]) for a in atlases[1:])
    assert len(atlases) == {"penrose_system": 4, "square_system": 1}[system_fixture]
