"""Star atlas: closure, classes, symmetry, isotropy."""

import json
from pathlib import Path

import pytest

from conftest import expected_values, system_path
from tilecohom.atlas import (
    IsotropyViolation,
    NotClosed,
    check_isotropy,
    grow_star_closure,
    _vertex_star,
)
from tilecohom.tiling import (
    Patch,
    canonical_key,
    matching_motions,
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
