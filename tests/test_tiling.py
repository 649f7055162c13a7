"""Tiling systems: validation, substitution, cell structure, canonical keys."""

import json
import random
from pathlib import Path

import pytest

from conftest import system_path
from tilecohom import cyclotomic as cyc
from tilecohom.cyclotomic import RigidMotion
from tilecohom.tiling import (
    ParseError,
    Patch,
    RuleViolation,
    Tile,
    ValidationError,
    canonical_key,
    cross_is_zero,
    load_system,
    matching_motions,
    prototile_patch,
    system_from_dict,
)


def count_matrix_power(mat, k):
    s = len(mat)
    out = [[1 if i == j else 0 for j in range(s)] for i in range(s)]
    for _ in range(k):
        out = [[sum(out[i][l] * mat[l][j] for l in range(s)) for j in range(s)]
               for i in range(s)]
    return out


class TestLoading:
    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_system(str(bad))

    def test_missing_fields(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rotation_order": 10}))
        with pytest.raises(ParseError):
            load_system(str(bad))

    def test_rule_violation_detected(self):
        data = json.loads(Path(system_path("square")).read_text())
        data["substitution"]["0"] = data["substitution"]["0"][:3]  # drop a child
        with pytest.raises(RuleViolation):
            system_from_dict(data)

    def test_overlap_detected(self):
        data = json.loads(Path(system_path("square")).read_text())
        data["substitution"]["0"][1] = data["substitution"]["0"][0]
        with pytest.raises(RuleViolation):
            system_from_dict(data)

    def test_rotation_order_must_divide(self):
        data = json.loads(Path(system_path("square")).read_text())
        data["rotation_order"] = 3
        with pytest.raises(ValidationError):
            system_from_dict(data)


class TestSubstitution:
    def test_level_zero_is_identity(self, penrose_system):
        patch = prototile_patch(penrose_system, 0)
        assert patch.substitute(0).tiles == patch.tiles

    def test_level_one_matches_rule(self, penrose_system):
        patch = prototile_patch(penrose_system, 0).substitute(1)
        assert sorted(patch.tiles) == sorted(penrose_system.placements[0])

    def test_counts_follow_matrix_power(self, penrose_system):
        # independent oracle: powers of the tile-count matrix
        mat = penrose_system.count_matrix()
        for level in range(1, 6):
            patch = prototile_patch(penrose_system, 0).substitute(level)
            power = count_matrix_power(mat, level)
            for proto in range(4):
                got = sum(1 for t in patch.tiles if t.proto == proto)
                assert got == power[proto][0]

    def test_equivariance(self, penrose_system):
        # rotations commute with substitution on the nose; translations are
        # inflated, so general motions agree up to the translation key
        rng = random.Random(31)
        patch = prototile_patch(penrose_system, 0).substitute(2)
        for k in range(10):
            rot = RigidMotion.rotation(10, k)
            a = patch.transform(rot).substitute(1)
            b = patch.substitute(1).transform(rot)
            assert a.tile_set() == b.tile_set()
        for _ in range(5):
            motion = RigidMotion(
                10, rng.randrange(10),
                tuple(rng.randint(-3, 3) for _ in range(4)),
            )
            a = patch.transform(motion).substitute(1)
            b = patch.substitute(1).transform(motion)
            assert canonical_key(a, "translation") == canonical_key(b, "translation")

    def test_regroup_roundtrip_counts(self, penrose_system):
        patch = prototile_patch(penrose_system, 0).substitute(6)
        merged = patch.regrouped()
        used = sum(len(g) for g in merged.members)
        assert used == 2 * len(merged.tiles)
        # every complete half found a partner
        cells = patch.cells
        unused = set(range(len(patch.tiles))) - {
            i for g in merged.members for i in g
        }
        assert all(not cells.tile_complete(f) for f in unused)


class TestCellStructure:
    def test_euler_characteristic_of_disk(self, penrose_system):
        patch = prototile_patch(penrose_system, 0).substitute(4)
        cells = patch.cells
        assert cells.n_vertices - cells.n_edges + cells.n_faces == 1

    def test_no_tee_junctions(self, penrose_system):
        # every vertex lying on an edge's line segment is one of its endpoints
        patch = prototile_patch(penrose_system, 0).substitute(4)
        cells = patch.cells
        n = penrose_system.n
        positions = cells.vertex_pos
        embeds = [cyc.embed_coeffs(n, p) for p in positions]
        for (va, vb) in cells.edge_ends:
            a, b = positions[va], positions[vb]
            za, zb = embeds[va], embeds[vb]
            direction = cyc.sub_coeffs(b, a)
            zd = zb - za
            norm2 = (zd * zd.conjugate()).real
            for v, pos in enumerate(positions):
                if v in (va, vb):
                    continue
                if not cross_is_zero(n, cyc.sub_coeffs(pos, a), direction):
                    continue
                t = ((embeds[v] - za) * zd.conjugate()).real / norm2
                assert not (1e-9 < t < 1 - 1e-9), "vertex inside an edge"

    def test_complete_vertex_has_cyclic_link(self, square_system):
        patch = prototile_patch(square_system, 0).substitute(2)
        cells = patch.cells
        complete = cells.complete_vertices()
        assert complete
        for v in complete:
            cycle = cells.vertex_link_cycle(v)
            assert sorted(cycle) == sorted(cells.vertex_edges[v])


class TestCanonicalKeys:
    def test_translation_invariance(self, penrose_system):
        patch = prototile_patch(penrose_system, 0).substitute(2)
        moved = patch.transform(RigidMotion.translation(10, (3, -2, 1, 4)))
        assert canonical_key(patch, "translation") == canonical_key(moved, "translation")

    def test_rigid_vs_translation(self, penrose_system):
        patch = prototile_patch(penrose_system, 0).substitute(2)
        rotated = patch.transform(RigidMotion.rotation(10, 1))
        assert canonical_key(patch, "rigid") == canonical_key(rotated, "rigid")
        assert canonical_key(patch, "translation") != canonical_key(rotated, "translation")

    def test_matching_motions_identity_only(self, penrose_system):
        patch = prototile_patch(penrose_system, 0).substitute(2)
        motions = matching_motions(patch, patch)
        assert len(motions) == 1 and motions[0].is_identity()

    def test_matching_motions_translate(self, penrose_system):
        patch = prototile_patch(penrose_system, 0).substitute(2)
        shift = RigidMotion.translation(10, (1, 1, 0, -1))
        moved = patch.transform(shift)
        motions = matching_motions(patch, moved)
        assert len(motions) == 1
        assert motions[0].rot == 0 and motions[0].trans == shift.trans

    def test_compose_property_randomized(self, penrose_system):
        rng = random.Random(77)
        patch = prototile_patch(penrose_system, 0).substitute(1)
        for _ in range(20):
            m = RigidMotion(10, rng.randrange(10),
                            tuple(rng.randint(-2, 2) for _ in range(4)))
            moved = patch.transform(m)
            found = matching_motions(patch, moved)
            assert len(found) == 1
            assert found[0] == m
