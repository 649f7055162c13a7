"""Star atlas: tile, edge-star and vertex-star classes up to rigid motion.

The atlas is extracted from substituted patches.  A star is only read off
a cell whose link is complete inside the patch, which is exactly the
condition for the patch to contain the full star of that cell, so no
metric distance-to-boundary bookkeeping is needed.  Growth stops when the
class sets of two consecutive substitution levels agree.

Each edge class carries a canonical orientation: the one minimizing the
serialized canonical form of the oriented star.  All incidence signs are
expressed relative to these canonical representatives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import TilecohomError
from .tiling import (
    Patch,
    TilingSystem,
    canonical_key,
    matching_motions,
    oriented_edge_key,
    patch_from_key,
    prototile_patch,
)


class NotClosed(TilecohomError):
    """Class sets still growing at the maximum substitution level."""


class BoundaryContamination(TilecohomError):
    """Interior-region bookkeeping failed while extracting stars."""


class IsotropyViolation(TilecohomError):
    """A nontrivial rigid motion fixes a cell class while preserving its star."""


@dataclass
class StarClass:
    kind: str                 # "vertex" | "edge" | "tile"
    index: int
    key: tuple
    oriented_key: tuple | None = None
    patch: Patch = field(repr=False, default=None)
    center: tuple = field(repr=False, default=None)
    symmetry_order: int = 1
    occurrences: int = 0
    # edge classes: canonical orientation and flank data
    tail: tuple | None = None
    head: tuple | None = None
    left_tile_class: int | None = None
    right_tile_class: int | None = None
    left_tau: int | None = None
    right_tau: int | None = None
    # vertex classes: cyclically ordered incident edge slots (edge_class, epsilon)
    slots: tuple[tuple[int, int], ...] = ()

    @property
    def label(self) -> str:
        return f"{self.kind}[{self.index}]"


@dataclass
class StarAtlas:
    system: TilingSystem               # the public (regrouped) system
    tile_classes: list[StarClass]
    edge_classes: list[StarClass]
    vertex_classes: list[StarClass]
    audit_patch: Patch = field(repr=False)
    closure_level: int = 0

    def counts(self) -> tuple[int, int, int]:
        return (
            len(self.tile_classes),
            len(self.edge_classes),
            len(self.vertex_classes),
        )


def _vertex_star(patch: Patch, v: int) -> tuple[Patch, tuple]:
    cells = patch.cells
    faces = sorted(set(cells.vertex_faces[v]))
    star = Patch(patch.system, [patch.tiles[f] for f in faces])
    return star, ("v", cells.vertex_pos[v])


def _edge_star(patch: Patch, e: int) -> tuple[Patch, tuple, tuple]:
    cells = patch.cells
    flank_faces = [f for f, _ in cells.edge_faces[e]]
    if len(flank_faces) != 2:
        raise BoundaryContamination("edge star requested at an incomplete edge")
    star = Patch(patch.system, [patch.tiles[f] for f in flank_faces])
    pa, pb = cells.edge_ends[e]
    return star, cells.vertex_pos[pa], cells.vertex_pos[pb]


def _cell_keys(pub: Patch):
    """Rigid keys of every tile, complete edge and complete vertex of a patch."""
    cells = pub.cells
    tile_keys = [
        canonical_key(Patch(pub.system, [t]), "rigid", center=("t", t)) for t in pub.tiles
    ]
    edge_keys = []
    for e in cells.complete_edges():
        star, pa, pb = _edge_star(pub, e)
        edge_keys.append(min(oriented_edge_key(star, pa, pb), oriented_edge_key(star, pb, pa)))
    vertex_keys = []
    for v in cells.complete_vertices():
        star, center = _vertex_star(pub, v)
        vertex_keys.append(canonical_key(star, "rigid", center=center))
    return tile_keys, edge_keys, vertex_keys


def grow_star_closure(
    system: TilingSystem, max_level: int = 12, seed_proto: int = 0
) -> StarAtlas:
    """Substitute until the star class sets stabilize; build the atlas.

    Stops at the first level whose tile/edge-star/vertex-star class sets
    (over complete cells) equal the previous level's.
    """
    native = system
    patch = prototile_patch(native, seed_proto).substitute(1)
    prev = None
    for level in range(1, max_level + 1):
        pub = patch.regrouped()
        keys = _cell_keys(pub)
        sets = tuple(set(k) for k in keys)
        if prev is not None and sets == prev and all(sets):
            return _build_atlas(pub, level, keys)
        prev = sets
        if level < max_level:
            patch = patch.substitute(1)
    raise NotClosed(f"star classes still changing at level {max_level}")


def _build_atlas(pub: Patch, level: int, keys) -> StarAtlas:
    """The atlas of the closing level from its per-cell keys (see `_cell_keys`)."""
    system = pub.system
    tile_keys, edge_keys, vertex_keys = (Counter(k) for k in keys)

    tile_classes: dict[tuple, StarClass] = {}
    for key, count in tile_keys.items():
        rep, center = patch_from_key(system, key)
        tile_classes[key] = StarClass("tile", -1, key, patch=rep, center=center, occurrences=count)
    tiles = _finalize(tile_classes)
    tile_index = {c.key: c.index for c in tiles}

    edge_classes: dict[tuple, StarClass] = {}
    for key, count in edge_keys.items():
        cls = StarClass("edge", -1, key, occurrences=count)
        _orient_edge_class(cls, system, key, tile_index)
        edge_classes[key] = cls
    edges = _finalize(edge_classes)
    edge_index = {c.key: (c.index, c.oriented_key) for c in edges}

    vertex_classes: dict[tuple, StarClass] = {}
    for key, count in vertex_keys.items():
        rep, rep_center = patch_from_key(system, key)
        cls = StarClass("vertex", -1, key, patch=rep, center=rep_center, occurrences=count)
        cls.symmetry_order = len(
            matching_motions(rep, rep, center1=rep_center, center2=rep_center)
        )
        cls.slots = _vertex_slots(rep, rep_center, edge_index)
        vertex_classes[key] = cls
    vertices = _finalize(vertex_classes)

    return StarAtlas(
        system=system,
        tile_classes=tiles,
        edge_classes=edges,
        vertex_classes=vertices,
        audit_patch=pub,
        closure_level=level,
    )


def _finalize(classes: dict[tuple, StarClass]) -> list[StarClass]:
    ordered = [classes[k] for k in sorted(classes)]
    for i, cls in enumerate(ordered):
        cls.index = i
    return ordered


def _orient_edge_class(cls: StarClass, system, oriented_key: tuple, tile_index: dict):
    """Install the representative for one of the two orientations of a class."""
    rep, center = patch_from_key(system, oriented_key)
    cls.oriented_key = oriented_key
    cls.patch = rep
    cls.center = center
    cls.tail, cls.head = center[1]
    _fill_edge_flanks(cls, tile_index)


def _fill_edge_flanks(cls: StarClass, tile_index: dict):
    """Record the left/right tiles of the canonically oriented representative."""
    system = cls.patch.system
    cells = cls.patch.cells
    va = cells.vertex_id[cls.tail]
    vb = cells.vertex_id[cls.head]
    key = (va, vb) if va < vb else (vb, va)
    e = cells.edge_id[key]
    flanks = cells.edge_flanks(e)
    forward_is_tail_first = va == key[0]
    left_face = flanks.get(forward_is_tail_first)
    right_face = flanks.get(not forward_is_tail_first)
    if left_face is None or right_face is None:
        raise BoundaryContamination("edge representative lost a flank")
    left, right = cls.patch.tiles[left_face], cls.patch.tiles[right_face]
    cls.left_tau, cls.right_tau = left.rot, right.rot
    cls.left_tile_class = tile_index[
        canonical_key(Patch(system, [left]), "rigid", center=("t", left))
    ]
    cls.right_tile_class = tile_index[
        canonical_key(Patch(system, [right]), "rigid", center=("t", right))
    ]


def edge_occurrence(patch: Patch, e: int, edge_index: dict):
    """Edge class of an edge occurrence and its orientation as (tail, head).

    The returned (tail, head) is the occurrence's copy of the canonical
    representative's orientation.
    """
    star, pa, pb = _edge_star(patch, e)
    k1 = oriented_edge_key(star, pa, pb)
    k2 = oriented_edge_key(star, pb, pa)
    key = min(k1, k2)
    entry = edge_index.get(key)
    if entry is None:
        raise BoundaryContamination("edge occurrence outside the atlas")
    idx, oriented_key = entry
    if k1 == oriented_key:
        tail, head = pa, pb
    elif k2 == oriented_key:
        tail, head = pb, pa
    else:
        raise BoundaryContamination("edge occurrence matches neither orientation")
    return idx, tail, head


def _vertex_slots(rep: Patch, center: tuple, edge_index: dict):
    """Incident edges of a vertex representative, cyclic, with in/out signs."""
    cells = rep.cells
    v = cells.vertex_id[center[1]]
    if not cells.vertex_complete(v):
        raise BoundaryContamination("vertex representative has an incomplete link")
    slots = []
    for e in cells.vertex_link_cycle(v):
        idx, tail, head = edge_occurrence(rep, e, edge_index)
        if tail == center[1]:
            eps = 1
        elif head == center[1]:
            eps = -1
        else:
            raise BoundaryContamination("incident edge does not touch the vertex")
        slots.append((idx, eps))
    return tuple(slots)


def atlas_edge_lookup(atlas: StarAtlas) -> dict:
    """Identity key -> (index, oriented key) for edge occurrence matching."""
    return {c.key: (c.index, c.oriented_key) for c in atlas.edge_classes}


def atlas_vertex_lookup(atlas: StarAtlas) -> dict:
    return {c.key: c.index for c in atlas.vertex_classes}


def check_isotropy(atlas: StarAtlas) -> dict:
    """Verify the strengthened trivial-cell-isotropy condition.

    No nontrivial rigid motion may map an edge or tile star to itself
    while preserving the center cell (even setwise); vertex stars may be
    rotationally symmetric.  Returns a small report on success.
    """
    for cls in atlas.edge_classes:
        motions = matching_motions(
            cls.patch, cls.patch, center1=cls.center, center2=cls.center
        )
        if len(motions) != 1:
            raise IsotropyViolation(f"edge class {cls.index} has {len(motions)} self-motions")
    for cls in atlas.tile_classes:
        motions = matching_motions(
            cls.patch, cls.patch, center1=cls.center, center2=cls.center
        )
        if len(motions) != 1:
            raise IsotropyViolation(f"tile class {cls.index} has {len(motions)} self-motions")
    return {
        "tile_classes": len(atlas.tile_classes),
        "edge_classes": len(atlas.edge_classes),
        "vertex_classes": len(atlas.vertex_classes),
        "isotropy": "trivial",
    }
