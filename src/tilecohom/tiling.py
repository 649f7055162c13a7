"""Tiling systems, patches and exact substitution.

A tiling system is a rotation order N, a list of polygonal prototiles
with exact Z[zeta_N] vertex coordinates, an inflation constant from the
same ring and, for each prototile, a list of placements that exactly
tile the inflated prototile.  Substitution, patch growth and the derived
cell structure (vertices, edges, faces with incidences) all run on exact
coordinates; floating point appears only inside validation predicates
with wide margins and never decides equality.

Systems may carry regrouping rules that merge native tiles into larger
public tiles (e.g. half-tiles into whole ones); the public cell
structure is the regrouped one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import cyclotomic as cyc
from .abelian import FgAbGroup
from .cyclotomic import RigidMotion


class ParseError(Exception):
    """Malformed tiling-system definition file."""


class ValidationError(Exception):
    """Well-formed definition that violates a system invariant."""


class RuleViolation(Exception):
    """Substitution placements overlap, leave gaps or miss the boundary."""


VALIDATION_MARGIN = 1e-9


class Tile(NamedTuple):
    """A placed prototile: rotate by 2*pi*rot/N about the origin, then translate."""

    proto: int
    rot: int
    trans: tuple[int, ...]

    def motion(self, n: int) -> RigidMotion:
        return RigidMotion(n, self.rot, self.trans)


@dataclass(frozen=True)
class Prototile:
    id: int
    label: str
    vertices: tuple[tuple[int, ...], ...]  # reduced coefficient vectors, CCW


@dataclass(frozen=True)
class MergeRule:
    """A public tile assembled from native parts; part 0 is placed at the identity."""

    label: str
    parts: tuple[Tile, ...]
    vertices: tuple[tuple[int, ...], ...]


@dataclass
class TilingSystem:
    """A substitution tiling system.

    `n` is the order of the coordinate ring Z[zeta_n]; `rotation_order`
    is the order of the tiling's rotation group C_rotation_order, which
    must divide n.  They coincide for the Penrose system (10), while a
    periodic square tiling needs Z[i] coordinates (n = 4) yet may carry
    a trivial rotation group.  `quotient_hull` holds the quotient-hull
    groups in degrees 0..2 that the system file lists as ``h_omega0``.
    """

    name: str
    n: int
    prototiles: list[Prototile]
    inflation: tuple[int, ...]
    placements: dict[int, list[Tile]]
    rotation_order: int | None = None
    regroups: list[MergeRule] = field(default_factory=list)
    hull_self_map: str = "substitution"
    quotient_hull: tuple[FgAbGroup, ...] | None = None
    is_public_view: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("ring order must be >= 1")
        if self.rotation_order is None:
            self.rotation_order = self.n
        if self.rotation_order < 1 or self.n % self.rotation_order != 0:
            raise ValidationError("rotation order must divide the ring order")

    def group_rotation_indices(self) -> list[int]:
        """Ring rotation indices of the elements of the rotation group."""
        step = self.n // self.rotation_order
        return [j * step for j in range(self.rotation_order)]

    @cached_property
    def public_system(self) -> "TilingSystem":
        """The regrouped view of this system (itself when no regrouping)."""
        if not self.regroups:
            return self
        protos = [
            Prototile(i, r.label, tuple(cyc.reduce_poly(self.n, v) for v in r.vertices))
            for i, r in enumerate(self.regroups)
        ]
        return TilingSystem(
            name=self.name + ":public",
            n=self.n,
            prototiles=protos,
            inflation=self.inflation,
            placements={},
            rotation_order=self.rotation_order,
            regroups=[],
            hull_self_map=self.hull_self_map,
            quotient_hull=self.quotient_hull,
            is_public_view=True,
        )

    def count_matrix(self):
        """Tile-count matrix: entry (i, j) counts prototile i in the rule for j."""
        s = len(self.prototiles)
        mat = [[0] * s for _ in range(s)]
        for j in range(s):
            for t in self.placements[j]:
                mat[t.proto][j] += 1
        return mat

    def placed_vertices(self, tile: Tile) -> list[tuple[int, ...]]:
        proto = self.prototiles[tile.proto]
        return [
            cyc.add_coeffs(cyc.rotate_coeffs(self.n, v, tile.rot), tile.trans)
            for v in proto.vertices
        ]

    def substitute_tile(self, tile: Tile) -> list[Tile]:
        """Children of a placed tile: inflate its translation, keep its rotation."""
        lam = self.inflation
        base_trans = cyc.mul_coeffs(self.n, lam, tile.trans)
        out = []
        for p in self.placements[tile.proto]:
            rot = (tile.rot + p.rot) % self.n
            trans = cyc.add_coeffs(
                cyc.rotate_coeffs(self.n, p.trans, tile.rot), base_trans
            )
            out.append(Tile(p.proto, rot, trans))
        return out

    def transform_tile(self, motion: RigidMotion, tile: Tile) -> Tile:
        composed = motion.compose(tile.motion(self.n))
        return Tile(tile.proto, composed.rot, composed.trans)


# ---------------------------------------------------------------------------
# exact area and simple float-margin predicates (validation only)
# ---------------------------------------------------------------------------

def doubled_area_element(n: int, loop: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Sum of conj(p_i)*p_{i+1} - p_i*conj(p_{i+1}): 4i times the signed area.

    Lives in Z[zeta_N]; exact equality of these elements is exact equality
    of polygon areas.
    """
    total = cyc.zero_coeffs(n)
    for i, p in enumerate(loop):
        q = loop[(i + 1) % len(loop)]
        pc = cyc.CycNum(n, p)
        qc = cyc.CycNum(n, q)
        term = pc.conjugate() * qc - pc * qc.conjugate()
        total = cyc.add_coeffs(total, term.coeffs)
    return total


def _signed_area_float(n: int, loop: list[tuple[int, ...]]) -> float:
    pts = [cyc.embed_coeffs(n, p) for p in loop]
    s = 0.0
    for i, p in enumerate(pts):
        q = pts[(i + 1) % len(pts)]
        s += p.real * q.imag - p.imag * q.real
    return s / 2.0


def cross_is_zero(n: int, a, b) -> bool:
    """Exact test that vectors a, b (ring elements) are parallel."""
    ac, bc = cyc.CycNum(n, a), cyc.CycNum(n, b)
    return (ac.conjugate() * bc - ac * bc.conjugate()).is_zero()


# ---------------------------------------------------------------------------
# patches and their cell structure
# ---------------------------------------------------------------------------

class CellStructure:
    """Vertices, edges and faces of a patch with complete incidence data.

    Faces are the tiles; edges are keyed by their unordered endpoint pair
    (exact coordinates), so two tiles share an edge iff they list the same
    endpoints.  A cell is *complete* when every edge around it has both
    flanking faces in the patch; only complete cells have trustworthy
    stars.
    """

    def __init__(self, patch: "Patch"):
        self.patch = patch
        system = patch.system
        self.vertex_pos: list[tuple[int, ...]] = []
        self.vertex_id: dict[tuple[int, ...], int] = {}
        self.face_loops: list[list[int]] = []
        self.edge_id: dict[tuple[int, int], int] = {}
        self.edge_ends: list[tuple[int, int]] = []
        self.edge_faces: list[list[tuple[int, bool]]] = []
        self.vertex_edges: list[list[int]] = []
        self.vertex_faces: list[list[int]] = []

        def vid_of(pos):
            i = self.vertex_id.get(pos)
            if i is None:
                i = len(self.vertex_pos)
                self.vertex_id[pos] = i
                self.vertex_pos.append(pos)
                self.vertex_edges.append([])
                self.vertex_faces.append([])
            return i

        for f, tile in enumerate(patch.tiles):
            loop = [vid_of(p) for p in system.placed_vertices(tile)]
            self.face_loops.append(loop)
            for i, a in enumerate(loop):
                b = loop[(i + 1) % len(loop)]
                key = (a, b) if a < b else (b, a)
                e = self.edge_id.get(key)
                if e is None:
                    e = len(self.edge_ends)
                    self.edge_id[key] = e
                    self.edge_ends.append(key)
                    self.edge_faces.append([])
                    self.vertex_edges[a].append(e)
                    self.vertex_edges[b].append(e)
                self.edge_faces[e].append((f, a == key[0]))
                self.vertex_faces[a].append(f)

        for e, faces in enumerate(self.edge_faces):
            if len(faces) > 2:
                raise ValidationError("an edge has more than two incident faces")

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_pos)

    @property
    def n_edges(self) -> int:
        return len(self.edge_ends)

    @property
    def n_faces(self) -> int:
        return len(self.face_loops)

    def edge_complete(self, e: int) -> bool:
        return len(self.edge_faces[e]) == 2

    def vertex_complete(self, v: int) -> bool:
        return bool(self.vertex_edges[v]) and all(
            self.edge_complete(e) for e in self.vertex_edges[v]
        )

    def complete_vertices(self):
        return [v for v in range(self.n_vertices) if self.vertex_complete(v)]

    def complete_edges(self):
        return [e for e in range(self.n_edges) if self.edge_complete(e)]

    def tile_complete(self, f: int) -> bool:
        """All vertices of the face are complete: the corona of f is in the patch."""
        return all(self.vertex_complete(v) for v in self.face_loops[f])

    def corona(self, f: int) -> list[int]:
        """Faces sharing at least one vertex with face f (f excluded)."""
        out = set()
        for v in self.face_loops[f]:
            out.update(self.vertex_faces[v])
        out.discard(f)
        return sorted(out)

    def edge_flanks(self, e: int) -> dict[bool, int]:
        """Map traversal direction (pa -> pb is True) to the flanking face.

        A CCW face traversing the edge from pa to pb lies on its left.
        """
        return {forward: f for f, forward in self.edge_faces[e]}

    def vertex_link_cycle(self, v: int) -> list[int]:
        """Edges incident to a complete vertex, in cyclic order around it."""
        edges = list(self.vertex_edges[v])
        if not edges:
            return []
        # walk: from an edge, cross the face on one side to the next edge at v
        face_to_edges: dict[int, list[int]] = {}
        for e in edges:
            for f, _ in self.edge_faces[e]:
                face_to_edges.setdefault(f, []).append(e)
        for f, es in face_to_edges.items():
            if len(es) != 2:
                raise ValidationError("vertex link is not a cycle")
        start = min(edges)
        cycle = [start]
        prev_face = None
        current = start
        while True:
            nxt = None
            for f, _ in self.edge_faces[current]:
                if f != prev_face:
                    a, b = face_to_edges[f]
                    nxt_edge = b if a == current else a
                    nxt = (nxt_edge, f)
                    break
            if nxt is None:
                raise ValidationError("vertex link walk failed")
            edge, face = nxt
            if edge == start and len(cycle) == len(edges):
                break
            cycle.append(edge)
            prev_face = face
            current = edge
            if len(cycle) > len(edges):
                raise ValidationError("vertex link walk does not close")
        return cycle


class Patch:
    """A finite set of placed tiles over a tiling system."""

    def __init__(self, system: TilingSystem, tiles, parents=None, members=None):
        self.system = system
        self.tiles: list[Tile] = list(tiles)
        self.parents = parents  # per tile: index into the pre-substitution patch
        self.members = members  # per merged tile: native tile indices
        self._cells: CellStructure | None = None

    def __len__(self) -> int:
        return len(self.tiles)

    @property
    def cells(self) -> CellStructure:
        if self._cells is None:
            self._cells = CellStructure(self)
        return self._cells

    def substitute(self, levels: int = 1) -> "Patch":
        if levels < 0:
            raise ValueError("levels must be >= 0")
        patch = self
        for _ in range(levels):
            children: list[Tile] = []
            parents: list[int] = []
            for i, t in enumerate(patch.tiles):
                for child in patch.system.substitute_tile(t):
                    children.append(child)
                    parents.append(i)
            patch = Patch(patch.system, children, parents=parents)
        return patch

    def transform(self, motion: RigidMotion) -> "Patch":
        return Patch(
            self.system, [self.system.transform_tile(motion, t) for t in self.tiles]
        )

    def tile_set(self) -> frozenset:
        return frozenset(self.tiles)

    def regrouped(self) -> "Patch":
        """Merge native tiles into public tiles; unpaired parts are dropped.

        Parts can only go unpaired along the patch boundary, which the
        interior-trust bookkeeping already excludes.
        """
        system = self.system
        if not system.regroups:
            return self
        n = system.n
        index = {t: i for i, t in enumerate(self.tiles)}
        used = [False] * len(self.tiles)
        merged: list[Tile] = []
        members: list[tuple[int, ...]] = []
        for rule_id, rule in enumerate(system.regroups):
            anchor = rule.parts[0]
            for i, t in enumerate(self.tiles):
                if used[i] or t.proto != anchor.proto:
                    continue
                motion = t.motion(n).compose(anchor.motion(n).invert())
                group = [i]
                ok = True
                for part in rule.parts[1:]:
                    expected = system.transform_tile(motion, part)
                    j = index.get(expected)
                    if j is None or used[j]:
                        ok = False
                        break
                    group.append(j)
                if ok:
                    for j in group:
                        used[j] = True
                    merged.append(Tile(rule_id, motion.rot, motion.trans))
                    members.append(tuple(group))
        return Patch(system.public_system, merged, members=members)


def prototile_patch(system: TilingSystem, proto_id: int = 0) -> Patch:
    return Patch(system, [Tile(proto_id, 0, cyc.zero_coeffs(system.n))])


# ---------------------------------------------------------------------------
# canonical keys and matching motions
# ---------------------------------------------------------------------------

def _serialize(system: TilingSystem, tiles: list[Tile], anchor, center) -> tuple:
    n = system.n
    shifted = tuple(
        sorted((t.proto, t.rot, cyc.sub_coeffs(t.trans, anchor)) for t in tiles)
    )
    if center is None:
        return shifted
    kind, data = center
    if kind == "v":
        cdata = cyc.sub_coeffs(data, anchor)
    elif kind == "e":
        cdata = tuple(cyc.sub_coeffs(p, anchor) for p in data)
    elif kind == "t":
        t = data
        cdata = (t.proto, t.rot, cyc.sub_coeffs(t.trans, anchor))
    else:
        raise ValueError(f"bad center kind {kind!r}")
    return (kind, cdata, shifted)


def _rotate_center(system: TilingSystem, center, k: int):
    if center is None:
        return None
    n = system.n
    kind, data = center
    if kind == "v":
        return ("v", cyc.rotate_coeffs(n, data, k))
    if kind == "e":
        return ("e", tuple(cyc.rotate_coeffs(n, p, k) for p in data))
    if kind == "t":
        m = RigidMotion.rotation(n, k).compose(data.motion(n))
        return ("t", Tile(data.proto, m.rot, m.trans))
    raise ValueError(f"bad center kind {kind!r}")


def _anchor_candidates(system: TilingSystem, tiles: list[Tile], center) -> list:
    if center is not None:
        kind, data = center
        if kind == "v":
            return [data]
        if kind == "e":
            return list(data)
        if kind == "t":
            return [data.trans]
    return [t.trans for t in tiles]


def canonical_key(patch: Patch, mode: str, center=None) -> tuple:
    """Canonical form of a patch up to translation or up to rigid motion.

    Keys are equal iff the (marked) patches are equivalent under the chosen
    group.  `center` marks a cell: ("v", pos), ("e", (pos, pos)) with the
    pair unordered, or ("t", Tile).
    """
    system = patch.system
    if mode == "translation":
        rotations = [0]
    elif mode == "rigid":
        rotations = system.group_rotation_indices()
    else:
        raise ValueError("mode must be 'translation' or 'rigid'")
    best = None
    for k in rotations:
        if k == 0:
            tiles, cent = patch.tiles, center
        else:
            motion = RigidMotion.rotation(system.n, k)
            tiles = [system.transform_tile(motion, t) for t in patch.tiles]
            cent = _rotate_center(system, center, k)
        if cent is not None and cent[0] == "e":
            cent = ("e", tuple(sorted(cent[1])))
        for anchor in _anchor_candidates(system, tiles, cent):
            key = _serialize(system, tiles, anchor, cent)
            if best is None or key < best:
                best = key
    return best


def oriented_edge_key(patch: Patch, tail, head) -> tuple:
    """Canonical form of a patch with a marked *oriented* edge, up to rigid motion.

    The minimum is taken over rotations only (not over the two orientations),
    so reversing (tail, head) may give a different key.
    """
    system = patch.system
    best = None
    for k in system.group_rotation_indices():
        motion = RigidMotion.rotation(system.n, k)
        if k == 0:
            tiles = patch.tiles
            t2, h2 = tail, head
        else:
            tiles = [system.transform_tile(motion, t) for t in patch.tiles]
            t2 = cyc.rotate_coeffs(system.n, tail, k)
            h2 = cyc.rotate_coeffs(system.n, head, k)
        for anchor in (t2, h2):
            key = _serialize(system, tiles, anchor, ("e", (t2, h2)))
            if best is None or key < best:
                best = key
    return best


def patch_from_key(system: TilingSystem, key: tuple) -> tuple[Patch, tuple]:
    """Rebuild the representative patch (and its center) from a canonical key."""
    kind, cdata, shifted = key
    tiles = [Tile(p, r, tr) for p, r, tr in shifted]
    if kind == "v":
        center = ("v", cdata)
    elif kind == "e":
        center = ("e", cdata)
    elif kind == "t":
        p, r, tr = cdata
        center = ("t", Tile(p, r, tr))
    else:
        raise ValueError("key has no center")
    return Patch(system, tiles), center


def geometric_tile(system: TilingSystem, tile: Tile) -> tuple:
    """Label plus cyclically normalized vertex loop: placement-independent identity.

    Two placements of a rotationally self-symmetric prototile describe the
    same labeled tile; this key identifies them.
    """
    loop = system.placed_vertices(tile)
    m = len(loop)
    best = min(range(m), key=lambda i: tuple(loop[i:] + loop[:i]))
    return (tile.proto, tuple(loop[best:] + loop[:best]))


def _geometric_anchor(key: tuple):
    proto, loop = key
    shifted = tuple(cyc.sub_coeffs(p, loop[0]) for p in loop)
    return (proto, shifted), loop[0]


def matching_motions(p1: Patch, p2: Patch, center1=None, center2=None) -> list[RigidMotion]:
    """All motions in R^2 x C_N carrying p1 exactly onto p2 (centers included).

    Tiles are compared geometrically (labels plus vertex loops), so
    prototiles with rotational self-symmetry are handled correctly.
    """
    system = p1.system
    n = system.n
    if not p1.tiles or len(p1.tiles) != len(p2.tiles):
        return [] if p1.tiles or p2.tiles else [RigidMotion.identity(n)]
    target = frozenset(geometric_tile(system, t) for t in p2.tiles)
    by_signature: dict = {}
    for key in target:
        sig, anchor = _geometric_anchor(key)
        by_signature.setdefault(sig, []).append(anchor)
    out = []
    for k in system.group_rotation_indices():
        motion_k = RigidMotion.rotation(n, k)
        rotated = [system.transform_tile(motion_k, t) for t in p1.tiles]
        ref_sig, ref_anchor = _geometric_anchor(geometric_tile(system, rotated[0]))
        for anchor2 in by_signature.get(ref_sig, []):
            shift = cyc.sub_coeffs(anchor2, ref_anchor)
            cand = frozenset(
                geometric_tile(
                    system, Tile(t.proto, t.rot, cyc.add_coeffs(t.trans, shift))
                )
                for t in rotated
            )
            if cand != target:
                continue
            motion = RigidMotion(n, k, shift)
            if center1 is not None:
                moved = _rotate_center(system, center1, k)
                moved = _shift_center(moved, shift)
                if not _centers_match(moved, center2, system):
                    continue
            out.append(motion)
    return out


def _shift_center(center, shift):
    kind, data = center
    if kind == "v":
        return ("v", cyc.add_coeffs(data, shift))
    if kind == "e":
        return ("e", tuple(cyc.add_coeffs(p, shift) for p in data))
    if kind == "t":
        return ("t", Tile(data.proto, data.rot, cyc.add_coeffs(data.trans, shift)))
    raise ValueError("bad center")


def _centers_match(a, b, system: TilingSystem | None = None) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "e":
        return sorted(a[1]) == sorted(b[1])
    if a[0] == "t" and system is not None:
        return geometric_tile(system, a[1]) == geometric_tile(system, b[1])
    return a[1] == b[1]


# ---------------------------------------------------------------------------
# substitution rule validation
# ---------------------------------------------------------------------------

def validate_system(system: TilingSystem):
    """Check prototile sanity and that each rule exactly tiles its inflated tile."""
    n = system.n
    for proto in system.prototiles:
        area = _signed_area_float(n, list(proto.vertices))
        if area <= VALIDATION_MARGIN:
            raise ValidationError(
                f"prototile {proto.label!r} is not positively oriented"
            )
    _check_prototile_isotropy(system)
    if system.placements:
        for proto in system.prototiles:
            _validate_rule_for(system, proto.id)
        _check_primitivity(system)


def _check_prototile_isotropy(system: TilingSystem):
    """No two prototiles may carry the same label on congruent polygons.

    Rotational self-symmetry of a single prototile is legal at load time;
    it surfaces later as a cell-isotropy violation of the atlas.
    """
    seen = {}
    for proto in system.prototiles:
        shapes = []
        for k in system.group_rotation_indices():
            loop = [cyc.rotate_coeffs(system.n, v, k) for v in proto.vertices]
            m = len(loop)
            best = min(range(m), key=lambda i: tuple(loop[i:] + loop[:i]))
            cyclic = loop[best:] + loop[:best]
            anchored = tuple(cyc.sub_coeffs(p, cyclic[0]) for p in cyclic)
            shapes.append(anchored)
        key = (proto.label, min(shapes))
        if key in seen:
            raise ValidationError(
                f"prototiles {seen[key]} and {proto.id} duplicate label {proto.label!r}"
            )
        seen[key] = proto.id


def _check_primitivity(system: TilingSystem):
    s = len(system.prototiles)
    mat = system.count_matrix()
    power = [[1 if i == j else 0 for j in range(s)] for i in range(s)]
    for _ in range(max(1, s * s)):
        power = [
            [sum(power[i][k] * mat[k][j] for k in range(s)) for j in range(s)]
            for i in range(s)
        ]
        if all(power[i][j] > 0 for i in range(s) for j in range(s)):
            return
    if any(len(p) == 0 for p in system.placements.values()):
        raise ValidationError("a prototile has an empty substitution")


def _validate_rule_for(system: TilingSystem, proto_id: int):
    n = system.n
    proto = system.prototiles[proto_id]
    children = system.placements[proto_id]
    inflated = [cyc.mul_coeffs(n, system.inflation, v) for v in proto.vertices]

    child_area = cyc.zero_coeffs(n)
    segments: dict[tuple, list[tuple[tuple, tuple]]] = {}
    for t in children:
        loop = system.placed_vertices(t)
        child_area = cyc.add_coeffs(child_area, doubled_area_element(n, loop))
        for i, a in enumerate(loop):
            b = loop[(i + 1) % len(loop)]
            key = tuple(sorted((a, b)))
            segments.setdefault(key, []).append((a, b))

    if child_area != doubled_area_element(n, inflated):
        raise RuleViolation(f"rule for {proto.label!r}: area mismatch")

    boundary = {}
    for key, occurrences in segments.items():
        if len(occurrences) > 2:
            raise RuleViolation(f"rule for {proto.label!r}: an edge is used 3+ times")
        if len(occurrences) == 2:
            a0, b0 = occurrences[0]
            a1, b1 = occurrences[1]
            if (a0, b0) == (a1, b1):
                raise RuleViolation(
                    f"rule for {proto.label!r}: overlapping tiles along an edge"
                )
        else:
            a, b = occurrences[0]
            if a in boundary:
                raise RuleViolation(f"rule for {proto.label!r}: boundary branches")
            boundary[a] = b

    if not boundary:
        raise RuleViolation(f"rule for {proto.label!r}: no boundary found")
    start = next(iter(boundary))
    walk = [start]
    cur = boundary[start]
    while cur != start:
        walk.append(cur)
        if cur not in boundary or len(walk) > len(boundary):
            raise RuleViolation(f"rule for {proto.label!r}: boundary is not one cycle")
        cur = boundary[cur]
    if len(walk) != len(boundary):
        raise RuleViolation(f"rule for {proto.label!r}: boundary is not one cycle")

    corner_positions = []
    for corner in inflated:
        if corner not in boundary:
            raise RuleViolation(
                f"rule for {proto.label!r}: inflated corner missing from boundary"
            )
        corner_positions.append(walk.index(corner))
    # corners must appear in cyclic CCW order along the walk
    k = len(corner_positions)
    shift = corner_positions.index(min(corner_positions))
    ordered = corner_positions[shift:] + corner_positions[:shift]
    if ordered != sorted(corner_positions):
        raise RuleViolation(f"rule for {proto.label!r}: corners out of order")
    # every intermediate boundary vertex lies on the side between its corners
    for ci in range(k):
        lo = corner_positions[(shift + ci) % k]
        hi = corner_positions[(shift + ci + 1) % k]
        side_start = walk[lo]
        side_end = walk[hi]
        direction = cyc.sub_coeffs(side_end, side_start)
        idx = lo
        while idx != hi:
            p = walk[idx % len(walk)]
            if not cross_is_zero(n, cyc.sub_coeffs(p, side_start), direction):
                raise RuleViolation(
                    f"rule for {proto.label!r}: boundary leaves the inflated tile"
                )
            idx = (idx + 1) % len(walk)


# ---------------------------------------------------------------------------
# system files
# ---------------------------------------------------------------------------

def _quotient_hull(fixtures) -> tuple[FgAbGroup, ...] | None:
    """The ``h_omega0`` groups of a system file's fixtures, if listed."""
    if "h_omega0" not in fixtures:
        return None
    return tuple(FgAbGroup(int(g["free_rank"]), tuple(int(t) for t in g.get("torsion", ())))
                 for g in fixtures["h_omega0"])


def system_from_dict(data: dict) -> TilingSystem:
    try:
        kind = data.get("type", "polygonal_2d")
        if kind != "polygonal_2d":
            raise ParseError(f"system type {kind!r} is not a polygonal system")
        n = int(data.get("ring_order", data["rotation_order"]))
        rotation_order = int(data["rotation_order"])
        protos = [
            Prototile(
                i,
                str(p["label"]),
                tuple(cyc.reduce_poly(n, v) for v in p["vertices"]),
            )
            for i, p in enumerate(data["prototiles"])
        ]
        placements = {}
        for key, plist in data["substitution"].items():
            placements[int(key)] = [
                Tile(int(p["proto"]), int(p["rot"]) % n, cyc.reduce_poly(n, p["trans"]))
                for p in plist
            ]
        regroups = []
        for r in data.get("regroup", []):
            parts = tuple(
                Tile(int(p["proto"]), int(p["rot"]) % n, cyc.reduce_poly(n, p["trans"]))
                for p in r["parts"]
            )
            regroups.append(
                MergeRule(
                    label=str(r["label"]),
                    parts=parts,
                    vertices=tuple(cyc.reduce_poly(n, v) for v in r["vertices"]),
                )
            )
        system = TilingSystem(
            name=str(data.get("name", "unnamed")),
            n=n,
            prototiles=protos,
            inflation=cyc.reduce_poly(n, data["inflation"]),
            placements=placements,
            rotation_order=rotation_order,
            regroups=regroups,
            hull_self_map=str(data.get("hull_self_map", "substitution")),
            quotient_hull=_quotient_hull(data.get("fixtures", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad system definition: {exc}") from exc
    if set(system.placements) != {p.id for p in system.prototiles}:
        raise ValidationError("substitution must cover every prototile exactly")
    if system.hull_self_map not in ("substitution", "identity"):
        raise ValidationError("hull_self_map must be 'substitution' or 'identity'")
    validate_system(system)
    return system


def load_system(path) -> TilingSystem | "object":
    """Load a system file; symbolic 1-d systems are returned unvalidated."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("system file must contain a JSON object")
    if data.get("type") == "symbolic_1d":
        from .approximant import Symbolic1DSystem

        return Symbolic1DSystem.from_dict(data)
    return system_from_dict(data)
