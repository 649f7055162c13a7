"""Collared approximant complexes for translational hulls.

Collaring decorates each tile by the translation class of its surrounding
patch; gluing the collared prototiles along every adjacency that occurs
in the tiling yields a finite CW complex whose inverse limit under the
substitution-induced self-map is the translational hull.  Cohomology of
the hull is then the stabilized direct limit of the complex's cohomology
under the pulled-back self-map.

The rotation group acts by permuting collared classes; its action on the
limit feeds the mapping-torus description of the hull of rigid motions,
and the orbit complex computes the cohomology of the quotient by
rotations.

A light symbolic pathway handles one-dimensional substitution systems,
where collared letters play the role of collared tiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import abelian as ab
from . import cyclotomic as cyc
from .abelian import DirectLimit, DirectSystem, FgAbGroup, GroupHom, Subquotient
from .atlas import NotClosed
from .tiling import Patch, TilingSystem, canonical_key, prototile_patch


class InconsistentIdentification(Exception):
    """Adjacency data forces an edge cell onto itself with reversed orientation."""


class NoRotationGroup(Exception):
    """Rotating some collared class does not yield a collared class."""


class NonCellularAction(Exception):
    """The rotation action cannot be regularized on this complex."""


# ---------------------------------------------------------------------------
# union-find with orientation parity
# ---------------------------------------------------------------------------

class _SignedUnionFind:
    def __init__(self):
        self.parent: dict = {}
        self.sign: dict = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x
            self.sign[x] = 1

    def find(self, x):
        self.add(x)
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        s = 1
        for y in reversed(path):
            s *= self.sign[y]
            self.parent[y] = x
            self.sign[y] = s
        return x, self.sign[path[0]] if path else 1

    def union(self, x, y, rel_sign: int):
        """Declare y = rel_sign * x."""
        rx, sx = self.find(x)
        ry, sy = self.find(y)
        if rx == ry:
            if sx * rel_sign != sy:
                raise InconsistentIdentification(
                    "edge cell identified with itself with reversed orientation"
                )
            return
        # attach ry under rx so that find(y) yields (rx, sx * rel_sign):
        # find(y) multiplies sy by sign[ry], hence sign[ry] = sx * rel_sign * sy
        self.parent[ry] = rx
        self.sign[ry] = sx * rel_sign * sy

    def roots(self):
        out = []
        for x in self.parent:
            r, _ = self.find(x)
            if r == x:
                out.append(x)
        return sorted(out)


# ---------------------------------------------------------------------------
# collaring (two-dimensional geometric systems)
# ---------------------------------------------------------------------------

@dataclass
class CollaredTiles:
    """Closed set of collared tile classes with a grown patch for reading data."""

    system: TilingSystem
    level: int
    patch: Patch = field(repr=False)
    child_patch: Patch = field(repr=False)
    class_keys: list[tuple]
    class_index: dict = field(repr=False)
    tile_class: dict = field(repr=False)        # trusted tile index -> class
    child_tile_class: dict = field(repr=False)  # trusted child tile -> class
    edge_idents: set = field(repr=False)
    vertex_idents: set = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.class_keys)


def _collared_key(patch: Patch, f: int) -> tuple:
    cells = patch.cells
    faces = sorted(set(cells.corona(f)) | {f})
    star = Patch(patch.system, [patch.tiles[i] for i in faces])
    return canonical_key(star, "translation", center=("t", patch.tiles[f]))


def _trusted_classes(patch: Patch) -> dict:
    """Collared class key for every tile whose corona is complete."""
    cells = patch.cells
    out = {}
    for f in range(len(patch.tiles)):
        if cells.tile_complete(f):
            out[f] = _collared_key(patch, f)
    return out


def _identification_data(patch: Patch, tile_class: dict):
    """Observed gluing data between collared classes, in slot terms.

    Edge identifications carry the pair of (class, edge slot) entries that
    overlay the same geometric edge (their frame traversals oppose).
    Vertex identifications pair (class, vertex slot) entries meeting at a
    common vertex.
    """
    cells = patch.cells
    edge_pairs = set()
    vertex_pairs = set()
    for e in range(cells.n_edges):
        faces = cells.edge_faces[e]
        if len(faces) != 2:
            continue
        (f1, _), (f2, _) = faces
        if f1 not in tile_class or f2 not in tile_class:
            continue
        s1 = _edge_slot(cells, f1, e)
        s2 = _edge_slot(cells, f2, e)
        a = (tile_class[f1], s1)
        b = (tile_class[f2], s2)
        edge_pairs.add((min(a, b), max(a, b)))
    for v in range(cells.n_vertices):
        if not cells.vertex_complete(v):
            continue
        incident = sorted(set(cells.vertex_faces[v]))
        if any(f not in tile_class for f in incident):
            continue
        entries = []
        for f in incident:
            slot = cells.face_loops[f].index(v)
            entries.append((tile_class[f], slot))
        base = min(entries)
        for other in entries:
            if other != base:
                vertex_pairs.add((base, other))
    return edge_pairs, vertex_pairs


def _edge_slot(cells, f: int, e: int) -> int:
    loop = cells.face_loops[f]
    pa, pb = cells.edge_ends[e]
    m = len(loop)
    for i in range(m):
        if {loop[i], loop[(i + 1) % m]} == {pa, pb}:
            return i
    raise AssertionError("edge not on face boundary")


def _rotate_class_key(system: TilingSystem, key: tuple, step: int) -> tuple:
    from .tiling import patch_from_key
    from .cyclotomic import RigidMotion

    rep, center = patch_from_key(system, key)
    motion = RigidMotion.rotation(system.n, step)
    moved = rep.transform(motion)
    center_tile = system.transform_tile(motion, center[1])
    return canonical_key(moved, "translation", center=("t", center_tile))


def collar(system: TilingSystem, max_level: int = 14) -> CollaredTiles:
    """Enumerate collared tiles up to translation, stable over two levels.

    The observed class set must also be closed under the rotation group
    (an eventually-true property of primitive rules with a rotation
    group); growth continues until it is.
    """
    patch = prototile_patch(system, 0).substitute(1)
    prev = None
    for level in range(1, max_level + 1):
        tile_class = _trusted_classes(patch)
        keys = frozenset(tile_class.values())
        edge_pairs, vertex_pairs = _identification_data(patch, tile_class)
        signature = (keys, frozenset(edge_pairs), frozenset(vertex_pairs))
        rotation_closed = True
        if keys and system.rotation_order > 1:
            rot_cache = {}
            step = system.n // system.rotation_order
            for key in keys:
                rot_cache[key] = _rotate_class_key(system, key, step)
            rotation_closed = all(v in keys for v in rot_cache.values())
        if prev is not None and signature == prev and keys and rotation_closed:
            child = patch.substitute(1)
            class_keys = sorted(keys)
            return CollaredTiles(
                system=system,
                level=level,
                patch=patch,
                child_patch=child,
                class_keys=class_keys,
                class_index={k: i for i, k in enumerate(class_keys)},
                tile_class=tile_class,
                child_tile_class=_trusted_classes(child),
                edge_idents=edge_pairs,
                vertex_idents=vertex_pairs,
            )
        prev = signature
        if level < max_level:
            patch = patch.substitute(1)
    raise NotClosed(f"collared classes still changing at level {max_level}")


# ---------------------------------------------------------------------------
# the approximant complex
# ---------------------------------------------------------------------------

@dataclass
class ApproximantComplex:
    """Finite CW complex with boundary, self-map and rotation matrices.

    boundary[k] maps (k+1)-chains to k-chains; self_map[k] is the chain
    matrix of the substitution-induced self-map in degree k; rotation[k]
    is the signed permutation of the rotation generator (None when the
    rotation group is trivial or unavailable).
    """

    dimension: int
    cell_counts: list[int]
    boundary: list[np.ndarray]
    self_map: list[np.ndarray]
    rotation: list[np.ndarray] | None
    rotation_order: int = 1
    labels: dict = field(default_factory=dict)

    def validate(self):
        for k in range(self.dimension - 1):
            prod = self.boundary[k].dot(self.boundary[k + 1])
            if not ab.is_zero(prod):
                raise AssertionError(f"boundary squared nonzero in degree {k + 2}")
        for k in range(self.dimension):
            left = self.boundary[k].dot(self.self_map[k + 1])
            right = self.self_map[k].dot(self.boundary[k])
            if not ab.mat_eq(left, right):
                raise AssertionError(f"self-map does not commute with boundary at {k + 1}")
        if self.rotation is not None:
            for k in range(self.dimension):
                left = self.boundary[k].dot(self.rotation[k + 1])
                right = self.rotation[k].dot(self.boundary[k])
                if not ab.mat_eq(left, right):
                    raise AssertionError(f"rotation does not commute with boundary at {k + 1}")
            for k in range(self.dimension + 1):
                left = self.rotation[k].dot(self.self_map[k])
                right = self.self_map[k].dot(self.rotation[k])
                if not ab.mat_eq(left, right):
                    raise AssertionError(f"rotation does not commute with self-map at {k}")
                power = ab.eye(self.cell_counts[k])
                for _ in range(self.rotation_order):
                    power = self.rotation[k].dot(power)
                if not ab.mat_eq(power, ab.eye(self.cell_counts[k])):
                    raise AssertionError(f"rotation order violated in degree {k}")


def build_ap_complex(collared: CollaredTiles) -> ApproximantComplex:
    """Glue the collared prototiles into the quotient CW complex."""
    system = collared.system
    n_faces = collared.count
    slot_count = {
        i: len(system.prototiles[_base_proto(key)].vertices)
        for i, key in enumerate(collared.class_keys)
    }

    rot_steps = system.group_rotation_indices()
    class_rot = _class_rotation_table(collared) if len(rot_steps) > 1 else None

    edge_uf = _SignedUnionFind()
    vertex_uf = _SignedUnionFind()
    for ci in range(n_faces):
        for s in range(slot_count[ci]):
            edge_uf.add((ci, s))
            vertex_uf.add((ci, s))

    def orbit_pairs(pair_a, pair_b):
        """All rotations of an identification (slot indices are frame-stable)."""
        if class_rot is None:
            yield pair_a, pair_b
            return
        (ia, sa), (ib, sb) = pair_a, pair_b
        for j in range(system.rotation_order):
            yield ((class_rot[j][ia], sa), (class_rot[j][ib], sb))

    # identification pairs are re-expressed through class indices and sorted
    # so that cell numbering is reproducible across processes
    edge_pairs = sorted(
        ((collared.class_index[ka], sa), (collared.class_index[kb], sb))
        for (ka, sa), (kb, sb) in collared.edge_idents
    )
    vertex_pairs = sorted(
        ((collared.class_index[ka], sa), (collared.class_index[kb], sb))
        for (ka, sa), (kb, sb) in collared.vertex_idents
    )
    for pair_a, pair_b in edge_pairs:
        for (ja, ssa), (jb, ssb) in orbit_pairs(pair_a, pair_b):
            edge_uf.union((ja, ssa), (jb, ssb), -1)
    for pair_a, pair_b in vertex_pairs:
        for (ja, ssa), (jb, ssb) in orbit_pairs(pair_a, pair_b):
            vertex_uf.union((ja, ssa), (jb, ssb), 1)

    edge_roots = edge_uf.roots()
    vertex_roots = vertex_uf.roots()
    edge_cell = {r: i for i, r in enumerate(edge_roots)}
    vertex_cell = {r: i for i, r in enumerate(vertex_roots)}
    n_edges, n_vertices = len(edge_roots), len(vertex_roots)

    d2 = ab.zeros(n_edges, n_faces)
    for ci in range(n_faces):
        for s in range(slot_count[ci]):
            root, sign = edge_uf.find((ci, s))
            d2[edge_cell[root], ci] += sign
    d1 = ab.zeros(n_vertices, n_edges)
    for root in edge_roots:
        ci, s = root
        m = slot_count[ci]
        tail, _ = vertex_uf.find((ci, s))
        head, _ = vertex_uf.find((ci, (s + 1) % m))
        col = edge_cell[root]
        d1[vertex_cell[head], col] += 1
        d1[vertex_cell[tail], col] -= 1

    rotation = None
    if class_rot is not None:
        r2 = ab.zeros(n_faces, n_faces)
        for ci in range(n_faces):
            r2[class_rot[1][ci], ci] = 1
        r1 = ab.zeros(n_edges, n_edges)
        for root in edge_roots:
            ci, s = root
            image_root, sign = edge_uf.find((class_rot[1][ci], s))
            r1[edge_cell[image_root], edge_cell[root]] = sign
        r0 = ab.zeros(n_vertices, n_vertices)
        for root in vertex_roots:
            ci, s = root
            image_root, _ = vertex_uf.find((class_rot[1][ci], s))
            r0[vertex_cell[image_root], vertex_cell[root]] = 1
        rotation = [r0, r1, r2]

    s0, s1, s2 = _self_map_matrices(
        collared, edge_uf, vertex_uf, edge_cell, vertex_cell, slot_count
    )

    cx = ApproximantComplex(
        dimension=2,
        cell_counts=[n_vertices, n_edges, n_faces],
        boundary=[d1, d2],
        self_map=[s0, s1, s2],
        rotation=rotation,
        rotation_order=system.rotation_order,
        labels={"collared_classes": n_faces, "collar_level": collared.level},
    )
    cx.validate()
    return cx


def _base_proto(key: tuple) -> int:
    kind, cdata, _ = key
    assert kind == "t"
    return cdata[0]


def _class_rotation_table(collared: CollaredTiles) -> list[list[int]]:
    """table[j][i] = index of class i rotated j group steps."""
    system = collared.system
    step = system.n // system.rotation_order
    one_step = []
    for key in collared.class_keys:
        rotated = _rotate_class_key(system, key, step)
        if rotated not in collared.class_index:
            raise NoRotationGroup(f"rotation of a collared class is not collared")
        one_step.append(collared.class_index[rotated])
    table = [list(range(collared.count)), one_step]
    while len(table) < system.rotation_order:
        table.append([one_step[i] for i in table[-1]])
    return table


def _occurrences_by_class(collared: CollaredTiles) -> dict:
    out: dict[int, list[int]] = {}
    for f, key in collared.tile_class.items():
        out.setdefault(collared.class_index[key], []).append(f)
    return out


def _self_map_matrices(collared, edge_uf, vertex_uf, edge_cell, vertex_cell, slot_count):
    system = collared.system
    n_faces = collared.count
    n_edges, n_vertices = len(edge_cell), len(vertex_cell)

    if system.hull_self_map == "identity":
        return ab.eye(n_vertices), ab.eye(n_edges), ab.eye(n_faces)

    patch, child = collared.patch, collared.child_patch
    cells, ccells = patch.cells, child.cells
    child_class = {
        f: collared.class_index[k] for f, k in collared.child_tile_class.items()
    }
    children_of: dict[int, list[int]] = {}
    for cf, parent in enumerate(child.parents):
        children_of.setdefault(parent, []).append(cf)

    lam = system.inflation
    occurrences = _occurrences_by_class(collared)

    s2 = ab.zeros(n_faces, n_faces)
    s1 = ab.zeros(n_edges, n_edges)
    s0 = ab.zeros(n_vertices, n_vertices)

    def child_slot_cell(cf: int, a_id: int, b_id: int):
        """Edge cell and sign of the child face's slot traversing a -> b."""
        loop = ccells.face_loops[cf]
        m = len(loop)
        for i in range(m):
            if loop[i] == a_id and loop[(i + 1) % m] == b_id:
                ci = child_class.get(cf)
                if ci is None:
                    return None
                root, sign = edge_uf.find((ci, i))
                return edge_cell[root], sign
        return None

    def face_image(ci: int, f: int) -> bool:
        for cf in children_of.get(f, []):
            cls = child_class.get(cf)
            if cls is None:
                return False
            s2[cls, ci] += 1
        return True

    def edge_images(ci: int, f: int) -> bool:
        loop = cells.face_loops[f]
        positions = [cells.vertex_pos[v] for v in loop]
        m = len(loop)
        for s in range(m):
            root, _ = edge_uf.find((ci, s))
            if root != (ci, s):
                continue
            col = edge_cell[(ci, s)]
            if any(s1[r, col] != 0 for r in range(n_edges)):
                continue
            a = cyc.mul_coeffs(system.n, lam, positions[s])
            b = cyc.mul_coeffs(system.n, lam, positions[(s + 1) % m])
            path = _segment_path(child, a, b)
            if path is None:
                return False
            ok = True
            entries = []
            for x, y in zip(path, path[1:]):
                res = child_slot_cell_for_edge(x, y)
                if res is None:
                    ok = False
                    break
                entries.append(res)
            if not ok:
                return False
            for cell, sign in entries:
                s1[cell, col] += sign
        return True

    def child_slot_cell_for_edge(x_id: int, y_id: int):
        key = (x_id, y_id) if x_id < y_id else (y_id, x_id)
        e = ccells.edge_id.get(key)
        if e is None:
            return None
        for cf, _ in ccells.edge_faces[e]:
            res = child_slot_cell(cf, x_id, y_id)
            if res is not None:
                return res
        return None

    def vertex_images(ci: int, f: int) -> bool:
        loop = cells.face_loops[f]
        for s in range(len(loop)):
            root, _ = vertex_uf.find((ci, s))
            if root != (ci, s):
                continue
            col = vertex_cell[(ci, s)]
            if any(s0[r, col] != 0 for r in range(n_vertices)):
                continue
            p = cyc.mul_coeffs(system.n, lam, cells.vertex_pos[loop[s]])
            vid = ccells.vertex_id.get(p)
            if vid is None:
                return False
            placed = None
            for cf in ccells.vertex_faces[vid]:
                cls = child_class.get(cf)
                if cls is None:
                    continue
                slot = ccells.face_loops[cf].index(vid)
                placed = vertex_uf.find((cls, slot))[0]
                break
            if placed is None:
                return False
            s0[vertex_cell[placed], col] += 1
        return True

    for ci in range(n_faces):
        done = False
        for f in occurrences.get(ci, []):
            s2_backup = s2.copy()
            s1_backup = s1.copy()
            s0_backup = s0.copy()
            if face_image(ci, f) and edge_images(ci, f) and vertex_images(ci, f):
                done = True
                break
            s2, s1, s0 = s2_backup, s1_backup, s0_backup
        if not done:
            raise NotClosed(
                f"no occurrence of collared class {ci} has trusted children; grow deeper"
            )
    return s0, s1, s2


def _segment_path(child: Patch, a, b):
    """Vertices of the child patch along the segment [a, b], in order.

    Exact collinearity filters candidates; the float parameter only sorts
    them (vertex separations are bounded below at fixture scales).
    """
    from .tiling import cross_is_zero

    ccells = child.cells
    n = child.system.n
    a_id = ccells.vertex_id.get(a)
    b_id = ccells.vertex_id.get(b)
    if a_id is None or b_id is None:
        return None
    za, zb = cyc.embed_coeffs(n, a), cyc.embed_coeffs(n, b)
    direction = cyc.sub_coeffs(b, a)
    zd = zb - za
    norm2 = (zd * zd.conjugate()).real
    found = {}
    # candidates: vertices of faces incident to a or b or near the segment;
    # scan faces of the two flanking strips via a breadth crawl from a
    seen_faces = set()
    frontier = list(ccells.vertex_faces[a_id])
    candidates = {a_id, b_id}
    while frontier:
        f = frontier.pop()
        if f in seen_faces:
            continue
        seen_faces.add(f)
        touching = False
        for v in ccells.face_loops[f]:
            pos = ccells.vertex_pos[v]
            if cross_is_zero(n, cyc.sub_coeffs(pos, a), direction):
                t = ((cyc.embed_coeffs(n, pos) - za) * zd.conjugate()).real / norm2
                if -1e-9 <= t <= 1 + 1e-9:
                    candidates.add(v)
                    touching = True
        if touching:
            for v in ccells.face_loops[f]:
                frontier.extend(ccells.vertex_faces[v])
    for v in candidates:
        pos = ccells.vertex_pos[v]
        if not cross_is_zero(n, cyc.sub_coeffs(pos, a), direction):
            continue
        t = ((cyc.embed_coeffs(n, pos) - za) * zd.conjugate()).real / norm2
        if -1e-9 <= t <= 1 + 1e-9:
            found[v] = t
    path = sorted(found, key=found.get)
    if not path or path[0] != a_id or path[-1] != b_id:
        return None
    return path


# ---------------------------------------------------------------------------
# symbolic one-dimensional systems
# ---------------------------------------------------------------------------

@dataclass
class Symbolic1DSystem:
    name: str
    alphabet: list[str]
    rule: dict[str, str]

    @staticmethod
    def from_dict(data: dict) -> "Symbolic1DSystem":
        from .tiling import ParseError

        try:
            alphabet = [str(x) for x in data["alphabet"]]
            rule = {str(k): str(v) for k, v in data["rule"].items()}
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad symbolic system: {exc}") from exc
        if set(rule) != set(alphabet) or any(not w for w in rule.values()):
            raise ParseError("rule must map every letter to a nonempty word")
        return Symbolic1DSystem(str(data.get("name", "symbolic")), alphabet, rule)

    def substitute_word(self, word: str) -> str:
        return "".join(self.rule[c] for c in word)

    def legal_factors(self, length: int, max_iter: int = 40) -> set[str]:
        """All length-`length` factors of the substitution language."""
        current = set(self.alphabet)
        for _ in range(max_iter):
            words = {self.substitute_word(w) for w in current}
            new = set()
            for w in words:
                if len(w) < length:
                    new.add(w)
                for i in range(len(w) - length + 1):
                    new.add(w[i : i + length])
            if new == current:
                return {w for w in current if len(w) == length}
            current = new
        raise NotClosed("factor sets did not stabilize")


def build_symbolic_complex(system: Symbolic1DSystem) -> ApproximantComplex:
    """Collared letters glued at junctions, with the substitution self-map."""
    triples = sorted(system.legal_factors(3))
    quads = system.legal_factors(4)
    fives = sorted(system.legal_factors(5))
    cell_index = {w: i for i, w in enumerate(triples)}

    uf = _SignedUnionFind()
    for w in triples:
        uf.add((w, 0))
        uf.add((w, 1))
    for q in sorted(quads):
        left, right = q[:3], q[1:]
        uf.union((left, 1), (right, 0), 1)
    vroots = uf.roots()
    vcell = {r: i for i, r in enumerate(vroots)}

    n_e, n_v = len(triples), len(vroots)
    d1 = ab.zeros(n_v, n_e)
    for w, col in cell_index.items():
        head, _ = uf.find((w, 1))
        tail, _ = uf.find((w, 0))
        d1[vcell[head], col] += 1
        d1[vcell[tail], col] -= 1

    s1 = ab.zeros(n_e, n_e)
    for w, col in cell_index.items():
        l, x, r = w
        img = system.substitute_word(l) + system.substitute_word(x) + system.substitute_word(r)
        lo, hi = len(system.substitute_word(l)), len(system.substitute_word(l + x))
        for pos in range(lo, hi):
            ctx = img[pos - 1 : pos + 2]
            s1[cell_index[ctx], col] += 1

    s0 = ab.zeros(n_v, n_v)
    filled = [False] * n_v
    for five in fives:
        a, l, x, r, b = five
        img = system.substitute_word(five)
        for side, q in ((0, len(system.substitute_word(a + l))),
                        (1, len(system.substitute_word(a + l + x)))):
            root, _ = uf.find((l + x + r, side))
            src = vcell[root]
            ctx = img[q - 2 : q + 1]
            image_root, _ = uf.find((ctx, 1))
            if filled[src]:
                if s0[vcell[image_root], src] != 1:
                    raise InconsistentIdentification("junction image disagrees across contexts")
            else:
                s0[vcell[image_root], src] = 1
                filled[src] = True
    if not all(filled):
        raise NotClosed("some junction has no five-letter context")

    cx = ApproximantComplex(
        dimension=1,
        cell_counts=[n_v, n_e],
        boundary=[d1],
        self_map=[s0, s1],
        rotation=None,
        rotation_order=1,
        labels={"collared_letters": n_e},
    )
    cx.validate()
    return cx


# ---------------------------------------------------------------------------
# cohomology drivers
# ---------------------------------------------------------------------------

@dataclass
class HullDegree:
    degree: int
    approximant_group: FgAbGroup
    group: FgAbGroup
    stage: int
    subquotient: Subquotient = field(repr=False)
    limit: DirectLimit = field(repr=False)
    self_endo: GroupHom = field(repr=False)


def _cochain_pair(cx: ApproximantComplex, k: int):
    n_k = cx.cell_counts[k]
    d_in = cx.boundary[k - 1].T if k >= 1 else ab.zeros(n_k, 0)
    d_out = cx.boundary[k].T if k < cx.dimension else ab.zeros(0, n_k)
    return d_in, d_out


def hull_cohomology(cx: ApproximantComplex, max_stages: int = 20) -> list[HullDegree]:
    """Cech cohomology of the translational hull, degree by degree."""
    out = []
    for k in range(cx.dimension + 1):
        d_in, d_out = _cochain_pair(cx, k)
        sq = Subquotient.of_pair(d_in, d_out)
        endo = sq.induced_endomorphism(cx.self_map[k].T)
        limit = ab.direct_limit_full(
            DirectSystem(sq.group, endo, max_iterations=max_stages)
        )
        out.append(
            HullDegree(
                degree=k,
                approximant_group=sq.group,
                group=limit.group,
                stage=limit.stage,
                subquotient=sq,
                limit=limit,
                self_endo=endo,
            )
        )
    return out


def rotation_action(cx: ApproximantComplex, hull: list[HullDegree]) -> list[GroupHom]:
    """Action of the rotation generator on each limit group.

    Uses the cochain pullback of the rotation matrices, checked to commute
    with the substitution on cohomology, restricted to the stabilized
    image subgroup.
    """
    if cx.rotation is None:
        return [GroupHom.identity(h.group) for h in hull]
    out = []
    for h in hull:
        rot = h.subquotient.induced_endomorphism(cx.rotation[h.degree].T)
        left = rot.compose(h.self_endo)
        right = h.self_endo.compose(rot)
        if not ab.hom_equal_mod_torsion(left, right):
            raise AssertionError("rotation does not commute with substitution on cohomology")
        restricted = h.limit.restrict(rot)
        power = restricted
        for _ in range(cx.rotation_order - 1):
            power = restricted.compose(power)
        if not ab.hom_equal_mod_torsion(power, GroupHom.identity(h.group)):
            raise AssertionError("rotation action has wrong order on the limit")
        out.append(restricted)
    return out


def quotient_complex(cx: ApproximantComplex) -> ApproximantComplex:
    """Orbit complex of the rotation action (cells are orbits of cells).

    Requires the action to be regular: no cell may be sent to itself with
    reversed orientation by any group element.  Collared complexes built
    from systems with trivial cell isotropy satisfy this automatically.
    """
    if cx.rotation is None:
        return cx
    order = cx.rotation_order

    projections = []
    new_counts = []
    for k in range(cx.dimension + 1):
        n = cx.cell_counts[k]
        rot = cx.rotation[k]
        perm = []
        signs = []
        for j in range(n):
            col = [rot[i, j] for i in range(n)]
            nz = [i for i, x in enumerate(col) if x != 0]
            if len(nz) != 1 or abs(col[nz[0]]) != 1:
                raise NonCellularAction("rotation is not a signed permutation")
            perm.append(nz[0])
            signs.append(int(col[nz[0]]))
        orbit_of = [-1] * n
        orbit_sign = [1] * n
        reps = []
        for j in range(n):
            if orbit_of[j] != -1:
                continue
            rep = len(reps)
            reps.append(j)
            cur, sign = j, 1
            for _ in range(order):
                if orbit_of[cur] == -1:
                    orbit_of[cur] = rep
                    orbit_sign[cur] = sign
                else:
                    if orbit_sign[cur] != sign:
                        raise NonCellularAction(
                            f"degree-{k} cell fixed with reversed orientation"
                        )
                nxt = perm[cur]
                sign = sign * signs[cur]
                cur = nxt
            if cur != j or sign != 1:
                raise NonCellularAction("rotation orbit failed to close")
        proj = ab.zeros(len(reps), n)
        for j in range(n):
            proj[orbit_of[j], j] = orbit_sign[j]
        projections.append((proj, reps))
        new_counts.append(len(reps))

    def push(mat, k_to, k_from):
        proj_to, _ = projections[k_to]
        _, reps_from = projections[k_from]
        cols = ab.zeros(mat.shape[0], len(reps_from))
        for i, r in enumerate(reps_from):
            cols[:, i] = mat[:, r]
        return proj_to.dot(cols)

    boundary = [push(cx.boundary[k], k, k + 1) for k in range(cx.dimension)]
    self_map = [push(cx.self_map[k], k, k) for k in range(cx.dimension + 1)]
    q = ApproximantComplex(
        dimension=cx.dimension,
        cell_counts=new_counts,
        boundary=boundary,
        self_map=self_map,
        rotation=None,
        rotation_order=1,
        labels=dict(cx.labels, quotient=True),
    )
    q.validate()
    return q


def quotient_cohomology(cx: ApproximantComplex, max_stages: int = 20) -> list[HullDegree]:
    """Cech cohomology of the hull modulo rotations, via the orbit complex."""
    return hull_cohomology(quotient_complex(cx), max_stages=max_stages)
