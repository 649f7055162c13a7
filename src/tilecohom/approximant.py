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

from . import TilecohomError
from . import abelian as ab
from .abelian import DirectLimit, DirectSystem, FgAbGroup, GroupHom, Subquotient
from .atlas import NotClosed
from .tiling import Patch, TilingSystem, canonical_key, prototile_patch


class InconsistentIdentification(TilecohomError):
    """Adjacency data forces an edge cell onto itself with reversed orientation."""


class NonCellularAction(TilecohomError):
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
    """Closed set of collared tile classes and the data that glues them.

    Classes are indexed in sorted-key order.  Identification pairs are
    sorted ``((class, slot), (class, slot))`` entries, so that cell
    numbering is reproducible across processes.
    """

    system: TilingSystem
    level: int
    class_keys: list[tuple]
    # class index -> index of its rotation by one group step; None when
    # the rotation group is trivial
    class_rotation: list[int] | None = field(repr=False)
    # class index -> classes of its children, in `substitute_tile` order
    children: list[tuple[int, ...]] = field(repr=False)
    edge_idents: list = field(repr=False)
    vertex_idents: list = field(repr=False)

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

    Edge identifications are the pairs of (class, edge slot) entries that
    overlay the same geometric edge (their frame traversals oppose), and
    vertex incidences the sets of (class, vertex slot) entries meeting at
    a common complete vertex; both come as frozensets of entries.
    """
    cells = patch.cells
    edge_pairs = set()
    vertex_sets = set()
    for e in range(cells.n_edges):
        faces = cells.edge_faces[e]
        if len(faces) != 2:
            continue
        (f1, _), (f2, _) = faces
        if f1 not in tile_class or f2 not in tile_class:
            continue
        edge_pairs.add(frozenset((
            (tile_class[f1], _edge_slot(cells, f1, e)),
            (tile_class[f2], _edge_slot(cells, f2, e)),
        )))
    for v in range(cells.n_vertices):
        if not cells.vertex_complete(v):
            continue
        incident = set(cells.vertex_faces[v])
        if any(f not in tile_class for f in incident):
            continue
        vertex_sets.add(frozenset(
            (tile_class[f], cells.face_loops[f].index(v)) for f in incident
        ))
    return edge_pairs, vertex_sets


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
    """Enumerate collared tiles up to translation, closed under rotation.

    The hull is invariant under the rotation group, so every rotation of
    an observed collared tile, edge gluing or vertex incidence occurs in
    it too.  At each level the observed classes, edge pairs and vertex
    incidence sets are saturated under the group, and growth stops when
    this saturated signature repeats over two levels.  Keys are numbered
    in order of first sight, and each key's rotation by one group step is
    computed once, for all levels.

    The children of each rotation orbit of classes are read at the first
    occurrence, in the level before the closing one, of one class of the
    orbit.  That tile's corona lies in its patch, and every tile touching
    one of its children is a child of that corona, so the children are
    trusted in the closing patch.  The other classes of the orbit take
    these children rotated with them: `substitute_tile` commutes with
    rotations and keeps the order of the children.
    """
    order = system.rotation_order
    ids: dict = {}  # collared key -> id
    keys: list = []  # id -> collared key
    turn: dict = {}  # id -> id of its key rotated by one group step

    def intern(key):
        if key not in ids:
            ids[key] = len(keys)
            keys.append(key)
        return ids[key]

    def rotate(i):
        if i not in turn:
            turn[i] = intern(_rotate_class_key(system, keys[i], system.n // order))
        return turn[i]

    def rotate_entries(entries):
        return frozenset((rotate(i), slot) for i, slot in entries)

    def saturated(items, move):
        """The items and their images under every group element."""
        out = set()
        for item in items:
            for _ in range(order):
                out.add(item)
                item = move(item)
        return frozenset(out)

    patch = prototile_patch(system, 0).substitute(1)
    prev = prev_ids = None
    counts = []
    for level in range(1, max_level + 1):
        tile_id = {f: intern(key) for f, key in _trusted_classes(patch).items()}
        edge_pairs, vertex_sets = _identification_data(patch, tile_id)
        signature = (
            saturated(set(tile_id.values()), rotate),
            saturated(edge_pairs, rotate_entries),
            saturated(vertex_sets, rotate_entries),
        )
        if signature == prev and signature[0]:
            by_key = sorted(signature[0], key=keys.__getitem__)
            class_index = {i: c for c, i in enumerate(by_key)}
            one_step = [class_index[rotate(i)] for i in by_key]
            return CollaredTiles(
                system=system,
                level=level,
                class_keys=[keys[i] for i in by_key],
                class_rotation=one_step if order > 1 else None,
                children=_children_table(patch, tile_id, prev_ids, class_index, one_step),
                edge_idents=_star_pairs(signature[1], class_index),
                vertex_idents=_star_pairs(signature[2], class_index),
            )
        prev, prev_ids = signature, tile_id
        counts.append(f"level {level}: {len(signature[0])} classes, "
                      f"{len(signature[1])} edge pairs, {len(signature[2])} vertex sets")
        if level < max_level:
            patch = patch.substitute(1)
    raise NotClosed(f"collared classes still changing at level {max_level} "
                    f"(saturated counts {'; '.join(counts[-2:])})")


def _children_table(patch: Patch, tile_id: dict, prev_ids: dict,
                    class_index: dict, one_step: list[int]) -> list[tuple[int, ...]]:
    """Classes of each class's children, read in `patch` below the first
    occurrence of each class in the patch before it, and carried round
    each rotation orbit by ``one_step``."""
    first = {}
    for f, i in prev_ids.items():
        first.setdefault(i, f)
    kids_of = {f: [] for f in first.values()}
    for cf, f in enumerate(patch.parents):
        if f in kids_of:
            kids_of[f].append(class_index[tile_id[cf]])
    children = [None] * len(class_index)
    for i, f in first.items():
        c, kids = class_index[i], tuple(kids_of[f])
        while children[c] is None:
            children[c] = kids
            c, kids = one_step[c], tuple(one_step[k] for k in kids)
    return children


def _star_pairs(entry_sets, class_index: dict) -> list:
    """Sorted pairs of the least (class, slot) entry of each set with each
    other entry, in class-index terms: the order `build_ap_complex` unions
    them in."""
    pairs = set()
    for entries in entry_sets:
        base, *others = sorted((class_index[i], slot) for i, slot in entries)
        pairs.update((base, other) for other in others)
    return sorted(pairs)


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
        """Check ∂∂ = 0, that the self-map and rotation are chain maps that
        commute, and that the rotation has order ``rotation_order``."""
        bd = [ab.sparse_columns(m) for m in self.boundary]
        sm = [ab.sparse_columns(m) for m in self.self_map]
        for k in range(self.dimension - 1):
            if any(ab.sparse_product(bd[k], bd[k + 1])):
                raise AssertionError(f"boundary squared nonzero in degree {k + 2}")
        for k in range(self.dimension):
            if ab.sparse_product(bd[k], sm[k + 1]) != ab.sparse_product(sm[k], bd[k]):
                raise AssertionError(f"self-map does not commute with boundary at {k + 1}")
        if self.rotation is not None:
            rot = [ab.sparse_columns(m) for m in self.rotation]
            for k in range(self.dimension):
                if ab.sparse_product(bd[k], rot[k + 1]) != ab.sparse_product(rot[k], bd[k]):
                    raise AssertionError(f"rotation does not commute with boundary at {k + 1}")
            for k in range(self.dimension + 1):
                if ab.sparse_product(rot[k], sm[k]) != ab.sparse_product(sm[k], rot[k]):
                    raise AssertionError(f"rotation does not commute with self-map at {k}")
                identity = [{j: 1} for j in range(self.cell_counts[k])]
                power = identity
                for _ in range(self.rotation_order):
                    power = ab.sparse_product(rot[k], power)
                if power != identity:
                    raise AssertionError(f"rotation order violated in degree {k}")


def build_ap_complex(collared: CollaredTiles) -> ApproximantComplex:
    """Glue the collared prototiles into the quotient CW complex."""
    system = collared.system
    n_faces = collared.count
    slot_count = {
        i: len(system.prototiles[_base_proto(key)].vertices)
        for i, key in enumerate(collared.class_keys)
    }

    class_rot = None
    if collared.class_rotation is not None:
        # class_rot[j][i] = index of class i rotated j group steps
        class_rot = [list(range(n_faces))]
        while len(class_rot) < system.rotation_order:
            class_rot.append([collared.class_rotation[i] for i in class_rot[-1]])

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

    for pair_a, pair_b in collared.edge_idents:
        for (ja, ssa), (jb, ssb) in orbit_pairs(pair_a, pair_b):
            edge_uf.union((ja, ssa), (jb, ssb), -1)
    for pair_a, pair_b in collared.vertex_idents:
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

    s0, s1, s2 = _self_map_matrices(collared, edge_uf, vertex_uf, edge_cell, vertex_cell)

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


def _self_map_matrices(collared, edge_uf, vertex_uf, edge_cell, vertex_cell):
    """Chain matrices of the substitution self-map, read off the rule.

    Each class's face goes to its children (`CollaredTiles.children`);
    each root edge to the child edges along the same side of the inflated
    tile, and each root vertex to the child corner there
    (`TilingSystem.rule_sides`).
    """
    system = collared.system
    n_faces = collared.count
    n_edges, n_vertices = len(edge_cell), len(vertex_cell)

    if system.hull_self_map == "identity":
        return ab.eye(n_vertices), ab.eye(n_edges), ab.eye(n_faces)

    s2 = ab.zeros(n_faces, n_faces)
    s1 = ab.zeros(n_edges, n_edges)
    s0 = ab.zeros(n_vertices, n_vertices)
    for ci, classes in enumerate(collared.children):
        for cls in classes:
            s2[cls, ci] += 1
        sides = system.rule_sides[_base_proto(collared.class_keys[ci])]
        for s, side in enumerate(sides):
            if (ci, s) in edge_cell:
                for child, slot in side:
                    root, sign = edge_uf.find((classes[child], slot))
                    s1[edge_cell[root], edge_cell[ci, s]] += sign
            if (ci, s) in vertex_cell:
                child, slot = side[0]
                root, _ = vertex_uf.find((classes[child], slot))
                s0[vertex_cell[root], vertex_cell[ci, s]] += 1
    return s0, s1, s2


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
    # the collapse of the whole cochain complex, shared by every degree
    collapse: ab.ChainCollapse = field(repr=False)


def _cochain_maps(mats: list[np.ndarray]) -> list[list[dict]]:
    """Cochain matrices (transposes) of chain-level matrices, as sparse columns."""
    return [ab.sparse_columns(m.T) for m in mats]


def hull_cohomology(cx: ApproximantComplex, max_stages: int = 20) -> list[HullDegree]:
    """Cech cohomology of the translational hull, degree by degree.

    The cochain complex is collapsed once along its unit incidences
    (``ab.collapse``, which checks ∂∂ = 0) and the self-map carried to the
    core (checked to be a chain map); each subquotient, induced
    endomorphism and direct limit is then taken on the core.
    """
    core = ab.collapse(_cochain_maps(cx.boundary), cx.cell_counts)
    self_map = core.carry(_cochain_maps(cx.self_map))
    out = []
    for k in range(cx.dimension + 1):
        sq = Subquotient.of_pair(*core.pair(k))
        endo = sq.induced_endomorphism(ab.dense(self_map[k], core.sizes[k]))
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
                collapse=core,
            )
        )
    return out


def rotation_action(cx: ApproximantComplex, hull: list[HullDegree]) -> list[GroupHom]:
    """Action of the rotation generator on each limit group.

    Uses the cochain pullback of the rotation matrices, carried through the
    collapse of ``hull`` and checked to commute with the substitution on
    cohomology, restricted to the stabilized image subgroup.
    """
    if cx.rotation is None:
        return [GroupHom.identity(h.group) for h in hull]
    core = hull[0].collapse
    rotation = core.carry(_cochain_maps(cx.rotation))
    out = []
    for h in hull:
        rot = h.subquotient.induced_endomorphism(
            ab.dense(rotation[h.degree], core.sizes[h.degree]))
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
    ``hull_cohomology`` checks its ∂∂ = 0 and its self-map.
    """
    if cx.rotation is None:
        return cx
    order = cx.rotation_order

    orbits = []  # per degree: orbit of each cell, its sign there, representatives
    for k in range(cx.dimension + 1):
        n = cx.cell_counts[k]
        perm = []
        signs = []
        for col in ab.sparse_columns(cx.rotation[k]):
            entries = list(col.items())
            if len(entries) != 1 or abs(entries[0][1]) != 1:
                raise NonCellularAction("rotation is not a signed permutation")
            perm.append(entries[0][0])
            signs.append(int(entries[0][1]))
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
        orbits.append((orbit_of, orbit_sign, reps))
    new_counts = [len(reps) for _, _, reps in orbits]

    def push(mat, k_to, k_from):
        """The orbit matrix: row i of each representative column goes to its orbit."""
        orbit_of, orbit_sign, _ = orbits[k_to]
        reps = orbits[k_from][2]
        out = ab.zeros(new_counts[k_to], len(reps))
        for c, col in enumerate(ab.sparse_columns(mat[:, reps])):
            for i, x in col.items():
                out[orbit_of[i], c] += orbit_sign[i] * x
        return out

    boundary = [push(cx.boundary[k], k, k + 1) for k in range(cx.dimension)]
    self_map = [push(cx.self_map[k], k, k) for k in range(cx.dimension + 1)]
    return ApproximantComplex(
        dimension=cx.dimension,
        cell_counts=new_counts,
        boundary=boundary,
        self_map=self_map,
        rotation=None,
        rotation_order=1,
        labels=dict(cx.labels, quotient=True),
    )


def quotient_cohomology(cx: ApproximantComplex, max_stages: int = 20) -> list[HullDegree]:
    """Cech cohomology of the hull modulo rotations, via the orbit complex."""
    return hull_cohomology(quotient_complex(cx), max_stages=max_stages)
