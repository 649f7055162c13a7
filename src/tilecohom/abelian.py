"""Exact integer linear algebra and finitely generated abelian groups.

Everything here runs over arbitrary-precision Python integers held in
numpy object arrays.  The central tool is the Smith normal form, from
which we derive canonical forms of finitely generated abelian groups,
homology of integer chain complexes, invariants/coinvariants of group
endomorphisms and stabilized direct limits of self-systems.

A group is always reported in the canonical form (free rank, torsion
divisor chain); two groups are equal iff these data agree.  Generator
lists of a canonical group are ordered free generators first, then
torsion generators in ascending divisor order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class CompositionNotZero(Exception):
    """Boundary-squared is not zero for the given pair of maps."""


class NotEndomorphism(Exception):
    """Operation requires a homomorphism with equal source and target."""


class NotStabilizing(Exception):
    """Direct limit did not stabilize within the allowed number of stages."""


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def intmat(rows) -> np.ndarray:
    """Build an exact integer matrix (object dtype) from nested lists."""
    rows = [[int(x) for x in row] for row in rows]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    ncols = len(rows[0]) if rows else 0
    out = np.empty((len(rows), ncols), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def zeros(m: int, n: int) -> np.ndarray:
    out = np.empty((m, n), dtype=object)
    out[:] = 0
    return out


def eye(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = 1
    return out


def as_intmat(a) -> np.ndarray:
    """Coerce to an object-dtype integer matrix, validating entries."""
    if isinstance(a, np.ndarray) and a.dtype == object and a.ndim == 2:
        return a
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return intmat(a.tolist())


def mat_eq(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and all(
        a[i, j] == b[i, j] for i in range(a.shape[0]) for j in range(a.shape[1])
    )


def is_zero(a: np.ndarray) -> bool:
    return all(x == 0 for x in a.flat)


def det(a: np.ndarray) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = as_intmat(a)
    n, m = a.shape
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    work = a.copy()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k, k] == 0:
            for i in range(k + 1, n):
                if work[i, k] != 0:
                    work[[k, i]] = work[[i, k]]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i, j] = (work[i, j] * work[k, k] - work[i, k] * work[k, j]) // prev
            work[i, k] = 0
        prev = work[k, k]
    return sign * work[n - 1, n - 1]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = S with U, V unimodular and S a non-negative divisor chain.

    u_inv and v_inv are carried along because exact inverses fall out of
    the reduction for free and every consumer needs them.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    u_inv: np.ndarray
    v_inv: np.ndarray

    @property
    def divisors(self) -> list[int]:
        m, n = self.s.shape
        return [int(self.s[i, i]) for i in range(min(m, n))]

    def nonzero_divisors(self) -> list[int]:
        return [d for d in self.divisors if d != 0]

    @property
    def rank(self) -> int:
        return len(self.nonzero_divisors())


def _balanced_quotient(a: int, p: int) -> int:
    """q with |a - q*p| <= |p| / 2 (nearest-integer division)."""
    q, r = divmod(a, p)
    if 2 * abs(r) > abs(p):
        q += 1
    return q


def smith_normal_form(a) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The pivot is re-chosen by least absolute value before every reduction
    pass and reductions use nearest-integer quotients, which keeps
    coefficient growth in check.  Diagonal entries are non-negative and
    each divides the next.
    """
    a = as_intmat(a)
    m, n = a.shape
    s = a.copy()
    u, u_inv = eye(m), eye(m)
    v, v_inv = eye(n), eye(n)

    def row_op(i, j, q):
        # row_i -= q * row_j, recorded in u and u_inv
        s[i] = s[i] - q * s[j]
        u[i] = u[i] - q * u[j]
        u_inv[:, j] = u_inv[:, j] + q * u_inv[:, i]

    def col_op(i, j, q):
        # col_i -= q * col_j
        s[:, i] = s[:, i] - q * s[:, j]
        v[:, i] = v[:, i] - q * v[:, j]
        v_inv[j] = v_inv[j] + q * v_inv[i]

    def row_swap(i, j):
        if i == j:
            return
        s[[i, j]] = s[[j, i]]
        u[[i, j]] = u[[j, i]]
        u_inv[:, [i, j]] = u_inv[:, [j, i]]

    def col_swap(i, j):
        if i == j:
            return
        s[:, [i, j]] = s[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]
        v_inv[[i, j]] = v_inv[[j, i]]

    def row_negate(i):
        s[i] = -s[i]
        u[i] = -u[i]
        u_inv[:, i] = -u_inv[:, i]

    def move_min_pivot(k) -> bool:
        best = None
        for i in range(k, m):
            for j in range(k, n):
                x = s[i, j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            return False
        row_swap(k, best[1])
        col_swap(k, best[2])
        return True

    k = 0
    while k < min(m, n):
        if not move_min_pivot(k):
            break
        # reduce until the pivot divides its entire row and column exactly
        while True:
            pivot = s[k, k]
            remainder_left = False
            for i in range(k + 1, m):
                if s[i, k] != 0:
                    q = _balanced_quotient(s[i, k], pivot)
                    row_op(i, k, q)
                    if s[i, k] != 0:
                        remainder_left = True
            for j in range(k + 1, n):
                if s[k, j] != 0:
                    q = _balanced_quotient(s[k, j], pivot)
                    col_op(j, k, q)
                    if s[k, j] != 0:
                        remainder_left = True
            if not remainder_left:
                break
            move_min_pivot(k)
        if s[k, k] < 0:
            row_negate(k)

        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if s[i, j] % s[k, k] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(k, offender, -1)  # add offending row to pivot row
            continue
        k += 1

    return SmithDecomposition(u=u, s=s, v=v, u_inv=u_inv, v_inv=v_inv)


def rank(a) -> int:
    return smith_normal_form(a).rank


def kernel_basis(a) -> np.ndarray:
    """Columns spanning ker(A) over the integers (a saturated subgroup)."""
    a = as_intmat(a)
    dec = smith_normal_form(a)
    n = a.shape[1]
    r = dec.rank
    return dec.v[:, r:n]


class LinearSolver:
    """Solve A x = b over the integers for many right-hand sides."""

    def __init__(self, a):
        self.a = as_intmat(a)
        self.dec = smith_normal_form(self.a)

    def solve(self, b) -> np.ndarray | None:
        """A particular integer solution of A x = b, or None."""
        m, n = self.a.shape
        b = np.asarray(b, dtype=object).reshape(m)
        y = self.dec.u.dot(b)
        x = zeros(n, 1)[:, 0]
        divisors = self.dec.divisors
        for i in range(m):
            d = divisors[i] if i < len(divisors) else 0
            if d == 0:
                if y[i] != 0:
                    return None
            else:
                if y[i] % d != 0:
                    return None
                x[i] = y[i] // d
        for i in range(len(divisors), min(n, m)):
            x[i] = 0
        return self.dec.v.dot(x)

    def solvable(self, b) -> bool:
        return self.solve(b) is not None

    def solve_matrix(self, b) -> np.ndarray | None:
        """Solve A X = B columnwise; None if any column fails."""
        b = as_intmat(b)
        cols = []
        for j in range(b.shape[1]):
            x = self.solve(b[:, j])
            if x is None:
                return None
            cols.append(x)
        out = zeros(self.a.shape[1], b.shape[1])
        for j, x in enumerate(cols):
            out[:, j] = x
        return out


def hstack(*mats) -> np.ndarray:
    mats = [as_intmat(m) for m in mats]
    rows = mats[0].shape[0]
    if any(m.shape[0] != rows for m in mats):
        raise ValueError("row mismatch")
    return np.concatenate(mats, axis=1) if mats else zeros(0, 0)


# ---------------------------------------------------------------------------
# finitely generated abelian groups, canonical form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FgAbGroup:
    """Canonical form of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative rank")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion divisors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion list is not a divisor chain")

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.ngens == 0

    def is_free(self) -> bool:
        return not self.torsion

    def relation_matrix(self) -> np.ndarray:
        """Relations of the canonical presentation (one column per torsion generator)."""
        k, t = self.ngens, len(self.torsion)
        rel = zeros(k, t)
        for j, d in enumerate(self.torsion):
            rel[self.free_rank + j, j] = d
        return rel

    def gen_orders(self) -> list[int]:
        return [0] * self.free_rank + list(self.torsion)

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        merged = sorted(self.torsion + other.torsion)
        return FgAbGroup(self.free_rank + other.free_rank, _divisor_chain(merged))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _divisor_chain(values: list[int]) -> tuple[int, ...]:
    """Rewrite a list of cyclic orders into an ascending divisor chain."""
    from math import gcd

    values = [v for v in values if v >= 2]
    changed = True
    while changed:
        changed = False
        values.sort()
        for i in range(len(values) - 1):
            a, b = values[i], values[i + 1]
            if b % a != 0:
                g = gcd(a, b)
                lcm = a // g * b
                new = [g, lcm] if g >= 2 else [lcm]
                values[i : i + 2] = new
                changed = True
                break
    return tuple(values)


ZERO_GROUP = FgAbGroup(0)


@dataclass(frozen=True)
class Presentation:
    """A group presented as Z^ngens modulo the column span of `relations`."""

    ngens: int
    relations: np.ndarray

    def __post_init__(self):
        rel = as_intmat(self.relations)
        object.__setattr__(self, "relations", rel)
        if rel.shape[0] != self.ngens:
            raise ValueError("relation matrix has wrong number of rows")


@dataclass(frozen=True)
class CanonicalizedGroup:
    """Canonical form of a presentation with exact coordinate transforms.

    project maps old coordinates to canonical generator coordinates;
    lift maps canonical generator j to a representative in old coordinates.
    """

    group: FgAbGroup
    project: np.ndarray  # ngens_canonical x ngens_old
    lift: np.ndarray     # ngens_old x ngens_canonical


def canonicalize(pres: Presentation) -> CanonicalizedGroup:
    dec = smith_normal_form(pres.relations)
    n = pres.ngens
    divisors = dec.divisors + [0] * (n - len(dec.divisors))
    free_idx = [i for i in range(n) if divisors[i] == 0]
    tors_idx = [i for i in range(n) if divisors[i] >= 2]
    order = free_idx + tors_idx
    group = FgAbGroup(len(free_idx), tuple(divisors[i] for i in tors_idx))
    k = len(order)
    project = zeros(k, n)
    lift = zeros(n, k)
    for new_i, old_i in enumerate(order):
        project[new_i] = dec.u[old_i]
        lift[:, new_i] = dec.u_inv[:, old_i]
    return CanonicalizedGroup(group=group, project=project, lift=lift)


def group_of_presentation(pres: Presentation) -> FgAbGroup:
    return canonicalize(pres).group


def cokernel(a) -> FgAbGroup:
    """Z^m / column span of A, in canonical form."""
    a = as_intmat(a)
    return group_of_presentation(Presentation(a.shape[0], a))


# ---------------------------------------------------------------------------
# homomorphisms between canonical groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between canonical groups, as a matrix on generator lists."""

    source: FgAbGroup
    target: FgAbGroup
    matrix: np.ndarray

    def __post_init__(self):
        mat = as_intmat(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if mat.shape != (self.target.ngens, self.source.ngens):
            raise ValueError(
                f"matrix shape {mat.shape} does not match "
                f"{self.target.ngens} x {self.source.ngens}"
            )
        if not _respects_torsion(self.source, self.target, mat):
            raise ValueError("matrix does not respect torsion orders")

    @staticmethod
    def identity(group: FgAbGroup) -> "GroupHom":
        return GroupHom(group, group, eye(group.ngens))

    def is_endomorphism(self) -> bool:
        return self.source == self.target

    def compose(self, other: "GroupHom") -> "GroupHom":
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return GroupHom(other.source, self.target, self.matrix.dot(other.matrix))


def _respects_torsion(source: FgAbGroup, target: FgAbGroup, mat: np.ndarray) -> bool:
    """d * f(g) must vanish in the target whenever d * g = 0 in the source."""
    target_rel = target.relation_matrix()
    solver = LinearSolver(target_rel) if target_rel.shape[1] else None
    for j, d in enumerate(source.gen_orders()):
        if d == 0:
            continue
        v = d * mat[:, j]
        if solver is None:
            if any(x != 0 for x in v):
                return False
        elif not solver.solvable(v):
            return False
    return True


def hom_equal_mod_torsion(f: GroupHom, g: GroupHom) -> bool:
    """Do two homs with the same source/target agree as maps?"""
    if f.source != g.source or f.target != g.target:
        return False
    rel = f.target.relation_matrix()
    solver = LinearSolver(rel) if rel.shape[1] else None
    diff = f.matrix - g.matrix
    for j in range(diff.shape[1]):
        col = diff[:, j]
        if solver is None:
            if any(x != 0 for x in col):
                return False
        elif not solver.solvable(col):
            return False
    return True


# ---------------------------------------------------------------------------
# homology of integer chain complexes
# ---------------------------------------------------------------------------

@dataclass
class Subquotient:
    """ker(d_out)/im(d_in) inside Z^n, with exact generator bookkeeping.

    Used both for plain homology values and to transport endomorphisms of
    the ambient chain group onto the subquotient.
    """

    group: FgAbGroup
    kernel: np.ndarray          # n x s, columns span ker(d_out)
    _canon: CanonicalizedGroup = field(repr=False)
    _coord_solver: LinearSolver = field(repr=False)
    _rel_in_kernel: np.ndarray = field(repr=False)

    @staticmethod
    def of_pair(d_in, d_out) -> "Subquotient":
        d_in, d_out = as_intmat(d_in), as_intmat(d_out)
        n = d_out.shape[1]
        if d_in.shape[0] != n:
            raise ValueError("chain group dimension mismatch")
        if d_in.shape[1] and d_out.shape[0]:
            if not is_zero(d_out.dot(d_in)):
                raise CompositionNotZero("d_out . d_in != 0")
        kernel = kernel_basis(d_out)
        coord_solver = LinearSolver(kernel)
        coords = coord_solver.solve_matrix(d_in)
        if coords is None:
            raise CompositionNotZero("image of d_in does not lie in ker(d_out)")
        canon = canonicalize(Presentation(kernel.shape[1], coords))
        return Subquotient(
            group=canon.group,
            kernel=kernel,
            _canon=canon,
            _coord_solver=coord_solver,
            _rel_in_kernel=coords,
        )

    def induced_endomorphism(self, ambient_matrix) -> GroupHom:
        """Endomorphism on the subquotient induced by an n x n chain-level map.

        The ambient map must send ker(d_out) into itself and im(d_in) into
        itself (both are checked).
        """
        f = as_intmat(ambient_matrix)
        mapped = self._coord_solver.solve_matrix(f.dot(self.kernel))
        if mapped is None:
            raise ValueError("ambient map does not preserve the kernel")
        mat = self._canon.project.dot(mapped.dot(self._canon.lift))
        mat = _reduce_mod_orders(mat, self.group)
        hom = GroupHom(self.group, self.group, mat)
        return hom


def _reduce_mod_orders(mat: np.ndarray, target: FgAbGroup) -> np.ndarray:
    mat = mat.copy()
    for i, d in enumerate(target.gen_orders()):
        if d != 0:
            for j in range(mat.shape[1]):
                mat[i, j] = mat[i, j] % d
    return mat


def homology_at(d_in, d_out) -> FgAbGroup:
    """ker(d_out)/im(d_in) via Smith normal form.

    Empty matrices denote zero maps; two empty maps on Z^n give Z^n.
    """
    return Subquotient.of_pair(d_in, d_out).group


# ---------------------------------------------------------------------------
# invariants, coinvariants, direct limits
# ---------------------------------------------------------------------------

def _require_endo(f: GroupHom):
    if not f.is_endomorphism():
        raise NotEndomorphism("source and target differ")


@dataclass
class SubgroupPresentation:
    """Subgroup of a canonical group G spanned by given generator columns."""

    ambient: FgAbGroup
    generators: np.ndarray  # ambient.ngens x s
    group: FgAbGroup
    _canon: CanonicalizedGroup
    _membership: LinearSolver  # solver for [generators | ambient relations]

    @staticmethod
    def spanned_by(ambient: FgAbGroup, generators) -> "SubgroupPresentation":
        gens = as_intmat(generators)
        rel = ambient.relation_matrix()
        stacked = hstack(gens, rel) if rel.shape[1] else gens
        rel_coords = kernel_basis(stacked)[: gens.shape[1], :]
        canon = canonicalize(Presentation(gens.shape[1], rel_coords))
        return SubgroupPresentation(
            ambient=ambient,
            generators=gens,
            group=canon.group,
            _canon=canon,
            _membership=LinearSolver(stacked),
        )

    def restrict(self, f: GroupHom) -> GroupHom:
        """Restrict an ambient endomorphism to this subgroup (must preserve it)."""
        _require_endo(f)
        if f.source != self.ambient:
            raise ValueError("hom does not act on the ambient group")
        s = self.generators.shape[1]
        cols = []
        for j in range(s):
            image = f.matrix.dot(self.generators[:, j])
            sol = self._membership.solve(image)
            if sol is None:
                raise ValueError("endomorphism does not preserve the subgroup")
            cols.append(sol[:s])
        coord_mat = zeros(s, s)
        for j, c in enumerate(cols):
            coord_mat[:, j] = c
        mat = self._canon.project.dot(coord_mat.dot(self._canon.lift))
        mat = _reduce_mod_orders(mat, self.group)
        return GroupHom(self.group, self.group, mat)


def invariants_of(f: GroupHom) -> FgAbGroup:
    """ker(id - f) of an endomorphism, as a canonical group."""
    return invariant_subgroup(f).group


def invariant_subgroup(f: GroupHom) -> SubgroupPresentation:
    _require_endo(f)
    g = f.source
    k = g.ngens
    rel = g.relation_matrix()
    m = f.matrix - eye(k)
    stacked = hstack(m, rel) if rel.shape[1] else m
    gens = kernel_basis(stacked)[:k, :]
    sub = SubgroupPresentation.spanned_by(g, gens)
    if g.is_free() and not sub.group.is_free():
        raise AssertionError("subgroup of a free group must be free")
    return sub


def coinvariants_of(f: GroupHom) -> FgAbGroup:
    """target / im(id - f) of an endomorphism, as a canonical group."""
    _require_endo(f)
    g = f.source
    k = g.ngens
    rel = g.relation_matrix()
    m = eye(k) - f.matrix
    return group_of_presentation(Presentation(k, hstack(m, rel)))


@dataclass(frozen=True)
class DirectSystem:
    """Self-system G -> G -> ... with one repeated connecting map."""

    stage_group: FgAbGroup
    connecting_map: GroupHom
    max_iterations: int = 20

    def __post_init__(self):
        if (
            self.connecting_map.source != self.stage_group
            or self.connecting_map.target != self.stage_group
        ):
            raise NotEndomorphism("connecting map must be a self-map of the stage group")


@dataclass
class DirectLimit:
    """Stabilized direct limit of a self-system, with transport of commuting maps."""

    group: FgAbGroup
    stage: int
    image_subgroup: SubgroupPresentation

    def restrict(self, f: GroupHom) -> GroupHom:
        """Induced endomorphism on the limit of a map commuting with the system."""
        return self.image_subgroup.restrict(f)


def direct_limit(system: DirectSystem) -> FgAbGroup:
    return direct_limit_full(system).group


def direct_limit_full(system: DirectSystem) -> DirectLimit:
    """Find a stage where the image tower stabilizes; the limit is that image.

    The tower im(f^0) >= im(f^1) >= ... stabilizes at stage k when the two
    subgroups are equal, in which case f restricts to a surjective (hence,
    by Hopficity of f.g. abelian groups, bijective) self-map of the image
    and the direct limit is isomorphic to it.
    """
    g = system.stage_group
    f = system.connecting_map
    k = g.ngens
    rel = g.relation_matrix()
    power = eye(k)
    for stage in range(system.max_iterations + 1):
        next_power = f.matrix.dot(power)
        inclusion = LinearSolver(hstack(next_power, rel) if rel.shape[1] else next_power)
        if inclusion.solve_matrix(power) is not None:
            sub = SubgroupPresentation.spanned_by(g, power)
            restricted = sub.restrict(f)
            if not _is_automorphism(restricted):
                raise AssertionError("stabilized connecting map is not invertible")
            return DirectLimit(group=sub.group, stage=stage, image_subgroup=sub)
        power = next_power
    raise NotStabilizing(
        f"image tower still shrinking after {system.max_iterations} stages"
    )


def _is_automorphism(f: GroupHom) -> bool:
    """Surjectivity of an endomorphism of a f.g. group (equivalent to bijectivity)."""
    g = f.source
    rel = g.relation_matrix()
    pres = Presentation(g.ngens, hstack(f.matrix, rel))
    return group_of_presentation(pres).is_trivial()


# ---------------------------------------------------------------------------
# mapping torus cohomology from a degreewise endomorphism
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MappingTorusDegree:
    degree: int
    group: FgAbGroup
    coinvariants_below: FgAbGroup
    invariants: FgAbGroup
    extension_ambiguous: bool


def mapping_torus_cohomology(fstars: list[GroupHom]) -> list[MappingTorusDegree]:
    """Cohomology of the mapping torus of a self-map from its action per degree.

    Degree k sits in a short exact sequence with kernel the coinvariants in
    degree k-1 and image the invariants in degree k.  When the invariants
    are free the sequence splits and the direct sum is returned; otherwise
    the degree is flagged as an unresolved extension.
    """
    for f in fstars:
        _require_endo(f)
    out = []
    top = len(fstars)
    for k in range(top + 1):
        inv = invariants_of(fstars[k]) if k < top else ZERO_GROUP
        coin = coinvariants_of(fstars[k - 1]) if k >= 1 else ZERO_GROUP
        ambiguous = not inv.is_free() and not coin.is_trivial() and not inv.is_trivial()
        group = coin.direct_sum(inv)
        out.append(
            MappingTorusDegree(
                degree=k,
                group=group,
                coinvariants_below=coin,
                invariants=inv,
                extension_ambiguous=ambiguous,
            )
        )
    return out


def characteristic_polynomial(a) -> list[int]:
    """Coefficients of det(x I - A), highest degree first, computed exactly."""
    from fractions import Fraction

    a = as_intmat(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("square matrix required")
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        mm = zeros(n, n)
        for i in range(n):
            for j in range(n):
                mm[i, j] = (x if i == j else 0) - a[i, j]
        ys.append(det(mm))
    # Lagrange interpolation at 0..n, exact in rationals
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xj
                new[d + 1] += c
            basis = new
        for d, c in enumerate(basis):
            coeffs[d] += Fraction(ys[i]) * c / denom
    out = []
    for c in reversed(coeffs):
        if c.denominator != 1:
            raise AssertionError("characteristic polynomial must be integral")
        out.append(int(c))
    return out
