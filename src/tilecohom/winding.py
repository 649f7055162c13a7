"""Edge rotation values and the winding-number chain of a star atlas.

Every edge class compares the rotational orientations of its two flanking
tiles; the difference, lifted minimally, is the edge value rho (stored as
an exact rational number of turns).  Summing rho with in/out signs around
a vertex class gives an integer winding number omega(v); the resulting
0-chain is a class function on the atlas.  All angles are exact rationals,
never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import TilecohomError
from . import abelian as ab
from .atlas import StarAtlas, atlas_edge_lookup, edge_occurrence


class IsotropyRequired(TilecohomError):
    """The atlas has not passed the isotropy check."""


class NonIntegralWinding(TilecohomError):
    """Signed rho values around a vertex did not sum to a whole turn."""


@dataclass(frozen=True)
class RhoAssignment:
    """rho per edge class, in turns (denominator divides the rotation order)."""

    values: tuple[Fraction, ...]

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def multiset(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.values))


@dataclass(frozen=True)
class WindingChain:
    """Integer winding number per vertex class."""

    values: tuple[int, ...]

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))


def assign_rho(atlas: StarAtlas) -> RhoAssignment:
    """Rho per edge class: left tau minus right tau, lifted to a small rational.

    The lift is the representative of magnitude <= 1/2 turn, anticlockwise
    positive, with ties broken positive.
    """
    n = atlas.system.n
    values = []
    for cls in atlas.edge_classes:
        if cls.left_tau is None or cls.right_tau is None:
            raise IsotropyRequired("edge class lacks flank data")
        diff = (cls.left_tau - cls.right_tau) % n
        steps = diff if 2 * diff <= n else diff - n
        values.append(Fraction(steps, n))
    return RhoAssignment(tuple(values))


def omega_chain(atlas: StarAtlas, rho: RhoAssignment, audit: bool = True) -> WindingChain:
    """Winding number per vertex class; integrality is asserted exactly.

    With `audit` on, every complete vertex of the atlas's grown patch is
    recomputed from its own incident edges and must reproduce the class
    value.
    """
    values = []
    for cls in atlas.vertex_classes:
        total = sum((eps * rho[e] for e, eps in cls.slots), Fraction(0))
        if total.denominator != 1:
            raise NonIntegralWinding(
                f"vertex class {cls.index}: signed rho sum {total} is not an integer"
            )
        values.append(int(total))
    chain = WindingChain(tuple(values))
    if audit:
        audit_omega(atlas, rho, chain)
    return chain


def audit_omega(atlas: StarAtlas, rho: RhoAssignment, chain: WindingChain):
    """Every concrete vertex of a class receives the identical winding number."""
    from .atlas import atlas_vertex_lookup, _vertex_star
    from .tiling import canonical_key

    patch = atlas.audit_patch
    cells = patch.cells
    edge_index = atlas_edge_lookup(atlas)
    vertex_index = atlas_vertex_lookup(atlas)
    for v in cells.complete_vertices():
        star, center = _vertex_star(patch, v)
        vclass = vertex_index[canonical_key(star, "rigid", center=center)]
        total = Fraction(0)
        for e in cells.vertex_edges[v]:
            idx, tail, head = edge_occurrence(patch, e, edge_index)
            eps = 1 if tail == cells.vertex_pos[v] else -1
            total += eps * rho[idx]
        if total != chain[vclass]:
            raise NonIntegralWinding(
                f"vertex occurrence of class {vclass} disagrees: {total}"
            )


def atlas_boundary(atlas: StarAtlas, k: int) -> np.ndarray:
    """Boundary matrix of the atlas-level chain complex in degree k.

    Degree 1 maps edge classes to vertex classes (head minus tail, summed
    over the slots of each vertex representative); degree 2 maps tile
    classes to edge classes (left flank minus right flank).
    """
    if k == 1:
        mat = ab.zeros(len(atlas.vertex_classes), len(atlas.edge_classes))
        for v, cls in enumerate(atlas.vertex_classes):
            for e, eps in cls.slots:
                mat[v, e] -= eps
        return mat
    if k == 2:
        mat = ab.zeros(len(atlas.edge_classes), len(atlas.tile_classes))
        for e, cls in enumerate(atlas.edge_classes):
            mat[e, cls.left_tile_class] += 1
            mat[e, cls.right_tile_class] -= 1
        return mat
    raise ValueError("degree must be 1 or 2")


def degree_zero_homology(d1: np.ndarray, chain: WindingChain) -> tuple[ab.FgAbGroup, tuple]:
    """H0 of the atlas complex, coker(d1) in canonical form, and the chain's class in it.

    ``d1`` is ``atlas_boundary(atlas, 1)``.  The class is in canonical
    coordinates, reduced modulo the torsion orders.
    """
    canon = ab.canonicalize(ab.Presentation(d1.shape[0], d1))
    coords = (sum(int(p) * w for p, w in zip(row, chain.values)) for row in canon.project)
    orders = canon.group.gen_orders()
    return canon.group, tuple(x % d if d else x for x, d in zip(coords, orders))


def rational_coboundary_check(d1: np.ndarray, rho: RhoAssignment, chain: WindingChain) -> dict:
    """Verify exactly that the boundary of the -rho 1-chain is omega.

    ``d1`` is ``atlas_boundary(atlas, 1)``.  Works over exact rationals at
    the level of concrete vertex representatives; failure returns a verdict
    with a witness vertex class rather than raising.
    """
    for v in range(d1.shape[0]):
        total = Fraction(0)
        for e in range(d1.shape[1]):
            total += int(d1[v, e]) * (-rho[e])
        if total.denominator != 1 or int(total) != chain[v]:
            return {
                "passed": False,
                "witness_vertex_class": v,
                "expected": chain[v],
                "got": str(total),
            }
    return {"passed": True}


def dagger_orders(atlas: StarAtlas) -> tuple[int, ...]:
    """Rotational symmetry order of each vertex class."""
    return tuple(cls.symmetry_order for cls in atlas.vertex_classes)
