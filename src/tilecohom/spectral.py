"""Second-page spectral assembly for the hull of rigid motions.

The page is concentrated in columns 0..2 and rows 0..1.  The top row in
column 0 is the degree-zero pattern-equivariant homology of the tiling
(which may carry torsion contributed by rotationally invariant tilings);
every other entry is a cohomology group of the rotation-free quotient
hull.  One differential remains: a generator of the (2,0) entry maps to
the class of the winding-number chain, after which the page is stable
and the total cohomology is assembled along antidiagonals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import abelian as ab
from .abelian import FgAbGroup, Presentation, group_of_presentation


class RankMismatch(Exception):
    """Input groups violate the rank relation required by duality."""


@dataclass(frozen=True)
class SpectralInput:
    """Inputs of the spectral route.

    h_omega0 lists the cohomology of the quotient hull in degrees 0..2;
    h0_t0 is the degree-zero pattern-equivariant homology with a
    distinguished generator list, and omega_class expresses the winding
    chain's class in those generators.
    """

    h_omega0: tuple[FgAbGroup, FgAbGroup, FgAbGroup]
    h0_t0: FgAbGroup
    omega_class: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "h_omega0", tuple(self.h_omega0))
        object.__setattr__(self, "omega_class", tuple(int(x) for x in self.omega_class))
        if len(self.h_omega0) != 3:
            raise ValueError("need quotient-hull groups in degrees 0, 1, 2")
        if len(self.omega_class) != self.h0_t0.ngens:
            raise ValueError("omega class length must match the generator list")


@dataclass(frozen=True)
class SpectralPage:
    """Groups at positions (p, q) in {0,1,2} x {0,1} with a page index."""

    entries: dict
    page: int

    def entry(self, p: int, q: int) -> FgAbGroup:
        return self.entries.get((p, q), ab.ZERO_GROUP)


def assemble_e2(data: SpectralInput) -> SpectralPage:
    """Populate the second page from the quotient-hull groups and h0_t0."""
    h0, h1, h2 = data.h_omega0
    if data.h0_t0.free_rank != h2.free_rank:
        raise RankMismatch(
            f"rank {data.h0_t0.free_rank} of the degree-zero homology "
            f"must equal rank {h2.free_rank} of the degree-two quotient group"
        )
    entries = {
        (0, 1): data.h0_t0,
        (1, 1): h1,
        (2, 1): h0,
        (0, 0): h2,
        (1, 0): h1,
        (2, 0): h0,
    }
    return SpectralPage(entries=entries, page=2)


def class_order(group: FgAbGroup, vector) -> int:
    """Order of an element in canonical coordinates (0 for infinite order)."""
    vector = [int(x) for x in vector]
    orders = group.gen_orders()
    m = 1
    for x, d in zip(vector, orders):
        if d == 0:
            if x != 0:
                return 0
        elif x % d != 0:
            m = m * (d // gcd(d, x % d)) // gcd(m, d // gcd(d, x % d))
    return m


def apply_d2(page: SpectralPage, omega_class, h0_t0: FgAbGroup) -> SpectralPage:
    """Apply the single differential from (2,0) into (0,1); returns the stable page.

    The (2,0) entry must be infinite cyclic (the quotient hull is
    connected); it is replaced by the kernel of multiplication by the
    winding class, and (0,1) by the quotient of h0_t0 by that class.
    """
    if page.entry(2, 0) != FgAbGroup(1):
        raise RankMismatch("the (2,0) entry must be infinite cyclic")
    omega_class = tuple(int(x) for x in omega_class)
    order = class_order(h0_t0, omega_class)
    new_20 = FgAbGroup(1) if order != 0 else ab.ZERO_GROUP
    rel = h0_t0.relation_matrix()
    extra = ab.zeros(h0_t0.ngens, 1)
    for i, x in enumerate(omega_class):
        extra[i, 0] = x
    new_01 = group_of_presentation(
        Presentation(h0_t0.ngens, ab.hstack(rel, extra))
    )
    entries = dict(page.entries)
    entries[(2, 0)] = new_20
    entries[(0, 1)] = new_01
    return SpectralPage(entries=entries, page=3)


@dataclass(frozen=True)
class TotalDegree:
    cech_degree: int
    group: FgAbGroup
    graded: tuple[FgAbGroup, ...]
    extension_ambiguous: bool


def total_cohomology(page: SpectralPage) -> list[TotalDegree]:
    """Assemble the hull-of-rigid-motions cohomology from a stable page.

    Total degree m collects the entries with p + q = m; for a planar
    tiling the Cech degree is 3 - m.  The direct sum is returned when all
    graded pieces are free, otherwise the degree is flagged.
    """
    if page.page < 3:
        raise ValueError("total cohomology requires the stable page")
    out = []
    for m in range(4):
        graded = []
        for p in range(3):
            q = m - p
            if 0 <= q <= 1:
                g = page.entry(p, q)
                if not g.is_trivial():
                    graded.append(g)
        total = ab.ZERO_GROUP
        for g in graded:
            total = total.direct_sum(g)
        ambiguous = len(graded) > 1 and any(not g.is_free() for g in graded)
        out.append(
            TotalDegree(
                cech_degree=3 - m,
                group=total,
                graded=tuple(graded),
                extension_ambiguous=ambiguous,
            )
        )
    return sorted(out, key=lambda d: d.cech_degree)


def spectral_route(data: SpectralInput) -> tuple[SpectralPage, SpectralPage, list[TotalDegree]]:
    e2 = assemble_e2(data)
    einf = apply_d2(e2, data.omega_class, data.h0_t0)
    return e2, einf, total_cohomology(einf)


def rational_collapse_check(data: SpectralInput, total: list[TotalDegree]) -> dict:
    """Over the rationals the hull of rigid motions looks like a product with a circle.

    Verifies rank H^k(rot hull) = rank H^k(quotient) + rank H^(k-1)(quotient)
    for all k, on the total cohomology that ``spectral_route`` assembled
    from ``data``.
    """
    ranks = [d.group.free_rank for d in total]
    q_ranks = [g.free_rank for g in data.h_omega0]
    for k in range(4):
        expect = (q_ranks[k] if k < 3 else 0) + (q_ranks[k - 1] if 1 <= k <= 3 else 0)
        if ranks[k] != expect:
            return {
                "passed": False,
                "degree": k,
                "rank": ranks[k],
                "expected": expect,
            }
    return {"passed": True, "ranks": ranks}
