"""Exact planar geometry over the cyclotomic integers Z[zeta_N].

Points of the plane are elements of Z[x]/Phi_N(x) evaluated at
x = exp(2*pi*i/N); all ring arithmetic is exact on integer coefficient
vectors of length phi(N), so equality of points is decidable.  Floating
evaluation exists only for validation margins and SVG rendering, never
for membership or equality.

Rigid motions are pairs (rotation index mod N, translation), applied
rotation first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, pi, sin

from . import TilecohomError


class MixedOrder(TilecohomError):
    """Operands live over different rotation orders N."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, computed by exact division.

    x^n - 1 = product of Phi_d over d | n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_div_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[k] = q
        for i, dc in enumerate(den):
            num[k + i] -= q * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def reduce_poly(n: int, coeffs) -> tuple[int, ...]:
    """Canonical representative of an integer polynomial modulo Phi_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    work = [int(c) for c in coeffs]
    if len(work) < deg:
        work += [0] * (deg - len(work))
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            for i in range(deg + 1):
                work[k - deg + i] -= c * phi[i]
        work.pop()
    return tuple(work[:deg])


@lru_cache(maxsize=None)
def _zeta_power_table(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """zeta^k * (each basis monomial), reduced; table[k][j] = zeta^(k+j) coords."""
    deg = euler_phi(n)
    table = []
    for k in range(n):
        row = []
        for j in range(deg):
            mono = [0] * (k + j) + [1]
            row.append(reduce_poly(n, mono))
        table.append(tuple(row))
    return tuple(table)


def rotate_coeffs(n: int, coeffs: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Multiply by zeta^k: exact rotation of a point by 2*pi*k/N."""
    k %= n
    if k == 0:
        return coeffs
    table = _zeta_power_table(n)[k]
    deg = len(coeffs)
    out = [0] * deg
    for j, c in enumerate(coeffs):
        if c:
            row = table[j]
            for i in range(deg):
                out[i] += c * row[i]
    return tuple(out)


@lru_cache(maxsize=None)
def _conjugate_table(n: int) -> tuple[tuple[int, ...], ...]:
    """table[j] = coordinates of zeta^-j, the conjugate of the monomial zeta^j."""
    return tuple(_zeta_power_table(n)[(-j) % n][0] for j in range(euler_phi(n)))


def conjugate_coeffs(n: int, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Complex conjugate of a reduced element: zeta^j -> zeta^-j."""
    table = _conjugate_table(n)
    out = [0] * len(coeffs)
    for c, row in zip(coeffs, table):
        if c:
            for i, x in enumerate(row):
                out[i] += c * x
    return tuple(out)


def add_coeffs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def sub_coeffs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def neg_coeffs(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in a)


def mul_coeffs(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return reduce_poly(n, prod)


def zero_coeffs(n: int) -> tuple[int, ...]:
    return (0,) * euler_phi(n)


def one_coeffs(n: int) -> tuple[int, ...]:
    out = [0] * euler_phi(n)
    out[0] = 1
    return tuple(out)


@lru_cache(maxsize=None)
def _embedding_basis(n: int) -> tuple[complex, ...]:
    deg = euler_phi(n)
    return tuple(
        complex(cos(2 * pi * j / n), sin(2 * pi * j / n)) for j in range(deg)
    )


def embed_coeffs(n: int, coeffs: tuple[int, ...]) -> complex:
    basis = _embedding_basis(n)
    return sum(c * b for c, b in zip(coeffs, basis)) if any(coeffs) else 0j


@dataclass(frozen=True)
class RigidMotion:
    """Orientation-preserving isometry: rotate by 2*pi*rot/N, then translate."""

    n: int
    rot: int
    trans: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rot", self.rot % self.n)
        trans = self.trans
        # compose, invert, rotation and identity pass reduced phi(N)-tuples,
        # on which reduce_poly is the identity
        if not (
            type(trans) is tuple
            and len(trans) == euler_phi(self.n)
            and all(type(c) is int for c in trans)
        ):
            object.__setattr__(self, "trans", reduce_poly(self.n, trans))

    @staticmethod
    def identity(n: int) -> "RigidMotion":
        return RigidMotion(n, 0, zero_coeffs(n))

    @staticmethod
    def rotation(n: int, k: int) -> "RigidMotion":
        return RigidMotion(n, k, zero_coeffs(n))

    @staticmethod
    def translation(n: int, trans) -> "RigidMotion":
        return RigidMotion(n, 0, trans)

    def compose(self, other: "RigidMotion") -> "RigidMotion":
        """self after other: (self.compose(other))(p) == self(other(p))."""
        if self.n != other.n:
            raise MixedOrder(f"rotation orders differ: {self.n} vs {other.n}")
        trans = add_coeffs(
            rotate_coeffs(self.n, other.trans, self.rot), self.trans
        )
        return RigidMotion(self.n, self.rot + other.rot, trans)

    def invert(self) -> "RigidMotion":
        inv_rot = (-self.rot) % self.n
        trans = neg_coeffs(rotate_coeffs(self.n, self.trans, inv_rot))
        return RigidMotion(self.n, inv_rot, trans)
