"""Exact planar geometry over the cyclotomic integers Z[zeta_N].

Points of the plane are elements of Z[x]/Phi_N(x) evaluated at
x = exp(2*pi*i/N); all ring arithmetic is exact on integer coefficient
vectors of length phi(N), so equality of points is decidable.  Floating
evaluation exists only for rendering and deterministic sorting, never
for equality.

Rigid motions are pairs (rotation index mod N, translation), applied
rotation first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, pi, sin


class MixedOrder(Exception):
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


class CycNum:
    """Element of Z[zeta_N], stored as a reduced coefficient vector."""

    __slots__ = ("n", "coeffs", "_hash")

    def __init__(self, n: int, coeffs):
        self.n = n
        self.coeffs = reduce_poly(n, coeffs)
        self._hash = None

    @staticmethod
    def zero(n: int) -> "CycNum":
        return CycNum(n, ())

    @staticmethod
    def one(n: int) -> "CycNum":
        return CycNum(n, (1,))

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycNum":
        return CycNum(n, [0] * (power % n) + [1])

    @staticmethod
    def integer(n: int, value: int) -> "CycNum":
        return CycNum(n, (value,))

    def _check(self, other: "CycNum"):
        if self.n != other.n:
            raise MixedOrder(f"rotation orders differ: {self.n} vs {other.n}")

    def __add__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        return CycNum(self.n, add_coeffs(self.coeffs, other.coeffs))

    def __sub__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        return CycNum(self.n, sub_coeffs(self.coeffs, other.coeffs))

    def __neg__(self) -> "CycNum":
        return CycNum(self.n, neg_coeffs(self.coeffs))

    def __mul__(self, other) -> "CycNum":
        if isinstance(other, int):
            return CycNum(self.n, tuple(other * c for c in self.coeffs))
        self._check(other)
        return CycNum(self.n, mul_coeffs(self.n, self.coeffs, other.coeffs))

    def __rmul__(self, other) -> "CycNum":
        return self.__mul__(other)

    def conjugate(self) -> "CycNum":
        out = zero_coeffs(self.n)
        for j, c in enumerate(self.coeffs):
            if c:
                mono = rotate_coeffs(self.n, one_coeffs(self.n), (-j) % self.n)
                out = tuple(x + c * y for x, y in zip(out, mono))
        return CycNum(self.n, out)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def embed(self) -> complex:
        return embed_coeffs(self.n, self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycNum)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.coeffs))
        return self._hash

    def __repr__(self) -> str:
        return f"CycNum({self.n}, {list(self.coeffs)})"


@dataclass(frozen=True)
class RigidMotion:
    """Orientation-preserving isometry: rotate by 2*pi*rot/N, then translate."""

    n: int
    rot: int
    trans: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rot", self.rot % self.n)
        object.__setattr__(self, "trans", reduce_poly(self.n, self.trans))

    @staticmethod
    def identity(n: int) -> "RigidMotion":
        return RigidMotion(n, 0, zero_coeffs(n))

    @staticmethod
    def rotation(n: int, k: int) -> "RigidMotion":
        return RigidMotion(n, k, zero_coeffs(n))

    @staticmethod
    def translation(n: int, trans) -> "RigidMotion":
        return RigidMotion(n, 0, trans)

    def _check(self, n: int):
        if self.n != n:
            raise MixedOrder(f"rotation orders differ: {self.n} vs {n}")

    def apply_coeffs(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        return add_coeffs(rotate_coeffs(self.n, coeffs, self.rot), self.trans)

    def apply(self, p: CycNum) -> CycNum:
        self._check(p.n)
        return CycNum(self.n, self.apply_coeffs(p.coeffs))

    def compose(self, other: "RigidMotion") -> "RigidMotion":
        """self after other: (self.compose(other))(p) == self(other(p))."""
        self._check(other.n)
        trans = add_coeffs(
            rotate_coeffs(self.n, other.trans, self.rot), self.trans
        )
        return RigidMotion(self.n, self.rot + other.rot, trans)

    def invert(self) -> "RigidMotion":
        inv_rot = (-self.rot) % self.n
        trans = neg_coeffs(rotate_coeffs(self.n, self.trans, inv_rot))
        return RigidMotion(self.n, inv_rot, trans)

    def is_identity(self) -> bool:
        return self.rot == 0 and not any(self.trans)

