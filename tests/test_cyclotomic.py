"""Exact arithmetic in Z[zeta_N] and rigid motions."""

import random

import pytest

from tilecohom.cyclotomic import (
    CycNum,
    MixedOrder,
    RigidMotion,
    cyclotomic_polynomial,
)

GOLDEN = 1.618033988749895


def rand_cyc(rng, n=10):
    from tilecohom.cyclotomic import euler_phi

    return CycNum(n, [rng.randint(-5, 5) for _ in range(euler_phi(n))])


class TestReduction:
    def test_phi_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)

    def test_zeta_to_the_n_is_one(self):
        z = CycNum(10, [0] * 10 + [1])
        assert z == CycNum.one(10)

    def test_zeta_5_is_minus_one(self):
        z = CycNum.zeta(10, 5)
        assert z == -CycNum.one(10)

    def test_fifth_roots_sum_to_zero(self):
        total = CycNum.zero(10)
        for k in range(0, 10, 2):
            total = total + CycNum.zeta(10, k)
        assert total.is_zero()
        assert abs(total.embed()) < 1e-12

    def test_order_one_is_plain_integers(self):
        a = CycNum.integer(1, 3)
        b = CycNum.integer(1, -4)
        assert (a * b) == CycNum.integer(1, -12)


class TestRingAxioms:
    def test_randomized(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b, c = (rand_cyc(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a

    def test_embedding_is_ring_hom(self):
        rng = random.Random(17)
        for _ in range(50):
            a, b = rand_cyc(rng), rand_cyc(rng)
            assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-10
            assert abs((a * b).embed() - (a.embed() * b.embed())) < 1e-10

    def test_conjugate(self):
        rng = random.Random(23)
        for _ in range(20):
            a = rand_cyc(rng)
            assert abs(a.conjugate().embed() - a.embed().conjugate()) < 1e-10


class TestGoldenRatio:
    def golden(self):
        return CycNum.zeta(10, 1) + CycNum.zeta(10, 9)

    def test_embeds_to_golden_ratio(self):
        assert abs(self.golden().embed() - GOLDEN) < 1e-12

    def test_is_a_unit(self):
        phi = self.golden()
        inverse = phi - CycNum.one(10)
        assert phi * inverse == CycNum.one(10)


class TestRigidMotion:
    def test_pure_translation(self):
        v = CycNum.zeta(10, 3)
        m = RigidMotion.translation(10, v.coeffs)
        p = CycNum.zeta(10, 1)
        assert m.apply(p) == p + v

    def test_half_turn(self):
        m = RigidMotion.rotation(10, 5)
        p = rand_cyc(random.Random(3))
        assert m.apply(p) == -p

    def test_rotation_has_order_n(self):
        m = RigidMotion.rotation(10, 1)
        p = rand_cyc(random.Random(5))
        q = p
        for _ in range(10):
            q = m.apply(q)
        assert q == p

    def test_compose_identity(self):
        rng = random.Random(7)
        b = RigidMotion(10, rng.randrange(10), rand_cyc(rng).coeffs)
        assert RigidMotion.identity(10).compose(b) == b

    def test_inverse_rotations_cancel(self):
        for k in range(10):
            assert (
                RigidMotion.rotation(10, k)
                .compose(RigidMotion.rotation(10, 10 - k))
                .is_identity()
            )

    def test_compose_apply_property(self):
        rng = random.Random(41)
        for _ in range(100):
            a = RigidMotion(10, rng.randrange(10), rand_cyc(rng).coeffs)
            b = RigidMotion(10, rng.randrange(10), rand_cyc(rng).coeffs)
            p = rand_cyc(rng)
            assert a.compose(b).apply(p) == a.apply(b.apply(p))
            assert a.compose(a.invert()).is_identity()
            assert a.invert().apply(a.apply(p)) == p

    def test_mixed_order_rejected(self):
        with pytest.raises(MixedOrder):
            RigidMotion.identity(10).apply(CycNum.one(4))
        with pytest.raises(MixedOrder):
            RigidMotion.identity(10).compose(RigidMotion.identity(4))
