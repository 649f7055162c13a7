"""Exact arithmetic in Z[zeta_N] and rigid motions."""

import random

import pytest

from conftest import apply_motion, is_identity_motion
from tilecohom.cyclotomic import (
    MixedOrder,
    RigidMotion,
    add_coeffs,
    conjugate_coeffs,
    cyclotomic_polynomial,
    embed_coeffs,
    euler_phi,
    mul_coeffs,
    neg_coeffs,
    one_coeffs,
    reduce_poly,
    sub_coeffs,
    zero_coeffs,
)

GOLDEN = 1.618033988749895


def rand_cyc(rng, n=10):
    return tuple(rng.randint(-5, 5) for _ in range(euler_phi(n)))


def zeta(n, power=1):
    return reduce_poly(n, [0] * (power % n) + [1])


class TestReduction:
    def test_phi_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)

    def test_zeta_to_the_n_is_one(self):
        assert reduce_poly(10, [0] * 10 + [1]) == one_coeffs(10)

    def test_zeta_5_is_minus_one(self):
        assert zeta(10, 5) == neg_coeffs(one_coeffs(10))

    def test_fifth_roots_sum_to_zero(self):
        total = zero_coeffs(10)
        for k in range(0, 10, 2):
            total = add_coeffs(total, zeta(10, k))
        assert not any(total)
        assert abs(embed_coeffs(10, total)) < 1e-12

    def test_order_one_is_plain_integers(self):
        assert mul_coeffs(1, reduce_poly(1, (3,)), reduce_poly(1, (-4,))) == (-12,)


class TestRingAxioms:
    def test_randomized(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b, c = (rand_cyc(rng) for _ in range(3))
            assert add_coeffs(add_coeffs(a, b), c) == add_coeffs(a, add_coeffs(b, c))
            assert mul_coeffs(10, a, add_coeffs(b, c)) == add_coeffs(
                mul_coeffs(10, a, b), mul_coeffs(10, a, c))
            assert mul_coeffs(10, mul_coeffs(10, a, b), c) == mul_coeffs(
                10, a, mul_coeffs(10, b, c))
            assert mul_coeffs(10, a, b) == mul_coeffs(10, b, a)

    def test_embedding_is_ring_hom(self):
        rng = random.Random(17)
        for _ in range(50):
            a, b = rand_cyc(rng), rand_cyc(rng)
            za, zb = embed_coeffs(10, a), embed_coeffs(10, b)
            assert abs(embed_coeffs(10, add_coeffs(a, b)) - (za + zb)) < 1e-10
            assert abs(embed_coeffs(10, mul_coeffs(10, a, b)) - za * zb) < 1e-10

    def test_conjugate(self):
        rng = random.Random(23)
        for _ in range(20):
            a = rand_cyc(rng)
            assert abs(embed_coeffs(10, conjugate_coeffs(10, a))
                       - embed_coeffs(10, a).conjugate()) < 1e-10

    def test_conjugation_is_an_involutive_ring_automorphism(self):
        rng = random.Random(29)
        for n in (1, 2, 4, 5, 8, 10, 12):
            for _ in range(20):
                a, b = rand_cyc(rng, n), rand_cyc(rng, n)
                assert conjugate_coeffs(n, conjugate_coeffs(n, a)) == a
                assert conjugate_coeffs(n, mul_coeffs(n, a, b)) == mul_coeffs(
                    n, conjugate_coeffs(n, a), conjugate_coeffs(n, b))
                assert conjugate_coeffs(n, add_coeffs(a, b)) == add_coeffs(
                    conjugate_coeffs(n, a), conjugate_coeffs(n, b))
            assert conjugate_coeffs(n, zeta(n)) == zeta(n, -1)


class TestGoldenRatio:
    def golden(self):
        return add_coeffs(zeta(10, 1), zeta(10, 9))

    def test_embeds_to_golden_ratio(self):
        assert abs(embed_coeffs(10, self.golden()) - GOLDEN) < 1e-12

    def test_is_a_unit(self):
        phi = self.golden()
        inverse = sub_coeffs(phi, one_coeffs(10))
        assert mul_coeffs(10, phi, inverse) == one_coeffs(10)


class TestRigidMotion:
    def test_pure_translation(self):
        v = zeta(10, 3)
        m = RigidMotion.translation(10, v)
        p = zeta(10, 1)
        assert apply_motion(m, p) == add_coeffs(p, v)

    def test_half_turn(self):
        m = RigidMotion.rotation(10, 5)
        p = rand_cyc(random.Random(3))
        assert apply_motion(m, p) == neg_coeffs(p)

    def test_rotation_has_order_n(self):
        m = RigidMotion.rotation(10, 1)
        p = rand_cyc(random.Random(5))
        q = p
        for _ in range(10):
            q = apply_motion(m, q)
        assert q == p

    def test_compose_identity(self):
        rng = random.Random(7)
        b = RigidMotion(10, rng.randrange(10), rand_cyc(rng))
        assert RigidMotion.identity(10).compose(b) == b

    def test_inverse_rotations_cancel(self):
        for k in range(10):
            assert is_identity_motion(
                RigidMotion.rotation(10, k).compose(RigidMotion.rotation(10, 10 - k))
            )

    def test_compose_apply_property(self):
        rng = random.Random(41)
        for _ in range(100):
            a = RigidMotion(10, rng.randrange(10), rand_cyc(rng))
            b = RigidMotion(10, rng.randrange(10), rand_cyc(rng))
            p = rand_cyc(rng)
            assert apply_motion(a.compose(b), p) == apply_motion(a, apply_motion(b, p))
            assert is_identity_motion(a.compose(a.invert()))
            assert apply_motion(a.invert(), apply_motion(a, p)) == p

    @pytest.mark.parametrize("n", [4, 5, 8, 10])
    def test_translation_is_reduced_whatever_its_length(self, n):
        # reduced phi(N)-tuples skip reduce_poly; every other input goes through it
        rng = random.Random(n)
        phi = euler_phi(n)
        for length in (1, phi - 1, phi, phi + 1, 2 * n):
            for _ in range(20):
                t = tuple(rng.randint(-9, 9) for _ in range(length))
                k = rng.randrange(n)
                assert RigidMotion(n, k, t).trans == reduce_poly(n, t)
                assert RigidMotion(n, k, list(t)).trans == reduce_poly(n, t)
                assert type(RigidMotion(n, k, list(t)).trans) is tuple

    def test_mixed_order_rejected(self):
        # a coefficient vector does not carry its order: a point of Z[i]
        # meets a motion over Z[zeta_10] as a translation
        with pytest.raises(MixedOrder):
            RigidMotion.identity(10).compose(RigidMotion.translation(4, one_coeffs(4)))
        with pytest.raises(MixedOrder):
            RigidMotion.identity(10).compose(RigidMotion.identity(4))
