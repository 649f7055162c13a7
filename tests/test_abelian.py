"""Exact integer linear algebra: Smith form, groups, limits."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import is_zero
from tilecohom import abelian as ab


def random_matrix(rng, max_dim=8, max_entry=9):
    m = rng.randrange(0, max_dim + 1)
    n = rng.randrange(0, max_dim + 1)
    return ab.intmat([[rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(m)])


def check_snf(a):
    dec = ab.smith_normal_form(a)
    assert ab.mat_eq(dec.u.dot(a).dot(dec.v), dec.s)
    assert abs(ab.det(dec.u)) == 1
    assert abs(ab.det(dec.v)) == 1
    assert ab.mat_eq(dec.u.dot(dec.u_inv), ab.eye(a.shape[0]))
    assert ab.mat_eq(dec.v.dot(dec.v_inv), ab.eye(a.shape[1]))
    divs = dec.divisors
    assert all(d >= 0 for d in divs)
    for x, y in zip(divs, divs[1:]):
        assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
    # off-diagonal entries vanish
    m, n = dec.s.shape
    for i in range(m):
        for j in range(n):
            if i != j:
                assert dec.s[i, j] == 0
    return dec


def unit_heavy_matrix(rng, max_dim=8):
    """Entries mostly in {-1, 0, 1}; a random share of them is in [-9, 9],
    so that non-unit pivots and the divisibility fix-up also occur."""
    m = rng.randrange(0, max_dim + 1)
    n = rng.randrange(0, max_dim + 1)
    large = rng.random()
    return ab.intmat([
        [rng.randint(-9, 9) if rng.random() < large else rng.choice((-1, 0, 0, 1))
         for _ in range(n)]
        for _ in range(m)
    ])


def snf_digest(mats) -> str:
    """One sha256 over U, S, V, U^-1 and V^-1 of every matrix's Smith form."""
    h = hashlib.sha256()
    for a in mats:
        dec = ab.smith_normal_form(a)
        for part in (dec.u, dec.s, dec.v, dec.u_inv, dec.v_inv):
            h.update(repr((part.shape, part.tolist())).encode())
    return h.hexdigest()


# Smith decompositions as computed before the unit-pivot shortcuts; the
# shortcuts must not change a single entry of U, S, V or their inverses
SNF_RANDOM_DIGEST = "9f4b0aab06897a376453afe90fe41de03acced575dcb45482d2806f741908763"
SNF_PENROSE_DIGEST = "b43bdd5dad1f0928def30e7388d8bafa7d5b30a6025b3f04a3892747ed5db7eb"


def test_snf_decomposition_pinned(penrose_run):
    rng = random.Random(20261018)
    assert snf_digest(unit_heavy_matrix(rng) for _ in range(200)) == SNF_RANDOM_DIGEST
    # the two cochain differentials of the Penrose approximant complex
    cochain_differentials = [d.T for d in penrose_run.complex.boundary]
    assert snf_digest(cochain_differentials) == SNF_PENROSE_DIGEST


class TestSmithNormalForm:
    def test_identity(self):
        dec = check_snf(ab.eye(3))
        assert dec.divisors == [1, 1, 1]

    def test_zero_1x1(self):
        dec = check_snf(ab.intmat([[0]]))
        assert dec.divisors == [0]

    def test_divisor_chain_2x2(self):
        # gcd of entries is 2, |det| = 8, so the chain is (2, 4)
        dec = check_snf(ab.intmat([[2, 4], [6, 8]]))
        assert dec.divisors == [2, 4]

    def test_empty_shapes(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            check_snf(ab.zeros(*shape))

    def test_randomized(self):
        rng = random.Random(20260401)
        for _ in range(300):
            check_snf(random_matrix(rng))

    def test_kernel_is_saturated(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_matrix(rng, max_dim=6, max_entry=5)
            k = ab.kernel_basis(a)
            if k.shape[1]:
                assert is_zero(a.dot(k))
            # saturation: Smith form of the kernel basis has unit divisors
            assert all(d == 1 for d in ab.smith_normal_form(k).nonzero_divisors())


def with_dependent_row_and_column(rng, a):
    """A with one more column and one more row, each an integer combination
    of the others; the result has rank below both of its dimensions."""
    c = np.array([rng.randint(-2, 2) for _ in range(a.shape[1])], dtype=object)
    a = np.concatenate([a, a.dot(c)[:, None]], axis=1)
    r = np.array([rng.randint(-2, 2) for _ in range(a.shape[0])], dtype=object)
    return np.concatenate([a, r.dot(a)[None, :]], axis=0)


def dense_solve(dec: ab.SmithDecomposition, b):
    """The dense formula x = V (U b / d) with the divisors d of S: the
    reference that LinearSolver.solve must reproduce exactly, None included."""
    m, n = dec.s.shape
    y = dec.u.dot(np.asarray(b, dtype=object).reshape(m))
    x = ab.zeros(n, 1)[:, 0]
    divisors = dec.divisors
    for i in range(m):
        d = divisors[i] if i < len(divisors) else 0
        if d == 0:
            if y[i] != 0:
                return None
        else:
            if y[i] % d != 0:
                return None
            x[i] = y[i] // d
    return dec.v.dot(x)


class TestSolver:
    def test_solve_roundtrip(self):
        rng = random.Random(13)
        for _ in range(100):
            a = random_matrix(rng, max_dim=5, max_entry=4)
            x = np.array([rng.randint(-3, 3) for _ in range(a.shape[1])], dtype=object)
            b = a.dot(x)
            sol = ab.LinearSolver(a).solve(b)
            assert sol is not None
            assert all(v == 0 for v in (a.dot(sol) - b).flat)

    def test_unsolvable(self):
        a = ab.intmat([[2]])
        assert ab.LinearSolver(a).solve([1]) is None

    def test_solve_matches_dense_formula(self):
        rng = random.Random(20261018)
        seen = Counter()
        for trial in range(300):
            a = unit_heavy_matrix(rng)
            if trial % 2 and min(a.shape):
                a = with_dependent_row_and_column(rng, a)
            m, n = a.shape
            solver = ab.LinearSolver(a)
            x = np.array([rng.randint(-3, 3) for _ in range(n)], dtype=object)
            image = a.dot(x) if n else np.array([0] * m, dtype=object)
            noise = np.array([rng.choice((-1, 0, 0, 2)) for _ in range(m)], dtype=object)
            rhs = [image, noise, image + noise, 2 * image + noise]
            for b in rhs:
                want = dense_solve(solver.dec, b)
                got = solver.solve(b)
                if want is None:
                    assert got is None
                else:
                    assert got.shape == want.shape
                    assert all(type(v) is int and v == w for v, w in zip(got, want))
                seen["solvable" if want is not None else "unsolvable",
                     "square" if m == n else "non-square"] += 1
                seen["rank-deficient" if solver.dec.rank < min(m, n) else "full rank"] += 1
                seen["torsion" if any(d > 1 for d in solver.dec.divisors) else "unit"] += 1
            b = np.stack(rhs, axis=1)
            cols = [dense_solve(solver.dec, b[:, j]) for j in range(len(rhs))]
            got = solver.solve_matrix(b)
            if any(c is None for c in cols):
                assert got is None
            else:
                assert ab.mat_eq(got, np.stack(cols, axis=1))
        for outcome in ("solvable", "unsolvable"):
            assert seen[outcome, "square"] > 20 and seen[outcome, "non-square"] > 20
        assert seen["rank-deficient"] > 300 and seen["torsion"] > 150


class TestFgAbGroup:
    def test_canonical_str(self):
        assert str(ab.FgAbGroup(2, (5,))) == "Z^2 + Z/5"
        assert str(ab.FgAbGroup(0)) == "0"
        assert str(ab.FgAbGroup(1)) == "Z"

    def test_divisor_chain_enforced(self):
        with pytest.raises(ValueError):
            ab.FgAbGroup(0, (4, 2))
        with pytest.raises(ValueError):
            ab.FgAbGroup(0, (1,))

    def test_direct_sum_rechains(self):
        s = ab.FgAbGroup(1, (2,)).direct_sum(ab.FgAbGroup(0, (3,)))
        assert s == ab.FgAbGroup(1, (6,))

    def test_cokernel(self):
        assert cokernel(ab.intmat([[5]])) == ab.FgAbGroup(0, (5,))
        assert cokernel(ab.zeros(2, 0)) == ab.FgAbGroup(2)


def cokernel(a) -> ab.FgAbGroup:
    """Z^m / column span of A, in canonical form."""
    return ab.group_of_presentation(ab.Presentation(a.shape[0], a))


def homology_oracle(d_in, d_out):
    """Rank and torsion straight from the two Smith decompositions.

    Rank by rank-nullity; torsion from the Smith form of d_in rewritten in
    kernel coordinates obtained from the Smith form of d_out.
    """
    d_in, d_out = ab.as_intmat(d_in), ab.as_intmat(d_out)
    n = d_out.shape[1]
    dec_out = ab.smith_normal_form(d_out)
    r_out = dec_out.rank
    kernel = dec_out.v[:, r_out:n]
    # coordinates of d_in columns w.r.t. kernel columns: rows r_out.. of v_inv @ d_in
    coords = dec_out.v_inv.dot(d_in)[r_out:n, :]
    dec_in = ab.smith_normal_form(coords)
    torsion = tuple(d for d in dec_in.nonzero_divisors() if d > 1)
    free = (n - r_out) - dec_in.rank
    del kernel
    return free, torsion


class TestHomology:
    def test_circle(self):
        # one vertex, one edge: boundary of the edge is zero
        d_out = ab.zeros(0, 1)
        d_in = ab.zeros(1, 0)
        assert ab.homology_at(d_in, d_out) == ab.FgAbGroup(1)

    def test_mod5(self):
        assert ab.homology_at(ab.intmat([[5]]), ab.zeros(1, 1)) == ab.FgAbGroup(0, (5,))

    def test_two_empty_maps(self):
        assert ab.homology_at(ab.zeros(4, 0), ab.zeros(0, 4)) == ab.FgAbGroup(4)

    def test_composition_checked(self):
        with pytest.raises(ab.CompositionNotZero):
            ab.homology_at(ab.intmat([[1], [0]]), ab.intmat([[1, 0]]))

    def test_against_oracle_randomized(self):
        rng = random.Random(99)
        for _ in range(150):
            n, p = 4, 4
            d_in = ab.intmat([[rng.randint(-3, 3) for _ in range(p)] for _ in range(n)])
            # rows of d_out live in the left kernel of d_in
            left_kernel = ab.kernel_basis(d_in.T).T
            rows = rng.randrange(0, 5)
            mix = ab.zeros(rows, left_kernel.shape[0])
            for i in range(rows):
                for j in range(left_kernel.shape[0]):
                    mix[i, j] = rng.randint(-2, 2)
            d_out = mix.dot(left_kernel)
            assert is_zero(d_out.dot(d_in))
            h = ab.homology_at(d_in, d_out)
            free, torsion = homology_oracle(d_in, d_out)
            assert h.free_rank == free
            assert h.torsion == torsion


ORDER_TEN_DEGREE1_MATRIX = [
    [1, 0, 0, 0, 0],
    [0, 0, 0, 0, -1],
    [0, 1, 0, 0, 1],
    [0, 0, 1, 0, -1],
    [0, 0, 0, 1, 1],
]


class TestInvariantsCoinvariants:
    def test_identity(self):
        f = ab.GroupHom.identity(ab.FgAbGroup(3))
        assert ab.invariants_of(f) == ab.FgAbGroup(3)
        assert ab.coinvariants_of(f) == ab.FgAbGroup(3)

    def test_negation(self):
        f = ab.GroupHom(ab.FgAbGroup(1), ab.FgAbGroup(1), ab.intmat([[-1]]))
        assert ab.invariants_of(f) == ab.FgAbGroup(0)
        assert ab.coinvariants_of(f) == ab.FgAbGroup(0, (2,))

    def test_rotation_matrix_on_z5(self):
        g = ab.FgAbGroup(5)
        f = ab.GroupHom(g, g, ab.intmat(ORDER_TEN_DEGREE1_MATRIX))
        assert ab.invariants_of(f) == ab.FgAbGroup(1)
        assert ab.coinvariants_of(f) == ab.FgAbGroup(1)

    def test_requires_endo(self):
        f = ab.GroupHom(ab.FgAbGroup(1), ab.FgAbGroup(2), ab.intmat([[1], [0]]))
        with pytest.raises(ab.NotEndomorphism):
            ab.invariants_of(f)

    def test_invariants_free_on_free_groups(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randrange(1, 5)
            g = ab.FgAbGroup(n)
            mat = ab.intmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            assert ab.invariants_of(ab.GroupHom(g, g, mat)).is_free()

    def test_torsion_respect_enforced(self):
        g = ab.FgAbGroup(0, (2,))
        h = ab.FgAbGroup(1)
        with pytest.raises(ValueError):
            ab.GroupHom(g, h, ab.intmat([[1]]))


class TestDirectLimit:
    def test_identity_system(self):
        g = ab.FgAbGroup(3)
        sys = ab.DirectSystem(g, ab.GroupHom.identity(g))
        res = ab.direct_limit_full(sys)
        assert res.group == g
        assert res.stage == 0

    def test_doubling_does_not_stabilize(self):
        g = ab.FgAbGroup(1)
        sys = ab.DirectSystem(g, ab.GroupHom(g, g, ab.intmat([[2]])))
        with pytest.raises(ab.NotStabilizing):
            ab.direct_limit(sys)

    def test_unimodular_fibonacci_matrix(self):
        g = ab.FgAbGroup(2)
        f = ab.GroupHom(g, g, ab.intmat([[1, 1], [1, 0]]))
        assert ab.direct_limit(ab.DirectSystem(g, f)) == ab.FgAbGroup(2)

    def test_projection_stabilizes_at_one(self):
        g = ab.FgAbGroup(2)
        f = ab.GroupHom(g, g, ab.intmat([[1, 0], [0, 0]]))
        res = ab.direct_limit_full(ab.DirectSystem(g, f))
        assert res.group == ab.FgAbGroup(1)
        assert res.stage == 1

    def test_restrict_commuting_map(self):
        # limit of (Z^2, projection); a commuting diagonal map restricts to it
        g = ab.FgAbGroup(2)
        f = ab.GroupHom(g, g, ab.intmat([[1, 0], [0, 0]]))
        res = ab.direct_limit_full(ab.DirectSystem(g, f))
        n = ab.GroupHom(g, g, ab.intmat([[-1, 0], [0, 7]]))
        restricted = res.restrict(n)
        assert restricted.source == ab.FgAbGroup(1)
        assert abs(restricted.matrix[0, 0]) == 1


class TestMappingTorus:
    def test_identity_on_point_gives_circle(self):
        g = ab.FgAbGroup(1)
        degs = ab.mapping_torus_cohomology([ab.GroupHom.identity(g)])
        assert [d.group for d in degs] == [ab.FgAbGroup(1), ab.FgAbGroup(1)]
        assert not any(d.extension_ambiguous for d in degs)

    def test_negation_toy(self):
        g = ab.FgAbGroup(1)
        f = ab.GroupHom(g, g, ab.intmat([[-1]]))
        degs = ab.mapping_torus_cohomology([f])
        assert degs[0].group == ab.FgAbGroup(0)
        assert degs[1].group == ab.FgAbGroup(0, (2,))
        assert not degs[1].extension_ambiguous


class TestSubquotientTransport:
    def test_induced_endomorphism(self):
        # chain complex 0 -> Z^2 -> 0 with a swap map
        sq = ab.Subquotient.of_pair(ab.zeros(2, 0), ab.zeros(0, 2))
        f = sq.induced_endomorphism(ab.intmat([[0, 1], [1, 0]]))
        assert f.source == ab.FgAbGroup(2)
        assert ab.characteristic_polynomial(f.matrix) == [1, 0, -1]

    def test_induced_endomorphism_matches_dense_route(self, penrose_run):
        # the self-map and rotation cochain maps of every Penrose degree,
        # carried to the collapsed core, then through the dense product
        # f . kernel
        cx = penrose_run.complex
        core = penrose_run.hull[0].collapse
        carried = [core.carry([ab.sparse_columns(m.T) for m in chain_map])
                   for chain_map in (cx.self_map, cx.rotation)]
        for h in penrose_run.hull:
            sq = h.subquotient
            for chain_map in carried:
                f = ab.dense(chain_map[h.degree], core.sizes[h.degree])
                mapped = sq._coord_solver.solve_matrix(f.dot(sq.kernel))
                want = sq._canon.project.dot(mapped.dot(sq._canon.lift))
                for i, d in enumerate(sq.group.gen_orders()):
                    if d:
                        want[i] = [x % d for x in want[i]]
                assert ab.mat_eq(sq.induced_endomorphism(f).matrix, want)


def test_characteristic_polynomial():
    assert ab.characteristic_polynomial(ab.eye(2)) == [1, -2, 1]
    m = ab.intmat(ORDER_TEN_DEGREE1_MATRIX)
    # (x - 1)(x^4 - x^3 + x^2 - x + 1)
    assert ab.characteristic_polynomial(m) == [1, -2, 2, -2, 2, -1]


# ---------------------------------------------------------------------------
# collapse along unit incidences
# ---------------------------------------------------------------------------

def _sparse(mats):
    return [ab.sparse_columns(m) for m in mats]


def _pair(d, sizes, k):
    """The full differentials into and out of degree k, as Subquotient takes them."""
    d_in = d[k - 1] if k else ab.zeros(sizes[0], 0)
    d_out = d[k] if k < len(d) else ab.zeros(0, sizes[k])
    return d_in, d_out


def _identity(n):
    return [{i: 1} for i in range(n)]


def _check_collapse_maps(core, d):
    """π·ι = id, ∂' = π·∂·ι, ι and π are chain maps, and no unit is left."""
    for k, n in enumerate(core.sizes):
        assert ab.sparse_product(core.projection[k], core.inclusion[k]) == _identity(n)
    for k, dk in enumerate(_sparse(d)):
        carried = ab.sparse_product(core.projection[k + 1],
                                    ab.sparse_product(dk, core.inclusion[k]))
        assert carried == core.differential[k]
        assert ab.sparse_product(dk, core.inclusion[k]) == ab.sparse_product(
            core.inclusion[k + 1], core.differential[k])
        assert ab.sparse_product(core.differential[k], core.projection[k]) == \
            ab.sparse_product(core.projection[k + 1], dk)
        assert all(abs(x) != 1 for col in core.differential[k] for x in col.values())


def _unimodular(draw, n):
    """A random unimodular n x n matrix and its inverse, from elementary row operations."""
    p, p_inv = ab.eye(n), ab.eye(n)
    ops = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
                                  st.integers(-2, 2)), max_size=2 * n))
    for i, j, q in ops:
        if i == j:
            p[i], p_inv[:, i] = -p[i], -p_inv[:, i]
        else:  # row_i += q row_j, so the inverse has col_j -= q col_i
            p[i] = p[i] + q * p[j]
            p_inv[:, j] = p_inv[:, j] - q * p_inv[:, i]
    return p, p_inv


@st.composite
def complexes_with_self_map(draw):
    """Differentials d[0], d[1] on three degrees and a chain self-map f.

    Built as a sum of free cells and pieces b -> m a (m = ±1 contractible,
    |m| >= 2 torsion), with f an integer matrix on the free cells, a scalar
    on each piece and a cycle added to each b, plus a null-homotopic term
    d h + h d; then every degree is changed by a random unimodular basis.
    """
    free = [draw(st.integers(0, 2)) for _ in range(3)]
    pieces = draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([1, -1, 2, -2, 3]),
                                     st.integers(-2, 2)), max_size=4))
    cells = [[("h", i) for i in range(n)] for n in free]
    for p, (k, _, _) in enumerate(pieces):
        cells[k].append(("b", p))
        cells[k + 1].append(("a", p))
    sizes = [len(c) for c in cells]
    at = [{c: i for i, c in enumerate(cs)} for cs in cells]
    d = [ab.zeros(sizes[k + 1], sizes[k]) for k in range(2)]
    f = [ab.zeros(n, n) for n in sizes]
    for k in range(3):
        for i in range(free[k]):
            for j in range(free[k]):
                f[k][i, j] = draw(st.integers(-2, 2))
    for p, (k, m, c) in enumerate(pieces):
        b, a = at[k]["b", p], at[k + 1]["a", p]
        d[k][a, b] = m
        f[k][b, b] = f[k + 1][a, a] = c
        for cell, i in at[k].items():  # a cycle added to the image of b
            if cell[0] != "b":
                f[k][i, b] += draw(st.integers(-1, 1))
    h = [ab.intmat([[draw(st.integers(-1, 1)) for _ in range(sizes[k + 1])]
                    for _ in range(sizes[k])]) if sizes[k] else ab.zeros(0, sizes[k + 1])
         for k in range(2)]
    for k in range(3):
        if k:
            f[k] = f[k] + d[k - 1].dot(h[k - 1])
        if k < 2:
            f[k] = f[k] + h[k].dot(d[k])
    basis = [_unimodular(draw, n) for n in sizes]
    d = [basis[k + 1][0].dot(d[k]).dot(basis[k][1]) for k in range(2)]
    f = [p.dot(fk).dot(p_inv) for fk, (p, p_inv) in zip(f, basis)]
    return sizes, d, f


class TestCollapse:
    @seed(20261018)
    @settings(max_examples=80, deadline=None, database=None)
    @given(complexes_with_self_map())
    def test_core_keeps_homology_and_induced_action(self, data):
        sizes, d, f = data
        core = ab.collapse(_sparse(d), sizes)
        _check_collapse_maps(core, d)
        carried = core.carry(_sparse(f))
        for k in range(3):
            full = ab.Subquotient.of_pair(*_pair(d, sizes, k))
            sq = ab.Subquotient.of_pair(*core.pair(k))
            assert sq.group == full.group
            endo = sq.induced_endomorphism(ab.dense(carried[k], core.sizes[k]))
            full_endo = full.induced_endomorphism(f[k])
            assert ab.invariants_of(endo) == ab.invariants_of(full_endo)
            assert ab.coinvariants_of(endo) == ab.coinvariants_of(full_endo)

    def test_projective_plane_keeps_its_torsion(self):
        # RP^2 as a square with boundary word abab: vertices P, Q, edges
        # a: P -> Q and b: Q -> P, one face with boundary 2a + 2b.  Cochain
        # differentials: δP = -a + b, δQ = a - b, δa = δb = 2f.
        d = [ab.intmat([[-1, 1], [1, -1]]), ab.intmat([[2, 2]])]
        core = ab.collapse(_sparse(d), [2, 2, 1])
        assert core.sizes == [1, 1, 1]
        assert core.differential == [[{}], [{0: 2}]]
        _check_collapse_maps(core, d)
        groups = [ab.Subquotient.of_pair(*core.pair(k)).group for k in range(3)]
        assert groups == [ab.FgAbGroup(1), ab.FgAbGroup(0), ab.FgAbGroup(0, (2,))]
        assert groups == [ab.homology_at(*_pair(d, [2, 2, 1], k)) for k in range(3)]

    def test_no_unit_incidence_is_its_own_core(self):
        # the one-cell-per-degree RP^2: δ^0 = 0, δ^1 = 2
        d = [[{}], [{0: 2}]]
        core = ab.collapse(d, [1, 1, 1])
        assert core.sizes == [1, 1, 1]
        assert core.differential == d
        assert core.inclusion == core.projection == [_identity(1)] * 3
        assert core.carry([[{0: 1}], [{0: 3}], [{0: 3}]]) == [[{0: 1}], [{0: 3}], [{0: 3}]]
        with pytest.raises(ab.NotChainMap):
            core.carry([[{0: 1}], [{0: 3}], [{0: 1}]])
