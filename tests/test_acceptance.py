"""Acceptance gate: every headline value at its stated tolerance.

Each criterion prints one line; run with `pytest tests/test_acceptance.py -v -s`
to see them.  All comparisons are exact; the only tolerances are the
wall-clock budgets on the two heavy computations.
"""

import random
import time
from fractions import Fraction

from tilecohom import abelian as ab
from tilecohom.abelian import FgAbGroup
from tilecohom.winding import (
    atlas_boundary,
    dagger_orders,
    omega_chain,
    rational_coboundary_check,
)


def report(criterion: int, text: str):
    print(f"[PASS] criterion {criterion:2d}: {text}")


def test_criterion_01_atlas_counts(penrose_atlas):
    assert list(penrose_atlas.counts()) == [2, 7, 7]
    assert penrose_atlas.closure_level <= 8
    assert penrose_atlas.elapsed_seconds < 10.0
    report(1, f"atlas counts (2, 7, 7) at level {penrose_atlas.closure_level} "
              f"in {penrose_atlas.elapsed_seconds:.1f}s")


def test_criterion_02_rho_values(penrose_rho_omega):
    rho, _ = penrose_rho_omega
    expected = sorted(Fraction(k, 10) for k in (-2, 2, 1, -1, 0, 0, -4))
    assert list(rho.multiset()) == expected
    report(2, "edge rotation multiset {-2,+2,+1,-1,0,0,-4}/10 turns")


def test_criterion_03_omega_values(penrose_atlas, penrose_rho_omega):
    rho, omega = penrose_rho_omega
    assert omega.multiset() == (-1, 0, 0, 0, 0, 1, 1)
    orders = dagger_orders(penrose_atlas)
    assert [omega[i] for i, o in enumerate(orders) if o == 5] == [1, 1]
    omega_chain(penrose_atlas, rho, audit=True)  # integrality + audit
    assert rational_coboundary_check(atlas_boundary(penrose_atlas, 1), rho, omega)["passed"]
    report(3, "winding multiset {+1,+1,-1,0,0,0,0}, +1 on both 5-fold classes, "
              "integral, boundary identity exact")


def test_criterion_04_translational_hull(penrose_run, penrose_run_seconds):
    groups = [h.group for h in penrose_run.hull]
    assert groups == [FgAbGroup(1), FgAbGroup(5), FgAbGroup(8)]
    stages = [h.stage for h in penrose_run.hull]
    assert all(s <= 20 for s in stages)
    assert penrose_run_seconds < 5.0
    report(4, f"hull cohomology Z, Z^5, Z^8; stages {stages}; "
              f"whole run {penrose_run_seconds:.1f}s")


def test_criterion_05_rotation_action(penrose_run):
    rot = penrose_run.rotation
    assert [ab.invariants_of(r) for r in rot] == [
        FgAbGroup(1), FgAbGroup(1), FgAbGroup(2),
    ]
    assert [ab.coinvariants_of(r) for r in rot] == [
        FgAbGroup(1), FgAbGroup(1), FgAbGroup(2),
    ]
    delta = rot[1].matrix - ab.eye(5)
    divisors = sorted(ab.smith_normal_form(delta).divisors)
    assert divisors == [0, 1, 1, 1, 1]
    report(5, "invariants/coinvariants Z, Z, Z^2; degree-1 action minus "
              "identity has one zero divisor, all others units")


def test_criterion_06_final_answer_both_routes(penrose_run):
    spectral = penrose_run.report["routes"]["spectral"]
    torus = penrose_run.report["routes"]["mapping_torus"]
    final = [[1, []], [2, []], [3, []], [2, []]]
    assert [[g["rank"], g["torsion"]] for g in spectral["groups"]] == final
    assert [[g["rank"], g["torsion"]] for g in torus["groups"]] == final
    assert not any(spectral["flags"]) and not any(torus["flags"])
    agreement = [v for v in penrose_run.report["verdicts"] if v["name"] == "route_agreement"]
    assert agreement and agreement[0]["passed"]
    report(6, "both routes give Z, Z^2, Z^3, Z^2 with no extension flags")


def test_criterion_07_spectral_internals(penrose_run):
    spectral = penrose_run.report["routes"]["spectral"]
    assert spectral["E2"]["q1"] == [
        {"rank": 2, "torsion": [5]}, {"rank": 1, "torsion": []}, {"rank": 1, "torsion": []},
    ]
    assert spectral["E2"]["q0"] == [
        {"rank": 2, "torsion": []}, {"rank": 1, "torsion": []}, {"rank": 1, "torsion": []},
    ]
    for row in ("q0", "q1"):
        assert all(g["torsion"] == [] for g in spectral["Einf"][row])
    assert spectral["omega_order"] == 5
    report(7, "second page rows (Z^2+Z/5, Z, Z | Z^2, Z, Z); stable page free, "
              "the 5-torsion killed by the winding class")


def test_criterion_08_quotient_route(penrose_run):
    quotient = [h.group for h in penrose_run.quotient]
    assert quotient == [FgAbGroup(1), FgAbGroup(1), FgAbGroup(2)]
    for r, q in zip(penrose_run.rotation, quotient):
        assert ab.invariants_of(r).free_rank == q.free_rank
    report(8, "quotient hull Z, Z, Z^2 with invariant ranks matching")


def test_criterion_09_property_suites(penrose_run, square_run):
    t0 = time.time()
    rng = random.Random(20260809)
    checked = 0
    for _ in range(1000):
        m = rng.randrange(0, 9)
        n = rng.randrange(0, 9)
        a = ab.intmat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        dec = ab.smith_normal_form(a)
        assert ab.mat_eq(dec.u.dot(a).dot(dec.v), dec.s)
        assert abs(ab.det(dec.u)) == 1 and abs(ab.det(dec.v)) == 1
        divs = dec.divisors
        for x, y in zip(divs, divs[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
        checked += 1
    assert checked >= 1000

    for run in (penrose_run, square_run):
        run.complex.validate()  # boundary squared zero and chain maps

    for _ in range(100):
        n, p = 4, 4
        d_in = ab.intmat([[rng.randint(-3, 3) for _ in range(p)] for _ in range(n)])
        left_kernel = ab.kernel_basis(d_in.T).T
        rows = rng.randrange(0, 4)
        mix = ab.zeros(rows, left_kernel.shape[0])
        for i in range(rows):
            for j in range(left_kernel.shape[0]):
                mix[i, j] = rng.randint(-2, 2)
        d_out = mix.dot(left_kernel)
        h = ab.homology_at(d_in, d_out)
        free = (n - ab.rank(d_out)) - ab.rank(
            ab.LinearSolver(ab.kernel_basis(d_out)).solve_matrix(d_in)
        )
        assert h.free_rank == free

    point = ab.mapping_torus_cohomology([ab.GroupHom.identity(FgAbGroup(1))])
    assert [d.group for d in point] == [FgAbGroup(1), FgAbGroup(1)]

    torus = ab.mapping_torus_cohomology(penrose_run.rotation)
    assert sum((-1) ** d.degree * d.group.free_rank for d in torus) == 0

    for rep in (penrose_run.report, square_run.report):
        collapse = [v for v in rep["verdicts"] if v["name"] == "rational_collapse"]
        assert collapse and collapse[0]["passed"]

    elapsed = time.time() - t0
    assert elapsed < 180.0
    report(9, f"1000-matrix Smith suite, oracle equivalence, chain identities, "
              f"circle, Euler 0, collapse checks in {elapsed:.1f}s")


def test_criterion_10_periodic_control(square_run):
    hull = [h.group for h in square_run.hull]
    assert hull == [FgAbGroup(1), FgAbGroup(2), FgAbGroup(1)]
    torus = [[g["rank"], g["torsion"]]
             for g in square_run.report["routes"]["mapping_torus"]["groups"]]
    assert torus == [[1, []], [3, []], [3, []], [1, []]]
    omega = [entry["winding"] for entry in square_run.report["omega"]]
    assert set(omega) == {0}
    report(10, "periodic control: torus hull Z, Z^2, Z; mapping torus "
               "Z, Z^3, Z^3, Z; winding identically zero")
