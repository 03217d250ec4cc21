"""Acceptance suite: every criterion at its pinned tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
timings; every tolerance below is fixed, nothing is calibrated at runtime.
"""

import math
import random
import time

from loopeq import (
    CRational,
    DiscriminatorEngine,
    HomologyClass,
    MomentTable,
    MPoly,
    Partition,
    Potential,
    PowerSumPoly,
    arc_moment,
    basis_arcs,
    circle_power_class,
    deform,
    eval_powersum,
    expectation,
    gaussian_trace_moment,
    hn_dimension,
    loop_tuples,
    moment_matrix,
    oracle_from_quadrature,
    partitions_in_box,
    partitions_of_weight,
    q_polynomial,
    q_rational,
    real_axis_contour,
    real_power_class,
    reduce_length,
    residuals,
    solve_moments,
    symbolic_two_potential,
    q_twomatrix,
    tutte_residual,
)
from conftest import distinct_rational_points


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_isomorphism_witness():
    configs = [
        (1, Potential.polynomial([1, 0, 1]), 2),
        (2, Potential.polynomial([1, 0, 1]), 3),
        (2, Potential.polynomial([0, 1, 0, 1]), 6),
        (3, Potential.polynomial([1, 0, 1]), 4),
    ]
    for N, V, size in configs:
        t0 = time.time()
        M = moment_matrix(MomentTable(basis_arcs(V), V, 1e-12), N)
        dt = time.time() - t0
        ok = (
            len(M.rows) == len(M.cols) == size == hn_dimension(N, V.d)
            and M.min_scaled_singular > 1e-8
            and dt < 60.0
        )
        report(
            "criterion 1",
            ok,
            f"(N={N}, d={V.d}) size {size}, min scaled sv {M.min_scaled_singular:.3e}, {dt:.1f}s",
        )


def test_criterion_2_quartic_residuals():
    t0 = time.time()
    V = Potential.polynomial([0, 1, 0, 1])  # x^2/2 + x^4/4
    G = real_power_class(2)
    needed = set()
    for mu in loop_tuples(6):
        needed.update(q_polynomial(mu, V, 2).terms)
    table = MomentTable(G.arc_basis, V, 1e-12)
    oracle = oracle_from_quadrature(G, sorted(needed), table)
    rep = residuals(oracle, V, 2, 6)
    dt = time.time() - t0
    ok = rep.max_relative < 1e-8 and dt < 30.0
    report("criterion 2", ok, f"max relative residual {rep.max_relative:.3e} over "
                              f"{len(rep.entries)} tuples, {dt:.1f}s")


def test_criterion_3_gaussian_anchors():
    V = Potential.polynomial([0, 1])
    G = real_power_class(2)
    table = MomentTable(G.arc_basis, V, 1e-12)
    Z, _ = expectation(G, PowerSumPoly.monomial((), 2), table)
    p2, _ = expectation(G, PowerSumPoly.monomial((2,), 2), table)
    ok_z = abs(Z - 4 * math.pi) < 1e-10
    ok_ratio = abs(p2 / Z - 4.0) < 1e-10
    N = MPoly.gen("N", ("N",))
    m4 = gaussian_trace_moment((4,))
    ok_wick = m4 == 2 * N ** 3 + N and m4.eval({"N": 1}) == CRational(3)
    report(
        "criterion 3",
        ok_z and ok_ratio and ok_wick,
        f"Z-4pi = {abs(Z - 4 * math.pi):.2e}, E(p2)/Z-4 = {abs(p2 / Z - 4):.2e}, "
        f"<Tr M^4> = {m4}",
    )


def test_criterion_4_tutte_equals_loop_equations():
    t0 = time.time()
    mus = loop_tuples(4)
    bad = []
    for weights, label in (({3: 1}, "cubic"), ({4: 1}, "quartic")):
        for mu in mus:
            res = tutte_residual(weights, mu, 4)
            if not res.is_zero():
                bad.append((label, mu))
    dt = time.time() - t0
    ok = not bad and dt < 120.0
    report(
        "criterion 4",
        ok,
        f"exact-zero residual series for {len(mus)} tuples x {{cubic, quartic}}, "
        f"{dt:.1f}s" + (f"; failures {bad}" if bad else ""),
    )


def test_criterion_5_haar_circle():
    t0 = time.time()
    V = Potential.rational([2], [0, 1])  # V' = N/x at N = 2
    G = circle_power_class(2)
    needed = {Partition(()), Partition((1,)), Partition((2,))}
    for mu in loop_tuples(4):
        needed.update(q_rational(mu, V, 2).terms)
    table = MomentTable(G.arc_basis, V, 1e-13)
    oracle = oracle_from_quadrature(G, sorted(needed), table)
    rep = residuals(oracle, V, 2, 4)
    Z = oracle[Partition(())][0]
    ok_dim = hn_dimension(2, V.d) == 1
    norms = [abs(oracle[Partition((k,))][0] / Z) for k in (1, 2)]
    ok = rep.max_relative < 1e-10 and ok_dim and all(v < 1e-10 for v in norms)
    dt = time.time() - t0
    report(
        "criterion 5",
        ok,
        f"residuals {rep.max_relative:.2e}, dim H_N {hn_dimension(2, V.d)}, "
        f"|E(p_k)/Z| = {norms[0]:.1e}, {norms[1]:.1e}, {dt:.1f}s",
    )


def test_criterion_6_reduction_round_trip():
    t0 = time.time()
    V = Potential.polynomial([1, 0, 1])  # x^3/3 + x, d = 2
    arcs = basis_arcs(V)
    G = HomologyClass.make(2, arcs, {(2, 0): 1.0})  # gamma_1^2
    table = MomentTable(arcs, V, 1e-12)
    basis_values = {}
    for nu in partitions_in_box(2, 1):
        val, _ = expectation(G, PowerSumPoly.monomial(nu, 2), table)
        basis_values[nu] = val
    targets = [p for w in range(9) for p in partitions_of_weight(w)]
    vals, _ = solve_moments(V, 2, basis_values, targets)
    worst = 0.0
    for mu, v in vals.items():
        direct, _ = expectation(G, PowerSumPoly.monomial(mu, 2), table)
        worst = max(worst, abs(v - direct) / max(abs(direct), 1e-30))
    dt = time.time() - t0
    ok = worst < 1e-6
    report("criterion 6", ok, f"worst relative {worst:.3e} over {len(targets)} targets, {dt:.1f}s")


def test_criterion_7_discriminator():
    t0 = time.time()
    V = Potential.polynomial([1, 0, 1])
    comps = [(1, 0), (0, 1)]
    eng60 = DiscriminatorEngine(V, 60, 1e-9)
    worst = 0.0
    for n in comps:
        for m in comps:
            target = 1.0 if n == m else 0.0
            worst = max(worst, abs(eng60.ratio(n, m)[0] - target))
    eng25 = DiscriminatorEngine(V, 25, 1e-9)
    eng100 = DiscriminatorEngine(V, 100, 1e-9)
    trend_ok = True
    for n in comps:
        for m in comps:
            target = 1.0 if n == m else 0.0
            d100 = abs(eng100.ratio(n, m)[0] - target)
            d25 = abs(eng25.ratio(n, m)[0] - target)
            trend_ok = trend_ok and d100 <= d25 + 0.1
    dt = time.time() - t0
    ok = worst < 0.2 and trend_ok and dt < 60.0
    report(
        "criterion 7",
        ok,
        f"max |ratio - delta| {worst:.3f} at r=60, trend r=25->100 {'ok' if trend_ok else 'BAD'}, "
        f"{dt:.1f}s",
    )


def test_criterion_8_two_matrix_leading_coefficient():
    t0 = time.time()
    bad = []
    for d, dt_ in [(1, 2), (2, 1), (2, 2)]:
        V, Vt, vars, N = symbolic_two_potential(d, dt_)
        expect = MPoly.gen(f"s{dt_+1}", vars) * MPoly.gen(f"t{d+1}", vars) ** dt_
        for m0 in (0, 1, 2):
            for rest in [(), (2,)]:
                Q = q_twomatrix((m0,) + rest, V, Vt, N)
                top = Partition.of((m0 + d * dt_,) + rest)
                if Q.terms.get(top) != expect:
                    bad.append((d, dt_, m0, rest))
    dt = time.time() - t0
    ok = not bad and dt < 10.0
    report("criterion 8", ok, f"leading coefficient t~_(dt+1) t_(d+1)^dt exact "
                              f"for (d,dt) in {{(1,2),(2,1),(2,2)}}, {dt:.1f}s")


def test_criterion_9_property_suites():
    t0 = time.time()
    # (a) reduce_length random-point exactness, 500 cases
    rng = random.Random(2024)
    cases = 0
    while cases < 500:
        N = rng.randint(1, 4)
        ell = rng.randint(1, 6)
        parts = sorted((rng.randint(1, 5) for _ in range(ell)), reverse=True)
        mu = Partition(tuple(parts))
        if mu.weight > 10:
            continue
        cases += 1
        p = PowerSumPoly.monomial(mu, N)
        red = reduce_length(p, N)
        pts = distinct_rational_points(rng, N)
        assert eval_powersum(red, pts) == eval_powersum(p, pts)
        assert red.max_length() <= N
    report("criterion 9a", True, f"reduce_length exact on {cases} random cases")

    # (b) contour deformation invariance: 10 deformations x 5 moments
    V = Potential.polynomial([0, 1])
    base = real_axis_contour()
    rng = random.Random(77)
    checked = 0
    for i in range(10):
        moved = deform(
            base,
            shift=complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4)),
            rotate=rng.uniform(-0.15, 0.15),
            V=V,
        )
        for k in range(5):
            v0, e0 = arc_moment(base, V, k, 1e-12)
            v1, e1 = arc_moment(moved, V, k, 1e-12)
            assert abs(v0 - v1) <= 100 * (e0 + e1) + 1e-11
            checked += 1
    report("criterion 9b", True, f"deformation invariance: {checked} moment comparisons")

    # (c) expectation linearity and permutation symmetry, 50 random cases
    G = real_power_class(2)
    table = MomentTable(G.arc_basis, V, 1e-12)
    rng = random.Random(99)
    for _ in range(50):
        parts = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        v1, _ = expectation(G, PowerSumPoly.monomial(Partition.of(parts), 2), table)
        rng.shuffle(parts)
        v2, _ = expectation(
            G, PowerSumPoly.build([(tuple(parts), CRational(1))], 2), table
        )
        assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        pa = PowerSumPoly.monomial(Partition.of(parts), 2)
        pb = PowerSumPoly.monomial((2,), 2)
        combo = pa.scale(CRational(a)) + pb.scale(CRational(b))
        v3, _ = expectation(G, combo, table)
        v4, _ = expectation(G, pb, table)
        assert abs(v3 - (a * v1 + b * v4)) < 1e-9
    dt = time.time() - t0
    report("criterion 9c", True, f"linearity + permutation symmetry on 50 cases, total {dt:.1f}s")
