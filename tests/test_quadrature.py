import math
import random
from collections import Counter

import numpy as np
import pytest

from loopeq import (
    CRational,
    HomologyClass,
    MomentTable,
    Partition,
    Potential,
    PowerSumPoly,
    arc_moment,
    basis_arcs,
    circle_contour,
    compositions,
    deform,
    expectation,
    hn_dimension,
    moment_matrix,
    partitions_in_box,
    real_axis_contour,
    real_power_class,
)
from loopeq.quadrature import _laplace_row, _laplace_sum, _ring_plan, vandermonde_sum

from test_bit_identity import _reference_permutation_sum

SQRT_2PI = math.sqrt(2 * math.pi)


def brute_tensor_expectation(V, N, mu, L=9.0, n=120):
    """Independent oracle: Gauss-Legendre tensor quadrature on [-L, L]^N.

    Real-coefficient potentials on the real axis only; the tails beyond L are
    negligible for the Gaussian/quartic weights used here.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes = nodes * L
    weights = weights * L
    tk = [coef.to_complex().real for coef in V.R]
    vx = sum(tk[k - 1] / k * nodes ** k for k in range(1, len(tk) + 1))
    w1d = weights * np.exp(-vx)
    grids = np.meshgrid(*([nodes] * N), indexing="ij")
    wgrid = np.ones_like(grids[0])
    for axis in range(N):
        shape = [1] * N
        shape[axis] = n
        wgrid = wgrid * w1d.reshape(shape)
    integrand = np.ones_like(grids[0])
    for part in mu:
        integrand = integrand * sum(g ** part for g in grids)
    delta2 = np.ones_like(grids[0])
    for i in range(N):
        for j in range(i + 1, N):
            delta2 = delta2 * (grids[i] - grids[j]) ** 2
    return float(np.sum(integrand * delta2 * wgrid))


def test_arc_moment_gaussian(gauss):
    c = real_axis_contour()
    v0, e0 = arc_moment(c, gauss, 0, 1e-12)
    assert abs(v0 - SQRT_2PI) < 1e-10
    v2, _ = arc_moment(c, gauss, 2, 1e-12)
    assert abs(v2 - SQRT_2PI) < 1e-10
    for k in (1, 3, 5):
        vk, _ = arc_moment(c, gauss, k, 1e-12)
        assert abs(vk) < 1e-10


def test_arc_moment_circle_residue(haar2):
    c = circle_contour()
    v1, _ = arc_moment(c, haar2, 1, 1e-13)
    assert abs(v1 - 2j * math.pi) < 1e-12
    for k in (0, 2, 3):
        vk, _ = arc_moment(c, haar2, k, 1e-13)
        assert abs(vk) < 1e-12


def test_expectation_gaussian_anchors(gauss):
    G = real_power_class(2)
    Z, _ = expectation(G, PowerSumPoly.monomial((), 2), MomentTable(G.arc_basis, gauss, 1e-12))
    assert abs(Z - 4 * math.pi) < 1e-10
    p2, _ = expectation(
        G, PowerSumPoly.monomial((2,), 2), MomentTable(G.arc_basis, gauss, 1e-12)
    )
    assert abs(p2 - 16 * math.pi) < 1e-9
    assert abs(p2 / Z - 4.0) < 1e-10


def test_expectation_single_variable_is_arc_moment(gauss):
    G = real_power_class(1)
    for k in (0, 1, 2, 3, 4):
        p = PowerSumPoly.monomial((k,) if k else (), 1)
        v, _ = expectation(G, p, MomentTable(G.arc_basis, gauss, 1e-12))
        m, _ = arc_moment(real_axis_contour(), gauss, k, 1e-12)
        assert abs(v - m) < 1e-10


@pytest.mark.parametrize("N", [1, 2, 3])
def test_expectation_vs_brute_tensor(N, quartic):
    G = real_power_class(N)
    table = MomentTable(G.arc_basis, quartic, 1e-12)
    for mu in [(), (2,), (2, 1, 1)]:
        poly = PowerSumPoly.monomial(Partition.of(mu), N)
        v, _ = expectation(G, poly, table)
        brute = brute_tensor_expectation(quartic, N, mu)
        assert abs(v - brute) <= 1e-7 * max(1.0, abs(brute))


def test_expectation_permutation_and_linearity(gauss):
    rng = random.Random(9)
    G = real_power_class(2)
    table = MomentTable(G.arc_basis, gauss, 1e-12)
    for _ in range(25):
        parts = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        mu_sorted = Partition.of(parts)
        v1, _ = expectation(G, PowerSumPoly.monomial(mu_sorted, 2), table)
        rng.shuffle(parts)
        p_shuffled = PowerSumPoly.build([(tuple(parts), CRational(1))], 2)
        v2, _ = expectation(G, p_shuffled, table)
        assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        combo = PowerSumPoly.monomial(mu_sorted, 2).scale(CRational(a)) + PowerSumPoly.monomial(
            (1,), 2
        ).scale(CRational(b))
        v3, _ = expectation(G, combo, table)
        v4, _ = expectation(G, PowerSumPoly.monomial((1,), 2), table)
        assert abs(v3 - (a * v1 + b * v4)) < 1e-10


def test_expectation_class_linearity(cubic):
    arcs = basis_arcs(cubic)
    table = MomentTable(arcs, cubic, 1e-12)
    p = PowerSumPoly.monomial((2,), 2)
    vals = {}
    for comp in [(2, 0), (1, 1), (0, 2)]:
        G = HomologyClass.make(2, arcs, {comp: 1.0})
        vals[comp], _ = expectation(G, p, table)
    Gmix = HomologyClass.make(2, arcs, {(2, 0): 2.0, (1, 1): -1.5j, (0, 2): 0.25})
    vmix, _ = expectation(Gmix, p, table)
    expect = 2.0 * vals[(2, 0)] - 1.5j * vals[(1, 1)] + 0.25 * vals[(0, 2)]
    assert abs(vmix - expect) < 1e-10 * max(1.0, abs(expect))


def test_expectation_deformation_invariance(gauss):
    c0 = real_axis_contour()
    c1 = deform(c0, shift=0.3j, V=gauss)
    for mu in [(), (2,), (3, 1)]:
        G0 = HomologyClass.make(2, [c0], {(2,): 1.0})
        G1 = HomologyClass.make(2, [c1], {(2,): 1.0})
        p = PowerSumPoly.monomial(Partition.of(mu), 2)
        v0, e0 = expectation(G0, p, MomentTable(G0.arc_basis, gauss, 1e-12))
        v1, e1 = expectation(G1, p, MomentTable(G1.arc_basis, gauss, 1e-12))
        assert abs(v0 - v1) <= 10 * (e0 + e1) + 1e-12


def test_expectation_auto_length_reduction(gauss):
    # length-7 partition at N=2 goes through the basis rewrite transparently
    G = real_power_class(2)
    p = PowerSumPoly.monomial((1,) * 7, 2)
    v, _ = expectation(G, p, MomentTable(G.arc_basis, gauss, 1e-12))
    brute = brute_tensor_expectation(gauss, 2, (1,) * 7)
    assert abs(v - brute) <= 1e-7 * max(1.0, abs(brute))


def test_moment_matrix_shapes_and_conditioning(cubic, quartic):
    # gamma_1 runs from the positive to the negative real sector, so the
    # Gaussian arc is -R; only the magnitude is orientation-free
    gauss1 = Potential.polynomial([0, 1])
    M11 = moment_matrix(MomentTable(basis_arcs(gauss1), gauss1, 1e-12), 1)
    assert len(M11.rows) == 1 and abs(abs(M11.entries[0][0]) - SQRT_2PI) < 1e-10

    M = moment_matrix(MomentTable(basis_arcs(cubic), cubic, 1e-12), 2)
    assert M.rows == [(2, 0), (1, 1), (0, 2)]
    assert M.cols == [(), (1,), (1, 1)]
    assert M.min_scaled_singular > 1e-8

    airy = Potential.polynomial([-1, 0, 1])  # V = x^3/3 - x
    M2 = moment_matrix(MomentTable(basis_arcs(airy), airy, 1e-12), 1)
    assert len(M2.rows) == hn_dimension(1, 2) == 2
    assert M2.min_scaled_singular > 1e-8


def test_moment_table_caching(gauss):
    table = MomentTable([real_axis_contour()], gauss, 1e-12)
    v1 = table.data[0, 2]
    v2 = table.data[0, 2]
    assert v1 is v2  # cached tuple, not recomputed


def test_expectation_cap_errors(gauss):
    G = real_power_class(6)
    with pytest.raises(ValueError):
        expectation(G, PowerSumPoly.monomial((1,), 6), MomentTable(G.arc_basis, gauss, 1e-10))


def test_table_over_other_arcs_is_refused(cubic, quartic):
    # E(p_1) on gamma^(2,0) read -22.65 from the swapped table, without error
    from loopeq import oracle_from_quadrature

    arcs = basis_arcs(cubic)
    G = HomologyClass.make(2, arcs, {(2, 0): 1.0})
    p = PowerSumPoly.monomial((1,), 2)
    for table in (MomentTable(arcs[::-1], cubic, 1e-12),
                  MomentTable(basis_arcs(quartic), quartic, 1e-12)):
        with pytest.raises(ValueError):
            expectation(G, p, table)
        with pytest.raises(ValueError):
            oracle_from_quadrature(G, [(1,)], table)
        assert table.data == {}


def test_complex_potential_loop_equations():
    # complex coefficients are first-class: residuals vanish on any class
    from fractions import Fraction

    from loopeq import (
        HomologyClass,
        admissibility_check,
        loop_tuples,
        oracle_from_quadrature,
        q_polynomial,
        residuals,
    )

    V = Potential.polynomial([
        CRational(0),
        CRational(1, Fraction(1, 2)),
        CRational(0, Fraction(1, 3)),
        CRational(1),
    ])
    arcs = basis_arcs(V)
    assert all(admissibility_check(a, V) is None for a in arcs)
    G = HomologyClass.make(2, arcs, {(2, 0, 0): 1.0, (1, 1, 0): 0.5j, (0, 0, 2): -0.25})
    needed = set()
    for mu in loop_tuples(5):
        needed.update(q_polynomial(mu, V, 2).terms)
    table = MomentTable(arcs, V, 1e-11)
    oracle = oracle_from_quadrature(G, sorted(needed), table)
    rep = residuals(oracle, V, 2, 5)
    assert rep.max_relative < 1e-8
    M = moment_matrix(table, 2)
    assert M.min_scaled_singular > 1e-8


@pytest.mark.parametrize("word", [(0, 1), (1, 1), (1, 0)])
@pytest.mark.parametrize("mu", [(), (1,), (3,), (2, 1), (1, 1, 2)])
def test_vandermonde_sum_two_bodies_is_hand_expansion(word, mu):
    rng = random.Random(hash((word, mu)) % 1000)
    table = {(a, k): (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0, 1e-9))
             for a in (0, 1) for k in range(12)}
    # p_mu(x1, x2) as {(i, j): coefficient of x1^i x2^j}, times x1^2 - 2 x1 x2 + x2^2
    poly = {(0, 0): 1}
    for part in mu:
        nxt = {}
        for (i, j), c in poly.items():
            nxt[(i + part, j)] = nxt.get((i + part, j), 0) + c
            nxt[(i, j + part)] = nxt.get((i, j + part), 0) + c
        poly = nxt
    want = 0j
    for (i, j), c in poly.items():
        for a, b, dc in ((2, 0, 1), (1, 1, -2), (0, 2, 1)):
            want += c * dc * table[word[0], i + a][0] * table[word[1], j + b][0]
    got, err = vandermonde_sum(table, word, mu)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
    assert 0 < err < 1e-6
    exact = {key: (v, 0.0) for key, (v, _) in table.items()}
    assert vandermonde_sum(exact, word, mu) == (got, 0.0)


# N = 3..5, one to three distinct bodies (tuple bodies as in the discriminator),
# len(mu) 0..4; N = 5 keeps mu short so the (N!)^2 N^len(mu) reference stays cheap
LAPLACE_CASES = [
    ((0, 0, 0), ()),
    ((0, 1, 1), (1,)),
    ((2, 0, 1), (2, 1)),
    ((0, 0, 1), (1, 1, 3)),
    (((1, 0), (0, 2), (1, 0)), (2, 1, 1, 2)),
    ((0, 0, 0, 0), (1,)),
    (((1, 0), (1, 0), (0, 2), (0, 2)), (3, 1)),
    ((0, 1, 2, 2), (1, 2, 1)),
    ((1, 0, 1, 0), (2, 1, 1, 1)),
    ((0, 0, 0, 1, 1), ()),
    ((0, 1, 2, 1, 0), (2,)),
    # repeated parts, where the ring folds onto multiplicities with binomial weights
    ((0, 0, 1, 1), (1, 1, 1, 1)),
    ((0, 1, 1, 0), (2, 2, 1, 1)),
    ((0, 0, 0), (1, 1, 1)),
    (((1, 0), (1, 0), (0, 2)), (2, 2, 2)),
]


@pytest.mark.parametrize("word,mu", LAPLACE_CASES)
def test_vandermonde_sum_from_three_bodies_is_permutation_sum(word, mu):
    rng = random.Random(repr((word, mu)))
    table = {(b, k): (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0, 1e-9))
             for b in sorted(set(word)) for k in range(40)}
    got, err = vandermonde_sum(table, word, mu)
    want, want_err = _reference_permutation_sum(lambda b, k: table[b, k], word, mu)
    # with errors |v| every term's bound is (2^N - 1) prod |v|: the term majorant
    _, doubled = _reference_permutation_sum(lambda b, k: (table[b, k][0], abs(table[b, k][0])), word, mu)
    majorant = doubled / (2 ** len(word) - 1)
    assert abs(got - want) <= 1e-11 * majorant
    assert abs(err - want_err) <= 1e-10 * want_err
    exact = {key: (v, 0.0) for key, (v, _) in table.items()}
    assert vandermonde_sum(exact, word, mu)[1] == 0.0


@pytest.mark.parametrize("mu,coefficients,products", [
    ((), 1, 1),
    ((1,) * 7, 8, 36),  # the subset ring has 128 and 2,187
    ((3, 2, 1), 8, 27),  # distinct parts: the subset ring itself
    ((2, 2, 1), 6, 18),
])
def test_ring_plan_folds_repeated_parts(mu, coefficients, products):
    parts = Counter(mu)
    keys, shifts, plan = _ring_plan(tuple(parts), tuple(parts.values()), len(mu))
    assert (len(shifts), len(plan)) == (coefficients, products)
    # the top coefficient, last, takes every part
    assert shifts[-1] == sum(mu)
    assert keys[-1] == Partition.of(mu)


# (d, N, word): d = 1 is the one-coefficient ring; most words repeat a body,
# and (0, 0, 0, 0, 0) at d = 2 is one body five times
ROW_CASES = [
    (1, 3, (0, 0, 0)), (1, 5, (0, 0, 0, 0, 0)),
    (2, 3, (0, 1, 1)), (2, 4, (1, 0, 1, 0)), (2, 5, (0, 0, 0, 0, 0)),
    (3, 3, (2, 0, 1)), (3, 4, (0, 0, 2, 2)), (3, 5, (1, 1, 1, 2, 2)),
    (4, 3, (3, 3, 3)), (4, 4, (0, 1, 2, 3)), (4, 5, (0, 1, 1, 2, 2)),
]


@pytest.mark.parametrize("d,N,word", ROW_CASES)
def test_row_expansion_is_each_cells_expansion(d, N, word):
    # one expansion over the box ring gives every box cell of the row with the
    # per-cell expansion's value and bound, bit for bit
    rng = random.Random(repr((d, N, word)))
    table = {(b, k): (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0, 1e-9))
             for b in range(d) for k in range(2 * N - 1 + N * (d - 1))}
    row = _laplace_row(table, word, d - 1)
    assert sorted(row) == sorted(partitions_in_box(N, d - 1))
    for nu, cell in row.items():
        assert _laplace_sum(table, word, nu) == cell


@pytest.mark.parametrize("name,N", [("cubic", 4), ("quartic", 3)])
def test_row_fill_reads_the_moments_cells_read(request, name, N):
    # the row fill tabulates exactly the moments per-cell assembly does, so the
    # benchmark's arc_moment and integrand counts cannot move with it
    V = request.getfixturevalue(name)
    by_rows = MomentTable(basis_arcs(V), V, 1e-12)
    moment_matrix(by_rows, N)
    by_cells = MomentTable(by_rows.arcs, V, 1e-12)
    for comp in compositions(N, V.d):
        word = tuple(i for i, n in enumerate(comp) for _ in range(n))
        for nu in partitions_in_box(N, V.d - 1):
            by_cells.cells[word, nu]
    assert set(by_rows.data) == set(by_cells.data)
    assert by_rows.cells == by_cells.cells


def test_moment_matrix_cubic_N5(cubic):
    arcs = basis_arcs(cubic)
    table = MomentTable(arcs, cubic, 1e-12)
    M = moment_matrix(table, 5)
    assert len(M.rows) == len(M.cols) == 6
    assert M.min_scaled_singular > 1e-8
    i, j = M.rows.index((3, 2)), M.cols.index(())
    want, want_err = _reference_permutation_sum(lambda b, k: table.data[b, k], (0, 0, 0, 1, 1), ())
    assert abs(M.entries[i][j] - want) <= M.errors[i][j] + want_err


@pytest.mark.parametrize("N,terms,mus", [
    (2, {(2, 0): 1.0, (1, 1): 0.5 - 0.25j}, [(1, 1, 1), (2, 1), (1, 1), (3, 1, 1, 1)]),
    (3, {(2, 1): 1.0, (1, 2): -0.5j}, [(1, 1, 1, 1), (2, 1, 1), (1, 1, 1), (2, 1)]),
])
def test_cells_kept_by_the_table_give_the_same_bits(cubic, N, terms, mus):
    # reduce_length maps the long partitions onto cells the short ones use too
    G = HomologyClass.make(N, basis_arcs(cubic), terms)
    def bits(table):
        val, err = expectation(G, p, table)
        return [float.hex(x) for x in (val.real, val.imag, err)]

    warm = MomentTable(G.arc_basis, cubic, 1e-12)
    fresh_cells = 0
    for mu in mus:
        p = PowerSumPoly.monomial(mu, N)
        fresh = MomentTable(G.arc_basis, cubic, 1e-12)
        want = bits(fresh)
        fresh_cells += len(fresh.cells)
        assert bits(warm) == bits(warm) == want
    assert len(warm.cells) < fresh_cells


def test_each_cell_is_assembled_once_per_table(monkeypatch):
    # the rational residuals of the benchmark ask for 236 cells, 29 of them distinct
    from loopeq import loop_tuples, oracle_from_quadrature, q_rational
    from loopeq import quadrature

    V = Potential.rational([2, 0, 0, 1], [0, 1])  # V' = x^2 + 2/x
    G = HomologyClass.make(2, basis_arcs(V), {(1, 1, 0): 1.0})
    needed = set()
    for mu in loop_tuples(6):
        needed.update(q_rational(mu, V, 2).terms)
    calls = []
    kernel = quadrature.vandermonde_sum

    def counted(moment, word, mu=()):
        calls.append((tuple(word), tuple(mu)))
        return kernel(moment, word, mu)

    monkeypatch.setattr(quadrature, "vandermonde_sum", counted)
    table = MomentTable(G.arc_basis, V, 1e-12)
    oracle_from_quadrature(G, sorted(needed), table)
    assert len(calls) == len(set(calls)) == len(table.cells) == 29
    oracle_from_quadrature(G, sorted(needed), table)
    assert len(calls) == 29


def _rational_w6_oracle(table_type, *extra):
    """The oracle of the benchmark's residuals-rational-w6 command on a new table."""
    from loopeq import loop_tuples, oracle_from_quadrature, q_rational

    V = Potential.rational([2, 0, 0, 1], [0, 1])  # V' = x^2 + 2/x
    G = HomologyClass.make(2, basis_arcs(V), {(1, 1, 0): 1.0})
    needed = set()
    for mu in loop_tuples(6):
        needed.update(q_rational(mu, V, 2).terms)
    table = table_type(G.arc_basis, V, 1e-12, *extra)
    return table, oracle_from_quadrature(G, sorted(needed), table)


def _counted(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` per argument tuple."""
    calls = Counter()
    original = getattr(owner, name)

    def counted(*args):
        calls[args[-2:]] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("case", ["cubic N=2", "cubic N=4", "residuals-rational-w6"])
def test_each_moment_goes_through_the_miss_path_once(monkeypatch, cubic, case):
    # the kernels index the table's moment map; only a missing key calls
    # MomentTable.moment, and it calls arc_moment: the benchmark counts both.
    # Likewise each cell is filled once, by a miss that calls MomentTable.cell
    # or, in moment_matrix from N = 3 on, by its row's one expansion
    from loopeq import quadrature

    moments = _counted(monkeypatch, MomentTable, "moment")
    cells = _counted(monkeypatch, MomentTable, "cell")
    rows = []
    row = quadrature._laplace_row

    def counted_row(data, word, maxpart):
        out = row(data, word, maxpart)
        cells.update((word, nu) for nu in out)
        rows.append(word)
        return out

    monkeypatch.setattr(quadrature, "_laplace_row", counted_row)
    integrals = _counted(monkeypatch, quadrature, "arc_moment")
    if case == "residuals-rational-w6":
        table, _ = _rational_w6_oracle(MomentTable)
    else:
        table = MomentTable(basis_arcs(cubic), cubic, 1e-12)
        moment_matrix(table, int(case[-1]))
    assert set(moments) == set(table.data)
    assert set(moments.values()) == {1}
    assert sum(integrals.values()) == len(table.data)
    assert set(cells) == set(table.cells)
    assert set(cells.values()) == {1}
    assert bool(rows) == (case == "cubic N=4")


def test_warm_cache_answers_each_stored_key_from_disk_once(monkeypatch, tmp_path):
    from loopeq import quadrature
    from loopeq.cli import CachedMomentTable

    cold, want = _rational_w6_oracle(CachedMomentTable, str(tmp_path))
    cold.flush()
    moments = _counted(monkeypatch, CachedMomentTable, "moment")
    integrals = _counted(monkeypatch, quadrature, "arc_moment")
    warm, got = _rational_w6_oracle(CachedMomentTable, str(tmp_path))
    assert got == want
    assert not integrals
    assert len(warm._store) == len(cold.data) == len(moments)
    assert set(moments) == set(warm.data) and set(moments.values()) == {1}


def test_reversed_arc_is_the_negated_forward_arc(cubic):
    # quad(complex_func=True) sorted the bounds and dropped the sign, so both
    # arcs gave the forward value (+0.0726+0.4448j at k = 0)
    from loopeq.contours import ArcSeg, Contour

    def arc(a0, a1):
        return Contour(segments=(ArcSeg(center=0j, radius=1.0, a0=a0, a1=a1),))

    for k in range(3):
        forward, forward_err = arc_moment(arc(0.0, 1.0), cubic, k, 1e-12)
        backward, backward_err = arc_moment(arc(1.0, 0.0), cubic, k, 1e-12)
        assert (backward.real.hex(), backward.imag.hex()) == ((-forward.real).hex(), (-forward.imag).hex())
        assert backward_err == forward_err


def test_empty_interval_is_zero_with_zero_error(cubic):
    # QAGS answers an empty interval with 0 +- 0 and no error code
    from loopeq.contours import ArcSeg, Contour
    from loopeq.quadrature import _quad_complex

    assert _quad_complex(lambda x: 1.0, lambda x: 2.0 * x, 1.0, 1.0, 1e-12) == (0, 0)
    point = Contour(segments=(ArcSeg(center=0j, radius=1.0, a0=0.5, a1=0.5),))
    for k in range(3):
        assert arc_moment(point, cubic, k, 1e-12) == (0, 0)


@pytest.mark.parametrize("tol, reason", [
    (1e-14, r"real part: extrapolation roundoff \(QUADPACK ier 4\)$"),
    # QAGS returns 0 with error 0 for a tolerance it refuses; that is no result
    (0.0, r"real part: bad input \(QUADPACK ier 6\); imaginary part: bad input \(QUADPACK ier 6\)$"),
])
def test_unreachable_tolerance_names_the_quadpack_reason(tol, reason):
    from loopeq import QuadratureError
    from loopeq.quadrature import _quad_complex

    with pytest.raises(QuadratureError, match=reason):
        _quad_complex(lambda x: abs(x - 0.3) ** -0.95, lambda x: 0.0, 0.0, 1.0, tol)


def test_ray_that_underflows_from_its_base_says_so(gauss):
    # |e^{-x^2/2}| is below the smallest double from x = 40 on, so the tail has
    # no peak to fall from; the ray is refused after the same 242 evaluations
    # that end a ray which does not decay, with a message that names the cause
    from loopeq import QuadratureError
    from loopeq.contours import RaySeg
    from loopeq.quadrature import _ray_truncation

    calls = []

    def weight(z):
        calls.append(z)
        return gauss.exp_neg_V(z)

    with pytest.raises(QuadratureError, match=r"^e\^\{-V\} underflows double precision along ray angle"
                                              r" 0\.0000 from its base 40$"):
        _ray_truncation(RaySeg(40.0, 0.0), weight, 0)
    assert len(calls) == 242


def test_expectation_converts_each_coefficient_once(monkeypatch, cubic):
    # the benchmark's cubic residual class has two compositions; each
    # coefficient of p is converted to complex once per call, not per composition
    from loopeq import q_polynomial

    G = HomologyClass.make(2, basis_arcs(cubic), {(2, 0): 1.0, (1, 1): 0.5 - 0.25j})
    p = q_polynomial((2, 1), cubic, 2)
    assert p.max_length() <= 2 and len(p.terms) == 4
    table = MomentTable(G.arc_basis, cubic, 1e-12)
    want = expectation(G, p, table)
    conversions = []
    to_complex = CRational.__complex__

    def counted(self):
        conversions.append(self)
        return to_complex(self)

    monkeypatch.setattr(CRational, "__complex__", counted)
    assert expectation(G, p, table) == want
    assert len(conversions) == len(p.terms)
