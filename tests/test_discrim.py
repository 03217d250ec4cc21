import cmath
import math
import random

import pytest

from loopeq import (
    DiscriminatorEngine,
    Potential,
    discriminator_report,
    lagrange_f,
    saddle_points,
)
from loopeq.discriminator import DiscriminatorReport, _level_maps
from loopeq.momsolve import gamma
from loopeq.quadrature import vandermonde_sum
from loopeq.symfunc import compositions


def test_saddles_gaussian(gauss):
    S = saddle_points(gauss, 9)
    assert sorted(round(z.real) for z in S.xi) == [-3, 3]
    pos = [z for z in S.xi if z.real > 0][0]
    j = S.xi.index(pos)
    assert S.Vr_values[j] == pytest.approx(4.5 - 9 * math.log(3))
    assert S.Vr_second[j] == pytest.approx(1 + 9 / 9)


def test_saddle_residuals_small(cubic):
    for r in (10, 60, 200):
        S = saddle_points(cubic, r)
        for z in S.xi:
            assert abs(z * cubic.dV(z) - r) < 1e-9 * r


def test_saddles_newton_polish_corrects_perturbed_roots(cubic, monkeypatch):
    from loopeq import discriminator

    r = 60
    exact = saddle_points(cubic, r)
    perturbed = [z * (1 + 1e-8) for z in exact.xi]
    # the stubbed roots miss x V'(x) = r by far more than the polish's 1e-13 test
    assert all(abs(z * cubic.dV(z) - r) > 1e-6 for z in perturbed)
    monkeypatch.setattr(discriminator.np, "roots", lambda _coeffs: perturbed)
    polished = saddle_points(cubic, r)
    for got, want in zip(polished.xi, exact.xi):
        assert abs(got - want) <= 1e-12 * abs(want)
    for got, want in zip(polished.Vr_values, exact.Vr_values):
        assert abs(got - want) <= 1e-12 * abs(want)


def test_saddles_quartic_asymptotic_directions():
    V = Potential.polynomial([0, 0, 0, 1])  # x^4/4, xV' = x^4
    r = 10000
    S = saddle_points(V, r)
    assert len(S.xi) == 4
    mags = sorted(abs(z) for z in S.xi)
    assert all(abs(m - r ** 0.25) < 1e-6 * r ** 0.25 for m in mags)
    angles = sorted(cmath.phase(z) % (2 * math.pi) for z in S.xi)
    expect = [0, math.pi / 2, math.pi, 3 * math.pi / 2]
    assert angles == pytest.approx(expect, abs=1e-8)


def test_saddles_need_a_polynomial_potential(haar2):
    V = Potential.rational([2, 0, 0, 1], [0, 1])  # V' = x^2 + 2/x
    for W in (V, haar2):
        with pytest.raises(ValueError, match="polynomial"):
            saddle_points(W, 60)
        with pytest.raises(ValueError, match="polynomial"):
            discriminator_report(W, 60, 1)


@pytest.mark.parametrize("t,r,match", [
    ([0, 1], 0, "r must be a positive integer"),
    # x V' - r = (x - 1)^3: np.roots spreads the triple root over about 1e-5,
    # which the 1e-6 proximity test let through
    ([3, -3, 1], 1, "coincident saddle points at r=1"),
    ([5, -4, 1], 2, "coincident saddle points at r=2"),  # x V' - r = (x - 1)^2 (x - 2)
], ids=["r=0", "triple", "double"])
def test_saddles_coincident_raises(t, r, match):
    with pytest.raises(ValueError, match=match):
        saddle_points(Potential.polynomial(t), r)


def _evaluate(coeffs, x):
    """The polynomial with ascending monomial coefficients ``coeffs`` at x."""
    return sum(a * x ** i for i, a in enumerate(coeffs))


def test_lagrange_basis(cubic):
    S = saddle_points(cubic, 60)
    fs = lagrange_f(S)
    for i, fi in enumerate(fs):
        for j, xj in enumerate(S.xi):
            assert abs(_evaluate(fi, xj) - (1.0 if i == j else 0.0)) < 1e-12
    # partition of unity on random points
    rng = random.Random(1)
    for _ in range(10):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        assert abs(sum(_evaluate(f, z) for f in fs) - 1.0) < 1e-9


def test_lagrange_two_nodes(gauss):
    S = saddle_points(gauss, 9)
    fs = lagrange_f(S)
    j = S.xi.index([z for z in S.xi if z.real > 0][0])
    # f_+ (x) = (x + 3)/6
    for x in (0.0, 1.5, -2.0):
        assert abs(_evaluate(fs[j], x) - (x + 3) / 6) < 1e-12


def test_gaussian_ratio_converges(gauss):
    v, _ = DiscriminatorEngine(gauss, 60, 1e-9).ratio((1,), (1,))
    assert abs(v - 1) < 0.05


def test_cubic_delta_matrix(cubic):
    eng = DiscriminatorEngine(cubic, 60, 1e-9)
    comps = [(1, 0), (0, 1)]
    for n in comps:
        for m in comps:
            target = 1.0 if n == m else 0.0
            assert abs(eng.ratio(n, m)[0] - target) < 0.2


def test_cubic_trend_improves(cubic):
    e25 = DiscriminatorEngine(cubic, 25, 1e-9)
    e100 = DiscriminatorEngine(cubic, 100, 1e-9)
    for n in [(1, 0), (0, 1)]:
        for m in [(1, 0), (0, 1)]:
            target = 1.0 if n == m else 0.0
            assert abs(e100.ratio(n, m)[0] - target) <= abs(e25.ratio(n, m)[0] - target) + 0.1


@pytest.mark.parametrize(
    "t,r",
    [([1, 0, 0, 1], 60), ([1, 0, 0, 1], 100), ([1, 0, 0, 0, 1], 60), ([0, 1, 0, 0, 1], 60),
     ([0, 1, 0, 0, 0, 1], 60), ([1, 0, 0, 0, 0, 0, 1], 60), ([0, 1, 0, 0, 0, 0, 0, 1], 60)],
    ids=["60", "100", "1+x^4", "x+x^4", "x+x^5", "1+x^6", "x+x^7"],
)
def test_degree_three_delta_matrix(t, r):
    # V' = 1 + x^3 (d = 3, three non-anchor saddles) and the degree sweep past
    # it, d = 4..7: no degree cap, the verdict certifies each at N = 1
    rep = discriminator_report(Potential.polynomial(t), r, 1)
    d = len(t) - 1
    assert len(rep.ratios) == d * d
    assert rep.verified
    assert rep.max_deviation < 0.1


def test_cubic_two_body_diagonal(cubic):
    # multiplicity-2 blocks exercise the full amplitude (C_2, Vandermonde)
    eng = DiscriminatorEngine(cubic, 100, 1e-9)
    for n in [(2, 0), (1, 1)]:
        assert abs(eng.ratio(n, n)[0] - 1) < 0.1


def test_injectivity_witness(cubic):
    rng = random.Random(13)
    eng = DiscriminatorEngine(cubic, 60, 1e-9)
    for _ in range(3):
        c = {
            (1, 0): complex(rng.randint(-2, 2), rng.randint(-1, 1)),
            (0, 1): complex(rng.randint(-2, 2), rng.randint(-1, 1)),
        }
        if all(abs(v) < 1e-12 for v in c.values()):
            c[(1, 0)] = 1.0
        got = max(abs(eng.ratio_for_class(c, m)[0]) for m in [(1, 0), (0, 1)])
        assert got >= 0.5 * max(abs(v) for v in c.values())


def test_ratio_rejects_mismatched_sizes(cubic):
    eng = DiscriminatorEngine(cubic, 60)
    with pytest.raises(ValueError):
        eng.ratio((1, 0), (1, 1))
    with pytest.raises(ValueError):
        eng.ratio((1,), (1, 0))


def test_dynamic_range_guard(gauss):
    with pytest.raises(ValueError):
        DiscriminatorEngine(gauss, 100000)


@pytest.mark.parametrize("r", [25, 60, 100])
def test_two_body_expectation_is_hand_expanded_vandermonde(cubic, r):
    eng = DiscriminatorEngine(cubic, r, 1e-9)

    def A(arc, c, extra):
        return eng._body_moment((arc, c), extra)[0]

    for n in compositions(2, 2):
        word = [arc for arc, cnt in enumerate(n) for _ in range(cnt)]
        for m in compositions(2, 2):
            m_hat = eng._lift(m)
            maps = _level_maps(m_hat, 2)
            # Delta^2 = x1^2 - 2 x1 x2 + x2^2
            want = sum(
                A(word[0], s[0], 2) * A(word[1], s[1], 0)
                - 2 * A(word[0], s[0], 1) * A(word[1], s[1], 1)
                + A(word[0], s[0], 0) * A(word[1], s[1], 2)
                for s in maps
            )
            got, _ = eng.expectation(n, m_hat)
            assert abs(got - want) <= 1e-13 * abs(want)


def test_two_body_kernel_bound_carries_quadrature_error(cubic):
    eng = DiscriminatorEngine(cubic, 60, 1e-9)
    value, err = vandermonde_sum(eng.moments, ((0, 0), (1, 1)))
    assert 0 < err < 1e-6 * abs(value)


@pytest.mark.parametrize("bar,verified", [(0.0, True), (0.06, False)])
def test_report_verdict_adds_the_bound_to_the_distance(bar, verified):
    # R - I = diag(0.9, -0.5): ||R - I||_2 = 0.9, and four bars of 0.06 give
    # ||bars||_F = 0.12, which lifts the sum past 1
    n, m = (1, 0), (0, 1)
    values = {(n, n): 1.9 + 0j, (n, m): 0j, (m, n): 0j, (m, m): 0.5 + 0j}
    rep = DiscriminatorReport(r=60, N=1, tol=1e-9, ratios={k: (v, bar) for k, v in values.items()})
    assert rep.distance == pytest.approx(0.9, rel=1e-15)
    assert rep.max_deviation == pytest.approx(0.9, rel=1e-15)
    assert rep.bound == pytest.approx(2 * bar + gamma(4) * 0.9, rel=1e-15)
    assert rep.verified is verified
    assert rep.to_json()["ratios"][0] == {"n": [0, 1], "m": [0, 1], "value": [0.5, 0.0]}  # no bar


@pytest.mark.parametrize("N", [1, 2])
def test_ratio_bar_is_the_level_map_bounds_over_the_amplitude(cubic, N):
    eng = DiscriminatorEngine(cubic, 60, 1e-9)
    for n in compositions(N, 2):
        for m in compositions(N, 2):
            m_hat = eng._lift(m)
            word = [arc for arc, cnt in enumerate(n) for _ in range(cnt)]
            bounds = [vandermonde_sum(eng.moments, tuple(zip(word, s)))[1]
                      for s in _level_maps(m_hat, N)]
            value, bar = eng.ratio(n, m)
            assert bar == pytest.approx(sum(bounds) / abs(eng.amplitude(m_hat)), rel=1e-15)
            assert 0 < bar < 1e-6 * max(1.0, abs(value))
