import cmath
import math
import random

import pytest

from loopeq import (
    DiscriminatorEngine,
    Potential,
    lagrange_f,
    saddle_points,
)
from loopeq.discriminator import _level_maps
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


def test_saddles_coincident_raises(gauss):
    # x^2 = r with r tiny still has distinct roots; force coincidence with a
    # crafted potential: V' = x^3 - 3x has xV' = x^4 - 3x^2, saddles collide
    # for r = -9/4... not reachable with integer r >= 1, so use the cap check:
    with pytest.raises(ValueError):
        saddle_points(gauss, 0)


def test_lagrange_basis(cubic):
    S = saddle_points(cubic, 60)
    fs = lagrange_f(S)
    for i, fi in enumerate(fs):
        for j, xj in enumerate(S.xi):
            assert abs(fi(xj) - (1.0 if i == j else 0.0)) < 1e-12
    # partition of unity on random points
    rng = random.Random(1)
    for _ in range(10):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        assert abs(sum(f(z) for f in fs) - 1.0) < 1e-9


def test_lagrange_two_nodes(gauss):
    S = saddle_points(gauss, 9)
    fs = lagrange_f(S)
    j = S.xi.index([z for z in S.xi if z.real > 0][0])
    # f_+ (x) = (x + 3)/6
    for x in (0.0, 1.5, -2.0):
        assert abs(fs[j](x) - (x + 3) / 6) < 1e-12


def test_gaussian_ratio_converges(gauss):
    v = DiscriminatorEngine(gauss, 60, 1e-9).ratio((1,), (1,))
    assert abs(v - 1) < 0.05


def test_cubic_delta_matrix(cubic):
    eng = DiscriminatorEngine(cubic, 60, 1e-9)
    comps = [(1, 0), (0, 1)]
    for n in comps:
        for m in comps:
            target = 1.0 if n == m else 0.0
            assert abs(eng.ratio(n, m) - target) < 0.2


def test_cubic_trend_improves(cubic):
    e25 = DiscriminatorEngine(cubic, 25, 1e-9)
    e100 = DiscriminatorEngine(cubic, 100, 1e-9)
    for n in [(1, 0), (0, 1)]:
        for m in [(1, 0), (0, 1)]:
            target = 1.0 if n == m else 0.0
            assert abs(e100.ratio(n, m) - target) <= abs(e25.ratio(n, m) - target) + 0.1


def test_cubic_two_body_diagonal(cubic):
    # multiplicity-2 blocks exercise the full amplitude (C_2, Vandermonde)
    eng = DiscriminatorEngine(cubic, 100, 1e-9)
    for n in [(2, 0), (1, 1)]:
        assert abs(eng.ratio(n, n) - 1) < 0.1


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
        got = max(abs(eng.ratio_for_class(c, m)) for m in [(1, 0), (0, 1)])
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
            ) / len(maps)
            got = eng.expectation(n, m_hat)
            assert abs(got - want) <= 1e-13 * abs(want)


def test_two_body_kernel_bound_carries_quadrature_error(cubic):
    eng = DiscriminatorEngine(cubic, 60, 1e-9)
    value, err = vandermonde_sum(eng._body_moment, ((0, 0), (1, 1)))
    assert 0 < err < 1e-6 * abs(value)
