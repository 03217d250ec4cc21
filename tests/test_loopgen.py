import cmath
import random
from fractions import Fraction

import pytest

from loopeq import (
    CRational,
    MPoly,
    Partition,
    Potential,
    PowerSumPoly,
    eval_powersum,
    q_polynomial,
    q_rational,
    q_twomatrix,
    symbolic_two_potential,
)
from conftest import distinct_rational_points, rand_crational


def test_q_polynomial_gaussian_examples(gauss):
    # Q_(1) = p_2 - N^2 (here N = 2 -> constant -4)
    Q = q_polynomial((1,), gauss, 2)
    assert Q.terms == {Partition((2,)): CRational(1), Partition(()): CRational(-4)}
    # Q_(0) = sum_j t_{j+1} p_j = p_1 for the Gaussian
    Q0 = q_polynomial((0,), gauss, 2)
    assert Q0.terms == {Partition((1,)): CRational(1)}


def test_q_polynomial_trace_recursion_shape(gauss):
    # Gaussian mu=(k): Q = p_{k+1} - sum_{j=0}^{k-1} p_j p_{k-1-j}
    k, N = 4, 3
    Q = q_polynomial((k,), gauss, N)
    expect = PowerSumPoly.build(
        [((k + 1,), CRational(1))]
        + [((j, k - 1 - j), CRational(-1)) for j in range(k)],
        N,
    )
    assert Q == expect


def test_q_polynomial_rejects_rational(haar2):
    with pytest.raises(ValueError):
        q_polynomial((1,), haar2, 2)


def test_highest_weight_coefficient_is_leading_t():
    rng = random.Random(23)
    for _ in range(30):
        d = rng.randint(1, 4)
        t = [rand_crational(rng) for _ in range(d)] + [CRational(rng.randint(1, 3))]
        V = Potential.polynomial(t)
        m0 = rng.randint(0, 4)
        rest = tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 3))), reverse=True))
        if m0 + sum(rest) > 8:
            continue
        Q = q_polynomial((m0,) + rest, V, rng.randint(1, 4))
        top = Partition.of((m0 + d,) + rest)
        assert Q.terms[top] == t[-1]


def _horner(coeffs, z):
    """Exact value of the ascending coefficient list at z."""
    out = CRational(0)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _pointwise_q_oracle(mu, V, pts):
    """-sum_i d/dx_i (D(x_i) x_i^{mu_1} p_rest Delta^2 e^{-sum V}) / (Delta^2 e^{-sum V}),
    evaluated exactly at distinct rational points (D = 1 for polynomial V)."""
    N = len(pts)
    m0, rest = mu[0], mu[1:]

    def psum(k):
        total = CRational(0)
        for x in pts:
            total = total + x ** k
        return total

    p_rest = CRational(1)
    for part in rest:
        p_rest = p_rest * psum(part)

    Rc, Dc = list(V.R), list(V.D)  # V' = R/D
    Dprime = [c * k for k, c in enumerate(Dc)][1:] or [CRational(0)]

    total = CRational(0)
    for i, xi in enumerate(pts):
        D_xi = _horner(Dc, xi)
        Dp_xi = _horner(Dprime, xi)
        R_xi = _horner(Rc, xi)
        G = D_xi * xi ** m0
        Gp = Dp_xi * xi ** m0 + (D_xi * xi ** (m0 - 1) * m0 if m0 else CRational(0))
        # d/dx_i of p_rest
        dp = CRational(0)
        for l, part in enumerate(rest):
            prod = CRational(part) * xi ** (part - 1)
            for m, other in enumerate(rest):
                if m != l:
                    prod = prod * psum(other)
            dp = dp + prod
        cross = CRational(0)
        for j, xj in enumerate(pts):
            if j != i:
                cross = cross + CRational(2) / (xi - xj)
        total = total + Gp * p_rest + G * dp + G * p_rest * cross - xi ** m0 * R_xi * p_rest
    return -total


def test_q_polynomial_matches_derivative_identity():
    rng = random.Random(31)
    for _ in range(20):
        d = rng.randint(1, 3)
        t = [rand_crational(rng) for _ in range(d)] + [CRational(rng.randint(1, 2))]
        V = Potential.polynomial(t)
        N = rng.randint(1, 3)
        m0 = rng.randint(0, 3)
        rest = tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 2))), reverse=True))
        mu = (m0,) + rest
        pts = distinct_rational_points(rng, N)
        Q = q_polynomial(mu, V, N)
        assert eval_powersum(Q, pts) == _pointwise_q_oracle(mu, V, pts)


def test_q_rational_matches_derivative_identity():
    rng = random.Random(37)
    for _ in range(15):
        # V' = R / x with deg R >= 2 keeps things simple and coprime for R(0) != 0
        degR = rng.randint(2, 3)
        R = [CRational(rng.randint(1, 3))] + [rand_crational(rng) for _ in range(degR - 1)]
        R.append(CRational(rng.randint(1, 2)))
        V = Potential.rational(R, [0, 1])
        N = rng.randint(1, 3)
        m0 = rng.randint(0, 2)
        rest = tuple(sorted((rng.randint(1, 2) for _ in range(rng.randint(0, 2))), reverse=True))
        mu = (m0,) + rest
        pts = distinct_rational_points(rng, N)
        Q = q_rational(mu, V, N)
        assert eval_powersum(Q, pts) == _pointwise_q_oracle(mu, V, pts)


def test_q_rational_with_trivial_denominator_equals_q_polynomial():
    rng = random.Random(41)
    for _ in range(10):
        d = rng.randint(1, 3)
        t = [rand_crational(rng) for _ in range(d)] + [CRational(rng.randint(1, 3))]
        V = Potential.polynomial(t)
        W = Potential.rational(t, [1])  # D = 1: V' = R
        N = rng.randint(1, 3)
        m0 = rng.randint(0, 3)
        rest = tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 2))), reverse=True))
        assert q_rational((m0,) + rest, W, N) == q_polynomial((m0,) + rest, V, N)


def test_polynomial_is_rational_with_unit_denominator():
    t = [CRational(1), CRational(0, 2), CRational(Fraction(-3, 2))]
    V, W = Potential.polynomial(t), Potential.rational(t, [1])
    assert V == W
    assert hash(V) == hash(W)
    assert V.to_json() == W.to_json() == {"kind": "polynomial", "t": [c.to_pair() for c in t]}
    assert (V.R, V.D, V.kind) == (tuple(t), (CRational(1),), "polynomial")


def test_exp_neg_V_is_the_polynomial_sum_bitwise():
    t = [CRational(Fraction(1, 3), 2), CRational(0), CRational(-1, Fraction(1, 7)), CRational(1)]
    V = Potential.polynomial(t)
    for z in (0.3 + 0.7j, -1.25 + 0.1j, 1.5 - 0.9j, 0j):
        s = 0j
        for k, tk in enumerate(t, start=1):
            s += tk.to_complex() / k * z ** k
        want = cmath.exp(-s)
        got = V.exp_neg_V(z)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_V_pole_term_matches_exp_neg_V():
    # V' = x^2 + 2/x: V = x^3/3 + 2 log x, so e^{-V} = e^{-x^3/3} x^{-2}
    V = Potential.rational([2, 0, 0, 1], [0, 1])
    for z in (0.7 + 0.2j, -1.3 + 0.5j, 0.4 - 1.1j, 2.0 + 0j, -0.9 - 0.8j):
        want = V.exp_neg_V(z)
        assert want == pytest.approx(cmath.exp(-z ** 3 / 3) / z ** 2, rel=1e-13)
        assert abs(cmath.exp(-V.V(z)) - want) <= 1e-13 * abs(want)


def test_polynomial_potential_does_not_call_np_roots(monkeypatch):
    # a constant D has no poles, so partial_fractions, V and exp_neg_V never need np.roots
    import numpy

    def no_roots(_coeffs):
        raise RuntimeError("np.roots called")

    monkeypatch.setattr(numpy, "roots", no_roots)
    t = [CRational(1), CRational(0), CRational(Fraction(1, 2), 1)]
    V = Potential.polynomial(t)
    assert V.partial_fractions == ([c.to_complex() for c in t], ())
    for z in (0.4 - 1.1j, 2.0 + 0j):
        s = sum(tk.to_complex() / k * z ** k for k, tk in enumerate(t, start=1))
        assert V.V(z) == pytest.approx(s, rel=1e-15)
        assert V.exp_neg_V(z) == pytest.approx(cmath.exp(-s), rel=1e-14)
    with pytest.raises(RuntimeError, match="np.roots called"):
        Potential.rational([2, 0, 0, 1], [0, 1]).partial_fractions


def test_q_rational_coprimality_precondition():
    with pytest.raises(ValueError):
        Potential.rational([0, 0, 0, 1], [0, 1])  # x^3 / x not coprime


def test_haar_loop_polynomials(haar2):
    # V' = N/x on the circle: Q_(0) is identically zero, Q_(1) = -N p_1
    assert q_rational((0,), haar2, 2).is_zero()
    Q1 = q_rational((1,), haar2, 2)
    assert Q1.terms == {Partition((1,)): CRational(-2)}


def test_q_twomatrix_bilinear_case():
    # d = dt = 1 with V = t2 x^2/2, Vt = s2 y^2/2:
    # Q_(k) = (t2 s2 - 1) p_{k+1} - s2 sum_{j<k} p_j p_{k-1-j}
    V, Vt, vars, N = symbolic_two_potential(1, 1)
    t2 = MPoly.gen("t2", vars)
    s2 = MPoly.gen("s2", vars)
    zero = {"t1": 0, "s1": 0, "t2": 3, "s2": 5, "N": 2}
    for k in (1, 2, 3):
        Q = q_twomatrix((k,), V, Vt, N)
        expect = PowerSumPoly.build(
            [((k + 1,), t2 * s2 - 1)]
            + [((j, k - 1 - j), -s2) for j in range(k)],
            N,
        )
        diff = Q - expect
        # remaining terms must all vanish when t1 = s1 = 0
        for mu, c in diff.terms.items():
            assert c.eval(zero) == CRational(0)


@pytest.mark.parametrize("d,dt", [(1, 2), (2, 1), (2, 2)])
def test_q_twomatrix_leading_coefficient(d, dt):
    V, Vt, vars, N = symbolic_two_potential(d, dt)
    expect = MPoly.gen(f"s{dt+1}", vars) * MPoly.gen(f"t{d+1}", vars) ** dt
    for m0 in (0, 1, 2):
        for rest in [(), (1,), (2,)]:
            Q = q_twomatrix((m0,) + rest, V, Vt, N)
            top = Partition.of((m0 + d * dt,) + rest)
            assert Q.terms[top] == expect


def test_q_twomatrix_needs_two_polynomial_potentials(haar2):
    V = Potential.polynomial([0, 1])
    for pair in ((V, haar2), (haar2, V)):
        with pytest.raises(ValueError, match="must both be polynomial"):
            q_twomatrix((1,), *pair, 2)


def test_q_twomatrix_weight_bookkeeping():
    # d=1, dt=2: highest part is mu_1 + 2
    V, Vt, vars, N = symbolic_two_potential(1, 2)
    Q = q_twomatrix((0,), V, Vt, N)
    assert Q.max_part() == 2


def test_potential_json_roundtrip(gauss, haar2):
    for V in (gauss, haar2):
        assert Potential.from_json(V.to_json()) == V
    with pytest.raises(ValueError):
        Potential.from_json({"kind": "polynomial"})
    with pytest.raises(ValueError):
        Potential.from_json({"kind": "sinusoidal", "t": []})


def test_degree_counts_poles_at_equal_degrees():
    # circular-ensemble bookkeeping: V' = x/2 - 1/(2x^2) + N/x has a double
    # pole at 0 and no pole at infinity, total degree 2 (deg R = deg D here)
    from fractions import Fraction

    N = 2
    R = [CRational(Fraction(-1, 2)), CRational(N), CRational(Fraction(1, 2))]
    V = Potential.rational(R, [0, 0, 1])
    assert V.d == 2
    assert not V.reducible
