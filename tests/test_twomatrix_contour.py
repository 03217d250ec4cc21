"""An independent contour check of the two-matrix loop equations.

For real potentials V, Vt whose leading degrees are even, the pure-x moments
of the two-matrix eigenvalue measure Delta(x) Delta(y) prod_i w(x_i, y_i),
w(x, y) = e^(-V(x) - Vt(y) + x y), come from the bimoments
B(a, l) = int int x^a y^l w:

    N = 1:  E(x^a) = B(a, 0),
    N = 2:  E(x1^a x2^c) = B(a+1, 1) B(c, 0) - B(a+1, 0) B(c, 1)
                          - B(a, 1) B(c+1, 0) + B(a, 0) B(c+1, 1),

the expansion of (x2 - x1)(y2 - y1).  A trapezoid grid on [-8, 8]^2
gives the bimoments to rounding (the integrand is analytic and negligible at
the edges; Trefethen and Weideman, SIAM Review 2014), so every
``q_twomatrix`` equation must vanish to rounding of its term scale.  The
symbolic generator, evaluated at the same coefficients, must give the same
polynomials.  N = 3 is not checked here.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from loopeq import (
    CRational,
    Potential,
    PowerSumPoly,
    TwoPotential,
    loop_tuples,
    q_twomatrix,
    symbolic_two_potential,
)

H = 0.05
REL = 1e-13

# (V', Vt') as ascending coefficients t_1..t_{d+1}, s_1..s_{dt+1}
PAIRS = {
    "1/2 + 2x, 1/3 + 2y": ([Fraction(1, 2), 2], [Fraction(1, 3), 2]),
    "x + x^2/2 + x^3, y - y^2/3 + y^3": ([0, 1, Fraction(1, 2), 1], [0, 1, Fraction(-1, 3), 1]),
}


def _bimoments(t, s, a_max):
    """B[l][a] = int int x^a y^l e^(-V(x) - Vt(y) + x y) on the grid, l = 0, 1."""
    x = np.arange(-8.0, 8.0 + H / 2, H)

    def pot(coeffs):  # V from V' = sum_k c_k x^(k-1)
        return sum(float(c) / k * x ** k for k, c in enumerate(coeffs, start=1))

    w = np.exp(-pot(t)[:, None] - pot(s)[None, :] + np.outer(x, x))
    by_l = [w.sum(axis=1) * H, w @ x * H]  # int dy y^l w, at each x
    powers = x[None, :] ** np.arange(a_max + 1)[:, None]
    return [powers @ col * H for col in by_l]


def _moment(nu, N, B):
    """E(p_nu) over N pairs from the bimoments."""
    if N == 1:
        return B[0][sum(nu)]
    total = 0.0
    for split in product((0, 1), repeat=len(nu)):  # which body each part goes to
        a = sum(k for k, body in zip(nu, split) if body == 0)
        c = sum(nu) - a
        total += (B[1][a + 1] * B[0][c] - B[0][a + 1] * B[1][c]
                  - B[1][a] * B[0][c + 1] + B[0][a] * B[1][c + 1])
    return total


def _residual(Q, N, B):
    """|E(Q)| and its term scale sum |c_nu E(p_nu)|."""
    terms = [complex(c) * _moment(nu, N, B) for nu, c in Q.terms.items()]
    return abs(sum(terms)), sum(map(abs, terms))


@pytest.mark.parametrize("name", list(PAIRS))
def test_q_twomatrix_vanishes_on_the_contour_functional(name):
    t, s = PAIRS[name]
    W = TwoPotential(Potential.polynomial(t), Potential.polynomial(s))
    Wsym, _, Nsym = symbolic_two_potential(len(t) - 1, len(s) - 1)
    values = {f"t{k}": c for k, c in enumerate(t, start=1)}
    values.update({f"s{k}": c for k, c in enumerate(s, start=1)})
    mus = loop_tuples(4)
    B = _bimoments(t, s, 4 + (len(t) - 1) * (len(s) - 1) + 1)
    symbolic = {mu: q_twomatrix(mu, Wsym, Nsym) for mu in mus}
    for N in (1, 2):
        for mu in mus:
            Q = q_twomatrix(mu, W, N)
            residual, scale = _residual(Q, N, B)
            assert residual <= REL * scale, (mu, N, residual, scale)
            # the symbolic generator at the same numbers gives the same equation
            evaluated = {nu: c.eval({**values, "N": N}) for nu, c in symbolic[mu].terms.items()}
            assert {nu: c for nu, c in evaluated.items() if c} == Q.terms, (mu, N)
            # one coefficient off by 1 breaks the equation
            nu, c = next(iter(Q.terms.items()))
            broken = PowerSumPoly({**Q.terms, nu: c + CRational(1)}, N)
            residual, scale = _residual(broken, N, B)
            assert residual > REL * scale, (mu, N)
