"""An independent contour check of the two-matrix loop equations.

For real potentials V, Vt whose leading degrees are even, the pure-x moments
of the two-matrix eigenvalue measure Delta(x) Delta(y) prod_i w(x_i, y_i),
w(x, y) = e^(-V(x) - Vt(y) + x y), come from the bimoments
B(a, l) = int int x^a y^l w.  Expanding Delta(x) over sigma and Delta(y)
over tau, the pair (i, tau(i)) integrates to B(k_i + sigma(i), tau(i)), so

    E(prod_i x_i^(k_i)) = sum_sigma sgn(sigma) det[B(k_i + sigma(i), j)]_(i, j < N),

which is B(a, 0) at N = 1, and at N = 2 the expansion of (x2 - x1)(y2 - y1):
E(x1^a x2^c) = B(a+1, 1) B(c, 0) - B(a+1, 0) B(c, 1) - B(a, 1) B(c+1, 0)
+ B(a, 0) B(c+1, 1).  E(p_nu) sums that over the N^len(nu) ways to put the
parts of nu on the N bodies.  A trapezoid grid on [-8, 8]^2 gives the
bimoments to rounding (the integrand is analytic and negligible at the
edges; Trefethen and Weideman, SIAM Review 2014), so every ``q_twomatrix``
equation must vanish to rounding of its term scale at N = 1, 2 and 3.  The
symbolic generator, evaluated at the same coefficients, must give the same
polynomials.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

import numpy as np
import pytest

from loopeq import (
    CRational,
    Potential,
    PowerSumPoly,
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
    "1 - x + x^3, -1/2 + y + y^3": ([1, -1, 0, 1], [Fraction(-1, 2), 1, 0, 1]),
}
NS = (1, 2, 3)


def _bimoments(t, s, a_max):
    """B[l][a] = int int x^a y^l e^(-V(x) - Vt(y) + x y) on the grid, l < max(NS)."""
    x = np.arange(-8.0, 8.0 + H / 2, H)

    def pot(coeffs):  # V from V' = sum_k c_k x^(k-1)
        return sum(float(c) / k * x ** k for k, c in enumerate(coeffs, start=1))

    w = np.exp(-pot(t)[:, None] - pot(s)[None, :] + np.outer(x, x))
    by_l = [w @ x ** l * H for l in range(max(NS))]  # int dy y^l w, at each x
    powers = x[None, :] ** np.arange(a_max + 1)[:, None]
    return [powers @ col * H for col in by_l]


def _functional(N, B):
    """nu -> E(p_nu) over N pairs from the bimoments, memoized per nu and per
    exponent tuple (sorted: relabelling the pairs leaves the measure alone)."""
    signs = [(sigma, (-1) ** sum(a > b for a, b in combinations(sigma, 2)))
             for sigma in permutations(range(N))]

    @cache
    def cell(ks):
        return sum(sign * np.linalg.det([[B[j][k + i] for j in range(N)] for k, i in zip(ks, sigma)])
                   for sigma, sign in signs)

    @cache
    def moment(nu):
        return sum(cell(tuple(sorted(sum(k for k, body in zip(nu, split) if body == i) for i in range(N))))
                   for split in product(range(N), repeat=len(nu)))  # which body each part goes to

    return moment


def _residual(Q, E):
    """|E(Q)| and its term scale sum |c_nu E(p_nu)|."""
    terms = [complex(c) * E(nu) for nu, c in Q.terms.items()]
    return abs(sum(terms)), sum(map(abs, terms))


@pytest.mark.parametrize("name", list(PAIRS))
def test_q_twomatrix_vanishes_on_the_contour_functional(name):
    t, s = PAIRS[name]
    V, Vt = Potential.polynomial(t), Potential.polynomial(s)
    Vsym, Vtsym, _, Nsym = symbolic_two_potential(len(t) - 1, len(s) - 1)
    values = {f"t{k}": c for k, c in enumerate(t, start=1)}
    values.update({f"s{k}": c for k, c in enumerate(s, start=1)})
    mus = loop_tuples(4)
    # the heaviest term of Q_mu has weight |mu| + d dt, and a cell shifts it by up to N - 1
    B = _bimoments(t, s, 4 + (len(t) - 1) * (len(s) - 1) + max(NS) - 1)
    symbolic = {mu: q_twomatrix(mu, Vsym, Vtsym, Nsym) for mu in mus}
    for N in NS:
        E = _functional(N, B)
        for mu in mus:
            Q = q_twomatrix(mu, V, Vt, N)
            residual, scale = _residual(Q, E)
            assert residual <= REL * scale, (mu, N, residual, scale)
            # the symbolic generator at the same numbers gives the same equation
            evaluated = {nu: c.eval({**values, "N": N}) for nu, c in symbolic[mu].terms.items()}
            assert {nu: c for nu, c in evaluated.items() if c} == Q.terms, (mu, N)
            # one coefficient off by 1 breaks the equation
            nu, c = next(iter(Q.terms.items()))
            broken = PowerSumPoly({**Q.terms, nu: c + CRational(1)}, N)
            residual, scale = _residual(broken, E)
            assert residual > REL * scale, (mu, N)
