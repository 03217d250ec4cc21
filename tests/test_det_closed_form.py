"""A one-number oracle for L1: the determinant of the d x d arc matrix in closed form.

For a polynomial potential with V' = sum_k t_k x^(k-1) of degree d, the
matrix M1[a, i] = m_a(i) of the moments of x^i, i < d, over the basis arcs
has

    det M1 = eps_d (2 pi / t_{d+1})^(d/2) exp(-sum_{V'(lam) = 0} V(lam)).

It is the Wronskian of the arc integrals I_a(s) = int e^(-V(x) + s x) dx at
s = 0, and Jacobi's formula gives the exponent.  The unit eps_d is measured,
not derived.  The sum of V over the critical points is exact: Newton's
identities give the power sums of the roots of V' from its coefficients, as
``CRational``s, so no root is found.

The ``iso`` matrix A at N bodies (``moment_matrix``) follows with

    det A = det(M1)^binom(N+d-1, d) c(d, N) t_{d+1}^(-e),  e = d binom(N+d-1, d+1),

where the integer c(d, N) has the product form of ROADMAP finding (g),

    |c(d, N)| = prod_{k=2}^{N} k^e(d, N+1-k),
    e(d, m) = d binom(m+d-1, d) + (d-1) binom(m+d-2, d-1),

and a measured sign; on the potentials below it does not depend on the
lower coefficients.
"""

import cmath
import math

import numpy as np
import pytest

from loopeq import CRational, MomentTable, Potential, basis_arcs, moment_matrix

EPS = {1: -1, 2: -1j, 3: -1j, 4: -1, 5: 1, 6: 1j, 7: 1j}  # eps_d, measured
U = 2.0 ** -53


def critical_value_sum(t) -> CRational:
    """sum of V(lam) over the d roots of V' = sum_k t_k x^(k-1), exactly."""
    t = [CRational.coerce(c) for c in t]
    d = len(t) - 1
    a = [c / t[-1] for c in t[:-1]]  # V' / t_{d+1} = x^d + a_{d-1} x^(d-1) + ... + a_0
    power = [CRational(d)]  # power[k] = sum_j lam_j^k
    for k in range(1, d + 2):
        s = CRational(k) * a[d - k] if k <= d else CRational(0)
        for i in range(1, min(k - 1, d) + 1):
            s = s + a[d - i] * power[k - i]
        power.append(-s)
    total = CRational(0)
    for k in range(1, d + 2):
        total = total + t[k - 1] / k * power[k]
    return total


NEGATIVE = {(2, 2), (3, 2)}  # the (d, N) tested here with c(d, N) < 0, measured


def c(d: int, N: int) -> int:
    """c(d, N): the product form of |c| times the measured sign."""
    def e(m):
        return d * math.comb(m + d - 1, d) + (d - 1) * math.comb(m + d - 2, d - 1)

    return (-1 if (d, N) in NEGATIVE else 1) * math.prod(k ** e(N + 1 - k) for k in range(2, N + 1))


def closed_form(V: Potential) -> complex:
    d = V.d
    lead = V.R[-1].to_complex()
    assert lead.imag == 0 and lead.real > 0  # the measured units hold for a positive lead
    return EPS[d] * (2 * math.pi / lead.real) ** (d / 2) * cmath.exp(-critical_value_sum(V.R).to_complex())


def lu_det(A):
    """det A by Gaussian elimination with partial pivoting, and |L||U| with
    its rows in the order of A (the backward error of the factorization is at
    most gamma |L||U| entrywise, Higham 2002, Theorem 9.3)."""
    n = len(A)
    U_ = [list(map(complex, row)) for row in A]
    L = [[0j] * n for _ in range(n)]
    rows = list(range(n))
    det = 1 + 0j
    for j in range(n):
        p = max(range(j, n), key=lambda r: abs(U_[r][j]))
        if p != j:
            U_[j], U_[p] = U_[p], U_[j]
            L[j], L[p] = L[p], L[j]
            rows[j], rows[p] = rows[p], rows[j]
            det = -det
        L[j][j] = 1
        for r in range(j + 1, n):
            f = L[r][j] = U_[r][j] / U_[j][j]
            for c in range(j + 1, n):
                U_[r][c] -= f * U_[j][c]
            U_[r][j] = 0j
        det *= U_[j][j]
    LU = np.abs(np.array(L)) @ np.abs(np.array(U_))
    back = np.empty_like(LU)
    back[rows] = LU
    return det, back


def det_with_bar(M, E):
    """det M and its first-order bar: sum |cofactor| * (err + gamma |L||U|)."""
    n = len(M)
    det, LU = lu_det(M)
    cof = det * np.linalg.inv(np.array(M, dtype=complex)).T
    gamma = 8 * n * U / (1 - 8 * n * U)  # complex multiply-adds; a final product of n pivots
    return det, float(np.sum(np.abs(cof) * (np.array(E) + gamma * LU)))


def arc_matrix(V: Potential):
    table = MomentTable(basis_arcs(V), V)
    cells = [[table.data[a, i] for i in range(V.d)] for a in range(V.d)]
    return [[v for v, _ in row] for row in cells], [[e for _, e in row] for row in cells]


def _moved_fails(M, E, det, bar, want, slack):
    """Whether moving the entry of largest cofactor so that the determinant
    moves by 10x its bar puts it outside the check."""
    cof = det * np.linalg.inv(np.array(M, dtype=complex)).T
    a, i = np.unravel_index(np.argmax(np.abs(cof)), cof.shape)
    moved = [row[:] for row in M]
    moved[a][i] += 10 * (bar + slack) / abs(cof[a, i])
    det2, bar2 = det_with_bar(moved, E)
    return abs(det2 - want) > bar2 + slack


POTENTIALS = {
    "x": [0, 1],
    "cubic": [1, 0, 1],
    "quartic": [0, 1, 0, 1],
    "x + x^4": [0, 1, 0, 0, 1],
    "deg5": [0, 1, 0, 0, 0, 1],
    "deg6": [0, 1, 0, 0, 0, 0, 1],
    "deg7": [0, 1, 0, 0, 0, 0, 0, 1],
    "complex lower, lead 2": [CRational(1, 1), CRational("1/2", "-1/3"), 2],
    "complex lower, lead 3": [CRational(0, "1/2"), -1, CRational(1, 1), 3],
}


def test_newton_sum_matches_the_roots():
    for t in POTENTIALS.values():
        coeffs = [complex(CRational.coerce(c)) for c in t]
        roots = np.roots(coeffs[::-1])
        want = sum(sum(c / k * lam ** k for k, c in enumerate(coeffs, start=1)) for lam in roots)
        assert abs(critical_value_sum(t).to_complex() - want) < 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("name", list(POTENTIALS))
def test_arc_determinant_matches_the_closed_form(name):
    V = Potential.polynomial(POTENTIALS[name])
    M, E = arc_matrix(V)
    det, bar = det_with_bar(M, E)
    want = closed_form(V)
    slack = abs(want) * 64 * U * (1 + abs(critical_value_sum(V.R).to_complex()))  # the closed form's rounding
    assert abs(det - want) <= bar + slack, (det, want, bar)
    # one moment moved so that the determinant moves by 10x its bar fails
    assert _moved_fails(M, E, det, bar, want, slack)


DET_A = {
    "1 + x^2": [1, 0, 1],
    "2 + x + x^2": [2, 1, 1],
    "1 + 2 x^2": [1, 0, 2],
    "x + x^3": [0, 1, 0, 1],
    "1/2 - x/3 + x^2 + x^3": [CRational("1/2"), CRational("-1/3"), 1, 1],
}


@pytest.mark.parametrize("name, N", [(name, N) for name, t in DET_A.items()
                                     for N in range(2, {3: 5, 4: 4}[len(t)])])
def test_iso_determinant_matches_the_closed_form(name, N):
    V = Potential.polynomial(DET_A[name])
    d = V.d
    A = moment_matrix(MomentTable(basis_arcs(V), V), N)
    det, bar = det_with_bar(A.entries, A.errors)
    power = math.comb(N + d - 1, d)
    lead = V.R[-1].to_complex().real
    want = closed_form(V) ** power * c(d, N) * lead ** (-d * math.comb(N + d - 1, d + 1))
    slack = abs(want) * power * 64 * U * (1 + abs(critical_value_sum(V.R).to_complex()))
    assert abs(det - want) <= bar + slack, (det, want, bar)
    assert _moved_fails(A.entries, A.errors, det, bar, want, slack)
