"""Order-exact reference for the loop-equation generators.

``PowerSumPoly.build`` keeps the first-insertion order of its items, and
``momsolve.residuals`` sums floats in ``Q.terms`` order, so a generator that
emits the same terms in another order moves the last bits of residual scales.
The three generator bodies below are the written-out forms ``q_polynomial``,
``q_rational`` and ``q_twomatrix`` had before they shared one term generator;
the library must give the same ``Q.terms`` items, order and coefficient type
included (``q_twomatrix`` by ``PowerSumPoly`` equality: its level-by-level
elimination skips zero coefficients either way).
"""

from fractions import Fraction

import pytest

from loopeq import (
    CRational,
    MPoly,
    Potential,
    PowerSumPoly,
    q_polynomial,
    q_rational,
    q_twomatrix,
    symbolic_two_potential,
)
from loopeq.loopgen import _check_mu, _neg_one_like
from loopeq.symfunc import partitions_of_weight
from loopeq.wick import map_potential


def _reference_q_polynomial(mu, V, nvars):
    mu = _check_mu(mu)
    m0, rest = mu[0], tuple(mu[1:])
    items = []
    for j, tk in enumerate(V.R):
        items.append(((m0 + j,) + rest, tk))
    minus_one = _neg_one_like(V.R[0])
    for j in range(m0):
        items.append(((j, m0 - 1 - j) + rest, minus_one))
    for i in range(len(rest)):
        spect = rest[:i] + rest[i + 1:]
        items.append(((m0 + rest[i] - 1,) + spect, minus_one * rest[i]))
    return PowerSumPoly.build(items, nvars)


def _reference_q_rational(mu, V, nvars):
    mu = _check_mu(mu)
    m0, rest = mu[0], tuple(mu[1:])
    items = []
    for k, Rk in enumerate(V.R):
        if Rk:
            items.append(((m0 + k,) + rest, Rk))
    for k, Dk in enumerate(V.D):
        if not Dk:
            continue
        for j in range(k + m0):
            items.append(((j, k + m0 - 1 - j) + rest, -Dk))
    for i in range(len(rest)):
        spect = rest[:i] + rest[i + 1:]
        for k, Dk in enumerate(V.D):
            if not Dk:
                continue
            items.append(((m0 + rest[i] - 1 + k,) + spect, -(Dk * rest[i])))
    return PowerSumPoly.build(items, nvars)


def _reference_q_twomatrix(mu, V, Vt, nvars):
    mu = _check_mu(mu)
    m0, rest = mu[0], tuple(sorted(mu[1:], reverse=True))
    t, tt = V.R, Vt.R
    work = {}

    def add(key, c):
        work[key] = work[key] + c if key in work else c

    for l, ttl in enumerate(tt):
        add((l, m0, rest), ttl)
    items = []
    while work:
        (l, k, spect), coeff = max(work.items(), key=lambda kv: kv[0][0])
        del work[(l, k, spect)]
        if not coeff:
            continue
        if l == 0:
            items.append(((k,) + spect, coeff))
            continue
        for j, tj in enumerate(t):
            add((l - 1, k + j, spect), coeff * tj)
        for j in range(k):
            add((l - 1, j, tuple(sorted(spect + (k - 1 - j,), reverse=True))), -coeff)
        for i in range(len(spect)):
            add((l - 1, k + spect[i] - 1, spect[:i] + spect[i + 1:]), -(coeff * spect[i]))
    items.append(((m0 + 1,) + rest, _neg_one_like(t[0])))
    return PowerSumPoly.build(items, nvars)


def _mus(max_weight):
    """Every (mu_1, rest) with mu_1 >= 0 and total weight <= max_weight."""
    return [
        (m0,) + tuple(rest)
        for w in range(max_weight + 1)
        for m0 in range(w + 1)
        for rest in partitions_of_weight(w - m0)
    ]


def _items(Q):
    return [(mu, type(c), c) for mu, c in Q.terms.items()]


_C = CRational
_N_VARS = ("N",)


def _nvars_cases(V):
    """(V, N) for N = 1..3, then V with MPoly coefficients and a symbolic N
    (CRational coefficients do not add to MPoly ones)."""
    for N in (1, 2, 3):
        yield V, N
    lift = [MPoly.const(c, _N_VARS) for c in V.R], [MPoly.const(c, _N_VARS) for c in V.D]
    yield Potential.rational(*lift), MPoly.gen("N", _N_VARS)

POLYNOMIAL = {
    "cubic": Potential.polynomial([1, 0, 1]),  # V' = 1 + x^2
    "quartic": Potential.polynomial([0, 1, 0, 1]),  # V' = x + x^3
    "deg7": Potential.polynomial([0, 1, 0, 0, 0, 0, 0, 1]),  # V' = x + x^7
    "complex_cubic": Potential.polynomial(
        [_C(1, 1), _C(Fraction(1, 2), -1), _C(2, Fraction(1, 3))]
    ),
}
RATIONAL = {
    "x2_plus_2_over_x": Potential.rational([2, 0, 0, 1], [0, 1]),
    "haar": Potential.rational([2], [0, 1]),
    "rational_complex": Potential.rational([_C(2), _C(0, 1), _C(0), _C(1, Fraction(1, 2))], [0, 1]),
    # V' = (1 + x^3) / x^2: zero R_1, R_2 and D_0, D_1, so the zero filter
    # decides which keys come first
    "one_plus_x3_over_x2": Potential.rational([1, 0, 0, 1], [0, 0, 1]),
}


@pytest.mark.parametrize("name", sorted(POLYNOMIAL))
def test_q_polynomial_is_reference_in_order(name):
    for V, nvars in _nvars_cases(POLYNOMIAL[name]):
        for mu in _mus(8):
            assert _items(q_polynomial(mu, V, nvars)) == _items(_reference_q_polynomial(mu, V, nvars))
            # D = 1 is CRational even when R is symbolic; the reference then
            # mixes CRational and MPoly coefficients, so compare values only
            Q = q_rational(mu, V, nvars)
            assert list(Q.terms.items()) == list(_reference_q_rational(mu, V, nvars).terms.items())


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_q_rational_is_reference_in_order(name):
    for V, nvars in _nvars_cases(RATIONAL[name]):
        for mu in _mus(8):
            assert _items(q_rational(mu, V, nvars)) == _items(_reference_q_rational(mu, V, nvars))


def _symbolic_potentials():
    V, _, N = map_potential({3: 1, 4: 1})
    yield pytest.param(V, N, id="maps_t3_t4")
    for d in (1, 2, 3):
        V, _, _, N = symbolic_two_potential(d, 1)
        yield pytest.param(V, N, id=f"two_matrix_V_d{d}")


@pytest.mark.parametrize("V,N", list(_symbolic_potentials()))
def test_symbolic_q_polynomial_is_reference_in_order(V, N):
    for nvars in (2, N):
        for mu in _mus(6):
            got = _items(q_polynomial(mu, V, nvars))
            assert got == _items(_reference_q_polynomial(mu, V, nvars))
            assert all(kind is MPoly for _, kind, _ in got)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("dt", [1, 2, 3])
def test_q_twomatrix_is_reference(d, dt):
    V, Vt, _, N = symbolic_two_potential(d, dt)
    for mu in _mus(3):
        assert q_twomatrix(mu, V, Vt, N) == _reference_q_twomatrix(mu, V, Vt, N)


def test_numeric_q_twomatrix_is_reference():
    # zero t_2 and s_1, s_3: the zero filter drops level-step items here
    V, Vt = Potential.polynomial([1, 0, 1]), Potential.polynomial([0, 1, 0, _C(2, 1)])
    for nvars in (1, 2, 3):
        for mu in _mus(5):
            assert q_twomatrix(mu, V, Vt, nvars) == _reference_q_twomatrix(mu, V, Vt, nvars)
