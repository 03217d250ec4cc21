import random
from fractions import Fraction
from math import gcd

import pytest

from loopeq import (
    CRational,
    LoopReducer,
    Partition,
    Potential,
    hn_dimension,
    loop_tuples,
    partitions_in_box,
    partitions_of_weight,
    q_polynomial,
    q_rational,
    residuals,
    solve_moments,
)
from conftest import rand_crational


def test_hn_dimension_examples():
    assert hn_dimension(2, 3) == 6
    for d in range(1, 8):
        assert hn_dimension(1, d) == d
    for N in range(1, 8):
        assert hn_dimension(N, 1) == 1


def test_basis_key_validation(cubic):
    with pytest.raises(ValueError, match="basis keys must be exactly the box partitions"):
        solve_moments(cubic, 2, {Partition(()): 1.0}, [(2,)])


def test_gaussian_solve_examples(gauss):
    Z = CRational(1)
    vals, _ = solve_moments(gauss, 2, {Partition(()): Z}, [(2,), (1,), (4,)])
    assert vals[Partition((2,))] == CRational(4)  # N^2 Z
    assert vals[Partition((1,))] == CRational(0)
    assert vals[Partition((4,))] == CRational(18)  # (2N^3+N) Z at N=2


def test_gaussian_solve_matches_wick_at_other_N(gauss):
    from loopeq import gaussian_trace_moment

    for N in (1, 3):
        vals, _ = solve_moments(gauss, N, {Partition(()): CRational(1)}, [(2,), (4,), (2, 2)])
        for mu in vals:
            wick = gaussian_trace_moment(tuple(mu)).eval({"N": N})
            assert vals[mu] == wick


def test_float_solve_is_the_sum_of_reduced_coefficients_bit_for_bit():
    # V' = (1 + 2i) + x + 3x^3: dividing by the leading 3 puts powers of 3 in
    # the denominators, so most coefficients are not dyadic fractions
    V = Potential.polynomial([CRational(1, 2), 1, 0, 3])
    box = partitions_in_box(3, 2)
    rng = random.Random(7)
    parts = [0.0, -0.0, 1.5, -2.25, rng.uniform(-1, 1)]
    values = {b: complex(rng.choice(parts), rng.choice(parts)) for b in box}
    values[box[1]] = complex(-0.0, -0.0)
    values[box[2]] = complex(-0.0, 0.5)
    targets = [mu for w in range(1, 9) for mu in partitions_of_weight(w)]
    got, red = solve_moments(V, 3, values, targets)
    # some memoized form has an entry whose numerators share a factor with den
    assert any(gcd(re, im, den) > 1 for den, form in red._memo.values() for re, im in form.values())
    ref = LoopReducer(V, 3)
    for mu in targets:
        want = 0j
        for b, w in ref.reduce(mu).items():
            want += w.to_complex() * values[b]
        v = got[Partition.of(mu)]
        assert (v.real.hex(), v.imag.hex()) == (want.real.hex(), want.imag.hex()), mu


def _fraction_combine(terms):
    """sum_j c_j * form_j with Fraction pairs, in first-appearance order."""
    acc = {}
    for c, (den, coeffs) in terms:
        for b, (x, y) in coeffs.items():
            x, y = Fraction(x, den), Fraction(y, den)
            re, im = acc.get(b, (0, 0))
            acc[b] = (re + c.re * x - c.im * y, im + c.re * y + c.im * x)
    return {b: v for b, v in acc.items() if v != (0, 0)}


def test_combine_matches_fraction_arithmetic():
    from loopeq.momsolve import _combine

    a, b, c = Partition(()), Partition((1,)), Partition((2, 1))
    # entries that cancel are dropped; a form that cancels entirely is (1, {})
    assert _combine([(CRational(2), (3, {a: (1, 0), b: (2, 1)})),
                     (CRational(-1), (3, {a: (2, 0), c: (0, 5)}))]) == (3, {b: (4, 2), c: (0, -5)})
    assert _combine([(CRational(1), (2, {a: (1, 1)})), (CRational(-1), (2, {a: (1, 1)}))]) == (1, {})

    rng = random.Random(7)
    basis = [Partition(mu) for mu in ((), (1,), (2,), (1, 1), (2, 1), (2, 2))]
    scalars = [
        CRational(3),  # real
        CRational(Fraction(-5, 6)),  # real with its own denominator
        CRational(2, -1),  # complex
        CRational(Fraction(1, 4), Fraction(3, 10)),  # complex with its own denominator
        CRational(0, 7),  # imaginary
    ]
    for _ in range(300):
        terms = []
        for _ in range(rng.randint(1, 4)):
            keys = rng.sample(basis, rng.randint(1, len(basis)))
            form = (rng.choice((1, 2, 6, 12, 35)),
                    {k: (rng.randint(-3, 3) or 1, rng.randint(-3, 3)) for k in keys})
            terms.append((rng.choice(scalars), form))
        den, coeffs = _combine(terms)
        want = _fraction_combine(terms)
        assert list(coeffs) == list(want)  # first appearance across the terms, zeros dropped
        assert {k: (Fraction(re, den), Fraction(im, den)) for k, (re, im) in coeffs.items()} == want
        assert den > 0 and gcd(den, *(v for pair in coeffs.values() for v in pair)) == 1


def test_reducer_work_on_the_exact_workload(quartic, monkeypatch):
    # every partition of weight 1..14 on quartic N = 3, the exact benchmark's
    # targets: each form is built once, so a memo hit that turned into a
    # recomputation would raise these counts
    from loopeq import momsolve

    counts = {"combine": 0, "reduce_length": 0, "q": 0}

    def counted(name, key):
        fn = getattr(momsolve, name)

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        monkeypatch.setattr(momsolve, name, wrapper)

    counted("_combine", "combine")
    counted("reduce_length", "reduce_length")
    counted("q_polynomial", "q")
    targets = [mu for w in range(1, 15) for mu in partitions_of_weight(w)]
    assert len(targets) == 507
    _, red = solve_moments(quartic, 3, {mu: 1.0 for mu in partitions_in_box(3, 2)}, targets)
    assert len(red._memo) == 508
    assert counts == {"combine": 498, "reduce_length": 361, "q": 137}


def test_solve_refuses_basis_keys_of_another_d(gauss):
    # values on the d = 2 box (2, 1) do not fit the d = 1 potential: its box is {()}
    values = {mu: CRational(1) for mu in partitions_in_box(2, 1)}
    with pytest.raises(ValueError, match="basis keys must be exactly the box partitions"):
        solve_moments(gauss, 2, values, [(2,)])


def test_solve_rejects_non_reducing_rational(haar2):
    with pytest.raises(ValueError):
        solve_moments(haar2, 2, {Partition(()): CRational(1)}, [(1,)])


def test_reduction_linear_form_weights(cubic):
    # d=2: the box is {(), (1,), (1,1)} at N=2; every coefficient is exact
    red = LoopReducer(cubic, 2)
    form = red.reduce((3, 1))
    assert set(form) <= set(partitions_in_box(2, 1))
    assert all(isinstance(c, CRational) for c in form.values())


def test_residuals_zero_functional(gauss):
    oracle = {Partition(tuple(mu)): (0j, 0.0) for mu in _all_partitions(8)}
    rep = residuals(oracle, gauss, 2, 4)
    assert rep.max_relative == 0.0


def test_residuals_detect_perturbation(gauss):
    # Gaussian functional with E(p_2) off by one trips mu=(1)
    from loopeq import gaussian_trace_moment

    oracle = {
        Partition(tuple(mu)): (complex(gaussian_trace_moment(tuple(mu)).eval({"N": 2})), 0.0)
        for mu in _all_partitions(8)
    }
    rep0 = residuals(oracle, gauss, 2, 4)
    assert rep0.max_relative < 1e-14
    assert rep0.outside == []  # exact values: every residual is within its rounding
    value, err = oracle[Partition((2,))]
    oracle[Partition((2,))] = (value + 1.0, err)
    rep1 = residuals(oracle, gauss, 2, 4)
    bad = {mu: rel for (mu, _, _, rel) in rep1.entries if rel > 1e-12}
    assert (1,) in bad
    assert (1,) in [mu for mu, _, _ in rep1.outside]
    assert {mu for mu, _, _ in rep1.outside} <= set(bad)


def test_residuals_missing_values_error(gauss):
    with pytest.raises(KeyError) as exc:
        residuals({Partition(()): (1.0, 0.0)}, gauss, 2, 2)
    assert "missing" in str(exc.value)


def test_loop_tuples_cover():
    ts = loop_tuples(3)
    assert (0,) in ts and (3,) in ts and (0, 1, 1, 1) in ts and (1, 2) in ts
    assert all(sum(t) <= 3 for t in ts)


def _all_partitions(wmax):
    from loopeq import partitions_of_weight

    out = []
    for w in range(wmax + 1):
        out.extend(partitions_of_weight(w))
    return out


def test_coefficient_growth_diagnostic(cubic):
    red = LoopReducer(cubic, 2)
    red.reduce((6, 2))
    assert red.max_abs_coeff >= 1.0
    # the largest modulus over every memoized form, read through ``reduce``
    assert red.max_abs_coeff == max(abs(complex(c)) for nu in red._memo for c in red.reduce(nu).values())


def test_free_basis_dimension_witness(cubic):
    # the reducer leaves every box partition free, so the solution space has
    # exactly binom(N+d-1, N) dimensions
    for N, d in [(2, 2), (3, 2)]:
        red = LoopReducer(cubic, N)
        box = partitions_in_box(N, d - 1)
        assert len(box) == hn_dimension(N, d)
        for nu in box:
            assert red.reduce(nu) == {nu: CRational(1)}


def _random_potential(d):
    """V' of degree d with random complex lower coefficients and lead 2."""
    rng = random.Random(200 + d)
    return Potential.polynomial([rand_crational(rng) for _ in range(d)] + [CRational(2)])


CLOSURE_POTENTIALS = {
    # V' = (1 + i) + (1/2 - i) x + (2 + i/3) x^2: complex, complex leading coefficient
    "cubic-complex": Potential.polynomial(
        [CRational(1, 1), CRational(Fraction(1, 2), -1), CRational(2, Fraction(1, 3))]),
    "quartic": Potential.polynomial([0, 1, 0, 1]),
    "rational": Potential.rational([2, 0, 0, 1], [0, 1]),  # V' = x^2 + 2/x
    "random-d2": _random_potential(2),
    "random-d3": _random_potential(3),
}


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CLOSURE_POTENTIALS))
def test_loop_equations_close_on_the_box(name, N):
    # Algebraic half of the theorem: with the box values left symbolic, every
    # loop equation E(Q_mu) = 0 up to weight 8 reduces to the zero linear form.
    # The reducer uses one equation per reduced partition; the others (other
    # parts eliminated, long tuples going through reduce_length) are only
    # consistent if the box is really free.  So the closure also shows that
    # any other elimination order gives the same forms: two orders differ by
    # a combination of these Q_mu, for every p_mu of weight <= 8 + d.
    V = CLOSURE_POTENTIALS[name]
    red = LoopReducer(V, N)
    for mu in loop_tuples(8):
        Q = q_polynomial(mu, V, N) if V.kind == "polynomial" else q_rational(mu, V, N)
        total: dict = {}
        for nu, c in Q.terms.items():
            for b, w in red.reduce(nu).items():
                total[b] = total.get(b, CRational(0)) + c * w
        assert not any(total.values()), (mu, total)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_gaussian_reduction_is_wick(gauss, N):
    # V' = x: d = 1, the box is {()}, and the reduced form must be the Wick
    # count, which shares no code with the loop-equation generator
    from loopeq import gaussian_trace_moment

    red = LoopReducer(gauss, N)
    for w in range(13):
        for mu in partitions_of_weight(w):
            value = gaussian_trace_moment(tuple(mu)).eval({"N": N})
            assert red.reduce(mu) == ({Partition(()): value} if value else {}), mu
