import random
from fractions import Fraction
from math import comb, factorial

import pytest

from loopeq import (
    CRational,
    MPoly,
    Partition,
    PowerSumPoly,
    eval_powersum,
    partitions_in_box,
    partitions_of_weight,
    reduce_length,
)
from conftest import distinct_rational_points


def test_partition_validation():
    assert Partition((3, 2, 2)) == (3, 2, 2)
    assert Partition.of([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_build_validates_indices():
    assert PowerSumPoly.build([((1, 0, 3, 2), CRational(1))], 2).terms == {(3, 2, 1): CRational(2)}
    for idx in ((2, -1), (1.5, 1), (0, 2.0)):
        with pytest.raises(ValueError):
            PowerSumPoly.build([(idx, CRational(1))], 2)


def _reference_mono_times_pk(mono, k, N):
    """m_lam * p_k re-sorting every result through Partition.of."""
    out = {}
    for lam, c in mono.items():
        for i, v in enumerate(lam):
            if v in lam[:i]:
                continue
            new = Partition.of(lam[:i] + lam[i + 1:] + (v + k,))
            out[new] = out.get(new, 0) + c * new.count(v + k)
        if len(lam) < N:
            new = Partition.of(lam + (k,))
            out[new] = out.get(new, 0) + c * new.count(k)
    return out


def test_mono_times_pk_matches_resorting():
    from loopeq.symfunc import _mono_times_pk

    rng = random.Random(5)
    for N in (1, 2, 3, 5):
        for w in range(0, 9):
            mono = {lam: rng.randint(-4, 4) or 1 for lam in partitions_of_weight(w) if len(lam) <= N}
            for k in (1, 2, 3, 5):
                got = _mono_times_pk(mono, k, N)
                want = _reference_mono_times_pk(mono, k, N)
                assert list(got.items()) == list(want.items())
                assert all(type(lam) is Partition for lam in got)


def test_partitions_in_box_examples():
    assert partitions_in_box(2, 1) == [(), (1,), (1, 1)]
    assert partitions_in_box(3, 0) == [()]
    assert partitions_in_box(2, 2) == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]


def test_partitions_in_box_counts():
    for N in range(1, 7):
        for d in range(1, 6):
            assert len(partitions_in_box(N, d - 1)) == comb(N + d - 1, N)


def test_eval_powersum_examples():
    p2 = PowerSumPoly.monomial((2,), 2)
    assert eval_powersum(p2, [CRational(1), CRational(2)]) == CRational(5)
    p11 = PowerSumPoly.monomial((1, 1), 2)
    assert eval_powersum(p11, [CRational(1), CRational(2)]) == CRational(9)
    p21 = PowerSumPoly.monomial((2, 1), 2)
    i = CRational(0, 1)
    assert eval_powersum(p21, [i, CRational(1)]) == CRational(0)


def test_eval_powersum_length_mismatch():
    p = PowerSumPoly.monomial((1,), 3)
    with pytest.raises(ValueError):
        eval_powersum(p, [CRational(1)])


def test_p0_folding():
    # p_0 is the variable count, folded into coefficients at construction
    p = PowerSumPoly.build([((0, 2), CRational(1))], 3)
    assert p.terms == {Partition((2,)): CRational(3)}
    q = PowerSumPoly.build([((0, 0), CRational(1))], 2)
    assert q.terms == {Partition(()): CRational(4)}


def test_reduce_length_examples():
    # one variable: x * x = x^2
    p = reduce_length(PowerSumPoly.monomial((1, 1), 1), 1)
    assert p.terms == {Partition((2,)): CRational(1)}
    # two variables: p_111 = 3 p_21 - 2 p_3
    p = reduce_length(PowerSumPoly.monomial((1, 1, 1), 2), 2)
    assert p.terms == {
        Partition((2, 1)): CRational(3),
        Partition((3,)): CRational(-2),
    }
    # already short: identity
    p0 = PowerSumPoly.monomial((1, 1), 3)
    assert reduce_length(p0, 3) == p0


def test_reduce_length_merges_a_short_term_with_a_long_terms_expansion():
    # p_111 + 3 p_21 at N = 2: p_111 expands to 3 p_21 - 2 p_3, which meets the short p_21
    long, short = Partition((1, 1, 1)), Partition((2, 1))
    rng = random.Random(3)
    for order in ((long, short), (short, long)):
        coeffs = {long: CRational(1), short: CRational(3)}
        p = PowerSumPoly({mu: coeffs[mu] for mu in order}, 2)
        red = reduce_length(p, 2)
        assert red.terms == {short: CRational(6), Partition((3,)): CRational(-2)}
        for _ in range(5):
            pts = distinct_rational_points(rng, 2)
            assert eval_powersum(red, pts) == eval_powersum(p, pts)


def test_reduce_length_random_exactness():
    rng = random.Random(11)
    cases = 0
    while cases < 120:
        N = rng.randint(1, 4)
        ell = rng.randint(1, 6)
        parts = sorted((rng.randint(1, 4) for _ in range(ell)), reverse=True)
        mu = Partition(tuple(parts))
        if mu.weight > 10:
            continue
        cases += 1
        p = PowerSumPoly.monomial(mu, N)
        red = reduce_length(p, N)
        assert red.max_length() <= N
        pts = distinct_rational_points(rng, N)
        assert eval_powersum(red, pts) == eval_powersum(p, pts)


def _reference_reduce_length(p, N):
    """reduce_length before its rows were scaled to N!: the double loop over
    _p_to_mono and (multiplicity product, unscaled Moebius row) pairs."""
    from loopeq.symfunc import _p_to_mono, _set_partitions

    def mono_to_p(lam):
        acc = {}
        for pi in _set_partitions(len(lam)):
            coeff, sums = 1, []
            for block in pi:
                coeff *= (-1) ** (len(block) - 1) * factorial(len(block) - 1)
                sums.append(sum(lam[i] for i in block))
            nu = Partition.of(sums)
            acc[nu] = acc.get(nu, 0) + coeff
        mult = 1
        for v in set(lam):
            mult *= factorial(lam.count(v))
        return mult, {nu: c for nu, c in acc.items() if c}

    out = {}
    den = factorial(N)
    for mu, c in p.terms.items():
        if len(mu) <= N:
            out[mu] = out[mu] + c if mu in out else c
            continue
        expansion = {}
        for lam, q in _p_to_mono(mu, N).items():
            mult, coeffs = mono_to_p(lam)
            q *= den // mult
            for nu, a in coeffs.items():
                expansion[nu] = expansion.get(nu, 0) + q * a
        for nu, a in expansion.items():
            v = CRational.from_ints(c.n * a, c.m * a, c.d * den)
            out[nu] = out[nu] + v if nu in out else v
    return out


def test_reduce_length_keeps_its_term_order():
    # expectation sums reduce_length's terms in this order, so at N <= 2 the order fixes bits
    c = CRational(Fraction(-2, 3), Fraction(5, 7))
    for N in range(1, 5):
        for w in range(N + 1, 13):
            for mu in partitions_of_weight(w):
                if len(mu) <= N:
                    continue
                p = PowerSumPoly({mu: c}, N)
                want = _reference_reduce_length(p, N)
                assert list(reduce_length(p, N).terms.items()) == list(want.items())


def test_reduce_length_tables_do_not_depend_on_fill_order():
    # the moves, prefix and row tables are process-wide: a term's expansion must not
    # depend on which partitions filled them first
    from loopeq.symfunc import _mono_to_p, _p_to_mono, _times_pk_moves

    def run(N, mus):
        out = {}
        for mu in mus:
            red = reduce_length(PowerSumPoly({mu: CRational(1)}, N), N)
            out[mu] = [(nu, (c.n, c.m, c.d)) for nu, c in red.terms.items()]
        return out

    def clear():
        for table in (_times_pk_moves, _p_to_mono, _mono_to_p):
            table.cache_clear()

    for N, w_max in ((3, 14), (2, 10)):
        mus = [mu for w in range(w_max + 1) for mu in partitions_of_weight(w) if len(mu) > N]
        clear()
        cold = run(N, mus)
        assert run(N, mus) == cold
        clear()
        assert run(N, mus[::-1]) == cold


def test_reduce_length_scales_any_ring_coefficient():
    # CRational coefficients are scaled in ints; ints and MPoly go through the ring product
    c = CRational(Fraction(-3, 4), Fraction(5, 6))
    t = MPoly.gen("t", ("t",))
    for mu, N in (((1, 1, 1), 2), ((3, 2, 2, 1), 3), ((2, 1, 1, 1, 1), 2)):
        unit = reduce_length(PowerSumPoly.monomial(mu, N), N).terms
        for coeff in (c, 3, t * c):
            red = reduce_length(PowerSumPoly.build([(mu, coeff)], N), N)
            assert red.terms == {nu: coeff * v for nu, v in unit.items()}


def test_reduce_length_is_projection_and_preserves_weight():
    rng = random.Random(5)
    for _ in range(40):
        N = rng.randint(1, 3)
        ell = rng.randint(2, 6)
        parts = sorted((rng.randint(1, 3) for _ in range(ell)), reverse=True)
        mu = Partition(tuple(parts))
        p = PowerSumPoly.monomial(mu, N)
        once = reduce_length(p, N)
        twice = reduce_length(once, N)
        assert once == twice
        # homogeneous input stays homogeneous of the same weight
        assert {nu.weight for nu in once.terms} <= {mu.weight}


def test_powersum_arithmetic_and_json():
    a = PowerSumPoly.build([((2,), CRational(1)), ((1, 1), CRational(0, 1))], 2)
    b = PowerSumPoly.monomial((2,), 2)
    c = a - b
    assert c.terms == {Partition((1, 1)): CRational(0, 1)}
    assert a.to_json() == [{"mu": [2], "re": "1", "im": "0"}, {"mu": [1, 1], "re": "0", "im": "1"}]


def test_partitions_of_weight():
    assert partitions_of_weight(0) == [()]
    assert partitions_of_weight(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]  # reverse lexicographic
