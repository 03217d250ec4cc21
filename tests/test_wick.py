import functools
import random
from collections import Counter
from fractions import Fraction

import pytest

from loopeq import (
    CRational,
    MomentTable,
    MPoly,
    PowerSumPoly,
    expectation,
    gaussian_trace_moment,
    map_series,
    real_power_class,
    tutte_residual,
)
from loopeq import wick
from loopeq.wick import map_potential


def test_gtm_examples():
    N = MPoly.gen("N", ("N",))
    assert gaussian_trace_moment((2,)) == N ** 2
    assert gaussian_trace_moment((4,)) == 2 * N ** 3 + N
    assert gaussian_trace_moment((1, 1)) == N
    assert gaussian_trace_moment((6,)) == 5 * N ** 4 + 10 * N ** 2


def test_gtm_odd_vanishes():
    assert gaussian_trace_moment((3,)).is_zero()
    assert gaussian_trace_moment((2, 1)).is_zero()


def test_gtm_permutation_invariance():
    rng = random.Random(2)
    for _ in range(10):
        powers = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        if sum(powers) % 2 or sum(powers) > 12:
            continue
        base = gaussian_trace_moment(tuple(powers))
        rng.shuffle(powers)
        assert gaussian_trace_moment(tuple(powers)) == base


def _multisets(total, largest=None):
    """Multisets of positive powers with the given sum, as descending tuples."""
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    for k in range(min(total, largest), 0, -1):
        for rest in _multisets(total - k, k):
            yield (k,) + rest


@functools.cache
def _matchings(h):
    """Every perfect matching of {0..h-1}, each as a tuple pi with pi[pi[x]] = x."""
    if h == 0:
        return ((),)
    out = []
    for i in range(1, h):
        # pair 0 with i; the rest is a matching of the h - 2 others, relabelled
        others = [x for x in range(1, h) if x != i]
        for rest in _matchings(h - 2):
            pi = [0] * h
            pi[0], pi[i] = i, 0
            for a, b in enumerate(rest):
                pi[others[a]] = others[b]
            out.append(tuple(pi))
    return tuple(out)


def _gamma(powers):
    """The product of the trace cycles, each on consecutive half-edges."""
    gamma, pos = [], 0
    for k in powers:
        gamma += [pos + (i + 1) % k for i in range(k)]
        pos += k
    return gamma


def _brute_counts_of(gamma):
    """{faces: matchings} by listing every perfect matching and walking gamma.pi."""
    h = len(gamma)
    counts = Counter()
    for pi in _matchings(h):
        seen, faces = [False] * h, 0
        for x in range(h):
            faces += not seen[x]
            while not seen[x]:
                seen[x] = True
                x = gamma[pi[x]]
        counts[faces] += 1
    return dict(counts)


def _poly(counts):
    """{faces: matchings} as the polynomial sum of matchings * N^faces."""
    return MPoly(("N",), {(c,): CRational(n) for c, n in counts.items()})


@functools.cache
def _brute_face_counts(powers):
    """The brute-force counts of a multiset, kept, since they depend on nothing else."""
    return _brute_counts_of(_gamma(powers))


def test_gtm_matches_brute_force_matchings():
    for h in range(2, 11, 2):
        for powers in _multisets(h):
            assert gaussian_trace_moment(powers) == _poly(_brute_face_counts(powers)), powers


def test_shared_face_memo_matches_brute_force_in_any_order():
    # one memo serves every multiset: states met first under one key must give
    # the same counts under another, whichever key is walked first
    keys = [powers for h in range(2, 13, 2) for powers in _multisets(h)]
    for order in (keys, keys[::-1]):
        wick._count_faces.cache_clear()
        for powers in order:
            assert gaussian_trace_moment(powers) == _poly(_brute_face_counts(powers)), powers


def test_face_counts_depend_only_on_the_cycle_type():
    # the memo key: relabelling the half-edges by sigma conjugates gamma, and
    # the matchings of sigma gamma sigma^-1 close the faces gamma's do
    rng = random.Random(5)
    for h in range(2, 9, 2):
        for powers in _multisets(h):
            gamma = _gamma(powers)
            for _ in range(3):
                sigma = list(range(h))
                rng.shuffle(sigma)
                conj = [0] * h
                for x in range(h):
                    conj[sigma[x]] = sigma[gamma[x]]
                assert gaussian_trace_moment(powers) == _poly(_brute_counts_of(conj)), (powers, sigma)


def test_reordered_key_adds_no_memo_state():
    # (4, 3, 3) has the cycle type of (3, 3, 4), so it is the same memo key
    first = gaussian_trace_moment((3, 3, 4))
    states = wick._count_faces.cache_info().currsize
    assert gaussian_trace_moment((4, 3, 3)) == first
    assert wick._count_faces.cache_info().currsize == states


def test_tutte_order6_memo_size():
    # the 17 trace moments of tutte --t3 1 --t4 1 --mu 2 --order 6 leave one
    # memo entry per cycle type the walk meets
    wick._count_faces.cache_clear()
    assert tutte_residual({3: 1, 4: 1}, (2,), 6).is_zero()
    assert wick._count_faces.cache_info().currsize == 40


def test_gtm_single_trace_is_harer_zagier():
    # (n+1) e_g(n) = 2(2n-1) e_g(n-1) + (n-1)(2n-1)(2n-3) e_{g-1}(n-2), e_0(0) = 1,
    # and <Tr M^{2n}> = sum_g e_g(n) N^{n+1-2g} (Harer-Zagier 1986)
    eps = {(0, 0): 1}
    for n in range(1, 13):
        for g in range(n // 2 + 1):
            rec = 2 * (2 * n - 1) * eps.get((g, n - 1), 0)
            rec += (n - 1) * (2 * n - 1) * (2 * n - 3) * eps.get((g - 1, n - 2), 0)
            assert rec % (n + 1) == 0
            eps[(g, n)] = rec // (n + 1)
        genera = range(n // 2 + 1)
        expect = MPoly(("N",), {(n + 1 - 2 * g,): CRational(eps[(g, n)]) for g in genera})
        assert gaussian_trace_moment((2 * n,)) == expect, n


def test_gtm_scalar_specialization():
    # at N = 1 every matching weighs 1: (h-1)!! for every multiset up to the cap
    dfact = 1
    for h in range(2, wick.HALF_EDGE_CAP + 1, 2):
        dfact *= h - 1
        for powers in _multisets(h):
            assert gaussian_trace_moment(powers).eval({"N": 1}) == CRational(dfact), powers


def test_gtm_cap():
    with pytest.raises(ValueError):
        gaussian_trace_moment((26,))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_gtm_cross_validates_quadrature(N, gauss):
    G = real_power_class(N)
    Z, _ = expectation(G, PowerSumPoly.monomial((), N), MomentTable(G.arc_basis, gauss, 1e-12))
    for powers in [(2,), (4,)]:
        v, _ = expectation(
            G, PowerSumPoly.monomial(powers, N), MomentTable(G.arc_basis, gauss, 1e-12)
        )
        pred = complex(gaussian_trace_moment(powers).eval({"N": N}))
        assert abs(v / Z - pred) < 1e-8 * max(1.0, abs(pred))


def test_map_series_normalization():
    s = map_series({3: 1}, (), 0)
    assert s.get(0) == MPoly.const(1, s.vars)


def test_map_series_single_edge_seed():
    # the order-t seed is the size-2 marked face: <Tr M^2> = t N
    s = map_series({}, (2,), 1)
    assert s.get(1) == MPoly.gen("N", s.vars)
    # a size-1 marked face alone has half-integer edge count: nothing survives
    s1 = map_series({}, (1,), 1)
    assert s1.is_zero()


def test_map_series_quartic_prefactor():
    # one quartic vertex against a size-2 marked face: weight (t4/4) N^{1-3} GTM((2,4))
    s = map_series({4: Fraction(1)}, (2,), 3)
    vars = s.vars
    expect = MPoly(vars, {(1 - 3 + c, 1): q / 4 for (c,), q in
                          gaussian_trace_moment((2, 4)).terms.items()})
    assert s.get(3) == expect


def test_map_series_connected_planar_count():
    # coefficient of t^2 in T_(1) for the cubic model: one triangle glued to a
    # one-edge marked face; Wick gives <Tr M Tr M^3> (t/N)^2 (N t3 / 3) = N t3 t^2
    s = map_series({3: 1}, (1,), 2)
    vars = s.vars
    assert s.get(2) == MPoly(vars, {(1, 1): CRational(1)})


def test_map_potential_shape():
    V, qvars, N = map_potential({3: 1})
    assert V.d == 2
    # tau_2 = N/t
    assert V.R[1] == MPoly.gen("N", qvars) * MPoly.gen("t", qvars, power=-1)


@pytest.mark.parametrize("mu", [(1,), (3,), (2, 1), (1, 1, 1)])
def test_tutte_residual_cubic(mu):
    res = tutte_residual({3: 1}, mu, 3)
    assert res.is_zero(), {e: str(p) for e, p in res.coeffs.items()}


@pytest.mark.parametrize("mu", [(1,), (2,), (3,), (2, 2)])
def test_tutte_residual_quartic(mu):
    res = tutte_residual({4: 1}, mu, 4)
    assert res.is_zero()


def test_tutte_residual_mixed_model():
    res = tutte_residual({3: Fraction(1, 2), 4: Fraction(2, 3)}, (2,), 3)
    assert res.is_zero()


def test_tutte_residual_detects_mismatched_weights():
    # the cancellation is nontrivial: pairing the t3=2 potential with the
    # t3=1 series leaves a nonzero residual, while consistent weights cancel
    from loopeq import q_polynomial
    from loopeq.wick import apply_functional

    V, qvars, N = map_potential({3: 2})
    Q = q_polynomial((1,), V, nvars=N)
    assert tutte_residual({3: 2}, (1,), 3).is_zero()
    mismatched = apply_functional(Q, qvars, {3: 1}, 3)
    assert not mismatched.is_zero()


def test_apply_functional_past_the_half_edge_cap():
    # map_series stops at order 11; only a direct call reaches 26 half-edges
    from loopeq import q_polynomial
    from loopeq.wick import apply_functional

    V, qvars, N = map_potential({3: 1})
    Q = q_polynomial((1,), V, nvars=N)
    with pytest.raises(ValueError, match="cap 24"):
        apply_functional(Q, qvars, {3: 1}, 12)


def test_tutte_order_cap():
    # tutte runs its series one edge order past --order, so the order cap is
    # the half-edge cap's edge count less one
    message = r"edge order 12 outside 0\.\.11 \(11 is the complexity cap\)"
    with pytest.raises(ValueError, match=message):
        tutte_residual({3: 1}, (1,), 12)
    with pytest.raises(ValueError, match=message):
        map_series({3: 1}, (1,), 12)
    assert tutte_residual({3: 1}, (1,), 0).e_max == 0


def test_vertex_weights_start_at_degree_three():
    from loopeq import q_polynomial
    from loopeq.wick import apply_functional

    V, qvars, N = map_potential({3: 1})
    Q = q_polynomial((1,), V, nvars=N)
    calls = [
        lambda w: map_series(w, (1,), 2),
        map_potential,
        lambda w: apply_functional(Q, qvars, w, 2),
        lambda w: tutte_residual(w, (1,), 2),
    ]
    for call in calls:
        for weights in ({2: 1}, {2: 1, 3: 1}):
            with pytest.raises(ValueError, match="^vertex weights start at degree 3$"):
                call(weights)
