"""Bit-identity of the N <= 2 quadrature pipeline.

``residuals`` reports equations whose terms cancel to rounding, so the last bit
of every N <= 2 moment and product shows in its output.  The fast paths of
``Potential.exp_neg_V`` and ``_permutation_sum`` must therefore give exactly
the doubles of the plain per-term formulas kept here as references, and the
ray direction cached on ``RaySeg`` must leave its identity (and so the moment
cache keys) as it was.  Every comparison is exact: ``==`` on the raw bytes of
both parts, which also tells -0.0 from 0.0.
"""

import cmath
import hashlib
import itertools
import random
import struct
from fractions import Fraction

import pytest

from loopeq import CRational, Potential, arc_moment, basis_arcs, imaginary_axis_contour, real_axis_contour
from loopeq.cli import CachedMomentTable
from loopeq.contours import RaySeg
from loopeq.quadrature import _permutation_sum


def _bits(z) -> bytes:
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


# -- Potential.exp_neg_V ------------------------------------------------------------


def _reference_exp_neg_v(V, z):
    """e^{-V(z)} with every quotient term summed, zero coefficients included."""
    out = 0j
    for k, c in enumerate(V.partial_fractions[0], start=1):
        out += c / k * z ** k
    val = cmath.exp(-out)
    for p, r in V.partial_fractions[1]:
        val *= (z - p) ** (-r)
    return val


POTENTIALS = {
    "x + x^7": Potential.polynomial([0, 1, 0, 0, 0, 0, 0, 1]),
    "complex cubic": Potential.polynomial(
        [CRational(0), CRational(1, Fraction(1, 2)), CRational(0, Fraction(1, 3)), CRational(1)]
    ),  # V' = (1 + i/2) x + (i/3) x^2 + x^3
    "x^2 + 2/x": Potential.rational([2, 0, 0, 1], [0, 1]),
}


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_exp_neg_v_is_the_per_term_formula(name):
    V = POTENTIALS[name]
    rng = random.Random(name)
    points = [0j, 1 + 0j, -1 + 0j, 1j, -0.5 - 0.25j]
    points += [complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)) for _ in range(400)]
    # along the rays arc_moment walks: base + t e^{i theta}
    points += [t * cmath.exp(1j * rng.uniform(0, 6.3)) for t in (1e-9, 0.3, 1.7, 2.2)]
    if V.partial_fractions[1]:  # z = 0 is the pole of x^2 + 2/x
        points = [z for z in points if z != 0]
    for z in points:
        assert _bits(V.exp_neg_V(z)) == _bits(_reference_exp_neg_v(V, z)), z


# -- _permutation_sum -----------------------------------------------------------------


def _reference_permutation_sum(moment, word, mu):
    """The plain loop: one moment() call per factor of every product."""
    N = len(word)
    perms = list(itertools.permutations(range(N)))
    signs = []
    for p in perms:
        inv = sum(1 for i in range(N) for j in range(i + 1, N) if p[i] > p[j])
        signs.append(-1.0 if inv % 2 else 1.0)
    total = 0j
    err = 0.0
    for assign in itertools.product(range(N), repeat=len(mu)):
        adds = [0] * N
        for part, var in zip(mu, assign):
            adds[var] += part
        for si, sigma in enumerate(perms):
            for ti, tau in enumerate(perms):
                sgn = signs[si] * signs[ti]
                prod = 1.0 + 0j
                emag = 0.0
                pmag = 1.0
                for i in range(N):
                    v, e = moment(word[i], sigma[i] + tau[i] + adds[i])
                    prod *= v
                    emag = emag * (abs(v) + e) + pmag * e
                    pmag *= abs(v)
                total += sgn * prod
                err += emag
    return total, err


def _recording(table):
    """A moment function over ``table`` that logs the first request of each key."""
    seen = []

    def moment(body, k):
        if (body, k) not in seen:
            seen.append((body, k))
        return table[body, k]

    return moment, seen


WORDS = [(0,), ((1, 2),), (0, 1), (1, 1), (1, 0), ((0, 3), (1, 0)), ((1, 0), (1, 0))]
MUS = [(), (1,), (3,), (2, 1), (1, 1, 2), (2, 1, 1, 3)]


@pytest.mark.parametrize("word", WORDS, ids=repr)
@pytest.mark.parametrize("mu", MUS, ids=repr)
@pytest.mark.parametrize("kind", ["random", "zeros"])
def test_permutation_sum_is_the_plain_loop(word, mu, kind):
    rng = random.Random(repr((word, mu, kind)))
    table = {}
    for body in sorted(set(word)):
        for k in range(2 * len(word) - 1 + sum(mu)):
            v = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            e = rng.uniform(0, 1e-9)
            if kind == "zeros" and rng.random() < 0.4:
                v = rng.choice([0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(v.real, 0.0)])
                e = rng.choice([0.0, e])
            table[body, k] = (v, e)
    moment, seen = _recording(table)
    ref_moment, ref_seen = _recording(table)
    got = _permutation_sum(moment, word, mu)
    want = _reference_permutation_sum(ref_moment, word, mu)
    assert (_bits(got[0]), struct.pack("<d", got[1])) == (_bits(want[0]), struct.pack("<d", want[1]))
    # same moments, first requested in the same order (a failing quadrature
    # raises for the same key as before)
    assert seen == ref_seen


def test_permutation_sum_bound_is_zero_on_exact_tables():
    rng = random.Random(7)
    table = {(b, k): (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), 0.0) for b in (0, 1) for k in range(12)}
    for mu in MUS:
        got = _permutation_sum(lambda b, k: table[b, k], (0, 1), mu)
        assert got == _reference_permutation_sum(lambda b, k: table[b, k], (0, 1), mu)
        assert got[1] == 0.0


# -- RaySeg identity and the moment cache keys ------------------------------------------

CONTOUR_POTENTIALS = {
    "cubic": Potential.polynomial([1, 0, 1]),
    "deg7": Potential.polynomial([0, 1, 0, 0, 0, 0, 0, 1]),
    "rational": Potential.rational([2, 0, 0, 1], [0, 1]),
}

# sha256 over the newline-joined lines below, recorded before RaySeg cached its
# direction: repr of each arc, hash of each ray segment, and the cache key of
# each arc (potential JSON, arc repr and tol)
RECORDED = {
    "cubic": (
        "6ecfc2d34616a1f53e20c232300837177092e93a467a59f0a4fd8f5350fce5bc",
        "6e3522954793f2f2a2909ebfcd08d7b54dedbc9ff7e007500caadadfdd0ff4b9",
        "e6898c764a3eb921d29c54debb052e733973af781773c34301cc2c099388c3e5",
    ),
    "deg7": (
        "2aaf2628bc56bc9646b1629c69694ecb2feab6003e247fdecab78c77230d78cb",
        "d3d572bad4879d79c50b0bbdb27fc9123bc5fc38f79535e118e86d83d0fc0100",
        "19540f9a22be78df67e5d68e54871a20c7fc15040e9438fb918c6a8a87df30a5",
    ),
    "rational": (
        "baa44e71006256d1ab197df3a61fdc18a08344021d5789b2dfe9d9992f5f36dd",
        "5e9c6aca605ba6afcdf285e22d140aa34678e8f5f0736d58b43a8c79c57cb32d",
        "675fdea3220e40a0451b5216f71526383f74879fb8340eae8d0e5d82df1a72e0",
    ),
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(map(str, lines)).encode()).hexdigest()


def _identity(arcs, V, tmp_path):
    rays = [seg for arc in arcs for seg in arc.segments if isinstance(seg, RaySeg)]
    table = CachedMomentTable(arcs, V, 1e-12, str(tmp_path))
    return (_digest(repr(a) for a in arcs), _digest(hash(s) for s in rays), _digest(table._arc_keys))


@pytest.mark.parametrize("name", sorted(CONTOUR_POTENTIALS))
def test_ray_segments_keep_identity_and_cache_keys(name, tmp_path):
    V = CONTOUR_POTENTIALS[name]
    arcs = basis_arcs(V)
    before = _identity(arcs, V, tmp_path)
    for arc in arcs:  # walks every ray, so any cached direction is filled in
        arc_moment(arc, V, 1, 1e-10)
    assert _identity(arcs, V, tmp_path) == before == RECORDED[name]
    for arc in arcs:
        for seg in arc.segments:
            if isinstance(seg, RaySeg):
                twin = RaySeg(base=seg.base, angle=seg.angle, inward=seg.inward)
                assert seg == twin and hash(seg) == hash(twin) and repr(seg) == repr(twin)


def test_axis_rays_point_along_their_angle():
    # e^{-x^2/2} on the real axis, e^{+x^2/2} on the imaginary one
    for c, V in ((real_axis_contour(), Potential.polynomial([0, 1])),
                 (imaginary_axis_contour(), Potential.polynomial([0, -1]))):
        arc_moment(c, V, 2, 1e-12)
        for seg in c.segments:
            for s in (0.0, 0.5, 3.0):
                assert _bits(seg.point(s)) == _bits(seg.base + s * cmath.exp(1j * seg.angle))
            assert _bits(seg.tangent(1.0)) == _bits(cmath.exp(1j * seg.angle))
