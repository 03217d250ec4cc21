"""Bit-identity of the N <= 2 quadrature pipeline.

``residuals`` reports equations whose terms cancel to rounding, so the last bit
of every N <= 2 moment and product shows in its output.  The fast paths of
``Potential.exp_neg_V`` and ``_permutation_sum`` must therefore give exactly
the doubles of the plain per-term formulas kept here as references, the ray
direction cached on ``RaySeg`` must leave its identity (and so the moment
cache keys, which must also equal ``hashlib.sha256``'s) as it was, the circle
trapezoid over Python floats must sum what it summed over numpy nodes, and
``_quad_complex``, which calls QUADPACK's compiled QAGS directly on a real and
an imaginary integrand, must give what ``scipy.integrate.quad`` gives on the
complex integrand they make up.  Every comparison is exact: ``==`` on the raw
bytes (or ``float.hex``) of both parts, which also tells -0.0 from 0.0.
"""

import cmath
import hashlib
import itertools
import json
import os
import random
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import loopeq
from loopeq import (
    CRational,
    DiscriminatorEngine,
    Potential,
    arc_moment,
    basis_arcs,
    imaginary_axis_contour,
    quadrature,
    real_axis_contour,
)
from loopeq.cli import CachedMomentTable
from loopeq.contours import ArcSeg, RaySeg
from loopeq.quadrature import _permutation_sum, _quad_complex

from conftest import MomentLookup


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
    got = _permutation_sum(MomentLookup(moment), word, mu)
    want = _reference_permutation_sum(ref_moment, word, mu)
    assert (_bits(got[0]), struct.pack("<d", got[1])) == (_bits(want[0]), struct.pack("<d", want[1]))
    # same moments, first requested in the same order (a failing quadrature
    # raises for the same key as before)
    assert seen == ref_seen


def test_permutation_sum_bound_is_zero_on_exact_tables():
    rng = random.Random(7)
    table = {(b, k): (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), 0.0) for b in (0, 1) for k in range(12)}
    for mu in MUS:
        got = _permutation_sum(table, (0, 1), mu)
        assert got == _reference_permutation_sum(lambda b, k: table[b, k], (0, 1), mu)
        assert got[1] == 0.0


# -- RaySeg identity and the moment cache keys ------------------------------------------

CONTOUR_POTENTIALS = {
    "cubic": Potential.polynomial([1, 0, 1]),
    "deg7": Potential.polynomial([0, 1, 0, 0, 0, 0, 0, 1]),
    "rational": Potential.rational([2, 0, 0, 1], [0, 1]),
}

# sha256 over the newline-joined lines below: repr of each arc, hash of each ray
# segment, and the cache key of each arc (potential JSON, the arc's segments and
# tol).  The ray hashes were recorded before RaySeg cached its direction; the
# arc reprs and cache keys were re-recorded when Contour dropped its endpoint
# tags and the cache began keying an arc by its segments, which changed both
RECORDED = {
    "cubic": (
        "1b0bfb1e99322ebaafc0c02e584410329ec228e73755e6c008ec5841bc5d8f31",
        "6e3522954793f2f2a2909ebfcd08d7b54dedbc9ff7e007500caadadfdd0ff4b9",
        "6d2e537946fd6f549f48b27598f09c432a683a567e7b778a35949696a6fd1843",
    ),
    "deg7": (
        "11693be2c813a4f1222309c5e1d1b9d61853252ea8c0e060b83626d977537072",
        "d3d572bad4879d79c50b0bbdb27fc9123bc5fc38f79535e118e86d83d0fc0100",
        "bd102cec8ff86f5695d594ab0ec3c5deb2477993788c0f1349fce475073c63a9",
    ),
    "rational": (
        "ca257cf774ecaf18e560b01d011d79c155815fe27ea3db26d1dd5d2b8f0bab3c",
        "5e9c6aca605ba6afcdf285e22d140aa34678e8f5f0736d58b43a8c79c57cb32d",
        "0011c6b7860f3b7203cb4756bc785ce6abbb01da2cdbc5d98c4dc435ee362534",
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


@pytest.mark.parametrize("name", sorted(CONTOUR_POTENTIALS))
def test_cache_keys_are_hashlib_sha256(name, tmp_path):
    # the keys come from CPython's built-in SHA-256; a cache written with
    # hashlib's keys must still be found
    V = CONTOUR_POTENTIALS[name]
    arcs = basis_arcs(V)
    pot = json.dumps(V.to_json(), sort_keys=True)
    table = CachedMomentTable(arcs, V, 1e-12, str(tmp_path))
    assert table._arc_keys == [hashlib.sha256(f"{pot}|{arc.segments!r}|{1e-12!r}".encode()).hexdigest()
                               for arc in arcs]


def test_axis_rays_point_along_their_angle():
    # e^{-x^2/2} on the real axis, e^{+x^2/2} on the imaginary one
    for c, V in ((real_axis_contour(), Potential.polynomial([0, 1])),
                 (imaginary_axis_contour(), Potential.polynomial([0, -1]))):
        arc_moment(c, V, 2, 1e-12)
        for seg in c.segments:
            for s in (0.0, 0.5, 3.0):
                assert _bits(seg.point(s)) == _bits(seg.base + s * cmath.exp(1j * seg.angle))
            assert _bits(seg.tangent(1.0)) == _bits(cmath.exp(1j * seg.angle))


# -- periodic trapezoid on circles ---------------------------------------------------


def _numpy_node_trapezoid(f, a, b, tol):
    """``_trapezoid_circle`` as it ran over numpy nodes ``a + np.arange(m) * h``,
    with the same rounding term m u h sum |f| added to the error bar."""
    import numpy as np

    m, prev = 64, None
    while True:
        h = (b - a) / m
        total, mag = 0j, 0.0
        for t in a + np.arange(m) * h:
            total += f(t)
            mag += abs(f(t))
        val = total * h
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val, abs(val - prev) + m * 2.0 ** -53 * h * mag
        prev, m = val, 2 * m


@pytest.mark.parametrize("k", range(5))
def test_circle_trapezoid_over_floats_is_the_numpy_node_loop(k):
    V = CONTOUR_POTENTIALS["rational"]
    ((seg,),) = [arc.segments for arc in basis_arcs(V) if arc.closed]

    def f(t):  # arc_moment's integrand on a circle
        z = seg.point(t)
        return z ** k * V.exp_neg_V(z) * seg.tangent(t)

    got = quadrature._trapezoid_circle(f, *seg.bounds, 1e-12)
    want = _numpy_node_trapezoid(f, *seg.bounds, 1e-12)
    assert [z.hex() for z in (got[0].real, got[0].imag, got[1])] == \
        [z.hex() for z in (want[0].real, want[0].imag, want[1])]


# -- _quad_complex against scipy.integrate.quad ---------------------------------------


def _scipy_quad_complex(f, a, b, tol):
    """The rule on scipy.integrate.quad: (value, error, limit that passed)."""
    from scipy.integrate import quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad warns where QAGS returns ier > 0
        for limit in (200, 800):
            val, err = quad(f, a, b, epsabs=tol * 1e-2, epsrel=tol, limit=limit, complex_func=True)
            if abs(err) <= max(tol * 1e-2, tol * abs(val)) * 10 + 1e-300:
                return val, abs(err), limit
    raise AssertionError("scipy.integrate.quad did not reach the tolerance")


def _recorded(monkeypatch, module, run):
    """The (re_f, im_f, a, b, tol) that ``run`` passes to ``module._quad_complex``."""
    calls = []

    def record(re_f, im_f, a, b, tol):
        calls.append((re_f, im_f, a, b, tol))
        return _quad_complex(re_f, im_f, a, b, tol)

    with monkeypatch.context() as m:
        m.setattr(module, "_quad_complex", record)
        run()
    return calls


def _quad_calls(case, monkeypatch):
    cubic = CONTOUR_POTENTIALS["cubic"]
    if case == "truncated ray":  # the two rays of a cubic elbow, each cut at its tail
        arc = basis_arcs(cubic)[0]
        return _recorded(monkeypatch, quadrature, lambda: arc_moment(arc, cubic, 3, 1e-12))
    if case == "elbow arc":  # the circular join of an elbow around the pole of x^2 + 2/x
        V = CONTOUR_POTENTIALS["rational"]
        joins = [seg.bounds for arc in basis_arcs(V) for seg in arc.segments if isinstance(seg, ArcSeg)]
        calls = []
        for arc in basis_arcs(V):
            calls += _recorded(monkeypatch, quadrature, lambda: arc_moment(arc, V, 2, 1e-12))
        return [c for c in calls if (c[2], c[3]) in joins]
    if case == "discriminator primitive":  # R_0(62), the ray through saddle 0 at r = 60
        engine = DiscriminatorEngine(cubic, 60)
        return _recorded(monkeypatch, quadrature, lambda: engine._ray(0, 62))
    # 477 oscillations on [0, 20]: 200 subintervals fall short, 800 pass
    return [(lambda x: cmath.exp(150j * x - x).real, lambda x: cmath.exp(150j * x - x).imag, 0.0, 20.0, 1e-10)]


@pytest.mark.parametrize("case", ["truncated ray", "elbow arc", "discriminator primitive", "limit-800 retry"])
def test_quad_complex_is_scipy_quad(case, monkeypatch):
    calls = _quad_calls(case, monkeypatch)
    assert calls
    for re_f, im_f, a, b, tol in calls:
        assert a < b
        seen = [[], []]
        got = _quad_complex(lambda x: seen[0].append(x) or re_f(x), lambda x: seen[0].append(x) or im_f(x),
                            a, b, tol)
        # scipy's complex_func=True integrates the real, then the imaginary part of one complex integrand
        want = _scipy_quad_complex(lambda x: seen[1].append(x) or complex(re_f(x), im_f(x)), a, b, tol)
        assert [z.hex() for z in (got[0].real, got[0].imag, got[1])] == \
            [z.hex() for z in (want[0].real, want[0].imag, want[1])]
        assert seen[0] == seen[1]  # the same integrand evaluations, in the same order
        assert want[2] == (800 if case == "limit-800 retry" else 200)


def _python(script):
    """Run ``script`` in a fresh interpreter that imports loopeq from this checkout."""
    src = str(Path(loopeq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)


def test_cli_never_imports_scipy_integrate(tmp_path):
    potential = tmp_path / "cubic.json"
    potential.write_text(json.dumps({"kind": "polynomial", "t": [["1", "0"], ["0", "0"], ["1", "0"]]}))
    argv = ["iso", "--potential", str(potential), "--N", "2", "--out", str(tmp_path / "iso.json")]
    done = _python(
        "import sys, loopeq.cli\n"
        f"assert loopeq.cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))\n"
    )
    assert done.returncode == 0, done.stderr
    # neither scipy.integrate nor the extension loaded from its directory is registered;
    # QAGS's callback support does import the light ``scipy`` package itself
    assert done.stdout.strip() == "[]"


def test_missing_quadpack_names_the_scipy_version():
    from importlib.metadata import version

    done = _python("import importlib.machinery as m\nm.EXTENSION_SUFFIXES[:] = ['.missing']\nimport loopeq")
    assert done.returncode == 1
    assert done.stderr.rstrip().endswith(
        f"ImportError: no compiled QUADPACK (integrate/_quadpack) in scipy {version('scipy')}")
