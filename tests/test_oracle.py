"""1-D arc moments and N-body cells against a 30-digit ``mpmath.quad`` reference.

Every moment's and every cell's error bar must bound its true error:
|value - ref| <= err.  The reference integrates the same segments (rays out
to infinity, circles over their full period, the arcs of an elbow round a
pole, and the discriminator's rays from 0 through the saddles of V_r) with
e^{-V} evaluated in 30-digit arithmetic; a reference cell is the same
``vandermonde_sum`` over those moments, carried out in 30-digit arithmetic.
How loose each bar is, err / |value - ref|, is printed (``pytest -s``) but
not gated.
"""

import cmath
import functools

import mpmath
import pytest

from loopeq import DiscriminatorEngine, Potential, basis_arcs
from loopeq.contours import CircleSeg, RaySeg
from loopeq.quadrature import MomentTable, vandermonde_sum
from loopeq.symfunc import compositions

from conftest import MomentLookup


def _c(*xs):
    return [[str(x), "0"] for x in xs]


# name -> (V, which basis arcs, moments k)
CASES = {
    "x^2 + 2/x circle": ({"kind": "rational", "R": _c(2, 0, 0, 1), "D": _c(0, 1)}, "closed",
                         range(8)),
    "2/x circle": ({"kind": "rational", "R": _c(2), "D": _c(0, 1)}, "closed", range(8)),
    "x + 3/x circle": ({"kind": "rational", "R": _c(3, 0, 1), "D": _c(0, 1)}, "closed", range(8)),
    "cubic elbows": ({"kind": "polynomial", "t": _c(1, 0, 1)}, "open", range(5)),
    "x + x^3 elbows": ({"kind": "polynomial", "t": _c(0, 1, 0, 1)}, "open", range(5)),
}


def _exp_neg_V(V, z):
    """e^{-V(z)} in mpmath arithmetic, from the same partial fractions as ``V.exp_neg_V``."""
    q, poles = V.partial_fractions
    out = mpmath.exp(-mpmath.fsum(c * z ** k / k for k, c in enumerate(q, start=1)))
    for p, r in poles:
        out *= (z - p) ** (-r)
    return out


@functools.cache  # each ray of an elbow basis is walked by two arcs
def _ray_integral(base, angle, V, k):
    step = mpmath.expj(angle)

    def f(s):
        z = base + s * step
        return z ** k * _exp_neg_V(V, z) * step

    return mpmath.quad(f, [0, mpmath.inf])


def _circle_integral(seg, V, k):
    """Along a full circle or an arc of one, over the bounds the code integrates."""
    a, b = (0, 2 * mpmath.pi) if isinstance(seg, CircleSeg) else map(mpmath.mpf, seg.bounds)

    def f(t):
        w = seg.radius * mpmath.expj(t)
        z = seg.center + w
        return z ** k * _exp_neg_V(V, z) * 1j * w

    return mpmath.quad(f, [a, (a + b) / 2, b])


@functools.cache  # every cell of an arc reads its moments again
def _reference(arc, V, k):
    """The 30-digit integral of z^k e^{-V} dz along ``arc``, as an ``mpc``."""
    total = mpmath.mpc(0)
    with mpmath.workdps(30):
        for seg in arc.segments:
            if isinstance(seg, RaySeg):
                val = _ray_integral(seg.base, seg.angle, V, k)
            else:
                val = _circle_integral(seg, V, k)
            total += -val if seg.inward else val
    return total


def _loose(miss, err):
    return f"{err / miss if miss else float('inf'):.3g}x"


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_bar_bounds_the_true_error(name):
    data, kind, ks = CASES[name]
    V = Potential.from_json(data)
    arcs = basis_arcs(V)
    table = MomentTable(arcs, V, 1e-12)
    failures = []
    for i, arc in enumerate(arcs):
        if arc.closed != (kind == "closed"):
            continue
        for k in ks:
            value, err = table.moment(i, k)
            miss = float(abs(value - _reference(arc, V, k)))
            print(f"{name} {arc.label} k={k}: |value - ref| = {miss:.2e}, bar {err:.2e}"
                  f" ({_loose(miss, err)})")
            if miss > err:
                failures.append((arc.label, k, miss, err))
    assert not failures


def test_saddle_ray_bars_bound_the_true_error():
    # the discriminator's ray moments R_j(q) = integral of x^q e^{-V} from 0 out through
    # saddle j, at q = r: the integrand peaks at |xi_j| and spans about e^{|Re V_r|}
    V = Potential.from_json(CASES["cubic elbows"][0])
    engine = DiscriminatorEngine(V, 60)
    failures = []
    for j, xi in enumerate(engine.S.xi):
        value, err = engine._ray(j, 60)
        rho = abs(xi)
        with mpmath.workdps(30):  # x^60 dx = s^60 ds e^{61 i theta} on the ray at angle theta
            step = mpmath.expj(cmath.phase(xi))
            ref = complex(step ** 61 * mpmath.quad(lambda s: s ** 60 * _exp_neg_V(V, s * step),
                                                   [0, rho / 2, rho, 1.5 * rho, 3 * rho, mpmath.inf]))
        miss = abs(value - ref)
        print(f"cubic r=60 ray {j}: |value - ref| / |ref| = {miss / abs(ref):.2e},"
              f" bar {err:.2e} ({err / miss if miss else float('inf'):.3g}x)")
        if miss > err:
            failures.append((j, miss, err))
    assert not failures


# name -> (V, the largest N); every composition word of N bodies over the basis arcs
CELL_CASES = {
    "cubic": (CASES["cubic elbows"][0], 4),
    "x + x^3": (CASES["x + x^3 elbows"][0], 4),
    "x^2 + 2/x": (CASES["x^2 + 2/x circle"][0], 2),  # elbows round the pole on an ArcSeg
}
CELL_MU = ((), (1,), (2, 1))


def _reference_cell(table, word, mu):
    """``vandermonde_sum`` of p_mu over ``word`` on the 30-digit moments, in 30 digits."""
    def moment(body, k):
        return _reference(table.arcs[body], table.V, k), 0

    with mpmath.workdps(30):
        return vandermonde_sum(MomentLookup(moment), word, mu)[0]


def _cell_failures(name, table, word, mu, value, err):
    miss = float(abs(value - _reference_cell(table, word, mu)))
    print(f"{name} word={word} mu={mu}: |cell - ref| = {miss:.2e}, bar {err:.2e}"
          f" ({_loose(miss, err)})")
    return [(word, mu, miss, err)] if miss > err else []


@pytest.mark.parametrize("name", sorted(CELL_CASES))
def test_every_cell_bar_bounds_the_true_error(name):
    data, n_max = CELL_CASES[name]
    V = Potential.from_json(data)
    table = MomentTable(basis_arcs(V), V, 1e-12)
    failures = []
    for N in range(1, n_max + 1):
        for comp in compositions(N, len(table.arcs)):
            word = tuple(arc for arc, cnt in enumerate(comp) for _ in range(cnt))
            for mu in CELL_MU:
                failures += _cell_failures(name, table, word, mu, *table.cell(word, mu))
    assert not failures


def test_six_body_cell_bar_bounds_the_true_error():
    # past MAX_VARS = 5, which caps ``expectation`` but not the assembly itself
    V = Potential.from_json(CASES["cubic elbows"][0])
    table = MomentTable(basis_arcs(V), V, 1e-12)
    word = (0, 0, 0, 1, 1, 1)
    assert not _cell_failures("cubic", table, word, (), *vandermonde_sum(table.data, word))
