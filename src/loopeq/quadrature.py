"""Numerical moment functionals: 1-D arc moments assembled into N-dimensional
Vandermonde-squared integrals.

E_Gamma(p) factorizes over product domains once Delta(X)^2 is expanded as a
double determinant and each power sum is distributed over variables, so the
only quadrature ever performed is one-dimensional: adaptive Gauss-Kronrod
(QUADPACK's QAGS, Piessens et al. 1983) on open arcs (rays, elbows) and the
periodic trapezoid rule on circles, whose bar covers rounding too.  One segment
rule, ``_segment_moment``, serves ``arc_moment`` and the discriminator's saddle
rays; ``RULE_TAG`` names it in the disk cache's keys.  QAGS is scipy's compiled
routine, loaded from its file; ``scipy.integrate`` is never imported.  The one
N-body kernel, ``vandermonde_sum``, assembles those moments for quadrature
functionals and the saddle discriminator alike: one moment at N = 1, the
permutation-pair sum written out at N = 2, and from N = 3 on a Laplace
expansion of the Andreief determinant (Forrester, *Log-gases and Random
Matrices*, ch. 1), about 2^N N A prod binom(c_i + 2, 2) ring products for A
distinct bodies and part multiplicities c_i of mu.  The expansion's ring
coefficient k is the cell of the sub-partition with part multiplicities k, so
from N = 3 on one expansion over the ring of all box multiplicities gives a
whole moment-matrix row (``_laplace_row``): with the moments tabulated,
``moment_matrix`` takes 7-9 ms on cubic N = 5 and 26-32 ms on quartic N = 4,
against 25-37 ms and 100-117 ms with one expansion per cell (2-core VM).  The
kernel indexes a ``MomentMap``, a dict that computes a missing moment through
its owner, so a tabulated moment costs one dict lookup and only a miss runs
Python code.
Everything downstream is exact bookkeeping plus worst-case error propagation.

A ``MomentTable`` is the one owner of the arcs (refused unless admissible), the
potential and the tolerance.  Its two ``MomentMap``s are its only memos:
``data`` keeps each 1-D moment, ``cells`` each N-body (arc word, mu) sum, for
the table's lifetime, which is one command, so loop equations that share
moments after length reduction share their assembly too.  Their miss methods
``moment`` and ``cell`` only compute, and ``moment_matrix`` stores a row's
cells at once; ``cli.CachedMomentTable``'s ``moment`` only reads and records
its disk store.  The N-body entry points
``expectation``, ``oracle_from_quadrature`` and ``moment_matrix`` take a table
and read all three from it; ``expectation`` refuses a table whose arcs are not
the class's arc basis.  ``expectation`` returns a (value, error bound) pair,
as every ``MomentMap`` holds, and ``oracle_from_quadrature`` one per partition.

Up to N = 2 the numbers must stay bit-identical: some loop equations (e.g.
Q(0,1,1) on x^2 + 2/x) cancel to a term scale of about 1e-14, and the benchmark
compares those scales at 1e-9 relative, so a rule or kernel change that moves
moments at about 1e-14 changes those outputs.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import operator
import os
import sys
import weakref
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .contours import CircleSeg, Contour, HomologyClass, RaySeg, admissibility_check
from .exact import CRational
from .loopgen import Potential
from .momsolve import gamma, hn_dimension
from .symfunc import Partition, PowerSumPoly, compositions, partitions_in_box, reduce_length

MAX_VARS = 5
TAIL_CUTOFF = 1e-18


class QuadratureError(RuntimeError):
    """A rule misses its tolerance, or e^{-V} overflows, underflows or does not decay along a ray."""


def _load_qagse():
    """QAGS from scipy's compiled ``integrate/_quadpack``, loaded by file path, so
    ``scipy.integrate``'s package init never runs; ``sys.modules`` is left as it was."""
    name, scipy = "scipy.integrate._quadpack", importlib.util.find_spec("scipy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if scipy else ():
        path = os.path.join(scipy.submodule_search_locations[0], "integrate", "_quadpack" + suffix)
        if os.path.exists(path):
            loader, had = importlib.machinery.ExtensionFileLoader(name, path), name in sys.modules
            module = loader.create_module(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            if not had:
                sys.modules.pop(name, None)
            return module._qagse
    from importlib.metadata import version  # raises ImportError when scipy is not installed
    raise ImportError(f"no compiled QUADPACK (integrate/_quadpack) in scipy {version('scipy')}")


_qagse = _load_qagse()
# why QAGS stopped, indexed by its return code ier
_IER = ("", "subdivision limit", "roundoff", "bad integrand", "extrapolation roundoff", "divergent", "bad input")


def _quad_complex(re_f, im_f, a: float, b: float, tol: float):
    """integral from a to b of the complex function re_f + i im_f and its error:
    QAGS on the real, then the imaginary part over (min(a, b), max(a, b)), limit
    200 then 800, negated when b < a.  Bad input (ier 6) is refused; an empty
    interval is 0 +- 0."""
    lo, hi = min(a, b), max(a, b)
    for limit in (200, 800):
        re, re_err, re_ier = _qagse(re_f, lo, hi, (), 0, tol * 1e-2, tol, limit)
        im, im_err, im_ier = _qagse(im_f, lo, hi, (), 0, tol * 1e-2, tol, limit)
        val = re + 1j * im
        err_abs = abs(re_err + 1j * im_err)
        if err_abs <= max(tol * 1e-2, tol * abs(val)) * 10 + 1e-300 and 6 not in (re_ier, im_ier):
            return (-val if b < a else val), err_abs
    why = "".join(f"; {part} part: {_IER[ier]} (QUADPACK ier {ier})"
                  for part, ier in (("real", re_ier), ("imaginary", im_ier)) if ier)
    raise QuadratureError(f"quadrature tolerance {tol} unreachable; achieved error {err_abs:.3e}{why}")


def _ray_truncation(seg: RaySeg, weight, kpow: int) -> float:
    """Arc length at which |z|^k * |e^{-V}| falls below the tail cutoff."""
    logcut = math.log(TAIL_CUTOFF)

    def logmag(s: float) -> float:
        z = seg.point(s)
        try:
            w = weight(z)
        except (OverflowError, ValueError):
            return math.inf
        m = abs(w)
        base = math.log(m) if m > 0 else -math.inf
        return base + (kpow * math.log(abs(z)) if z != 0 and kpow else 0.0)

    peak = max(logmag(0.0), logmag(1.0))
    s = 1.0
    for _ in range(240):
        val = logmag(s)
        if math.isinf(val) and val > 0:
            raise QuadratureError(f"e^{{-V}} overflows double precision along ray angle"
                                  f" {seg.angle:.4f} at arc length {s:.4g}")
        peak = max(peak, val)
        if val < peak + logcut:
            return s
        s *= 1.30
    if peak == -math.inf:  # no point had a magnitude to fall from
        raise QuadratureError(f"e^{{-V}} underflows double precision along ray angle"
                              f" {seg.angle:.4f} from its base {seg.base:.4g}")
    raise QuadratureError(f"|x|^{kpow} |e^{{-V}}| along ray angle {seg.angle:.4f} does not fall"
                          f" below the tail cutoff {TAIL_CUTOFF:g} within arc length {s:.4g}")


def _trapezoid_circle(f, a: float, b: float, tol: float):
    """Periodic trapezoid rule with doubling, spectrally accurate on circles.  The bar is
    the last difference, which stalls at rounding, plus m u h sum |f| (u = 2^-53; Higham)."""
    m = 64
    prev = None
    last_delta = math.inf
    while m <= 1 << 16:
        h = (b - a) / m
        total, mag = 0j, 0.0
        for j in range(m):
            v = f(a + j * h)
            total += v
            mag += abs(v)
        val = total * h
        if prev is not None:
            last_delta = abs(val - prev)
            if last_delta <= tol * max(1.0, abs(val)):
                return val, last_delta + m * 2.0 ** -53 * h * mag
        prev = val
        m *= 2
    raise QuadratureError(f"trapezoid rule did not converge to {tol}; last delta {last_delta:.3e}")


# names the 1-D rule and its bar; it changes whenever a value or a bar of
# ``_segment_moment`` does, and the disk cache keys every moment with it
RULE_TAG = "qags-trapezoid-2"


def _segment_moment(seg, V: Potential, k: int, tol: float):
    """integral of x^k e^{-V(x)} dx along one segment, in its direction of travel,
    with an error estimate: z(t)^k e^{-V(z(t))} z'(t) on ``seg.bounds``, with a
    ray's infinite upper bound cut where the tail falls below TAIL_CUTOFF.  QAGS
    calls a ray's real and imaginary integrands directly, one frame each."""
    weight = V.exp_neg_V
    a, b = seg.bounds
    if isinstance(seg, RaySeg):
        base, step = seg.base, seg.direction

        def re_f(t):
            z = base + t * step
            return (z ** k * weight(z) * step).real

        def im_f(t):
            z = base + t * step
            return (z ** k * weight(z) * step).imag

        val, e = _quad_complex(re_f, im_f, a, _ray_truncation(seg, weight, k), tol)
    else:

        def f(t):
            z = seg.point(t)
            return z ** k * weight(z) * seg.tangent(t)

        if isinstance(seg, CircleSeg):
            val, e = _trapezoid_circle(f, a, b, tol)
        else:
            val, e = _quad_complex(lambda t: f(t).real, lambda t: f(t).imag, a, b, tol)
    return (-val if seg.inward else val), e


def arc_moment(c: Contour, V: Potential, k: int, tol: float):
    """integral over the contour of x^k e^{-V(x)} dx, with an error estimate:
    the sum of its segments' ``_segment_moment``s."""
    total = 0j
    err = 0.0
    for seg in c.segments:
        val, e = _segment_moment(seg, V, k, tol)
        total += val
        err += e
    return total, err


class MomentMap(dict):
    """key -> (value, error bound) that fills itself: a missing key is
    computed by the owner's method ``name`` from the key's fields, looked up
    on the owner when the key is first read, and kept, so it is the one memo
    of that method.  The N-body kernels index one of (body, k) -> 1-D moment,
    so a tabulated moment costs one dict lookup; ``MomentTable.cells`` keeps
    its (arc word, mu) cells in another, and the discriminator its saddle-ray
    moments.  The owner, which holds the map, is held weakly, so no reference
    cycle keeps a finished table alive until the next garbage collection."""

    __slots__ = ("owner", "name")

    def __init__(self, owner, name: str):
        super().__init__()
        self.owner = weakref.ref(owner)
        self.name = name

    def __missing__(self, key):
        value = self[key] = getattr(self.owner(), self.name)(*key)
        return value


class MomentTable:
    """Lazy cache of 1-D arc moments m_j(k) and of the N-body cells assembled
    from them, each with an error estimate: the one owner of the arcs, the
    potential and the quadrature tolerance that every N-body assembly over it
    uses.  ``data`` and ``cells`` are ``MomentMap``s, the only memos; their
    misses call ``moment`` and ``cell``, which compute and store nothing, and
    ``moment_matrix`` from N = 3 on stores its cells a row at a time."""

    def __init__(self, arcs, V: Potential, tol: float = 1e-12):
        self.arcs = tuple(arcs)
        for arc in self.arcs:
            if (reason := admissibility_check(arc, V)) is not None:
                raise ValueError(f"inadmissible contour {arc.label}: {reason}")
        self.V = V
        self.tol = tol
        self.data: dict[tuple[int, int], tuple[complex, float]] = MomentMap(self, "moment")
        self.cells: dict[tuple, tuple[complex, float]] = MomentMap(self, "cell")

    def moment(self, arc_index: int, k: int) -> tuple[complex, float]:
        """``arc_moment`` of x^k over arc ``arc_index``, computed anew."""
        return arc_moment(self.arcs[arc_index], self.V, k, self.tol)

    def cell(self, word: tuple[int, ...], mu) -> tuple[complex, float]:
        """``vandermonde_sum`` of p_mu over the arcs in ``word``, assembled
        anew.  A cell reads only moments, which never change once tabulated,
        so the value ``cells`` keeps is the one a new assembly would give."""
        return vandermonde_sum(self.data, word, mu)

    def flush(self):
        """Persist new moments; an in-memory table has nowhere to write."""


@functools.cache
def _splits(mu, N: int):
    """The exponents p_mu adds to each of N variables, one tuple per
    assignment of its parts to variables, in ``itertools.product`` order."""
    out = []
    for assign in itertools.product(range(N), repeat=len(mu)):
        adds = [0] * N
        for part, var in zip(mu, assign):
            adds[var] += part
        out.append(tuple(adds))
    return tuple(out)


@functools.cache
def _ring_plan(values, caps, total):
    """C[s_1..s_l]/(s_j^2) folded onto the multiplicities of the distinct part
    values ``values``: coefficient k stands for the product over i of e_{k_i},
    the elementary symmetric sum of degree k_i in the s_j of the parts
    values[i], and e_i e_j = binom(i+j, i) e_{i+j} (Macdonald, ch. I).  The
    ring runs on the down-closed set of k <= caps with |k| <= total, in
    ``itertools.product`` order: one partition's box k <= c (caps c, total |c|,
    top coefficient last) or a moment-matrix row's box ring.  A coefficient's
    products read only coefficients below it, so coefficient k is the top of
    the ring of the partition with k_i parts values[i], bit for bit.  Returns
    (that partition of each coefficient, its shift k.v, the products
    (U, T, U - T, prod binom(U_i, T_i)), T in product order below each U)."""
    index = [k for k in itertools.product(*(range(c + 1) for c in caps)) if sum(k) <= total]
    at = {k: i for i, k in enumerate(index)}
    keys = tuple(Partition.of(v for v, n in zip(values, k) for _ in range(n)) for k in index)
    shifts = tuple(sum(map(operator.mul, k, values)) for k in index)
    products = tuple(
        (at[u], at[t], at[tuple(map(operator.sub, u, t))], float(math.prod(map(math.comb, u, t))))
        for u in index for t in itertools.product(*(range(n + 1) for n in u))
    )
    return keys, shifts, products


@functools.cache
def _laplace_plan(need):
    """The Laplace expansion's transitions for n_b = need[b] rows of body b:
    per row j, (number of states after it, moves (source, target, sign, body
    b, j + k)), where a state is (used columns, rows per body) numbered within
    its row and the sign is one inversion per used column right of column k."""
    N = sum(need)
    states = {(0, (0,) * len(need)): 0}
    rows = []
    for j in range(N):
        nxt, moves = {}, []
        for (cols, used), src in states.items():
            for k in range(N):
                if cols >> k & 1:
                    continue
                neg = bin(cols >> k).count("1") & 1
                for b, cap in enumerate(need):
                    if used[b] < cap:
                        key = (cols | 1 << k, used[:b] + (used[b] + 1,) + used[b + 1:])
                        moves.append((src, nxt.setdefault(key, len(nxt)), neg, b, j + k))
        rows.append((len(nxt), tuple(moves)))
        states = nxt
    return tuple(rows)


def vandermonde_sum(moments, word, mu=()):
    """integral of p_mu * Delta^2 over the product of the bodies in ``word``.

    ``moments[body, k]`` is the 1-D moment of x^k over one body with an error
    bound, a mapping such as ``MomentMap`` that computes what it lacks; body i
    carries variable x_i, and bodies are any hashables.  Returns (value,
    first-order error bound), where the bound is sum over products of N
    moments of prod(|v| + e) - prod |v|.  Up to N = 2 the written-out
    permutation-pair sum runs, from N = 3 on the determinant recursion.  The
    recursion would move the N <= 2 bits that must stay fixed (see the module
    docstring), and it is slower than the written-out sum at N = 2; at N = 3
    it is still slower than a generic permutation loop on the smallest cells
    (3.0x at mu = (), README "Caps"), which a moment-matrix row avoids by
    taking all its cells from one expansion (``_laplace_row``).
    """
    if len(word) <= 2:
        return _permutation_sum(moments, word, mu)
    return _laplace_sum(moments, word, mu)


def _permutation_sum(moments, word, mu):
    """Delta^2 as a double determinant over permutation pairs and p_mu over
    the splits of its parts between the variables, written out for N = 1 and
    N = 2.  At N = 1 it is one moment, m_a(|mu|).  At N = 2,
    Delta^2 = x_1^2 - 2 x_1 x_2 + x_2^2 gives four pair products per split
    (x, y) of mu over bodies (a, b): m_a(x) m_b(y + 2), -m_a(x + 1) m_b(y + 1)
    twice, and m_a(x + 2) m_b(y), each with the bound
    e_1 (|v_2| + e_2) + |v_1| e_2.  The sums run in that order and the moments
    are first read in the Leibniz sum's (sigma, tau) order, so the bits are
    that sum's: its factors (1 + 0j, +-1.0, a zero first error) only move the
    sign of a zero, and a sum seeded at +0.0 never holds -0.0 (Higham, ch. 2)."""
    if len(word) == 1:
        v, e = moments[word[0], sum(mu)]
        return 0j + v, 0.0 + e
    a, b = word
    total = 0j
    err = 0.0
    for x, y in _splits(mu, 2):
        v0, e0 = moments[a, x]
        v5, e5 = moments[b, y + 2]
        v1, e1 = moments[a, x + 1]
        v4, e4 = moments[b, y + 1]
        v2, e2 = moments[a, x + 2]
        v3, e3 = moments[b, y]
        mixed = -(v1 * v4)
        mixed_err = e1 * (abs(v4) + e4) + abs(v1) * e4
        total += v0 * v5
        total += mixed
        total += mixed
        total += v2 * v3
        err += e0 * (abs(v5) + e5) + abs(v0) * e5
        err += mixed_err
        err += mixed_err
        err += e2 * (abs(v3) + e3) + abs(v2) * e3
    return total, err


def _laplace_sum(moments, word, mu):
    """Andreief/Heine: with n_b copies of body b in ``word`` and l = len(mu),

        integral = prod n_b! * sum over row labellings c (body b on n_b rows)
                   of [s_1...s_l] det( W_{c(j)}(j + k) )_{j,k < N},
        W_b(q) = sum over T within the parts of s^T m_b(q + |mu_T|),  s_j^2 = 0,

    since p_mu = [s_1...s_l] prod_i prod_j (1 + s_j x_i^{mu_j}): the top
    coefficient of ``_laplace_ring`` over mu's box k <= c.
    """
    parts = Counter(mu)
    _, vals, errs = _laplace_ring(moments, word, tuple(parts), tuple(parts.values()), len(mu))
    return vals[-1], errs[-1]


def _laplace_row(moments, word, maxpart: int):
    """{nu: ``_laplace_sum(moments, word, nu)``, bit for bit} over the box
    partitions nu of a moment-matrix row (at most N = len(word) parts, none
    above ``maxpart``), all from one ``_laplace_ring`` over the box ring
    {k over the part values maxpart..1 : |k| <= N}."""
    N = len(word)
    keys, vals, errs = _laplace_ring(moments, word, tuple(range(maxpart, 0, -1)), (N,) * maxpart, N)
    return dict(zip(keys, zip(vals, errs)))


def _laplace_ring(moments, word, values, caps, total):
    """The coefficients of the Andreief/Laplace expansion (``_laplace_sum``)
    over ``_ring_plan(values, caps, total)``, as (their partitions, values,
    bounds).  A coefficient depends only on how many parts of each value T
    holds, so W_b(q)'s coefficient k is m_b(q + k.v).  The sum and the
    determinants are one division-free Laplace expansion along the rows over
    ``_laplace_plan``'s states.  Each state holds three ring elements: the
    signed value, the majorant P (|m|, no signs) and the error E, updated as
    E (|W| + e_W) + P e_W, so each coefficient of E is its permutation sum's
    bound with no cancellation, regrouped by nonnegative binomial weights.
    Cost: about 2^N N A R ring coefficient products for A distinct bodies
    and R products in the plan (prod binom(c_i + 2, 2) over one partition's
    box).
    """
    N = len(word)
    need = Counter(word)
    keys, shifts, products = _ring_plan(values, caps, total)
    size = len(shifts)
    # W[b][q] = (values, |values|, errors, |values| + errors) over the coefficients
    W = []
    for body in need:
        row = []
        for q in range(2 * N - 1):
            vals, errs = zip(*(moments[body, q + s] for s in shifts))
            mags = [abs(v) for v in vals]
            row.append((vals, mags, errs, [m + e for m, e in zip(mags, errs)]))
        W.append(row)
    unit = [1.0] + [0.0] * (size - 1)
    layer = [([complex(x) for x in unit], unit, [0.0] * size)]
    for count, moves in _laplace_plan(tuple(need.values())):
        nxt = [([0j] * size, [0.0] * size, [0.0] * size) for _ in range(count)]
        for src, dst, neg, b, q in moves:
            av, ap, ae = layer[src]
            sv = [-x for x in av] if neg else av
            tv, tp, te = nxt[dst]
            wv, wm, we, wme = W[b][q]
            for u, t, r, c in products:
                tv[u] += c * sv[t] * wv[r]
                tp[u] += c * ap[t] * wm[r]
                te[u] += c * (ae[t] * wme[r] + ap[t] * we[r])
        layer = nxt
    ((av, _, ae),) = layer
    scale = math.prod(math.factorial(n) for n in need.values())
    return keys, [scale * v for v in av], [scale * e for e in ae]


def _check_cap(N: int):
    if N > MAX_VARS:
        raise ValueError(f"N={N} exceeds the assembly cap N <= {MAX_VARS}")


def _word(comp) -> tuple[int, ...]:
    """The arc word of a composition: arc i repeated comp[i] times."""
    return tuple(arc_idx for arc_idx, cnt in enumerate(comp) for _ in range(cnt))


def expectation(G: HomologyClass, p: PowerSumPoly, table: MomentTable):
    """E_Gamma(p) = integral of p * Delta^2 * prod e^{-V}, with error estimate,
    over the 1-D moments of ``table``, whose arcs must be the class's basis.

    Each (composition, p_mu) cell is one ``vandermonde_sum`` over tabulated
    1-D moments: one moment at N = 1, 3 distinct pair products per split of
    mu's parts at N = 2 (2^len(mu) splits), about
    2^N N A prod binom(c_i + 2, 2) ring products from N = 3 (A arcs in the
    composition, c_i the multiplicities of mu's distinct parts).
    ``table.cells`` keeps every cell for the table's lifetime, so a cell that
    another call on the same table already needed costs one dict lookup; p's
    coefficients are converted to complex once per call.
    Hard cap N <= 5; longer partitions are first reduced to length <= N.
    """
    N = G.N
    _check_cap(N)
    if G.arc_basis != table.arcs:
        raise ValueError("moment table arcs differ from the class's arc basis")
    if isinstance(p.nvars, int) and p.nvars != N:
        raise ValueError(f"polynomial is for {p.nvars} variables, class has N={N}")
    if p.max_length() > N:
        # same function of N variables, exponentially cheaper to assemble
        p = reduce_length(p, N)
    terms = [(mu, c, abs(c)) for mu, coeff in p.terms.items() if (c := complex(coeff))]
    total = 0j
    err_total = 0.0
    for comp, ccoef in G.terms:
        if not ccoef:
            continue
        word = _word(comp)
        comp_val = 0j
        comp_err = 0.0
        for mu, cval, cabs in terms:
            term_val, term_err = table.cells[word, mu]
            comp_val += cval * term_val
            comp_err += cabs * term_err
        total += ccoef * comp_val
        err_total += abs(ccoef) * comp_err
    return total, err_total


def oracle_from_quadrature(G: HomologyClass, partitions, table: MomentTable):
    """{Partition: (E(p_nu), error bound)} over ``partitions``, in their order,
    each pair as ``expectation`` returns it (the empty partition gives Z)."""
    return {
        nu: expectation(G, PowerSumPoly({nu: CRational(1)}, G.N), table)
        for nu in map(Partition, map(tuple, partitions))
    }


@dataclass
class MomentMatrix:
    """Numerical witness that classes -> functionals is an isomorphism."""

    N: int
    d: int
    rows: list  # compositions over the arc basis
    cols: list  # box partitions
    entries: list  # row-major complex values
    errors: list
    singular_values: list  # of the column-scaled matrix, descending
    # ||errors / column scale||_F + gamma_n sigma_max: by Weyl's inequality no
    # singular value of the scaled matrix is off by more than the first term,
    # and the second covers the SVD's own rounding (not part of the JSON)
    scaled_error_bound: float

    @property
    def min_scaled_singular(self) -> float:
        return self.singular_values[-1]

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "d": self.d,
            "rows": [list(r) for r in self.rows],
            "cols": [list(c) for c in self.cols],
            "entries": [[[z.real, z.imag] for z in row] for row in self.entries],
            "errors": self.errors,
            "singular_values": self.singular_values,
            "min_scaled_singular": self.min_scaled_singular,
        }


def moment_matrix(table: MomentTable, N: int) -> MomentMatrix:
    """Fill E_{gamma^n}(p_nu) over the full basis x box grid, rows over
    ``table.arcs``, and report the singular values of the column-scaled matrix.
    From N = 3 on a row costs one Laplace expansion: the cells of its arc word
    that ``table.cells`` lacks come from one ``_laplace_row``, bit for bit
    as one expansion per cell would give them, and ``oracle_from_quadrature``
    reads them (cubic N = 5 in 7-9 ms, quartic N = 4 in 26-32 ms over
    tabulated moments).
    ``N`` above the assembly cap is refused before the grid is enumerated."""
    _check_cap(N)
    d = table.V.d
    size = hn_dimension(N, d)
    rows = compositions(N, d)
    cols = partitions_in_box(N, d - 1)
    assert len(rows) == len(cols) == size
    entries = []
    errors = []
    for comp in rows:
        word = _word(comp)
        if N >= 3 and any((word, nu) not in table.cells for nu in cols):
            for nu, cell in _laplace_row(table.data, word, d - 1).items():
                table.cells.setdefault((word, nu), cell)
        G = HomologyClass.make(N, table.arcs, {comp: 1.0})
        row = oracle_from_quadrature(G, cols, table).values()
        entries.append([val for val, _ in row])
        errors.append([err for _, err in row])
    A = np.array(entries, dtype=complex)
    scale = np.max(np.abs(A), axis=0)
    scale[scale == 0] = 1.0
    svals = np.linalg.svd(A / scale, compute_uv=False)
    bound = np.linalg.norm(np.array(errors) / scale) + gamma(size) * svals[0]
    return MomentMatrix(
        N=N,
        d=d,
        rows=rows,
        cols=cols,
        entries=entries,
        errors=errors,
        singular_values=[float(s) for s in svals],
        scaled_error_bound=float(bound),
    )
