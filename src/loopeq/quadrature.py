"""Numerical moment functionals: 1-D arc moments assembled into N-dimensional
Vandermonde-squared integrals.

E_Gamma(p) factorizes over product domains once Delta(X)^2 is expanded as a
double determinant and each power sum is distributed over variables, so the
only quadrature ever performed is one-dimensional: adaptive Gauss-Kronrod on
open arcs (rays, elbows) and the periodic trapezoid rule on circles.  The one
N-body kernel, ``vandermonde_sum``, assembles those moments for quadrature
functionals and the saddle discriminator alike: a permutation-pair sum up to
N = 2 and a Laplace expansion of the Andreief determinant (Forrester,
*Log-gases and Random Matrices*, ch. 1) from N = 3 on.  Everything downstream
is exact bookkeeping plus worst-case error propagation.

A ``MomentTable`` is the one owner of the arcs, the potential and the
tolerance.  The N-body entry points ``expectation``, ``oracle_from_quadrature``
and ``moment_matrix`` take a table and read all three from it; ``expectation``
refuses a table whose arcs are not the class's arc basis.

Up to N = 2 the numbers must stay bit-identical: some loop equations (e.g.
Q(0,1,1) on x^2 + 2/x) cancel to a term scale of about 1e-14, so a change in
the last bit of a moment or a product moves their reported residuals, and the
benchmark compares those scales at 1e-9 relative.  A new quadrature rule
(ROADMAP item 4) moves moments at about 1e-14, so it waits until such
equations are bounded by their own error budget (ROADMAP item 1).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _scipy_quad

from .contours import CircleSeg, Contour, HomologyClass, RaySeg
from .loopgen import Potential
from .momsolve import hn_dimension
from .symfunc import Partition, PowerSumPoly, compositions, partitions_in_box, reduce_length

MAX_VARS = 5
MAX_PARTS = 6
TAIL_CUTOFF = 1e-18


class QuadratureError(RuntimeError):
    """A quadrature rule cannot reach its tolerance, or the contour is inadmissible."""


def _quad_complex(f, a: float, b: float, tol: float):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for limit in (200, 800):
            val, err = _scipy_quad(
                f, a, b, epsabs=tol * 1e-2, epsrel=tol, limit=limit, complex_func=True
            )
            err_abs = abs(err)
            if err_abs <= max(tol * 1e-2, tol * abs(val)) * 10 + 1e-300:
                return val, err_abs
    raise QuadratureError(f"quadrature tolerance {tol} unreachable; achieved error {err_abs:.3e}")


def _ray_truncation(seg: RaySeg, weight, kpow: int) -> float:
    """Arc length at which |z|^k * |e^{-V}| falls below the tail cutoff."""
    logcut = math.log(TAIL_CUTOFF)

    def logmag(s: float) -> float:
        z = seg.point(s)
        try:
            w = weight(z)
        except (OverflowError, ValueError):
            return math.inf
        if w == 0:
            return -math.inf
        m = abs(w)
        base = math.log(m) if m > 0 else -math.inf
        return base + (kpow * math.log(abs(z)) if z != 0 and kpow else 0.0)

    peak = max(logmag(0.0), logmag(1.0))
    s = 1.0
    for _ in range(240):
        val = logmag(s)
        if math.isinf(val) and val > 0:
            raise QuadratureError(
                f"integrand blows up along ray angle {seg.angle:.4f}; inadmissible contour"
            )
        peak = max(peak, val)
        if val < peak + logcut:
            return s
        s *= 1.30
    raise QuadratureError(
        f"integrand does not decay along ray angle {seg.angle:.4f}; inadmissible contour?"
    )


def _trapezoid_circle(f, a: float, b: float, tol: float):
    """Periodic trapezoid rule with doubling; spectrally accurate on circles."""
    m = 64
    prev = None
    last_delta = math.inf
    while m <= 1 << 16:
        h = (b - a) / m
        total = 0j
        for t in a + np.arange(m) * h:
            total += f(t)
        val = total * h
        if prev is not None:
            last_delta = abs(val - prev)
            if last_delta <= tol * max(1.0, abs(val)):
                return val, last_delta
        prev = val
        m *= 2
    raise QuadratureError(f"trapezoid rule did not converge to {tol}; last delta {last_delta:.3e}")


def arc_moment(c: Contour, V: Potential, k: int, tol: float = 1e-12):
    """integral over the contour of x^k e^{-V(x)} dx, with an error estimate.

    Every segment is walked through its parametrization: the integrand is
    z(t)^k e^{-V(z(t))} z'(t) on ``seg.bounds``, with an infinite upper bound
    cut where the tail falls below TAIL_CUTOFF.
    """
    weight = V.exp_neg_V
    total = 0j
    err = 0.0
    for seg in c.segments:
        if isinstance(seg, RaySeg):

            def f(t, base=seg.base, step=seg.direction):
                z = base + t * step
                return z ** k * weight(z) * step

        else:

            def f(t, _s=seg):
                z = _s.point(t)
                return z ** k * weight(z) * _s.tangent(t)

        a, b = seg.bounds
        if isinstance(seg, CircleSeg):
            val, e = _trapezoid_circle(f, a, b, tol)
        else:
            if math.isinf(b):
                b = _ray_truncation(seg, weight, k)
            val, e = _quad_complex(f, a, b, tol)
        total += -val if seg.inward else val
        err += e
    return total, err


class MomentTable:
    """Lazy cache of 1-D arc moments m_j(k) with error estimates: the one
    owner of the arcs, the potential and the quadrature tolerance that every
    N-body assembly over it uses."""

    def __init__(self, arcs, V: Potential, tol: float = 1e-12):
        self.arcs = tuple(arcs)
        self.V = V
        self.tol = tol
        self.data: dict[tuple[int, int], tuple[complex, float]] = {}

    def moment(self, arc_index: int, k: int) -> tuple[complex, float]:
        key = (arc_index, k)
        if key not in self.data:
            self.data[key] = arc_moment(self.arcs[arc_index], self.V, k, self.tol)
        return self.data[key]

    def flush(self):
        """Persist new moments; an in-memory table has nowhere to write."""


@functools.cache
def _perm_pairs(N: int):
    """Index plan of the permutation-pair sum: ``pairs`` holds (sign_sigma *
    sign_tau, slots i (2N - 1) + sigma_i + tau_i) in lexicographic order, and
    ``fetch`` (i, s, slot) in the order the pairs first use each slot."""
    perms = tuple(itertools.permutations(range(N)))
    signs = [-1.0 if sum(p[i] > p[j] for i in range(N) for j in range(i + 1, N)) % 2 else 1.0
             for p in perms]
    width = 2 * N - 1
    pairs = tuple(
        (signs[si] * signs[ti], tuple(i * width + sigma[i] + tau[i] for i in range(N)))
        for si, sigma in enumerate(perms)
        for ti, tau in enumerate(perms)
    )
    first_use = dict.fromkeys(j for _, slots in pairs for j in slots)
    fetch = tuple((j // width, j % width, j) for j in first_use)
    return pairs, fetch


@functools.cache
def _subset_pairs(l: int):
    """(U, T, U minus T) for every T within U within {0..l-1}: the product of
    C[s_1..s_l]/(s_j^2) on coefficient arrays indexed by subset bitmask."""
    full = 1 << l
    return tuple((u, t, u ^ t) for u in range(full) for t in range(full) if t & u == t)


def vandermonde_sum(moment, word, mu=()):
    """integral of p_mu * Delta^2 over the product of the bodies in ``word``.

    ``moment(body, k)`` returns the 1-D moment of x^k over one body with an
    error bound; body i carries variable x_i, and bodies are any hashables.
    Returns (value, first-order error bound), where the bound is
    sum over products of N moments of prod(|v| + e) - prod |v|.  Up to N = 2
    the permutation-pair sum is cheapest, from N = 3 on the determinant
    recursion runs.  Measured per call on random tables of distinct bodies,
    len(mu) <= 4: the recursion is 3-7x slower at N = 2; at N = 3 it is
    1.3-5x slower up to len(mu) = 2 (5x at mu = ()) and 1.2-1.5x faster from
    3 on; at N = 4 the two tie at mu = () and the recursion is 3-8x faster at
    len(mu) = 1, 2.  The split stays at N = 2 so that N >= 3 results keep
    their summation order.
    """
    if len(word) <= 2:
        return _permutation_sum(moment, word, mu)
    return _laplace_sum(moment, word, mu)


def _permutation_sum(moment, word, mu):
    """Delta^2 as a double determinant over permutation pairs (sigma, tau),
    p_mu over the assignments of its parts to variables: (N!)^2 N^len(mu)
    products of N moments.  Each assignment fetches its N (2N - 1) moments
    once; the products and sums run in the order of the plain loop over
    ``moment(word[i], sigma[i] + tau[i] + adds[i])``, so the result is the
    same to the last bit."""
    N = len(word)
    pairs, fetch = _perm_pairs(N)
    total = 0j
    err = 0.0
    for assign in itertools.product(range(N), repeat=len(mu)):
        adds = [0] * N
        for part, var in zip(mu, assign):
            adds[var] += part
        m = [None] * (N * (2 * N - 1))  # slot i (2N - 1) + s
        for i, s, j in fetch:
            v, e = moment(word[i], s + adds[i])
            m[j] = (v, e, abs(v))
        for sgn, slots in pairs:
            prod = 1.0 + 0j
            emag = 0.0
            pmag = 1.0
            for j in slots:
                v, e, a = m[j]
                prod *= v
                emag = emag * (a + e) + pmag * e
                pmag *= a
            total += sgn * prod
            err += emag
    return total, err


def _laplace_sum(moment, word, mu):
    """Andreief/Heine: with n_b copies of body b in ``word`` and l = len(mu),

        integral = prod n_b! * sum over row labellings c (body b on n_b rows)
                   of [s_1...s_l] det( W_{c(j)}(j + k) )_{j,k < N},
        W_b(q) = sum over T within the parts of s^T m_b(q + |mu_T|),  s_j^2 = 0,

    since p_mu = [s_1...s_l] prod_i prod_j (1 + s_j x_i^{mu_j}).  The sum and
    the determinants are one division-free Laplace expansion along the rows,
    over states (used columns, bodies used so far).  Each state holds three
    ring elements: the signed value, the majorant P (|m|, no signs) and the
    error E, updated as E (|W| + e_W) + P e_W, so the top coefficient of E is
    the permutation sum's bound with no cancellation.  Cost: about
    2^N N A 3^l ring coefficient products for A distinct bodies.
    """
    N = len(word)
    caps = Counter(word)
    size = 1 << len(mu)
    shifts = [sum(p for j, p in enumerate(mu) if t >> j & 1) for t in range(size)]
    pairs = _subset_pairs(len(mu))
    # W[b][q] = (values, |values|, errors, |values| + errors) over the subsets T
    W = []
    for body in caps:
        row = []
        for q in range(2 * N - 1):
            vals, errs = zip(*(moment(body, q + s) for s in shifts))
            mags = [abs(v) for v in vals]
            row.append((vals, mags, errs, [m + e for m, e in zip(mags, errs)]))
        W.append(row)
    need = tuple(caps.values())
    unit = [1.0] + [0.0] * (size - 1)
    layer = {(0, (0,) * len(need)): ([complex(x) for x in unit], unit, [0.0] * size)}
    for j in range(N):
        nxt = {}
        for (cols, used), (av, ap, ae) in layer.items():
            for k in range(N):
                if cols >> k & 1:
                    continue
                # Laplace sign: one inversion per used column right of k
                sv = [-x for x in av] if bin(cols >> k).count("1") & 1 else av
                for b, cap in enumerate(need):
                    if used[b] == cap:
                        continue
                    key = (cols | 1 << k, used[:b] + (used[b] + 1,) + used[b + 1:])
                    if key not in nxt:
                        nxt[key] = ([0j] * size, [0.0] * size, [0.0] * size)
                    tv, tp, te = nxt[key]
                    wv, wm, we, wme = W[b][j + k]
                    for u, t, r in pairs:
                        tv[u] += sv[t] * wv[r]
                        tp[u] += ap[t] * wm[r]
                        te[u] += ae[t] * wme[r] + ap[t] * we[r]
        layer = nxt
    ((av, _, ae),) = layer.values()
    scale = math.prod(math.factorial(n) for n in need)
    return scale * av[-1], scale * ae[-1]


def expectation(G: HomologyClass, p: PowerSumPoly, table: MomentTable):
    """E_Gamma(p) = integral of p * Delta^2 * prod e^{-V}, with error estimate,
    over the 1-D moments of ``table``, whose arcs must be the class's basis.

    Each (composition, p_mu) cell is one ``vandermonde_sum`` over tabulated
    1-D moments: (N!)^2 N^len(mu) products up to N = 2, about
    2^N N A 3^len(mu) ring products from N = 3 (A arcs in the composition).
    Hard caps N <= 5 and len(mu) <= 6.
    """
    N = G.N
    if N > MAX_VARS:
        raise ValueError(f"N={N} exceeds the assembly cap N <= {MAX_VARS}")
    if G.arc_basis != table.arcs:
        raise ValueError("moment table arcs differ from the class's arc basis")
    if isinstance(p.nvars, int) and p.nvars != N:
        raise ValueError(f"polynomial is for {p.nvars} variables, class has N={N}")
    if p.max_length() > N:
        # same function of N variables, exponentially cheaper to assemble
        p = reduce_length(p, N)
    if p.max_length() > MAX_PARTS:
        raise ValueError(f"partition length {p.max_length()} exceeds cap {MAX_PARTS}")
    total = 0j
    err_total = 0.0
    for comp, ccoef in G.terms:
        if not ccoef:
            continue
        word = [arc_idx for arc_idx, cnt in enumerate(comp) for _ in range(cnt)]
        comp_val = 0j
        comp_err = 0.0
        for mu, coeff in p.terms.items():
            cval = complex(coeff)
            if not cval:
                continue
            term_val, term_err = vandermonde_sum(table.moment, word, mu)
            comp_val += cval * term_val
            comp_err += abs(cval) * term_err
        total += ccoef * comp_val
        err_total += abs(ccoef) * comp_err
    return total, err_total


def oracle_from_quadrature(G: HomologyClass, partitions, table: MomentTable):
    """Tabulate E(p_nu) with error estimates (the empty partition gives Z).

    Returns (values, errors), both keyed by partition.
    """
    values: dict[Partition, complex] = {}
    errors: dict[Partition, float] = {}
    for nu in partitions:
        nu = Partition(tuple(nu))
        poly = PowerSumPoly.monomial(nu, G.N)
        val, err = expectation(G, poly, table)
        values[nu] = val
        errors[nu] = err
    return values, errors


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
    ``table.arcs``, and report the singular values of the column-scaled matrix."""
    d = table.V.d
    size = hn_dimension(N, d)
    rows = compositions(N, d)
    cols = partitions_in_box(N, d - 1)
    assert len(rows) == len(cols) == size
    entries = []
    errors = []
    for comp in rows:
        G = HomologyClass.make(N, table.arcs, {comp: 1.0})
        row_vals, row_errs = oracle_from_quadrature(G, cols, table)
        entries.append(list(row_vals.values()))
        errors.append(list(row_errs.values()))
    A = np.array(entries, dtype=complex)
    scale = np.max(np.abs(A), axis=0)
    scale[scale == 0] = 1.0
    svals = np.linalg.svd(A / scale, compute_uv=False)
    return MomentMatrix(
        N=N,
        d=d,
        rows=rows,
        cols=cols,
        entries=entries,
        errors=errors,
        singular_values=[float(s) for s in svals],
    )
