"""Gaussian Wick calculus and map generating series: the combinatorial side of
the loop equations.

Trace moments of the unit Gaussian matrix weight are sums over perfect
matchings of half-edges, each contributing N^(number of index loops); they are
taken by a walk over partial matchings that tracks the open index paths, with
no loop-equation recursion.  The face counts of a walk state depend only on
its cycle type, since renaming half-edges permutes the matchings, so one
process-wide memo keyed by cycle type is the only cache.  Vertex insertions
from exp(N sum_k t_k Tr M^k / k) with propagator weight t/N turn these into
generating series counting (non-connected) maps graded by edge count, with
coefficients that are Laurent polynomials in N times monomials in the
couplings.  The recursion structure of those series is exactly the loop
equations, which is checked here with exact rational arithmetic.  One cap
bounds the enumeration: trace moments stop at ``HALF_EDGE_CAP`` half-edges,
and the edge-order cap of the series follows from it, since ``tutte_residual``
runs its series one edge order past the requested one.  Every vertex weight is
read through ``_weights``: once by ``map_series``, ``map_potential`` and
``apply_functional``, and twice by ``tutte_residual``, which calls the last two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial

from .exact import CRational, MPoly
from .loopgen import Potential, q_polynomial

HALF_EDGE_CAP = 24

NVARS = ("N",)


@cache
def _count_faces(cycles: tuple[int, ...]) -> tuple[int, ...]:
    """Entry c: how many perfect matchings of the free half-edges close c faces,
    from a face-path state of the sorted cycle type ``cycles``.

    A state maps each free half-edge x to the free y such that the open path
    of gamma.pi ending at x starts at gamma[y]; with no arcs yet it is
    gamma^-1.  Pairing 0 with b adds the arcs 0 -> gamma[b] and b -> gamma[0];
    an arc closes a face when it joins a path to its own start, otherwise it
    joins two paths.  Renaming the free half-edges conjugates the state and
    permutes the matchings, so the counts depend only on the state's cycle
    type: each type is walked once, from the state with its cycles on
    consecutive labels, shortest first (pairing half-edge 0 of a shortest
    cycle meets fewer types), and every trace moment shares this
    process-wide memo.  The walk stays a walk over matchings: a recursion on
    cycle lengths would be the Gaussian loop equation itself, which
    ``tutte_residual`` checks.
    """
    if not cycles:
        return (1,)
    f, pos = [], 0
    for k in cycles:
        f += [pos + (i + 1) % k for i in range(k)]
        pos += k
    out = [0] * (len(f) + 1)
    for b in range(1, len(f)):
        g = f.copy()
        closed = 0
        for x, y in ((0, b), (b, 0)):
            if g[x] == y:
                closed += 1
            else:
                g[g.index(y)] = g[x]
            g[x] = -1
        lengths = []
        for x in range(len(g)):
            n = 0
            while g[x] >= 0:  # clear x and step along its cycle
                g[x], x = -1, g[x]
                n += 1
            if n:
                lengths.append(n)
        for c, n in enumerate(_count_faces(tuple(sorted(lengths))), closed):
            out[c] += n
    while not out[-1]:
        out.pop()
    return tuple(out)


def gaussian_trace_moment(powers: tuple[int, ...]) -> MPoly:
    """< prod_i Tr M^{k_i} > for the unit Gaussian weight e^{-Tr M^2 / 2}.

    Sums N^(cycles of gamma.pi) over perfect matchings pi of the half-edges,
    gamma being the product of the trace cycles; exact polynomial in N.  The
    sum is taken by ``_count_faces``, a memoized walk over partial matchings
    that uses no loop-equation recursion, so it stays an independent check of
    ``tutte_residual``.  The walk starts from gamma^-1, whose cycle type is
    the sorted powers, so the same multiset in any order is one memo key.
    """
    powers = tuple(sorted(int(k) for k in powers))
    if any(k < 1 for k in powers):
        raise ValueError("trace powers must be positive")
    total = sum(powers)
    if total % 2:
        return MPoly.zero(NVARS)
    if total > HALF_EDGE_CAP:
        raise ValueError(
            f"half-edge count {total} exceeds the enumeration cap {HALF_EDGE_CAP}"
        )
    counts = _count_faces(powers)
    return MPoly(NVARS, {(c,): CRational(n) for c, n in enumerate(counts) if n})


@dataclass
class MapSeries:
    """Truncated generating series in the propagator weight t.

    ``coeffs`` maps edge count e to a polynomial in N and the coupling symbols
    (multidegree in t_3..t_{d+1} tracked exactly); absent keys are zero.
    """

    marked: tuple[int, ...]
    e_max: int
    vars: tuple[str, ...]
    coeffs: dict[int, MPoly]

    def get(self, e: int) -> MPoly:
        return self.coeffs.get(e, MPoly.zero(self.vars))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.coeffs.values())

    def to_json(self) -> dict:
        return {
            "marked": list(self.marked),
            "e_max": self.e_max,
            "vars": list(self.vars),
            "coeffs": {
                str(e): [
                    {"exponents": list(ex), "re": str(c.re), "im": str(c.im)}
                    for ex, c in sorted(p.terms.items())
                ]
                for e, p in sorted(self.coeffs.items())
                if not p.is_zero()
            },
        }


def _series_vars(degrees: tuple[int, ...]) -> tuple[str, ...]:
    return ("N",) + tuple(f"t{k}" for k in degrees)


def _check_order(e_max: int) -> None:
    # tutte runs its series to e_max + 1 edges, and e edges have 2e half-edges
    cap = HALF_EDGE_CAP // 2 - 1
    if not 0 <= e_max <= cap:
        raise ValueError(f"edge order {e_max} outside 0..{cap} ({cap} is the complexity cap)")


def _weights(tweights: dict[int, object]) -> dict[int, CRational]:
    """Vertex weights as int degree -> CRational, in ascending degree."""
    weights = {int(k): CRational.coerce(v) for k, v in sorted(tweights.items())}
    if any(k < 3 for k in weights):
        raise ValueError("vertex weights start at degree 3")
    return weights


def map_series(tweights: dict[int, object], marked: tuple[int, ...], e_max: int) -> MapSeries:
    """Non-connected map generating series T_{marked} to edge order e_max.

    ``tweights`` maps vertex degrees (>= 3) to exact rational weights; marked
    faces must have size >= 1.  Grading: e = (sum of vertex degrees + sum of
    marked sizes) / 2.
    """
    _check_order(e_max)
    return _series(_weights(tweights), marked, e_max)


def _series(weights: dict[int, CRational], marked: tuple[int, ...], e_max: int) -> MapSeries:
    """``map_series`` on weights parsed by ``_weights``, with no order check."""
    marked = tuple(int(k) for k in marked)
    if any(k < 1 for k in marked):
        raise ValueError("marked face sizes must be >= 1")
    degrees = tuple(weights)
    svars = _series_vars(degrees)
    base = sum(marked)
    # distinct configurations give distinct monomials (N^(nshift + c), mvec),
    # so each edge layer collects its terms with nothing to merge
    layers: dict[int, dict[tuple[int, ...], CRational]] = {}
    # each m_k within budget alone: odd or e > e_max entries are skipped before any trace moment
    for mvec in product(*(range((2 * e_max - base) // k + 1) for k in degrees)):
        half = base + sum(k * m for k, m in zip(degrees, mvec))
        e = half // 2
        if half % 2 or e > e_max:
            continue
        powers = marked + tuple(
            k for k, m in zip(degrees, mvec) for _ in range(m)
        )
        wick = gaussian_trace_moment(powers) if powers else MPoly.const(1, NVARS)
        rat = CRational(1)
        for k, m in zip(degrees, mvec):
            rat = rat * (weights[k] / k) ** m / Fraction(factorial(m))
        nshift = sum(mvec) - e
        layer = layers.setdefault(e, {})
        for (c,), q in wick.terms.items():
            layer[(nshift + c, *mvec)] = rat * q
    coeffs = {e: p for e, t in layers.items() if (p := MPoly(svars, t))}
    return MapSeries(marked=marked, e_max=e_max, vars=svars, coeffs=coeffs)


def map_potential(tweights: dict[int, object]) -> tuple[Potential, tuple[str, ...], MPoly]:
    """The map-model potential V(x) = N (x^2/2t - sum_k t_k x^k / k) as a
    symbolic Potential, together with its generator tuple and the symbol N."""
    weights = _weights(tweights)
    top = max(weights, default=2)
    qvars = ("N", "t") + tuple(f"t{k}" for k in weights)
    N = MPoly.gen("N", qvars)
    zero = MPoly.zero(qvars)
    tau = [zero] * top
    tau[1] = N * MPoly.gen("t", qvars, power=-1)
    for k, w in weights.items():
        tau[k - 1] = -(N * MPoly.gen(f"t{k}", qvars) * w)
    return Potential.polynomial(tau), qvars, N


def apply_functional(Q, qvars: tuple[str, ...], tweights: dict[int, object], e_max: int) -> MapSeries:
    """E(Q) as a truncated series, with E(p_nu) := T_nu built from ``tweights``.

    ``Q`` must carry MPoly coefficients over ``qvars`` (as produced by
    q_polynomial on a map_potential); the internal series run one edge order
    past e_max so the 1/t propagator coefficient stays complete.
    """
    weights = _weights(tweights)
    svars = _series_vars(tuple(weights))
    order = e_max + 1
    n_idx = qvars.index("N")
    t_idx = qvars.index("t")
    coup_idx = [qvars.index(f"t{k}") for k in weights]
    out: dict[int, MPoly] = {}
    for nu, coeff in Q.terms.items():
        T = _series(weights, tuple(nu), order)
        for exps, q in coeff.terms.items():
            mono = (exps[n_idx],) + tuple(exps[i] for i in coup_idx)
            factor = MPoly(svars, {mono: q})
            for e, poly in T.coeffs.items():
                target = e + exps[t_idx]
                if target < 0 or target > e_max:
                    continue
                out[target] = out.get(target, MPoly.zero(svars)) + factor * poly
    out = {e: p for e, p in out.items() if not p.is_zero()}
    return MapSeries(marked=(), e_max=e_max, vars=svars, coeffs=out)


def tutte_residual(tweights: dict[int, object], mu: tuple[int, ...], e_max: int) -> MapSeries:
    """Residual series of E(Q_mu) under E(p_nu) := T_nu.

    The recursion counting maps is exactly the loop equations, so every
    coefficient must be an identically zero polynomial; any nonzero entry in
    the returned series is a genuine discrepancy.
    """
    _check_order(e_max)
    V, qvars, N = map_potential(tweights)
    Q = q_polynomial(tuple(mu), V, nvars=N)
    res = apply_functional(Q, qvars, tweights, e_max)
    return MapSeries(marked=tuple(mu), e_max=e_max, vars=res.vars, coeffs=res.coeffs)
