"""Saddle-point discriminators: the quantitative injectivity witness.

For r large, the critical points of V_r(x) = V(x) - r log x (solutions of
x V'(x) = r) sit on the admissible-sector bisectors; rays from the origin
through each saddle are steepest-type arcs for the weight x^r e^{-V}.  Test
polynomials p_{r,m} built from the Lagrange basis at the saddles concentrate
the measure on a prescribed saddle assignment, so suitably normalized
expectations converge to Kronecker deltas and recover the coefficients of any
arc combination.

The arc basis used here anchors every class at the most strongly damped
saddle (largest Re V_r), pairing it with each of the other d saddles; with
consecutive-sector arcs the projection onto saddle classes is triangular
rather than diagonal, and the delta limit fails by design, not by numerics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import zip_longest
from math import factorial

import numpy as np

from .loopgen import Potential
from .quadrature import _quad_complex, vandermonde_sum

MAX_BODIES = 2
MAX_DEGREE = 3


@dataclass
class SaddleSet:
    """Critical-point data of V_r = V - r log x (all saddles at infinity)."""

    r: int
    xi: list  # complex saddle locations, sorted by phase
    Q_prime: list  # prod_{k != j} (xi_j - xi_k)
    Vr_values: list  # V_r(xi_j), principal log
    Vr_second: list  # V_r''(xi_j)
    anchor_index: int

    @property
    def count(self) -> int:
        return len(self.xi)


def saddle_points(V: Potential, r: int) -> SaddleSet:
    """All solutions of x V'(x) = r, Newton-polished, with saddle data.

    Raises if roots coincide (r too small for the asymptotic regime).
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    # numerator of x V'(x) - r: x R(x) - r D(x)
    R, D = V.complex_coeffs
    coeffs = [a - r * b for a, b in zip_longest((0j, *R), D, fillvalue=0j)]
    while coeffs and abs(coeffs[-1]) == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise ValueError("x V'(x) = r is degenerate for this potential")
    roots = np.roots(list(reversed(coeffs)))

    def f(z):
        return z * V.dV(z) - r

    def fprime(z):
        h = 1e-6 * max(1.0, abs(z))
        return (f(z + h) - f(z - h)) / (2 * h)

    polished = []
    for z in roots:
        z = complex(z)
        for _ in range(8):
            fz = f(z)
            if abs(fz) < 1e-13 * max(1.0, abs(r)):
                break
            z = z - fz / fprime(z)
        polished.append(z)
    scale = max(abs(z) for z in polished)
    for i in range(len(polished)):
        for j in range(i + 1, len(polished)):
            if abs(polished[i] - polished[j]) < 1e-6 * scale:
                raise ValueError(
                    f"coincident saddle points at r={r}; increase r for distinct saddles"
                )
    polished.sort(key=lambda z: cmath.phase(z) % (2 * math.pi))
    qprime = []
    for j, zj in enumerate(polished):
        prod = 1.0 + 0j
        for k, zk in enumerate(polished):
            if k != j:
                prod *= zj - zk
        qprime.append(prod)
    vr_vals = [V.V(z) - r * cmath.log(z) for z in polished]
    vr_second = [_second_derivative(V, z) + r / z ** 2 for z in polished]
    anchor = max(range(len(polished)), key=lambda j: (vr_vals[j].real, -abs(polished[j].imag)))
    return SaddleSet(
        r=r,
        xi=polished,
        Q_prime=qprime,
        Vr_values=vr_vals,
        Vr_second=vr_second,
        anchor_index=anchor,
    )


def _second_derivative(V: Potential, z: complex) -> complex:
    if V.kind == "polynomial":
        out = 0j
        for k, c in enumerate(V.complex_coeffs[0], start=1):
            if k >= 2:
                out += c * (k - 1) * z ** (k - 2)
        return out
    h = 1e-6 * max(1.0, abs(z))
    return (V.dV(z + h) - V.dV(z - h)) / (2 * h)


def lagrange_f(S: SaddleSet):
    """Pointwise Lagrange evaluators f_j with f_j(xi_i) = delta_ij."""
    xi = list(S.xi)
    qp = list(S.Q_prime)

    def make(j):
        def f(x):
            prod = 1.0 + 0j
            for k, zk in enumerate(xi):
                if k != j:
                    prod *= x - zk
            return prod / qp[j]

        return f

    return [make(j) for j in range(len(xi))]


def _gaussian_block_constant(n: int) -> float:
    """Full-domain Vandermonde-squared Gaussian integral over R^n.

    (2 pi)^{n/2} prod_{k=1}^{n} k!; the ordered-sector value is smaller by n!.
    """
    out = (2 * math.pi) ** (n / 2)
    for k in range(1, n + 1):
        out *= factorial(k)
    return out


class DiscriminatorEngine:
    """Shared quadrature and saddle data for the delta-limit ratios.

    Arc j (j = 1..d) is the origin-crossing bisector arc from the anchor
    saddle's sector to the j-th non-anchor saddle's sector; compositions over
    arcs map to saddle assignments over the non-anchor saddles.
    """

    def __init__(self, V: Potential, r: int, tol: float = 1e-9):
        if V.kind != "polynomial":
            raise ValueError("the discriminator supports polynomial potentials")
        if V.d > MAX_DEGREE:
            raise ValueError(f"d={V.d} beyond the discriminator cap {MAX_DEGREE}")
        self.V = V
        self.r = r
        self.tol = tol
        self.S = saddle_points(V, r)
        span = max(abs(v.real) for v in self.S.Vr_values)
        if span * MAX_BODIES > 650.0:
            raise ValueError(
                f"|Re V_r| ~ {span:.0f} exceeds double-precision dynamic range; lower r"
            )
        self.f = lagrange_f(self.S)
        self.anchor = self.S.anchor_index
        self.others = [j for j in range(self.S.count) if j != self.anchor]
        self._prims: dict[tuple[int, int, int], tuple[complex, float]] = {}
        self._trunc: dict[int, float] = {}

    # -- 1-D primitives ------------------------------------------------------

    def _truncation(self, j: int) -> float:
        if j in self._trunc:
            return self._trunc[j]
        theta = cmath.phase(self.S.xi[j])
        peak_r = abs(self.S.xi[j])

        def logmag(rho: float) -> float:
            if rho <= 0:
                return -math.inf
            z = rho * cmath.exp(1j * theta)
            return self.r * math.log(rho) - self.V.V(z).real

        top = logmag(peak_r)
        rho = peak_r
        for _ in range(200):
            rho *= 1.12
            if logmag(rho) < top - 60.0:
                break
        self._trunc[j] = rho
        return rho

    def _primitive(self, j: int, c: int, extra: int) -> tuple[complex, float]:
        """integral over the ray through saddle j of x^{r+extra} f_c(x) e^{-V},
        with the quadrature error estimate."""
        key = (j, c, extra)
        if key in self._prims:
            return self._prims[key]
        theta = cmath.phase(self.S.xi[j])
        phase = cmath.exp(1j * theta)
        smax = self._truncation(j)
        peak = abs(self.S.xi[j])
        width = peak / math.sqrt(self.r)
        fc = self.f[c]
        rr = self.r + extra

        def integrand(s):
            z = s * phase
            if s <= 0:
                return 0j
            # x^{r+extra} e^{-V} dz with dz = e^{i theta} ds, kept in log form
            logm = rr * math.log(s) - self.V.V(z)
            return cmath.exp(logm + 1j * (rr + 1) * theta) * fc(z)

        total = 0j
        err = 0.0
        cuts = [0.0, max(0.0, peak - 8 * width), peak + 8 * width, smax]
        for a, b in zip(cuts, cuts[1:]):
            if b <= a:
                continue
            val, e = _quad_complex(integrand, a, b, self.tol)
            total += val
            err += e
        self._prims[key] = total, err
        return total, err

    # -- N-body expectations ---------------------------------------------------

    def _body_moment(self, body: tuple[int, int], k: int) -> tuple[complex, float]:
        """Moment of x^k over body (arc, c) = x^r f_c(x) e^{-V} dx on that arc,
        with the two rays' quadrature errors summed."""
        arc, c = body
        v_other, e_other = self._primitive(self.others[arc], c, k)
        v_anchor, e_anchor = self._primitive(self.anchor, c, k)
        return v_other - v_anchor, e_other + e_anchor

    def expectation(self, n: tuple[int, ...], m_hat: tuple[int, ...]) -> complex:
        """E over the product domain of arcs (composition n) of p_{r, m_hat}."""
        N = sum(n)
        if N > MAX_BODIES:
            raise ValueError(f"N={N} beyond the discriminator cap {MAX_BODIES}")
        word = [arc for arc, cnt in enumerate(n) for _ in range(cnt)]
        assignments = _level_maps(m_hat, N)
        total = 0j
        for s in assignments:
            total += vandermonde_sum(self._body_moment, tuple(zip(word, s)))[0]
        return total / len(assignments)

    def amplitude(self, m_hat: tuple[int, ...]) -> complex:
        """The saddle-product normalization A(m) including Q' factors."""
        S = self.S
        out = 1.0 + 0j
        for i in range(S.count):
            for j in range(i + 1, S.count):
                e = 2 * m_hat[i] * m_hat[j]
                if e:
                    out *= (S.xi[i] - S.xi[j]) ** e
        for j, mm in enumerate(m_hat):
            if mm == 0:
                continue
            z = S.Vr_second[j] * S.xi[j] ** 2 / self.r
            w = 1.0 / cmath.sqrt(z)
            block = (
                cmath.exp(-mm * S.Vr_values[j])
                * _gaussian_block_constant(mm)
                * (S.xi[j] / math.sqrt(self.r) * w) ** (mm * mm)
            )
            out *= block * S.Q_prime[j] ** mm
        return out

    def ratio(self, n: tuple[int, ...], m: tuple[int, ...]) -> complex:
        """The normalized pairing for the single class gamma^n; -> delta_{n,m}."""
        d = len(self.others)
        if len(n) != d or len(m) != d:
            raise ValueError(f"compositions must have length d={d}")
        if sum(m) != sum(n):
            raise ValueError("compositions n and m must have equal size")
        return self.ratio_for_class({tuple(n): 1}, m)

    def ratio_for_class(self, coeffs: dict, m: tuple[int, ...]) -> complex:
        """E_Gamma(p_{r,m}) * prod Q'(xi)^m * (N!/prod m_j!) / A(m) for
        Gamma = sum_n coeffs[n] gamma^n."""
        m_hat = self._lift(m)
        E = 0j
        for n, c in coeffs.items():
            E += complex(c) * self.expectation(tuple(n), m_hat)
        qfac = 1.0 + 0j
        for j, mm in enumerate(m_hat):
            if mm:
                qfac *= self.S.Q_prime[j] ** mm
        N = sum(m)
        snorm = factorial(N)
        for mm in m_hat:
            snorm //= factorial(mm)
        return E * qfac * snorm / self.amplitude(m_hat)

    def _lift(self, m: tuple[int, ...]) -> tuple[int, ...]:
        m_hat = [0] * self.S.count
        for arc, mm in enumerate(m):
            m_hat[self.others[arc]] = mm
        return tuple(m_hat)


def _level_maps(m_hat: tuple[int, ...], N: int):
    """All functions {0..N-1} -> saddle indices with prescribed level sizes."""
    import itertools

    letters = [j for j, mm in enumerate(m_hat) for _ in range(mm)]
    return sorted(set(itertools.permutations(letters, N)))


@dataclass
class DiscriminatorReport:
    r: int
    N: int
    tol: float
    ratios: dict  # (n, m) -> complex
    max_deviation: float = field(init=False)

    def __post_init__(self):
        dev = 0.0
        for (n, m), v in self.ratios.items():
            target = 1.0 if n == m else 0.0
            dev = max(dev, abs(v - target))
        self.max_deviation = dev

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "N": self.N,
            "tol": self.tol,
            "max_deviation": self.max_deviation,
            "ratios": [
                {"n": list(n), "m": list(m), "value": [v.real, v.imag]}
                for (n, m), v in sorted(self.ratios.items())
            ],
        }


def discriminator_report(V: Potential, r: int, N: int, tol: float = 1e-9) -> DiscriminatorReport:
    from .symfunc import compositions

    if N < 1:
        raise ValueError("N must be positive")
    engine = DiscriminatorEngine(V, r, tol)
    d = len(engine.others)
    comps = [c for c in compositions(N, d)]
    ratios = {}
    for n in comps:
        for m in comps:
            ratios[(n, m)] = engine.ratio(n, m)
    return DiscriminatorReport(r=r, N=N, tol=tol, ratios=ratios)
