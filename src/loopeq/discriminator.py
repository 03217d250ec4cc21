"""Saddle-point discriminators: the quantitative injectivity witness.

For r large, the critical points of V_r(x) = V(x) - r log x (solutions of
x V'(x) = r) sit on the admissible-sector bisectors; rays from the origin
through each saddle are steepest-type arcs for the weight x^r e^{-V}.  Test
polynomials p_{r,m} built from the Lagrange basis at the saddles concentrate
the measure on a prescribed saddle assignment, so suitably normalized
expectations converge to Kronecker deltas and recover the coefficients of any
arc combination.

Every body moment is a combination of plain ray moments (``_body_moment``).
Each ray moment is integrated once per engine by L1's segment rule, and each
body moment formed once, both kept in a ``MomentMap``; the range guard on
|Re V_r| keeps the integrands x^q e^{-V} inside double precision.

The arc basis used here anchors every class at the most strongly damped
saddle (largest Re V_r), pairing it with each of the other d saddles; with
consecutive-sector arcs the projection onto saddle classes is triangular
rather than diagonal, and the delta limit fails by design, not by numerics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import permutations
from math import factorial

import numpy as np

from .contours import RaySeg
from .exact import CRational
from .loopgen import Potential, poly_deriv, poly_gcd
from .momsolve import gamma
from .quadrature import MomentMap, _segment_moment, _word, vandermonde_sum
from .symfunc import compositions

MAX_BODIES = 2


@dataclass
class SaddleSet:
    """Critical-point data of V_r = V - r log x (all saddles at infinity)."""

    xi: list  # complex saddle locations, sorted by phase
    Vr_values: list  # V_r(xi_j), principal log
    Vr_second: list  # V_r''(xi_j)
    anchor_index: int


def saddle_points(V: Potential, r: int) -> SaddleSet:
    """All solutions of x V'(x) = r for polynomial V, Newton-polished, with saddle data.

    Raises if roots coincide (r too small for the asymptotic regime).
    """
    if V.kind != "polynomial":
        raise ValueError("the discriminator supports polynomial potentials")
    if r < 1:
        raise ValueError("r must be a positive integer")
    # x V'(x) - r = x R(x) - r, since D = 1 for polynomial V; a repeated root
    # is decided exactly, since np.roots splits a triple one by about 1e-5
    P = [CRational(-r), *V.R]
    if len(poly_gcd(P, poly_deriv(P))) > 1:
        raise ValueError(f"coincident saddle points at r={r}; increase r for distinct saddles")
    coeffs = [complex(-r), *V.complex_coeffs[0]]
    roots = np.roots(list(reversed(coeffs)))

    polished = []
    for z in roots:
        z = complex(z)
        for _ in range(8):
            fz = z * V.dV(z) - r
            if abs(fz) < 1e-13 * max(1.0, abs(r)):
                break
            z = z - fz / (V.dV(z) + z * _second_derivative(V, z))
        polished.append(z)
    scale = max(abs(z) for z in polished)
    for i in range(len(polished)):
        for j in range(i + 1, len(polished)):
            if abs(polished[i] - polished[j]) < 1e-6 * scale:
                raise ValueError(
                    f"coincident saddle points at r={r}; increase r for distinct saddles"
                )
    polished.sort(key=lambda z: cmath.phase(z) % (2 * math.pi))
    vr_vals = [V.V(z) - r * cmath.log(z) for z in polished]
    vr_second = [_second_derivative(V, z) + r / z ** 2 for z in polished]
    anchor = max(range(len(polished)), key=lambda j: (vr_vals[j].real, -abs(polished[j].imag)))
    return SaddleSet(
        xi=polished,
        Vr_values=vr_vals,
        Vr_second=vr_second,
        anchor_index=anchor,
    )


def _second_derivative(V: Potential, z: complex) -> complex:
    """V''(z) for polynomial V."""
    out = 0j
    for k, c in enumerate(V.complex_coeffs[0], start=1):
        if k >= 2:
            out += c * (k - 1) * z ** (k - 2)
    return out


def lagrange_f(S: SaddleSet) -> list[list[complex]]:
    """Ascending monomial coefficients of the Lagrange polynomials f_j,
    f_j(x) = prod_{k != j} (x - xi_k) / Q'(xi_j), so f_j(xi_i) = delta_ij."""
    out = []
    for j, zj in enumerate(S.xi):
        coeffs, qp = [1.0 + 0j], 1.0 + 0j
        for k, zk in enumerate(S.xi):
            if k != j:  # multiply by (x - zk), and Q'(xi_j) by (xi_j - zk)
                coeffs = [a - zk * b for a, b in zip([0j, *coeffs], [*coeffs, 0j])]
                qp *= zj - zk
        out.append([a / qp for a in coeffs])
    return out


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
    arcs map to saddle assignments over the non-anchor saddles.  ``_rays``
    and ``moments`` are ``MomentMap``s over ``_ray`` and ``_body_moment``.
    """

    def __init__(self, V: Potential, r: int, tol: float = 1e-9):
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
        self.others = [j for j in range(len(self.S.xi)) if j != self.anchor]
        self._rays = MomentMap(self, "_ray")
        self.moments = MomentMap(self, "_body_moment")  # what the N-body kernel reads

    def _ray(self, j: int, q: int) -> tuple[complex, float]:
        """R_j(q): integral of x^q e^{-V} from 0 out along the ray through saddle j,
        with its error estimate (L1's segment rule); ``_rays`` keeps each one."""
        ray = RaySeg(0j, cmath.phase(self.S.xi[j]))
        return _segment_moment(ray, self.V, q, self.tol)

    def _body_moment(self, body: tuple[int, int], k: int) -> tuple[complex, float]:
        """Moment of x^k over body (arc, c) = x^r f_c(x) e^{-V} dx on that arc:
        sum_i a_{c,i} [R_j(r + k + i) - R_anchor(r + k + i)] over the coefficients
        a_{c,i} of f_c, with the bar sum_i |a_{c,i}| (e_j + e_anchor)."""
        arc, c = body
        j = self.others[arc]
        total = 0j
        err = 0.0
        for i, a in enumerate(self.f[c]):
            v_other, e_other = self._rays[j, self.r + k + i]
            v_anchor, e_anchor = self._rays[self.anchor, self.r + k + i]
            total += a * (v_other - v_anchor)
            err += abs(a) * (e_other + e_anchor)
        return total, err

    def expectation(self, n: tuple[int, ...], m_hat: tuple[int, ...]) -> tuple[complex, float]:
        """E over the product domain of arcs (composition n) of p_{r, m_hat}:
        the sum over level maps s of the Vandermonde assembly of the bodies
        (arc, s(i)), not their mean, with the sum of the assembly's bounds."""
        N = sum(n)
        if N > MAX_BODIES:
            raise ValueError(f"N={N} beyond the discriminator cap {MAX_BODIES}")
        total, err = 0j, 0.0
        for s in _level_maps(m_hat, N):
            v, e = vandermonde_sum(self.moments, tuple(zip(_word(n), s)))
            total, err = total + v, err + e
        return total, err

    def amplitude(self, m_hat: tuple[int, ...]) -> complex:
        """The saddle-product normalization A(m): the Vandermonde of the saddles
        and a Gaussian block per occupied saddle.  It has no Q'(xi) factors, since
        each f_c is already normalized to 1 at its own saddle."""
        S = self.S
        out = 1.0 + 0j
        for i in range(len(S.xi)):
            for j in range(i + 1, len(S.xi)):
                e = 2 * m_hat[i] * m_hat[j]
                if e:
                    out *= (S.xi[i] - S.xi[j]) ** e
        for j, mm in enumerate(m_hat):
            if mm == 0:
                continue
            z = S.Vr_second[j] * S.xi[j] ** 2 / self.r
            w = 1.0 / cmath.sqrt(z)
            out *= (
                cmath.exp(-mm * S.Vr_values[j])
                * _gaussian_block_constant(mm)
                * (S.xi[j] / math.sqrt(self.r) * w) ** (mm * mm)
            )
        return out

    def ratio(self, n: tuple[int, ...], m: tuple[int, ...]) -> tuple[complex, float]:
        """The normalized pairing for the single class gamma^n, -> delta_{n,m},
        with its error bar."""
        d = len(self.others)
        if len(n) != d or len(m) != d:
            raise ValueError(f"compositions must have length d={d}")
        if sum(m) != sum(n):
            raise ValueError("compositions n and m must have equal size")
        return self.ratio_for_class({tuple(n): 1}, m)

    def ratio_for_class(self, coeffs: dict, m: tuple[int, ...]) -> tuple[complex, float]:
        """E_Gamma(p_{r,m}) / A(m) for Gamma = sum_n coeffs[n] gamma^n, E being
        the sum over the N!/prod m_j! level maps of ``expectation``, with the
        bar sum_n |coeffs[n]| e_n / |A(m)| from the expectations' bars e_n."""
        m_hat = self._lift(m)
        E, err = 0j, 0.0
        for n, c in coeffs.items():
            v, e = self.expectation(tuple(n), m_hat)
            E, err = E + complex(c) * v, err + abs(complex(c)) * e
        A = self.amplitude(m_hat)
        return E / A, err / abs(A)

    def _lift(self, m: tuple[int, ...]) -> tuple[int, ...]:
        m_hat = [0] * len(self.S.xi)
        for arc, mm in enumerate(m):
            m_hat[self.others[arc]] = mm
        return tuple(m_hat)


def _level_maps(m_hat: tuple[int, ...], N: int):
    """All functions {0..N-1} -> saddle indices with prescribed level sizes."""
    letters = [j for j, mm in enumerate(m_hat) for _ in range(mm)]
    return sorted(set(permutations(letters, N)))


@dataclass
class DiscriminatorReport:
    """The ratio matrix R[n, m], each entry a (value, bar) pair.  ``distance``
    is ||R - I||_2 and ``bound`` its error bound ||bars||_F + gamma_n distance
    over the n ratios (the second term covers the norm's own rounding).  A
    pass, distance + bound < 1, certifies sigma_min(R) > 0 for the exact
    ratios, since sigma_min(R) >= 1 - ||R - I||_2 (Neumann series; Horn &
    Johnson, Matrix Analysis, 5.6): the classes gamma^n are told apart at
    this r.  The JSON carries ``max_deviation``, the largest
    |R[n, m] - delta_nm|, and leaves the bars out."""

    r: int
    N: int
    tol: float
    ratios: dict  # (n, m) -> (complex value, error bar)
    max_deviation: float = field(init=False)
    distance: float = field(init=False)
    bound: float = field(init=False)
    verified: bool = field(init=False)

    def __post_init__(self):
        comps = sorted({n for n, _ in self.ratios})
        dev = np.array([[self.ratios[n, m][0] - (n == m) for m in comps] for n in comps])
        self.max_deviation = max(0.0, *(abs(v - (n == m)) for (n, m), (v, _) in self.ratios.items()))
        self.distance = float(np.linalg.norm(dev, 2))
        bars = [e for _, e in self.ratios.values()]
        self.bound = float(np.linalg.norm(bars) + gamma(len(bars)) * self.distance)
        self.verified = self.distance + self.bound < 1

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "N": self.N,
            "tol": self.tol,
            "max_deviation": self.max_deviation,
            "ratios": [
                {"n": list(n), "m": list(m), "value": [v.real, v.imag]}
                for (n, m), (v, _) in sorted(self.ratios.items())
            ],
        }


def discriminator_report(V: Potential, r: int, N: int, tol: float = 1e-9) -> DiscriminatorReport:
    if N < 1:
        raise ValueError("N must be positive")
    engine = DiscriminatorEngine(V, r, tol)
    d = len(engine.others)
    comps = compositions(N, d)
    ratios = {(n, m): engine.ratio(n, m) for n in comps for m in comps}
    return DiscriminatorReport(r=r, N=N, tol=tol, ratios=ratios)
