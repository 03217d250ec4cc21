"""Loop-equation polynomials Q_mu for one-matrix (polynomial and rational V')
and, symbolically, the two-matrix model.

Conventions.  A polynomial potential is V(x) = sum_{k=1}^{d+1} t_k x^k / k with
t_{d+1} != 0, so d = deg V'.  Every potential is stored as V' = R/D with D
monic and R, D coprime; a polynomial one is the case D = 1.  d counts all pole degrees including infinity, which is
deg R when deg R > deg D (the case with a weight-raising top term) but e.g. 1
for the Haar weight V' = N/x.  ``_q_items`` states the formula for Q_mu; every
generator below emits its terms.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .exact import CRational, MPoly
from .symfunc import PowerSumPoly

# ---------------------------------------------------------------------------
# exact polynomial helpers on ascending CRational coefficient lists
# ---------------------------------------------------------------------------


def poly_trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def poly_deriv(coeffs: Sequence) -> list:
    return [c * k for k, c in enumerate(coeffs)][1:]


def poly_divmod(num: Sequence[CRational], den: Sequence[CRational]):
    num = list(num)
    den = poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [CRational(0)] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    dlead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = rem[len(den) + i - 1] / dlead
        quot[i] = c
        for j, dc in enumerate(den):
            rem[i + j] = rem[i + j] - c * dc
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(a: Sequence[CRational], b: Sequence[CRational]) -> list[CRational]:
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Potential:
    """Potential given by its derivative V' = R/D.

    ``R``, ``D`` hold ascending coefficients, D monic.  A polynomial potential
    V = sum_k t_k x^k / k is the case D = 1, stored as R = (t_1, ..., t_{d+1}).
    """

    R: tuple
    D: tuple

    @staticmethod
    def polynomial(t: Sequence) -> "Potential":
        t = tuple(_coerce_coeff(c) for c in t)
        if len(t) < 2:
            raise ValueError("polynomial potential needs degree >= 2 (at least t_1, t_2)")
        if not t[-1]:
            raise ValueError("leading coefficient t_{d+1} must be nonzero")
        return Potential(R=t, D=(CRational(1),))

    @staticmethod
    def rational(R: Sequence, D: Sequence) -> "Potential":
        R = tuple(_coerce_coeff(c) for c in R)
        D = tuple(_coerce_coeff(c) for c in D)
        if not R or not R[-1]:
            raise ValueError("R must have a nonzero leading coefficient")
        if not D or D[-1] != CRational(1):
            raise ValueError("D must be monic")
        if len(D) == 1:
            return Potential.polynomial(R)
        if all(isinstance(c, CRational) for c in R + D):
            g = poly_gcd(list(R), list(D))
            if len(g) > 1:
                raise ValueError("R and D must be coprime")
        return Potential(R=R, D=D)

    @property
    def kind(self) -> str:
        """'polynomial' when D = 1, else 'rational' (also the JSON wire kind)."""
        return "polynomial" if len(self.D) == 1 else "rational"

    @property
    def d(self) -> int:
        """Degree of V': the sum of the degrees of all its poles.

        Finite poles contribute deg D, the pole at infinity max(0, deg R -
        deg D); for deg R > deg D this is just deg R.  (V' = N/x, the Haar
        weight on the circle, has deg R = 0 and d = 1.)
        """
        deg_r, deg_d = len(self.R) - 1, len(self.D) - 1
        return deg_d + max(0, deg_r - deg_d)

    @property
    def reducible(self) -> bool:
        """Whether the weight-lowering moment reduction applies: deg R > deg D,
        so the top term raises weight by d (always true for polynomial V)."""
        return len(self.R) > len(self.D)

    # -- numeric evaluation (CRational coefficients only) -------------------

    @cached_property
    def complex_coeffs(self) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
        """R and D as complex coefficient tuples."""
        return tuple(c.to_complex() for c in self.R), tuple(c.to_complex() for c in self.D)

    @cached_property
    def partial_fractions(self) -> tuple[list[complex], tuple[tuple[complex, int], ...]]:
        """V' = sum_k q_k x^{k-1} + sum_p r_p / (x - p) as (q, ((p, r_p), ...)).

        Only simple poles with integer residues are supported numerically; the
        non-integer case needs branch cuts and is out of scope.  A constant D
        has no poles, so a polynomial potential does not import numpy here.
        """
        quot, rem = poly_divmod(list(self.R), list(self.D))
        if len(self.D) == 1:
            return [c.to_complex() for c in quot], ()
        dD = poly_deriv(list(self.D))
        # decided exactly: np.roots splits a double pole, so the residue of
        # its first root divides by D'(p) ~ 0
        if len(poly_gcd(list(self.D), dD)) > 1:
            raise ValueError("repeated poles of V' are not supported numerically")
        import numpy as np

        poles = []
        for p in np.roots(self.complex_coeffs[1][::-1]):
            p = complex(p)
            num = _horner([c.to_complex() for c in rem], p)
            den = _horner([c.to_complex() for c in dD], p)
            r = num / den
            r_int = round(r.real)
            if abs(r - r_int) > 1e-9:
                raise ValueError(
                    f"cut placement unsupported: pole {p:.6g} has non-integer residue {r:.6g}"
                )
            poles.append((p, int(r_int)))
        return [c.to_complex() for c in quot], tuple(poles)

    @cached_property
    def _quotient_terms(self) -> tuple[tuple[complex, int], ...]:
        """(q_k / k, k) for the nonzero quotient coefficients q_k: the terms of
        V's polynomial part.  Skipping a zero q_k changes no bit, since its term
        is +-0 and a sum that starts at 0j never holds -0.0."""
        return tuple((c / k, k) for k, c in enumerate(self.partial_fractions[0], start=1) if c)

    @cached_property
    def _neg_D_terms(self) -> tuple:
        """(k, -D_k) for the nonzero D_k, in the coefficient ring of R."""
        minus_one = _neg_one_like(self.R[0])
        return tuple((k, minus_one * Dk) for k, Dk in enumerate(self.D) if Dk)

    def dV(self, z: complex) -> complex:
        R, D = self.complex_coeffs
        return _horner(R, z) / _horner(D, z)

    def V(self, z: complex) -> complex:
        out = 0j
        for c, k in self._quotient_terms:
            out += c * z ** k
        for p, r in self.partial_fractions[1]:
            out += r * cmath.log(z - p)
        return out

    def exp_neg_V(self, z: complex) -> complex:
        """e^{-V(z)}; single-valued for integer pole residues.  The quotient
        terms are summed here, as in ``V``, one frame fewer per quadrature node."""
        out = 0j
        for c, k in self._quotient_terms:
            out += c * z ** k
        val = cmath.exp(-out)
        for p, r in self.partial_fractions[1]:
            val *= (z - p) ** (-r)
        return val

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "polynomial":
            return {"kind": "polynomial", "t": [c.to_pair() for c in self.R]}
        return {
            "kind": "rational",
            "R": [c.to_pair() for c in self.R],
            "D": [c.to_pair() for c in self.D],
        }

    @staticmethod
    def from_json(data: dict) -> "Potential":
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError("potential JSON must be an object with a 'kind' field")
        kind = data["kind"]
        if kind == "polynomial":
            if "t" not in data:
                raise ValueError("polynomial potential JSON needs field 't'")
            return Potential.polynomial([CRational.from_pair(p) for p in data["t"]])
        if kind == "rational":
            for f in ("R", "D"):
                if f not in data:
                    raise ValueError(f"rational potential JSON needs field '{f}'")
            return Potential.rational(
                [CRational.from_pair(p) for p in data["R"]],
                [CRational.from_pair(p) for p in data["D"]],
            )
        raise ValueError(f"unknown potential kind {kind!r}")


def _horner(coeffs: Sequence[complex], z: complex) -> complex:
    """sum_i coeffs[i] * z^i by Horner."""
    out = 0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _coerce_coeff(c):
    if isinstance(c, (int, Fraction)):
        return CRational(c)
    return c


# ---------------------------------------------------------------------------
# Q_mu generators
# ---------------------------------------------------------------------------


def _check_mu(mu: Sequence[int]):
    mu = tuple(mu)
    if not mu:
        raise ValueError("mu must have at least one entry")
    if mu[0] < 0:
        raise ValueError("mu_1 must be >= 0")
    if any(p < 1 for p in mu[1:]):
        raise ValueError("parts mu_2.. must be >= 1")
    if not all(isinstance(p, int) for p in mu):
        raise ValueError(f"mu must have integer entries: {mu}")
    return mu


def _q_items(m0: int, rest: tuple[int, ...], V: Potential):
    """(index tuple, coefficient) items of Q_mu, mu = (m0,) + rest, for V' = R/D.

    For mu_1 = m0 >= 0 and spectator parts rest = (mu_2, ..., mu_n), all >= 1,

        Q_mu = sum_k R_k p_{mu_1+k} p_rest
             - sum_k D_k sum_{j=0}^{k+mu_1-1} p_j p_{k+mu_1-1-j} p_rest
             - sum_{i>=2} mu_i sum_k D_k p_{mu_1+mu_i-1+k} p_{rest without i},

    which satisfies Q_mu(X) Delta(X)^2 e^{-sum V} =
    -sum_i d/dx_i ( D(x_i) x_i^{mu_1} p_rest Delta(X)^2 e^{-sum V} ), so that
    every admissible contour moment functional annihilates it; the double
    convolution absorbs the D' diagonal.  With D = 1 and R_k = t_{k+1} this is
    the polynomial Q_mu.  Items come in that order (R, D-convolution,
    spectator terms) and zero R_k, D_k give none: ``PowerSumPoly.build`` keeps
    first-insertion order, and callers sum floats in it.
    """
    for k, Rk in enumerate(V.R):
        if Rk:
            yield (m0 + k,) + rest, Rk
    neg_D = V._neg_D_terms
    for k, nDk in neg_D:
        for j in range(k + m0):
            yield (j, k + m0 - 1 - j) + rest, nDk
    for i, part in enumerate(rest):
        spect = rest[:i] + rest[i + 1:]
        for k, nDk in neg_D:
            yield (m0 + part - 1 + k,) + spect, nDk * part


def q_polynomial(mu: Sequence[int], V: Potential, nvars) -> PowerSumPoly:
    """The loop-equation polynomial for a polynomial potential.

    ``nvars`` is substituted for every p_0 produced by the formula; pass the
    integer N, or a ring element for fully symbolic work.
    """
    if V.kind != "polynomial":
        raise ValueError("q_polynomial needs a polynomial potential (use q_rational)")
    mu = _check_mu(mu)
    return PowerSumPoly._assemble(_q_items(mu[0], mu[1:], V), nvars)


def q_rational(mu: Sequence[int], V: Potential, nvars) -> PowerSumPoly:
    """Loop-equation polynomial for V' = R/D (any D, including D = 1)."""
    mu = _check_mu(mu)
    return PowerSumPoly._assemble(_q_items(mu[0], mu[1:], V), nvars)


def _neg_one_like(sample):
    if isinstance(sample, CRational):
        return CRational(-1)
    if isinstance(sample, MPoly):
        return MPoly.const(-1, sample.vars)
    return -1


def q_twomatrix(mu: Sequence[int], V: Potential, Vt: Potential, nvars) -> PowerSumPoly:
    """Pure-X loop-equation polynomial of the two-matrix model with the
    polynomial potentials V (of X) and Vt (of the tilde matrix).

    Eliminates the mixed quantities p^(l)_k from the top level down to l = 0
    (where p^(0)_k = p_k): each level holds its terms in one dict, and each
    nonzero term goes once through Q_(k, spect) of V into the level below.
    The result is substituted into the tilde-potential relation; the sign is
    fixed so the highest-weight coefficient on p_{(mu_1 + d*dt, rest)} is
    tt_{dt+1} * t_{d+1}^{dt}, with the single degenerate interference from
    p_{mu_1+1} when d*dt = 1.
    """
    if V.kind != "polynomial" or Vt.kind != "polynomial":
        raise ValueError("two-matrix potentials must both be polynomial")
    mu = _check_mu(mu)
    m0, rest = mu[0], tuple(sorted(mu[1:], reverse=True))
    # levels[l]: (index k, spectator multiset) -> coefficient of p^(l)_k p_spect
    levels = [{(m0, rest): ttl} for ttl in Vt.R]
    for l in range(len(levels) - 1, 0, -1):
        below = levels[l - 1]
        for (k, spect), coeff in levels[l].items():
            if not coeff:
                continue
            for (first, *others), c in _q_items(k, spect, V):
                key = (first, tuple(sorted(others, reverse=True)))
                below[key] = below[key] + coeff * c if key in below else coeff * c
    items = [((k,) + spect, c) for (k, spect), c in levels[0].items() if c]
    items.append(((m0 + 1,) + rest, _neg_one_like(V.R[0])))
    return PowerSumPoly.build(items, nvars)


def symbolic_two_potential(d: int, dt: int) -> tuple[Potential, Potential, tuple[str, ...], object]:
    """Two polynomial potentials with fully symbolic coefficients.

    Returns (V, Vt, vars, N_symbol); coefficients are MPoly generators
    t1..t{d+1} of V, s1..s{dt+1} of Vt, plus the symbol N for p_0 folding.
    """
    vars = tuple(f"t{k}" for k in range(1, d + 2)) + tuple(
        f"s{k}" for k in range(1, dt + 2)
    ) + ("N",)
    tV = [MPoly.gen(f"t{k}", vars) for k in range(1, d + 2)]
    tVt = [MPoly.gen(f"s{k}", vars) for k in range(1, dt + 2)]
    return Potential.polynomial(tV), Potential.polynomial(tVt), vars, MPoly.gen("N", vars)
