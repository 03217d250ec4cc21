"""Admissible integration arcs for e^{-V(x)} dx and their homology classes.

For polynomial V of degree d+1 there are d+1 angular sectors at infinity where
Re V -> +infinity; a basis of the d-dimensional homology space is given by
elbow arcs running in along one sector bisector and out along the next.  For
rational V' the basis also contains closed circles around poles of e^{-V}.
Contours are stored as parametric segments so quadrature and plotting can walk
them directly; everything is immutable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .loopgen import Potential, poly_divmod


@dataclass(frozen=True)
class Sector:
    """Angular sector at infinity in which Re V(x) -> +inf."""

    center_angle: float
    half_width: float
    index: int

    def contains(self, angle: float, margin: float = 0.0) -> bool:
        delta = (angle - self.center_angle + math.pi) % (2 * math.pi) - math.pi
        return abs(delta) <= self.half_width - margin


def sectors(V: Potential) -> list[Sector]:
    """The d+1 admissible sectors, ordered by center angle in [0, 2pi)."""
    if V.kind != "polynomial":
        raise ValueError("sectors are defined for polynomial potentials")
    deg = V.d + 1
    phi = cmath.phase(V.complex_coeffs[0][-1])
    centers = sorted(((2 * math.pi * m - phi) / deg) % (2 * math.pi) for m in range(deg))
    return [
        Sector(center_angle=c, half_width=math.pi / (2 * deg), index=i)
        for i, c in enumerate(centers)
    ]


# -- contour segments --------------------------------------------------------
#
# Every segment is a parametrization z(t) on ``bounds`` with ``tangent(t)`` =
# dz/dt; quadrature integrates f(z(t)) z'(t) over the bounds and negates the
# result of an ``inward`` segment.


@dataclass(frozen=True)
class RaySeg:
    """Radial ray from ``base`` to infinity along ``angle``.

    ``inward`` marks traversal from infinity down to the base point.
    """

    base: complex
    angle: float
    inward: bool = False

    bounds = (0.0, math.inf)

    @cached_property
    def direction(self) -> complex:
        """e^{i angle}; cached outside the fields, so eq, hash and repr keep them."""
        return cmath.exp(1j * self.angle)

    def point(self, s: float) -> complex:
        return self.base + s * self.direction

    def tangent(self, s: float) -> complex:
        return self.direction


class _OnCircle:
    """Parametrization by angle about ``center``, counterclockwise."""

    inward = False

    def point(self, theta: float) -> complex:
        return self.center + self.radius * cmath.exp(1j * theta)

    def tangent(self, theta: float) -> complex:
        return 1j * self.radius * cmath.exp(1j * theta)


@dataclass(frozen=True)
class ArcSeg(_OnCircle):
    center: complex
    radius: float
    a0: float
    a1: float

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.a0, self.a1)


@dataclass(frozen=True)
class CircleSeg(_OnCircle):
    """Full counterclockwise circle (closed contour)."""

    center: complex
    radius: float

    bounds = (0.0, 2 * math.pi)


Segment = Union[RaySeg, ArcSeg, CircleSeg]


@dataclass(frozen=True)
class Contour:
    segments: tuple[Segment, ...]
    start: tuple
    end: tuple
    label: str = ""

    @property
    def closed(self) -> bool:
        return self.start == ("closed",)


def elbow_arc(j: int, secs: list[Sector], radius: float = 0.0) -> Contour:
    """Basis arc gamma_j: in along the bisector of sector j-1 of ``secs``, out along sector j.

    The default joins the two rays at the origin, where |e^{-V}| = 1; a
    positive radius routes through a circular arc instead (needed when a pole
    sits at the origin).  Same homotopy class either way, but the origin join
    keeps the integrand magnitude tame for double-precision quadrature.
    """
    th_in = secs[j - 1].center_angle
    th_out = secs[j % len(secs)].center_angle
    if th_out < th_in:
        th_out += 2 * math.pi
    start, end, label = ("sector", j - 1), ("sector", j % len(secs)), f"gamma{j}"
    if radius == 0.0:
        return _two_rays(th_in, th_out, start, end, label)
    segments = (
        RaySeg(base=radius * cmath.exp(1j * th_in), angle=th_in, inward=True),
        ArcSeg(center=0j, radius=radius, a0=th_in, a1=th_out),
        RaySeg(base=radius * cmath.exp(1j * th_out), angle=th_out, inward=False),
    )
    return Contour(segments=segments, start=start, end=end, label=label)


def join_radius(V: Potential) -> float:
    """Radius beyond which the leading term of V dominates along rays.

    Fujiwara-style root bound on V' coefficients, padded; outside this disc
    |e^{-V}| decays monotonically along admissible bisector rays.
    """
    t = V.complex_coeffs[0]
    top = t[-1]
    deg = len(t) - 1  # degree of V' = d
    bound = 0.0
    for k, c in enumerate(t[:-1]):
        if c != 0:
            bound = max(bound, abs(c / top) ** (1.0 / (deg - k)))
    return 2.0 * bound + 1.0


def _two_rays(th_in: float, th_out: float, start: tuple, end: tuple, label: str) -> Contour:
    """In from infinity along angle ``th_in`` to the origin, out along ``th_out``."""
    return Contour(
        segments=(
            RaySeg(base=0j, angle=th_in, inward=True),
            RaySeg(base=0j, angle=th_out, inward=False),
        ),
        start=start,
        end=end,
        label=label,
    )


def real_axis_contour() -> Contour:
    """The real line, oriented from -infinity to +infinity."""
    return _two_rays(math.pi, 0.0, ("ray", math.pi), ("ray", 0.0), "R")


def imaginary_axis_contour() -> Contour:
    """The imaginary axis, oriented from -i*infinity to +i*infinity."""
    return _two_rays(-math.pi / 2, math.pi / 2, ("ray", -math.pi / 2), ("ray", math.pi / 2), "iR")


def circle_contour(center: complex = 0j, radius: float = 1.0, label: str = "circle") -> Contour:
    """The closed counterclockwise circle about ``center``."""
    return Contour(
        segments=(CircleSeg(center=center, radius=radius),),
        start=("closed",),
        end=("closed",),
        label=label,
    )


def basis_arcs(V: Potential) -> list[Contour]:
    """A homology basis of admissible arcs; d = deg V' arcs in total.

    Polynomial potentials get the d consecutive-sector elbows.  Rational ones
    get circles around simple poles with positive integer residue (e^{-V} has
    a pole there) plus, when the quotient part has positive degree, the elbow
    arcs of the induced sectors at infinity.  Anything needing branch cuts
    (non-integer residues) or arcs terminating at zeros of e^{-V} is not
    supported and raises.
    """
    if V.kind == "polynomial":
        secs = sectors(V)
        return [elbow_arc(j, secs) for j in range(1, V.d + 1)]

    quot, poles = V.partial_fractions
    arcs: list[Contour] = []
    for p, r in poles:
        if r <= 0:
            raise ValueError(
                "cut placement unsupported: arcs ending at zeros of e^{-V} are out of scope"
            )
        others = [abs(p - q) for q, _ in poles if q != p]
        rad = 1.0 if not others else min(1.0, 0.4 * min(others))
        arcs.append(circle_contour(p, rad, f"circle@{p:.3g}"))
    d_inf = len(quot) - 1 if quot else -1
    if d_inf >= 1:
        Vinf = Potential.polynomial(poly_divmod(list(V.R), list(V.D))[0])  # polynomial part of V
        secs = sectors(Vinf)
        clearance = 1.0 + 2.0 * max((abs(p) for p, _ in poles), default=0.0)
        arcs.extend(
            elbow_arc(j, secs, radius=max(join_radius(Vinf), clearance))
            for j in range(1, d_inf + 1)
        )
    if len(arcs) != V.d:
        raise ValueError(
            f"unsupported pole configuration: built {len(arcs)} arcs, homology needs {V.d}"
        )
    return arcs


# -- admissibility -----------------------------------------------------------


def _on_circle(seg: Union[ArcSeg, CircleSeg], steps: int) -> list[complex]:
    """``seg.point`` at steps + 1 equally spaced angles over ``seg.bounds``, both ends included."""
    a, b = seg.bounds
    return [seg.point(a + (b - a) * i / steps) for i in range(steps + 1)]


@dataclass
class AdmissibilityReport:
    ok: bool
    worst_value: float
    worst_location: complex | None
    detail: str = ""


def admissibility_check(c: Contour, V: Potential, kmax: int) -> AdmissibilityReport:
    """Sample |x|^k |e^{-V(x)}| along the contour and out along its rays.

    Passes when the weight stays bounded and decays at the unbounded ends for
    every k <= kmax; on failure reports the offending location.
    """
    worst = 0.0
    worst_loc = None
    samples: list[complex] = []
    for seg in c.segments:
        if isinstance(seg, RaySeg):
            samples.extend(seg.point(s) for s in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        elif isinstance(seg, ArcSeg):
            samples.extend(_on_circle(seg, 8))
        else:  # a closed circle's end point repeats its start
            samples.extend(_on_circle(seg, 16)[:-1])
    for z in samples:
        try:
            w = abs(z) ** kmax * abs(V.exp_neg_V(z)) if z != 0 else abs(V.exp_neg_V(z))
        except (OverflowError, ValueError):
            w = math.inf
        if w > worst:
            worst, worst_loc = w, z

    # decay at unbounded ends: weight at the far sample must sit below the peak
    ok = math.isfinite(worst)
    detail = ""
    for seg in c.segments:
        if not isinstance(seg, RaySeg):
            continue
        near = seg.point(2.0)
        far = seg.point(64.0)
        farther = seg.point(128.0)
        try:
            wf = abs(far) ** kmax * abs(V.exp_neg_V(far))
            wff = abs(farther) ** kmax * abs(V.exp_neg_V(farther))
            wn = abs(near) ** kmax * abs(V.exp_neg_V(near))
        except (OverflowError, ValueError):
            wf = wff = math.inf
            wn = 0.0
        if not (wff <= max(wf, 1e-290) and wf <= max(wn, 1.0) * 1e10) or not math.isfinite(wf):
            ok = False
            detail = f"weight grows along ray angle {seg.angle:.4f}"
            worst_loc = far
            worst = wf
            break
    return AdmissibilityReport(ok=ok, worst_value=worst, worst_location=worst_loc, detail=detail)


# -- homotopic deformation ----------------------------------------------------


@dataclass(frozen=True)
class Deformation:
    """Bounded homotopy: translate, scale radially about arc centers, rotate."""

    shift: complex = 0j
    radius_factor: float = 1.0
    rotate: float = 0.0


def deform(c: Contour, bump: Deformation, V: Potential | None = None) -> Contour:
    """Apply a deformation, refusing ones that leave the admissible sectors.

    Rotation moves ray angles; when a potential is supplied each rotated ray
    must stay inside some admissible sector, and scaled/shifted circles must
    keep their pole strictly inside.
    """
    rot = cmath.exp(1j * bump.rotate)
    segs: list[Segment] = []
    for seg in c.segments:
        if isinstance(seg, RaySeg):
            segs.append(
                RaySeg(
                    base=seg.base * rot * bump.radius_factor + bump.shift,
                    angle=seg.angle + bump.rotate,
                    inward=seg.inward,
                )
            )
        elif isinstance(seg, ArcSeg):
            segs.append(
                ArcSeg(
                    center=seg.center * rot + bump.shift,
                    radius=seg.radius * bump.radius_factor,
                    a0=seg.a0 + bump.rotate,
                    a1=seg.a1 + bump.rotate,
                )
            )
        elif isinstance(seg, CircleSeg):
            new_center = seg.center * rot + bump.shift
            new_radius = seg.radius * bump.radius_factor
            if abs(new_center - seg.center) >= new_radius:
                raise ValueError("deformation would push the circle off its pole")
            segs.append(CircleSeg(center=new_center, radius=new_radius))
    if V is not None and V.kind == "polynomial":
        secs = sectors(V)
        for seg in segs:
            if isinstance(seg, RaySeg):
                ang = seg.angle % (2 * math.pi)
                if not any(s.contains(ang, margin=1e-9) for s in secs):
                    raise ValueError(
                        f"deformation pushes a ray (angle {ang:.4f}) out of the admissible sectors"
                    )
    return Contour(segments=tuple(segs), start=c.start, end=c.end, label=c.label + "~")


# -- N-body classes ------------------------------------------------------------


@dataclass(frozen=True)
class HomologyClass:
    """Formal combination of symmetrized arc products gamma^n.

    ``terms`` maps compositions (n_1, ..., n_len(arcs)) with sum N to complex
    coefficients; the value of a moment functional on sym(gamma_1^{n_1} x ...)
    is the plain product-domain integral with n_i variables on arc i.
    """

    N: int
    arc_basis: tuple[Contour, ...]
    terms: tuple  # ((composition, coefficient), ...)

    def __post_init__(self):
        for n, _ in self.terms:
            if len(n) != len(self.arc_basis) or sum(n) != self.N or any(x < 0 for x in n):
                raise ValueError(f"bad composition {n} for N={self.N}, {len(self.arc_basis)} arcs")

    @staticmethod
    def make(N: int, arcs: Sequence[Contour], terms: dict) -> "HomologyClass":
        items = tuple(sorted((tuple(n), complex(ccoef)) for n, ccoef in terms.items()))
        return HomologyClass(N=N, arc_basis=tuple(arcs), terms=items)


def real_power_class(N: int) -> HomologyClass:
    """Gamma = R^N over the single real-axis arc."""
    return HomologyClass.make(N, [real_axis_contour()], {(N,): 1.0})


def circle_power_class(N: int, radius: float = 1.0) -> HomologyClass:
    """Gamma = (S^1)^N for measures with a single circle class (e.g. Haar)."""
    return HomologyClass.make(N, [circle_contour(0j, radius)], {(N,): 1.0})


def sample_polyline(c: Contour) -> list[list[float]]:
    """Sampled [re, im] pairs for plotting: 64 per segment (a closed circle gets
    a 65th, back at its start), with rays sampled out to distance 12."""
    pts: list[complex] = []
    for seg in c.segments:
        if isinstance(seg, RaySeg):
            zs = [seg.point(12.0 * (i / 63) ** 2) for i in range(64)]
            pts.extend(reversed(zs) if seg.inward else zs)
        else:
            pts.extend(_on_circle(seg, 63 if isinstance(seg, ArcSeg) else 64))
    return [[z.real, z.imag] for z in pts]
