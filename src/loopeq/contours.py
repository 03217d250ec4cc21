"""Admissible integration arcs for e^{-V(x)} dx and their homology classes.

A polynomial part of V of degree m gives m angular sectors at infinity where
Re V -> +infinity, for rational V' too (none for V' = 2/x).  A contour is
admissible when its rays run out strictly inside them and no segment passes
through a pole of e^{-V}.  A homology basis is given by elbow arcs running in
along one sector bisector and out along the next, plus, for rational V',
closed circles around poles of e^{-V}.  Contours are stored as parametric
segments so quadrature and plotting can walk them directly; all immutable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .loopgen import Potential


@dataclass(frozen=True)
class Sector:
    """Angular sector at infinity in which Re V(x) -> +inf."""

    center_angle: float
    half_width: float

    def contains(self, angle: float) -> bool:
        """Whether ``angle`` lies strictly inside the sector."""
        delta = (angle - self.center_angle + math.pi) % (2 * math.pi) - math.pi
        return abs(delta) < self.half_width


def sectors(V: Potential) -> list[Sector]:
    """The sectors of V's polynomial part, ordered by center angle in [0, 2pi).

    A polynomial part of degree m gives m sectors of half-width pi / (2m);
    without one (V' = 2/x, say) the list is empty.
    """
    q = V.partial_fractions[0]
    if not q:
        return []
    deg = len(q)
    phi = cmath.phase(q[-1])
    centers = sorted(((2 * math.pi * m - phi) / deg) % (2 * math.pi) for m in range(deg))
    return [Sector(center_angle=c, half_width=math.pi / (2 * deg)) for c in centers]


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
    label: str = ""

    @property
    def closed(self) -> bool:
        return isinstance(self.segments[0], CircleSeg)


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
    if radius == 0.0:
        return _two_rays(th_in, th_out, f"gamma{j}")
    segments = (
        RaySeg(base=radius * cmath.exp(1j * th_in), angle=th_in, inward=True),
        ArcSeg(center=0j, radius=radius, a0=th_in, a1=th_out),
        RaySeg(base=radius * cmath.exp(1j * th_out), angle=th_out, inward=False),
    )
    return Contour(segments=segments, label=f"gamma{j}")


def join_radius(V: Potential) -> float:
    """Radius beyond which the leading term of V dominates along rays.

    Fujiwara-style root bound on the coefficients of the polynomial part of
    V', padded; outside this disc |e^{-V}| decays monotonically along
    admissible bisector rays.
    """
    t = V.partial_fractions[0]
    top = t[-1]
    deg = len(t) - 1  # degree of the polynomial part of V'
    bound = 0.0
    for k, c in enumerate(t[:-1]):
        if c != 0:
            bound = max(bound, abs(c / top) ** (1.0 / (deg - k)))
    return 2.0 * bound + 1.0


def _two_rays(th_in: float, th_out: float, label: str) -> Contour:
    """In from infinity along angle ``th_in`` to the origin, out along ``th_out``."""
    return Contour(
        segments=(
            RaySeg(base=0j, angle=th_in, inward=True),
            RaySeg(base=0j, angle=th_out, inward=False),
        ),
        label=label,
    )


def real_axis_contour() -> Contour:
    """The real line, oriented from -infinity to +infinity."""
    return _two_rays(math.pi, 0.0, "R")


def imaginary_axis_contour() -> Contour:
    """The imaginary axis, oriented from -i*infinity to +i*infinity."""
    return _two_rays(-math.pi / 2, math.pi / 2, "iR")


def circle_contour(center: complex = 0j, radius: float = 1.0, label: str = "circle") -> Contour:
    """The closed counterclockwise circle about ``center``."""
    return Contour(segments=(CircleSeg(center=center, radius=radius),), label=label)


def basis_arcs(V: Potential) -> list[Contour]:
    """A homology basis of admissible arcs; d = deg V' arcs in total.

    Circles around the simple poles of V' with positive integer residue
    (e^{-V} has a pole there), then the consecutive-sector elbows of
    ``sectors(V)``: joined at the origin for polynomial V, on a circle clear
    of every pole otherwise.  Anything needing branch cuts (non-integer
    residues) or arcs terminating at zeros of e^{-V} is not supported and
    raises.
    """
    poles = V.partial_fractions[1]
    arcs: list[Contour] = []
    for p, r in poles:
        if r <= 0:
            raise ValueError(
                "cut placement unsupported: arcs ending at zeros of e^{-V} are out of scope"
            )
        others = [abs(p - q) for q, _ in poles if q != p]
        rad = 1.0 if not others else min(1.0, 0.4 * min(others))
        arcs.append(circle_contour(p, rad, f"circle@{p:.3g}"))
    secs = sectors(V)
    if len(secs) >= 2:
        radius = max(join_radius(V), 1.0 + 2.0 * max(abs(p) for p, _ in poles)) if poles else 0.0
        arcs.extend(elbow_arc(j, secs, radius) for j in range(1, len(secs)))
    if len(arcs) != V.d:
        raise ValueError(
            f"unsupported pole configuration: built {len(arcs)} arcs, homology needs {V.d}"
        )
    return arcs


# -- admissibility -----------------------------------------------------------

# Relative distance within which a pole counts as lying on a segment: it
# absorbs the rounding of computed roots and of segment angles, nothing more.
_ON_SEGMENT = 1e-12


def _passes_through(seg: Segment, p: complex) -> bool:
    """Whether ``seg`` meets the point ``p``; an ArcSeg only within its bounds."""
    if isinstance(seg, RaySeg):
        w = (p - seg.base) * seg.direction.conjugate()  # p in the ray's frame
        dist = abs(w.imag) if w.real >= 0 else abs(w)
    else:
        w = p - seg.center
        a, b = seg.bounds
        if (cmath.phase(w) - a) % (2 * math.pi) > b - a:
            return False
        dist = abs(abs(w) - seg.radius)
    return dist <= _ON_SEGMENT * (1.0 + abs(p))


def admissibility_check(c: Contour, V: Potential) -> str | None:
    """Why ``c`` is not admissible for e^{-V}, or None when it is.

    It is when every ray runs out strictly inside one of ``sectors(V)`` and no
    segment passes through a pole of e^{-V} (a pole of V' with positive
    residue).  The reason names the first ray that leaves the sectors, or the
    pole hit.
    """
    secs = sectors(V)
    poles = [p for p, r in V.partial_fractions[1] if r > 0]
    for seg in c.segments:
        if isinstance(seg, RaySeg) and not any(s.contains(seg.angle) for s in secs):
            return f"ray angle {seg.angle:.4f} lies in no sector where Re V -> +inf"
        for p in poles:
            if _passes_through(seg, p):
                return f"contour passes through the pole {p:.6g}"
    return None


# -- homotopic deformation ----------------------------------------------------


def deform(c: Contour, *, shift: complex = 0j, radius_factor: float = 1.0, rotate: float = 0.0,
           V: Potential | None = None) -> Contour:
    """Move ``c`` by a bounded homotopy: translate by ``shift``, scale radially
    about arc centers by ``radius_factor``, rotate by ``rotate``.

    Moves that leave the admissible contours are refused: scaled/shifted
    circles must keep their pole strictly inside, and when a potential is
    supplied the result must pass ``admissibility_check``.
    """
    rot = cmath.exp(1j * rotate)
    segs: list[Segment] = []
    for seg in c.segments:
        if isinstance(seg, RaySeg):
            segs.append(
                RaySeg(
                    base=seg.base * rot * radius_factor + shift,
                    angle=seg.angle + rotate,
                    inward=seg.inward,
                )
            )
            continue
        center, radius = seg.center * rot + shift, seg.radius * radius_factor
        if isinstance(seg, ArcSeg):
            segs.append(ArcSeg(center=center, radius=radius, a0=seg.a0 + rotate, a1=seg.a1 + rotate))
        elif abs(center - seg.center) >= radius:
            raise ValueError("deformation would push the circle off its pole")
        else:
            segs.append(CircleSeg(center=center, radius=radius))
    out = Contour(segments=tuple(segs), label=c.label + "~")
    if V is not None and (reason := admissibility_check(out, V)) is not None:
        raise ValueError(f"deformation leaves the admissible contours: {reason}")
    return out


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


def circle_power_class(N: int) -> HomologyClass:
    """Gamma = (S^1)^N over the unit circle, for measures with a single circle class (e.g. Haar)."""
    return HomologyClass.make(N, [circle_contour()], {(N,): 1.0})


def sample_polyline(c: Contour) -> list[list[float]]:
    """Sampled [re, im] pairs for plotting: 64 per segment (a closed circle gets
    a 65th, back at its start), with rays sampled out to distance 12."""
    pts: list[complex] = []
    for seg in c.segments:
        if isinstance(seg, RaySeg):
            zs = [seg.point(12.0 * (i / 63) ** 2) for i in range(64)]
            pts.extend(reversed(zs) if seg.inward else zs)
        else:
            a, b = seg.bounds
            n = 63 if isinstance(seg, ArcSeg) else 64
            pts.extend(seg.point(a + (b - a) * i / n) for i in range(n + 1))
    return [[z.real, z.imag] for z in pts]
