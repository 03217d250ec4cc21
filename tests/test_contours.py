import math
import random

import pytest

from loopeq import (
    CRational,
    Potential,
    admissibility_check,
    basis_arcs,
    circle_contour,
    deform,
    imaginary_axis_contour,
    real_axis_contour,
    sectors,
)
from conftest import rand_crational


def test_sectors_quartic():
    V = Potential.polynomial([0, 0, 0, 1])  # x^4/4
    secs = sectors(V)
    centers = [s.center_angle for s in secs]
    assert centers == pytest.approx([0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert all(s.half_width == pytest.approx(math.pi / 8) for s in secs)


def test_sectors_gaussian(gauss):
    secs = sectors(gauss)
    assert [s.center_angle for s in secs] == pytest.approx([0.0, math.pi])
    assert secs[0].half_width == pytest.approx(math.pi / 4)


def test_sectors_tile_alternately():
    rng = random.Random(3)
    for _ in range(8):
        deg = rng.randint(2, 6)
        t = [rand_crational(rng) for _ in range(deg - 1)] + [
            CRational(rng.randint(1, 3), rng.randint(0, 2))
        ]
        V = Potential.polynomial(t)
        secs = sectors(V)
        assert len(secs) == deg
        # admissible sectors of width pi/deg spaced 2pi/deg apart: the gaps are
        # the forbidden sectors, same count, alternating around the circle
        for a, b in zip(secs, secs[1:]):
            gap = b.center_angle - a.center_angle
            assert gap == pytest.approx(2 * math.pi / deg, abs=1e-9)


def test_basis_arc_counts_random_polynomials():
    rng = random.Random(17)
    for _ in range(10):
        deg = rng.randint(2, 6)
        t = [rand_crational(rng) for _ in range(deg - 1)] + [CRational(1, rng.randint(0, 1))]
        V = Potential.polynomial(t)
        assert len(basis_arcs(V)) == V.d == deg - 1


def test_basis_arc_haar(haar2):
    arcs = basis_arcs(haar2)
    assert len(arcs) == 1 == haar2.d
    assert arcs[0].closed


def test_basis_arcs_reject_negative_residue():
    V = Potential.rational([-2], [0, 1])  # e^{-V} = x^2: zero at the pole
    with pytest.raises(ValueError):
        basis_arcs(V)


def test_admissibility_examples(gauss):
    assert admissibility_check(real_axis_contour(), gauss) is None
    V3 = Potential.polynomial([0, 0, 1])  # x^3/3: real axis blows up at -inf
    assert admissibility_check(real_axis_contour(), V3) is not None
    V4 = Potential.polynomial([0, 0, 0, 1])
    assert admissibility_check(imaginary_axis_contour(), V4) is None


def test_admissibility_quartic_sector_edge(quartic):
    # quartic sectors: half-width pi/8 about 0, pi/2, pi, 3pi/2
    inside = deform(real_axis_contour(), rotate=math.pi / 8 - 0.005)
    outside = deform(real_axis_contour(), rotate=math.pi / 8 + 0.005)
    assert admissibility_check(inside, quartic) is None
    rep = admissibility_check(outside, quartic)
    assert rep is not None
    assert "ray angle" in rep


def test_sectors_of_rational_potentials(haar2):
    V = Potential.rational([2, 0, 0, 1], [0, 1])  # V' = x^2 + 2/x
    assert sectors(V) == sectors(Potential.polynomial([0, 0, 1]))
    assert sectors(haar2) == []


def test_circle_through_a_pole_is_refused(haar2):
    # e^{-V} = x^-2 for V' = 2/x: the circle of radius 1 about 1 runs through its pole
    rep = admissibility_check(circle_contour(1.0 + 0j, 1.0), haar2)
    assert rep is not None
    assert "passes through the pole" in rep
    assert admissibility_check(circle_contour(), haar2) is None


def test_rays_are_refused_without_a_polynomial_part(haar2):
    # the line Im x = 1 misses the pole at 0, but 2/x has no sector at infinity
    line = deform(real_axis_contour(), shift=1j)
    rep = admissibility_check(line, haar2)
    assert rep is not None
    assert "ray angle" in rep


def test_deform_checks_rays_of_rational_potentials():
    V = Potential.rational([2, 0, 0, 1], [0, 1])  # V' = x^2 + 2/x: sector half-width pi/6
    elbow = next(arc for arc in basis_arcs(V) if not arc.closed)
    assert admissibility_check(deform(elbow, rotate=0.1, V=V), V) is None
    with pytest.raises(ValueError):
        deform(elbow, rotate=0.6, V=V)


def test_basis_arcs_are_admissible(cubic, quartic):
    for V in (cubic, quartic):
        for arc in basis_arcs(V):
            assert admissibility_check(arc, V) is None


def test_deform_shift_and_scale(gauss, haar2):
    shifted = deform(real_axis_contour(), shift=0.3j, V=gauss)
    assert admissibility_check(shifted, gauss) is None
    grown = deform(circle_contour(), radius_factor=1.5, V=haar2)
    assert grown.segments[0].radius == pytest.approx(1.5)


def test_deform_rejects_forbidden_rotation(gauss):
    with pytest.raises(ValueError):
        deform(real_axis_contour(), rotate=math.pi / 2, V=gauss)


def test_deform_rejects_circle_off_pole(haar2):
    with pytest.raises(ValueError):
        deform(circle_contour(), shift=2.0 + 0j, V=haar2)


def test_closing_arc_relation_quartic():
    # the would-be (d+1)-th consecutive arc is minus the sum of the basis:
    # numerically its moments must equal -(sum of basis-arc moments)
    from loopeq import MomentTable
    from loopeq.contours import elbow_arc, sectors as _sectors

    V = Potential.polynomial([0, 0, 0, 1])  # x^4/4, d = 3
    secs = _sectors(V)
    arcs = basis_arcs(V) + [elbow_arc(4, secs)]
    table = MomentTable(arcs, V, 1e-12)
    for k in range(6):
        total = sum(table.moment(j, k)[0] for j in range(4))
        assert abs(total) < 1e-10


def test_basis_arc_deformation_invariance(cubic):
    from loopeq import arc_moment

    for arc in basis_arcs(cubic):
        moved = deform(arc, shift=0.2 - 0.1j, rotate=0.05, V=cubic)
        for k in range(9):
            v0, e0 = arc_moment(arc, cubic, k, 1e-12)
            v1, e1 = arc_moment(moved, cubic, k, 1e-12)
            assert abs(v0 - v1) <= 100 * (e0 + e1) + 1e-11
