"""The N = 2 cell matrix Phi, exactly: the theorem's independence step at two
bodies, with no quadrature.

For a reducible potential with V' of degree d, the unit solutions e_0 ..
e_{d-1} of the N = 1 loop equation have e_i(x^k) = delta_ik for k < d, and
e_i(x^k) for every k is the coefficient of box partition i in
``LoopReducer(V, 1).reduce((k,))``.  Over the multiset {a, b} of unit
solutions, the Andreief cell of p_nu at N = 2 integrates p_nu(x1, x2) (x1 -
x2)^2 against e_a(x1) e_b(x2):

    Phi[{a, b}, nu] = sum over the splits (x, y) of nu of
        e_a(x) e_b(y+2) - 2 e_a(x+1) e_b(y+1) + e_a(x+2) e_b(y),

where a split sends each part of nu to one of the two bodies, and x and y are
the weights they get.  Rows are ``compositions(2, d)`` (the multiplicities of
e_0 .. e_{d-1} in the multiset), columns ``partitions_in_box(2, d-1)``, and
the determinant is taken by elimination over ``CRational``.

ROADMAP finding (g): for polynomial V' with lead t_{d+1}, det Phi t_{d+1}^d =
c(d, 2) = +-2^(2d-1) whatever the lower coefficients, the sign measured.
Finding (h) at N = 2: for V' = x + r/x, det Phi = -8 (r - 1), exactly 0 at
the integer residue r = 1 < N.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from loopeq import CRational, LoopReducer, Potential, compositions, partitions_in_box
from conftest import rand_crational

SIGN = {1: 1, 2: -1, 3: -1, 4: -1, 5: 1}  # the sign of c(d, 2), measured


def unit_solutions(V: Potential, top: int) -> list[list[CRational]]:
    """e[i][k] = e_i(x^k) for k <= top."""
    red = LoopReducer(V, 1)
    forms = [red.reduce((k,) if k else ()) for k in range(top + 1)]
    return [[form.get(b, CRational(0)) for form in forms] for b in partitions_in_box(1, V.d - 1)]


def phi(V: Potential) -> list[list[CRational]]:
    d = V.d
    e = unit_solutions(V, 2 * d)  # the box's heaviest nu, (d-1, d-1), reaches x^(2d-2+2)
    rows = []
    for multiset in compositions(2, d):
        a, b = (i for i, k in enumerate(multiset) for _ in range(k))
        ea, eb = e[a], e[b]
        row = []
        for nu in partitions_in_box(2, d - 1):
            cell = CRational(0)
            for split in product((0, 1), repeat=len(nu)):
                x = sum(part for part, body in zip(nu, split) if body == 0)
                y = sum(nu) - x
                cell = cell + ea[x] * eb[y + 2] - 2 * ea[x + 1] * eb[y + 1] + ea[x + 2] * eb[y]
            row.append(cell)
        rows.append(row)
    return rows


def det(rows: list[list[CRational]]) -> CRational:
    """The determinant by Gaussian elimination, exactly."""
    a = [list(row) for row in rows]
    total = CRational(1)
    for j in range(len(a)):
        pivot = next((i for i in range(j, len(a)) if a[i][j]), None)
        if pivot is None:
            return CRational(0)
        if pivot != j:
            a[j], a[pivot] = a[pivot], a[j]
            total = -total
        total = total * a[j][j]
        for i in range(j + 1, len(a)):
            if a[i][j]:
                f = a[i][j] / a[j][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return total


@pytest.mark.parametrize("lead", [CRational(1), CRational(2), CRational(Fraction(1, 2)),
                                  CRational(1, 1)], ids=["1", "2", "1/2", "1+i"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_det_phi_is_c_over_the_lead_power(d, lead):
    rng = random.Random(100 * d + 7)
    for _ in range(2):
        V = Potential.polynomial([rand_crational(rng) for _ in range(d)] + [lead])
        assert det(phi(V)) * lead ** d == CRational(SIGN[d] * 2 ** (2 * d - 1))


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(1), Fraction(5, 2), Fraction(7)],
                         ids=["1/2", "1", "5/2", "7"])
def test_det_phi_carries_the_residue_factor(r):
    V = Potential.rational([CRational(r), 0, 1], [0, 1])  # V' = x + r/x, d = 2
    value = det(phi(V))
    assert value == CRational(-8 * (r - 1))
    assert bool(value) == (r != 1)
