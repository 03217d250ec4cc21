import random
from fractions import Fraction

import pytest

from loopeq import CRational, Potential


@pytest.fixture
def gauss():
    return Potential.polynomial([0, 1])  # V = x^2/2


@pytest.fixture
def cubic():
    return Potential.polynomial([1, 0, 1])  # V = x + x^3/3


@pytest.fixture
def quartic():
    return Potential.polynomial([0, 1, 0, 1])  # V = x^2/2 + x^4/4


@pytest.fixture
def haar2():
    return Potential.rational([2], [0, 1])  # V' = 2/x (Haar weight at N=2)


class MomentLookup(dict):
    """A moment function ``moment(body, k)`` as the mapping the N-body kernels
    read: it stays empty, so every read calls the function."""

    def __init__(self, moment):
        super().__init__()
        self.moment = moment

    def __missing__(self, key):
        return self.moment(*key)


def rand_crational(rng: random.Random, span: int = 6) -> CRational:
    return CRational(
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
    )


def distinct_rational_points(rng: random.Random, n: int) -> list[CRational]:
    pts: list[CRational] = []
    while len(pts) < n:
        x = rand_crational(rng)
        if all(x != y for y in pts):
            pts.append(x)
    return pts
