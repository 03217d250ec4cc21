import operator
import random
from fractions import Fraction

import pytest

from loopeq import CRational, MPoly, Potential, q_rational
from conftest import rand_crational


def test_crational_field_ops():
    a = CRational(Fraction(1, 2), Fraction(3, 4))
    b = CRational(Fraction(-2, 3), Fraction(1, 5))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * CRational(1) == a
    assert a + 0 == a and 1 * a == a
    assert -(-a) == a


def test_crational_division_and_powers():
    i = CRational(0, 1)
    assert i * i == CRational(-1)
    assert i ** 4 == 1
    assert (CRational(2) / CRational(0, 2)) == CRational(0, -1)
    assert CRational(2) ** -1 == CRational(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        CRational(1) / CRational(0)


def test_crational_random_field_axioms():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (rand_crational(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a


def test_crational_serialization_roundtrip():
    a = CRational(Fraction(22, 7), Fraction(-5, 3))
    assert CRational.from_pair(a.to_pair()) == a
    assert complex(a) == complex(Fraction(22, 7)) - 1j * complex(Fraction(5, 3))


def test_mpoly_basic():
    vars = ("N", "t")
    N = MPoly.gen("N", vars)
    t = MPoly.gen("t", vars)
    p = (N + 1) * (N - 1)
    assert p == N * N - 1
    assert (N * t ** 2).eval({"N": 3, "t": 2}) == CRational(12)
    inv = MPoly.gen("t", vars, power=-1)
    assert (t * inv) == MPoly.const(1, vars)


def test_mpoly_embed_and_zero():
    small = ("N",)
    big = ("N", "t3")
    p = MPoly.gen("N", small) ** 2 * 3
    q = p.embed(big)
    assert q.eval({"N": 2, "t3": 99}) == CRational(12)
    assert MPoly.zero(small).is_zero()
    assert not (p - p)


def test_mpoly_var_mismatch():
    with pytest.raises(ValueError):
        MPoly.gen("N", ("N",)) + MPoly.gen("t", ("t",))


def test_crational_defers_to_mpoly():
    # CRational + MPoly used to raise TypeError in CRational.coerce, so Q_mu
    # with a symbolic N failed on rational potentials
    N = MPoly.gen("N", ("N",))
    assert CRational(1) + N == N + CRational(1)
    assert CRational(1) - N == -(N - CRational(1))
    V = Potential.rational([2], [0, 1])
    Q = q_rational((1,), V, N)
    for n in (1, 2, 3):
        at_n = {mu: c.eval({"N": n}) for mu, c in Q.terms.items()}
        assert {mu: c for mu, c in at_n.items() if c} == {
            mu: c for mu, c in q_rational((1,), V, n).terms.items() if c}
    for a, b in ((CRational(1), 1.5), (1.5, CRational(1))):  # floats stay refused
        for op in (operator.add, operator.sub, operator.truediv):
            with pytest.raises(TypeError):
                op(a, b)
