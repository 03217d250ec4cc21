import math
import operator
import random
import sys
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


def test_from_pair_refuses_parts_that_str_cannot_print():
    n = sys.get_int_max_str_digits()  # 4300 by default; 0 lifts the limit
    if not n:
        pytest.skip("no digit limit")
    # at the limit: 10^(n-1), 10^-(n-1) and 5 10^-n = 1/(2 10^(n-1)) have n-digit parts
    for text in (f"1e{n - 1}", f"1e-{n - 1}", f"5e-{n}"):
        assert CRational.from_pair((text, "0")).to_pair()
    for text in (f"1e{n}", f"1e-{n}", f"{'9' * n}0"):  # one digit more
        with pytest.raises(ValueError):
            CRational.from_pair(("1", text))


def test_mpoly_basic():
    vars = ("N", "t")
    N = MPoly.gen("N", vars)
    t = MPoly.gen("t", vars)
    p = (N + 1) * (N - 1)
    assert p == N * N - 1
    assert (N * t ** 2).eval({"N": 3, "t": 2}) == CRational(12)
    inv = MPoly.gen("t", vars, power=-1)
    assert (t * inv) == MPoly.const(1, vars)


def test_mpoly_eval_and_zero():
    small = ("N",)
    p = MPoly.gen("N", small) ** 2 * 3
    assert p.eval({"N": 2}) == CRational(12)
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


def test_real_values_hash_like_the_number_they_equal():
    # CRational(2) == 2 held, but the hashes differed, so 2 in {CRational(2)} was False
    for x in (0, 2, -7, 2 ** 100, Fraction(1, 3), Fraction(-22, 7)):
        c = CRational(x)
        assert c == x and hash(c) == hash(x)
        assert x in {c} and c in {x} and {x: 1}[c] == 1
    c = CRational(Fraction(1, 2), Fraction(-3, 4))
    assert hash(c) == hash((Fraction(1, 2), Fraction(-3, 4)))
    assert c in {CRational(Fraction(2, 4), Fraction(-6, 8))}


# -- property test against the Fraction-pair representation -----------------


def _pair_operand(op):
    def lifted(self, other):
        if isinstance(other, _PairCRational):
            return op(self, other)
        if isinstance(other, (int, Fraction)):
            return op(self, _PairCRational(other))
        return NotImplemented

    return lifted


class _PairCRational:
    """The earlier CRational, a pair of Fractions, kept here as the reference
    for the (n, m, d) integer representation."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @_pair_operand
    def __add__(self, other):
        return _PairCRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    @_pair_operand
    def __sub__(self, other):
        return _PairCRational(self.re - other.re, self.im - other.im)

    @_pair_operand
    def __rsub__(self, other):
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _PairCRational(self.re * other, self.im * other)
        if not isinstance(other, _PairCRational):
            return NotImplemented
        return _PairCRational(self.re * other.re - self.im * other.im,
                              self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    @_pair_operand
    def __truediv__(self, other):
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero CRational")
        return _PairCRational((self.re * other.re + self.im * other.im) / den,
                              (self.im * other.re - self.re * other.im) / den)

    @_pair_operand
    def __rtruediv__(self, other):
        return other / self

    def __neg__(self):
        return _PairCRational(-self.re, -self.im)

    def __pow__(self, n):
        if n < 0:
            return _PairCRational(1) / self ** (-n)
        out, base = _PairCRational(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    def __repr__(self):
        return f"CRational({self.re!r}, {self.im!r})"

    def to_pair(self):
        return (str(self.re), str(self.im))


def _part(rng):
    if rng.random() < 0.2:
        return Fraction(0)
    num_bits = rng.choice((3, 30, 130))
    den_bits = rng.choice((0, 4, 110))
    return Fraction(rng.randint(-2 ** num_bits, 2 ** num_bits), rng.randint(1, 2 ** den_bits))


def _sample_pairs(seed, count):
    rng = random.Random(seed)
    pairs = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)),
             (Fraction(-3, 4), Fraction(0)), (Fraction(0), Fraction(5, 6)),
             (Fraction(2 ** 127 + 1, 3), Fraction(-(2 ** 101), 2 ** 100 + 7))]
    pairs += [(_part(rng), _part(rng)) for _ in range(count)]
    return pairs


def _hex(z):
    return z.real.hex(), z.imag.hex()


def _assert_matches(got, ref):
    assert type(got) is CRational
    assert got.d > 0 and math.gcd(got.n, got.m, got.d) == 1
    assert (got.re, got.im) == (ref.re, ref.im)
    assert got == CRational(ref.re, ref.im) and bool(got) == bool(ref)
    assert (str(got), repr(got), got.to_pair()) == (str(ref), repr(ref), ref.to_pair())
    assert hash(got) == (hash(ref.re) if ref.im == 0 else hash((ref.re, ref.im)))
    try:
        want = ref.to_complex()
    except OverflowError:
        with pytest.raises(OverflowError):
            got.to_complex()
    else:
        assert _hex(got.to_complex()) == _hex(want)


def _check_op(op, a, b, ra, rb):
    try:
        want = op(ra, rb)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(a, b)
    else:
        _assert_matches(op(a, b), want)


RING_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.mark.parametrize("seed", [1, 2])
def test_crational_matches_fraction_pair_reference(seed):
    pairs = _sample_pairs(seed, 30)
    new = [CRational(*p) for p in pairs]
    ref = [_PairCRational(*p) for p in pairs]
    for a, ra in zip(new, ref):
        _assert_matches(a, ra)
        _assert_matches(-a, -ra)
        for b, rb in zip(new, ref):
            assert (a == b) == (ra == rb)
            for op in RING_OPS:
                _check_op(op, a, b, ra, rb)


def test_crational_mixed_int_and_fraction_operands_match_reference():
    scalars = [0, 1, -3, True, 2 ** 100 + 1, Fraction(0), Fraction(-7, 3), Fraction(1, 2 ** 90),
               Fraction(3 * 2 ** 70, 5)]
    for pair in _sample_pairs(3, 12):
        a, ra = CRational(*pair), _PairCRational(*pair)
        for k in scalars:
            assert (a == k) == (ra == k)
            for op in RING_OPS:
                _check_op(op, a, k, ra, k)
                _check_op(op, k, a, k, ra)
        if not pair[1]:
            assert a == pair[0] and hash(a) == hash(pair[0])


def test_crational_powers_match_reference():
    for pair in _sample_pairs(4, 15):
        a, ra = CRational(*pair), _PairCRational(*pair)
        for n in (-3, -1, 0, 1, 2, 5):
            _check_op(operator.pow, a, n, ra, n)


def test_crational_doubles_and_overflow_match_reference():
    big, tiny = 10 ** 400, Fraction(1, 10 ** 400)
    pairs = [(big, 0), (0, -big), (Fraction(big + 1, big), Fraction(-big, 3)),
             (Fraction(big, big - 1), Fraction(1, 3)), (tiny, -tiny), (-tiny, -tiny), (-tiny, tiny),
             (Fraction(1, 3), -tiny), (Fraction(2 ** 1100, 3 ** 600), Fraction(-(3 ** 700), 2 ** 30))]
    for re, im in pairs:
        _assert_matches(CRational(re, im), _PairCRational(re, im))


def test_crational_defers_to_mpoly_for_every_op():
    N = MPoly.gen("N", ("N",))
    for pair in _sample_pairs(5, 6):
        a = CRational(*pair)
        assert a + N == N + a and (a + N).terms.get((0,), CRational(0)) == a
        assert a - N == -(N - a)
        assert a * N == N * a
        with pytest.raises(TypeError):
            a / N
