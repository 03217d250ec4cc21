"""Exact coefficient arithmetic: Gaussian rationals and multivariate Laurent polynomials.

Every symbolic computation in this package runs over Q(i); floating point only
enters through quadrature.  ``CRational`` is a Gaussian integer over one
positive integer denominator, so its ring operations are integer arithmetic
plus one gcd; ``MPoly`` is a sparse Laurent polynomial over ``CRational`` in a
fixed tuple of named generators (used for symbolic potentials, the symbol N,
and the map-model couplings).
"""

from __future__ import annotations

import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import gcd, inf
from typing import Mapping, Union

Scalarish = Union[int, Fraction, "CRational"]

_new = object.__new__


def _gauss(n: int, m: int, d: int) -> "CRational":
    """(n + i m) / d for d > 0, in lowest terms: the one constructor every
    CRational comes from."""
    if d != 1:
        g = gcd(n, m, d)
        if g != 1:
            n //= g
            m //= g
            d //= g
    z = _new(CRational)
    z.n = n
    z.m = m
    z.d = d
    return z


def _operand(x):
    """A scalar lifted to CRational, the one lift in this module: an int goes
    straight to ``_gauss``, a Fraction or bool through the constructor, and a
    CRational is returned as it is.  Any other type gives None, and a ring
    operator returns NotImplemented, so Python asks that type (an MPoly, say)
    or raises TypeError."""
    if type(x) is int:
        return _gauss(x, 0, 1)
    if isinstance(x, (int, Fraction)):
        return CRational(x)
    return x if isinstance(x, CRational) else None


def _power(base, n: int, one):
    """``base ** n`` for an int ``n >= 0`` by square and multiply, starting
    from the ring's ``one``: the power of both CRational and MPoly."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class CRational:
    """A complex number with exact rational real and imaginary parts.

    Stored as three ints: the value is ``(n + i m) / d`` with ``d > 0`` and
    ``gcd(n, m, d) == 1``, so equal values have equal fields.  ``re`` and
    ``im`` give the parts as ``Fraction`` in lowest terms.
    """

    __slots__ = ("n", "m", "d")

    def __new__(cls, re: Union[int, Fraction, str] = 0, im: Union[int, Fraction, str] = 0):
        if type(re) is int and type(im) is int:
            return _gauss(re, im, 1)
        re, im = Fraction(re), Fraction(im)
        a, b = re.denominator, im.denominator
        return _gauss(re.numerator * b, im.numerator * a, a * b)

    from_ints = staticmethod(_gauss)

    @property
    def re(self) -> Fraction:
        return Fraction(self.n, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.m, self.d)

    @staticmethod
    def coerce(x: Scalarish) -> "CRational":
        if (z := _operand(x)) is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to CRational")
        return z

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not CRational and (other := _operand(other)) is None:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _gauss(self.n + other.n, self.m + other.m, d)
        return _gauss(self.n * e + other.n * d, self.m * e + other.m * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        if type(other) is not CRational and (other := _operand(other)) is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not CRational and (other := _operand(other)) is None:
            return NotImplemented
        n, m, p, q = self.n, self.m, other.n, other.m
        return _gauss(n * p - m * q, n * q + m * p, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not CRational and (other := _operand(other)) is None:
            return NotImplemented
        n, m, p, q, e = self.n, self.m, other.n, other.m, other.d
        den = p * p + q * q
        if not den:
            raise ZeroDivisionError("division by zero CRational")
        # (n + i m)/d * e/(p + i q) = (n + i m)(p - i q) e / (d (p^2 + q^2))
        return _gauss((n * p + m * q) * e, (m * p - n * q) * e, self.d * den)

    def __rtruediv__(self, other):
        if type(other) is not CRational and (other := _operand(other)) is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _gauss(-self.n, -self.m, self.d)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("CRational powers must be integers")
        if n < 0:
            return ONE / _power(self, -n, ONE)
        return _power(self, n, ONE)

    # -- comparisons and helpers -------------------------------------------

    def __eq__(self, other):
        if type(other) is not CRational and (other := _operand(other)) is None:
            return NotImplemented
        return self.n == other.n and self.m == other.m and self.d == other.d

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        if self.m == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.n != 0 or self.m != 0

    def to_complex(self) -> complex:
        # int / int is correctly rounded, and raises OverflowError, just as
        # float(Fraction) does; the sum keeps the signed zeros of
        # complex(re) + 1j * complex(im)
        return complex(self.n / self.d) + 1j * complex(self.m / self.d)

    def __complex__(self):
        return self.to_complex()

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}*i"

    def __repr__(self):
        return f"CRational({self.re!r}, {self.im!r})"

    def to_pair(self) -> tuple[str, str]:
        """Serialize as decimal-free rational strings."""
        return (str(self.re), str(self.im))

    @staticmethod
    def from_pair(pair) -> "CRational":
        re, im = pair
        return CRational(_printable_fraction(str(re)), _printable_fraction(str(im)))


def _printable_fraction(text: str) -> Fraction:
    """``Fraction(text)``, refused when ``str`` cannot print its numerator or denominator
    (``sys.get_int_max_str_digits()`` digits); a decimal exponent that implies
    this is refused before it is expanded, since 10^(10^8) alone takes minutes."""
    limit = sys.get_int_max_str_digits() or inf
    try:
        _, digits, exp = Decimal(text).as_tuple()  # the exponent stays unexpanded
    except InvalidOperation:  # "n/d", malformed, or an exponent of over 18 digits
        head, _, tail = text.lower().rpartition("e")
        try:  # Fraction checks the mantissa; int() reads the exponent without expanding 10^exp
            digits, exp = (Fraction(head + "e0") != 0,), int(tail)
        except ValueError:  # "n/d" or malformed: Fraction parses or refuses it
            digits, exp = (), 0
    # a nonzero m 10^exp, m of len(digits) digits, has a part of over |exp| - len(digits) digits
    if type(exp) is int and abs(exp) - len(digits) >= limit:  # finite and beyond the limit
        if not any(digits):
            return Fraction(0)  # Fraction(text) would expand 10^exp all the same
        raise ValueError(f"coefficient {text!r} has more than {limit} digits")
    f = Fraction(text)
    str(f)  # a part beyond the limit raises ValueError here, as it would in to_pair
    return f


ZERO = CRational(0)
ONE = CRational(1)


class MPoly:
    """Sparse Laurent polynomial over CRational in named generators.

    Exponent vectors are integer tuples aligned with ``vars``; negative
    exponents are allowed (needed for N^(chi-n) bookkeeping and the 1/t
    propagator weight).
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], CRational]):
        self.vars = tuple(vars)
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def zero(vars: tuple[str, ...]) -> "MPoly":
        return MPoly(vars, {})

    @staticmethod
    def const(c: Scalarish, vars: tuple[str, ...]) -> "MPoly":
        return MPoly(vars, {(0,) * len(vars): CRational.coerce(c)})

    @staticmethod
    def gen(name: str, vars: tuple[str, ...], power: int = 1) -> "MPoly":
        idx = vars.index(name)
        e = tuple(power if i == idx else 0 for i in range(len(vars)))
        return MPoly(vars, {e: ONE})

    def _check(self, other: "MPoly"):
        if self.vars != other.vars:
            raise ValueError(f"generator mismatch: {self.vars} vs {other.vars}")

    def _lift(self, other):
        """A scalar operand as a constant in this polynomial's generators; any
        other operand as it is."""
        c = _operand(other)
        return other if c is None else MPoly.const(c, self.vars)

    def __add__(self, other):
        other = self._lift(other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return MPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return MPoly.const(other, self.vars) - self

    def __mul__(self, other):
        if (c := _operand(other)) is not None:
            return MPoly(self.vars, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        out: dict[tuple[int, ...], CRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, ZERO) + c1 * c2
        return MPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative MPoly power; multiply by the inverse generator instead")
        return _power(self, n, MPoly.const(1, self.vars))

    def __eq__(self, other):
        other = self._lift(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def eval(self, values: Mapping[str, Scalarish]) -> CRational:
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise ValueError(f"no value for generator(s) {missing}")
        vals = [CRational.coerce(values[v]) for v in self.vars]
        total = ZERO
        for e, c in self.terms.items():
            term = c
            for base, exp in zip(vals, e):
                if exp:
                    term = term * base ** exp
            total = total + term
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda x: (sum(x), x), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{p}" if p != 1 else v for v, p in zip(self.vars, e) if p
            )
            if mono:
                bits.append(f"({c})*{mono}")
            else:
                bits.append(f"({c})")
        return " + ".join(bits)

    def __repr__(self):
        return f"MPoly({self.vars!r}, {self.terms!r})"

