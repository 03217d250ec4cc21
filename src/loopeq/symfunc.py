"""Symmetric polynomials of N eigenvalues in the power-sum basis, exactly.

Partitions index products p_mu = prod_j p_{mu_j}; a PowerSumPoly is a finite
Q(i)-linear combination of such products tied to a fixed number of variables.
The length-reduction routine rewrites any p_mu as a combination supported on
partitions with at most N parts (the p_mu with ell(mu) <= N are a basis of the
symmetric polynomials in N variables), going through the monomial basis where
truncation to N variables is literally dropping long partitions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Iterable, Mapping, Sequence

from .exact import CRational


class Partition(tuple):
    """Non-increasing tuple of positive integers (possibly empty)."""

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not sorted non-increasing: {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be >= 1: {parts}")
        if any(not isinstance(p, int) for p in parts):
            raise ValueError(f"parts must be integers: {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def of(cls, parts: Iterable[int]) -> "Partition":
        """Sort descending; zeros are not allowed here (fold them first)."""
        return cls(sorted(parts, reverse=True))

    @classmethod
    def _trusted(cls, parts: tuple) -> "Partition":
        """Wrap a tuple of ints >= 1 that the caller has already sorted
        non-increasing; internal, nothing is re-checked."""
        return tuple.__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)


EMPTY = Partition()


def _grevlex_key(mu: Sequence[int]):
    return (sum(mu), tuple(-p for p in mu))


def partitions_in_box(N: int, maxpart: int) -> list[Partition]:
    """All partitions with at most N parts, each part <= maxpart.

    Graded reverse-lexicographic order; the count is binom(N + maxpart, N).
    """
    if N < 1:
        raise ValueError("N must be positive")
    if maxpart < 0:
        raise ValueError("maxpart must be non-negative")
    out: list[Partition] = []

    def rec(prefix: list[int], largest: int, slots: int):
        out.append(Partition(tuple(prefix)))
        if slots == 0:
            return
        for p in range(min(largest, maxpart), 0, -1):
            prefix.append(p)
            rec(prefix, p, slots - 1)
            prefix.pop()

    rec([], maxpart, N)
    out.sort(key=_grevlex_key)
    assert len(out) == comb(N + maxpart, N)
    return out


def partitions_of_weight(w: int, max_length: int | None = None, max_part: int | None = None) -> list[Partition]:
    """All partitions of w, optionally bounded in length and part size."""
    res: list[Partition] = []

    def rec(rem: int, largest: int, prefix: list[int]):
        if rem == 0:
            res.append(Partition(tuple(prefix)))
            return
        if max_length is not None and len(prefix) >= max_length:
            return
        for p in range(min(rem, largest), 0, -1):
            prefix.append(p)
            rec(rem - p, p, prefix)
            prefix.pop()

    rec(w, w if max_part is None else max_part, [])
    return res


class PowerSumPoly:
    """Finite linear combination of p_mu with exact coefficients.

    ``nvars`` is the number of eigenvalue variables; p_0 equals that number and
    is folded into coefficients at construction time, so stored partitions have
    all parts >= 1.  Coefficients are CRational in ordinary use; any commutative
    ring element with +,-,* (e.g. MPoly for symbolic potentials) works too, in
    which case ``nvars`` may itself be a ring element standing for N.
    """

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Mapping[Partition, object], nvars):
        self.terms = {mu: c for mu, c in terms.items() if c}
        self.nvars = nvars

    @classmethod
    def build(cls, items: Iterable[tuple[Sequence[int], object]], nvars) -> "PowerSumPoly":
        """Assemble from (index tuple, coefficient) pairs.

        Index tuples may contain zeros; each p_0 multiplies the coefficient by
        ``nvars``.  Duplicate partitions are merged.
        """
        terms: dict[Partition, object] = {}
        for idx, coeff in items:
            nz = sum(1 for p in idx if p == 0)
            parts = sorted((p for p in idx if p != 0), reverse=True)
            if parts and parts[-1] < 0:
                raise ValueError(f"negative power-sum index in {idx}")
            if not all(isinstance(p, int) for p in parts):
                raise ValueError(f"power-sum indices must be integers: {idx}")
            mu = Partition._trusted(tuple(parts))
            c = coeff
            for _ in range(nz):
                c = c * nvars
            if mu in terms:
                terms[mu] = terms[mu] + c
            else:
                terms[mu] = c
        return cls(terms, nvars)

    @classmethod
    def monomial(cls, mu: Sequence[int], nvars, coeff=None) -> "PowerSumPoly":
        coeff = CRational(1) if coeff is None else coeff
        return cls.build([(tuple(mu), coeff)], nvars)

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: _grevlex_key(kv[0]))

    def __add__(self, other: "PowerSumPoly") -> "PowerSumPoly":
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out[mu] + c if mu in out else c
        return PowerSumPoly(out, self.nvars)

    def __sub__(self, other: "PowerSumPoly") -> "PowerSumPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "PowerSumPoly":
        return PowerSumPoly({mu: v * c for mu, v in self.terms.items()}, self.nvars)

    def __mul__(self, other: "PowerSumPoly") -> "PowerSumPoly":
        out: dict[Partition, object] = {}
        for mu, a in self.terms.items():
            for nu, b in other.terms.items():
                lam = Partition.of(mu + nu)
                c = a * b
                out[lam] = out[lam] + c if lam in out else c
        return PowerSumPoly(out, self.nvars)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PowerSumPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def max_part(self) -> int:
        return max((mu[0] for mu in self.terms if mu), default=0)

    def max_length(self) -> int:
        return max((len(mu) for mu in self.terms), default=0)

    def weight(self) -> int:
        """Top weight over the support."""
        return max((mu.weight for mu in self.terms), default=0)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for mu, c in self.items_sorted():
            name = "p[" + ",".join(map(str, mu)) + "]" if mu else "1"
            bits.append(f"({c})*{name}")
        return " + ".join(bits)

    def __repr__(self):
        return f"PowerSumPoly({self})"

    # -- JSON wire format ----------------------------------------------------

    def to_json(self) -> list[dict]:
        out = []
        for mu, c in self.items_sorted():
            if not isinstance(c, CRational):
                raise TypeError("only CRational coefficients serialize to JSON")
            out.append({"mu": list(mu), "re": str(c.re), "im": str(c.im)})
        return out

    @classmethod
    def from_json(cls, data: list[dict], nvars: int) -> "PowerSumPoly":
        items = []
        for entry in data:
            c = CRational(Fraction(entry["re"]), Fraction(entry["im"]))
            items.append((tuple(entry["mu"]), c))
        return cls.build(items, nvars)


def eval_powersum(p: PowerSumPoly, points: Sequence[CRational]) -> CRational:
    """Exact evaluation at an eigenvalue tuple; len(points) must equal nvars."""
    if not isinstance(p.nvars, int):
        raise TypeError("evaluation needs a concrete variable count")
    if len(points) != p.nvars:
        raise ValueError(f"expected {p.nvars} points, got {len(points)}")
    pts = [CRational.coerce(x) for x in points]
    power_cache: dict[int, CRational] = {}

    def psum(k: int) -> CRational:
        if k not in power_cache:
            total = CRational(0)
            for x in pts:
                total = total + x ** k
            power_cache[k] = total
        return power_cache[k]

    total = CRational(0)
    for mu, c in p.terms.items():
        v = CRational.coerce(c) if isinstance(c, (int, Fraction)) else c
        for part in mu:
            v = v * psum(part)
        total = total + v
    return total


# ---------------------------------------------------------------------------
# power-sum <-> monomial transition (internal; used by reduce_length)
# ---------------------------------------------------------------------------


def _mono_times_pk(mono: Mapping[Partition, int], k: int, N: int) -> dict[Partition, int]:
    """Multiply a monomial-basis combination by p_k, keeping monomials of <= N parts.

    m_lam * p_k = sum over results: adding k to one distinct part value, or
    appending k as a new part; the multiplier is the multiplicity of the new
    part value in the resulting partition.  No result is shorter than lam, so
    dropping the m_lam with more than N parts (zero in N variables) here is
    the same as dropping them at the end.
    """
    out: dict[Partition, int] = {}
    for lam, c in mono.items():
        seen = set()
        for i, v in enumerate(lam):
            if v in seen:
                continue
            seen.add(v)
            # v + k moves left past the parts smaller than it; lam[i] is the
            # first v, so every part left of i is larger than v
            x, j = v + k, i
            while j and lam[j - 1] < x:
                j -= 1
            new = Partition._trusted(lam[:j] + (x,) + lam[j:i] + lam[i + 1:])
            out[new] = out.get(new, 0) + c * new.count(x)
        if len(lam) < N:
            j = len(lam)
            while j and lam[j - 1] < k:
                j -= 1
            new = Partition._trusted(lam[:j] + (k,) + lam[j:])
            out[new] = out.get(new, 0) + c * new.count(k)
    return out


@cache
def _p_to_mono(mu: tuple[int, ...], N: int) -> dict[Partition, int]:
    """p_mu in the monomial basis of N variables (integer coefficients).

    Memoized by prefix: p_mu = p_(mu without its last part) * p_(last part).
    The returned dict is shared; callers must not modify it.
    """
    if not mu:
        return {EMPTY: 1}
    return _mono_times_pk(_p_to_mono(mu[:-1], N), mu[-1], N)


def _set_partitions(n: int):
    """All set partitions of range(n) as tuples of blocks."""
    if n == 0:
        yield ()
        return
    for rest in _set_partitions(n - 1):
        # element n-1 joins an existing block or starts its own
        for i in range(len(rest)):
            yield rest[:i] + (rest[i] + (n - 1,),) + rest[i + 1:]
        yield rest + ((n - 1,),)


@cache
def _mono_to_p(lam: Partition) -> tuple[int, dict[Partition, int]]:
    """Expand m_lam in power sums via Moebius inversion over set partitions.

    The augmented monomial M_lam = (prod of multiplicities!) * m_lam satisfies
    M_lam = sum over set partitions pi of the positions, with Moebius weight
    prod_blocks (-1)^(|B|-1) (|B|-1)!, of p indexed by the block sums.
    Returns (prod of multiplicities!, integer expansion of M_lam).  Every
    partition appearing has at most ell(lam) parts.  The returned dict is
    shared; callers must not modify it.
    """
    acc: dict[Partition, int] = {}
    for pi in _set_partitions(len(lam)):
        coeff = 1
        sums = []
        for block in pi:
            size = len(block)
            coeff *= (-1) ** (size - 1) * factorial(size - 1)
            sums.append(sum(lam[i] for i in block))
        nu = Partition.of(sums)
        acc[nu] = acc.get(nu, 0) + coeff
    mult = 1
    for v in set(lam):
        mult *= factorial(lam.count(v))
    return mult, {nu: c for nu, c in acc.items() if c}


def reduce_length(p: PowerSumPoly, N: int) -> PowerSumPoly:
    """Rewrite so every partition has at most N parts.

    Terms already of length <= N pass through untouched; longer ones are
    expanded in the monomial basis, monomials needing more than N variables are
    dropped (they vanish identically), and the remainder is converted back.
    Each long term's expansion is summed in integers over the denominator N!
    (every multiplicity product of a partition with <= N parts divides it)
    and multiplied by the term's coefficient once; output terms keep their
    order of first appearance.  The result is the same function of N
    variables, and homogeneous weight is preserved.
    """
    if N < 1:
        raise ValueError("N must be positive")
    out: dict[Partition, object] = {}

    def add(mu: Partition, c):
        if mu in out:
            out[mu] = out[mu] + c
        else:
            out[mu] = c

    den = factorial(N)
    for mu, c in p.terms.items():
        if len(mu) <= N:
            add(mu, c)
            continue
        expansion: dict[Partition, int] = {}
        for lam, q in _p_to_mono(mu, N).items():
            mult, coeffs = _mono_to_p(lam)
            q *= den // mult
            for nu, a in coeffs.items():
                expansion[nu] = expansion.get(nu, 0) + q * a
        for nu, a in expansion.items():
            add(nu, c * Fraction(a, den))
    return PowerSumPoly(out, p.nvars)


def compositions(total: int, slots: int) -> list[tuple[int, ...]]:
    """Non-negative integer tuples of given length summing to total.

    Ordered with the first slot descending, e.g. (2,0),(1,1),(0,2).
    """
    if slots == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total, -1, -1):
        for rest in compositions(total - first, slots - 1):
            out.append((first,) + rest)
    return out
