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
from itertools import repeat
from math import comb, factorial
from operator import lt
from typing import Iterable, Mapping, Sequence

from .exact import CRational


class Partition(tuple):
    """Non-increasing tuple of positive integers (possibly empty)."""

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(parts)
        if any(map(lt, parts, parts[1:])):
            raise ValueError(f"parts not sorted non-increasing: {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be >= 1: {parts}")
        if not all(map(isinstance, parts, repeat(int))):
            raise ValueError(f"parts must be integers: {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def of(cls, parts: Iterable[int]) -> "Partition":
        """Sort descending; zeros are not allowed here (fold them first)."""
        return cls(sorted(parts, reverse=True))

    @property
    def weight(self) -> int:
        return sum(self)


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
    out = [mu for w in range(N * maxpart + 1) for mu in _partitions(w, N, maxpart)]
    assert len(out) == comb(N + maxpart, N)
    return out


def partitions_of_weight(w: int) -> list[Partition]:
    """All partitions of w."""
    return _partitions(w, None, w)


def _partitions(w: int, max_length: int | None, maxpart: int) -> list[Partition]:
    """The partitions of w with at most ``max_length`` parts (None: any number)
    and no part above ``maxpart``, in reverse lexicographic order."""
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

    rec(w, maxpart, [])
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
        # a CRational's parts are read in place: its __bool__ is a Python frame per term
        self.terms = {mu: c for mu, c in terms.items() if (c.n or c.m if type(c) is CRational else c)}
        self.nvars = nvars

    @classmethod
    def build(cls, items: Iterable[tuple[Sequence[int], object]], nvars) -> "PowerSumPoly":
        """Assemble from (index tuple, coefficient) pairs.

        Index tuples may contain zeros; each p_0 multiplies the coefficient by
        ``nvars``.  Duplicate partitions are merged.
        """
        items = list(items)
        for idx, _ in items:
            if any(p < 0 for p in idx):
                raise ValueError(f"negative power-sum index in {idx}")
            if not all(isinstance(p, int) for p in idx if p != 0):
                raise ValueError(f"power-sum indices must be integers: {idx}")
        return cls._assemble(items, nvars)

    @classmethod
    def _assemble(cls, items, nvars) -> "PowerSumPoly":
        """``build`` for index tuples of ints >= 0 that the caller has checked.

        Each tuple is sorted once; its zeros sort last and are cut off, each
        folding ``nvars`` into the coefficient.  Partitions keep their order
        of first insertion.
        """
        terms: dict[Partition, object] = {}
        trusted = tuple.__new__  # a Partition of parts sorted here, not re-checked
        for idx, c in items:
            parts = sorted(idx, reverse=True)
            nz = idx.count(0)
            if nz:
                del parts[-nz:]
                for _ in range(nz):
                    c = c * nvars
            mu = trusted(Partition, parts)
            if mu in terms:
                terms[mu] = terms[mu] + c
            else:
                terms[mu] = c
        return cls(terms, nvars)

    @classmethod
    def monomial(cls, mu: Sequence[int], nvars) -> "PowerSumPoly":
        return cls.build([(tuple(mu), CRational(1))], nvars)

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

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PowerSumPoly):
            return NotImplemented
        return self.terms == other.terms

    def max_part(self) -> int:
        return max((mu[0] for mu in self.terms if mu), default=0)

    def max_length(self) -> int:
        return max((len(mu) for mu in self.terms), default=0)

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


@cache
def _times_pk_moves(lam: Partition, k: int, N: int) -> tuple[tuple[Partition, int], ...]:
    """The monomials of m_lam * p_k with at most N parts, as (partition, multiplier).

    m_lam * p_k = sum over results: adding k to one distinct part value, or
    appending k as a new part; the multiplier is the multiplicity of the new
    part value in the resulting partition.  No result is shorter than lam, so
    dropping the m_lam with more than N parts (zero in N variables) here is
    the same as dropping them at the end.  Cached per (lam, k, N).
    """
    moves = []
    trusted = tuple.__new__  # a Partition of parts sorted here, not re-checked
    prev = 0
    for i, v in enumerate(lam):
        if v == prev:  # lam is sorted: a repeated value follows its first
            continue
        prev = v
        # v + k moves left past the parts smaller than it; lam[i] is the
        # first v, so every part left of i is larger than v
        x, j = v + k, i
        while j and lam[j - 1] < x:
            j -= 1
        new = trusted(Partition, lam[:j] + (x,) + lam[j:i] + lam[i + 1:])
        moves.append((new, new.count(x)))
    if len(lam) < N:
        j = len(lam)
        while j and lam[j - 1] < k:
            j -= 1
        new = trusted(Partition, lam[:j] + (k,) + lam[j:])
        moves.append((new, new.count(k)))
    return tuple(moves)


def _mono_times_pk(mono: Mapping[Partition, int], k: int, N: int) -> dict[Partition, int]:
    """Multiply a monomial-basis combination by p_k, keeping monomials of <= N parts.

    Each m_lam contributes its cached ``_times_pk_moves(lam, k, N)``, scaled
    by its coefficient, in the order the moves are listed.
    """
    out: dict[Partition, int] = {}
    get = out.get
    moves = _times_pk_moves
    for lam, c in mono.items():
        for new, m in moves(lam, k, N):
            out[new] = get(new, 0) + c * m
    return out


@cache
def _p_to_mono(mu: tuple[int, ...], N: int) -> dict[Partition, int]:
    """p_mu in the monomial basis of N variables (integer coefficients).

    Memoized by prefix: p_mu = p_(mu without its last part) * p_(last part),
    each step reading the moves of ``_times_pk_moves``.  The returned dict is
    shared; callers must not modify it.
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
def _moebius_rows(n: int) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """(blocks, Moebius weight) for every set partition of range(n), in the
    order of ``_set_partitions``; the weight is prod_blocks (-1)^(|B|-1) (|B|-1)!.
    Cached per n: it does not depend on the parts that fill the positions."""
    rows = []
    for pi in _set_partitions(n):
        weight = 1
        for block in pi:
            weight *= (-1) ** (len(block) - 1) * factorial(len(block) - 1)
        rows.append((pi, weight))
    return rows


@cache
def _mono_to_p(lam: Partition, N: int) -> dict[Partition, int]:
    """N! * m_lam in power sums, via Moebius inversion over set partitions.

    The augmented monomial M_lam = (prod of multiplicities!) * m_lam satisfies
    M_lam = sum over set partitions pi of the positions, with Moebius weight
    prod_blocks (-1)^(|B|-1) (|B|-1)!, of p indexed by the block sums.  For
    ell(lam) <= N the product of multiplicities! divides N!, so N! * m_lam
    has integer coefficients: the expansion of M_lam times N! / (that
    product).  Every partition appearing has at most ell(lam) parts.  The set
    partitions and their weights come from ``_moebius_rows``.  Cached per
    (lam, N); the returned dict is shared, callers must not modify it.
    """
    acc: dict[Partition, int] = {}
    get = acc.get
    part = lam.__getitem__
    trusted = tuple.__new__  # a Partition of block sums sorted here, not re-checked
    for blocks, weight in _moebius_rows(len(lam)):
        nu = trusted(Partition, sorted([sum(map(part, block)) for block in blocks], reverse=True))
        acc[nu] = get(nu, 0) + weight
    mult = 1
    for v in set(lam):
        mult *= factorial(lam.count(v))
    scale = factorial(N) // mult
    return {nu: c * scale for nu, c in acc.items() if c}


def reduce_length(p: PowerSumPoly, N: int) -> PowerSumPoly:
    """Rewrite so every partition has at most N parts.

    Terms already of length <= N pass through untouched; longer ones are
    expanded in the monomial basis (``_p_to_mono``, memoized by prefix, each
    step reading the moves cached per (lam, k, N) by ``_times_pk_moves``),
    monomials needing more than N variables are dropped (they vanish
    identically), and the remainder is converted back through the N!-scaled
    rows of ``_mono_to_p``, each a sum over the set partitions of
    ``_moebius_rows``.  These four tables are the exact layer's only
    process-wide caches.  Each long term's expansion is summed in integers
    over the denominator N! and multiplied by the term's coefficient once;
    output terms keep their order of first appearance.  The result is the
    same function of N variables, and homogeneous weight is preserved.
    """
    if N < 1:
        raise ValueError("N must be positive")
    out: dict[Partition, object] = {}
    den = factorial(N)
    row, make = _mono_to_p, CRational.from_ints
    for mu, c in p.terms.items():
        if len(mu) <= N:
            out[mu] = out[mu] + c if mu in out else c
            continue
        expansion: dict[Partition, int] = {}
        get = expansion.get
        for lam, q in _p_to_mono(mu, N).items():
            for nu, a in row(lam, N).items():
                expansion[nu] = get(nu, 0) + q * a
        if type(c) is CRational:
            cn, cm, cd = c.n, c.m, c.d * den
            scaled = [make(cn * a, cm * a, cd) for a in expansion.values()]
        else:
            scaled = [c * make(a, 0, den) for a in expansion.values()]
        if not out:  # the first term's partitions are all new
            out.update(zip(expansion, scaled))
            continue
        for nu, v in zip(expansion, scaled):
            out[nu] = out[nu] + v if nu in out else v
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
