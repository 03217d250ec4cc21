"""Reduction of arbitrary moments E(p_mu) to the finite basis indexed by
partitions fitting in a (d-1) x N box, and loop-equation residual reports.

Any functional annihilating every Q_mu is determined by its values on
{p_nu : nu in the box}; the reduction solves E(Q_{(mu_1 - d, rest)}) = 0 for
the top term (dividing by the nonzero leading potential coefficient) and
recurses, each step strictly lowering total weight; partitions longer than N
first go through ``reduce_length``.  Linear forms are kept as Gaussian-integer
numerators over one denominator, so combining them is integer arithmetic; the
``CRational`` coefficients read in and handed out are themselves ``(n, m, d)``
integer triples, which the forms read and build directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb, gcd, lcm
from typing import Mapping, Sequence

from .exact import ONE, CRational
from .loopgen import Potential, q_polynomial, q_rational
from .symfunc import (
    Partition,
    PowerSumPoly,
    partitions_in_box,
    partitions_of_weight,
    reduce_length,
)


def gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53: the relative rounding
    bound of n floating-point operations in sequence (Higham 2002)."""
    return n * 2.0 ** -53 / (1 - n * 2.0 ** -53)


def hn_dimension(N: int, d: int) -> int:
    """Dimension of the admissible homology space: binom(N+d-1, N)."""
    if N < 1 or d < 1:
        raise ValueError("N and d must be positive")
    return comb(N + d - 1, N)


# (den, {b: (re, im)}) stands for sum_b (re + i im) / den * p_b, with den > 0
Form = tuple[int, dict[Partition, tuple[int, int]]]


def _combine(terms: Sequence[tuple[CRational, Form]]) -> Form:
    """sum_j c_j * form_j, in lowest terms.

    Every term is put over the lcm of the term denominators, and each basis
    element's numerator is accumulated as one ``[re, im]`` pair of ints; a
    real c_j (``c.m == 0``) skips the cross products, and a real entry of a
    form (``y == 0``) its imaginary sum.  The result is divided by one gcd.
    Basis elements keep their order of first appearance across the terms;
    entries that cancel to zero are dropped.
    """
    dens = [c.d * fden for c, (fden, _) in terms]
    den = lcm(*dens)
    acc: dict[Partition, list[int]] = {}
    get = acc.get
    for (c, (_, coeffs)), term_den in zip(terms, dens):
        scale = den // term_den
        cre, cim = c.n * scale, c.m * scale
        if cim:
            for b, (x, y) in coeffs.items():
                re, im = cre * x - cim * y, cre * y + cim * x
                pair = get(b)
                if pair is None:
                    acc[b] = [re, im]
                else:
                    pair[0] += re
                    pair[1] += im
        else:
            for b, (x, y) in coeffs.items():
                pair = get(b)
                if pair is None:
                    acc[b] = [cre * x, cre * y]
                else:
                    pair[0] += cre * x
                    if y:
                        pair[1] += cre * y
    g = gcd(den, *chain.from_iterable(acc.values()))
    if g > 1:
        den //= g
        return den, {b: (re // g, im // g) for b, (re, im) in acc.items() if re or im}
    return den, {b: (re, im) for b, (re, im) in acc.items() if re or im}


class LoopReducer:
    """Rewrites E(p_mu) as an exact linear form over the box basis.

    The substitution step eliminates the largest part (ties leftmost), the
    paper's choice; any other order gives the same forms, since two orders
    differ by a combination of loop equations, all of which reduce to zero.

    Memoized forms are ``Form``s in lowest terms, built by ``_combine`` in
    both the length and the substitution step; ``reduce`` hands out
    ``CRational`` coefficients.  The memo ``_memo`` is a plain dict filled by
    ``_reduce``: a self-filling map would add a frame per reduction step and
    lower the recursion cap.  Where ``_reduce`` combines forms it reads the
    memo inline, so only a miss makes a call.  ``max_abs_coeff`` is read
    from the memo: the largest modulus of any memoized coefficient, a growth
    diagnostic for conditioning reports.
    """

    def __init__(self, V: Potential, N: int):
        if not V.reducible:
            raise ValueError(
                "moment reduction needs deg R > deg D; the substitution step does"
                " not lower weight otherwise"
            )
        self.V = V
        self.N = N
        self.d = V.d
        self._memo: dict[Partition, Form] = {}

    def reduce(self, mu: Sequence[int]) -> dict[Partition, CRational]:
        den, coeffs = self._reduce(Partition.of(mu))
        return {b: CRational.from_ints(re, im, den) for b, (re, im) in coeffs.items()}

    @property
    def max_abs_coeff(self) -> float:
        return max((abs(complex(re / den, im / den)) for den, coeffs in self._memo.values()
                    for re, im in coeffs.values()), default=0.0)

    def _reduce(self, mu: Partition) -> Form:
        get = self._memo.get
        form = get(mu)
        if form is not None:
            return form
        # below, ``get(nu) or`` is safe: a Form is a non-empty tuple
        if len(mu) > self.N:
            poly = reduce_length(PowerSumPoly({mu: ONE}, self.N), self.N)
            form = _combine([(c, get(nu) or self._reduce(nu)) for nu, c in poly.terms.items()])
        elif not mu or mu[0] < self.d:  # mu is sorted: no part of it is d or more
            form = (1, {mu: (1, 0)})
        else:
            qmu = (mu[0] - self.d, *mu[1:])  # mu is sorted: eliminate its largest part
            if self.V.kind == "polynomial":
                Q = q_polynomial(qmu, self.V, self.N)
            else:
                Q = q_rational(qmu, self.V, self.N)
            lead = Q.terms.get(mu)  # mu is the sorted Partition: Q's top term
            if lead is None or not lead:
                raise RuntimeError(f"expected top term p_{tuple(mu)} in Q_{qmu}")
            form = _combine([(-c / lead, get(nu) or self._reduce(nu))
                             for nu, c in Q.terms.items() if nu != mu])
        self._memo[mu] = form
        return form


def solve_moments(V: Potential, N: int, basis_values: Mapping[Sequence[int], object],
                  targets: Sequence[Sequence[int]]):
    """Evaluate E(p_mu) for each target from the values of a loop-equation
    solution on the free basis.

    ``basis_values`` must be keyed by exactly the partitions with at most N
    parts and parts <= V.d - 1; the empty partition carries E(1) = Z.
    Returns (values, reducer); values map each target partition to a number of
    the same flavour as the basis values (exact if those are CRational,
    complex otherwise).  The reducer carries the coefficient-growth diagnostic.

    Complex values are summed from the reducer's integer forms, with no
    ``CRational`` built: each coefficient is ``complex(re / den) + 1j *
    complex(im / den)``, the sum ``CRational.to_complex`` takes (the pair
    ``complex(re / den, im / den)`` can differ from it in the sign of a zero,
    where a quotient underflows to -0.0).  Int true division is correctly
    rounded, so an entry not in lowest terms gives the bits of its reduced
    ``CRational``.
    """
    basis_values = {Partition(tuple(mu)): v for mu, v in basis_values.items()}
    box = set(partitions_in_box(N, V.d - 1))
    if basis_values.keys() != box:
        missing, extra = sorted(box - basis_values.keys()), sorted(basis_values.keys() - box)
        raise ValueError(f"basis keys must be exactly the box partitions; {len(missing)} missing"
                         f" (first {missing[:5]}), {len(extra)} extra (first {extra[:5]})")
    red = LoopReducer(V, N)
    exact = all(isinstance(v, CRational) for v in basis_values.values())
    if not exact:
        values = {b: complex(v) for b, v in basis_values.items()}
    out = {}
    for target in targets:
        mu = Partition.of(target)
        if exact:
            total = CRational(0)
            for b, w in red.reduce(mu).items():
                total = total + w * basis_values[b]
        else:
            den, coeffs = red._reduce(mu)
            total = 0j
            for b, (re, im) in coeffs.items():
                total += (complex(re / den) + 1j * complex(im / den)) * values[b]
        out[mu] = total
    return out, red


def loop_tuples(weight_max: int) -> list[tuple[int, ...]]:
    """All Q_mu index tuples (mu_1 >= 0, later parts >= 1 sorted) up to weight_max."""
    out: list[tuple[int, ...]] = []
    for m0 in range(weight_max + 1):
        for w in range(weight_max - m0 + 1):
            for rest in partitions_of_weight(w):
                out.append((m0,) + tuple(rest))
    return out


@dataclass
class ResidualReport:
    entries: list  # (mu tuple, |E(Q_mu)|, term scale, relative residual)
    max_relative: float
    weight_max: int
    # the verdict, not part of the JSON: (mu tuple, |E(Q_mu)|, error budget)
    # of every equation whose residual exceeds its budget
    outside: list

    def to_json(self) -> dict:
        return {
            "weight_max": self.weight_max,
            "max_relative": self.max_relative,
            "entries": [
                {"mu": list(mu), "abs": a, "scale": s, "rel": r}
                for mu, a, s, r in self.entries
            ],
        }


def residuals(
    oracle: Mapping[Partition, tuple[complex, float]],
    V: Potential,
    N: int,
    weight_max: int,
) -> ResidualReport:
    """Evaluate |oracle(Q_mu)| / sum of |individual terms| over all tuples.

    ``oracle`` maps each partition to a (value, error bound) pair, as
    ``oracle_from_quadrature`` returns it; an exact value carries bound 0.
    A solution of loop equations makes every entry vanish up to the oracle's
    own error.  Equations whose every term is zero within the error budget
    count as vacuously satisfied (otherwise the ratio would be noise over
    noise).  Raises with the list of missing partitions if the oracle is not
    defined on everything needed.

    The verdict ``outside`` lists each equation with ``|E(Q_mu)|`` above its
    error budget ``sum |c| e_nu + gamma_{n+2} scale``: the oracle's bars
    carried through the n terms, plus the rounding of their complex sum.
    """
    table = {(k if isinstance(k, Partition) else Partition(tuple(k))): (complex(v), float(e))
             for k, (v, e) in oracle.items()}
    tuples = loop_tuples(weight_max)
    needed: set[Partition] = set()
    qs = {}
    for mu in tuples:
        Q = q_polynomial(mu, V, N) if V.kind == "polynomial" else q_rational(mu, V, N)
        qs[mu] = Q
        needed.update(Q.terms)
    missing = sorted(nu for nu in needed if nu not in table)
    if missing:
        raise KeyError(f"oracle missing values for partitions: {[tuple(m) for m in missing]}")
    entries = []
    outside = []
    max_rel = 0.0
    for mu in tuples:
        total = 0j
        scale = 0.0
        budget = 0.0
        for nu, c in qs[mu].terms.items():
            cval = c.to_complex()
            value, err = table[nu]
            term = cval * value
            total += term
            scale += abs(term)
            budget += abs(cval) * err
        # noise equations (scale <= 10 budget, scale == 0 among them) read 0
        rel = abs(total) / scale if scale > 10.0 * budget else 0.0
        entries.append((mu, abs(total), scale, rel))
        max_rel = max(max_rel, rel)
        bound = budget + gamma(len(qs[mu].terms) + 2) * scale
        if not abs(total) <= bound:  # a NaN residual is outside too
            outside.append((mu, abs(total), bound))
    return ResidualReport(entries=entries, max_relative=max_rel, weight_max=weight_max,
                          outside=outside)
