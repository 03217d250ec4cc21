"""Reduction of arbitrary moments E(p_mu) to the finite basis indexed by
partitions fitting in a (d-1) x N box, and loop-equation residual reports.

Any functional annihilating every Q_mu is determined by its values on
{p_nu : nu in the box}; the reduction solves E(Q_{(mu_1 - d, rest)}) = 0 for
the top term (dividing by the nonzero leading potential coefficient) and
recurses, each step strictly lowering total weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Mapping, Sequence

from .exact import CRational
from .loopgen import Potential, q_polynomial, q_rational
from .symfunc import (
    Partition,
    PowerSumPoly,
    partitions_in_box,
    partitions_of_weight,
    reduce_length,
)


def hn_dimension(N: int, d: int) -> int:
    """Dimension of the admissible homology space: binom(N+d-1, N)."""
    if N < 1 or d < 1:
        raise ValueError("N and d must be positive")
    return comb(N + d - 1, N)


@dataclass
class MomentFunctional:
    """Values of a loop-equation solution on the free basis.

    ``basis_values`` must be keyed by exactly the partitions with at most N
    parts and parts <= d-1; the empty partition carries E(1) = Z.
    """

    N: int
    d: int
    basis_values: dict[Partition, object]

    def __post_init__(self):
        expected = set(partitions_in_box(self.N, self.d - 1))
        got = set(Partition(tuple(mu)) for mu in self.basis_values)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ValueError(
                f"basis keys must be exactly the box partitions; missing={missing} extra={extra}"
            )
        self.basis_values = {Partition(tuple(mu)): v for mu, v in self.basis_values.items()}


class LoopReducer:
    """Rewrites E(p_mu) as an exact linear form over the box basis.

    ``strategy`` picks which over-sized part to eliminate: 'largest' (the
    paper-style choice, ties leftmost) or 'smallest' (used to check that the
    answer is order-independent).
    """

    def __init__(self, V: Potential, N: int, strategy: str = "largest"):
        if strategy not in ("largest", "smallest"):
            raise ValueError("strategy must be 'largest' or 'smallest'")
        if not V.reducible:
            raise ValueError(
                "moment reduction needs deg R > deg D; the substitution step does"
                " not lower weight otherwise"
            )
        self.V = V
        self.N = N
        self.d = V.d
        self.strategy = strategy
        self._memo: dict[Partition, dict[Partition, CRational]] = {}
        self.max_abs_coeff = 0.0  # growth diagnostic for conditioning reports

    def reduce(self, mu: Sequence[int]) -> dict[Partition, CRational]:
        return dict(self._reduce(Partition.of(mu)))

    def _track(self, form: Mapping[Partition, CRational]):
        for c in form.values():
            m = abs(c.to_complex())
            if m > self.max_abs_coeff:
                self.max_abs_coeff = m

    def _reduce(self, mu: Partition) -> dict[Partition, CRational]:
        if mu in self._memo:
            return self._memo[mu]
        if len(mu) > self.N:
            poly = reduce_length(PowerSumPoly.monomial(mu, self.N), self.N)
            form = self._reduce_poly(poly)
        elif all(p <= self.d - 1 for p in mu):
            form = {mu: CRational(1)}
        else:
            over = [i for i, p in enumerate(mu) if p >= self.d]
            idx = over[0] if self.strategy == "largest" else over[-1]
            rest = mu[:idx] + mu[idx + 1:]
            qmu = (mu[idx] - self.d,) + tuple(rest)
            if self.V.kind == "polynomial":
                Q = q_polynomial(qmu, self.V, self.N)
            else:
                Q = q_rational(qmu, self.V, self.N)
            top = Partition.of(mu)
            lead = Q.terms.get(top)
            if lead is None or not lead:
                raise RuntimeError(f"expected top term p_{tuple(top)} in Q_{qmu}")
            form: dict[Partition, CRational] = {}
            for nu, c in Q.terms.items():
                if nu == top:
                    continue
                sub = self._reduce(nu)
                scale = -c / lead
                for b, w in sub.items():
                    form[b] = form.get(b, CRational(0)) + scale * w
            form = {b: w for b, w in form.items() if w}
        self._memo[mu] = form
        self._track(form)
        return form

    def _reduce_poly(self, poly: PowerSumPoly) -> dict[Partition, CRational]:
        form: dict[Partition, CRational] = {}
        for nu, c in poly.terms.items():
            c = CRational.coerce(c)
            sub = self._reduce(nu)
            for b, w in sub.items():
                form[b] = form.get(b, CRational(0)) + c * w
        return {b: w for b, w in form.items() if w}


def solve_moments(
    F: MomentFunctional,
    V: Potential,
    targets: Sequence[Sequence[int]],
    strategy: str = "largest",
):
    """Evaluate E(p_mu) for each target from the basis values.

    Returns (values, reducer); values map each target partition to a number of
    the same flavour as the basis values (exact if those are CRational,
    complex otherwise).  The reducer carries the coefficient-growth diagnostic.
    """
    if V.d != F.d:
        raise ValueError(f"potential has d={V.d} but functional expects d={F.d}")
    red = LoopReducer(V, F.N, strategy=strategy)
    exact = all(isinstance(v, CRational) for v in F.basis_values.values())
    out = {}
    for target in targets:
        mu = Partition.of(target)
        form = red.reduce(mu)
        if exact:
            total = CRational(0)
            for b, w in form.items():
                total = total + w * F.basis_values[b]
        else:
            total = 0j
            for b, w in form.items():
                total += w.to_complex() * complex(F.basis_values[b])
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
    oracle: Mapping[Partition, complex],
    V: Potential,
    N: int,
    weight_max: int,
    errors: Mapping[Partition, float] | None = None,
) -> ResidualReport:
    """Evaluate |oracle(Q_mu)| / sum of |individual terms| over all tuples.

    A solution of loop equations makes every entry vanish up to the oracle's
    own error.  When per-value error estimates are supplied, equations whose
    every term is zero within that budget count as vacuously satisfied
    (otherwise the ratio would be noise over noise).  Raises with the list of
    missing partitions if the oracle is not defined on everything needed.
    """
    table = {Partition(tuple(k)): complex(v) for k, v in oracle.items()}
    errs = {Partition(tuple(k)): float(v) for k, v in (errors or {}).items()}
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
    max_rel = 0.0
    for mu in tuples:
        total = 0j
        scale = 0.0
        budget = 0.0
        for nu, c in qs[mu].terms.items():
            cval = c.to_complex()
            term = cval * table[nu]
            total += term
            scale += abs(term)
            budget += abs(cval) * errs.get(nu, 0.0)
        if scale <= 10.0 * budget:
            rel = 0.0
        else:
            rel = abs(total) / scale if scale > 0 else 0.0
        entries.append((mu, abs(total), scale, rel))
        max_rel = max(max_rel, rel)
    return ResidualReport(entries=entries, max_relative=max_rel, weight_max=weight_max)
