"""The public surface: what ``loopeq`` exports, and the refusals its functions
give on inputs they do not accept."""

from types import ModuleType

import pytest

import loopeq
from loopeq import (
    CRational,
    HomologyClass,
    MomentTable,
    MPoly,
    Partition,
    Potential,
    PowerSumPoly,
    eval_powersum,
    expectation,
    gaussian_trace_moment,
    hn_dimension,
    oracle_from_quadrature,
    partitions_in_box,
    q_rational,
    real_axis_contour,
    real_power_class,
)


def test_all_lists_names_not_modules():
    assert loopeq.__all__ and all(hasattr(loopeq, name) for name in loopeq.__all__)
    assert not [name for name in loopeq.__all__ if isinstance(getattr(loopeq, name), ModuleType)]


_N = MPoly.gen("N", ("N",))
_CUBIC = Potential.polynomial([1, 0, 1])  # V' = 1 + x^2
_GAUSS = Potential.polynomial([0, 1])  # V = x^2/2

REFUSALS = [
    pytest.param(lambda: CRational.coerce(1.5), TypeError, "cannot coerce float to CRational",
                 id="coerce-float"),
    pytest.param(lambda: CRational(2) ** 0.5, TypeError, "CRational powers must be integers",
                 id="crational-float-power"),
    pytest.param(lambda: _N ** -1, ValueError,
                 "negative MPoly power; multiply by the inverse generator instead",
                 id="mpoly-negative-power"),
    pytest.param(lambda: MPoly.gen("N", ("N", "t")).eval({"N": 1}), ValueError,
                 "no value for generator(s) ['t']", id="mpoly-eval-missing-generator"),
    pytest.param(lambda: HomologyClass.make(2, [real_axis_contour()], {(1,): 1.0}), ValueError,
                 "bad composition (1,) for N=2, 1 arcs", id="homology-bad-composition"),
    pytest.param(lambda: gaussian_trace_moment((0,)), ValueError, "trace powers must be positive",
                 id="wick-zero-power"),
    pytest.param(lambda: partitions_in_box(0, 1), ValueError, "N must be positive",
                 id="box-zero-N"),
    pytest.param(lambda: partitions_in_box(1, -1), ValueError, "maxpart must be non-negative",
                 id="box-negative-maxpart"),
    pytest.param(lambda: Partition((1.5,)), ValueError, "parts must be integers: (1.5,)",
                 id="partition-float-part"),
    pytest.param(lambda: q_rational((1.5,), _CUBIC, 2), ValueError,
                 "mu must have integer entries: (1.5,)", id="q-float-entry"),
    pytest.param(lambda: hn_dimension(0, 1), ValueError, "N and d must be positive",
                 id="hn-zero-N"),
    pytest.param(lambda: PowerSumPoly({Partition((1,)): _N}, 2).to_json(), TypeError,
                 "only CRational coefficients serialize to JSON", id="powersum-json-mpoly"),
    pytest.param(lambda: eval_powersum(PowerSumPoly.monomial((1,), _N), [CRational(1)]), TypeError,
                 "evaluation needs a concrete variable count", id="powersum-eval-symbolic-nvars"),
    pytest.param(lambda: expectation(real_power_class(2), PowerSumPoly.monomial((1,), 3),
                                     MomentTable([real_axis_contour()], _GAUSS)),
                 ValueError, "polynomial is for 3 variables, class has N=2",
                 id="expectation-nvars-mismatch"),
    pytest.param(lambda: oracle_from_quadrature(real_power_class(2), [(1, 2)],
                                                MomentTable([real_axis_contour()], _GAUSS)),
                 ValueError, "parts not sorted non-increasing: (1, 2)", id="oracle-unsorted-tuple"),
]


@pytest.mark.parametrize("call, exc, message", REFUSALS)
def test_library_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


def test_oracle_takes_plain_tuples():
    G, table = real_power_class(2), MomentTable([real_axis_contour()], _GAUSS)
    parts = [(), (1,), (2,), (1, 1), (2, 1)]
    plain = oracle_from_quadrature(G, parts, table)
    checked = oracle_from_quadrature(G, [Partition(nu) for nu in parts], table)
    assert list(plain) == list(checked) == parts
    assert all(type(nu) is Partition for nu in plain)
    assert plain == checked
