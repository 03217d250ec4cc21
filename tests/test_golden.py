"""Byte-for-byte CLI goldens: fixed inputs must keep producing identical JSON.

Each case runs ``loopeq.cli.main`` with ``--out`` and compares the written
bytes with ``tests/golden/<case>.json``.  To re-record after an intended output
change, run ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import json
import sys
from pathlib import Path

import pytest

from loopeq import partitions_in_box, partitions_of_weight
from loopeq.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _c(*xs):
    return [[str(x), "0"] for x in xs]


POTENTIALS = {
    "cubic": {"kind": "polynomial", "t": _c(1, 0, 1)},  # V' = 1 + x^2
    "quartic": {"kind": "polynomial", "t": _c(0, 1, 0, 1)},  # V' = x + x^3
    "rational": {"kind": "rational", "R": _c(2, 0, 0, 1), "D": _c(0, 1)},  # V' = x^2 + 2/x
    "deg7": {"kind": "polynomial", "t": _c(0, 1, 0, 0, 0, 0, 0, 1)},  # V' = x + x^7
    "haar": {"kind": "rational", "R": _c(2), "D": _c(0, 1)},  # V' = 2/x
    "cubic_d1": {"kind": "rational", "R": _c(1, 0, 1), "D": _c(1)},  # cubic written as R/1
    # V' = ((1 + i/2) x^3 + i x + 2) / x: complex leading coefficient, q_rational path
    "rational_complex": {"kind": "rational", "R": [["2", "0"], ["0", "1"], ["0", "0"], ["1", "1/2"]],
                         "D": _c(0, 1)},
}


def _basis(N, d):
    """Free-basis values for ``solve``: distinct complex numbers on the box partitions."""
    box = partitions_in_box(N, d - 1)
    return {"d": d, "values": [{"mu": list(mu), "value": [1.0 + 0.5 * k, 0.25 * k - 0.75]}
                               for k, mu in enumerate(box)]}


def _targets(weight_max):
    return ";".join(",".join(map(str, mu)) for w in range(1, weight_max + 1)
                    for mu in partitions_of_weight(w))


CLASS = {"N": 2, "arcs": "basis", "terms": [{"n": [1, 1], "c": [1, 0]}, {"n": [2, 0], "c": [0.5, -1]}]}
# one circle times one elbow of x^2 + 2/x: its weight-6 residuals include noise equations
RATIONAL_CLASS = {"N": 2, "arcs": "basis", "terms": [{"n": [1, 1, 0], "c": [1.0, 0.0]}]}

# case -> (command, potential or None, extra arguments)
CASES = {
    **{f"gen_{name}": ("gen", name, ["--mu", "3,1", "--N", "3"])
       for name in ("cubic", "rational", "haar", "cubic_d1")},
    "contours_cubic": ("contours", "cubic", []),
    "contours_rational": ("contours", "rational", []),
    "expect_cubic": ("expect", "cubic", ["--class", "{class}", "--poly", "2,1"]),
    "residuals_quartic": ("residuals", "quartic", ["--gamma", "real", "--N", "2", "--weight-max", "4"]),
    "discrim_cubic": ("discrim", "cubic", ["--N", "1", "--r", "60"]),
    # circles, arc elbows and rays in one moment matrix
    "iso_rational": ("iso", "rational", ["--N", "2"]),
    # the N-body assembly at N = 3
    "iso_cubic_N3": ("iso", "cubic", ["--N", "3"]),
    # the costliest N = 2 moment matrix, on a sparse quotient (2 of 8 terms nonzero)
    "iso_deg7_N2": ("iso", "deg7", ["--N", "2"]),
    # equations whose terms cancel to rounding: every last bit of the N = 2 sums shows
    "residuals_rational_w6": ("residuals", "rational",
                              ["--class", "{class_rational}", "--weight-max", "6"]),
    # the Wick sums behind the map series (no potential file)
    "maps_mixed": ("maps", None, ["--t3", "1", "--t4", "1", "--marked", "2", "--order", "6"]),
    "maps_quartic": ("maps", None, ["--t4", "1", "--marked", "4", "--order", "6"]),
    # the exact reducer: forms, float summation order and coefficient_growth
    "solve_quartic_N3": ("solve", "quartic", ["--N", "3", "--basis", "{basis}", "--targets", _targets(10)]),
    # imaginary numerators, a complex leading coefficient and q_rational
    "solve_rational_complex_N2": ("solve", "rational_complex",
                                  ["--N", "2", "--basis", "{basis}", "--targets", _targets(10)]),
}
# case -> free-basis file behind "{basis}"
BASES = {"solve_quartic_N3": _basis(3, 3), "solve_rational_complex_N2": _basis(2, 3)}


def run_case(case: str, workdir: Path) -> bytes:
    command, name, extra = CASES[case]
    cls = workdir / "class.json"
    cls.write_text(json.dumps(CLASS))
    cls_rational = workdir / "class_rational.json"
    cls_rational.write_text(json.dumps(RATIONAL_CLASS))
    basis = workdir / "basis.json"
    if case in BASES:
        basis.write_text(json.dumps(BASES[case]))
    out = workdir / f"{case}.out"
    args = [a.replace("{class}", str(cls)).replace("{class_rational}", str(cls_rational))
            .replace("{basis}", str(basis)) for a in extra]
    if name is not None:
        pot = workdir / f"{name}.json"
        pot.write_text(json.dumps(POTENTIALS[name]))
        args = ["--potential", str(pot), *args]
    code = main([command, *args, "--out", str(out)])
    assert code == 0, f"{case} exited {code}"
    return out.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    assert run_case(case, tmp_path) == (GOLDEN / f"{case}.json").read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.json").write_bytes(run_case(case, Path(tmp)))
            print(f"recorded {case}", file=sys.stderr)
