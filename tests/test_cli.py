import json
import math
import os
from pathlib import Path

import pytest

from loopeq.cli import main

GAUSS = {"kind": "polynomial", "t": [["0", "0"], ["1", "0"]]}
CUBIC = {"kind": "polynomial", "t": [["1", "0"], ["0", "0"], ["1", "0"]]}
HAAR2 = {"kind": "rational", "R": [["2", "0"]], "D": [["0", "0"], ["1", "0"]]}


@pytest.fixture
def pot(tmp_path):
    def write(name, data):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)

    return write


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_gen_gaussian(pot, capsys):
    path = pot("gauss.json", GAUSS)
    code, data = run(["gen", "--potential", path, "--mu", "0", "--N", "2"], capsys)
    assert code == 0
    assert data["Q"] == [{"mu": [1], "re": "1", "im": "0"}]
    code, data = run(["gen", "--potential", path, "--mu", "1", "--N", "2"], capsys)
    assert code == 0
    assert {"mu": [], "re": "-4", "im": "0"} in data["Q"]


def test_gen_bad_potential_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "polynomial"}))
    code = main(["gen", "--potential", str(bad), "--mu", "0", "--N", "2"])
    assert code == 2
    assert "t" in capsys.readouterr().err


def test_moment_options_only_on_quadrature_commands(pot, tmp_path, capsys):
    path = pot("gauss.json", GAUSS)
    code = main(["gen", "--potential", path, "--mu", "0", "--N", "2", "--cache", str(tmp_path)])
    assert code == 2
    assert "--cache" in capsys.readouterr().err


def test_gen_missing_file(capsys):
    code = main(["gen", "--potential", "/nonexistent.json", "--mu", "0", "--N", "1"])
    assert code == 2


def test_expect_and_cache_determinism(pot, tmp_path, capsys):
    path = pot("gauss.json", GAUSS)
    cls = pot("class.json", {"N": 2, "arcs": "real", "terms": [{"n": [2], "c": [1, 0]}]})
    cache = str(tmp_path / "cache")
    out1 = str(tmp_path / "o1.json")
    out2 = str(tmp_path / "o2.json")
    code = main(["expect", "--potential", path, "--class", cls, "--poly", "2",
                 "--tol", "1e-10", "--cache", cache, "--out", out1])
    assert code == 0
    code = main(["expect", "--potential", path, "--class", cls, "--poly", "2",
                 "--tol", "1e-10", "--cache", cache, "--out", out2])
    assert code == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    data = json.loads(Path(out1).read_text())
    assert abs(data["re"] - 16 * math.pi) < 1e-8
    assert os.path.exists(os.path.join(cache, "moments.json"))


def test_interrupted_cache_write_keeps_previous_cache(pot, tmp_path, monkeypatch, capsys):
    path = pot("gauss.json", GAUSS)
    cls = pot("class.json", {"N": 2, "arcs": "real", "terms": [{"n": [2], "c": [1, 0]}]})
    cache = tmp_path / "cache"
    args = ["expect", "--potential", path, "--class", cls, "--tol", "1e-10", "--cache", str(cache)]
    assert main(args + ["--poly", "2", "--out", str(tmp_path / "o1.json")]) == 0
    before = (cache / "moments.json").read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:20])
        raise OSError("No space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    assert main(args + ["--poly", "6,4", "--out", str(tmp_path / "o2.json")]) == 2
    monkeypatch.undo()
    assert (cache / "moments.json").read_bytes() == before
    assert os.listdir(cache) == ["moments.json"]
    assert main(args + ["--poly", "2", "--out", str(tmp_path / "o3.json")]) == 0
    assert (tmp_path / "o3.json").read_bytes() == (tmp_path / "o1.json").read_bytes()


def test_double_overflow_is_usage_error(pot, capsys):
    # V' = x + 10^-200 x^3: reducing p_8 divides by the tiny leading coefficient,
    # and the growth diagnostic overflows a double
    path = pot("tiny.json", {"kind": "polynomial",
                             "t": [["0", "0"], ["1", "0"], ["0", "0"], ["1e-200", "0"]]})
    basis = pot("basis.json", {"N": 1, "d": 3, "values": [
        {"mu": [], "value": [1.0, 0.0]}, {"mu": [1], "value": [0.0, 0.0]},
        {"mu": [2], "value": [1.0, 0.0]}]})
    code = main(["solve", "--potential", path, "--N", "1", "--basis", basis, "--targets", "8"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


GOOD_BASIS = {"N": 1, "d": 2, "values": [{"mu": [], "value": [1.0, 0.0]},
                                         {"mu": [1], "value": [0.0, 0.0]}]}


@pytest.mark.parametrize("basis", [
    {**GOOD_BASIS, "values": [{"mu": [], "value": 3}, {"mu": [1], "value": [0.0, 0.0]}]},
    [GOOD_BASIS],
    {**GOOD_BASIS, "values": [{"mu": [], "value": [None, 0]}, {"mu": [1], "value": [0.0, 0.0]}]},
    {**GOOD_BASIS, "values": [{"mu": [], "value": [1.0, 0.0]}, {"mu": [1, "a"], "value": [0.0, 0.0]}]},
    {**GOOD_BASIS, "values": [{"mu": [], "value": ["nan", 0.0]}, {"mu": [1], "value": [0.0, 0.0]}]},
    {**GOOD_BASIS, "values": GOOD_BASIS["values"] + [{"mu": [], "value": [5.0, 0.0]}]},
    {**GOOD_BASIS, "d": 2.7},
], ids=["value-scalar", "top-level-list", "value-null", "mu-not-integer", "value-nan", "mu-twice",
        "d-float"])
def test_solve_malformed_basis_is_usage_error(pot, capsys, basis):
    # a repeated mu silently replaced the earlier value, and "d": 2.7 read as 2
    path = pot("cubic.json", CUBIC)
    code = main(["solve", "--potential", path, "--N", "1", "--basis", pot("basis.json", basis),
                 "--targets", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad basis file") and "Traceback" not in err


def test_iso_pass_and_shape(pot, capsys):
    path = pot("cubic.json", CUBIC)
    code, data = run(["iso", "--potential", path, "--N", "2"], capsys)
    assert code == 0
    assert len(data["rows"]) == 3
    assert data["min_scaled_singular"] > 1e-8


def test_iso_fails_when_threshold_unreachable(pot, capsys):
    path = pot("cubic.json", CUBIC)
    code, _ = run(["iso", "--potential", path, "--N", "1", "--min-singular", "10.0"], capsys)
    assert code == 1


@pytest.mark.parametrize("command,flag,value", [
    ("iso", "--tol", "inf"),
    ("iso", "--tol", "nan"),
    ("iso", "--tol", "0"),
    ("iso", "--tol", "-1"),
    ("iso", "--tol", "1"),
    ("expect", "--tol", "inf"),
    ("residuals", "--tol", "0"),
    ("discrim", "--tol", "2"),
    ("iso", "--min-singular", "nan"),
    ("iso", "--min-singular", "inf"),
    ("residuals", "--fail-above", "nan"),
    ("residuals", "--fail-above", "inf"),
    ("discrim", "--delta-tol", "nan"),
])
def test_bad_tolerance_or_threshold_is_usage_error(pot, capsys, command, flag, value):
    # --tol inf reported a witness with error bars larger than its entries as
    # verified, and a NaN threshold failed every check with exit 1
    path = pot("cubic.json", CUBIC)
    cls = pot("class.json", {"N": 2, "arcs": "basis", "terms": [{"n": [2, 0], "c": [1, 0]}]})
    needs = {"iso": ["--N", "2"], "expect": ["--class", cls], "residuals": ["--class", cls],
             "discrim": ["--r", "60"]}
    code = main([command, "--potential", path, *needs[command], flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err


def test_residuals_gamma_real(pot, capsys):
    path = pot("gauss.json", GAUSS)
    code, data = run(
        ["residuals", "--potential", path, "--N", "2", "--weight-max", "4",
         "--gamma", "real", "--tol", "1e-12"],
        capsys,
    )
    assert code == 0
    assert data["max_relative"] < 1e-8


def test_residuals_circle_haar(pot, capsys):
    path = pot("haar.json", HAAR2)
    code, data = run(
        ["residuals", "--potential", path, "--N", "2", "--weight-max", "4",
         "--gamma", "circle", "--tol", "1e-12", "--fail-above", "1e-10"],
        capsys,
    )
    assert code == 0


@pytest.mark.parametrize("n", ["0", "-1"])
def test_gen_without_variables_is_usage_error(pot, capsys, n):
    # Q_mu of zero or a negative number of eigenvalues means nothing
    path = pot("gauss.json", GAUSS)
    code = main(["gen", "--potential", path, "--mu", "1", "--N", n])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--N" in captured.err


@pytest.mark.parametrize("weight", ["-1", "-3"])
def test_residuals_negative_weight_is_usage_error(pot, capsys, weight):
    # no equation is checked, so no "entries": [] report may pass as verified
    path = pot("gauss.json", GAUSS)
    code = main(["residuals", "--potential", path, "--N", "2", "--weight-max", weight, "--gamma", "real"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--weight-max" in captured.err


@pytest.mark.parametrize("command", ["expect", "residuals"])
@pytest.mark.parametrize("N,n", [(0, [0]), (1.5, [1]), (True, [1]), ("1", [1]), (1, [1.0]), (1, [True])])
def test_class_file_bad_counts_are_usage_errors(pot, capsys, command, N, n):
    # N and each composition entry must be JSON integers; int() used to read
    # 1.5, true and "1" as 1, and N = 0 gave a vacuous expectation of 1
    path = pot("gauss.json", GAUSS)
    cls = pot("class.json", {"N": N, "arcs": "real", "terms": [{"n": n, "c": [1, 0]}]})
    code = main([command, "--potential", path, "--class", cls])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "must be an integer" in captured.err


@pytest.mark.parametrize("body", [
    {"N": 1, "arcs": "real", "terms": [{"n": [1], "c": ["nan", 0]}]},
    {"N": 1, "arcs": "real", "terms": [{"n": [1], "c": [1, "inf"]}]},
    {"N": 1, "arcs": "real", "terms": [{"n": [1], "c": [1, 0]}, {"n": [1], "c": [1, 0]}]},
    {"N": 1, "arcs": "real", "terms": [{"n": [1], "c": 5}]},
    {"N": 1, "arcs": "real", "terms": [{"n": 1, "c": [1, 0]}]},
    {"N": 1, "arcs": "real", "terms": 5},
    7,
])
def test_class_file_bad_terms_are_usage_errors(pot, capsys, body):
    # a NaN coefficient printed NaN with exit 0, a repeated composition
    # silently replaced the earlier one, and wrong shapes raised a TypeError
    path = pot("gauss.json", GAUSS)
    cls = pot("class.json", body)
    code = main(["expect", "--potential", path, "--class", cls])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "class file" in captured.err


BAD_PAIRS = [["2", True], ["2", 0], [1, True], [None, 0], [1, None], [1], [1, 0, 0], "12",
             {"re": 1, "im": 0}, [[1], 0], [10 ** 400, 0]]
BAD_PAIR_IDS = ["str-bool", "str", "bool", "null-re", "null-im", "one-entry", "three-entries",
                "string-of-two", "object", "nested-list", "int-too-large"]


@pytest.mark.parametrize("c", BAD_PAIRS, ids=BAD_PAIR_IDS)
def test_class_coefficient_must_be_two_numbers(pot, capsys, c):
    # float() read "2" as 2 and true as 1, so ["2", true] printed 2+1i times Z with exit 0
    path = pot("gauss.json", GAUSS)
    cls = pot("class.json", {"N": 1, "arcs": "real", "terms": [{"n": [1], "c": c}]})
    code = main(["expect", "--potential", path, "--class", cls])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: bad class file") and "Traceback" not in captured.err


@pytest.mark.parametrize("value", BAD_PAIRS, ids=BAD_PAIR_IDS)
def test_basis_value_must_be_two_numbers(pot, capsys, value):
    path = pot("cubic.json", CUBIC)
    basis = {**GOOD_BASIS, "values": [{"mu": [], "value": value}, {"mu": [1], "value": [0.0, 0.0]}]}
    code = main(["solve", "--potential", path, "--N", "1", "--basis", pot("basis.json", basis),
                 "--targets", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: bad basis file") and "Traceback" not in captured.err


def test_integer_and_float_coefficients_read_alike(pot, tmp_path, capsys):
    path = pot("gauss.json", GAUSS)
    outs = []
    for c in ([2, -1], [2.0, -1.0]):
        cls = pot("class.json", {"N": 2, "arcs": "real", "terms": [{"n": [2], "c": c}]})
        out = tmp_path / f"{type(c[0]).__name__}.json"
        assert main(["expect", "--potential", path, "--class", cls, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


POLE = {"kind": "rational", "R": [["1", "0"]], "D": [["-1", "0"], ["1", "0"]]}  # V' = 1/(x - 1)


@pytest.mark.parametrize("arcs", ["circle", "real"])
def test_contour_through_a_pole_is_usage_error(pot, capsys, arcs):
    # e^{-V} = 1/(x - 1) is infinite at x = 1, on the unit circle and on the
    # real axis: a ZeroDivisionError traceback used to exit 1, "verification failure"
    path = pot("pole.json", POLE)
    cls = pot("class.json", {"N": 1, "arcs": arcs, "terms": [{"n": [1], "c": [1, 0]}]})
    code = main(["expect", "--potential", path, "--class", cls])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("radius", [0, -1.0, True, "2", [1], math.nan, math.inf])
def test_class_file_radius_must_be_a_positive_number(pot, capsys, radius):
    # radius 0 integrated over a point, true read as 1 and "2" as 2.0
    path = pot("pole.json", POLE)
    cls = pot("class.json", {"N": 1, "arcs": "circle", "radius": radius,
                             "terms": [{"n": [1], "c": [1, 0]}]})
    code = main(["expect", "--potential", path, "--class", cls])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: bad class file") and "'radius'" in captured.err


def test_residuals_weight_zero_checks_q0(pot, capsys):
    # weight 0 is Q_(0), E[Tr V'(M)] = 0: one real equation
    path = pot("gauss.json", GAUSS)
    code, data = run(["residuals", "--potential", path, "--N", "2", "--weight-max", "0",
                      "--gamma", "real"], capsys)
    assert code == 0
    assert [e["mu"] for e in data["entries"]] == [[0]]
    assert data["max_relative"] < 1e-8


def test_solve_roundtrip(pot, tmp_path, capsys):
    path = pot("gauss.json", GAUSS)
    basis = pot("basis.json", {"N": 2, "d": 1, "values": [{"mu": [], "value": [1.0, 0.0]}]})
    code, data = run(
        ["solve", "--potential", path, "--N", "2", "--basis", basis, "--targets", "4;2;1"],
        capsys,
    )
    assert code == 0
    got = {tuple(e["mu"]): e["value"][0] for e in data["values"]}
    assert got[(4,)] == pytest.approx(18.0)
    assert got[(2,)] == pytest.approx(4.0)
    assert got[(1,)] == pytest.approx(0.0)


def test_contours_polylines(pot, tmp_path, capsys):
    path = pot("cubic.json", CUBIC)
    out = str(tmp_path / "arcs.json")
    code = main(["contours", "--potential", path, "--out", out])
    assert code == 0
    data = json.loads(Path(out).read_text())
    assert len(data["arcs"]) == 2
    assert all(a["admissible"] for a in data["arcs"])
    assert len(data["sectors"]) == 3
    pts = data["arcs"][0]["polyline"]
    assert all(len(p) == 2 for p in pts)


def test_maps_series(capsys):
    code, data = run(["maps", "--t3", "1", "--marked", "3", "--order", "3"], capsys)
    assert code == 0
    assert "coeffs" in data


def test_tutte_zero_and_exit_codes(capsys):
    code, data = run(["tutte", "--t3", "1", "--mu", "1", "--order", "4"], capsys)
    assert code == 0
    assert data["identically_zero"] is True


@pytest.mark.parametrize(
    "args",
    [
        ["tutte", "--t3", "1/0", "--mu", "2", "--order", "3"],
        ["tutte", "--t3", "1", "--mu", "-1", "--order", "2"],
        ["tutte", "--t3", "1", "--mu", "2,0", "--order", "2"],
        ["tutte", "--t3", "1", "--mu", "2", "--order", "-1"],
        ["maps", "--t3", "1/0", "--marked", "2", "--order", "3"],
        ["maps", "--t3", "1", "--marked", "0", "--order", "2"],
        ["maps", "--t3", "1", "--marked", "2", "--order", "-1"],
    ],
)
def test_map_commands_reject_bad_input(args, capsys):
    # a usage error, never "verified" (0) or "nonzero residual" (1)
    code, data = run(args, capsys)
    assert code == 2
    assert data is None


def test_tutte_mu_zero_is_a_loop_equation(capsys):
    # mu = (0,) is E[Tr V'(M)] = 0: E[p_1] / t = t3 E[p_2], a genuine identity
    code, data = run(["tutte", "--t3", "1", "--mu", "0", "--order", "4"], capsys)
    assert code == 0
    assert data["identically_zero"] is True


def test_discrim_cli(pot, capsys):
    path = pot("cubic.json", CUBIC)
    code, data = run(
        ["discrim", "--potential", path, "--r", "60", "--N", "1", "--tol", "1e-9"],
        capsys,
    )
    assert code == 0
    assert data["max_deviation"] < 0.2
    assert len(data["ratios"]) == 4


@pytest.mark.parametrize("n", ["0", "-1"])
def test_discrim_without_variables_is_usage_error(pot, capsys, n):
    # N = 0 gave one vacuous ratio 1 and exit 0
    path = pot("cubic.json", CUBIC)
    code, data = run(["discrim", "--potential", path, "--r", "60", "--N", n], capsys)
    assert code == 2
    assert data is None


def test_usage_error_on_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
