import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import loopeq
from loopeq import MapSeries, MPoly, Potential, cli, real_axis_contour, wick
from loopeq.cli import CachedMomentTable, main
from loopeq.quadrature import RULE_TAG

GAUSS = {"kind": "polynomial", "t": [["0", "0"], ["1", "0"]]}
CUBIC = {"kind": "polynomial", "t": [["1", "0"], ["0", "0"], ["1", "0"]]}
QUARTIC = {"kind": "polynomial", "t": [["0", "0"], ["1", "0"], ["0", "0"], ["1", "0"]]}  # V' = x + x^3
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


ONE = ["1", "0"]
ZERO = ["0", "0"]


@pytest.mark.parametrize("potential,reason", [
    ({"kind": "polynomial"}, "polynomial potential JSON needs field 't'"),
    ({"kind": "polynomial", "t": [ONE]}, "polynomial potential needs degree >= 2 (at least t_1, t_2)"),
    ({"kind": "polynomial", "t": [ONE, ZERO]}, "leading coefficient t_{d+1} must be nonzero"),
    ({"kind": "rational", "R": [ONE, ZERO], "D": [ZERO, ONE]}, "R must have a nonzero leading coefficient"),
    ({"kind": "rational", "R": [ONE], "D": [ZERO, ["2", "0"]]}, "D must be monic"),
    ({"kind": "rational", "R": [ZERO, ONE], "D": [ZERO, ONE]}, "R and D must be coprime"),  # R = D = x
    ({"kind": "weird"}, "unknown potential kind 'weird'"),
    ({"kind": "rational", "R": [ONE]}, "rational potential JSON needs field 'D'"),
    ({"t": []}, "potential JSON must be an object with a 'kind' field"),
], ids=["no-t", "one-t", "zero-leading-t", "zero-leading-R", "non-monic-D", "not-coprime", "weird-kind",
        "no-D", "no-kind"])
def test_gen_bad_potential_is_usage_error(pot, capsys, potential, reason):
    path = pot("bad.json", potential)
    code = main(["gen", "--potential", path, "--mu", "0", "--N", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: bad potential file {path}: {reason}\n"


def test_input_files_are_read_as_utf8(tmp_path):
    # JSON is UTF-8 whatever the locale: in the C locale, with locale coercion
    # and UTF-8 mode off, the locale's own encoding is ASCII
    path = tmp_path / "gauss.json"
    text = json.dumps({**GAUSS, "note": "caf\u00e9"}, ensure_ascii=False)
    path.write_text(text, encoding="utf-8")
    src = str(Path(loopeq.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys, loopeq.cli; sys.exit(loopeq.cli.main(sys.argv[1:]))"
    argv = ["gen", "--potential", str(path), "--mu", "1", "--N", "2"]
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert {"mu": [], "re": "-4", "im": "0"} in json.loads(done.stdout)["Q"]


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

    real_fdopen = os.fdopen

    def fdopen_then_fail(fd, *args, **kwargs):
        # the cache file's handle writes 20 characters, then the disk is full
        fh = real_fdopen(fd, *args, **kwargs)
        write = fh.write

        def write_then_fail(text):
            write(text[:20])
            raise OSError("No space left on device")

        fh.write = write_then_fail
        return fh

    monkeypatch.setattr(os, "fdopen", fdopen_then_fail)
    assert main(args + ["--poly", "6,4", "--out", str(tmp_path / "o2.json")]) == 2
    monkeypatch.undo()
    assert (cache / "moments.json").read_bytes() == before
    assert os.listdir(cache) == ["moments.json"]
    assert main(args + ["--poly", "2", "--out", str(tmp_path / "o3.json")]) == 0
    assert (tmp_path / "o3.json").read_bytes() == (tmp_path / "o1.json").read_bytes()


def test_parser_keeps_no_command_state(pot, tmp_path):
    # the parser is built once per process; a --cache given to the second
    # command must reach it, and the first must leave no cache behind
    path = pot("gauss.json", GAUSS)
    cls = pot("class.json", {"N": 2, "arcs": "real", "terms": [{"n": [2], "c": [1, 0]}]})
    cache = tmp_path / "cache"
    args = ["expect", "--potential", path, "--class", cls, "--poly", "2", "--tol", "1e-10"]
    assert main(args + ["--out", str(tmp_path / "o1.json")]) == 0
    assert not cache.exists()
    assert main(args + ["--cache", str(cache), "--out", str(tmp_path / "o2.json")]) == 0
    assert os.listdir(cache) == ["moments.json"]
    assert (tmp_path / "o2.json").read_bytes() == (tmp_path / "o1.json").read_bytes()


OPENSSL_PROBE = """
import json, sys
if sys.argv[1] == "hashlib-only":  # a build without CPython's built-in SHA-256
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
import loopeq.cli, loopeq.quadrature
if sys.argv[1] == "no-quadrature":  # every moment must then come from the disk cache
    def refuse(*args):
        raise ArithmeticError("computed a moment")
    loopeq.quadrature.MomentTable.moment = refuse
codes = [loopeq.cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "_hashlib": "_hashlib" in sys.modules}))
"""


def src_env() -> dict:
    """The environment of a child interpreter that imports this loopeq, with
    its stdout block-buffered on a pipe, as Python's default is."""
    src = str(Path(loopeq.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def probe(mode, *commands):
    """The exit codes of ``commands`` run in one fresh interpreter, so no import
    leaks in, and whether it loaded ``_hashlib`` (OpenSSL's libcrypto)."""
    done = subprocess.run([sys.executable, "-c", OPENSSL_PROBE, mode, json.dumps(commands)],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_no_command_loads_openssl(pot, tmp_path):
    # OpenSSL's libcrypto costs about 3.5 MB of peak RSS; the --cache keys
    # hash with CPython's built-in SHA-256 instead
    cubic = pot("cubic.json", CUBIC)
    basis = pot("basis.json", {"N": 1, "d": 2, "values": [
        {"mu": [], "value": [1.0, 0.0]}, {"mu": [1], "value": [0.5, 0.0]}]})
    iso = ["iso", "--potential", cubic, "--N", "1", "--out", str(tmp_path / "iso.json")]
    cold = probe("quadrature",
                 ["solve", "--potential", cubic, "--N", "1", "--basis", basis, "--targets", "3;2,1",
                  "--out", str(tmp_path / "solve.json")],
                 ["tutte", "--t3", "1", "--mu", "1", "--order", "3", "--out", str(tmp_path / "tutte.json")],
                 iso)
    assert cold == {"codes": [0, 0, 0], "_hashlib": False}
    cache = ["--cache", str(tmp_path / "cache")]
    assert probe("quadrature", iso + cache) == {"codes": [0], "_hashlib": False}
    assert probe("no-quadrature", iso + cache) == {"codes": [0], "_hashlib": False}
    assert probe("no-quadrature", iso) == {"codes": [2], "_hashlib": False}  # the probe bites


def test_moment_cache_keyed_by_hashlib_is_served(pot, tmp_path):
    # a moments.json whose keys hashlib.sha256 made, as every cache before the
    # built-in SHA-256 was, gives every moment of the command it was built for
    cubic = pot("cubic.json", CUBIC)
    iso = ["iso", "--potential", cubic, "--N", "1", "--tol", "1e-12"]
    dump = tmp_path / "moments.csv"
    assert main(iso + ["--dump-moments", str(dump), "--out", str(tmp_path / "plain.json")]) == 0
    V = Potential.from_json(CUBIC)
    pot_key = json.dumps(V.to_json(), sort_keys=True)
    arcs = loopeq.basis_arcs(V)
    store = {}
    for line in dump.read_text().splitlines()[1:]:
        arc, k, re_, im, err = line.split(",")
        key = hashlib.sha256(f"{pot_key}|{arcs[int(arc)].segments!r}|{1e-12!r}".encode()).hexdigest()
        store[f"{key}:{k}:{RULE_TAG}"] = [float(re_), float(im), float(err)]
    assert store
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "moments.json").write_text(json.dumps(store, sort_keys=True))
    cached = iso + ["--cache", str(tmp_path / "cache"), "--out", str(tmp_path / "cached.json")]
    assert probe("no-quadrature", cached) == {"codes": [0], "_hashlib": False}
    assert (tmp_path / "cached.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_moment_cache_keys_fall_back_to_hashlib(pot, tmp_path):
    # without _sha2 and _sha256 the keys come from hashlib, and are the same
    cubic = pot("cubic.json", CUBIC)
    iso = ["iso", "--potential", cubic, "--N", "1", "--out", str(tmp_path / "iso.json")]
    for mode in ("hashlib-only", "quadrature"):
        done = probe(mode, iso + ["--cache", str(tmp_path / mode)])
        assert done == {"codes": [0], "_hashlib": mode == "hashlib-only"}
    assert (tmp_path / "hashlib-only" / "moments.json").read_bytes() == \
        (tmp_path / "quadrature" / "moments.json").read_bytes()


def test_cache_is_named_by_the_flag_only(pot, tmp_path, monkeypatch):
    path = pot("gauss.json", GAUSS)
    cls = pot("class.json", {"N": 2, "arcs": "real", "terms": [{"n": [2], "c": [1, 0]}]})
    cache = tmp_path / "cache"
    monkeypatch.setenv("LOOPEQ_CACHE", str(cache))
    assert main(["expect", "--potential", path, "--class", cls, "--poly", "2", "--tol", "1e-10",
                 "--out", str(tmp_path / "o.json")]) == 0
    assert not cache.exists()


def test_cache_file_bytes_are_json_dump_bytes(pot, tmp_path):
    path = pot("gauss.json", GAUSS)
    cls = pot("class.json", {"N": 2, "arcs": "real", "terms": [{"n": [2], "c": [1, 0]}]})
    cache = tmp_path / "cache"
    assert main(["expect", "--potential", path, "--class", cls, "--poly", "6,4", "--tol", "1e-10",
                 "--cache", str(cache), "--out", str(tmp_path / "o.json")]) == 0
    written = (cache / "moments.json").read_bytes()
    with open(tmp_path / "dumped.json", "w") as fh:
        json.dump(json.loads(written), fh, sort_keys=True)
    assert written == (tmp_path / "dumped.json").read_bytes()


def test_moment_cache_does_not_serve_entries_of_an_untagged_rule(pot, tmp_path):
    # a moments.json written before the rule tag keyed entries by potential, arc, tol and k only
    path = pot("gauss.json", GAUSS)
    cls = pot("class.json", {"N": 2, "arcs": "real", "terms": [{"n": [2], "c": [1, 0]}]})
    cache = tmp_path / "cache"
    cache.mkdir()
    table = CachedMomentTable([real_axis_contour()], Potential.from_json(GAUSS), 1e-10, str(cache))
    stale = {f"{table._arc_keys[0]}:{k}": [1.0, 0.0, 0.0] for k in range(8)}
    (cache / "moments.json").write_text(json.dumps(stale))
    args = ["expect", "--potential", path, "--class", cls, "--poly", "2", "--tol", "1e-10"]
    assert main(args + ["--cache", str(cache), "--out", str(tmp_path / "cached.json")]) == 0
    assert main(args + ["--out", str(tmp_path / "plain.json")]) == 0
    assert (tmp_path / "cached.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


@pytest.mark.parametrize("store,detail", [
    ([1, 2], "expected a JSON object"),
    ({"k:0": ["a", "b", 0]}, "entry 'k:0' must be [re, im, err]"),
    ({"k:0": [1.0, 2.0]}, "entry 'k:0' must be [re, im, err]"),
    ({"k:0": [10 ** 400, 0.0, 0.0]}, "entry 'k:0' must be [re, im, err]"),
], ids=["list", "string-entry", "short-entry", "int-too-large"])
def test_malformed_moment_cache_is_usage_error(pot, tmp_path, capsys, store, detail):
    path = pot("gauss.json", GAUSS)
    cls = pot("class.json", {"N": 2, "arcs": "real", "terms": [{"n": [2], "c": [1, 0]}]})
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "moments.json").write_text(json.dumps(store))
    code = main(["expect", "--potential", path, "--class", cls, "--cache", str(cache)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad moment cache {cache / 'moments.json'}: {detail}")


def test_dump_moments_is_the_sorted_table(pot, tmp_path, monkeypatch, capsys):
    from loopeq import cli

    tables = []

    class Recorded(cli.MomentTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(cli, "MomentTable", Recorded)
    dump = tmp_path / "moments.csv"
    path = pot("cubic.json", CUBIC)
    code = main(["iso", "--potential", path, "--N", "2", "--dump-moments", str(dump)])
    capsys.readouterr()
    assert code == 0
    (table,) = tables
    header, *rows = dump.read_text().splitlines()
    assert header == "arc_index,k,re,im,err"
    # one row per tabulated moment, sorted by (arc, k), though filled in another order
    assert [tuple(map(int, row.split(",")[:2])) for row in rows] == sorted(table.data)
    assert list(table.data) != sorted(table.data)
    for row in rows:
        arc, k, *values = row.split(",")
        val, err = table.data[(int(arc), int(k))]
        assert values == [repr(val.real), repr(val.imag), repr(err)]


def test_dump_moments_not_written_when_the_command_fails(pot, tmp_path, capsys):
    # e^{-V} overflows along the real axis: the command fails mid-table
    dump = tmp_path / "moments.csv"
    path = pot("well.json", DEEP_WELL)
    cls = pot("class.json", {"N": 1, "arcs": "real", "terms": [{"n": [1], "c": [1, 0]}]})
    code = main(["expect", "--potential", path, "--class", cls, "--dump-moments", str(dump)])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not dump.exists()


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


DEEP = "error: input nests too deeply: the exact recursion exceeds Python's recursion limit"


def test_deep_reduction_is_usage_error(pot, capsys):
    # LoopReducer recursed once per reduction step and died with a RecursionError traceback, exit 1
    path = pot("quartic.json", QUARTIC)
    box = [[], [1], [1, 1], [1, 1, 1], [2], [2, 1], [2, 1, 1], [2, 2], [2, 2, 1], [2, 2, 2]]
    basis = pot("basis.json", {"N": 3, "d": 3, "values": [{"mu": mu, "value": [1.0, 0.0]} for mu in box]})
    code = main(["solve", "--potential", path, "--N", "3", "--basis", basis, "--targets", "1000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(DEEP) and captured.err.count("\n") == 1


def test_large_box_basis_is_checked_quickly(pot, capsys):
    # the box check listed every partition of each weight up to N(d-1) and then
    # dropped those with a large part: N = 30 took 43 s, N = 40 over 10 min
    path = pot("quartic.json", QUARTIC)
    basis = pot("basis.json", {"N": 40, "d": 3, "values": [{"mu": [], "value": [1.0, 0.0]}]})
    start = time.perf_counter()
    code = main(["solve", "--potential", path, "--N", "40", "--basis", basis, "--targets", "1"])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: basis keys must be exactly the box partitions")
    # a count and the first few keys, not all 860 missing partitions (a 70,674-byte line)
    assert len(err.encode()) < 1000 and "860 missing" in err


def test_iso_past_the_assembly_cap_exits_before_enumerating(pot, capsys):
    # the basis grid was enumerated first: --N 24 on x + x^7 took 25 s to exit 2
    path = pot("deg7.json", {"kind": "polynomial", "t": [["0", "0"], ["1", "0"]] + [["0", "0"]] * 5 + [["1", "0"]]})
    start = time.perf_counter()
    code = main(["iso", "--potential", path, "--N", "24"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "exceeds the assembly cap" in capsys.readouterr().err


def test_long_partition_is_usage_error(pot, capsys):
    # the power-sum to monomial expansion recursed once per part: exit 1 with a traceback
    path = pot("gauss.json", GAUSS)
    cls = pot("class.json", {"N": 1, "arcs": "real", "terms": [{"n": [1], "c": [1, 0]}]})
    code = main(["expect", "--potential", path, "--class", cls, "--poly", ",".join(["1"] * 1100)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(DEEP) and captured.err.count("\n") == 1


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
    {**GOOD_BASIS, "d": 3},
], ids=["value-scalar", "top-level-list", "value-null", "mu-not-integer", "value-nan", "mu-twice",
        "d-float", "d-mismatch"])
def test_solve_malformed_basis_is_usage_error(pot, capsys, basis):
    # a repeated mu silently replaced the earlier value, and "d": 2.7 read as 2;
    # a "d" other than the potential's was refused without naming the file
    path = pot("cubic.json", CUBIC)
    basis_path = pot("basis.json", basis)
    code = main(["solve", "--potential", path, "--N", "1", "--basis", basis_path, "--targets", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad basis file {basis_path}: ") and "Traceback" not in err
    if "d" in basis and basis["d"] != 2:
        assert "'d'" in err


@pytest.mark.parametrize("kind", ["potential", "class", "basis"])
def test_non_utf8_file_is_named_in_the_error(pot, tmp_path, capsys, kind):
    # the UnicodeDecodeError escaped the reader without the "bad ... file" prefix
    cls = {"N": 1, "arcs": "real", "terms": [{"n": [1], "c": [1, 0]}]}
    files = {"potential": pot("gauss.json", GAUSS), "class": pot("class.json", cls),
             "basis": pot("basis.json", GOOD_BASIS)}
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"note": "caf\xe9"}')
    files[kind] = str(bad)
    if kind == "basis":
        args = ["solve", "--potential", files["potential"], "--N", "1", "--basis", files["basis"],
                "--targets", "3"]
    else:
        args = ["expect", "--potential", files["potential"], "--class", files["class"]]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad {kind} file {bad}: ")


def test_iso_pass_and_shape(pot, capsys):
    path = pot("cubic.json", CUBIC)
    code, data = run(["iso", "--potential", path, "--N", "2"], capsys)
    assert code == 0
    assert len(data["rows"]) == 3
    assert data["min_scaled_singular"] > 1e-8


def test_iso_fails_when_error_bars_reach_the_smallest_singular_value(pot, capsys):
    # at --tol 0.5 the witness used to pass: min scaled singular value about
    # 0.145 against a propagated error bound ||E / scale||_F of about 1.04
    path = pot("cubic.json", CUBIC)
    code = main(["iso", "--potential", path, "--N", "2", "--tol", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    data = json.loads(captured.out)
    assert set(data) == {"N", "d", "rows", "cols", "entries", "errors", "singular_values",
                         "min_scaled_singular"}
    found = re.fullmatch(r"not verified: min scaled singular value (\S+) is within its error bound"
                         r" \|\|errors / scale\|\|_F \+ gamma_n sigma_max = (\S+)\n", captured.err)
    assert found and found[1] == f"{data['min_scaled_singular']:.3e}"
    assert float(found[2]) >= data["min_scaled_singular"]
    # the default tolerance leaves the same witness verified
    code, _ = run(["iso", "--potential", path, "--N", "2"], capsys)
    assert code == 0


@pytest.mark.parametrize("command,flag,value", [
    ("iso", "--tol", "inf"),
    ("iso", "--tol", "nan"),
    ("iso", "--tol", "0"),
    ("iso", "--tol", "-1"),
    ("iso", "--tol", "1"),
    ("expect", "--tol", "inf"),
    ("residuals", "--tol", "0"),
    ("discrim", "--tol", "2"),
    ("iso", "--tol", "abc"),
])
def test_bad_tolerance_or_threshold_is_usage_error(pot, capsys, command, flag, value):
    # --tol inf reported a witness with error bars larger than its entries as
    # verified
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
         "--gamma", "circle", "--tol", "1e-12"],
        capsys,
    )
    assert code == 0
    assert data["max_relative"] < 1e-10


def test_residuals_verdict_is_the_error_budget(pot, tmp_path, capsys):
    # one real-axis moment moved by 100x its bar: max_relative stays near 1e-12,
    # under any fixed threshold such as the old --fail-above 1e-8, but the
    # residuals it touches exceed their own error budgets
    path = pot("quartic.json", QUARTIC)
    cache = tmp_path / "cache"
    out = tmp_path / "out.json"
    args = ["residuals", "--potential", path, "--gamma", "real", "--N", "2", "--weight-max", "4",
            "--cache", str(cache), "--out", str(out)]
    assert main(args) == 0
    assert capsys.readouterr().err == ""
    store = json.loads((cache / "moments.json").read_text())
    (key,) = [k for k in store if k.split(":")[1] == "4"]  # the one arc's moment of x^4
    store[key][0] += 100 * store[key][2]
    (cache / "moments.json").write_text(json.dumps(store))
    assert main(args) == 1
    data = json.loads(out.read_text())
    assert data["max_relative"] < 1e-8
    found = re.fullmatch(r"not verified: \|E\(Q(\(.*?\))\)\| = (\S+) exceeds its error budget (\S+)"
                         r" \((\d+) of (\d+) equations do\)\n", capsys.readouterr().err)
    assert found
    entry = {tuple(e["mu"]): e for e in data["entries"]}[ast.literal_eval(found[1])]
    assert found[2] == f"{entry['abs']:.3e}"
    assert float(found[2]) > float(found[3])
    assert 1 <= int(found[4]) <= int(found[5]) == len(data["entries"])


@pytest.mark.parametrize("command,flag", [("iso", "--min-singular"), ("residuals", "--fail-above"),
                                          ("discrim", "--delta-tol")])
def test_threshold_flags_are_gone(pot, capsys, command, flag):
    # the verdicts come from the error bars alone
    path = pot("cubic.json", CUBIC)
    needs = {"iso": ["--N", "1"], "residuals": ["--gamma", "real"], "discrim": ["--r", "60"]}
    assert main([command, "--potential", path, *needs[command], flag, "1e-8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


@pytest.mark.parametrize("extra,flag", [(["--gamma", "real"], "--gamma"), (["--N", "5"], "--N"),
                                        (["--N", "2"], "--N")], ids=["gamma", "N5", "N2"])
def test_residuals_class_excludes_gamma_and_N(pot, tmp_path, capsys, extra, flag):
    # --class silently dropped both: an N = 2 class file with --N 5 wrote the
    # report of the N = 2 class and exited 0
    path = pot("gauss.json", GAUSS)
    cls = pot("class.json", {"N": 2, "arcs": "real", "terms": [{"n": [2], "c": [1, 0]}]})
    out = tmp_path / "out.json"
    code = main(["residuals", "--potential", path, "--class", cls, "--weight-max", "2",
                 "--out", str(out)] + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert not out.exists()
    assert flag in captured.err


def test_residuals_gamma_defaults_to_two_eigenvalues(pot, tmp_path, capsys):
    path = pot("gauss.json", GAUSS)
    outs = {}
    for n in (None, "2", "3"):
        out = tmp_path / f"N{n}.json"
        args = ["residuals", "--potential", path, "--gamma", "real", "--weight-max", "3",
                "--out", str(out)]
        assert main(args + (["--N", n] if n else [])) == 0
        outs[n] = out.read_bytes()
    assert outs[None] == outs["2"] != outs["3"]


@pytest.mark.parametrize("argv,message", [
    (["gen", "--mu", "1", "--N", "0"], "--N must be >= 1, got 0"),
    (["gen", "--mu", "1", "--N", "-1"], "--N must be >= 1, got -1"),
    (["solve", "--N", "0", "--basis", "missing.json", "--targets", "1"], "--N must be >= 1, got 0"),
    (["residuals", "--gamma", "real", "--N", "-1"], "--N must be >= 1, got -1"),
    (["residuals", "--gamma", "real", "--N", "0"], "--N must be >= 1, got 0"),
    (["iso", "--N", "0"], "--N must be >= 1, got 0"),
    (["discrim", "--r", "60", "--N", "0"], "--N must be >= 1, got 0"),
    (["discrim", "--r", "0"], "--r must be >= 1, got 0"),
    (["residuals"], "provide --class FILE or --gamma real|circle"),
], ids=["0", "-1", "solve-0", "residuals--1", "residuals-0", "iso-0", "discrim-0", "discrim-r-0",
        "residuals-no-class"])
def test_gen_without_variables_is_usage_error(pot, capsys, argv, message):
    # zero or a negative number of eigenvalues means nothing, nor does r = 0;
    # the error names the flag before any file is read (residuals on cubic
    # used to report the real line inadmissible instead of the bad N)
    path = pot("cubic.json", CUBIC)
    code = main([argv[0], "--potential", path, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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
    {"N": 1, "arcs": "real"},
    {"N": 1, "arcs": "bogus", "terms": [{"n": [1], "c": [1, 0]}]},
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


X_PLUS_POLE = {"kind": "rational", "R": [["2", "0"], ["-1", "0"], ["1", "0"]],
               "D": [["-1", "0"], ["1", "0"]]}  # V' = x + 2/(x - 1)
DEEP_WELL = {"kind": "polynomial", "t": [["0", "0"], ["-2000", "0"], ["0", "0"], ["1", "0"]]}
INVERSE_SQUARE = {"kind": "rational", "R": [["1", "0"]], "D": [["0", "0"], ["0", "0"], ["1", "0"]]}  # 1/x^2
DOUBLE_POLE = {"kind": "rational", "R": [["1", "0"], ["0", "0"], ["0", "0"], ["1", "0"]],
               "D": [["1", "0"], ["-2", "0"], ["1", "0"]]}  # V' = (x^3 + 1)/(x - 1)^2
COMPLEX_RESIDUE = {"kind": "rational", "R": [["1", "2"], ["0", "0"], ["0", "0"], ["1", "0"]],
                   "D": [["0", "0"], ["1", "0"]]}  # V' = (x^3 + 1 + 2i)/x
REPEATED = "error: repeated poles of V' are not supported numerically\n"


@pytest.mark.parametrize("potential,args,message", [
    # 2/x has no sector where Re V -> +inf, and the real axis runs through its pole
    (HAAR2, ["expect", "--class", "{real}"],
     "error: inadmissible contour R: ray angle 3.1416 lies in no sector where Re V -> +inf\n"),
    (HAAR2, ["residuals", "--gamma", "real", "--N", "1"],
     "error: inadmissible contour R: ray angle 3.1416 lies in no sector where Re V -> +inf\n"),
    # the unit circle runs through the pole of x + 2/(x - 1) at 1
    (X_PLUS_POLE, ["expect", "--class", "{circle}"],
     "error: inadmissible contour circle: contour passes through the pole 1-0j\n"),
    # V' = -2000 x + x^3: an admissible real axis, along which e^{-V} = e^{1000 x^2 - x^4 / 4}
    # leaves the double range from |x| = 1 on (its peak is e^{10^6} at |x| = 44.7)
    (DEEP_WELL, ["expect", "--class", "{real}"],
     "quadrature error: e^{-V} overflows double precision along ray angle 3.1416 at arc length 1\n"),
    # repeated poles are found exactly: 1/x^2 divided by D'(0) = 0, and np.roots
    # split the double pole of (x^3 + 1)/(x - 1)^2 into two with huge residues
    (INVERSE_SQUARE, ["contours"], REPEATED),
    (INVERSE_SQUARE, ["iso", "--N", "1"], REPEATED),
    (DOUBLE_POLE, ["contours"], REPEATED),
    (DOUBLE_POLE, ["iso", "--N", "1"], REPEATED),
    (COMPLEX_RESIDUE, ["iso", "--N", "1"],
     "error: cut placement unsupported: pole 0+0j has non-integer residue 1+2j\n"),
], ids=["expect-real-2/x", "residuals-real-2/x", "expect-circle-through-pole", "expect-overflow",
        "contours-1/x^2", "iso-1/x^2", "contours-double-pole", "iso-double-pole", "iso-complex-residue"])
def test_inadmissible_contours_and_overflow_name_their_cause(pot, capsys, potential, args, message):
    # each used to fail inside the integrand, with "0.0 to a negative or complex
    # power" or "integrand blows up ...; inadmissible contour"
    path = pot("potential.json", potential)
    classes = {f"{{{arcs}}}": pot(f"{arcs}.json", {"N": 1, "arcs": arcs,
                                                  "terms": [{"n": [1], "c": [1, 0]}]})
               for arcs in ("real", "circle")}
    code = main([args[0], "--potential", path, *(classes.get(a, a) for a in args[1:])])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message


def test_elbow_join_through_an_anti_sector_fails_cleanly(pot, tmp_path, capsys):
    # V' = x^2 + 2/(x - 3): basis_arcs joins the elbows on a circle of radius
    # 1 + 2 * 3 = 7, which crosses the anti-sectors, where |e^{-V}| reaches
    # e^{111}; QAGS stops at roundoff (achieved error 6.5e33).  A known limit
    # of elbow routing (README "Caps"): move this test when routing improves.
    path = pot("elbow.json", {"kind": "rational", "R": [["2", "0"], ["0", "0"], ["-3", "0"], ["1", "0"]],
                              "D": [["-3", "0"], ["1", "0"]]})
    out = tmp_path / "iso.json"
    assert main(["iso", "--potential", path, "--N", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("quadrature error: ")
    assert not out.exists()


def test_elbow_ray_from_the_join_radius_underflows(pot, tmp_path, capsys):
    # V' = x^3 + 3x^2 + 2/x: basis_arcs starts the elbow rays at the join
    # radius 7, where |e^{-V}| is about e^-947, below double precision.  ROADMAP
    # item 13 asks for exit 0 here: move this test when elbow routing improves.
    path = pot("under.json", {"kind": "rational",
                              "R": [["2", "0"], ["0", "0"], ["0", "0"], ["3", "0"], ["1", "0"]],
                              "D": [["0", "0"], ["1", "0"]]})
    out = tmp_path / "iso.json"
    assert main(["iso", "--potential", path, "--N", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("quadrature error: e^{-V} underflows double precision"
                            " along ray angle 0.0000 from its base 7+0j\n")
    assert not out.exists()


def test_trapezoid_rule_unreachable_tolerance_fails_cleanly(pot, tmp_path, capsys):
    # on Haar V' = 2/x the basis arc is the unit circle, integrated by the
    # trapezoid rule, whose successive doublings stop moving at about 3e-16
    path = pot("haar.json", HAAR2)
    out = tmp_path / "iso.json"
    assert main(["iso", "--potential", path, "--N", "1", "--tol", "1e-17", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "quadrature error: trapezoid rule did not converge to 1e-17; last delta 3.378e-16\n"
    assert not out.exists()


def test_rational_elbow_verifies_with_a_looser_tol(pot, capsys):
    # V' = x^2 + 2/(x - 1): at the default --tol 1e-12 QAGS stops at roundoff
    # (achieved error 9.0e-11); at 1e-10 the witness verifies.  At p = 2 and 3
    # no --tol up to 1e-6 helps (README "Caps")
    path = pot("elbow.json", {"kind": "rational", "R": [["2", "0"], ["0", "0"], ["-1", "0"], ["1", "0"]],
                              "D": [["-1", "0"], ["1", "0"]]})
    assert main(["iso", "--potential", path, "--N", "1"]) == 2
    assert capsys.readouterr().err.startswith("quadrature error: quadrature tolerance 1e-12 unreachable")
    code, data = run(["iso", "--potential", path, "--N", "1", "--tol", "1e-10"], capsys)
    assert code == 0
    assert data["min_scaled_singular"] > 0


@pytest.mark.parametrize("t0,code", [("1e5000", 2), ("1e100000000", 2), ("-2.5e-100000000", 2),
                                     ("0e100000000", 0), ("1e99999999999999999999999", 2),
                                     ("0e99999999999999999999999", 0)])
def test_coefficients_beyond_the_digit_limit_name_the_file(tmp_path, t0, code):
    # Fraction("1e100000000") expands 10^(10^8), which ran for minutes; "1e5000"
    # failed only when its Q was printed, with no file named.  A zero prints as
    # "0", whatever its exponent; Decimal refuses an exponent of over 18 digits,
    # which must not reach Fraction either.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "polynomial", "t": [[t0, "0"], ["1", "0"]]}))
    src = str(Path(loopeq.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys, loopeq.cli; sys.exit(loopeq.cli.main(sys.argv[1:]))"
    argv = ["gen", "--potential", str(path), "--mu", "1", "--N", "2"]
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == code, done.stderr
    if code:
        assert done.stdout == ""
        assert done.stderr.startswith(f"error: bad potential file {path}: ")


@pytest.mark.parametrize("radius", [0, -1.0, True, "2", [1], math.nan, math.inf,
                                    pytest.param(10 ** 400, id="int-too-large")])
def test_class_file_radius_must_be_a_positive_number(pot, capsys, radius):
    # radius 0 integrated over a point, true read as 1 and "2" as 2.0; a
    # 400-digit integer lost the file's name to "int too large to convert to float"
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


@pytest.mark.parametrize("command,flag,text", [
    ("solve", "--targets", ";"),  # printed "values": [] and exited 0
    ("solve", "--targets", "2;;3"),  # ran as 2;3
    ("solve", "--targets", "2; "),
    ("gen", "--mu", "1,,2"),  # ran as (1, 2)
    ("gen", "--mu", "1,2,"),
    ("expect", "--poly", ",1"),
    ("tutte", "--mu", "2,,"),
    ("maps", "--marked", "3,,1"),
])
def test_empty_index_field_is_usage_error(pot, capsys, command, flag, text):
    path = pot("gauss.json", GAUSS)
    argv = {
        "solve": ["solve", "--potential", path, "--N", "2", "--basis",
                  pot("basis.json", {"N": 2, "d": 1, "values": [{"mu": [], "value": [1.0, 0.0]}]})],
        "gen": ["gen", "--potential", path, "--N", "2"],
        "expect": ["expect", "--potential", path, "--class",
                   pot("class.json", {"N": 2, "arcs": "real", "terms": [{"n": [2], "c": [1, 0]}]})],
        "tutte": ["tutte", "--t3", "1", "--order", "2"],
        "maps": ["maps", "--t3", "1", "--order", "2"],
    }[command]
    code = main(argv + [flag, text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith(f"error: bad {flag} ") and repr(text) in line


def test_blank_poly_is_z_and_spaces_around_parts_are_allowed(pot, capsys):
    path = pot("gauss.json", GAUSS)
    cls = pot("class.json", {"N": 2, "arcs": "real", "terms": [{"n": [2], "c": [1, 0]}]})
    expect = ["expect", "--potential", path, "--class", cls]
    assert run(expect, capsys) == run(expect + ["--poly", ""], capsys)
    assert run(expect + ["--poly", "2,1"], capsys) == run(expect + ["--poly", " 2 , 1 "], capsys)
    basis = pot("basis.json", {"N": 2, "d": 1, "values": [{"mu": [], "value": [1.0, 0.0]}]})
    solve = ["solve", "--potential", path, "--N", "2", "--basis", basis, "--targets"]
    code, data = run(solve + ["4; 2 ,1"], capsys)
    assert code == 0
    assert run(solve + ["4;2,1"], capsys) == (code, data)
    assert [e["mu"] for e in data["values"]] == [[2, 1], [4]]


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
        ["maps", "--t3", "1e999999999", "--order", "2"],
        ["tutte", "--t3", "1e999999999", "--mu", "1", "--order", "2"],
    ],
)
def test_map_commands_reject_bad_input(args, capsys):
    # a usage error, never "verified" (0) or "nonzero residual" (1); a weight
    # such as 1e999999999 is refused before Fraction expands 10^999999999,
    # which ran for minutes
    start = time.perf_counter()
    code = main(args)
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if "1e999999999" in args:
        assert captured.err.startswith("error: bad --t3 weight '1e999999999'")
        assert "more than" in captured.err and "digits" in captured.err


def test_tutte_at_the_order_cap_is_quick(capsys):
    # order 11 runs its series at order 12: 24 half-edges, the Wick cap
    wick._count_faces.cache_clear()
    start = time.perf_counter()
    code, data = run(["tutte", "--t3", "1", "--t4", "1", "--mu", "2", "--order", "11"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert data["identically_zero"] is True


def test_tutte_mu_zero_is_a_loop_equation(capsys):
    # mu = (0,) is E[Tr V'(M)] = 0: E[p_1] / t = t3 E[p_2], a genuine identity
    code, data = run(["tutte", "--t3", "1", "--mu", "0", "--order", "4"], capsys)
    assert code == 0
    assert data["identically_zero"] is True


@pytest.mark.parametrize("args", [
    ["tutte", "--t5", "1", "--t6", "1", "--mu", "1", "--order", "5"],
    ["tutte", "--t3", "1", "--t5", "1/2", "--t6", "-1", "--mu", "2,1", "--order", "6"],
])
def test_tutte_with_degree_5_and_6_vertices(args, capsys):
    assert main(args) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["identically_zero"] is True
    assert captured.err == ""


def test_maps_with_degree_5_and_6_vertices(capsys):
    code, data = run(["maps", "--t5", "1", "--t6", "1", "--marked", "2", "--order", "6"], capsys)
    assert code == 0
    monomials = [term["exponents"] for terms in data["coeffs"].values() for term in terms]
    for var in ("t5", "t6"):
        assert any(ex[data["vars"].index(var)] > 0 for ex in monomials), var


def test_tutte_verdict_names_the_lowest_nonzero_edge_order(monkeypatch, capsys):
    # a residual series that is zero at edge order 1 and nonzero from order 3 on
    names = ("N", "t3")
    series = MapSeries(marked=(2,), e_max=4, vars=names,
                       coeffs={1: MPoly.zero(names), 4: MPoly.gen("N", names), 3: MPoly.const(5, names)})
    monkeypatch.setattr(cli, "tutte_residual", lambda weights, mu, order: series)
    assert main(["tutte", "--t3", "1", "--mu", "2", "--order", "4"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["identically_zero"] is False
    assert captured.err == "not verified: the residual series of E(Q(2,)) is nonzero from edge order 3 on\n"


@pytest.mark.parametrize("args", [
    ["gen", "--potential", "{cubic}", "--mu", "1", "--N", "2"],
    ["iso", "--potential", "{cubic}", "--N", "1"],
    ["maps", "--t3", "1", "--marked", "3", "--order", "3"],
    ["tutte", "--t3", "1", "--mu", "1", "--order", "4"],
    ["discrim", "--potential", "{cubic}", "--r", "60", "--N", "1"],
], ids=["gen", "iso", "maps", "tutte", "discrim"])
def test_exit_0_writes_nothing_to_stderr(pot, capsys, args):
    path = pot("cubic.json", CUBIC)
    assert main([path if a == "{cubic}" else a for a in args]) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def test_discrim_cli(pot, capsys):
    path = pot("cubic.json", CUBIC)
    code, data = run(
        ["discrim", "--potential", path, "--r", "60", "--N", "1", "--tol", "1e-9"],
        capsys,
    )
    assert code == 0
    assert data["max_deviation"] < 0.2
    assert len(data["ratios"]) == 4


def test_discrim_verdict_names_the_deviation_and_the_tolerance(pot, capsys):
    # cubic at N = 2: the test factors vanish only to first order at the other
    # saddles (README "Caps"), so the ratio matrix is farther than 1 from I
    path = pot("cubic.json", CUBIC)
    assert main(["discrim", "--potential", path, "--r", "60", "--N", "2"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["max_deviation"] == pytest.approx(1.334, abs=1e-3)
    found = re.fullmatch(r"not verified: distance \|\|R - I\|\|_2 = (\S+) of the ratio matrix from its"
                         r" delta limit plus its error bound (\S+) reaches 1\n", captured.err)
    assert found and found[1] == "1.886e+00"
    assert 0 < float(found[2]) < 1e-6


@pytest.mark.parametrize("r,code,distance", [(10, 0, None), (50, 1, "4.180e+00")])
def test_discrim_quartic_verdict_follows_the_distance(pot, capsys, r, code, distance):
    # V' = x + x^3 at N = 1: ||R - I||_2 stays below 1 through r = 24 (README
    # "Caps"); at r = 10 max_deviation 0.30 failed the old 0.2 threshold
    path = pot("quartic.json", QUARTIC)
    assert main(["discrim", "--potential", path, "--r", str(r), "--N", "1"]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
        assert 0.2 < json.loads(captured.out)["max_deviation"] < 0.31
    else:
        (line,) = captured.err.splitlines()
        assert line.startswith(f"not verified: distance ||R - I||_2 = {distance} ")


CLI_SCRIPT = "import sys, loopeq.cli; sys.exit(loopeq.cli.main(sys.argv[1:]))"


@pytest.fixture
def cli_inputs(tmp_path):
    """Fill an argv's {cubic}, {quartic}, {basis} and {targets}: the exact
    benchmark workload's solve (quartic at N = 3, every partition of weight
    1..14, 507 targets, 83 KB of JSON) and cubic for the other commands."""
    files = {"cubic": CUBIC, "quartic": QUARTIC, "basis": {"N": 3, "d": 3, "values": [
        {"mu": list(mu), "value": [0.1 * k, 1 / (k + 3)]}
        for k, mu in enumerate(loopeq.partitions_in_box(3, 2))]}}
    fields = {"targets": ";".join(",".join(map(str, mu)) for w in range(1, 15)
                                  for mu in loopeq.partitions_of_weight(w))}
    for name, data in files.items():
        fields[name] = str(tmp_path / f"{name}.json")
        Path(fields[name]).write_text(json.dumps(data))
    return lambda argv: [a.format(**fields) for a in argv]


DISCRIM_VERDICT = (r"not verified: distance \|\|R - I\|\|_2 = 1\.886e\+00 of the ratio matrix"
                   r" from its delta limit plus its error bound \S+ reaches 1\n")


@pytest.mark.parametrize("argv,code", [
    (["iso", "--potential", "{cubic}", "--N", "1"], 0),
    (["discrim", "--potential", "{cubic}", "--N", "2", "--r", "60"], 1),
    (["solve", "--potential", "{quartic}", "--N", "3", "--basis", "{basis}", "--targets", "{targets}"], 0),
])
def test_closed_stdout_keeps_the_verdict(cli_inputs, argv, code):
    # a reader that left before the JSON was written turned the verdict into
    # exit 2 with "error: [Errno 32] Broken pipe"
    with subprocess.Popen([sys.executable, "-c", CLI_SCRIPT, *cli_inputs(argv)], env=src_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        if argv[0] == "solve":  # leave mid-stream: the JSON is many batches, past the pipe's buffer
            assert len(proc.stdout.read(4096)) == 4096
        proc.stdout.close()  # otherwise before the child has imported numpy, let alone written
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == code
    if code == 0:
        assert err == ""
    else:
        assert re.fullmatch(DISCRIM_VERDICT, err)


@pytest.mark.parametrize("argv,code", [
    (["iso", "--potential", "{cubic}", "--N", "1"], 0),
    (["discrim", "--potential", "{cubic}", "--N", "2", "--r", "60"], 1),
], ids=["iso", "discrim"])
def test_stdout_closed_at_start_keeps_the_verdict(cli_inputs, argv, code):
    # with fd 1 closed, sys.stdout is None: nothing is written, as print writes nothing
    done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-c", CLI_SCRIPT,
                           *cli_inputs(argv)], env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    if code == 0:
        assert done.stderr == ""
    else:
        assert re.fullmatch(DISCRIM_VERDICT, done.stderr)


EMIT_PAYLOAD = {
    "empty": [[], {}, {"a": []}, [{}]],
    "text": "Φ(μ) ≠ ∫ e^{-V}",
    "floats": [math.nan, math.inf, -math.inf, -0.0, 1e-310, 0.1],
    "scalars": [0, -7, 2 ** 80, True, False, None],
    "long": [[k, k / 7, str(k)] for k in range(1500)],  # about 6,000 encoder chunks
}


def test_emit_writes_the_json_dumps_bytes(tmp_path, capsys):
    want = json.dumps(EMIT_PAYLOAD, indent=2, sort_keys=True) + "\n"
    cli._emit(EMIT_PAYLOAD, str(tmp_path / "out.json"))
    assert (tmp_path / "out.json").read_text() == want
    cli._emit(EMIT_PAYLOAD, None)
    assert capsys.readouterr().out == want


def test_emit_memory_is_bounded(tmp_path):
    # a solve-shaped payload of 500 targets: holding the whole text and its
    # chunk list peaked at 0.54 MB, a batch of 1024 chunks at 0.08 MB
    payload = {"values": [{"mu": [1 + k % 4] * (1 + k % 6), "value": [math.sin(k), math.cos(k)]}
                          for k in range(500)], "coefficient_growth": 1.5e30}
    tracemalloc.start()
    try:
        cli._emit(payload, str(tmp_path / "out.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 250_000


def test_discrim_range_guard_keeps_the_ray_integrands_finite(pot, capsys):
    # x^q e^{-V} is integrated in plain form, so r stops where e^{-V_r} leaves double range
    path = pot("cubic.json", CUBIC)
    code, data = run(["discrim", "--potential", path, "--r", "215", "--N", "1"], capsys)
    assert code == 0
    assert data["max_deviation"] < 0.2
    assert all(math.isfinite(x) for ratio in data["ratios"] for x in ratio["value"])
    assert main(["discrim", "--potential", path, "--r", "230", "--N", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: |Re V_r| ~ 343 exceeds double-precision dynamic range;"
                            " lower r\n")


@pytest.mark.parametrize("n,message", [
    ("0", "--N must be >= 1, got 0"),
    ("-1", "--N must be >= 1, got -1"),
    ("3", "N=3 beyond the discriminator cap 2"),
], ids=["0", "-1", "3"])
def test_discrim_without_variables_is_usage_error(pot, capsys, n, message):
    # N = 0 gave one vacuous ratio 1 and exit 0; past MAX_BODIES = 2, which
    # bounds the level maps and the range guard's factor, N = 3 is refused
    path = pot("cubic.json", CUBIC)
    code = main(["discrim", "--potential", path, "--r", "60", "--N", n])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_usage_error_on_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
