"""The benchmark's three workloads: inputs, command lists and output checks.

Each workload is a fixed list of ``loopeq`` CLI commands.  The seed picks
values only (homology-class coefficients for ``expect``, basis values for
``solve``), never shapes, so the work done and every count are the same for
all seeds.  Outputs of commands whose inputs depend on the seed are linear in
those values, so their reference is the seeded combination of reference
outputs recorded once per unit vector (see ``record.py``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# Relative bounds fixed before recording, for outputs that carry no error bar.
RESIDUAL_RTOL = 1e-9  # of each equation's term scale
DISCRIM_RTOL = 1e-6
SOLVE_RTOL = 1e-9  # of sum_b |w_b * value_b|


def _t(*coeffs):
    return [[str(c), "0"] for c in coeffs]


POTENTIALS = {
    "cubic": {"kind": "polynomial", "t": _t(1, 0, 1)},  # V' = 1 + x^2, d = 2
    "quartic": {"kind": "polynomial", "t": _t(0, 1, 0, 1)},  # V' = x + x^3, d = 3
    "deg5": {"kind": "polynomial", "t": _t(0, 1, 0, 0, 0, 1)},  # V' = x + x^5
    "deg6": {"kind": "polynomial", "t": _t(0, 1, 0, 0, 0, 0, 1)},  # V' = x + x^6
    "deg7": {"kind": "polynomial", "t": _t(0, 1, 0, 0, 0, 0, 0, 1)},  # V' = x + x^7
    # V' = x^2 + 2/x = (x^3 + 2)/x, d = 3: one circle around 0 and two elbows
    "rational": {"kind": "rational", "R": _t(2, 0, 0, 1), "D": _t(0, 1)},
}

# Fixed classes (not seeded): residual reports are not linear in the coefficients.
CUBIC_RESIDUAL_CLASS = {
    "N": 2,
    "arcs": "basis",
    "terms": [{"n": [2, 0], "c": [1.0, 0.0]}, {"n": [1, 1], "c": [0.5, -0.25]}],
}
RATIONAL_RESIDUAL_CLASS = {"N": 2, "arcs": "basis", "terms": [{"n": [1, 1, 0], "c": [1.0, 0.0]}]}

# Box partitions for d = 3, N = 3 (parts <= 2, at most 3 parts): solve's free basis.
SOLVE_BASIS = [[], [1], [1, 1], [1, 1, 1], [2], [2, 1], [2, 1, 1], [2, 2], [2, 2, 1], [2, 2, 2]]
SOLVE_MAX_WEIGHT = 14


@dataclass
class Linear:
    """Seeded values a command's output is linear in, and the input file holding them."""

    kind: str  # "class" or "basis"
    path: str
    keys: list  # compositions (class) or box partitions (basis)
    values: list  # complex, one per key
    header: dict  # the file's other fields

    def write(self, values) -> None:
        pairs = [[v.real, v.imag] for v in values]
        if self.kind == "class":
            body = {**self.header, "terms": [{"n": k, "c": c} for k, c in zip(self.keys, pairs)]}
        else:
            body = {**self.header, "values": [{"mu": k, "value": c} for k, c in zip(self.keys, pairs)]}
        Path(self.path).write_text(json.dumps(body))


@dataclass
class Command:
    id: str
    argv: list  # without --out; "{cache}" stands for the pass's cache directory
    check: str  # iso | expect | residuals | discrim | solve | bytes
    linear: Linear | None = None

    def argv_for(self, out: str, cache: str) -> list:
        return [cache if a == "{cache}" else a for a in self.argv] + ["--out", out]


def _partitions(w, largest=None):
    largest = w if largest is None else largest
    if w == 0:
        yield []
        return
    for first in range(min(w, largest), 0, -1):
        for rest in _partitions(w - first, first):
            yield [first] + rest


def solve_targets() -> list:
    return [p for w in range(1, SOLVE_MAX_WEIGHT + 1) for p in _partitions(w)]


def _seeded(rng: random.Random, n: int) -> list:
    return [complex(round(rng.uniform(-2, 2), 6), round(rng.uniform(-2, 2), 6)) for _ in range(n)]


def build(workload: str, seed: int, inputs: Path) -> list:
    """Write the workload's input files under ``inputs`` and return its commands."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    pot = {}
    for name, data in POTENTIALS.items():
        pot[name] = str(inputs / f"{name}.json")
        Path(pot[name]).write_text(json.dumps(data))

    def fixed(name, data):
        path = inputs / name
        path.write_text(json.dumps(data))
        return str(path)

    def linear(kind, name, keys, header):
        lin = Linear(kind, str(inputs / name), keys, _seeded(rng, len(keys)), header)
        lin.write(lin.values)
        return lin

    if workload == "assembly":
        a = linear("class", "class_n5.json", [[3, 2]], {"N": 5, "arcs": "basis"})
        b = linear("class", "class_n4.json", [[2, 2], [3, 1]], {"N": 4, "arcs": "basis"})
        return [
            Command("iso-cubic-N4", ["iso", "--potential", pot["cubic"], "--N", "4"], "iso"),
            Command("expect-cubic-N5", ["expect", "--potential", pot["cubic"], "--class", a.path,
                                        "--poly", "1,1"], "expect", a),
            Command("expect-cubic-N4", ["expect", "--potential", pot["cubic"], "--class", b.path,
                                        "--poly", "3,2,1"], "expect", b),
        ]
    if workload == "quadrature":
        cubic_cls = fixed("class_cubic.json", CUBIC_RESIDUAL_CLASS)
        rational_cls = fixed("class_rational.json", RATIONAL_RESIDUAL_CLASS)
        cached = ["--cache", "{cache}"]
        iso = [
            Command(f"iso-{name}-N2", ["iso", "--potential", pot[name], "--N", "2"] + cached, "iso")
            for name in ("deg5", "deg6", "deg7", "rational", "cubic")
        ]
        cubic_res = ["residuals", "--potential", pot["cubic"], "--class", cubic_cls,
                     "--weight-max", "8"] + cached
        return iso + [
            Command("residuals-cubic-w8", cubic_res, "residuals"),
            Command("residuals-rational-w6", ["residuals", "--potential", pot["rational"], "--class",
                                              rational_cls, "--weight-max", "6"] + cached, "residuals"),
            Command("residuals-quartic-real-w10", ["residuals", "--potential", pot["quartic"],
                                                   "--gamma", "real", "--N", "2", "--weight-max", "10"]
                    + cached, "residuals"),
            Command("residuals-cubic-w8-disk", cubic_res, "residuals"),
            Command("discrim-cubic-N1", ["discrim", "--potential", pot["cubic"], "--r", "60",
                                         "--N", "1"], "discrim"),
            Command("discrim-cubic-N2", ["discrim", "--potential", pot["cubic"], "--r", "60",
                                         "--N", "2"], "discrim"),
        ]
    if workload == "exact":
        basis = linear("basis", "basis.json", SOLVE_BASIS, {"N": 3, "d": 3})
        targets = ";".join(",".join(map(str, p)) for p in solve_targets())
        return [
            Command("solve-quartic-N3", ["solve", "--potential", pot["quartic"], "--N", "3",
                                         "--basis", basis.path, "--targets", targets], "solve", basis),
            Command("tutte-t3-t4-order6", ["tutte", "--t3", "1", "--t4", "1", "--mu", "2",
                                           "--order", "6"], "bytes"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("assembly", "quadrature", "exact")


# -- output checks ---------------------------------------------------------------


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _check_iso(out, ref):
    if out["rows"] != ref["rows"] or out["cols"] != ref["cols"]:
        return "rows or columns differ"
    ncols = len(ref["cols"])
    scale = [max(abs(_c(row[j])) for row in ref["entries"]) or 1.0 for j in range(ncols)]
    frob = 0.0
    for i, row in enumerate(ref["entries"]):
        for j, z in enumerate(row):
            bar = out["errors"][i][j] + ref["errors"][i][j]
            if abs(_c(out["entries"][i][j]) - _c(z)) > bar:
                return f"entry ({i},{j}) outside its error bars"
            frob += (bar / scale[j]) ** 2
    # Weyl: singular values of the scaled matrix move by at most ||E||_2 <= ||E||_F.
    sv_bar = math.sqrt(frob) + 1e-12
    for s, r in zip(out["singular_values"], ref["singular_values"]):
        if abs(s - r) > sv_bar:
            return "singular values outside the propagated error bars"
    return None


def _check_residuals(out, ref):
    if [e["mu"] for e in out["entries"]] != [e["mu"] for e in ref["entries"]]:
        return "equation list differs"
    for e, r in zip(out["entries"], ref["entries"]):
        if abs(e["scale"] - r["scale"]) > RESIDUAL_RTOL * r["scale"]:
            return f"term scale of Q{tuple(r['mu'])} differs"
        if abs(e["abs"] - r["abs"]) > RESIDUAL_RTOL * r["scale"] or abs(e["rel"] - r["rel"]) > RESIDUAL_RTOL:
            return f"residual of Q{tuple(r['mu'])} differs"
    return None


def _check_discrim(out, ref):
    if [(e["n"], e["m"]) for e in out["ratios"]] != [(e["n"], e["m"]) for e in ref["ratios"]]:
        return "ratio list differs"
    for e, r in zip(out["ratios"], ref["ratios"]):
        if abs(_c(e["value"]) - _c(r["value"])) > DISCRIM_RTOL * max(1.0, abs(_c(r["value"]))):
            return f"ratio {r['n']}/{r['m']} differs"
    if abs(out["max_deviation"] - ref["max_deviation"]) > DISCRIM_RTOL * max(1.0, ref["max_deviation"]):
        return "max_deviation differs"
    return None


def _check_expect(out, units, values):
    val = sum((c * _c((u["re"], u["im"])) for c, u in zip(values, units)), 0j)
    err = sum(abs(c) * u["err"] for c, u in zip(values, units))
    if abs(_c((out["re"], out["im"])) - val) > out["err"] + err:
        return "value outside the error bars"
    return None


def _check_solve(out, ref, values):
    if [e["mu"] for e in out["values"]] != ref["mus"]:
        return "target list differs"
    for i, entry in enumerate(out["values"]):
        terms = [c * _c(unit[i]) for c, unit in zip(values, ref["units"])]
        bound = SOLVE_RTOL * sum(abs(t) for t in terms) + 1e-300
        if abs(_c(entry["value"]) - sum(terms, 0j)) > bound:
            return f"E(p_{tuple(ref['mus'][i])}) differs"
    growth = ref["coefficient_growth"]
    if abs(out["coefficient_growth"] - growth) > SOLVE_RTOL * growth:
        return "coefficient_growth differs"
    return None


def check(cmd: Command, ref: dict, exit_code: int, text: str | None) -> str | None:
    """Compare one command's exit code and output with the recorded reference.

    Returns None when they agree, else the reason they do not.
    """
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, reference {ref['exit']}"
    if text is None:
        return "no output written"
    if cmd.check == "bytes":
        return None if text == ref["text"] else "output differs from the reference bytes"
    try:
        out = json.loads(text)
    except json.JSONDecodeError as e:
        return f"output is not JSON: {e}"
    try:
        if cmd.check == "iso":
            return _check_iso(out, ref["out"])
        if cmd.check == "residuals":
            return _check_residuals(out, ref["out"])
        if cmd.check == "discrim":
            return _check_discrim(out, ref["out"])
        if cmd.check == "expect":
            return _check_expect(out, ref["units"], cmd.linear.values)
        if cmd.check == "solve":
            return _check_solve(out, ref, cmd.linear.values)
    except (KeyError, IndexError, TypeError) as e:
        return f"output lacks expected fields: {e!r}"
    raise ValueError(f"unknown check {cmd.check!r}")
