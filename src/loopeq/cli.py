"""Command-line entry point.

Each ``cmd_*`` handler computes and returns ``(payload, failure)``: its
JSON-ready result, and ``None`` or a one-line reason why the check it runs
failed.  ``main`` alone writes the payload (to ``--out`` or stdout, streamed
as it is encoded) and picks the exit code: 0 success; 1 mathematical verification failure, after one
``not verified: <reason>`` line on stderr; 2 usage or configuration error: a
bad file or flag raises ``ValueError``, printed as one ``error:`` line.  The
verdicts of ``iso``, ``residuals`` and ``discrim`` come from the error bars
they compute, with no threshold flag: ``iso`` fails when its bound
``||errors / scale||_F + gamma_n sigma_max`` reaches the smallest scaled
singular value (Weyl), ``residuals`` when some ``|E(Q_mu)|`` exceeds its
budget ``sum |c| e_nu + gamma_{n+2} scale``, and ``discrim`` when the distance
``||R - I||_2`` of its ratio matrix from the delta limit plus that distance's
bound ``||bars||_F + gamma_n ||R - I||_2`` reaches 1, the distance from ``I``
to the nearest singular matrix; the reason names the quantities that failed.
A closed stdout loses the JSON but not the exit code.  ``tutte`` fails on a
nonzero residual series and names its lowest nonzero edge order.  All outputs
are JSON; quadrature results can be cached across subcommands with --cache DIR.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from itertools import islice

from .contours import (
    admissibility_check,
    basis_arcs,
    circle_contour,
    circle_power_class,
    real_axis_contour,
    real_power_class,
    HomologyClass,
    sample_polyline,
    sectors,
)
from .exact import _printable_fraction
from .loopgen import Potential, q_polynomial, q_rational
from .momsolve import loop_tuples, residuals, solve_moments
from .quadrature import (
    RULE_TAG,
    MomentTable,
    QuadratureError,
    expectation,
    moment_matrix,
    oracle_from_quadrature,
)
from .symfunc import Partition, PowerSumPoly
from .wick import map_series, tutte_residual
from .discriminator import discriminator_report

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _read_json(path: str, where: str, fields=()) -> dict:
    """The JSON object at ``path`` holding all of ``fields``; errors start with ``where``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: bad JSON or not UTF-8
        raise ValueError(f"{where}: {e}")
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object")
    for f in fields:
        if f not in data:
            raise ValueError(f"{where}: missing field '{f}'")
    return data


def _json_finite(x) -> bool:
    """Whether x is a JSON number (no string, boolean or null) that is a finite double."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an integer beyond the double range
        return False


def _load_potential(path: str) -> Potential:
    where = f"bad potential file {path}"
    data = _read_json(path, where)
    try:
        return Potential.from_json(data)
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError(f"{where}: {e}")


def _parse_mu(text: str, flag: str) -> tuple[int, ...]:
    """``flag``'s comma-separated index tuple; blank text is the empty tuple,
    and an empty field between commas is refused, not dropped."""
    if not text.strip():
        return ()
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise ValueError(f"bad {flag} {text!r}; expected comma-separated integers, no empty field")


def _write_json(data, fh):
    # the bytes of json.dumps(data, indent=2, sort_keys=True) and a newline,
    # written 1024 encoder chunks at a time, so the whole text is never held;
    # the encoder yields no empty chunk, so only its end joins to "".  Every
    # payload holds only JSON types, so no encoding error can cut a file short
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(data)
    while batch := "".join(islice(chunks, 1024)):
        fh.write(batch)
    fh.write("\n")


def _emit(data, path: str | None):
    if path:
        with open(path, "w") as fh:
            _write_json(data, fh)
    elif sys.stdout is not None:  # None when fd 1 was closed at start: write nothing, as print
        try:
            _write_json(data, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left: point stdout at devnull, so the flush at exit is silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _read_moment_cache(path: str) -> dict:
    """The moment cache at ``path``: a JSON object whose every entry is
    [re, im, err], three finite JSON numbers with err >= 0."""
    store = _read_json(path, f"bad moment cache {path}")
    for key, entry in store.items():
        if (type(entry) is not list or len(entry) != 3
                or not all(map(_json_finite, entry)) or entry[2] < 0):
            raise ValueError(f"bad moment cache {path}: entry {key!r} must be [re, im, err],"
                             f" three finite numbers with err >= 0, got {json.dumps(entry)}")
    return store


class CachedMomentTable(MomentTable):
    """Moment table backed by a JSON cache keyed by hashes of the potential, the
    arc's segments and tol, by k and by the quadrature rule's ``RULE_TAG``.

    The hash is SHA-256 from CPython's built-in ``_sha2`` (``_sha256`` before
    3.12), the code ``hashlib`` falls back to: the same digest, so every key and
    every cache stays valid, without the OpenSSL ``libcrypto`` that ``hashlib``
    always loads (about 3.5 MB and 4 ms)."""

    def __init__(self, arcs, V, tol, cache_dir):
        # imported here, so commands without --cache load no hash at all;
        # hashlib only on builds that leave the built-in digests out
        try:
            from _sha2 import sha256
        except ImportError:
            try:
                from _sha256 import sha256
            except ImportError:
                from hashlib import sha256

        super().__init__(arcs, V, tol)
        self.cache_dir = cache_dir
        self.path = os.path.join(cache_dir, "moments.json")
        self._store = _read_moment_cache(self.path) if os.path.exists(self.path) else {}
        self._dirty = False
        pot = json.dumps(V.to_json(), sort_keys=True)
        self._arc_keys = [
            sha256(f"{pot}|{arc.segments!r}|{tol!r}".encode()).hexdigest() for arc in arcs
        ]

    def moment(self, arc_index, k):
        # the stored moment, or a new one recorded for the next flush
        key = f"{self._arc_keys[arc_index]}:{k}:{RULE_TAG}"
        if key in self._store:
            re, im, err = self._store[key]
            return complex(re, im), err
        val, err = super().moment(arc_index, k)
        self._store[key] = [val.real, val.imag, err]
        self._dirty = True
        return val, err

    def flush(self):
        if self._dirty:
            os.makedirs(self.cache_dir, exist_ok=True)
            # write a sibling temp file and rename it over the cache, so an
            # interrupted dump never leaves a truncated moments.json behind;
            # json.dumps uses the C encoder (json.dump the Python one), same bytes
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, prefix=".moments.", suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(self._store, sort_keys=True))
                os.replace(tmp, self.path)
            except BaseException:
                os.unlink(tmp)
                raise
            self._dirty = False


@contextlib.contextmanager
def _moment_table(arcs, V, args):
    """The moment table of one command (on disk under ``--cache``).  Once the
    command has filled it, new moments are flushed to the cache and the table
    is written to ``--dump-moments``; a failing command does neither."""
    if args.cache:
        table = CachedMomentTable(arcs, V, args.tol, args.cache)
    else:
        table = MomentTable(arcs, V, args.tol)
    yield table
    table.flush()
    if args.dump_moments:
        with open(args.dump_moments, "w") as fh:
            fh.write("arc_index,k,re,im,err\n")
            for (arc, k), (val, err) in sorted(table.data.items()):
                fh.write(f"{arc},{k},{val.real!r},{val.imag!r},{err!r}\n")


def _json_int(value, what: str, minimum: int) -> int:
    """A JSON integer >= minimum; floats, strings and booleans are refused."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}, got {json.dumps(value)}")
    return value


def _json_table(entries, key: str, value: str, minimum: int, where: str) -> dict:
    """{tuple: complex} from JSON entries {key: [int, ...], value: [re, im]}:
    every int >= minimum, re and im finite JSON numbers, and each key tuple
    given once."""
    table = {}
    try:
        for entry in entries:
            k = tuple(_json_int(x, f"{where}: '{key}' entry", minimum) for x in entry[key])
            pair = entry[value]
            if type(pair) is not list or len(pair) != 2 or not all(map(_json_finite, pair)):
                raise ValueError(
                    f"{where}: '{value}' for {key}={list(k)} must be [re, im], two finite numbers,"
                    f" got {json.dumps(pair)}")
            if k in table:
                raise ValueError(f"{where}: {key}={list(k)} appears twice")
            table[k] = complex(float(pair[0]), float(pair[1]))
    except (KeyError, TypeError) as e:
        raise ValueError(f"{where}: {e!r}")
    return table


def _load_class(path: str, V: Potential) -> HomologyClass:
    where = f"bad class file {path}"
    data = _read_json(path, where, ("N", "arcs", "terms"))
    N = _json_int(data["N"], f"{where}: 'N'", 1)
    kind = data["arcs"]
    if kind == "real":
        arcs = [real_axis_contour()]
    elif kind == "circle":
        radius = data.get("radius", 1.0)
        if not _json_finite(radius) or radius <= 0:
            raise ValueError(
                f"{where}: 'radius' must be a finite number > 0, got {json.dumps(radius)}")
        arcs = [circle_contour(0j, float(radius))]
    elif kind == "basis":
        arcs = basis_arcs(V)
    else:
        raise ValueError(f"{where}: 'arcs' must be real|circle|basis, got {json.dumps(kind)}")
    return HomologyClass.make(N, arcs, _json_table(data["terms"], "n", "c", 0, where))


def _couplings(args) -> dict[int, Fraction]:
    out = {}
    for k in (3, 4, 5, 6):
        v = getattr(args, f"t{k}", None)
        if v is not None:
            try:
                out[k] = _printable_fraction(v)
            except (ValueError, ZeroDivisionError) as e:
                raise ValueError(f"bad --t{k} weight {v!r}; expected a rational such as 1/2 ({e})")
    return out


def _check_counts(args):
    """Refuse an integer flag below its minimum, naming the flag: every --N,
    --weight-max and --r, before a command reads any file."""
    for name, minimum in (("N", 1), ("weight_max", 0), ("r", 1)):
        value = getattr(args, name, None)  # None: not a flag of this command, or not given
        if value is not None and value < minimum:
            raise ValueError(f"--{name.replace('_', '-')} must be >= {minimum}, got {value}")


def _tol_arg(text: str) -> float:
    """A quadrature tolerance: 0 < tol < 1, which refuses nan and inf too;
    argparse names the flag in the error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must satisfy 0 < tol < 1, got {text!r}")
    return value


# -- subcommand handlers -------------------------------------------------------


def cmd_gen(args) -> tuple[dict, str | None]:
    V = _load_potential(args.potential)
    mu = _parse_mu(args.mu, "--mu")
    if V.kind == "polynomial":
        Q = q_polynomial(mu, V, args.N)
    else:
        Q = q_rational(mu, V, args.N)
    return {"mu": list(mu), "N": args.N, "Q": Q.to_json(), "pretty": str(Q)}, None


def cmd_solve(args) -> tuple[dict, str | None]:
    V = _load_potential(args.potential)
    where = f"bad basis file {args.basis}"
    data = _read_json(args.basis, where, ("values",))
    if _json_int(data.get("d", V.d), f"{where}: 'd'", 1) != V.d:
        raise ValueError(f"{where}: 'd' must equal the potential's d = {V.d}, got {data['d']}")
    values = _json_table(data["values"], "mu", "value", 1, where)
    fields = args.targets.split(";")
    if not all(t.strip() for t in fields):
        raise ValueError(f"bad --targets {args.targets!r}; expected semicolon-separated index tuples,"
                         " no empty target")
    targets = [_parse_mu(t, "--targets") for t in fields]
    out, red = solve_moments(V, args.N, values, targets)
    growth = red.max_abs_coeff
    del red  # its memo of reduced forms is freed before the payload is built
    values = [{"mu": list(mu), "value": [v.real, v.imag]} for mu, v in sorted(out.items())]
    return {"values": values, "coefficient_growth": growth}, None


def cmd_residuals(args) -> tuple[dict, str | None]:
    V = _load_potential(args.potential)
    G = _class_from_flag(args, V)
    needed = set()
    for mu in loop_tuples(args.weight_max):
        Q = q_polynomial(mu, V, G.N) if V.kind == "polynomial" else q_rational(mu, V, G.N)
        needed.update(Q.terms)
    with _moment_table(G.arc_basis, V, args) as table:
        oracle = oracle_from_quadrature(G, sorted(needed), table)
    del table  # freed before the payload is built
    report = residuals(oracle, V, G.N, args.weight_max)
    if not report.outside:
        return report.to_json(), None
    mu, residual, budget = max(report.outside, key=lambda e: e[1] / e[2])  # the worst equation
    return report.to_json(), (f"|E(Q{mu})| = {residual:.3e} exceeds its error budget {budget:.3e}"
                              f" ({len(report.outside)} of {len(report.entries)} equations do)")


def _class_from_flag(args, V) -> HomologyClass:
    if args.cls:
        if args.N is not None:
            raise ValueError("--N is not allowed with --class; the class file gives N")
        return _load_class(args.cls, V)
    N = 2 if args.N is None else args.N
    if args.gamma == "real":
        return real_power_class(N)
    if args.gamma == "circle":
        return circle_power_class(N)
    raise ValueError("provide --class FILE or --gamma real|circle")


def cmd_contours(args) -> tuple[dict, str | None]:
    V = _load_potential(args.potential)
    arcs = basis_arcs(V)
    data = {
        "d": V.d,
        "arcs": [
            {
                "label": arc.label,
                "polyline": sample_polyline(arc),
                "admissible": admissibility_check(arc, V) is None,
            }
            for arc in arcs
        ],
    }
    if V.kind == "polynomial":
        data["sectors"] = [
            {"index": i, "center_angle": s.center_angle, "half_width": s.half_width}
            for i, s in enumerate(sectors(V))
        ]
    return data, None


def cmd_expect(args) -> tuple[dict, str | None]:
    V = _load_potential(args.potential)
    G = _load_class(args.cls, V)
    mu = _parse_mu(args.poly, "--poly")
    p = PowerSumPoly.monomial(Partition.of(mu), G.N)
    with _moment_table(G.arc_basis, V, args) as table:
        val, err = expectation(G, p, table)
    return {"re": val.real, "im": val.imag, "err": err}, None


def cmd_iso(args) -> tuple[dict, str | None]:
    V = _load_potential(args.potential)
    with _moment_table(basis_arcs(V), V, args) as table:
        M = moment_matrix(table, args.N)
    del table  # freed before the payload is built
    if M.scaled_error_bound < M.min_scaled_singular:
        return M.to_json(), None
    # the error bars allow a singular matrix: no witness
    why = "".join(f"; arc words with more than {r} bodies on the circle about the pole {p:.3g}"
                  ' integrate to zero (README "Caps")'
                  for p, r in V.partial_fractions[1] if 0 < r < args.N)
    return M.to_json(), (f"min scaled singular value {M.min_scaled_singular:.3e} is within its error bound"
                         f" ||errors / scale||_F + gamma_n sigma_max = {M.scaled_error_bound:.3e}{why}")


def cmd_maps(args) -> tuple[dict, str | None]:
    weights = _couplings(args)
    marked = _parse_mu(args.marked, "--marked")
    return map_series(weights, marked, args.order).to_json(), None


def cmd_tutte(args) -> tuple[dict, str | None]:
    weights = _couplings(args)
    mu = _parse_mu(args.mu, "--mu")
    series = tutte_residual(weights, mu, args.order)
    out = {**series.to_json(), "identically_zero": series.is_zero()}
    if out["identically_zero"]:
        return out, None
    lowest = min(e for e, p in series.coeffs.items() if not p.is_zero())
    return out, f"the residual series of E(Q{mu}) is nonzero from edge order {lowest} on"


def cmd_discrim(args) -> tuple[dict, str | None]:
    V = _load_potential(args.potential)
    report = discriminator_report(V, args.r, args.N, args.tol)
    if report.verified:
        return report.to_json(), None
    # within 1 of I lies a singular matrix: the ratios may not tell the classes apart
    return report.to_json(), (f"distance ||R - I||_2 = {report.distance:.3e} of the ratio matrix from"
                              f" its delta limit plus its error bound {report.bound:.3e} reaches 1")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: it holds no state of a command
    ap = argparse.ArgumentParser(
        prog="loopeq",
        description="Loop equations of matrix models: generate, solve, integrate, cross-check.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, potential=True, moments=False):
        if potential:
            p.add_argument("--potential", required=True, help="potential JSON file")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")
        if moments:
            p.add_argument("--cache", default=None, help="moment cache directory")
            p.add_argument(
                "--dump-moments",
                default=None,
                help="write the 1-D moment table used to this CSV file",
            )

    p = sub.add_parser("gen", help="emit the loop-equation polynomial Q_mu")
    common(p)
    p.add_argument("--mu", required=True, help="comma-separated index tuple, e.g. 3,1")
    p.add_argument("--N", type=int, required=True, help="number of eigenvalues (folds p_0)")

    p = sub.add_parser("solve", help="reduce moments to the finite basis and evaluate")
    common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--basis", required=True, help="JSON with basis values on the box partitions")
    p.add_argument("--targets", required=True, help="semicolon-separated tuples, e.g. '4;3,1'")

    p = sub.add_parser("residuals", help="loop-equation residuals of a quadrature functional")
    common(p, moments=True)
    p.add_argument("--N", type=int, default=None, help="with --gamma (default 2)")
    p.add_argument("--weight-max", type=int, default=6)
    p.add_argument("--tol", type=_tol_arg, default=1e-12)
    gamma = p.add_mutually_exclusive_group()
    gamma.add_argument("--class", dest="cls", default=None, help="homology class JSON")
    gamma.add_argument("--gamma", choices=["real", "circle"], default=None)

    p = sub.add_parser("contours", help="emit sampled basis arcs as polylines")
    common(p)

    p = sub.add_parser("expect", help="moment functional value on a class")
    common(p, moments=True)
    p.add_argument("--class", dest="cls", required=True, help="homology class JSON")
    p.add_argument("--poly", default="", help="partition, e.g. 2,1 (empty = Z)")
    p.add_argument("--tol", type=_tol_arg, default=1e-10)

    p = sub.add_parser("iso", help="moment matrix + singular values (isomorphism witness)")
    common(p, moments=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tol", type=_tol_arg, default=1e-12)

    p = sub.add_parser("maps", help="map generating series by edge count")
    common(p, potential=False)
    for k in (3, 4, 5, 6):
        p.add_argument(f"--t{k}", default=None, help=f"degree-{k} vertex weight (rational)")
    p.add_argument("--marked", default="", help="marked face sizes, e.g. 3 or 2,1")
    p.add_argument("--order", type=int, default=4, help="edge-count truncation")

    p = sub.add_parser("tutte", help="loop-equation residual of the map series (exact)")
    common(p, potential=False)
    for k in (3, 4, 5, 6):
        p.add_argument(f"--t{k}", default=None, help=f"degree-{k} vertex weight (rational)")
    p.add_argument("--mu", required=True)
    p.add_argument("--order", type=int, default=4)

    p = sub.add_parser("discrim", help="saddle-point delta-limit ratios")
    common(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--tol", type=_tol_arg, default=1e-9)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        _check_counts(args)
        # looked up when the command runs, so a rebound cmd_* is the one called
        payload, failure = globals()[f"cmd_{args.command}"](args)
        _emit(payload, args.out)
    except QuadratureError as e:
        # unreachable tolerance is a configuration problem, not a falsified check
        print(f"quadrature error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError, OSError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:  # the exact layer recurses once per part or reduction step
        print("error: input nests too deeply: the exact recursion exceeds Python's recursion limit;"
              " use fewer parts or a lower weight", file=sys.stderr)
        return USAGE_ERROR
    if failure is not None:
        print(f"not verified: {failure}", file=sys.stderr)
    return 0 if failure is None else VERIFY_ERROR


if __name__ == "__main__":
    sys.exit(main())
