"""Command-line entry point.

Exit codes: 0 success, 1 mathematical verification failure (residual above
tolerance, singular value below threshold, nonzero residual series, delta
deviation too large), 2 usage or configuration error.  All outputs are JSON;
quadrature results can be cached across subcommands (--cache or LOOPEQ_CACHE).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

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
from .loopgen import Potential, q_polynomial, q_rational
from .momsolve import MomentFunctional, loop_tuples, residuals, solve_moments
from .quadrature import (
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


class ConfigError(Exception):
    pass


def _read_json(path: str, what: str, fields=()) -> dict:
    """The JSON object in the ``what`` file at ``path``, holding every one of ``fields``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"bad {what} file {path}: {e}")
    if not isinstance(data, dict):
        raise ConfigError(f"bad {what} file {path}: expected a JSON object")
    for f in fields:
        if f not in data:
            raise ConfigError(f"bad {what} file {path}: missing field '{f}'")
    return data


def _load_potential(path: str) -> Potential:
    data = _read_json(path, "potential")
    try:
        return Potential.from_json(data)
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"bad potential file {path}: {e}")


def _parse_mu(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ConfigError(f"bad index tuple {text!r}; expected comma-separated integers")


def _emit(data, path: str | None):
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


class CachedMomentTable(MomentTable):
    """Moment table backed by a JSON cache keyed by potential/arc/k/tol hashes."""

    def __init__(self, arcs, V, tol, cache_dir):
        super().__init__(arcs, V, tol)
        self.cache_dir = cache_dir
        self.path = os.path.join(cache_dir, "moments.json")
        self._store = {}
        if os.path.exists(self.path):
            with open(self.path) as fh:
                self._store = json.load(fh)
        self._dirty = False
        pot = json.dumps(V.to_json(), sort_keys=True)
        self._arc_keys = [
            hashlib.sha256(f"{pot}|{arc!r}|{tol!r}".encode()).hexdigest() for arc in arcs
        ]

    def moment(self, arc_index, k):
        # only a key not yet in memory is looked up on disk (or stored after)
        key = None
        if (arc_index, k) not in self.data:
            key = f"{self._arc_keys[arc_index]}:{k}"
            if key in self._store:
                re, im, err = self._store[key]
                self.data[(arc_index, k)] = (complex(re, im), err)
                key = None
        val, err = super().moment(arc_index, k)
        if key is not None:
            self._store[key] = [val.real, val.imag, err]
            self._dirty = True
        return val, err

    def flush(self):
        if self._dirty:
            os.makedirs(self.cache_dir, exist_ok=True)
            # write a sibling temp file and rename it over the cache, so an
            # interrupted dump never leaves a truncated moments.json behind
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, prefix=".moments.", suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(self._store, fh, sort_keys=True)
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
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {json.dumps(value)}")
    return value


def _json_table(entries, key: str, value: str, minimum: int, where: str) -> dict:
    """{tuple: complex} from JSON entries {key: [int, ...], value: [re, im]}:
    every int >= minimum, re and im finite JSON numbers (no string, bool or
    null), and each key tuple given once."""
    table = {}
    try:
        for entry in entries:
            k = tuple(_json_int(x, f"{where}: '{key}' entry", minimum) for x in entry[key])
            pair = entry[value]
            if (type(pair) is not list or len(pair) != 2
                    or any(type(x) not in (int, float) for x in pair)):
                raise ConfigError(
                    f"{where}: '{value}' for {key}={list(k)} must be [re, im], two numbers,"
                    f" got {json.dumps(pair)}")
            re, im = float(pair[0]), float(pair[1])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ConfigError(f"{where}: non-finite '{value}' for {key}={list(k)}")
            if k in table:
                raise ConfigError(f"{where}: {key}={list(k)} appears twice")
            table[k] = complex(re, im)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{where}: {e!r}")
    return table


def _load_class(path: str, V: Potential) -> HomologyClass:
    data = _read_json(path, "class", ("N", "arcs", "terms"))
    where = f"bad class file {path}"
    N = _json_int(data["N"], f"{where}: 'N'", 1)
    kind = data["arcs"]
    if kind == "real":
        arcs = [real_axis_contour()]
    elif kind == "circle":
        radius = data.get("radius", 1.0)
        if type(radius) not in (int, float) or not 0 < radius < math.inf:
            raise ConfigError(
                f"{where}: 'radius' must be a finite number > 0, got {json.dumps(radius)}")
        arcs = [circle_contour(0j, float(radius))]
    elif kind == "basis":
        arcs = basis_arcs(V)
    else:
        raise ConfigError(f"{where}: 'arcs' must be real|circle|basis, got {json.dumps(kind)}")
    return HomologyClass.make(N, arcs, _json_table(data["terms"], "n", "c", 0, where))


def _couplings(args) -> dict[int, Fraction]:
    out = {}
    for k in (3, 4, 5, 6):
        v = getattr(args, f"t{k}", None)
        if v is not None:
            try:
                out[k] = Fraction(v)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"bad --t{k} weight {v!r}; expected a rational such as 1/2")
    return out


def _finite_arg(text: str) -> float:
    """A finite float flag value; argparse names the flag in the error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tol_arg(text: str) -> float:
    """A quadrature tolerance: finite with 0 < tol < 1."""
    value = _finite_arg(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must satisfy 0 < tol < 1, got {text!r}")
    return value


# -- subcommand handlers -------------------------------------------------------


def cmd_gen(args) -> int:
    if args.N < 1:
        raise ConfigError(f"--N must be >= 1, got {args.N}")
    V = _load_potential(args.potential)
    mu = _parse_mu(args.mu)
    if V.kind == "polynomial":
        Q = q_polynomial(mu, V, args.N)
    else:
        Q = q_rational(mu, V, args.N)
    _emit({"mu": list(mu), "N": args.N, "Q": Q.to_json(), "pretty": str(Q)}, args.out)
    return 0


def cmd_solve(args) -> int:
    V = _load_potential(args.potential)
    data = _read_json(args.basis, "basis", ("values",))
    where = f"bad basis file {args.basis}"
    d = _json_int(data.get("d", V.d), f"{where}: 'd'", 1)
    values = _json_table(data["values"], "mu", "value", 1, where)
    F = MomentFunctional(N=args.N, d=d, basis_values=values)
    targets = [_parse_mu(t) for t in args.targets.split(";") if t.strip()]
    out, red = solve_moments(F, V, targets)
    _emit(
        {
            "values": [
                {"mu": list(mu), "value": [v.real, v.imag]} for mu, v in sorted(out.items())
            ],
            "coefficient_growth": red.max_abs_coeff,
        },
        args.out,
    )
    return 0


def cmd_residuals(args) -> int:
    if args.weight_max < 0:
        raise ConfigError(f"--weight-max must be >= 0, got {args.weight_max}")
    V = _load_potential(args.potential)
    G = _class_from_flag(args, V)
    needed = set()
    for mu in loop_tuples(args.weight_max):
        Q = q_polynomial(mu, V, G.N) if V.kind == "polynomial" else q_rational(mu, V, G.N)
        needed.update(Q.terms)
    with _moment_table(G.arc_basis, V, args) as table:
        oracle, errors = oracle_from_quadrature(G, sorted(needed), table)
    report = residuals(oracle, V, G.N, args.weight_max, errors=errors)
    _emit(report.to_json(), args.out)
    return 0 if report.max_relative < args.fail_above else VERIFY_ERROR


def _class_from_flag(args, V) -> HomologyClass:
    if args.cls:
        return _load_class(args.cls, V)
    if args.gamma == "real":
        return real_power_class(args.N)
    if args.gamma == "circle":
        return circle_power_class(args.N)
    raise ConfigError("provide --class FILE or --gamma real|circle")


def cmd_contours(args) -> int:
    V = _load_potential(args.potential)
    arcs = basis_arcs(V)
    data = {
        "d": V.d,
        "arcs": [
            {
                "label": arc.label,
                "polyline": sample_polyline(arc),
                "admissible": admissibility_check(arc, V, kmax=8).ok,
            }
            for arc in arcs
        ],
    }
    if V.kind == "polynomial":
        data["sectors"] = [
            {"index": s.index, "center_angle": s.center_angle, "half_width": s.half_width}
            for s in sectors(V)
        ]
    _emit(data, args.out)
    return 0


def cmd_expect(args) -> int:
    V = _load_potential(args.potential)
    G = _load_class(args.cls, V)
    mu = _parse_mu(args.poly) if args.poly else ()
    p = PowerSumPoly.monomial(Partition.of(mu), G.N)
    with _moment_table(G.arc_basis, V, args) as table:
        val, err = expectation(G, p, table)
    _emit({"re": val.real, "im": val.imag, "err": err}, args.out)
    return 0


def cmd_iso(args) -> int:
    V = _load_potential(args.potential)
    with _moment_table(basis_arcs(V), V, args) as table:
        M = moment_matrix(table, args.N)
    _emit(M.to_json(), args.out)
    return 0 if M.min_scaled_singular > args.min_singular else VERIFY_ERROR


def cmd_maps(args) -> int:
    weights = _couplings(args)
    marked = _parse_mu(args.marked) if args.marked else ()
    series = map_series(weights, marked, args.order)
    _emit(series.to_json(), args.out)
    return 0


def cmd_tutte(args) -> int:
    weights = _couplings(args)
    mu = _parse_mu(args.mu)
    series = tutte_residual(weights, mu, args.order)
    ok = series.is_zero()
    out = series.to_json()
    out["identically_zero"] = ok
    _emit(out, args.out)
    return 0 if ok else VERIFY_ERROR


def cmd_discrim(args) -> int:
    V = _load_potential(args.potential)
    report = discriminator_report(V, args.r, args.N, args.tol)
    _emit(report.to_json(), args.out)
    return 0 if report.max_deviation < args.delta_tol else VERIFY_ERROR


def build_parser() -> argparse.ArgumentParser:
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
            p.add_argument(
                "--cache",
                default=os.environ.get("LOOPEQ_CACHE"),
                help="moment cache directory (env LOOPEQ_CACHE)",
            )
            p.add_argument(
                "--dump-moments",
                default=None,
                help="write the 1-D moment table used to this CSV file",
            )

    p = sub.add_parser("gen", help="emit the loop-equation polynomial Q_mu")
    common(p)
    p.add_argument("--mu", required=True, help="comma-separated index tuple, e.g. 3,1")
    p.add_argument("--N", type=int, required=True, help="number of eigenvalues (folds p_0)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="reduce moments to the finite basis and evaluate")
    common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--basis", required=True, help="JSON with basis values on the box partitions")
    p.add_argument("--targets", required=True, help="semicolon-separated tuples, e.g. '4;3,1'")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("residuals", help="loop-equation residuals of a quadrature functional")
    common(p, moments=True)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--weight-max", type=int, default=6)
    p.add_argument("--tol", type=_tol_arg, default=1e-12)
    p.add_argument("--fail-above", type=_finite_arg, default=1e-8)
    p.add_argument("--class", dest="cls", default=None, help="homology class JSON")
    p.add_argument("--gamma", choices=["real", "circle"], default=None)
    p.set_defaults(func=cmd_residuals)

    p = sub.add_parser("contours", help="emit sampled basis arcs as polylines")
    common(p)
    p.set_defaults(func=cmd_contours)

    p = sub.add_parser("expect", help="moment functional value on a class")
    common(p, moments=True)
    p.add_argument("--class", dest="cls", required=True, help="homology class JSON")
    p.add_argument("--poly", default="", help="partition, e.g. 2,1 (empty = Z)")
    p.add_argument("--tol", type=_tol_arg, default=1e-10)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("iso", help="moment matrix + singular values (isomorphism witness)")
    common(p, moments=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tol", type=_tol_arg, default=1e-12)
    p.add_argument("--min-singular", type=_finite_arg, default=1e-8)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("maps", help="map generating series by edge count")
    common(p, potential=False)
    for k in (3, 4, 5, 6):
        p.add_argument(f"--t{k}", default=None, help=f"degree-{k} vertex weight (rational)")
    p.add_argument("--marked", default="", help="marked face sizes, e.g. 3 or 2,1")
    p.add_argument("--order", type=int, default=4, help="edge-count truncation")
    p.set_defaults(func=cmd_maps)

    p = sub.add_parser("tutte", help="loop-equation residual of the map series (exact)")
    common(p, potential=False)
    for k in (3, 4, 5, 6):
        p.add_argument(f"--t{k}", default=None, help=f"degree-{k} vertex weight (rational)")
    p.add_argument("--mu", required=True)
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(func=cmd_tutte)

    p = sub.add_parser("discrim", help="saddle-point delta-limit ratios")
    common(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--tol", type=_tol_arg, default=1e-9)
    p.add_argument("--delta-tol", type=_finite_arg, default=0.2)
    p.set_defaults(func=cmd_discrim)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except QuadratureError as e:
        # unreachable tolerance is a configuration problem, not a falsified check
        print(f"quadrature error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError, OSError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
