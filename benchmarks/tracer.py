"""Spans and counters around loopeq's layer boundaries, installed from outside.

``Tracer.install`` wraps the public functions of each module at *every* name
that refers to them: ``cli``, ``momsolve`` and ``quadrature`` bind many of them
with ``from ... import``, so wrapping only the defining module would miss those
calls.  A span records (name, start, end, parent); spans stay in memory and the
pass writes them out when it ends.  ``layer_metrics`` turns spans and counters
into the per-layer metrics below.
"""

from __future__ import annotations

import math
import os
import sys
import time

# name -> (unit, better, which end-to-end metric it should move, on which workload)
PER_LAYER = {
    "quadrature.arc_moment.calls": ("count", "lower", "quadrature.wall_s strongly; assembly.wall_s by <=8%; exact not at all"),
    "quadrature.arc_moment.s": ("s", "lower", "quadrature.wall_s strongly; assembly.wall_s by <=8%; exact not at all"),
    "quadrature.integrand_evals": ("count", "lower", "quadrature.wall_s; assembly.wall_s by <=8%"),
    "quadrature.table.hit_ratio": ("ratio", "higher", "quadrature.wall_s"),
    "quadrature.expectation.calls": ("count", "lower", "assembly.wall_s; quadrature.wall_s (small-call regime)"),
    "quadrature.expectation.self_s": ("s", "lower", "assembly.wall_s strongly; quadrature.wall_s through small calls"),
    "quadrature.expectation.terms": ("count", "lower", "assembly.wall_s and assembly.peak_rss_mb (computed, not counted)"),
    "quadrature.moment_matrix.s": ("s", "lower", "assembly.wall_s; quadrature.wall_s"),
    "symfunc.reduce_length.calls": ("count", "lower", "exact.wall_s; quadrature.wall_s"),
    "symfunc.reduce_length.s": ("s", "lower", "exact.wall_s (half of solve); quadrature.wall_s"),
    "loopgen.q.calls": ("count", "lower", "quadrature.wall_s (residuals); exact.wall_s"),
    "loopgen.q.s": ("s", "lower", "quadrature.wall_s (residuals); exact.wall_s"),
    "momsolve.solve.s": ("s", "lower", "exact.wall_s"),
    "momsolve.residuals.s": ("s", "lower", "quadrature.wall_s"),
    "momsolve.coeff_bits_max": ("bits", "lower", "exact.wall_s"),
    "wick.gtm.calls": ("count", "lower", "exact.wall_s"),
    "wick.gtm.s": ("s", "lower", "exact.wall_s"),
    "wick.gtm.matchings": ("count", "lower", "exact.wall_s (computed (h-1)!! per enumerated key)"),
    "wick.tutte.s": ("s", "lower", "exact.wall_s"),
    "discriminator.report.s": ("s", "lower", "quadrature.wall_s (~3%)"),
    "discriminator.ratios": ("count", "lower", "quadrature.wall_s"),
    "discriminator.max_deviation": ("1", "lower", "quadrature failed ops (the N=2 delta-limit check)"),
    "contours.basis_arcs.s": ("s", "lower", "wall_s on every workload, small"),
    "cli.iso.s": ("s", "lower", "assembly.wall_s; quadrature.wall_s"),
    "cli.expect.s": ("s", "lower", "assembly.wall_s"),
    "cli.residuals.s": ("s", "lower", "quadrature.wall_s"),
    "cli.solve.s": ("s", "lower", "exact.wall_s"),
    "cli.tutte.s": ("s", "lower", "exact.wall_s"),
    "cli.discrim.s": ("s", "lower", "quadrature.wall_s"),
    "cli.cache.disk_hits": ("count", "higher", "quadrature.wall_s"),
    "cli.cache.bytes": ("bytes", "lower", "quadrature.wall_s"),
    "cli.cache.flush_s": ("s", "lower", "quadrature.wall_s"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s of the same run"),
}

# span name -> (module, attribute); each is wrapped wherever loopeq binds it
FUNCTIONS = {
    "quadrature.arc_moment": ("quadrature", "arc_moment"),
    "quadrature.expectation": ("quadrature", "expectation"),
    "quadrature.moment_matrix": ("quadrature", "moment_matrix"),
    "symfunc.reduce_length": ("symfunc", "reduce_length"),
    "loopgen.q_polynomial": ("loopgen", "q_polynomial"),
    "loopgen.q_rational": ("loopgen", "q_rational"),
    "momsolve.solve": ("momsolve", "solve_moments"),
    "momsolve.residuals": ("momsolve", "residuals"),
    "wick.gtm": ("wick", "gaussian_trace_moment"),
    "wick.tutte": ("wick", "tutte_residual"),
    "discriminator.report": ("discriminator", "discriminator_report"),
    "contours.basis_arcs": ("contours", "basis_arcs"),
    **{f"cli.{sub}": ("cli", f"cmd_{sub}") for sub in ("iso", "expect", "residuals", "solve", "tutte", "discrim")},
}


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _bits(c) -> int:
    return max(x.bit_length() for f in (c.re, c.im) for x in (f.numerator, f.denominator))


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list = []
        self.counts = {
            "integrand_evals": 0,
            "table_calls": 0,
            "table_misses": 0,
            "disk_hits": 0,
            "terms": 0,
            "matchings": 0,
            "coeff_bits_max": 0,
            "ratios": 0,
            "cache_bytes": 0,
            "max_deviation": 0.0,
        }
        self.sites: list = []
        self._arc_calls = 0
        self._gtm_keys: set = set()
        self._last_reduced = None

    # -- wrapping ------------------------------------------------------------

    def _span(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _rebind(self, original, replacement):
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "loopeq" and not modname.startswith("loopeq."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self.sites.append(f"{modname}.{attr}")

    def install(self):
        import importlib

        mods = {m: importlib.import_module(f"loopeq.{m}") for m in
                ("cli", "contours", "discriminator", "loopgen", "momsolve", "quadrature", "symfunc", "wick")}
        hooks = {
            "quadrature.arc_moment": self._on_arc,
            "quadrature.expectation": self._on_expectation,
            "symfunc.reduce_length": self._on_reduce_length,
            "wick.gtm": self._on_gtm,
            "discriminator.report": self._on_report,
        }
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(mods[mod], attr)
            self._rebind(original, self._span(name, original, hooks.get(name)))
        self._install_methods(mods)

    def _install_methods(self, mods):
        tracer, counts, spans, stack = self, self.counts, self.spans, self.stack

        potential = mods["loopgen"].Potential
        exp_neg_v = potential.exp_neg_V

        def counted_exp_neg_v(self, z):
            if stack and spans[stack[-1]][0] == "quadrature.arc_moment":
                counts["integrand_evals"] += 1
            return exp_neg_v(self, z)

        potential.exp_neg_V = counted_exp_neg_v

        table = mods["quadrature"].MomentTable
        table_moment = table.moment

        def counted_moment(self, arc_index, k):
            before = tracer._arc_calls
            result = table_moment(self, arc_index, k)
            counts["table_calls"] += 1
            if tracer._arc_calls != before:
                counts["table_misses"] += 1
            return result

        table.moment = counted_moment

        cached = mods["cli"].CachedMomentTable
        cached_moment = cached.moment

        def disk_moment(self, arc_index, k):
            had = (arc_index, k) in self.data
            before = tracer._arc_calls
            result = cached_moment(self, arc_index, k)
            if not had and tracer._arc_calls == before:
                counts["disk_hits"] += 1
            return result

        cached.moment = disk_moment

        def on_flush(args, _result):
            path = args[0].path
            if os.path.exists(path):
                counts["cache_bytes"] = os.path.getsize(path)

        cached.flush = self._span("cli.cache.flush", cached.flush, on_flush)

        reducer = mods["momsolve"].LoopReducer
        reduce = reducer.reduce

        def measured_reduce(self, mu):
            form = reduce(self, mu)
            for c in form.values():
                counts["coeff_bits_max"] = max(counts["coeff_bits_max"], _bits(c))
            return form

        reducer.reduce = measured_reduce

    # -- hooks -----------------------------------------------------------------

    def _on_arc(self, _args, _result):
        self._arc_calls += 1

    def _on_reduce_length(self, _args, result):
        self._last_reduced = result

    def _on_expectation(self, args, _result):
        G, p = args[0], args[1]
        if p.max_length() > G.N:  # expectation assembles reduce_length(p, N) instead
            p = self._last_reduced
        per_comp = sum(math.factorial(G.N) ** 2 * G.N ** len(mu) for mu, c in p.terms.items() if c)
        self.counts["terms"] += per_comp * sum(1 for _, c in G.terms if c)

    def _on_gtm(self, args, _result):
        key = tuple(sorted(int(k) for k in args[0]))
        if key not in self._gtm_keys:
            self._gtm_keys.add(key)
            h = sum(key)
            if h % 2 == 0:
                self.counts["matchings"] += _double_factorial(h - 1)

    def _on_report(self, _args, report):
        self.counts["ratios"] += len(report.ratios)
        self.counts["max_deviation"] = max(self.counts["max_deviation"], report.max_deviation)

    def record(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "sites": self.sites}


# -- metrics from a written trace ---------------------------------------------------


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced pass (everything but trace.overhead_s)."""
    spans = trace["spans"]
    calls: dict = {}
    total: dict = {}
    self_s: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        dur = end - start
        self_s[name] = self_s.get(name, 0.0) + dur
        if parent >= 0:
            self_s[spans[parent][0]] = self_s.get(spans[parent][0], 0.0) - dur
        # count each interval once even if a name were re-entered below itself
        a = parent
        while a >= 0 and spans[a][0] != name:
            a = spans[a][3]
        if a < 0:
            total[name] = total.get(name, 0.0) + dur
    c = trace["counts"]
    q_names = ("loopgen.q_polynomial", "loopgen.q_rational")
    out = {
        "quadrature.arc_moment.calls": calls.get("quadrature.arc_moment", 0),
        "quadrature.arc_moment.s": total.get("quadrature.arc_moment", 0.0),
        "quadrature.integrand_evals": c["integrand_evals"],
        "quadrature.table.hit_ratio": (c["table_calls"] - c["table_misses"]) / c["table_calls"] if c["table_calls"] else 0.0,
        "quadrature.expectation.calls": calls.get("quadrature.expectation", 0),
        "quadrature.expectation.self_s": self_s.get("quadrature.expectation", 0.0),
        "quadrature.expectation.terms": c["terms"],
        "quadrature.moment_matrix.s": total.get("quadrature.moment_matrix", 0.0),
        "symfunc.reduce_length.calls": calls.get("symfunc.reduce_length", 0),
        "symfunc.reduce_length.s": total.get("symfunc.reduce_length", 0.0),
        "loopgen.q.calls": sum(calls.get(n, 0) for n in q_names),
        "loopgen.q.s": sum(total.get(n, 0.0) for n in q_names),
        "momsolve.solve.s": total.get("momsolve.solve", 0.0),
        "momsolve.residuals.s": total.get("momsolve.residuals", 0.0),
        "momsolve.coeff_bits_max": c["coeff_bits_max"],
        "wick.gtm.calls": calls.get("wick.gtm", 0),
        "wick.gtm.s": total.get("wick.gtm", 0.0),
        "wick.gtm.matchings": c["matchings"],
        "wick.tutte.s": total.get("wick.tutte", 0.0),
        "discriminator.report.s": total.get("discriminator.report", 0.0),
        "discriminator.ratios": c["ratios"],
        "discriminator.max_deviation": c["max_deviation"],
        "contours.basis_arcs.s": total.get("contours.basis_arcs", 0.0),
        "cli.cache.disk_hits": c["disk_hits"],
        "cli.cache.bytes": c["cache_bytes"],
        "cli.cache.flush_s": total.get("cli.cache.flush", 0.0),
    }
    for sub in ("iso", "expect", "residuals", "solve", "tutte", "discrim"):
        out[f"cli.{sub}.s"] = total.get(f"cli.{sub}", 0.0)
    return out
