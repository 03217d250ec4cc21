"""Self-test of the benchmark: pinned counts, not times.

Run from the root of a checkout:  python3 -m pytest -q benchmarks/selftest.py
(about a minute; the file name keeps it out of the default test collection).

The counts below are deterministic: the seed picks values, never shapes, so
they must be equal for every seed.  A change that moves one of them must say
so and update the pin.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from run import child_env  # noqa: E402

PINNED = {
    "assembly": {
        "quadrature.arc_moment.calls": 70,
        "quadrature.integrand_evals": 40667,
        "quadrature.expectation.calls": 27,
        "symfunc.reduce_length.calls": 0,
        "loopgen.q.calls": 0,
        "wick.gtm.calls": 0,
        "cli.cache.disk_hits": 0,
    },
    "quadrature": {
        "quadrature.arc_moment.calls": 311,
        "quadrature.integrand_evals": 227889,
        "quadrature.expectation.calls": 2210,
        "symfunc.reduce_length.calls": 558,
        "loopgen.q.calls": 1744,
        "wick.gtm.calls": 0,
        "cli.cache.disk_hits": 50,
    },
    "exact": {
        "quadrature.arc_moment.calls": 0,
        "quadrature.integrand_evals": 0,
        "quadrature.expectation.calls": 0,
        "symfunc.reduce_length.calls": 361,
        "loopgen.q.calls": 138,
        "wick.gtm.calls": 17,
        "cli.cache.disk_hits": 0,
    },
}
# failed ops over commands per pass; quadrature's is discrim --N 2 at r=60 (exit 1)
PINNED_FAILED = {"assembly": (0, 3), "quadrature": (1, 11), "exact": (0, 2)}
SEEDS = (11, 12)


def run_bench(workload, seed, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_counts_pinned_and_seed_independent(workload):
    seen = []
    for seed in SEEDS:
        proc = run_bench(workload, seed)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], proc.stdout
        assert set(result["metrics"]) == set(tracer.PER_LAYER)
        counts = {name: result["metrics"][name]["value"] for name in PINNED[workload]}
        assert counts == PINNED[workload]
        failed, per_pass = PINNED_FAILED[workload]
        assert result["failed"] * per_pass == failed * result["attempted"]
        seen.append((counts, result["failed"], result["attempted"]))
    assert seen[0] == seen[1]


def test_every_import_site_is_wrapped():
    code = ("import json, tracer; t = tracer.Tracer(); t.install(); "
            "print(json.dumps(sorted(t.sites)))")
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    sites = set(json.loads(out.stdout))
    for site in ("cli.expectation", "cli.moment_matrix", "cli.q_polynomial", "cli.solve_moments",
                 "cli.discriminator_report", "cli.basis_arcs", "quadrature.reduce_length",
                 "momsolve.reduce_length", "momsolve.q_polynomial", "momsolve.q_rational",
                 "symfunc.reduce_length", "wick.gaussian_trace_moment", "wick.q_polynomial"):
        assert f"loopeq.{site}" in sites


def test_benchmark_json_names_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in tracer.PER_LAYER.items()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("exact", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
