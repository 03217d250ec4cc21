"""loopeq benchmark: one workload, run for a fixed time, outputs checked.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload assembly|quadrature|exact \
        --seed N --seconds S --trace 0|1

Each pass starts a fresh interpreter (``child.py``) that imports ``loopeq.cli``
from ``src/`` and runs the workload's commands in-process through
``loopeq.cli.main``; between passes a bare interpreter only imports
``loopeq.cli``, to sample set-up time.  Passes repeat until ``--seconds`` have
passed.  The last line of standard output is one JSON object:

- ``--trace 0``: ``wall_s`` (first command start to last output written),
  ``setup_s`` (process start to ``loopeq.cli`` imported) and ``peak_rss_mb``,
  each the median over the run's samples; both times are scaled to the
  reference host speed ``PROBE_REF_S`` by the probe timings of ``child.py``
  (``wall_s`` by that speed ratio to the power ``WALL_PROBE_EXPONENT``);
- ``--trace 1``: untraced and traced passes alternate; the per-layer metrics
  of ``tracer.PER_LAYER`` are (low) medians over the traced passes, and
  ``trace.overhead_s`` is the traced minus the untraced median ``wall_s``.

``attempted`` counts commands run, ``failed`` those that exited non-zero or
whose output disagrees with ``reference.json``; ``correct`` is false when any
output or exit code differs from the reference.  The lines above the JSON give
the machine, every end-to-end figure with its unit, ``failed_ops`` and
``min_scaled_sv`` (the smallest ``min_scaled_singular`` of the ``iso``
commands, the isomorphism witness strength).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import REFERENCE, WORKLOADS, build, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CHILD_TIMEOUT_S = 150
# Probe time that defines the reference host speed: wall_s and setup_s are
# scaled to a host on which child.probe takes this long.
PROBE_REF_S = 5.0e-05
# Under contention the commands slow down more than the probe: over 200 passes
# per workload on the 2-core development host, pass time went as probe time to
# a power between 1.0 and 1.35 (least squares per workload and run set).
WALL_PROBE_EXPONENT = 1.25


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("LOOPEQ_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(spec: dict, spec_path: Path, env: dict) -> tuple[float, dict]:
    """Run one pass; returns (scaled set-up seconds, the pass record)."""
    spec_path.write_text(json.dumps(spec))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark pass exited with {proc.returncode}")
    record = json.loads(Path(spec["result"]).read_text())
    setup = (record["imported"] - started) * PROBE_REF_S / statistics.mean(record["import_probes"])
    return setup, record


def machine() -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={model!r} platform={platform.platform()}"


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    commands = build(workload, seed, work / "inputs")
    refs = json.loads(REFERENCE.read_text())[workload]
    env = child_env()
    # Unmeasured first import: compiles bytecode and warms the file cache.
    _, info = run_child({"commands": [], "trace": False, "result": str(work / "warm.json"),
                         "versions": True}, work / "warm-spec.json", env)
    setups, walls, raw_walls, rss, traced_walls, layers = [], [], [], [], [], []
    attempted = failed = 0
    mismatches: list = []
    min_sv = None
    deadline = time.monotonic() + seconds
    n = 0
    while n < (2 if trace else 1) or time.monotonic() < deadline:
        traced = trace and n % 2 == 1
        pdir = work / f"pass{n}"
        pdir.mkdir()
        outs = [pdir / f"{i}-{c.id}.json" for i, c in enumerate(commands)]
        cache = str(pdir / "cache")  # fresh and empty for every pass
        spec = {"commands": [c.argv_for(str(o), cache) for c, o in zip(commands, outs)],
                "trace": traced, "result": str(pdir / "record.json")}
        setup, rec = run_child(spec, pdir / "spec.json", env)
        setups.append(setup)
        runs = rec["commands"]
        raw = runs[-1]["end"] - runs[0]["start"]
        speed = PROBE_REF_S / statistics.mean(rec["probes"] or rec["import_probes"])
        wall = raw * speed ** WALL_PROBE_EXPONENT
        if traced:
            traced_walls.append(wall)
            layers.append(tracer.layer_metrics(rec["trace"]))
        else:
            walls.append(wall)
            raw_walls.append(raw)
            rss.append(rec["peak_rss_mb"])
        for cmd, out, r in zip(commands, outs, runs):
            text = out.read_text() if out.exists() else None
            problem = check(cmd, refs[cmd.id], r["exit"], text)
            attempted += 1
            if problem is not None:
                mismatches.append(f"{cmd.id}: {problem}")
            if problem is not None or r["exit"] != 0:
                failed += 1
            if cmd.check == "iso" and text is not None and problem is None:
                sv = json.loads(text)["min_scaled_singular"]
                min_sv = sv if min_sv is None else min(min_sv, sv)
        shutil.rmtree(pdir)
        setup, _ = run_child({"commands": [], "trace": False, "result": str(work / "setup.json")},
                             work / "setup-spec.json", env)
        setups.append(setup)
        n += 1
    return {
        "commands": commands, "setups": setups, "walls": walls, "raw_walls": raw_walls, "rss": rss,
        "traced_walls": traced_walls, "layers": layers, "attempted": attempted,
        "failed": failed, "mismatches": mismatches, "min_sv": min_sv, "versions": info["versions"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "loopeq" / "cli.py").is_file():
        print(f"error: no loopeq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e!r}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_pass = len(m["commands"])
    print(f"machine: {machine()} versions={m['versions']}")
    print(f"workload {args.workload} seed {args.seed}: {len(m['walls'])} untraced + "
          f"{len(m['traced_walls'])} traced passes, {len(m['setups'])} set-up samples")
    print("wall_s samples: " + " ".join(f"{w:.3f}" for w in m["walls"]))
    print("unscaled wall samples: " + " ".join(f"{w:.3f}" for w in m["raw_walls"]))
    if m["traced_walls"]:
        print("traced wall_s samples: " + " ".join(f"{w:.3f}" for w in m["traced_walls"]))
    print("setup_s samples: " + " ".join(f"{s:.3f}" for s in m["setups"]))
    for line in sorted(set(m["mismatches"])):
        print(f"mismatch: {line}")
    print(f"failed_ops {m['failed']}/{m['attempted']} share ({m['failed'] / m['attempted']:.4f}); "
          f"{per_pass} commands per pass")
    sv = m["min_sv"]
    print(f"min_scaled_sv {sv:.6e} 1 (higher is better)" if sv is not None
          else "min_scaled_sv n/a: no iso commands in this workload")
    e2e = {
        "wall_s": (statistics.median(m["walls"]), "s"),
        "setup_s": (statistics.median(m["setups"]), "s"),
        "peak_rss_mb": (statistics.median(m["rss"]), "MB"),
    }
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6f} {unit}")
    if args.trace:
        metrics = {}
        for name, (unit, _, _) in tracer.PER_LAYER.items():
            if name == "trace.overhead_s":
                value = statistics.median(m["traced_walls"]) - statistics.median(m["walls"])
            else:
                value = statistics.median_low(layer[name] for layer in m["layers"])
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} {value!r} {unit}")
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": not m["mismatches"], "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
