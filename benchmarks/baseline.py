"""Record a baseline: every workload over ten seeds, workloads interleaved.

Usage (from the root of a checkout): ``python3 benchmarks/baseline.py [OUT]``
(default ``benchmarks/baseline.json``; about twenty minutes).  Runs
``run.py`` untraced for seeds 1..10 and then traced once per workload with
seed 1, each for ``run_seconds`` of ``BENCHMARK.json``, and writes every
run's result with, per end-to-end metric, the median, the quartiles and the
spread (quartile distance over median) that the bounds are judged against.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["log"] = lines[:-1]
    print(workload, seed, trace, {k: v["value"] for k, v in result["metrics"].items()
                                  if not trace or k.endswith(".s") or k == "trace.overhead_s"},
          flush=True)
    return result


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "benchmarks" / "baseline.json"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            runs[w].append(run(w, seed, seconds, 0))
    record = {"run_seconds": seconds, "seeds": list(SEEDS), "trace_seed": TRACE_SEED, "workloads": {}}
    for w in workloads:
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / median, "bound": m["bound"]}
        record["workloads"][w] = {"summary": summary, "runs": runs[w],
                                  "traced": run(w, TRACE_SEED, seconds, 1)}
    out.write_text(json.dumps(record, indent=1) + "\n")
    for w, data in record["workloads"].items():
        for name, s in data["summary"].items():
            print(f"{w:10s} {name:12s} median {s['median']:.4f} spread {s['spread']:.4f} bound {s['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
