"""Record the reference outputs the benchmark checks against.

Usage (from the root of a checkout, at the commit whose outputs are the
reference): ``python3 benchmarks/record.py``.  Writes ``reference.json``.

Commands whose input carries seeded values are run once per unit vector of
those values: their output is linear in them, so ``workloads.check`` rebuilds
the reference for any seed.  The others are run once.  Only the exit code and
the output are kept; the benchmark passes define what the time is.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from loopeq.cli import main as loopeq_main  # noqa: E402
from workloads import REFERENCE, WORKLOADS, build  # noqa: E402


def run(cmd, out: Path, cache: str) -> tuple[int, str]:
    code = loopeq_main(cmd.argv_for(str(out), cache))
    return code, out.read_text()


def main() -> int:
    refs: dict = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        for workload in WORKLOADS:
            cache = str(tmp / f"{workload}-cache")
            refs[workload] = {}
            for cmd in build(workload, 0, tmp / workload):
                out = tmp / f"{cmd.id}.json"
                if cmd.linear is None:
                    code, text = run(cmd, out, cache)
                    entry = {"text": text} if cmd.check == "bytes" else {"out": json.loads(text)}
                else:
                    units = []
                    for j in range(len(cmd.linear.values)):
                        cmd.linear.write([1.0 if i == j else 0.0 for i in range(len(cmd.linear.values))])
                        code, text = run(cmd, out, cache)
                        units.append(json.loads(text))
                    entry = {"units": units}
                    if cmd.check == "solve":  # 10 x 507 values: keep the target list once
                        entry = {"mus": [e["mu"] for e in units[0]["values"]],
                                 "coefficient_growth": units[0]["coefficient_growth"],
                                 "units": [[e["value"] for e in u["values"]] for u in units]}
                refs[workload][cmd.id] = {"exit": code, **entry}
                print(f"{workload} {cmd.id}: exit {code}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
