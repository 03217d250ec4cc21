"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC holds ``commands`` (argv lists for ``loopeq.cli.main``), ``trace`` and
``result`` (where to write the pass record).  With no commands the pass only
imports ``loopeq.cli``, which samples set-up time.  Nothing but the standard
library is imported before ``loopeq.cli``, so the import time is the CLI's own.

While the commands run, a wall-clock timer interrupts every PROBE_INTERVAL_S
and times ``probe``, a fixed pure-Python loop.  The shared host's speed
changes by up to 1.5x within seconds (other tenants); the probe samples that
speed during the pass, and ``run.py`` scales the pass's wall time by it.
Twenty probes right after the import do the same for the set-up time.
"""

import json
import resource
import signal
import sys
import time
import traceback

PROBE_INTERVAL_S = 0.01


def probe():
    s = 0j
    z = 0.5 + 0.25j
    for _ in range(400):
        s += z * z - s * 0.5
    return s


def timed_probe() -> float:
    t = time.perf_counter()
    probe()
    return time.perf_counter() - t


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    from loopeq import cli

    imported = time.monotonic()
    record = {"imported": imported, "import_probes": [timed_probe() for _ in range(20)]}
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probes = []

    def on_alarm(_signum, _frame):
        probes.append(timed_probe())

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    runs = []
    for argv in spec["commands"]:
        start = time.monotonic()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        runs.append({"exit": code, "start": start, "end": time.monotonic()})
    signal.setitimer(signal.ITIMER_REAL, 0)
    record["commands"] = runs
    record["probes"] = probes
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["trace"] = tracer.record()
    if spec.get("versions"):
        import numpy
        import scipy

        record["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    with open(spec["result"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
