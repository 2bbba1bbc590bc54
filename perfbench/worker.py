"""Runs one workload in this process and reports to the parent.

Usage (normally started by run.py, with ``src`` on PYTHONPATH)::

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

Writes one JSON object per line to stdout: ``setup`` once, ``start``
and ``done`` around every job, ``pass`` after every pass, and ``end``
with the peak RSS and, for a traced run, the layer totals.  The parent
enforces the time limits; this process only reports.

Set-up (importing the package and building the inputs) is repeated,
each time from a fresh import of the package.  Every timed region sits
between two speed probes (``speed.py``), whose times go out with it.
An untraced run repeats passes until SECONDS have gone by (at
least one pass).  A traced run makes one untraced pass and then one
traced pass, so the two can be compared for tracing overhead.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path

import jobs as joblists
from speed import probe
from tracer import Tracer

# Set-up is repeated at least SETUP_MIN times and until SETUP_FILL_S
# seconds have gone by, at most SETUP_MAX times; the parent reports the
# median, so a short set-up is measured often enough to be steady.
SETUP_MIN, SETUP_MAX, SETUP_FILL_S = 3, 15, 2.0

PACKAGE = "matroidfacets"


def _fresh_import():
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    return package, importlib.import_module(PACKAGE + ".cli")


def run_pass(jobs, emit, tracer=None):
    """Time every job between two speed probes, then judge it outside
    the timed region.  Returns the pass wall time; per-job results go
    out through ``emit``."""
    clock = time.perf_counter
    started = clock()
    before = probe()
    for i, job in enumerate(jobs):
        emit({"event": "start", "job": i})
        if tracer is not None:
            tracer.job = job.name
        t0 = clock()
        try:
            out = job.run()
        except Exception as exc:  # a crash is a failed job, not a failed run
            seconds = clock() - t0
            out, error = None, f"crashed: {type(exc).__name__}: {exc}"
        else:
            seconds = clock() - t0
            error = None
        after = probe()
        if error is None:
            error = joblists.judge(job.check, out)
        emit({"event": "done", "job": i, "seconds": seconds, "probes": [before, after],
              "error": error})
        before = after
    return clock() - started


def main(argv):
    workload, seed, seconds, trace, workdir = argv
    seconds, trace = float(seconds), trace == "1"
    protocol = sys.stdout

    def emit(event):
        protocol.write(json.dumps(event) + "\n")
        protocol.flush()

    Path(workdir).mkdir(parents=True, exist_ok=True)
    setup, probes = [], []
    while len(setup) < SETUP_MIN or (sum(setup) < SETUP_FILL_S and len(setup) < SETUP_MAX):
        before = probe()
        t0 = time.perf_counter()
        package, cli = _fresh_import()
        jobs = joblists.WORKLOADS[workload](package, cli, seed, workdir)
        setup.append(time.perf_counter() - t0)
        probes.append([before, probe()])
    emit({"event": "setup", "seconds": setup, "probes": probes,
          "jobs": [[j.name, j.op, j.known_defect] for j in jobs]})

    end = {"event": "end"}
    if trace:
        emit({"event": "pass", "traced": False, "wall": run_pass(jobs, emit)})
        tracer = Tracer()
        tracer.install(package)
        try:
            with tracer.span("harness", "pass"):
                wall = run_pass(jobs, emit, tracer)
        finally:
            tracer.uninstall()
        emit({"event": "pass", "traced": True, "wall": wall})
        end["layers"] = [[*key, *row] for key, row in tracer.totals().items()]
        tracer.write(Path(workdir).parent / f"trace-{workload}-seed{seed}.json.gz")
    else:
        started = time.perf_counter()
        while True:
            wall = run_pass(jobs, emit)
            emit({"event": "pass", "traced": False, "wall": wall})
            if time.perf_counter() - started + wall > seconds:
                break
    end["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit(end)


if __name__ == "__main__":
    main(sys.argv[1:])
