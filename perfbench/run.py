"""Benchmark of the matroidfacets package: three workloads, every answer
checked, end-to-end metrics from untraced runs and per-layer metrics
from a traced one.

    python3 perfbench/run.py [--workload ladder|oracle|wide|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src``.  Each workload runs in its own single-threaded worker process
(``worker.py``).  This process enforces a wall limit per job and per
run: a job that overruns is killed and counted as failed, and so is
every job of that pass it kept from running.

The output is a table per workload, every metric by name and unit, then
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the ``end_to_end`` ones named in
BENCHMARK.json, with ``--trace 1`` the ``per_layer`` ones.  ``failed``
counts wrong, crashed and over-limit jobs; ``correct`` is false when any
of them is not a documented known defect (``jobs.KNOWN_DEFECTS``).
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracer
from jobs import OPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_INIT = ROOT / "src" / "matroidfacets" / "__init__.py"
WORKDIR = ROOT / ".perfbench-work"

JOB_LIMIT_S = 60.0
RUN_LIMIT_S = 170.0

LAYERS = (*tracer.LAYERS, "harness")


@dataclass
class Pass:
    traced: bool = False
    wall: float | None = None
    # [(job index, measured seconds, reference seconds, error)]
    jobs: list = field(default_factory=list)


@dataclass
class Run:
    setup: list = field(default_factory=list)  # reference seconds of each set-up
    jobs: list = field(default_factory=list)  # [(name, op, known defect)]
    passes: list = field(default_factory=list)
    end: dict = field(default_factory=dict)
    stopped: str | None = None  # why the worker was stopped early


def _pump(stream, lines):
    for line in stream:
        lines.put(line)
    lines.put(None)


def run_worker(workload, seed, seconds, trace):
    """Start one worker and follow it under the wall limits."""
    workdir = WORKDIR / f"{workload}-{os.getpid()}"
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
         "1" if trace else "0", str(workdir)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    lines = queue.Queue()
    reader = threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True)
    reader.start()
    run = Run()
    current = Pass()
    run_deadline = time.monotonic() + RUN_LIMIT_S
    job_deadline = None
    started_job = None
    try:
        while True:
            deadline = run_deadline if job_deadline is None else min(run_deadline, job_deadline)
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                if job_deadline is not None and job_deadline <= run_deadline:
                    run.stopped = f"over the {JOB_LIMIT_S:.0f} s job limit"
                else:
                    run.stopped = f"over the {RUN_LIMIT_S:.0f} s run limit"
                break
            if line is None:
                break
            event = json.loads(line)
            kind = event["event"]
            if kind == "setup":
                run.setup = [speed.scaled(s, *p) for s, p in zip(event["seconds"], event["probes"])]
                run.jobs = event["jobs"]
            elif kind == "start":
                started_job = event["job"]
                job_deadline = time.monotonic() + JOB_LIMIT_S
            elif kind == "done":
                current.jobs.append((event["job"], event["seconds"],
                                     speed.scaled(event["seconds"], *event["probes"]),
                                     event["error"]))
                job_deadline = started_job = None
            elif kind == "pass":
                current.traced, current.wall = event["traced"], event["wall"]
                run.passes.append(current)
                current = Pass()
            elif kind == "end":
                run.end = event
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
        shutil.rmtree(workdir, ignore_errors=True)
    if not run.jobs:
        raise SystemExit(f"perfbench: {workload} worker failed during set-up "
                         f"(exit {proc.returncode})")
    if not run.end:
        run.stopped = run.stopped or f"worker exited with code {proc.returncode}"
        done = {j for j, *_ in current.jobs}
        for j in range(len(run.jobs)):
            if j not in done:
                reason = run.stopped if j == started_job else "not run: worker stopped"
                current.jobs.append((j, 0.0, 0.0, reason))
        run.passes.append(current)
        run.end = {"peak_rss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
    return run


def measure(run):
    """(correct, attempted, failed, values, failures) for one run."""
    failures = [
        (run.jobs[j][0], error, run.jobs[j][2])
        for p in run.passes for j, _, _, error in p.jobs if error
    ]
    attempted = sum(len(p.jobs) for p in run.passes)
    correct = run.stopped is None and all(known for _, _, known in failures)
    # Each job's median over the untraced passes, in reference seconds
    # (speed.py); a pass-wide figure is a sum or maximum of those, which
    # keeps one slow moment of a noisy machine from moving it.
    timed = [p for p in run.passes if not p.traced] or run.passes
    samples, measured = {}, {}
    for p in timed:
        for j, seconds, scaled, _ in p.jobs:
            samples.setdefault(j, []).append(scaled)
            measured.setdefault(j, []).append(seconds)
    job_s = {j: statistics.median(v) for j, v in samples.items()}
    values = {
        "wall_s": sum(job_s.values()),
        "max_job_s": max(job_s.values(), default=0.0),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mib": run.end["peak_rss_kib"] / 1024,
        "error_rate": len(failures) / attempted if attempted else 1.0,
        "wall_measured_s": sum(statistics.median(v) for v in measured.values()),
    }
    for op in sorted({op for _, op, _ in run.jobs}):
        values[f"{op}_s"] = sum(s for j, s in job_s.items() if run.jobs[j][1] == op)
    if "layers" in run.end:
        values.update(_layer_values(run, values))
    return correct, attempted, len(failures), values, failures


def _layer_values(run, values):
    traced = next(p for p in run.passes if p.traced)
    untraced = next(p for p in run.passes if not p.traced)
    totals = {f"{layer}.{name}": (own, calls, found)
              for layer, name, own, calls, found in run.end["layers"]}
    out = {"trace.overhead_frac": traced.wall / untraced.wall - 1}
    for layer in LAYERS:
        rows = [v for k, v in totals.items() if k.startswith(layer + ".")]
        out[f"{layer}.self_s"] = sum(r[0] for r in rows)
        out[f"{layer}.calls"] = sum(r[1] for r in rows)
        out[f"{layer}.share"] = out[f"{layer}.self_s"] / traced.wall
    for name, (own, calls, found) in totals.items():
        out[f"{name}.self_s"] = own
        out[f"{name}.calls"] = calls
    out["locked.enumerate_locked.found"] = totals["locked.enumerate_locked"][2]
    jobs = totals["polytope.oracle_facets_independence"][1]
    out["polytope.independence_vertices.calls_per_job"] = (
        totals["polytope.independence_vertices"][1] / jobs if jobs else 0.0)
    for op in OPS:
        out[f"op.{op}_s"] = values.get(f"{op}_s", 0.0)
    return out


def _declared(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def report(workload, run, spec, trace):
    """Print the table for one workload; return its result fields."""
    correct, attempted, failed, values, failures = measure(run)
    metrics = {}
    for m in _declared(spec, trace):
        if m["name"] in values:
            value = values[m["name"]]
        elif run.stopped:  # the traced pass never finished
            value = 0.0
        else:
            raise SystemExit(f"perfbench: metric {m['name']} is declared but not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    # Also shown, not in the JSON: metrics that are 0 on some workload.
    metrics.update({name: {"value": values[name], "unit": "s" if name.endswith("_s") else "ratio"}
                    for name in values
                    if "." not in name and name not in metrics
                    and (name == "error_rate" or name.endswith("_s"))})
    print(f"== {workload}: {attempted} jobs attempted, {failed} failed, "
          f"{len(run.passes)} pass(es), correct={correct}")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:>14.6f} {m['unit']}")
    for name, error, known in dict.fromkeys(failures):
        print(f"  FAILED {name}: {error}" + (f"  [known defect: {known}]" if known else ""))
    if run.stopped:
        print(f"  stopped: {run.stopped}")
    if trace:
        print(f"  note: {tracer.NOTE}")
    declared = {m["name"] for m in _declared(spec, trace)}
    return correct, attempted, failed, {k: v for k, v in metrics.items() if k in declared}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE_INIT.is_file():
        print(f"perfbench: no package source at {PACKAGE_INIT.relative_to(ROOT)}; "
              "run from the root of a matroidfacets checkout", file=sys.stderr)
        return 2
    # A terminated benchmark still stops its worker (run_worker's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = names if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        run = run_worker(workload, args.seed, args.seconds, bool(args.trace))
        results.append((workload, report(workload, run, spec, bool(args.trace))))
    if len(results) == 1:
        metrics = results[0][1][3]
    else:
        metrics = {f"{w}.{k}": v for w, r in results for k, v in r[3].items()}
    print(json.dumps({
        "correct": all(r[0] for _, r in results),
        "attempted": sum(r[1] for _, r in results),
        "failed": sum(r[2] for _, r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
