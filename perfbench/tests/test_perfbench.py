"""Tests of the benchmark itself: every checker rejects a wrong answer,
the tracer's self times account for the whole traced pass, and the
parent's limits stop a worker that overruns.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import matroidfacets as mf  # noqa: E402
import matroidfacets.cli as cli  # noqa: E402

import inputs  # noqa: E402
import jobs  # noqa: E402
import run as runner  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

SPECS = {s.name: s for s in inputs.LADDER}
judge = jobs.judge


def _saved(tmp_path, spec):
    matroid = spec.build(mf)
    path = str(tmp_path / f"{spec.name}.txt")
    mf.save(path, matroid, spec.name)
    return matroid, path


def _edited(out, **changes):
    """The CLI answer ``out`` with some result fields replaced."""
    code, stdout, stderr = out
    doc = json.loads(stdout)
    doc["results"].update(changes)
    return code, json.dumps(doc), stderr


def _cli(*argv):
    return jobs.call_cli(cli, [*argv, "--json"])


@pytest.mark.parametrize("name", ["MK4", "K5", "U_2_4+U_2_4"])
def test_cli_checkers_accept_right_and_reject_wrong_answers(tmp_path, name):
    spec = SPECS[name]
    matroid, path = _saved(tmp_path, spec)

    info = _cli("info", path)
    assert judge(jobs.check_info, spec, info) is None
    assert judge(jobs.check_info, spec, _edited(info, rank=spec.r + 1))
    assert judge(jobs.check_info, spec, _edited(info, three_connected=not spec.three_connected))

    locked = _cli("locked", path)
    assert judge(jobs.check_locked, spec, locked) is None
    assert judge(jobs.check_locked, spec, _edited(locked, locked_count=spec.locked + 1))

    k1 = _cli("locked", path, "--k", "1")
    assert judge(jobs.check_locked_k1, spec, k1) is None
    flipped = (1 - k1[0], *k1[1:])
    assert judge(jobs.check_locked_k1, spec, flipped)

    facets = _cli("facets", path, "--polytope", "independence")
    assert judge(jobs.check_facets, spec, facets) is None
    assert judge(jobs.check_facets, spec, _edited(facets, facet_count=spec.ind_facets - 1))


def test_uniform_checker_rejects_the_known_wrong_verdict(tmp_path):
    spec = SPECS["U_2_4+U_2_4"]
    matroid, path = _saved(tmp_path, spec)
    expected = mf.is_uniform_direct(matroid)
    out = _cli("uniform", path)
    if json.loads(out[1])["results"]["uniform"] == expected:
        pytest.skip("the package no longer gives the known-wrong verdict")
    assert judge(jobs.check_uniform, expected, out)
    assert "U_2_4+U_2_4 uniform" in jobs.KNOWN_DEFECTS

    spec = SPECS["U_4_12"]
    matroid, path = _saved(tmp_path, spec)
    right = _cli("uniform", path)
    assert judge(jobs.check_uniform, True, right) is None
    assert judge(jobs.check_uniform, True, _edited(right, uniform=False))


def test_certify_checkers_reject_failed_reports(tmp_path):
    matroid, path = _saved(tmp_path, SPECS["MK4"])
    out = _cli("certify", path)
    assert judge(jobs.check_certify_cli, out) is None
    assert judge(jobs.check_certify_cli, _edited(out, missing_count=1))
    assert judge(jobs.check_certify_cli, _edited(out, passed=False))

    report = mf.certify(matroid)
    assert judge(jobs.check_certify, report) is None
    assert judge(jobs.check_certify, dataclasses.replace(report, missing=(frozenset({0}),)))
    assert judge(jobs.check_certify, dataclasses.replace(report, extra=report.predicted[:1]))


def test_independence_checker_rejects_a_lost_facet():
    template = SPECS["MK4"].build(mf)
    count, predicted, oracle = jobs._independence(mf, template)
    assert judge(jobs.check_independence, (count, predicted, oracle)) is None
    assert judge(jobs.check_independence, (count, set(list(predicted)[1:]), oracle))
    assert judge(jobs.check_independence, (count + 1, predicted, oracle))


def test_separate_checker_rejects_missed_and_weaker_violations():
    matroid = SPECS["W5"].build(mf)
    points = inputs.points(inputs.rng_for(0, "t"), [b.mask for b in matroid.bases],
                           len(matroid.ground), 20)
    system, points, answers = jobs._separate(mf, matroid, points)
    assert judge(jobs.check_separate, (system, points, answers)) is None
    k = next(i for i, a in enumerate(answers) if a is not None)
    missed = list(answers)
    missed[k] = None
    assert judge(jobs.check_separate, (system, points, missed))
    worst = jobs._violation(answers[k].coeffs, answers[k].sense, answers[k].rhs, points[k])
    weaker = next(c for c in system.facets
                  if jobs._violation(c.coeffs, c.sense, c.rhs, points[k]) < worst)
    wrong = list(answers)
    wrong[k] = weaker
    assert judge(jobs.check_separate, (system, points, wrong))
    inside = next(i for i, a in enumerate(answers) if a is None)
    spurious = list(answers)
    spurious[inside] = system.facets[0]
    assert judge(jobs.check_separate, (system, points, spurious))


def test_mwbp_checker_rejects_wrong_value_and_non_basis(tmp_path):
    spec = inputs.WIDE[-1]
    matroid, path = _saved(tmp_path, spec)
    values = inputs.weights(inputs.rng_for(0, "w"), spec.n)
    expected = mf.brute_force_max_basis(
        matroid, mf.WeightFunction.from_values(matroid.ground, values)).value
    out = _cli("mwbp", path, "--weights=" + ",".join(map(str, values)))
    assert judge(jobs.check_mwbp, matroid, values, expected, out) is None
    assert judge(jobs.check_mwbp, matroid, values, expected + 1, out)
    basis = json.loads(out[1])["results"]["basis"]
    other = next(lab for lab in matroid.ground.labels if lab not in basis)
    assert judge(jobs.check_mwbp, matroid, values, expected,
                           _edited(out, basis=[*basis[1:], other], value=str(expected)))
    assert judge(jobs.check_mwbp, matroid, values, expected,
                           _edited(out, value=str(expected - Fraction(1, 3))))


def test_written_checker_rejects_wrong_counts(tmp_path):
    path = str(tmp_path / "u.txt")
    out = jobs.call_cli(cli, ["catalog", "U_3_8", "-o", path, "--json"])
    assert judge(jobs.check_written, mf.loads, path, 8, 3, 56, out) is None
    assert judge(jobs.check_written, mf.loads, path, 8, 3, 55, out)
    assert judge(jobs.check_written, mf.loads, path, 8, 2, 56, out)
    Path(path).write_text(Path(path).read_text().replace("nonbases:", "nonbases:\n1 2 3"))
    assert judge(jobs.check_written, mf.loads, path, 8, 3, 56, out)


def test_scaling_cancels_a_uniform_slowdown():
    ref = speed.REFERENCE_S
    assert speed.scaled(3.0, ref, ref) == pytest.approx(3.0)
    assert speed.scaled(6.0, 2 * ref, 2 * ref) == pytest.approx(3.0)
    assert speed.scaled(3.0, ref / 2, ref / 2) == pytest.approx(6.0)


def test_self_times_with_a_scripted_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return "x"

    traced_leaf = tracer.wrap("core", "leaf", leaf)

    def middle():
        traced_leaf()
        traced_leaf()
        return ()

    traced_middle = tracer.wrap("locked", "enumerate_locked", middle)
    with tracer.span("harness", "pass"):
        traced_middle()
    # Clock reads: pass 0, middle 1, leaf 2-3, leaf 4-5, middle 6, pass 7.
    totals = tracer.totals()
    assert totals[("core", "leaf")] == [2.0, 2, 0]
    assert totals[("locked", "enumerate_locked")] == [3.0, 1, 0]
    assert totals[("harness", "pass")] == [2.0, 1, 0]
    assert sum(row[0] for row in totals.values()) == 7.0


def test_layer_self_times_plus_harness_equal_the_traced_pass(tmp_path):
    from worker import run_pass

    package, cli_module = mf, cli
    joblist = jobs.ladder(package, cli_module, 3, tmp_path)[:12]
    joblist += jobs.oracle(package, cli_module, 3, tmp_path)[:3]
    tracer = Tracer()
    tracer.install(package)
    try:
        started = time.perf_counter()
        with tracer.span("harness", "pass"):
            wall = run_pass(joblist, lambda event: None, tracer)
        outer = time.perf_counter() - started
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    layers = {}
    for (layer, _), (own, calls, _) in totals.items():
        layers[layer] = layers.get(layer, 0.0) + own
    harness_span = next(s for s in tracer.spans if s[0] == ("harness", "pass"))
    span_wall = harness_span[4] - harness_span[3]
    assert sum(layers.values()) == pytest.approx(span_wall, rel=1e-9)
    assert wall <= span_wall <= outer
    assert span_wall == pytest.approx(wall, rel=0.01, abs=0.002)
    assert {"cli", "core", "files", "locked", "polytope"} <= {k for k, v in layers.items() if v > 0}
    assert totals[("cli", "main")][1] == 12
    # Uninstalling puts every original back.
    assert mf.certify is mf.polytope.certify
    assert not hasattr(mf.certify, "__wrapped__")
    assert not hasattr(mf.Matroid.__init__, "__wrapped__")


def test_a_job_over_the_limit_is_failed_and_stops_the_worker(monkeypatch):
    monkeypatch.setattr(runner, "JOB_LIMIT_S", 0.3)
    started = time.monotonic()
    run = runner.run_worker("wide", 1, 1.0, False)
    assert time.monotonic() - started < 30
    assert run.stopped and "job limit" in run.stopped
    correct, attempted, failed, values, failures = runner.measure(run)
    assert not correct
    assert attempted == len(run.jobs)
    assert any("job limit" in error for _, error, _ in failures)
    assert any(error.startswith("not run") for _, error, _ in failures)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wide"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
