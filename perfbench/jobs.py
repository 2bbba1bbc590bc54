"""The three workloads as job lists, and the checkers that judge answers.

A job is one timed call into the package: a CLI command through
``matroidfacets.cli.main(argv)`` with its output captured, or one public
library function.  Each job loads or builds its own fresh ``Matroid``.
Building a workload writes its input files and returns the jobs; that is
the benchmark's set-up.

Every checker takes what the job returned and answers ``None`` when it
is right, or a one-line reason when it is wrong.  The references are
independent of the code under test where one exists (counts fixed in
``inputs``, brute force over the basis list, a separate evaluation of
each constraint); the facet-oracle comparisons use the package's own
brute-force oracle, as ``certify`` does.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import inputs

# Jobs whose wrong answer is a documented defect of the package.  They
# still count as failed; they do not mark the run as incorrect.
KNOWN_DEFECTS = {
    "U_2_4+U_2_4 uniform": "ROADMAP item 1: a disconnected matroid is reported uniform",
}

OPS = ("info", "locked", "uniform", "certify", "facets", "independence",
       "separate", "mwbp", "write")


@dataclass
class Job:
    name: str
    op: str  # one of OPS: the per-operation sum this job's time goes to
    run: Callable[[], object]
    check: Callable[[object], str | None]

    @property
    def known_defect(self) -> str | None:
        return KNOWN_DEFECTS.get(self.name)


def call_cli(cli, argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class WrongAnswer(Exception):
    """Raised by a checker that cannot even read the answer."""


def judge(check, *args):
    """The checker's verdict: None when right, else the reason.  An answer
    the checker cannot read (wrong exit code, unparsable output) is wrong."""
    try:
        return check(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _results(out, want_code):
    code, stdout, stderr = out
    if code != want_code:
        raise WrongAnswer(f"exit code {code}, expected {want_code}: {stderr.strip()[:200]}")
    return json.loads(stdout)["results"]


def _expect(label, got, want):
    return None if got == want else f"{label} {got!r}, expected {want!r}"


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


# -- checkers ------------------------------------------------------------


def check_info(spec, out):
    res = _results(out, 0)
    return _first(
        _expect("size", res["size"], spec.n),
        _expect("rank", res["rank"], spec.r),
        _expect("bases", res["bases"], spec.bases),
        _expect("components", len(res["components"]), spec.components),
        _expect("connected", res["connected"], spec.components == 1),
        _expect("3-connected", res["three_connected"], spec.three_connected),
        _expect("loops", len(res["loops"]), spec.n if spec.r == 0 else 0),
        _expect("coloops", len(res["coloops"]), spec.n if spec.r == spec.n else 0),
    )


def check_locked(spec, out):
    return _expect("locked count", _results(out, 0)["locked_count"], spec.locked)


def check_locked_k1(spec, out):
    if spec.locked > spec.n:
        return _expect("verdict", _results(out, 1)["verdict"], "no")
    res = _results(out, 0)
    return _first(
        _expect("verdict", res["verdict"], "structure"),
        _expect("locked count", res["locked_count"], spec.locked),
    )


def check_uniform(expected, out):
    """``expected`` is ``is_uniform_direct`` on the same matroid."""
    code, stdout, _ = out
    return _first(
        _expect("uniform", json.loads(stdout)["results"]["uniform"], expected),
        _expect("exit code", code, 0 if expected else 1),
    )


def check_certify_cli(out):
    res = _results(out, 0)
    return _first(
        _expect("passed", res["passed"], True),
        _expect("missing", res["missing_count"], 0),
        _expect("extra", len(res["extra"]), 0),
    )


def check_facets(spec, out):
    return _expect("facet count", _results(out, 0)["facet_count"], spec.ind_facets)


def check_certify(report):
    return _first(
        _expect("passed", report.passed, True),
        _expect("missing", len(report.missing), 0),
        _expect("extra", len(report.extra), 0),
    )


def check_independence(result):
    """``result`` is (predicted facet count, predicted tight sets, oracle
    tight sets)."""
    count, predicted, oracle = result
    if predicted != oracle:
        return (f"{len(predicted - oracle)} predicted tight sets not in the oracle, "
                f"{len(oracle - predicted)} oracle tight sets not predicted")
    return _expect("distinct tight sets", len(predicted), count)


def _violation(coeffs, sense, rhs, point):
    lhs = sum((v for c, v in zip(coeffs, point) if c), Fraction(0))
    if sense == "<=":
        return max(Fraction(0), lhs - rhs)
    if sense == ">=":
        return max(Fraction(0), rhs - lhs)
    raise WrongAnswer(f"separate returned a constraint with sense {sense!r}")


def check_separate(result):
    """``result`` is (facet system, points, answers).  An answer must be
    None exactly when no constraint is violated, and otherwise one of the
    system's inequalities (the equality counts as its two halves) with
    the largest violation."""
    system, points, answers = result
    rows = [(c.coeffs, c.sense, c.rhs) for c in system.facets]
    if system.equality is not None:
        eq = system.equality
        rows += [(eq.coeffs, "<=", eq.rhs), (eq.coeffs, ">=", eq.rhs)]
    for k, (point, answer) in enumerate(zip(points, answers, strict=True)):
        worst = max(_violation(*row, point) for row in rows)
        if answer is None:
            if worst:
                return f"point {k}: None returned, but a constraint is violated by {worst}"
            continue
        if not worst:
            return f"point {k}: a constraint returned, but the point satisfies them all"
        row = (answer.coeffs, answer.sense, answer.rhs)
        if row not in rows:
            return f"point {k}: returned constraint is not in the system"
        got = _violation(*row, point)
        if got != worst:
            return f"point {k}: returned violation {got}, maximum is {worst}"
    return None


def check_mwbp(matroid, values, expected, out):
    """``expected`` is the value ``brute_force_max_basis`` finds."""
    res = _results(out, 0)
    index = {lab: i for i, lab in enumerate(matroid.ground.labels)}
    mask = sum(1 << index[lab] for lab in res["basis"])
    if mask not in {b.mask for b in matroid.bases}:
        return "returned set is not a basis"
    weight = sum((values[index[lab]] for lab in res["basis"]), Fraction(0))
    return _first(
        _expect("value", Fraction(res["value"]), expected),
        _expect("weight of returned basis", weight, expected),
    )


def check_written(loads, path, n, r, bases, out):
    """The written file parses back (through ``loads``) with the expected
    size, rank and basis count, counted from the listing, not rebuilt."""
    _results(out, 0)
    parsed = loads(Path(path).read_text())
    if parsed.bases is not None:
        count = len({frozenset(b) for b in parsed.bases})
    else:
        count = comb(len(parsed.labels), parsed.rank) - len({frozenset(b) for b in parsed.nonbases})
    return _first(
        _expect("size", len(parsed.labels), n),
        _expect("rank", parsed.rank, r),
        _expect("basis count", count, bases),
    )


# -- workloads -----------------------------------------------------------


def _template(mf, spec, seed):
    """The seeded input for a spec, checked against its recorded facts."""
    matroid = inputs.permuted(mf, spec.build(mf), inputs.rng_for(seed, spec.name))
    got = (len(matroid.ground), matroid.rank_value, matroid.basis_count())
    if got != (spec.n, spec.r, spec.bases):
        raise RuntimeError(f"input {spec.name}: (n, r, |B|) = {got}, "
                           f"recorded {(spec.n, spec.r, spec.bases)}")
    return matroid


_LADDER_ARGS = {
    "info": ("info", "info"),
    "locked": ("locked", "locked"),
    "locked-k1": ("locked", "locked", "--k", "1"),
    "uniform": ("uniform", "uniform"),
    "certify": ("certify", "certify"),
    "facets-ind": ("facets", "facets", "--polytope", "independence"),
}


def ladder(mf, cli, seed, workdir):
    jobs = []
    for spec in inputs.LADDER:
        matroid = _template(mf, spec, seed)
        path = str(Path(workdir) / f"ladder-{spec.name}.txt")
        mf.save(path, matroid, spec.name)
        uniform = mf.is_uniform_direct(matroid)
        checks = {
            "info": lambda out, s=spec: check_info(s, out),
            "locked": lambda out, s=spec: check_locked(s, out),
            "locked-k1": lambda out, s=spec: check_locked_k1(s, out),
            "uniform": lambda out, u=uniform: check_uniform(u, out),
            "certify": check_certify_cli,
            "facets-ind": lambda out, s=spec: check_facets(s, out),
        }
        for command in spec.commands:
            op, sub, *extra = _LADDER_ARGS[command]
            argv = [sub, path, *extra, "--json"]
            jobs.append(Job(f"{spec.name} {command}", op,
                            lambda a=argv: call_cli(cli, a), checks[command]))
    return jobs


def _fresh(mf, template):
    return mf.Matroid(template.ground, template.bases)


def _independence(mf, template):
    matroid = _fresh(mf, template)
    system = mf.predicted_facets_independence(matroid)
    predicted = {mf.independence_tight_set(matroid, c) for c in system.facets}
    return len(system.facets), predicted, mf.oracle_facets_independence(matroid)


def _separate(mf, template, points):
    system = mf.predicted_facets_bases(_fresh(mf, template))
    return system, points, [mf.separate(system, p) for p in points]


def oracle(mf, cli, seed, workdir):
    jobs = []
    for spec in inputs.ORACLE:
        t = _template(mf, spec, seed)
        jobs.append(Job(f"{spec.name} certify", "certify",
                        lambda t=t: mf.certify(_fresh(mf, t)), check_certify))
        if spec.n <= inputs.INDEPENDENCE_MAX_N:
            jobs.append(Job(f"{spec.name} independence", "independence",
                            lambda t=t: _independence(mf, t), check_independence))
        pts = inputs.points(inputs.rng_for(seed, f"points {spec.name}"),
                            [b.mask for b in t.bases], spec.n, inputs.SEPARATE_POINTS)
        jobs.append(Job(f"{spec.name} separate", "separate",
                        lambda t=t, p=pts: _separate(mf, t, p), check_separate))
    return jobs


def _basis_counts_at(matroid, label):
    """(bases containing label, bases avoiding it)."""
    bit = 1 << matroid.ground.labels.index(label)
    with_p = sum(1 for b in matroid.bases if b.mask & bit)
    return with_p, matroid.basis_count() - with_p


def wide(mf, cli, seed, workdir):
    jobs = []
    files = {}
    # Bound now, so a traced pass does not charge the checks to ``files``.
    loads = mf.loads
    for spec in inputs.WIDE + inputs.WIDE_OPERANDS:
        matroid = _template(mf, spec, seed)
        path = str(Path(workdir) / f"wide-{spec.name}.txt")
        mf.save(path, matroid, spec.name)
        files[spec.name] = (path, matroid)
    for spec in inputs.WIDE:
        path, matroid = files[spec.name]
        rng = inputs.rng_for(seed, f"weights {spec.name}")
        for k in range(inputs.WEIGHTS_PER_INPUT):
            values = inputs.weights(rng, spec.n)
            expected = mf.brute_force_max_basis(
                matroid, mf.WeightFunction.from_values(matroid.ground, values)).value
            argv = ["mwbp", path, "--weights=" + ",".join(map(str, values)), "--json"]
            jobs.append(Job(
                f"{spec.name} mwbp {k}", "mwbp", lambda a=argv: call_cli(cli, a),
                lambda out, m=matroid, v=values, e=expected: check_mwbp(m, v, e, out)))
    for left, right in inputs.WIDE_TWO_SUMS:
        (lpath, lm), (rpath, rm) = files[left], files[right]
        p, q = lm.ground.labels[0], rm.ground.labels[0]
        (lw, lo), (rw, ro) = _basis_counts_at(lm, p), _basis_counts_at(rm, q)
        out_path = str(Path(workdir) / f"out-{left}+{right}.txt")
        argv = ["two-sum", lpath, rpath, "--base", f"{p},{q}", "-o", out_path, "--json"]
        n = len(lm.ground) + len(rm.ground) - 2
        r = lm.rank_value + rm.rank_value - 1
        bases = lw * ro + lo * rw  # exactly one side keeps its basepoint
        jobs.append(Job(
            f"{left}+{right} two-sum", "write", lambda a=argv: call_cli(cli, a),
            lambda out, f=out_path, n=n, r=r, b=bases: check_written(loads, f, n, r, b, out)))
    for r, n in inputs.WIDE_CATALOG:
        name = f"U_{r}_{n}"
        out_path = str(Path(workdir) / f"out-{name}.txt")
        argv = ["catalog", name, "-o", out_path, "--json"]
        jobs.append(Job(
            f"{name} catalog", "write", lambda a=argv: call_cli(cli, a),
            lambda out, f=out_path, n=n, r=r: check_written(loads, f, n, r, comb(n, r), out)))
    return jobs


WORKLOADS = {"ladder": ladder, "oracle": oracle, "wide": wide}
