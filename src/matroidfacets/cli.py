"""Command-line interface.

Every command reads matroid files (see ``files``) and prints an aligned
text report or, with ``--json``, one canonically serialized JSON document
(``indent=2``, sorted keys) with four keys: ``command`` (the subcommand),
``inputs`` (its arguments), ``results`` and ``timing`` (``seconds``).  It
exits 0 on success / positive verdict, 1 on a negative verdict (failed
certification, refused k-locked oracle, not uniform), 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from .catalog import catalog_get, catalog_names, two_sum
from .core import MatroidError
from .files import MatroidFile, ParseError, dumps, load, write
from .locked import k_locked_oracle, locked_structure
from .optimize import WeightFunction, greedy_max_basis
from .polytope import (
    certify,
    predicted_facets_bases,
    predicted_facets_independence,
)
from .uniformity import test_uniformity


def _run(args) -> int:
    """Time one command body and print its report.  A body returns
    ``(results, text_lines, exit_code)``.  ``results["name"]`` names the
    matroid, and the text report opens with it as a ``name:`` line, so a
    body's text lines start after that header.  ``inputs`` are the body's
    arguments as it left them, so a body may store them in normal form."""
    started = time.perf_counter()
    results, text, code = args.func(args)
    if args.json:
        payload = {
            "command": args.command,
            "inputs": {k: v for k, v in vars(args).items() if k not in ("command", "json", "func")},
            "results": results,
            "timing": {"seconds": time.perf_counter() - started},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"name: {results['name']}")
        for line in text:
            print(line)
    return code


def cmd_info(args):
    matroid, mf = load(args.file)
    components = matroid.components()
    loops = matroid.loops()
    coloops = matroid.coloops()
    connected = matroid.is_connected()
    three = matroid.is_3_connected()
    results = {
        "name": mf.name,
        "elements": list(matroid.ground.labels),
        "size": len(matroid.ground),
        "rank": matroid.rank_value,
        "bases": matroid.basis_count(),
        "loops": list(loops),
        "coloops": list(coloops),
        "connected": connected,
        "three_connected": three,
        "components": [list(c) for c in components],
    }
    text = [
        f"elements: {' '.join(matroid.ground.labels)}",
        f"size: {len(matroid.ground)}",
        f"rank: {matroid.rank_value}",
        f"bases: {matroid.basis_count()}",
        f"loops: {loops!r}" if loops else "loops: -",
        f"coloops: {coloops!r}" if coloops else "coloops: -",
        f"connected: {'yes' if connected else 'no'}",
        f"3-connected: {'yes' if three else 'no'}",
        f"components: {' '.join(map(repr, components))}",
    ]
    return results, text, 0


def cmd_locked(args):
    if args.k is not None and args.k < 0:
        raise ParseError(f"--k must be nonnegative, got {args.k}")
    matroid, mf = load(args.file)
    results = {"name": mf.name}
    text = []
    if args.k is None:
        structure = locked_structure(matroid)
    else:
        verdict = k_locked_oracle(matroid, args.k)
        results.update(
            k=verdict.k,
            threshold=verdict.threshold,
            verdict="no" if verdict.is_no else "structure",
        )
        text += [f"k: {verdict.k}", f"threshold: {verdict.threshold}"]
        if verdict.is_no:
            results["locked_count_exceeds"] = verdict.threshold
            text.append(f"verdict: No (more than {verdict.threshold} locked subsets)")
            return results, text, 1
        structure = verdict.structure
        text.append("verdict: structure")
    results.update(
        rank=matroid.rank_value,
        locked_count=len(structure.locked),
        parallel_count=len(structure.parallel),
        coparallel_count=len(structure.coparallel),
        parallel=[list(p) for p in structure.parallel],
        coparallel=[list(s) for s in structure.coparallel],
        locked=[{"set": list(s), "rank": structure.rho[s]} for s in structure.locked],
    )
    text += [
        f"parallel closures: {' '.join(map(repr, structure.parallel))}",
        f"coparallel closures: {' '.join(map(repr, structure.coparallel))}",
        f"locked count: {len(structure.locked)}",
    ]
    text += [f"locked: {s!r} rank {structure.rho[s]}" for s in structure.locked]
    return results, text, 0


def cmd_facets(args):
    matroid, mf = load(args.file)
    if args.polytope == "bases":
        system = predicted_facets_bases(matroid)
    else:
        system = predicted_facets_independence(matroid)
    by_origin: dict[str, int] = {}
    for c in system.facets:
        by_origin[c.origin.value] = by_origin.get(c.origin.value, 0) + 1
    equality = system.equality.canonical() if system.equality else None
    facets = [c.canonical() for c in system.facets]
    collapsed = [c.canonical() for c in system.collapsed]
    results = {
        "name": mf.name,
        "equality": equality,
        "facets": facets,
        "facet_count": len(facets),
        "by_origin": by_origin,
        "collapsed": collapsed,
    }
    text = [f"polytope: {args.polytope}"]
    if equality is not None:
        text.append(f"equality: {equality}")
    text.append(f"facets: {len(facets)}")
    text.extend(f"  {c}" for c in facets)
    text.extend(f"collapsed: {c}" for c in collapsed)
    return results, text, 0


def cmd_certify(args):
    matroid, mf = load(args.file)
    report = certify(matroid)
    results = {
        "name": mf.name,
        "passed": report.passed,
        "dimension": report.dimension,
        "predicted_count": report.predicted_count,
        "oracle_count": report.oracle_count,
        "matched_count": report.matched_count,
        "missing_count": len(report.missing),
        "extra": [c.canonical() for c, _ in report.extra],
        "lemma_violations": [list(s) for s in report.lemma_violations],
        "notes": list(report.notes),
    }
    text = [
        f"dimension: {report.dimension}",
        f"predicted facets: {report.predicted_count}",
        f"oracle facets: {report.oracle_count}",
        f"matched: {report.matched_count}",
        f"missing: {len(report.missing)}",
        f"extra: {len(report.extra)}",
    ]
    for note in report.notes:
        text.append(f"note: {note}")
    for c, _ in report.extra:
        text.append(f"extra facet: {c.canonical()}")
    for s in report.lemma_violations:
        text.append(f"lemma violation: {s!r}")
    text.append("result: PASS" if report.passed else "result: FAIL")
    return results, text, 0 if report.passed else 1


def cmd_mwbp(args):
    try:
        values = [Fraction(w) for w in args.weights.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse weights {args.weights!r}") from None
    args.weights = [str(v) for v in values]
    matroid, mf = load(args.file)
    result = greedy_max_basis(matroid, WeightFunction.from_values(matroid.ground, values))
    results = {
        "name": mf.name,
        "basis": list(result.basis),
        "value": str(result.value),
        "trace": [
            {"element": s.label, "weight": str(s.weight), "accepted": s.accepted}
            for s in result.trace
        ],
    }
    text = [
        f"basis: {result.basis!r}",
        f"value: {result.value}",
    ]
    for s in result.trace:
        text.append(f"  {'accept' if s.accepted else 'reject'} {s.label} (weight {s.weight})")
    return results, text, 0


def cmd_uniform(args):
    matroid, mf = load(args.file)
    verdict = test_uniformity(matroid)
    numbers = verdict.inputs_used
    results = {
        "name": mf.name,
        "uniform": verdict.uniform,
        "witness_condition": verdict.witness_condition,
        "note": verdict.note,
        "locked_numbers": None if numbers is None else asdict(numbers),
    }
    text = [
        f"uniform: {'yes' if verdict.uniform else 'no'}",
        f"witness condition: {verdict.witness_condition}",
    ]
    if numbers is not None:
        text.append(
            f"locked numbers: ell={numbers.ell} rank={numbers.rank} "
            f"parallel={numbers.parallel_count} coparallel={numbers.coparallel_count}"
        )
    if verdict.note:
        text.append(f"note: {verdict.note}")
    return results, text, 0 if verdict.uniform else 1


def _write_or_print(args, listing: MatroidFile) -> list[str]:
    if args.output:
        write(args.output, listing)
        return [f"wrote: {args.output}"]
    return [dumps(listing).rstrip("\n")]


def cmd_two_sum(args):
    args.base = args.base.split(",")
    if len(args.base) != 2:
        raise ParseError("--base needs two comma-separated labels: p1,p2")
    m1, mf1 = load(args.file1)
    m2, mf2 = load(args.file2)
    result = two_sum(m1, args.base[0], m2, args.base[1])
    name = f"{mf1.name}+{mf2.name}"
    lines = _write_or_print(args, MatroidFile.from_matroid(result, name))
    results = {
        "name": name,
        "elements": list(result.ground.labels),
        "rank": result.rank_value,
        "bases": result.basis_count(),
    }
    text = [
        f"elements: {' '.join(result.ground.labels)}",
        f"rank: {result.rank_value}",
        f"bases: {result.basis_count()}",
    ]
    return results, text + lines, 0


def cmd_catalog(args):
    entry = catalog_get(args.name)
    listing = entry.listing
    count = listing.basis_count()
    # the report prints the count, in text or JSON, so refuse before
    # writing a count longer than the interpreter will convert
    try:
        shown = str(count)
    except ValueError:
        raise MatroidError(
            f"{entry.name} has a basis count of more than "
            f"{sys.get_int_max_str_digits()} digits, too long to print"
        ) from None
    lines = _write_or_print(args, listing)
    results = {
        "name": entry.name,
        "elements": list(listing.labels),
        "rank": listing.rank,
        "bases": count,
        "expected_locked_number": entry.expected_locked_number,
    }
    text = [
        f"rank: {listing.rank}",
        f"bases: {shown}",
        f"expected locked number: {entry.expected_locked_number}",
    ]
    return results, text + lines, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matroidfacets",
        description="Locked subsets, bases-polytope facets, and matroid greedy, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("info", cmd_info, "ground set, rank, connectivity summary")
    p.add_argument("file")

    p = add("locked", cmd_locked, "locked structure, or the bounded k-locked verdict")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None, help="refuse when more than |E|**k locked subsets exist")

    p = add("facets", cmd_facets, "structural facet system of a polytope")
    p.add_argument("file")
    p.add_argument("--polytope", choices=("bases", "independence"), default="bases")

    p = add("certify", cmd_certify, "compare structural facets against the brute-force oracle")
    p.add_argument("file")

    p = add("mwbp", cmd_mwbp, "maximum-weight basis by matroid greedy")
    p.add_argument("file")
    p.add_argument("--weights", required=True, help="comma-separated rationals, one per element")

    p = add("uniform", cmd_uniform, "uniformity verdict from locked numbers")
    p.add_argument("file")

    p = add("two-sum", cmd_two_sum, "glue two matroid files along basepoints")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--base", required=True, help="basepoint labels: p1,p2")
    p.add_argument("-o", "--output", default=None)

    p = add("catalog", cmd_catalog, f"write a named matroid ({', '.join(catalog_names())}, or U_r_n)")
    p.add_argument("name")
    p.add_argument("-o", "--output", default=None)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _run(args)
    except (MatroidError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
