"""Top-level acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
on success) and then asserts, so the pytest verdict and the printed line
always agree.  Criteria with stated time budgets measure and enforce
them here; everything else is exact arithmetic with no tolerances.
"""

import random
import time
from fractions import Fraction

from matroidfacets import (
    WeightFunction,
    brute_force_max_basis,
    catalog_names,
    certify,
    enumerate_locked,
    greedy_max_basis,
    independence_tight_set,
    independent_via_optimization,
    is_uniform_direct,
    locked_number_oracle,
    oracle_facets_independence,
    predicted_facets_bases,
    predicted_facets_independence,
    rank_via_optimization,
    separate,
    test_uniformity,
    two_sum,
    uniform,
)
from matroidfacets.core import subsets_by_size

EXPECTED_LOCKED = {"MK4": 4, "W3": 3, "Q6": 2, "P6": 1, "V8": 5}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_locked_numbers(catalog):
    worst = 0.0
    got = {}
    for name, entry in catalog.items():
        start = time.perf_counter()
        got[name] = len(enumerate_locked(entry.matroid))
        worst = max(worst, time.perf_counter() - start)
    ok = got == EXPECTED_LOCKED and worst < 1.0
    detail = (
        " ".join(f"{n}={got[n]}" for n in catalog_names())
        + f" (expected 4 3 2 1 5), slowest {worst:.3f}s < 1s"
    )
    report(1, ok, detail)


def test_criterion_02_certification_zero_symmetric_difference(catalog):
    inputs = [(name, entry.matroid) for name, entry in catalog.items()]
    for n in range(4, 8):
        for r in range(2, n - 1):
            inputs.append((f"U_{r}_{n}", uniform(r, n)))
    start = time.perf_counter()
    bad = []
    for name, m in inputs:
        rep = certify(m)
        if rep.missing or rep.extra or not rep.passed:
            bad.append(name)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    detail = (
        f"{len(inputs)} matroids certified, mismatches: {bad or 'none'}, "
        f"{elapsed:.2f}s < 30s"
    )
    report(2, ok, detail)


def test_criterion_03_facet_count_formula(catalog):
    cases = {name: entry.matroid for name, entry in catalog.items()}
    cases["U_2_4"] = uniform(2, 4)
    pinned = {"U_2_4": 8, "MK4": 16, "V8": 21}
    bad = []
    counts = {}
    for name, m in cases.items():
        predicted = len(predicted_facets_bases(m).facets)
        expected = 2 * len(m.ground) + len(enumerate_locked(m))
        counts[name] = predicted
        if predicted != expected:
            bad.append(name)
        if name in pinned and predicted != pinned[name]:
            bad.append(name)
    ok = not bad
    detail = (
        " ".join(f"{n}={counts[n]}" for n in sorted(cases))
        + " all equal 2|E|+locked, pinned U_2_4=8 MK4=16 V8=21"
    )
    report(3, ok, detail)


def test_criterion_04_independence_polytope_small_scale(uniformity_pool):
    checked = 0
    bad = []
    for name, m in uniformity_pool:
        if len(m.ground) > 6 or m.loops():
            continue
        system = predicted_facets_independence(m)
        predicted = {independence_tight_set(m, c) for c in system.facets}
        if predicted != oracle_facets_independence(m):
            bad.append(name)
        checked += 1
    ok = not bad and checked >= 30
    report(4, ok, f"{checked} loopless matroids with at most 6 elements, mismatches: {bad or 'none'}")


def test_criterion_05_uniformity_agreement_and_call_schedule(uniformity_pool):
    bad = []
    for name, m in uniformity_pool:
        calls = []

        def counting(matroid):
            calls.append(matroid)
            return locked_number_oracle(matroid)

        verdict = test_uniformity(m, oracle=counting)
        if verdict.uniform != is_uniform_direct(m):
            bad.append(f"{name}: verdict")
        oracle_usable = not m.loops() and not m.coloops() and m.is_connected()
        if len(calls) != (1 if oracle_usable else 0):
            bad.append(f"{name}: {len(calls)} calls")
    ok = not bad and len(uniformity_pool) >= 50
    report(
        5,
        ok,
        f"{len(uniformity_pool)} matroids agree with the direct count, "
        "one oracle call when loopless, coloopless and connected, else zero; "
        f"bad: {bad or 'none'}",
    )


def test_criterion_06_greedy_equals_brute_force(catalog):
    rng = random.Random(20240817)
    start = time.perf_counter()
    total = 0
    bad = 0
    for name, entry in catalog.items():
        m = entry.matroid
        n = len(m.ground)
        for trial in range(1000):
            if trial % 4 == 3:
                # engineered ties: tiny value set forces many equal weights
                values = [Fraction(rng.choice((-1, 0, 1))) for _ in range(n)]
            else:
                values = [
                    Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                    for _ in range(n)
                ]
            w = WeightFunction.from_values(m.ground, values)
            if greedy_max_basis(m, w).value != brute_force_max_basis(m, w).value:
                bad += 1
            total += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 10.0
    report(6, ok, f"{total} weight vectors, {bad} disagreements, {elapsed:.2f}s < 10s")


def test_criterion_07_oracle_reductions_exhaustive(catalog):
    bad = 0
    total = 0
    for entry in catalog.values():
        m = entry.matroid
        for mask in subsets_by_size(m.ground):
            sub = m.ground.from_mask(mask)
            r = m.rank(sub).value
            if rank_via_optimization(m, sub) != r:
                bad += 1
            if independent_via_optimization(m, sub) != (r == len(sub)):
                bad += 1
            total += 2
    report(7, bad == 0, f"{total} reduction checks over every subset of every catalog matroid, {bad} wrong")


def test_criterion_08_duality_identity(catalog):
    bad = 0
    total = 0
    for entry in catalog.values():
        m = entry.matroid
        full = m.ground.full_mask
        n = len(m.ground)
        for b in (basis.mask for basis in m.bases):
            for x in range(full + 1):
                left = (b & x).bit_count() == m._rank_mask(x)
                right = ((full ^ b) & (full ^ x)).bit_count() == m._dual_rank_mask(full ^ x)
                if left != right:
                    bad += 1
                total += 1
    report(8, bad == 0, f"{total} basis/subset pairs, biconditional failed {bad} times")


UNIFORM_SIDES = [(r, n) for n in (3, 4, 5) for r in range(1, n)]
# locked sets of a 2-sum of uniforms: one per glued side that keeps rank
# and corank at least 2 after losing the basepoint, so exactly the sides
# drawn from {U_2_4, U_2_5, U_3_5}; frozen from a hand-checked run
_DEEP = {(2, 4), (2, 5), (3, 5)}
EXPECTED_TWO_SUM_LOCKED = {
    (r1, n1, r2, n2): (2 if (r1, n1) in _DEEP and (r2, n2) in _DEEP else 0)
    for (r1, n1) in UNIFORM_SIDES
    for (r2, n2) in UNIFORM_SIDES
}


def test_criterion_09_two_sum_regression():
    bad = []
    glued = two_sum(uniform(2, 3), "1", uniform(2, 3), "1")
    u34 = uniform(3, 4)
    same_family = sorted(b.indices() for b in glued.bases) == sorted(
        b.indices() for b in u34.bases
    )
    if not (same_family and glued.rank_value == 3):
        bad.append("U_2_3 + U_2_3 is not U_3_4")
    assert len(EXPECTED_TWO_SUM_LOCKED) == 81
    spot = EXPECTED_TWO_SUM_LOCKED
    assert spot[(2, 4, 2, 4)] == 2 and spot[(2, 3, 2, 4)] == 0 and spot[(3, 5, 3, 5)] == 2
    for (r1, n1, r2, n2), expected in EXPECTED_TWO_SUM_LOCKED.items():
        m = two_sum(uniform(r1, n1), "1", uniform(r2, n2), "1")
        ell = len(enumerate_locked(m))
        if ell != expected or ell > len(m.ground):
            bad.append(f"U_{r1}_{n1}+U_{r2}_{n2}: {ell}")
    ok = not bad
    report(9, ok, f"basis-family equality holds and all 81 uniform 2-sums match the frozen locked counts; bad: {bad or 'none'}")


def test_criterion_10_separation_contract(catalog):
    rng = random.Random(99)
    bad = []
    for name, entry in catalog.items():
        m = entry.matroid
        system = predicted_facets_bases(m)
        n = len(m.ground)
        vertices = [
            [Fraction(1) if basis.mask >> i & 1 else Fraction(0) for i in range(n)]
            for basis in m.bases
        ]
        for v in vertices:
            if separate(system, v) is not None:
                bad.append(f"{name}: vertex cut off")

        def convex_point():
            weights = [Fraction(rng.randint(1, 20)) for _ in vertices]
            total = sum(weights)
            return [
                sum(w * v[i] for w, v in zip(weights, vertices)) / total
                for i in range(n)
            ]

        for _ in range(100):
            if separate(system, convex_point()) is not None:
                bad.append(f"{name}: interior point cut off")
        for _ in range(100):
            point = convex_point()
            facet = system.facets[rng.randrange(len(system.facets))]
            size = len(facet.support())
            nudge = (facet.rhs - facet.evaluate(point)) / size + Fraction(1, 7)
            if facet.sense == ">=":
                nudge = (facet.rhs - facet.evaluate(point)) / size - Fraction(1, 7)
            pushed = [
                x + (nudge if facet.coeffs[i] else 0) for i, x in enumerate(point)
            ]
            cut = separate(system, pushed)
            if cut is None or cut.violation(pushed) <= 0:
                bad.append(f"{name}: pushed point not separated")
    ok = not bad
    report(10, ok, f"catalog vertices and 500 interior points kept, 500 pushed points cut; bad: {bad or 'none'}")
