"""The counting-based uniformity verdicts and their call discipline."""

import pytest

from matroidfacets import (
    Not3Connected,
    catalog_get,
    direct_sum,
    is_uniform_direct,
    locked_number_oracle,
    test_uniformity,
    two_sum,
    uniform,
    uniform_iff_no_locked,
)


def expected_oracle_calls(matroid):
    # the oracle is consulted exactly once, and only when the cheap
    # screens (full rank, zero rank, loops, coloops, disconnection)
    # cannot decide
    n = len(matroid.ground)
    r = matroid.rank_value
    if r == 0 or r == n:
        return 0
    if matroid.loops() or matroid.coloops():
        return 0
    if not matroid.is_connected():
        return 0
    return 1


def test_witness_conditions_in_documented_order():
    assert test_uniformity(uniform(3, 3)).witness_condition == "iv"
    assert test_uniformity(uniform(0, 4)).witness_condition == "v"
    assert test_uniformity(uniform(1, 5)).witness_condition == "ii"
    assert test_uniformity(uniform(4, 5)).witness_condition == "iii"
    assert test_uniformity(uniform(2, 4)).witness_condition == "i"
    assert test_uniformity(uniform(1, 1)).witness_condition == "iv"  # iv beats ii


def test_not_uniform_reports_none_with_numbers():
    verdict = test_uniformity(catalog_get("MK4").matroid)
    assert not verdict.uniform
    assert verdict.witness_condition == "none"
    assert verdict.inputs_used == locked_number_oracle(catalog_get("MK4").matroid)


def test_loops_and_coloops_short_circuit():
    looped = direct_sum(uniform(0, 1), uniform(2, 3))
    verdict = test_uniformity(looped)
    assert not verdict.uniform
    assert verdict.inputs_used is None
    assert "loop" in verdict.note
    coloop = direct_sum(uniform(1, 1), uniform(1, 2))
    verdict = test_uniformity(coloop)
    assert not verdict.uniform and verdict.inputs_used is None


def test_oracle_called_exactly_per_schedule(uniformity_pool):
    for name, m in uniformity_pool:
        calls = []

        def counting(matroid):
            calls.append(matroid)
            return locked_number_oracle(matroid)

        test_uniformity(m, oracle=counting)
        assert len(calls) == expected_oracle_calls(m), name


def test_agreement_with_direct_count(uniformity_pool):
    assert len(uniformity_pool) >= 50
    for name, m in uniformity_pool:
        assert test_uniformity(m).uniform == is_uniform_direct(m), name


def test_equivalence_needs_3_connectivity():
    with pytest.raises(Not3Connected):
        uniform_iff_no_locked(direct_sum(uniform(1, 2), uniform(1, 2)))
    with pytest.raises(Not3Connected):
        uniform_iff_no_locked(two_sum(uniform(2, 4), "1", uniform(2, 4), "1"))


def test_equivalence_holds_on_3_connected_pool(uniformity_pool, catalog):
    checked = 0
    for name, m in uniformity_pool:
        if m.is_3_connected():
            assert uniform_iff_no_locked(m), name
            checked += 1
    # uniforms with 2 <= r <= n-2 plus the small connected ones plus the
    # catalog five; rank-1 and corank-1 uniforms on 4+ elements drop out
    assert checked == 26
