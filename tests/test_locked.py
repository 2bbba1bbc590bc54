"""Locked subsets: the membership test, the enumeration, the bounded oracle."""

from itertools import combinations

import pytest

import _naive as naive
import matroidfacets.locked as locked_module
from matroidfacets import (
    ColoopPresent,
    LoopPresent,
    MatroidError,
    NegativeExponent,
    NotProperSubset,
    catalog_get,
    direct_sum,
    enumerate_locked,
    is_locked,
    k_locked_oracle,
    locked_number_oracle,
    locked_structure,
    uniform,
)

EXPECTED_ELL = {"MK4": 4, "W3": 3, "Q6": 2, "P6": 1, "V8": 5}


def test_triangles_of_mk4_are_locked():
    m = catalog_get("MK4").matroid
    g = m.ground
    assert is_locked(m, g.subset(["ab", "ac", "bc"]))
    assert not is_locked(m, g.subset(["ab", "ac"]))
    assert not is_locked(m, g.subset(["ab", "ac", "bd"]))


def test_proper_nonempty_subset_required():
    m = catalog_get("MK4").matroid
    with pytest.raises(NotProperSubset):
        is_locked(m, m.ground.empty)
    with pytest.raises(NotProperSubset):
        is_locked(m, m.ground.full)


@pytest.mark.parametrize("name", sorted(EXPECTED_ELL))
def test_membership_matches_naive_everywhere(name):
    m = catalog_get(name).matroid
    ground, bases = naive.as_pair(m)
    for size in range(1, len(m.ground)):
        for c in combinations(m.ground.labels, size):
            sub = m.ground.subset(list(c))
            assert is_locked(m, sub) == naive.locked(ground, bases, frozenset(c)), c


@pytest.mark.parametrize("name", sorted(EXPECTED_ELL))
def test_catalog_locked_numbers(name):
    m = catalog_get(name).matroid
    assert len(enumerate_locked(m)) == EXPECTED_ELL[name]


def test_mk4_locked_sets_are_its_triangles():
    m = catalog_get("MK4").matroid
    got = [s.labels() for s in enumerate_locked(m)]
    assert got == [
        ("ab", "ac", "bc"),
        ("ab", "ad", "bd"),
        ("ac", "ad", "cd"),
        ("bc", "bd", "cd"),
    ]


def test_v8_locked_sets_are_the_non_basis_quadruples():
    m = catalog_get("V8").matroid
    got = {s.labels() for s in enumerate_locked(m)}
    assert got == {
        ("a", "a'", "b", "b'"),
        ("a", "a'", "c", "c'"),
        ("a", "a'", "d", "d'"),
        ("b", "b'", "c", "c'"),
        ("b", "b'", "d", "d'"),
    }
    for s in got:
        assert not m.independent(m.ground.subset(s))


def test_enumeration_ordered_by_size_then_position():
    for name in sorted(EXPECTED_ELL):
        found = enumerate_locked(catalog_get(name).matroid)
        keys = [s.sort_key() for s in found]
        assert keys == sorted(keys)


def test_uniform_matroids_have_no_locked_subsets():
    for n in range(1, 8):
        for r in range(n + 1):
            assert enumerate_locked(uniform(r, n)) == ()


def test_disconnected_enumeration_unions_over_components():
    m = direct_sum(catalog_get("MK4").matroid, catalog_get("MK4").matroid)
    found = enumerate_locked(m)
    assert len(found) == 8
    labels = {s.labels() for s in found}
    assert ("L.ab", "L.ac", "L.bc") in labels
    assert ("R.bc", "R.bd", "R.cd") in labels
    # every locked set lives inside one component
    comps = m.components()
    for s in found:
        assert any(s <= c for c in comps)
    ground, bases = naive.as_pair(m)
    assert sorted(labels, key=lambda t: (len(t), t)) == [
        tuple(sorted(s)) for s in naive.all_locked(ground, bases)
    ]


def test_enumeration_matches_naive_on_the_pool(uniformity_pool):
    for name, m in uniformity_pool:
        ground, bases = naive.as_pair(m)
        got = {frozenset(s.labels()) for s in enumerate_locked(m)}
        assert got == set(naive.all_locked(ground, bases)), name


def test_membership_agrees_with_the_enumeration_on_the_pool(uniformity_pool):
    # one predicate: a proper subset of one component, locked in it (for
    # U_2_4+U_2_4 no component is locked; for MK4+U_2_4 the triangles are)
    pool = [*uniformity_pool, ("MK4+U24", direct_sum(catalog_get("MK4").matroid, uniform(2, 4)))]
    for name, m in pool:
        ground, bases = naive.as_pair(m)
        locked = set(naive.all_locked(ground, bases))
        for sub in range(1, m.ground.full_mask):
            s = m.ground.from_mask(sub)
            assert is_locked(m, s) == (frozenset(s.labels()) in locked), (name, s)


def test_cap_stops_the_scan_early():
    m = catalog_get("V8").matroid
    assert len(enumerate_locked(m, cap=2)) == 3  # one past the cap is enough
    assert len(enumerate_locked(m, cap=0)) == 1


def test_cap_truncates_the_full_enumeration(uniformity_pool):
    for name, m in uniformity_pool:
        found = enumerate_locked(m)
        for k in range(len(found) + 1):
            assert enumerate_locked(m, cap=k) == found[: k + 1], (name, k)


def test_locked_structure_holds_partitions_and_ranks():
    m = catalog_get("MK4").matroid
    s = locked_structure(m)
    assert len(s.parallel) == 6 and len(s.coparallel) == 6
    assert len(s.locked) == 4
    full = m.ground.full
    assert s.rho[full] == 3
    assert s.rho[m.ground.empty] == 0
    for cls in s.parallel:
        assert s.rho[cls] == 1
    for sub in s.locked:
        assert s.rho[sub] == m.rank(sub).value == 2


def test_locked_structure_needs_loopless_coloopless():
    with pytest.raises(LoopPresent):
        locked_structure(direct_sum(uniform(0, 1), uniform(2, 3)))
    with pytest.raises(ColoopPresent):
        locked_structure(uniform(2, 2))


def test_k_locked_oracle_thresholds():
    mk4 = catalog_get("MK4").matroid
    yes = k_locked_oracle(mk4, 1)  # threshold 6 >= 4 locked sets
    assert not yes.is_no
    assert yes.threshold == 6
    assert len(yes.structure.locked) == 4
    no = k_locked_oracle(mk4, 0)  # threshold 1 < 4
    assert no.is_no
    assert no.structure is None


def test_k_locked_oracle_caps_the_threshold_at_n_to_the_n():
    # MK4 has 6 elements and 4 locked sets: 6**6 already exceeds any
    # count, so a huge k neither builds 6**k nor changes the verdict
    mk4 = catalog_get("MK4").matroid
    for k in (6000, 10**12):
        verdict = k_locked_oracle(mk4, k)
        assert not verdict.is_no and verdict.threshold == 6**6
        assert len(verdict.structure.locked) == 4
    assert k_locked_oracle(mk4, 6).threshold == 6**6


def test_k_locked_oracle_refuses_a_negative_k():
    with pytest.raises(NegativeExponent) as info:
        k_locked_oracle(catalog_get("MK4").matroid, -1)
    # a package error, and still a ValueError for older callers
    assert isinstance(info.value, MatroidError)
    assert isinstance(info.value, ValueError)


def test_locked_number_oracle_counts():
    numbers = locked_number_oracle(catalog_get("W3").matroid)
    assert numbers.ell == 3
    assert numbers.rank == 3
    assert numbers.parallel_count == 6
    assert numbers.coparallel_count == 6


def test_locked_sets_and_complements_are_closed():
    # a locked set is closed, and its complement is closed in the dual
    for name in sorted(EXPECTED_ELL):
        m = catalog_get(name).matroid
        for sub in enumerate_locked(m):
            assert m.is_closed(sub)
            assert m.dual().is_closed(sub.complement())


def test_lockedness_is_self_dual_under_complement():
    for name in sorted(EXPECTED_ELL):
        m = catalog_get(name).matroid
        dual = m.dual()
        for size in range(1, len(m.ground)):
            for c in combinations(m.ground.labels, size):
                sub = m.ground.subset(list(c))
                dual_sub = dual.ground.subset(sub.complement().labels())
                assert is_locked(m, sub) == is_locked(dual, dual_sub), (name, c)


def test_direct_sum_locked_sets_are_the_summands_sets():
    w3 = catalog_get("W3").matroid
    q6 = catalog_get("Q6").matroid
    m = direct_sum(w3, q6)
    expected = {tuple("L." + lab for lab in s.labels()) for s in enumerate_locked(w3)}
    expected |= {tuple("R." + lab for lab in s.labels()) for s in enumerate_locked(q6)}
    assert {s.labels() for s in enumerate_locked(m)} == expected


def test_uncapped_enumeration_and_generous_oracle_agree():
    for name in sorted(EXPECTED_ELL):
        m = catalog_get(name).matroid
        verdict = k_locked_oracle(m, len(m.ground))  # threshold far above ell
        assert not verdict.is_no
        assert verdict.structure.locked == enumerate_locked(m)


def test_k_locked_oracle_enumerates_once(monkeypatch):
    m = catalog_get("W3").matroid
    expected = locked_structure(m)
    caps = []
    real = locked_module.enumerate_locked

    def counting(matroid, cap=None):
        caps.append(cap)
        return real(matroid, cap)

    monkeypatch.setattr(locked_module, "enumerate_locked", counting)
    verdict = k_locked_oracle(m, 1)
    assert caps == [len(m.ground)]
    assert verdict.structure == expected
