"""Greedy maximum-weight basis against brute force, and the reductions."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _naive as naive
from _draws import matroids
from matroidfacets import (
    DimensionMismatch,
    WeightFunction,
    brute_force_max_basis,
    catalog_get,
    greedy_max_basis,
    independent_via_optimization,
    load,
    rank_via_optimization,
    save,
    uniform,
)
from matroidfacets.core import subsets_by_size


class TestWeightFunction:
    def test_construction_routes(self):
        m = uniform(2, 3)
        w1 = WeightFunction.from_values(m.ground, [1, Fraction(1, 2), "2/3"])
        w2 = WeightFunction.from_mapping(m.ground, {"1": 1, "2": "1/2", "3": Fraction(2, 3)})
        assert w1 == w2
        assert w1.of(m.ground.singleton("3")) == Fraction(2, 3)

    def test_size_checked(self):
        m = uniform(2, 3)
        with pytest.raises(DimensionMismatch):
            WeightFunction.from_values(m.ground, [1, 2])
        # weights over one ground set meet a subset or matroid over another
        w, other = WeightFunction.from_values(m.ground, [1, 2, 3]), uniform(2, 4)
        with pytest.raises(DimensionMismatch):
            w.of(other.ground.full)
        for solve in (greedy_max_basis, brute_force_max_basis):
            with pytest.raises(DimensionMismatch):
                solve(other, w)

    def test_characteristic(self):
        m = uniform(2, 4)
        sub = m.ground.subset(["2", "4"])
        w = WeightFunction.characteristic(sub)
        assert w.values == (0, 1, 0, 1)
        assert w.of(m.ground.full) == 2

    def test_common_denominator(self):
        m = uniform(1, 3)
        w = WeightFunction.from_values(m.ground, [Fraction(1, 2), Fraction(1, 3), 1])
        nums, den = w.common_denominator()
        assert den == 6
        assert nums == (3, 2, 6)
        assert w.dot_mask(0b011) == Fraction(5, 6)


_WEIGHTS = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**4),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@given(st.lists(_WEIGHTS, min_size=1, max_size=24))
def test_common_denominator_matches_the_fraction_products(values):
    # numerators from integer arithmetic against int(v * den), each value
    # taken as Fraction(v), and a Fraction kept as the very object given
    ground = uniform(1, len(values)).ground
    w = WeightFunction.from_values(ground, values)
    fractions = [Fraction(v) for v in values]
    assert w.values == tuple(fractions)
    assert all(kept is v for kept, v in zip(w.values, values) if type(v) is Fraction)
    den = lcm(*(v.denominator for v in fractions))
    assert w.common_denominator() == (tuple(int(v * den) for v in fractions), den)


class TestGreedy:
    def test_documented_run_on_mk4(self):
        m = catalog_get("MK4").matroid
        w = WeightFunction.from_values(m.ground, [5, 4, 3, 2, 1, 0])
        res = greedy_max_basis(m, w)
        assert res.basis.labels() == ("ab", "ac", "ad")
        assert res.value == 12
        assert [(s.label, s.accepted) for s in res.trace] == [
            ("ab", True), ("ac", True), ("ad", True),
            ("bc", False), ("bd", False), ("cd", False),
        ]

    def test_trace_visits_every_element_heaviest_first(self):
        m = catalog_get("Q6").matroid
        w = WeightFunction.from_values(m.ground, [1, 3, 2, 3, 0, 5])
        res = greedy_max_basis(m, w)
        assert len(res.trace) == len(m.ground)
        weights = [s.weight for s in res.trace]
        assert weights == sorted(weights, reverse=True)
        accepted = [s.label for s in res.trace if s.accepted]
        assert set(accepted) == set(res.basis.labels())

    def test_equal_weights_pick_lowest_indices(self):
        m = uniform(2, 4)
        w = WeightFunction.from_values(m.ground, [1, 1, 1, 1])
        res = greedy_max_basis(m, w)
        assert res.basis.labels() == ("1", "2")

    def test_prefer_breaks_ties_toward_the_subset(self):
        m = uniform(2, 4)
        w = WeightFunction.from_values(m.ground, [1, 1, 1, 1])
        res = greedy_max_basis(m, w, prefer=m.ground.subset(["3", "4"]))
        assert res.basis.labels() == ("3", "4")

    def test_negative_weights_still_fill_a_basis(self):
        # a basis is required even when it costs: greedy must not stop early
        m = catalog_get("W3").matroid
        w = WeightFunction.from_values(m.ground, [-1, -2, -3, -4, -5, -6])
        res = greedy_max_basis(m, w)
        assert len(res.basis) == m.rank_value
        assert res.value == brute_force_max_basis(m, w).value

    def test_matches_brute_force_on_random_rationals(self, catalog):
        rng = random.Random(421)
        for entry in catalog.values():
            m = entry.matroid
            n = len(m.ground)
            for _ in range(60):
                values = [
                    Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(n)
                ]
                w = WeightFunction.from_values(m.ground, values)
                got = greedy_max_basis(m, w)
                want = brute_force_max_basis(m, w)
                assert got.value == want.value
                assert w.of(got.basis) == got.value

    def test_matches_brute_force_under_heavy_ties(self, catalog):
        rng = random.Random(7)
        for entry in catalog.values():
            m = entry.matroid
            n = len(m.ground)
            for _ in range(40):
                values = [Fraction(rng.choice((-1, 0, 0, 1, 1))) for _ in range(n)]
                w = WeightFunction.from_values(m.ground, values)
                assert greedy_max_basis(m, w).value == brute_force_max_basis(m, w).value

    def test_wide_ground_sets_build_no_rank_table(self, tmp_path):
        # greedy makes n point queries; a 2^24-subset scan would dwarf them
        m = uniform(22, 24)
        w = WeightFunction.from_values(m.ground, range(24))
        assert greedy_max_basis(m, w).value == sum(range(2, 24))
        assert "_scan" not in vars(m)
        # nor does the exchange check that loading a file runs
        save(tmp_path / "u.txt", m, "U_22_24", encoding="bases")
        loaded, _ = load(tmp_path / "u.txt")
        assert loaded == m
        assert "_scan" not in vars(loaded)


@st.composite
def _weighted_matroid(draw):
    """A drawn matroid; weights with heavy ties, negative and fractional
    ones among them; and a preferred set of labels, or None."""
    m = draw(matroids(11))
    pool = [-2, -1, 0, 0, 1, 1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3)]
    values = draw(st.lists(st.sampled_from(pool), min_size=len(m.ground), max_size=len(m.ground)))
    prefer = draw(st.none() | st.sets(st.sampled_from(m.ground.labels)))
    return m, values, prefer


def _reference_greedy(m, values, prefer):
    """Greedy from the definition: elements by (weight desc, preferred
    first, index asc), each kept iff the naive rank grows by one."""
    _, bases = naive.as_pair(m)
    labels = m.ground.labels
    prefer = prefer or set()
    chosen, trace = frozenset(), []
    for i in sorted(range(len(labels)), key=lambda i: (-values[i], labels[i] not in prefer, i)):
        grown = chosen | {labels[i]}
        accepted = naive.rank(bases, grown) == len(grown)
        chosen = grown if accepted else chosen
        trace.append((labels[i], values[i], accepted))
    return chosen, trace


@settings(max_examples=200)
@given(_weighted_matroid())
def test_greedy_basis_and_trace_match_a_reference_over_the_naive_rank(case):
    m, values, prefer = case
    w = WeightFunction.from_values(m.ground, values)
    got = greedy_max_basis(m, w, None if prefer is None else m.ground.subset(prefer))
    chosen, trace = _reference_greedy(m, values, prefer)
    assert frozenset(got.basis) == chosen
    assert [(s.label, s.weight, s.accepted) for s in got.trace] == trace
    assert got.value == w.of(got.basis) == brute_force_max_basis(m, w).value


class TestBruteForce:
    def test_tie_goes_to_lexicographically_first_basis(self):
        m = uniform(2, 4)
        w = WeightFunction.from_values(m.ground, [0, 0, 0, 0])
        res = brute_force_max_basis(m, w)
        assert res.basis.labels() == ("1", "2")
        assert res.trace == ()


class TestReductions:
    @pytest.mark.parametrize("name", ["MK4", "W3", "Q6", "P6", "V8"])
    def test_rank_and_independence_everywhere(self, name):
        m = catalog_get(name).matroid
        g = m.ground
        for mask in subsets_by_size(g):
            sub = g.from_mask(mask)
            assert rank_via_optimization(m, sub) == m.rank(sub).value
            assert independent_via_optimization(m, sub) == m.independent(sub)

    def test_rank_reduction_returns_plain_int(self):
        m = uniform(2, 4)
        out = rank_via_optimization(m, m.ground.subset(["1"]))
        assert out == 1 and type(out) is int
