"""Ground sets, subsets, and the basis-family matroid type."""

from functools import partial, reduce
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import _naive as naive
from _draws import matroids, sparse_paving
import matroidfacets.core as core_mod
import matroidfacets.polytope as polytope
from matroidfacets import (
    ColoopPresent,
    EmptyBasisFamily,
    EmptyGroundSet,
    ExchangeAxiomViolated,
    ForeignElement,
    GroundSet,
    LoopPresent,
    Matroid,
    MatroidError,
    Origin,
    UnequalBasisSizes,
    catalog_get,
    circuit_hyperplanes,
    direct_sum,
    enumerate_locked,
    graphic,
    is_locked,
    predicted_facets_independence,
    two_sum,
    uniform,
)
from matroidfacets.core import _bit_indices, r_subsets, subsets_by_size


def mk4():
    return catalog_get("MK4").matroid


class TestGroundSet:
    def test_order_preserved(self):
        g = GroundSet(("c", "a", "b"))
        assert g.labels == ("c", "a", "b")
        assert len(g) == 3
        assert g.full_mask == 0b111

    def test_empty_and_duplicate_labels_rejected(self):
        with pytest.raises(EmptyGroundSet):
            GroundSet(())
        with pytest.raises(ValueError):
            GroundSet(("a", "a"))
        with pytest.raises(ValueError):
            GroundSet(("a", "b c"))

    def test_subset_and_singleton(self):
        g = GroundSet(("a", "b", "c"))
        s = g.subset(["c", "a"])
        assert s.labels() == ("a", "c")
        assert g.singleton("b").mask == 0b010
        assert g.subset(["a", "a"]) == g.subset(["a"])
        with pytest.raises(ForeignElement):
            g.subset(["z"])

    def test_equality_by_labels(self):
        assert GroundSet(("a", "b")) == GroundSet(("a", "b"))
        assert GroundSet(("a", "b")) != GroundSet(("b", "a"))


class TestElementSubset:
    def test_set_algebra(self):
        g = GroundSet(("a", "b", "c", "d"))
        x = g.subset(["a", "b"])
        y = g.subset(["b", "c"])
        assert (x | y).labels() == ("a", "b", "c")
        assert (x & y).labels() == ("b",)
        assert (x - y).labels() == ("a",)
        assert x.complement().labels() == ("c", "d")
        assert y <= g.full
        assert not (x <= y)

    def test_sort_key_orders_by_size_then_position(self):
        g = GroundSet(("a", "b", "c"))
        subs = [g.subset(list(c)) for size in (1, 2) for c in combinations("abc", size)]
        assert sorted(subs, key=lambda s: s.sort_key()) == subs

    def test_foreign_ground_mixing_rejected(self):
        g1 = GroundSet(("a", "b"))
        g2 = GroundSet(("a", "c"))
        with pytest.raises(ForeignElement):
            g1.subset(["a"]) | g2.subset(["a"])


class TestConstruction:
    def test_families_validated(self):
        g = GroundSet(("a", "b", "c", "d"))
        with pytest.raises(EmptyBasisFamily):
            Matroid(g, [])
        with pytest.raises(UnequalBasisSizes):
            Matroid(g, [g.subset(["a"]), g.subset(["a", "b"])])

    def test_exchange_violation_reported_with_witness(self):
        g = GroundSet(("a", "b", "c", "d"))
        with pytest.raises(ExchangeAxiomViolated) as info:
            Matroid(g, [g.subset(["a", "b"]), g.subset(["c", "d"])]).validate()
        # the first failure in (B1, B2, e) order, bases in mask order
        witness = (info.value.basis1, info.value.basis2, info.value.element)
        assert witness == (("a", "b"), ("c", "d"), "a")
        # construction alone runs the cheap checks, not the exchange check
        m = Matroid(g, [g.subset(["a", "b"]), g.subset(["c", "d"])])
        with pytest.raises(ExchangeAxiomViolated):
            m.validate()

    def test_a_basis_ground_is_checked_by_its_labels(self):
        g = GroundSet(("a", "b", "c"))
        twin = GroundSet(("a", "b", "c"))
        m = Matroid(g, [twin.subset(["a", "b"]), g.subset(["b", "c"])])
        assert m.ground is g and m._basis_masks == (0b011, 0b110)
        with pytest.raises(ForeignElement):
            Matroid(g, [GroundSet(("a", "c", "b")).subset(["a", "b"])])

    def test_repr_after_a_failed_construction(self):
        g = GroundSet(("a", "b"))
        m = Matroid.__new__(Matroid)
        with pytest.raises(UnequalBasisSizes):
            m.__init__(g, [g.subset(["a"]), g.subset(["a", "b"])])
        assert repr(m) == "Matroid(not built)"

    def test_duplicate_bases_collapse(self):
        g = GroundSet(("a", "b"))
        m = Matroid(g, [g.subset(["a"]), g.subset(["a"]), g.subset(["b"])])
        assert m.basis_count() == 2

    def test_family_order_and_repeats_do_not_matter(self):
        g = GroundSet("abcdefg")
        family = sorted(map(sum, combinations([1 << i for i in range(7)], 3)))
        shuffled = family[3::4] + family[1::4] + family[::4] + family[2::4]
        repeated = family + family[::3] + family[:5]
        m = Matroid._from_masks(g, family)
        assert m._basis_masks == tuple(family)
        for masks in (shuffled, family[::-1], repeated, (b for b in shuffled)):
            other = Matroid._from_masks(g, masks)
            assert other._basis_masks == m._basis_masks
            assert hash(other) == hash(m) and other == m

    def test_empty_generator_refused(self):
        with pytest.raises(EmptyBasisFamily):
            Matroid._from_masks(GroundSet("ab"), (b for b in ()))


class TestRank:
    def test_known_values_on_mk4(self):
        m = mk4()
        g = m.ground
        assert m.rank_value == 3
        assert m.rank(g.subset(["ab", "ac", "bc"])).value == 2  # a triangle
        assert m.rank(g.subset(["ab", "cd"])).value == 2
        assert m.rank(g.empty).value == 0

    def test_witness_is_max_independent_inside_query(self):
        m = mk4()
        for size in range(len(m.ground) + 1):
            for c in combinations(m.ground.labels, size):
                x = m.ground.subset(list(c))
                res = m.rank(x)
                assert res.witness <= x
                assert len(res.witness) == res.value
                assert m.independent(res.witness)

    @pytest.mark.parametrize("name", ["Q6", "V8"])
    def test_matches_naive_rank_everywhere(self, name):
        m = catalog_get(name).matroid
        ground, bases = naive.as_pair(m)
        for size in range(len(m.ground) + 1):
            for c in combinations(m.ground.labels, size):
                x = m.ground.subset(list(c))
                assert m.rank(x).value == naive.rank(bases, frozenset(c))

    @pytest.mark.parametrize("name", ["Q6", "V8", "U_3_7"])
    def test_rank_and_tight_bases_match_naive(self, name):
        # the facet oracle's bit-sliced count, run on the bases, gives the
        # rank and the bases reaching it, and the bases at every count
        m = uniform(3, 7) if name == "U_3_7" else catalog_get(name).matroid
        _, bases = naive.as_pair(m)
        listed = [frozenset(b.labels()) for b in m.bases]
        columns = polytope._vertex_columns(m._basis_masks, len(m.ground))
        every = (1 << len(listed)) - 1
        read = partial(polytope._tight_set, m._basis_columns(), every)
        for size in range(len(m.ground) + 1):
            for c in combinations(m.ground.labels, size):
                x = frozenset(c)
                r = naive.rank(bases, x)
                tight = sum(1 << j for j, b in enumerate(listed) if len(b & x) == r)
                mask = m.ground.subset(list(c)).mask
                held = [col for i, col in enumerate(columns) if mask >> i & 1]
                assert polytope._tight(reduce(polytope._plus, held, []), every) == tight
                assert read(mask, r) == tight and read(mask, r + 1) == 0
                for k in range(-1, size + 2):
                    at_k = sum(1 << j for j, b in enumerate(listed) if len(b & x) == k)
                    assert read(mask, k) == at_k

    def test_rank_is_monotone_and_submodular(self):
        m = catalog_get("P6").matroid
        g = m.ground
        masks = list(subsets_by_size(g))
        rk = {mask: m.rank(g.from_mask(mask)).value for mask in masks}
        for a in masks:
            for b in masks:
                if a | b == a:
                    assert rk[b] <= rk[a]
                assert rk[a | b] + rk[a & b] <= rk[a] + rk[b]

    def test_independence(self):
        m = mk4()
        g = m.ground
        assert m.independent(g.subset(["ab", "ac"]))
        assert not m.independent(g.subset(["ab", "ac", "bc"]))
        assert m.independent(g.empty)


class TestClosureLoopsColoops:
    def test_closure_on_triangle(self):
        m = mk4()
        g = m.ground
        assert m.closure(g.subset(["ab", "ac"])) == g.subset(["ab", "ac", "bc"])
        assert m.is_closed(g.subset(["ab", "ac", "bc"]))
        assert not m.is_closed(g.subset(["ab", "ac"]))

    def test_closure_matches_naive(self):
        m = catalog_get("W3").matroid
        ground, bases = naive.as_pair(m)
        for size in range(len(m.ground)):
            for c in combinations(m.ground.labels, size):
                got = m.closure(m.ground.subset(list(c)))
                assert frozenset(got.labels()) == naive.closure(ground, bases, frozenset(c))

    def test_loops_and_coloops(self):
        m = direct_sum(uniform(0, 2), uniform(2, 3))
        assert m.loops().labels() == ("L.1", "L.2")
        assert m.coloops().labels() == ()
        f = uniform(3, 3)
        assert f.coloops() == f.ground.full
        assert mk4().loops().mask == 0 and mk4().coloops().mask == 0


class TestDuality:
    def test_dual_of_dual_is_self(self):
        m = catalog_get("Q6").matroid
        assert m.dual().dual() is m

    def test_dual_bases_are_complements(self):
        m = catalog_get("P6").matroid
        duals = {b.mask for b in m.dual().bases}
        assert duals == {m.ground.full_mask ^ b.mask for b in m.bases}

    def test_corank_matches_explicit_dual(self):
        m = catalog_get("W3").matroid
        ground, bases = naive.as_pair(m)
        duals = naive.dual_bases(ground, bases)
        for size in range(len(m.ground) + 1):
            for c in combinations(m.ground.labels, size):
                x = m.ground.subset(list(c))
                assert m.corank(x) == naive.rank(duals, frozenset(c))


class TestMinors:
    def test_restriction_to_triangle(self):
        m = mk4()
        r = m.restrict(m.ground.subset(["ab", "ac", "bc"]))
        assert r.rank_value == 2
        assert r.basis_count() == 3  # any two edges of a triangle

    def test_restriction_bases_match_naive(self):
        m = catalog_get("Q6").matroid
        ground, bases = naive.as_pair(m)
        for size in range(1, len(m.ground)):
            for c in combinations(m.ground.labels, size):
                sub = m.ground.subset(list(c))
                got = frozenset(frozenset(b.labels()) for b in m.restrict(sub).bases)
                assert got == naive.restriction(bases, frozenset(c))

    def test_contract_drops_rank(self):
        m = mk4()
        c = m.contract(m.ground.subset(["ab"]))
        assert c.rank_value == 2
        assert len(c.ground) == 5

    def test_restrict_needs_nonempty(self):
        with pytest.raises(EmptyGroundSet):
            mk4().restrict(mk4().ground.empty)


class TestConnectivity:
    def test_catalog_is_connected(self, catalog):
        for entry in catalog.values():
            assert entry.matroid.is_connected()
            assert entry.matroid.is_3_connected()

    def test_direct_sum_disconnects(self):
        m = direct_sum(uniform(1, 2), uniform(1, 2))
        assert not m.is_connected()
        comps = m.components()
        assert [c.labels() for c in comps] == [("L.1", "L.2"), ("R.1", "R.2")]

    def test_graphic_cut_vertex_disconnects(self):
        bow = graphic(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert not bow.is_connected()
        assert [c.labels() for c in bow.components()] == [
            ("e0", "e1", "e2"),
            ("e3", "e4", "e5"),
        ]

    def test_two_sum_is_connected_but_not_3_connected(self, uniformity_pool):
        pool = dict(uniformity_pool)
        m = pool["U24*U24"]
        assert m.is_connected()
        assert not m.is_3_connected()

    def test_connectivity_and_components_match_naive(self, uniformity_pool):
        for name, m in uniformity_pool:
            ground, bases = naive.as_pair(m)
            assert m.is_connected() == naive.connected(ground, bases), name
            got = [frozenset(c.labels()) for c in m.components()]
            assert sorted(got, key=sorted) == naive.components(ground, bases), name

    def test_restrictions_and_dual_restrictions_match_naive(self, uniformity_pool):
        for name, m in uniformity_pool:
            _check_restricted_connectivity(m)

    def test_components_need_no_scan_beyond_the_cap(self):
        m = direct_sum(uniform(1, 13), uniform(12, 13))
        assert [len(c) for c in m.components()] == [13, 13]
        assert not m.is_connected()
        assert m._scanned is None
        assert not m.is_3_connected()
        wide = uniform(2, 25)
        assert wide.is_connected()
        with pytest.raises(MatroidError, match="capped"):
            wide.is_3_connected()
        assert wide._scanned is None

    def test_three_connectivity_matches_naive_on_pool_and_sparse_paving(self, uniformity_pool):
        drawn = []
        for seed in range(40):
            n = 6 + seed % 4
            r = 2 + seed // 4 % (n - 3)
            drawn.append((f"sparse paving {seed}", sparse_paving(n, r, seed, 3 * n)[0]))
        verdicts = []
        for name, m in [*uniformity_pool, *drawn]:
            ground, bases = naive.as_pair(m)
            verdicts.append(m.is_3_connected())
            assert verdicts[-1] == naive.three_connected(ground, bases), name
        assert True in verdicts and False in verdicts

    def test_small_ground_three_connectivity_is_connectivity(self):
        assert uniform(1, 2).is_3_connected()
        assert uniform(1, 3).is_3_connected()
        assert not direct_sum(uniform(1, 1), uniform(1, 1)).is_3_connected()


class TestSimplicity:
    def test_parallel_classes_of_parallel_extension(self):
        g = GroundSet(("a", "b", "c"))
        # b parallel to a: bases are all pairs except {a, b}
        m = Matroid(g, [g.subset(["a", "c"]), g.subset(["b", "c"])])
        assert [p.labels() for p in m.parallel_closures()] == [("a", "b"), ("c",)]
        assert not m.is_simple()
        assert not m.is_cosimple()  # c is a coloop

    def test_loops_block_parallel_classes(self):
        m = direct_sum(uniform(0, 1), uniform(2, 3))
        with pytest.raises(LoopPresent):
            m.parallel_closures()
        f = uniform(2, 2)
        with pytest.raises(ColoopPresent):
            f.coparallel_closures()

    def test_catalog_is_simple_and_cosimple(self, catalog):
        for entry in catalog.values():
            assert entry.matroid.is_simple()
            assert entry.matroid.is_cosimple()


def test_r_subsets_in_increasing_order():
    for n in range(13):
        bits = [1 << i for i in range(n)]
        for r in range(n + 1):
            assert r_subsets(n, r) == sorted(map(sum, combinations(bits, r))), (n, r)
    assert r_subsets(0, 0) == r_subsets(5, 0) == [0]
    assert r_subsets(5, 5) == [0b11111]


def test_subsets_by_size_order():
    g = GroundSet(("a", "b", "c"))
    masks = list(subsets_by_size(g))
    assert masks == [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]
    assert list(subsets_by_size(g, smallest=1, largest=2)) == [
        0b001, 0b010, 0b100, 0b011, 0b101, 0b110,
    ]


def _perturbed(draw, m):
    """(ground, basis masks) of a real matroid with up to two bases
    removed and up to two r-sets added."""
    masks = set(m._basis_masks)
    for _ in range(draw(st.integers(0, 2))):
        if len(masks) > 1:
            masks.remove(draw(st.sampled_from(sorted(masks))))
    masks.update(draw(st.lists(st.sampled_from(r_subsets(len(m.ground), m.rank_value)), max_size=2)))
    return m.ground, sorted(masks)


@st.composite
def _perturbed_matroid(draw):
    return _perturbed(draw, draw(matroids(7)))


@st.composite
def _random_family(draw):
    """Random r-subsets of a ground set with at most 7 elements."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(0, n))
    g = GroundSet(str(i) for i in range(n))
    pool = list(subsets_by_size(g, r, r))
    return g, draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))


# U_r_n's family, which validate accepts on its count alone, and the same
# less its first r-set, which runs the fan test, for every 0 <= r <= n <= 6
_FULL_FAMILIES = [
    (GroundSet(str(i) for i in range(n)), family)
    for n in range(1, 7)
    for r in range(n + 1)
    for family in (r_subsets(n, r), r_subsets(n, r)[1:])
    if family
]


def _on_full_families(test):
    for family in _FULL_FAMILIES:
        test = example(family)(test)
    return test


@settings(max_examples=300)
@given(st.one_of(_random_family(), _perturbed_matroid()))
@_on_full_families
def test_exchange_check_matches_the_naive_triple_loop(family):
    g, masks = family
    m = Matroid(g, [g.from_mask(b) for b in masks])
    expected = naive.exchange_witness(g.labels, [frozenset(g.from_mask(b)) for b in masks])
    try:
        m.validate()
    except ExchangeAxiomViolated as err:
        assert (frozenset(err.basis1), frozenset(err.basis2), err.element) == expected
    else:
        assert expected is None


def test_exchange_witness_pinned_at_eighteen_elements():
    # V8 2-sum V8 2-sum MK4 (16 904 bases) minus its first basis, where the
    # naive triple loop is too slow; the witness was recorded with the
    # earlier check, which looked up every exchange B1-e+f basis by basis
    m = catalog_get("V8").matroid
    for right in (catalog_get("V8").matroid, mk4()):
        m = two_sum(m, m.ground.labels[-1], right, right.ground.labels[0])
    assert (len(m.ground), m.basis_count()) == (18, 16904)
    m.validate()
    broken = Matroid(m.ground, m.bases[1:])
    with pytest.raises(ExchangeAxiomViolated) as info:
        broken.validate()
    common = ("L.L.a", "L.L.a'")
    rest = ("L.R.a'", "L.R.b", "L.R.c", "R.ac", "R.ad")
    assert info.value.basis1 == (*common, "L.L.b'", "L.L.c", *rest)
    assert info.value.basis2 == (*common, "L.L.b", "L.L.c'", *rest)
    assert info.value.element == "L.L.b'"


def test_exchange_check_builds_columns_only_for_a_short_fan(monkeypatch):
    # every fan of a uniform matroid is all of E - I, so none is tested
    built = []
    real = core_mod._vertex_columns
    monkeypatch.setattr(core_mod, "_vertex_columns", lambda *a: built.append(a) or real(*a))
    uniform(4, 9).validate()
    assert built == []
    m = mk4()
    Matroid(m.ground, m.bases).validate()  # a triangle's complement is a short fan
    assert len(built) == 1
    # with r > n - r the fans are those of the complements, whose columns
    # are the complements of the bases' columns: no second build, not even
    # when the bases' own fans are collected to name a failure
    chain = _triangle_chain()
    built.clear()
    Matroid(chain.ground, chain.bases).validate()
    assert len(built) == 1
    built.clear()
    with pytest.raises(ExchangeAxiomViolated):
        Matroid(chain.ground, chain.bases[1:]).validate()
    assert len(built) == 1


def _triangle_chain():
    """Five triangles in a chain, each sharing a vertex with the next:
    15 elements, rank 10, 243 bases."""
    triangles = [(2 * t, 2 * t + 1, 2 * t + 2) for t in range(5)]
    return graphic(11, [e for a, b, c in triangles for e in ((a, b), (b, c), (a, c))])


def test_exchange_witness_pinned_on_the_complement_side():
    # rank 10 on 15 elements less its first basis, so the fans tested are
    # the complements'; the witness was recorded with the check that
    # collected the bases' own fans, before the complement side existed
    m = _triangle_chain()
    assert (len(m.ground), m.rank_value, m.basis_count()) == (15, 10, 243)
    with pytest.raises(ExchangeAxiomViolated) as info:
        Matroid(m.ground, m.bases[1:]).validate()
    assert str(info.value) == (
        "exchange fails for bases {e0 e2 e3 e4 e6 e7 e9 e10 e12 e13} and "
        "{e0 e1 e3 e5 e6 e7 e9 e10 e12 e13} at element e2"
    )


@st.composite
def _high_rank_family(draw):
    """(ground, basis masks) with r > n - r and n <= 9: random r-sets, or
    a drawn matroid or its dual, whichever has the higher rank, perturbed."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 9))
        g = GroundSet(str(i) for i in range(n))
        pool = r_subsets(n, draw(st.integers(n // 2 + 1, n)))
        family = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30, unique=True))
        return g, sorted(family)
    m = draw(matroids(9))
    n, r = len(m.ground), m.rank_value
    assume(2 * r != n)
    return _perturbed(draw, m.dual() if 2 * r < n else m)


@settings(max_examples=200)
@given(_high_rank_family())
def test_exchange_check_on_the_complements_matches_the_naive_triple_loop(family):
    g, masks = family
    assert 2 * masks[0].bit_count() > len(g)
    expected = naive.exchange_witness(g.labels, [frozenset(g.from_mask(b)) for b in masks])
    try:
        Matroid(g, [g.from_mask(b) for b in masks]).validate()
    except ExchangeAxiomViolated as err:
        assert (frozenset(err.basis1), frozenset(err.basis2), err.element) == expected
    else:
        assert expected is None


def _naive_ranks(m):
    """naive.rank of every subset, one byte per mask."""
    _, bases = naive.as_pair(m)
    labels = m.ground.labels
    return bytes(
        naive.rank(bases, frozenset(lab for i, lab in enumerate(labels) if mask >> i & 1))
        for mask in range(1 << len(labels))
    )


_TABLE_CASES = {
    **{name: catalog_get(name).matroid for name in ("MK4", "W3", "Q6", "P6", "V8")},
    "U_0_4": uniform(0, 4),
    "U_4_4": uniform(4, 4),
    "U_1_2": uniform(1, 2),
    "U24+U24": direct_sum(uniform(2, 4), uniform(2, 4)),
    "loop+coloop": direct_sum(direct_sum(uniform(0, 1), uniform(1, 1)), uniform(2, 4)),
}


def _check_ranks_and_scan(m):
    """``_rank_mask`` on every mask, and both of the scan's bit sets (the
    sets with r(X) = |X|, and those with r(X) odd), against naive.rank;
    point queries build no scan."""
    fresh = Matroid(m.ground, m.bases)
    expected = _naive_ranks(m)
    assert bytes(fresh._rank_mask(x) for x in range(len(expected))) == expected
    assert fresh._scanned is None
    independent = sum(1 << x for x, r in enumerate(expected) if r == x.bit_count())
    odd = sum(1 << x for x, r in enumerate(expected) if r & 1)
    assert fresh._scan() == (independent, odd)
    assert fresh._independent_masks() == tuple(_bit_indices(independent))


@pytest.mark.parametrize("name", sorted(_TABLE_CASES))
def test_rank_table_and_point_queries_match_naive(name):
    _check_ranks_and_scan(_TABLE_CASES[name])


@settings(max_examples=150)
@given(matroids(7))
def test_rank_table_matches_naive_on_drawn_matroids(m):
    _check_ranks_and_scan(m)


def _check_restricted_connectivity(m):
    """Connectivity of M|X and of M*|X, for every nonempty X, through the
    public route (a restriction's fundamental graph), against the naive
    bipartition scan; naive ranks of subsets of X are ranks in the
    restriction, so M's own bases (or the dual's) serve for every X."""
    ground, bases = naive.as_pair(m)
    duals = naive.dual_bases(ground, bases)
    dual = m.dual()
    for x in range(1, m.ground.full_mask + 1):
        sub = m.ground.from_mask(x)
        labels = frozenset(sub.labels())
        assert m.restrict(sub).is_connected() == naive.connected(labels, bases), sub
        assert dual.restrict(sub).is_connected() == naive.connected(labels, duals), sub


@settings(max_examples=100)
@given(matroids(9))
def test_connectivity_of_restrictions_matches_naive_on_drawn_matroids(m):
    _check_restricted_connectivity(m)
    ground, bases = naive.as_pair(m)
    got = [frozenset(c.labels()) for c in m.components()]
    assert sorted(got, key=sorted) == naive.components(ground, bases)


@settings(max_examples=100)
@given(matroids(9), st.data())
def test_independence_matches_the_naive_rank_on_drawn_subsets(m, data):
    _, bases = naive.as_pair(m)
    for mask in data.draw(st.lists(st.integers(0, m.ground.full_mask), min_size=1, max_size=20)):
        x = m.ground.from_mask(mask)
        assert m.independent(x) == (naive.rank(bases, frozenset(x)) == len(x)), x


def _naive_rank_one_classes(labels, family):
    """The classes of elements whose pairs have rank 1 under naive.rank
    over ``family``, each from its first element in ``labels`` order on;
    None when some element has rank 0."""
    if any(naive.rank(family, {e}) == 0 for e in labels):
        return None
    classes = []
    for e in labels:
        if not any(e in c for c in classes):
            classes.append(frozenset(f for f in labels if naive.rank(family, {e, f}) == 1))
    return classes


def test_closures_with_a_parallel_and_a_series_pair_match_naive():
    # U_2_4 with one element made a parallel pair and another a series
    # pair: the classes of two or more are rank-1 members of 𝓛 and 𝓛*
    pairs = two_sum(two_sum(uniform(2, 4), "1", uniform(1, 3), "1"), "L.2", uniform(2, 3), "1")
    ground, bases = naive.as_pair(pairs)
    sides = (
        (bases, pairs.parallel_closures(), ("L.R.2", "L.R.3")),
        (naive.dual_bases(ground, bases), pairs.coparallel_closures(), ("R.2", "R.3")),
    )
    for family, classes, pair in sides:
        got = [c.labels() for c in classes]
        assert [frozenset(c) for c in got] == _naive_rank_one_classes(pairs.ground.labels, family)
        assert [c for c in got if len(c) > 1] == [pair]
        assert len(got) == len(pairs.ground) - 1
    assert not pairs.is_simple() and not pairs.is_cosimple()


@settings(max_examples=100)
@given(matroids(9), st.data())
def test_column_rank_closure_corank_and_closures_match_naive(m, data):
    ground, bases = naive.as_pair(m)
    duals = naive.dual_bases(ground, bases)
    for mask in data.draw(st.lists(st.integers(0, m.ground.full_mask), min_size=1, max_size=20)):
        x = m.ground.from_mask(mask)
        labels = frozenset(x.labels())
        got = m.rank(x)
        assert got.value == naive.rank(bases, labels), x
        assert got.witness <= x and len(got.witness) == got.value, x
        assert naive.independent(bases, frozenset(got.witness.labels())), x
        assert frozenset(m.closure(x).labels()) == naive.closure(ground, bases, labels), x
        assert m.corank(x) == naive.rank(duals, labels), x
    sides = (
        (bases, m.parallel_closures, LoopPresent),
        (duals, m.coparallel_closures, ColoopPresent),
    )
    for family, closures, refusal in sides:
        want = _naive_rank_one_classes(m.ground.labels, family)
        if want is None:
            with pytest.raises(refusal):
                closures()
        else:
            assert [frozenset(c.labels()) for c in closures()] == want


def _sparse_paving_draws():
    """Seeded sparse paving matroids on 6 to 9 elements, of every rank
    from 2 to n - 2, with few and with many circuit-hyperplanes."""
    for n in range(6, 10):
        for r in range(2, n - 1):
            for seed, draws in ((n * r, 4), (n + r, 60)):
                yield f"sparse({n},{r},{seed},{draws})", sparse_paving(n, r, seed, draws)[0]


def test_dual_sides_match_connectivity_in_the_dual(uniformity_pool, monkeypatch):
    # 𝓛* is read off M's own cyclic flats, with no dual rank; it must be
    # the lattice of the dual matroid, built from the complements of the
    # bases, and each of its sides must read alike in both
    reads = []
    dual_rank = Matroid._dual_rank_mask
    monkeypatch.setattr(Matroid, "_dual_rank_mask", lambda m, x: reads.append(x) or dual_rank(m, x))
    for name, m in [*uniformity_pool, *_sparse_paving_draws()]:
        fresh = Matroid(m.ground, m.bases)
        other = Matroid(m.ground, m.bases).dual()
        lattice = fresh._lattice(dual=True)
        assert lattice == other._lattice(), name
        for z in lattice:
            assert fresh._connected(z, dual=True) == other._connected(z), (name, z)
    assert reads == []
    assert fresh.corank(fresh.ground.full) == len(fresh.ground) - fresh.rank_value
    assert reads  # the counter sees the dual rank function when it is read


def _by_index(m):
    """Sets of labels in the package's order: by size, then by the
    sorted ground-set indices."""
    index = m.ground.index
    return lambda s: (len(s), sorted(index[e] for e in s))


@settings(max_examples=60)
@given(matroids(11))
# connected, with only the empty set and E as cyclic flats, yet with a
# 2-separation at rank or corank 1; U_2_4 is 3-connected
@example(uniform(1, 4))
@example(uniform(3, 4))
@example(uniform(1, 5))
@example(uniform(4, 5))
@example(uniform(2, 4))
def test_exhaustive_scans_match_naive_definitions_on_drawn_matroids(m):
    ground, bases = naive.as_pair(m)
    key = _by_index(m)
    full = m.ground.full_mask

    def as_sets(subsets):
        return [frozenset(s.labels()) for s in subsets]

    subsets = sorted(
        (frozenset(m.ground.from_mask(x).labels()) for x in range(full + 1)), key=key
    )
    flats = as_sets(m.ground.from_mask(f) for f in m._cyclic_flats())
    assert flats == sorted(naive.cyclic_flats(ground, bases), key=key)
    locked = sorted(naive.all_locked(ground, bases), key=key)
    assert as_sets(enumerate_locked(m)) == locked
    for k in range(len(locked) + 1):
        assert as_sets(enumerate_locked(m, cap=k)) == locked[: k + 1]
    for x in range(1, full):
        sub = m.ground.from_mask(x)
        assert is_locked(m, sub) == (frozenset(sub.labels()) in locked), sub
    r = m.rank_value
    closed_circuits = [
        c for c in naive.circuits(ground, bases)
        if len(c) == r and naive.closure(ground, bases, c) == c
    ]
    assert as_sets(circuit_hyperplanes(m)) == sorted(closed_circuits, key=key)
    if m.loops():
        with pytest.raises(LoopPresent):
            predicted_facets_independence(m)
    else:
        supports = [
            frozenset(c.support().labels())
            for c in predicted_facets_independence(m).facets
            if c.origin is Origin.RANK_UPPER
        ]
        ranks = {s: naive.rank(bases, s) for s in subsets}
        singletons = [f for f in polytope._connected_flats(m) if f.bit_count() == 1]
        assert as_sets(map(m.ground.from_mask, singletons)) == [
            s for s in subsets if len(s) == 1 and naive.closure(ground, bases, s) == s
        ]
        assert supports == [
            s for s in subsets
            if s
            and all(ranks[s | {e}] > ranks[s] for e in ground - s)
            and naive.connected(s, bases)
        ]
    assert m.is_3_connected() == naive.three_connected(ground, bases)

    def simple(family):
        """No loop, and every pair of elements has rank 2."""
        return all(naive.rank(family, {e}) == 1 for e in ground) and all(
            naive.rank(family, {e, f}) == 2 for e, f in combinations(ground, 2)
        )

    assert m.is_simple() == simple(bases)
    fresh = Matroid(m.ground, m.bases)
    assert fresh.is_cosimple() == simple(naive.dual_bases(ground, bases))
    assert fresh._dual is None  # read off the basis columns, no dual built


@settings(max_examples=100)
@given(matroids(10))
def test_lattice_ranks_give_every_rank_by_the_rank_formula(m):
    # Bonin and de Mier: r(X) = min over the cyclic flats Z of r(Z) + |X - Z|.
    # The lattice's keys are the cyclic flats less the loops, so each Z
    # takes the loops back, and each must be closed and cyclic.
    ground, bases = naive.as_pair(m)
    loops = m.loops().mask
    lattice = {z | loops: r for z, r in m._lattice().items()}
    labels = [frozenset(m.ground.from_mask(x).labels()) for x in range(m.ground.full_mask + 1)]
    for z, r in lattice.items():
        assert r == naive.rank(bases, labels[z]), labels[z]
        assert naive.closure(ground, bases, labels[z]) == labels[z], labels[z]
        assert all(naive.rank(bases, labels[z] - {e}) == r for e in labels[z]), labels[z]
    for x, sub in enumerate(labels):
        formula = min(r + (x & ~z).bit_count() for z, r in lattice.items())
        assert formula == naive.rank(bases, sub), sub


def _lattice_sides(ground, bases):
    """The sides of ``Matroid._connected``'s contract, each with the naive
    answer, as {(labels, dual): connected}: the cyclic flats less the
    loops, the dual's cyclic flats less the dual's loops, and, in a
    connected M, E-e for M when e has no coparallel partner and for M*
    when e has no parallel partner."""
    duals = naive.dual_bases(ground, bases)
    sides = {}
    for dual, family in ((False, bases), (True, duals)):
        loops = ground - frozenset().union(*family)
        for flat in naive.cyclic_flats(ground, family):
            sides[flat - loops, dual] = naive.connected(flat - loops, family)
    if naive.connected(ground, bases):
        for e in ground:
            rest = ground - {e}
            for dual, family, other in ((False, bases, duals), (True, duals, bases)):
                if not any(naive.rank(other, {e, f}) == 1 for f in rest):
                    sides[rest, dual] = naive.connected(rest, family)
    return sides


@settings(max_examples=60)
@given(matroids(11))
def test_lattice_sides_match_naive_connectivity(m):
    # every side of the contract; answers are kept, so a second fresh
    # copy asks about the M* sides first: answers kept under colliding
    # keys for M and M* would then differ from the naive ones in one copy
    ground, bases = naive.as_pair(m)
    sides = _lattice_sides(ground, bases)
    mask = lambda labels: m.ground.subset(labels).mask
    for dual_first in (False, True):
        fresh = Matroid(m.ground, m.bases)
        for (labels, dual), want in sorted(sides.items(), key=lambda side: side[0][1] != dual_first):
            assert fresh._connected(mask(labels), dual) == want, (sorted(labels), dual)


_MASKS = st.one_of(
    st.integers(0, 1 << 66),  # element masks, and a little longer
    st.integers(0, 1 << 1500),  # dense sets of vertices
    st.lists(st.integers(0, 3000), max_size=40).map(lambda bits: sum(1 << b for b in set(bits))),
)


@settings(max_examples=300)
@given(_MASKS)
def test_bit_indices_are_the_set_bits_in_order(mask):
    assert _bit_indices(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]
