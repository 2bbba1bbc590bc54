"""Named matroids, constructions, and the relaxation chain."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _naive as naive
from _draws import draws
import matroidfacets.catalog as catalog_mod
from matroidfacets import (
    BadParameters,
    BasepointDegenerate,
    DisconnectedGraph,
    LabelCollision,
    Matroid,
    NotCircuitHyperplane,
    UnknownName,
    catalog_get,
    catalog_names,
    circuit_hyperplanes,
    direct_sum,
    enumerate_locked,
    graphic,
    is_uniform_direct,
    relax,
    two_sum,
    uniform,
    vamos,
)

CHAIN_BASIS_COUNTS = {"MK4": 16, "W3": 17, "Q6": 18, "P6": 19}


class TestUniform:
    def test_counts(self):
        for n in range(1, 7):
            for r in range(n + 1):
                m = uniform(r, n)
                assert m.basis_count() == comb(n, r)
                assert m.rank_value == r
                assert m.ground.labels == tuple(str(i) for i in range(1, n + 1))

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            uniform(-1, 3)
        with pytest.raises(BadParameters):
            uniform(4, 3)
        with pytest.raises(BadParameters):
            uniform(0, 0)


class TestGraphic:
    def test_k4_is_the_catalog_mk4_up_to_labels(self):
        k4 = graphic(
            4,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
            labels=["ab", "ac", "ad", "bc", "bd", "cd"],
        )
        assert k4 == catalog_get("MK4").matroid

    def test_spanning_tree_count_of_k4(self):
        k4 = graphic(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert k4.basis_count() == 16  # Cayley: 4^2
        assert k4.ground.labels == ("e0", "e1", "e2", "e3", "e4", "e5")

    def test_cycle_is_corank_one_uniform(self):
        c5 = graphic(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert is_uniform_direct(c5)
        assert c5.rank_value == 4

    def test_multigraph_parallel_edges(self):
        m = graphic(2, [(0, 1), (0, 1), (0, 1)])
        assert m.rank_value == 1
        assert m.basis_count() == 3  # three parallel edges, any one spans
        assert len(m.parallel_closures()) == 1

    def test_disconnected_graph_rejected(self):
        with pytest.raises(DisconnectedGraph):
            graphic(4, [(0, 1), (2, 3)])

    def test_bad_edges_rejected(self):
        with pytest.raises(BadParameters):
            graphic(2, [(0, 0)])  # self-loop
        with pytest.raises(BadParameters):
            graphic(2, [(0, 5)])  # vertex out of range
        with pytest.raises(BadParameters):
            graphic(2, [(0, 1)], labels=["a", "b"])  # label count off

    def test_refusals_come_in_edge_then_connectivity_then_label_order(self):
        # the first bad edge is the one named, and connectivity is settled
        # after every edge is checked and before the labels are counted
        with pytest.raises(BadParameters, match=r"edge \(0, 5\) mentions an unknown vertex"):
            graphic(3, [(0, 1), (0, 5), (2, 2)])
        with pytest.raises(BadParameters, match="self-loops are not supported here"):
            graphic(3, [(0, 1), (2, 2), (0, 5)])
        with pytest.raises(BadParameters, match="unknown vertex"):
            graphic(4, [(0, 1), (2, 3), (3, 7)])  # disconnected too
        with pytest.raises(DisconnectedGraph, match="the multigraph must be connected"):
            graphic(4, [(0, 1), (2, 3)], labels=["a"])
        with pytest.raises(DisconnectedGraph):
            graphic(3, [(0, 1), (0, 1)])  # vertex 2 is isolated


def _complete(v):
    return [(a, b) for a in range(v) for b in range(a + 1, v)]


def _wheel(spokes):
    return [(0, i) for i in range(1, spokes + 1)] + [(i, i % spokes + 1) for i in range(1, spokes + 1)]


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _triangles(k):
    return [e for t in range(k) for e in ((2 * t, 2 * t + 1), (2 * t + 1, 2 * t + 2), (2 * t, 2 * t + 2))]


def _lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# (name, vertices, edges, spanning trees): Cayley's v^(v-2) for K_v, the
# Lucas number L_2k less 2 for the wheel with k spokes, one tree per
# triangle choice along a chain of triangles, and n for the n-cycle
KNOWN_TREE_COUNTS = [
    *((f"K{v}", v, _complete(v), v ** (v - 2)) for v in (5, 6, 7)),
    *((f"W{k}", k + 1, _wheel(k), _lucas(2 * k) - 2) for k in (4, 5, 6)),
    *((f"triangles{k}", 2 * k + 1, _triangles(k), 3**k) for k in (1, 3, 5)),
    *((f"C{n}", n, _cycle(n), n) for n in (3, 12, 20)),
]


@pytest.mark.parametrize("name, vertices, edges, count", KNOWN_TREE_COUNTS, ids=[c[0] for c in KNOWN_TREE_COUNTS])
def test_graphic_counts_the_known_spanning_trees(name, vertices, edges, count):
    m = graphic(vertices, edges)
    assert (m.basis_count(), m.rank_value) == (count, vertices - 1)


@st.composite
def _connected_multigraphs(draw):
    """2 to 6 vertices and up to 10 edges: a random spanning tree, then
    any pairs, repeats allowed, with edge order and ends shuffled."""
    v = draw(st.integers(2, 6))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, v)]
    pairs = st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)).filter(lambda p: p[0] != p[1])
    edges += draw(st.lists(pairs, max_size=10 - len(edges)))
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in draw(st.permutations(edges))]
    return v, edges


@settings(max_examples=300)
@given(_connected_multigraphs())
def test_graphic_bases_are_the_naive_spanning_trees(graph):
    v, edges = graph
    m = graphic(v, edges)
    trees = frozenset(frozenset(f"e{i}" for i in tree) for tree in naive.spanning_trees(v, edges))
    assert naive.as_pair(m) == (frozenset(f"e{i}" for i in range(len(edges))), trees)


class TestRelaxationChain:
    def test_basis_counts_grow_one_per_step(self, catalog):
        for name, count in CHAIN_BASIS_COUNTS.items():
            assert catalog[name].matroid.basis_count() == count

    def test_circuit_hyperplanes_of_mk4_are_the_triangles(self):
        m = catalog_get("MK4").matroid
        got = [s.labels() for s in circuit_hyperplanes(m)]
        assert got == [
            ("ab", "ac", "bc"),
            ("ab", "ad", "bd"),
            ("ac", "ad", "cd"),
            ("bc", "bd", "cd"),
        ]

    def test_uniform_end_of_chain(self):
        m = catalog_get("P6").matroid
        (last,) = circuit_hyperplanes(m)
        final = relax(m, last)
        assert is_uniform_direct(final)
        assert final.basis_count() == 20
        assert circuit_hyperplanes(final) == ()

    def test_relax_adds_exactly_the_target(self):
        m = catalog_get("MK4").matroid
        target = circuit_hyperplanes(m)[0]
        relaxed = relax(m, target)
        assert relaxed.basis_count() == m.basis_count() + 1
        assert relaxed.independent(target)
        assert set(m.bases) < set(relaxed.bases)

    def test_relax_rejects_non_circuit_hyperplanes(self):
        m = catalog_get("MK4").matroid
        with pytest.raises(NotCircuitHyperplane):
            relax(m, m.ground.subset(["ab", "ac", "ad"]))  # already a basis
        with pytest.raises(NotCircuitHyperplane):
            relax(m, m.ground.subset(["ab", "ac"]))  # wrong size

    def test_locked_numbers_descend_along_the_chain(self, catalog):
        for name, expected in (("MK4", 4), ("W3", 3), ("Q6", 2), ("P6", 1)):
            assert len(enumerate_locked(catalog[name].matroid)) == expected


class TestVamos:
    def test_shape(self):
        v = vamos()
        assert len(v.ground) == 8
        assert v.rank_value == 4
        assert v.basis_count() == comb(8, 4) - 5
        assert v == catalog_get("V8").matroid

    def test_nonbases_are_the_five_documented_quadruples(self):
        v = vamos()
        nonbases = [
            c
            for c in circuit_hyperplanes(v)
        ]
        assert len(nonbases) == 5


class TestTwoSum:
    def test_u23_with_itself_gives_u34(self):
        m = two_sum(uniform(2, 3), "1", uniform(2, 3), "1")
        assert m.ground.labels == ("L.2", "L.3", "R.2", "R.3")
        assert m.rank_value == 3
        assert is_uniform_direct(m)

    def test_rank_adds_minus_one(self):
        m = two_sum(catalog_get("MK4").matroid, "cd", uniform(2, 4), "1")
        assert m.rank_value == 3 + 2 - 1
        assert len(m.ground) == 6 + 4 - 2

    def test_exactly_one_side_holds_the_basepoint(self):
        m1, m2 = uniform(2, 3), uniform(2, 3)
        glued = two_sum(m1, "1", m2, "1")
        for b in glued.bases:
            left = [lab for lab in b.labels() if lab.startswith("L.")]
            right = [lab for lab in b.labels() if lab.startswith("R.")]
            left_full = m1.ground.subset([lab[2:] for lab in left])
            right_full = m2.ground.subset([lab[2:] for lab in right])
            # one side is a basis missing its basepoint, the other
            # becomes a basis once the basepoint is added
            left_is = m1.independent(left_full) and len(left_full) == 2
            right_is = m2.independent(right_full) and len(right_full) == 2
            assert left_is != right_is

    def test_degenerate_basepoints_rejected(self):
        with pytest.raises(BasepointDegenerate):
            two_sum(uniform(3, 3), "1", uniform(2, 3), "1")  # coloop
        with pytest.raises(BasepointDegenerate):
            two_sum(uniform(0, 3), "1", uniform(2, 3), "1")  # loop

    def test_small_sides_rejected(self):
        with pytest.raises(BadParameters):
            two_sum(uniform(1, 2), "1", uniform(2, 3), "1")


class TestDirectSum:
    def test_component_structure(self):
        m = direct_sum(uniform(1, 2), uniform(2, 3))
        assert m.rank_value == 3
        assert m.basis_count() == 2 * 3
        assert [c.labels() for c in m.components()] == [
            ("L.1", "L.2"),
            ("R.1", "R.2", "R.3"),
        ]


class TestLookup:
    def test_names_are_the_documented_five(self):
        assert catalog_names() == ("MK4", "W3", "Q6", "P6", "V8")

    def test_entries_carry_expected_locked_numbers(self, catalog):
        expected = {"MK4": 4, "W3": 3, "Q6": 2, "P6": 1, "V8": 5}
        for name, entry in catalog.items():
            assert entry.expected_locked_number == expected[name]
            assert entry.name == name

    def test_uniform_names_parse(self):
        entry = catalog_get("U_2_4")
        assert entry.matroid == uniform(2, 4)
        assert entry.expected_locked_number == 0

    def test_unknown_names_rejected(self):
        with pytest.raises(UnknownName):
            catalog_get("NOPE")
        with pytest.raises(UnknownName):
            catalog_get("U_9_4")  # parses as uniform but has no such matroid


def test_hand_typed_listings_are_exchange_checked_once(monkeypatch):
    # MK4 and V8 are read from their nonbasis listings by the file reader,
    # which validates what it reads; the cache keeps that to one build
    checked = []
    validate = Matroid.validate
    monkeypatch.setattr(
        Matroid, "validate", lambda m: checked.append(m.ground.labels) or validate(m)
    )
    catalog_mod._mk4.cache_clear()
    vamos.cache_clear()
    for name in ("MK4", "V8", "MK4", "V8", "W3"):
        catalog_get(name)
    assert checked == [catalog_get("MK4").matroid.ground.labels, vamos().ground.labels]


def test_label_collision_is_a_matroid_error():
    # the L. / R. prefixes make sum labels disjoint by construction, so no
    # construction raises it; it stays a public name, catchable as one of ours
    from matroidfacets import MatroidError

    assert issubclass(LabelCollision, MatroidError)


def test_a_hyperplane_holding_a_parallel_pair_is_no_circuit_hyperplane():
    # e0 and e3 are parallel, so {e0 e1 e3} is a closed rank-2 triple
    # that contains the circuit {e0 e3} and is not itself a circuit
    m = graphic(4, [(0, 1), (1, 2), (2, 3), (0, 1), (0, 3)])
    target = m.ground.subset(["e0", "e1", "e3"])
    assert m.is_closed(target) and m.rank(target).value == 2
    assert target not in circuit_hyperplanes(m)
    with pytest.raises(NotCircuitHyperplane):
        relax(m, target)
    for c in circuit_hyperplanes(m):
        assert relax(m, c).basis_count() == m.basis_count() + 1


@settings(max_examples=200)
@given(draws(11).map(lambda drawn: drawn[:2]))
def test_constructions_take_matroids_to_matroids(drawn):
    # two_sum and relax check no exchange at run time: these are the
    # theorems they rely on, against the naive triple loop
    m, rank = drawn
    assert m.rank_value == rank
    assert naive.exchange_witness(m.ground.labels, [frozenset(b.labels()) for b in m.bases]) is None
