"""Facet systems, brute-force oracles, certification, separation."""

import dataclasses
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings

import _naive as naive
from _draws import matroids, sparse_paving
import matroidfacets.core as core_mod
import matroidfacets.polytope as polytope_mod
import matroidfacets.uniformity as uniformity_mod
from matroidfacets import cli
from matroidfacets import (
    CertificationFailed,
    ColoopPresent,
    DegeneratePolytope,
    DimensionMismatch,
    FacetSystem,
    ForeignElement,
    GroundSet,
    LinearConstraint,
    LoopPresent,
    Matroid,
    NotConnected,
    Origin,
    bases_tight_set,
    catalog_get,
    certify,
    direct_sum,
    enumerate_locked,
    graphic,
    independence_tight_set,
    independence_vertices,
    oracle_facets_bases,
    oracle_facets_independence,
    polytope_dimension,
    predicted_facets_bases,
    predicted_facets_independence,
    separate,
    two_sum,
    uniform,
)

MK4_FACET_LINES = (
    "x(ab) <= 1 [parallel-upper]",
    "x(ac) <= 1 [parallel-upper]",
    "x(ad) <= 1 [parallel-upper]",
    "x(bc) <= 1 [parallel-upper]",
    "x(bd) <= 1 [parallel-upper]",
    "x(cd) <= 1 [parallel-upper]",
    "x(ab) >= 0 [coparallel-lower]",
    "x(ac) >= 0 [coparallel-lower]",
    "x(ad) >= 0 [coparallel-lower]",
    "x(bc) >= 0 [coparallel-lower]",
    "x(bd) >= 0 [coparallel-lower]",
    "x(cd) >= 0 [coparallel-lower]",
    "x(ab ac bc) <= 2 [locked-upper]",
    "x(ab ad bd) <= 2 [locked-upper]",
    "x(ac ad cd) <= 2 [locked-upper]",
    "x(bc bd cd) <= 2 [locked-upper]",
)


class TestLinearConstraint:
    def test_canonical_text(self):
        m = catalog_get("MK4").matroid
        sub = m.ground.subset(["ab", "ac", "bc"])
        c = LinearConstraint.on_subset(sub, "<=", 2, Origin.LOCKED_UPPER)
        assert c.canonical() == "x(ab ac bc) <= 2 [locked-upper]"

    def test_evaluate_and_violation(self):
        m = catalog_get("MK4").matroid
        sub = m.ground.subset(["ab", "ac", "bc"])
        c = LinearConstraint.on_subset(sub, "<=", 2, Origin.LOCKED_UPPER)
        point = [Fraction(1), Fraction(1), Fraction(0), Fraction(1), 0, 0]
        assert c.evaluate(point) == 3
        assert c.violation(point) == 1
        assert not c.satisfied_by(point)
        ok = [Fraction(1, 2)] * 6
        assert c.violation(ok) == 0  # clamped: satisfied points report zero
        assert c.satisfied_by(ok)

    def test_lower_bound_violation_sign(self):
        m = uniform(2, 3)
        c = LinearConstraint.on_subset(m.ground.full, ">=", 2, Origin.COPARALLEL_LOWER)
        assert c.violation([0, 0, 0]) == 2
        assert c.violation([1, 1, 1]) == 0

    def test_the_support_is_the_mask(self):
        ground = GroundSet("abcd")
        for mask in range(1, 16):
            c = LinearConstraint.on_subset(ground.from_mask(mask), "<=", 1, Origin.RANK_UPPER)
            assert c.support_mask == mask and c.support() == ground.from_mask(mask)
            assert c.coeffs == tuple(mask >> i & 1 for i in range(4))

    def test_refusals(self):
        ground = GroundSet("abcd")
        with pytest.raises(TypeError, match="support_mask"):
            LinearConstraint(ground, (1, 0, 0, 0), "<=", 1, Origin.RANK_UPPER)
        for foreign in (0b10000, 0b10001, -1, -2):
            with pytest.raises(ForeignElement, match="bits outside the ground set"):
                LinearConstraint(ground, foreign, "<=", 1, Origin.RANK_UPPER)
        with pytest.raises(ValueError, match="empty support"):
            LinearConstraint(ground, 0, "<=", 1, Origin.RANK_UPPER)
        with pytest.raises(ValueError, match="sense"):
            LinearConstraint(ground, 0b1, "<", 1, Origin.RANK_UPPER)


class TestPredictedBases:
    def test_mk4_golden_system(self):
        system = predicted_facets_bases(catalog_get("MK4").matroid)
        assert system.equality.canonical() == "x(ab ac ad bc bd cd) = 3 [rank-equality]"
        assert tuple(c.canonical() for c in system.facets) == MK4_FACET_LINES
        assert system.collapsed == ()

    def test_every_predicted_constraint_holds_on_every_vertex(self, catalog):
        for name, entry in catalog.items():
            m = entry.matroid
            system = predicted_facets_bases(m)
            for b in m.bases:
                point = [
                    Fraction(1) if lab in b else Fraction(0) for lab in m.ground.labels
                ]
                for c in system.constraints():
                    assert c.satisfied_by(point), (name, c.canonical(), b.labels())

    def test_facet_count_formula_on_catalog(self, catalog):
        # simple, cosimple, connected: 2|E| facets plus one per locked set
        for name, entry in catalog.items():
            m = entry.matroid
            system = predicted_facets_bases(m)
            ell = len(enumerate_locked(m))
            assert len(system.facets) == 2 * len(m.ground) + ell, name

    def test_degenerate_classes_collapse(self):
        system = predicted_facets_bases(uniform(1, 2))
        # both the parallel class and the coparallel class are the whole
        # ground set, so nothing structural survives
        assert [c.origin for c in system.collapsed] == [
            Origin.PARALLEL_UPPER,
            Origin.COPARALLEL_LOWER,
        ]
        assert system.facets == ()

    def test_rejects_bad_inputs(self):
        with pytest.raises(LoopPresent):
            predicted_facets_bases(direct_sum(uniform(0, 1), uniform(2, 3)))
        with pytest.raises(ColoopPresent):
            predicted_facets_bases(direct_sum(uniform(1, 1), uniform(1, 2)))
        with pytest.raises(NotConnected):
            predicted_facets_bases(direct_sum(uniform(1, 2), uniform(1, 2)))


class TestBasesOracle:
    @pytest.mark.parametrize("name", ["MK4", "W3", "Q6", "P6"])
    def test_matches_naive_oracle(self, name):
        m = catalog_get(name).matroid
        ground, _ = naive.as_pair(m)
        verts = [frozenset(b.labels()) for b in m.bases]
        dim, facets = naive.facet_tight_sets(ground, verts)
        assert oracle_facets_bases(m) == set(map(_mask, facets))
        assert polytope_dimension(m.bases) == dim

    def test_gram_dimension_matches_naive_elimination(self):
        import random

        m = catalog_get("V8").matroid
        order = list(m.ground.labels)
        points = [naive.char_vector(order, frozenset(b.labels())) for b in m.bases]
        columns = polytope_mod._vertex_columns(m._basis_masks, len(order))
        rng = random.Random(7)
        for _ in range(200):
            p = rng.choice((0.03, 0.1, 0.3, 0.9))
            picked = [j for j in range(len(points)) if rng.random() < p]
            tight = sum(1 << j for j in picked)
            dim = _gram_dimension(tight, columns)
            assert dim == naive.affine_dim([points[j] for j in picked])
            # GF(2) may fall short of the rank over Q, never exceed it
            varying = polytope_mod._varying_columns(tight, columns)
            assert polytope_mod._gf2_rank([tight, *varying]) <= dim + 1

    def test_dimension_of_mk4(self):
        assert polytope_dimension(catalog_get("MK4").matroid.bases) == 5

    def test_single_basis_is_degenerate(self):
        with pytest.raises(DegeneratePolytope):
            oracle_facets_bases(uniform(1, 1))
        with pytest.raises(NotConnected):
            oracle_facets_bases(uniform(2, 2))  # two coloops separate


def _mask(indices):
    """The naive oracles' vertex indices as the package's tight-set bitmask."""
    return sum(1 << j for j in indices)


def _gram_dimension(tight, columns):
    """The oracle's affine dimension of the vertices picked by tight."""
    varying = polytope_mod._varying_columns(tight, columns)
    return polytope_mod._gram_rank(tight.bit_count(), varying) - 1


def _tight(vertices, support, rhs):
    return sum(1 << j for j, v in enumerate(vertices) if (v & support).bit_count() == rhs)


def _unscreened_oracle(vertices, n):
    """The facet oracle's candidates, each one eliminated."""
    columns = polytope_mod._vertex_columns(vertices, n)
    dim = _gram_dimension((1 << len(vertices)) - 1, columns)
    bounds = [(1 << i, 0) for i in range(n)]
    for sub in range(1, 1 << n):
        bounds.append((sub, max((v & sub).bit_count() for v in vertices)))
    candidates = {_tight(vertices, sub, rhs) for sub, rhs in bounds}
    return dim, frozenset(t for t in candidates if _gram_dimension(t, columns) == dim - 1)


def _screened_cases(pool, usable):
    cases = [(name, m) for name, m in pool if m.is_connected() and usable(m)]
    names = {name for name, _ in cases}
    assert {"MK4", "W3", "Q6", "P6", "V8", "U_1_2", "U_1_3", "U_2_3"} <= names
    return cases


def test_screened_bases_oracle_matches_eliminating_every_candidate(uniformity_pool):
    for name, m in _screened_cases(uniformity_pool, lambda m: m.basis_count() > 1):
        unscreened = _unscreened_oracle(m._basis_masks, len(m.ground))
        assert polytope_mod._bases_oracle(m) == unscreened, name


def test_screened_independence_oracle_matches_eliminating_every_candidate(uniformity_pool):
    for name, m in _screened_cases(uniformity_pool, lambda m: not m.loops()):
        _, facets = _unscreened_oracle(m._independent_masks(), len(m.ground))
        assert oracle_facets_independence(m) == facets, name


def test_face_dimensions_match_the_minor_formula(uniformity_pool):
    # The face x(A) = r(A) of P(M) is P(M|A ⊕ M/A) (Gelfand, Goresky,
    # MacPherson and Serganova 1987), so its dimension is n - c(M|A) -
    # c(M/A), with c(M/E) = 0: polytope theory checks the elimination.
    for name, m in uniformity_pool:
        n = len(m.ground)
        columns = polytope_mod._vertex_columns(m._basis_masks, n)
        for sub in range(1, 1 << n):
            a = m.ground.from_mask(sub)
            parts = len(m.restrict(a).components())
            if sub != m.ground.full_mask:
                parts += len(m.contract(a).components())
            rank = m._rank_mask(sub)
            assert rank == max((b & sub).bit_count() for b in m._basis_masks), (name, a)
            tight = _tight(m._basis_masks, sub, rank)
            assert _gram_dimension(tight, columns) == n - parts, (name, a)


def _wheel(spokes):
    rim = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return graphic(spokes + 1, [(0, i) for i in range(1, spokes + 1)] + rim)


def _vertex_sets(m):
    """The bases and the independent sets, as masks and as label sets."""
    for verts in (m.bases, independence_vertices(m)):
        yield [v.mask for v in verts], [frozenset(v.labels()) for v in verts]


@settings(max_examples=100)
@given(matroids(9))
def test_oracle_over_the_cyclic_flats_matches_the_walk_over_every_subset(m):
    n = len(m.ground)
    for masks, label_sets in _vertex_sets(m):
        columns = polytope_mod._vertex_columns(masks, n)
        found = polytope_mod._facet_oracle(masks, columns, m._cyclic_flats())
        assert found == _unscreened_oracle(masks, n)
        if n <= 7 and len(masks) > 1:
            dim, facets = naive.facet_tight_sets(m.ground.labels, label_sets)
            assert found == (dim, set(map(_mask, facets)))


def test_independent_sets_have_the_rank_function_as_their_max(uniformity_pool):
    # the oracle's independence candidates are the cyclic flats of the
    # bases' rank function: the max over the independent sets is the same
    for name, m in uniformity_pool:
        independent = m._independent_masks()
        for sub in range(1 << len(m.ground)):
            assert max((v & sub).bit_count() for v in independent) == m._rank_mask(sub), name


def _count_calls(monkeypatch, names):
    calls = Counter()
    for name in names:
        real = getattr(polytope_mod, name)
        counted = lambda *args, real=real, name=name: calls.update([name]) or real(*args)
        monkeypatch.setattr(polytope_mod, name, counted)
    return calls


def test_oracle_eliminates_only_facets_and_reads_few_candidates(monkeypatch):
    calls = _count_calls(monkeypatch, ("_gf2_rank", "_gram_rank", "_tight"))
    dim, facets = polytope_mod._bases_oracle(_wheel(6))
    # the polytope's dimension, then one rank per facet: 2|E| + 25 locked,
    # each of them settled over GF(2), the dimension too
    assert len(facets) == 49
    assert calls["_gf2_rank"] == 1 + 49
    assert calls["_gram_rank"] == 0
    calls.clear()
    polytope_mod._bases_oracle(uniform(4, 12))
    assert calls["_tight"] < 100  # the walk over every subset reads 4 096


def test_gram_elimination_decides_the_dimension_where_gf2_falls_short(monkeypatch):
    # the bases of U_2_4 ⊕ U_2_4 span 7 over GF(2) against a bound of 8
    # (8 varying coordinates, one coordinate sum), and 0, ab, bc, ac, d
    # span 4 against 5, as ab + bc + ac = 0 over GF(2)
    u = uniform(2, 4)
    hand = [0b0000, 0b0011, 0b0110, 0b0101, 0b1000]
    for masks, n, bound, want in ((direct_sum(u, u)._basis_masks, 8, 8, 6), (hand, 4, 5, 4)):
        columns = polytope_mod._vertex_columns(masks, n)
        every = (1 << len(masks)) - 1
        varying = polytope_mod._varying_columns(every, columns)
        assert polytope_mod._gf2_rank([every, *varying]) == bound - 1
        shared = len(set(map(int.bit_count, masks))) == 1
        calls = _count_calls(monkeypatch, ("_gram_rank",))
        assert polytope_mod._dimension(len(masks), columns, shared) == want
        assert calls["_gram_rank"] == 1
        monkeypatch.undo()
        dim, _ = polytope_mod._facet_oracle(masks, columns, range(1, 1 << n))
        assert dim == _gram_dimension(every, columns) == want
    assert polytope_dimension(direct_sum(u, u).bases) == 6


def test_gram_elimination_decides_where_gf2_falls_short(monkeypatch):
    # x_3 >= 0 holds with equality on 0, ab, bc, ac: affinely independent
    # over Q, but ab + bc + ac = 0 over GF(2), so only Bareiss finds that facet
    masks = [0b0000, 0b0011, 0b0110, 0b0101, 0b1000]
    columns = polytope_mod._vertex_columns(masks, 4)
    face = 0b1111
    varying = polytope_mod._varying_columns(face, columns)
    assert polytope_mod._gf2_rank([face, *varying]) == 3
    assert polytope_mod._gram_rank(face.bit_count(), varying) == 4
    calls = _count_calls(monkeypatch, ("_gram_rank",))
    dim, facets = polytope_mod._facet_oracle(masks, columns, range(1, 1 << 4))
    assert dim == 4 and face in facets and calls["_gram_rank"] > 1
    assert (dim, facets) == _unscreened_oracle(masks, 4)


def test_sparse_paving_known_answer_at_twenty_elements():
    # 116 circuit-hyperplanes, which are the locked subsets, and no swap
    # of two elements maps the bases onto themselves
    m, family = sparse_paving(20, 4, 20, 320)
    assert (len(family), m.basis_count()) == (116, 4729)
    assert {locked.mask for locked in enumerate_locked(m)} == set(family)
    assert not uniformity_mod.test_uniformity(m).uniform
    assert certify(m).passed


def test_certify_tests_each_side_once(monkeypatch):
    # the locked scan, the connected flats, the closure bounds and the
    # lemma scan ask about many of the same sides; each side of two or
    # more elements is evaluated once, and each is one that
    # Matroid._connected answers: a set of the lattice of cyclic flats
    # (of the dual's, for M*), or E-e where e's coparallel class (its
    # parallel class, for M*) is {e}
    asked, evaluated = [], []
    connected = Matroid._connected

    class Sides(dict):
        def __setitem__(self, key, value):
            evaluated.append(key)
            super().__setitem__(key, value)

    def asking(m, sub, dual=False):
        asked.append((sub, dual))
        return connected(m, sub, dual)

    monkeypatch.setattr(Matroid, "_connected", asking)
    # U_2_4 with one element made a parallel pair and another a series pair
    pairs = two_sum(two_sum(uniform(2, 4), "1", uniform(1, 3), "1"), "L.2", uniform(2, 3), "1")
    for m in (_wheel(6), sparse_paving(20, 4, 20, 320)[0], pairs):
        asked.clear()
        evaluated.clear()
        m._sides = Sides()
        assert certify(m).passed
        sides = {(sub, dual) for sub, dual in asked if sub.bit_count() > 1}
        assert sorted(evaluated) == sorted(~sub if dual else sub for sub, dual in sides)
        assert len(asked) > len(sides)
        full = m.ground.full_mask
        alone = {
            dual: {c.mask for c in classes() if len(c) == 1}
            for dual, classes in ((False, m.coparallel_closures), (True, m.parallel_closures))
        }
        for sub, dual in sides:
            assert sub in m._lattice(dual) or full ^ sub in alone[dual], (sub, dual)


def test_one_loop_pass_per_certify(monkeypatch):
    # certify asks for the loops and the coloops several times; one pass
    # over the bases answers every ask, and the matroid keeps the answer
    calls = []
    real = core_mod._absent_and_common
    monkeypatch.setattr(core_mod, "_absent_and_common", lambda *args: calls.append(args) or real(*args))
    w6 = _wheel(6)
    assert certify(w6).passed
    assert len(calls) == 1
    assert certify(w6).passed and not w6.loops() and not w6.coloops()
    assert len(calls) == 1


def test_one_tight_reader_per_vertex_list(monkeypatch):
    w5 = _wheel(5)
    system = predicted_facets_independence(w5)
    calls = []
    real = core_mod._vertex_columns
    monkeypatch.setattr(core_mod, "_vertex_columns", lambda *args: calls.append(args) or real(*args))
    for c in system.facets:
        independence_tight_set(w5, c)
    assert len(calls) <= 1


def test_one_column_build_per_vertex_family(monkeypatch, tmp_path):
    calls = []
    real = core_mod._vertex_columns
    for module in (core_mod, polytope_mod):
        monkeypatch.setattr(module, "_vertex_columns", lambda *args: calls.append(args) or real(*args))
    path = str(tmp_path / "w3.txt")
    assert cli.main(["catalog", "W3", "-o", path]) == 0
    calls.clear()
    # the exchange check on load, the oracle and the tight-set reads
    assert cli.main(["certify", path]) == 0
    assert len(calls) == 1
    w5 = _wheel(5)
    calls.clear()
    report = certify(w5)
    assert report.passed and len(calls) == 1
    for c, tight in report.predicted:
        assert bases_tight_set(w5, c) == tight
    assert len(calls) == 1
    calls.clear()
    system = predicted_facets_independence(w5)
    tights = {independence_tight_set(w5, c) for c in system.facets}
    assert oracle_facets_independence(w5) == tights
    assert len(calls) == 1 and calls[0][0] == w5._independent_masks()


class TestCertify:
    def test_catalog_passes_exactly(self, catalog):
        for name, entry in catalog.items():
            report = certify(entry.matroid)
            assert report.passed, name
            assert report.missing == () and report.extra == (), name
            assert report.lemma_violations == ()
            assert report.matched_count == report.oracle_count

    def test_tight_sets_pair_predicted_with_oracle(self):
        m = catalog_get("Q6").matroid
        report = certify(m)
        for constraint, tight in report.predicted:
            assert bases_tight_set(m, constraint) == tight
            assert tight in report.oracle

    def test_degenerate_uniform_collapse_is_excused(self):
        report = certify(uniform(1, 2))
        assert report.passed
        assert report.missing  # the two endpoints have no structural partner
        assert report.collapsed
        assert any("degenerate collapse" in note for note in report.notes)

    def test_collapse_excuses_only_its_own_bounds(self, monkeypatch):
        real = polytope_mod._bases_oracle

        def faking(matroid):
            dim, facets = real(matroid)
            return dim, facets | {0b11}  # both bases: no facet at all

        monkeypatch.setattr(polytope_mod, "_bases_oracle", faking)
        report = certify(uniform(1, 2))
        assert len(report.missing) == 3
        assert len(report.excused) == 2
        assert not report.passed

    def test_pool_certifies_exactly(self, uniformity_pool):
        # K4-e: the bound x(e) <= 1 of the edge 01, opposite the missing
        # edge 23, is no facet, since contracting 01 leaves two parallel
        # pairs, two components; in the dual it is a coparallel bound
        duals = [(name + "*", m.dual()) for name, m in uniformity_pool]
        certified = set()
        for name, m in [*uniformity_pool, *duals]:
            if m.loops() or m.coloops() or not m.is_connected() or m.basis_count() < 2:
                continue
            report = certify(m)
            assert report.passed and report.extra == (), (name, report.summary())
            certified.add(name)
        assert {"K4-e", "K4-e*", "C4", "U24*U23", "MK4", "U_1_2"} <= certified

    def test_small_uniforms_certify(self):
        for n in range(2, 7):
            for r in range(1, n):
                report = certify(uniform(r, n))
                assert report.passed, (r, n)

    def test_check_flag_raises_on_failure(self, monkeypatch):
        report = certify(catalog_get("P6").matroid, check=True)
        assert report.passed
        # force a disagreement: hide one oracle facet so a predicted
        # constraint shows up as extra
        real = polytope_mod._bases_oracle

        def lying(matroid):
            dim, facets = real(matroid)
            return dim, frozenset(sorted(facets)[1:])

        monkeypatch.setattr(polytope_mod, "_bases_oracle", lying)
        with pytest.raises(CertificationFailed) as info:
            certify(catalog_get("P6").matroid, check=True)
        assert not info.value.report.passed
        assert info.value.report.extra

    def test_summary_line(self):
        report = certify(catalog_get("MK4").matroid)
        assert report.summary() == (
            "PASS: predicted 16 facets, oracle 16, matched 16, missing 0, extra 0"
        )


class TestIndependence:
    def test_vertices_are_the_independent_sets(self):
        m = uniform(2, 3)
        verts = independence_vertices(m)
        assert len(verts) == 1 + 3 + 3  # empty, singletons, pairs
        assert all(m.independent(v) for v in verts)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: uniform(1, 2),
            lambda: uniform(2, 4),
            lambda: uniform(3, 3),
            lambda: catalog_get("MK4").matroid,
            lambda: catalog_get("Q6").matroid,
        ],
    )
    def test_predicted_matches_oracle(self, make):
        m = make()
        system = predicted_facets_independence(m)
        predicted = {independence_tight_set(m, c) for c in system.facets}
        assert predicted == oracle_facets_independence(m)
        assert len(predicted) == len(system.facets)  # no two constraints coincide

    def test_vertices_are_listed_once_per_matroid(self, monkeypatch):
        q6 = catalog_get("Q6").matroid
        m = Matroid(q6.ground, q6.bases)
        builds = []
        real = Matroid._independent_masks

        def counting(matroid):
            if matroid._independent is None:
                builds.append(matroid)
            return real(matroid)

        monkeypatch.setattr(Matroid, "_independent_masks", counting)
        system = predicted_facets_independence(m)
        predicted = {independence_tight_set(m, c) for c in system.facets}
        assert predicted == oracle_facets_independence(m)
        assert builds == [m]

    def test_matches_naive_oracle(self):
        m = catalog_get("MK4").matroid
        ground, _ = naive.as_pair(m)
        verts = [frozenset(v.labels()) for v in independence_vertices(m)]
        _, facets = naive.facet_tight_sets(ground, verts)
        assert oracle_facets_independence(m) == set(map(_mask, facets))

    def test_coloops_are_fine_loops_are_not(self):
        predicted_facets_independence(uniform(3, 3))
        with pytest.raises(LoopPresent):
            predicted_facets_independence(uniform(0, 2))

    def test_disconnected_input_is_fine(self):
        m = direct_sum(uniform(1, 2), uniform(1, 2))
        system = predicted_facets_independence(m)
        predicted = {independence_tight_set(m, c) for c in system.facets}
        assert predicted == oracle_facets_independence(m)


class TestSeparate:
    def test_returns_none_inside(self):
        m = catalog_get("MK4").matroid
        system = predicted_facets_bases(m)
        for b in m.bases:
            point = [Fraction(1) if lab in b else Fraction(0) for lab in m.ground.labels]
            assert separate(system, point) is None

    def test_finds_the_documented_cut(self):
        m = catalog_get("MK4").matroid
        system = predicted_facets_bases(m)
        # weight 3/4 on a triangle and 1/2 elsewhere sums to r(E) = 3 but
        # overloads the triangle: x(triangle) = 9/4 > 2
        point = []
        triangle = m.ground.subset(["ab", "ac", "bc"])
        for lab in m.ground.labels:
            point.append(Fraction(3, 4) if lab in triangle else Fraction(1, 4))
        cut = separate(system, point)
        assert cut is not None
        assert cut.canonical() == "x(ab ac bc) <= 2 [locked-upper]"
        assert cut.violation(point) == Fraction(1, 4)

    def test_equality_violations_are_caught_both_ways(self):
        m = uniform(2, 4)
        system = predicted_facets_bases(m)
        low = [Fraction(1, 4)] * 4  # sums to 1 < 2
        cut = separate(system, low)
        assert cut is not None and cut.sense == ">="
        high = [Fraction(3, 4)] * 4  # sums to 3 > 2
        cut = separate(system, high)
        assert cut is not None and cut.sense == "<="

    def test_most_violated_wins(self):
        m = catalog_get("MK4").matroid
        system = predicted_facets_bases(m)
        # drive one coordinate negative: nonnegativity broken by 2, the
        # rank equality stays satisfied via a compensating coordinate
        point = [Fraction(-2), Fraction(2), 1, 1, 1, 0]
        cut = separate(system, point)
        assert cut.canonical() == "x(ab) >= 0 [coparallel-lower]"
        assert cut.violation(point) == 2

    def test_dimension_checked(self):
        system = predicted_facets_bases(uniform(2, 4))
        with pytest.raises(DimensionMismatch):
            separate(system, [0, 0])


def test_tight_sets_match_a_per_vertex_loop(uniformity_pool):
    # every predicted constraint of both polytopes, the collapsed ones
    # and the coparallel x(S) >= |S| - 1 bounds among them
    duals = [(name + "*", m.dual()) for name, m in uniformity_pool]
    origins = set()
    for name, m in [*uniformity_pool, *duals]:
        checks = []
        if not m.loops():
            verts = [frozenset(v.labels()) for v in independence_vertices(m)]
            system = predicted_facets_independence(m)
            checks += [(independence_tight_set, verts, c) for c in system.facets]
        if not (m.loops() or m.coloops()) and m.is_connected():
            verts = [frozenset(b.labels()) for b in m.bases]
            system = predicted_facets_bases(m)
            constraints = (*system.constraints(), *system.collapsed)
            checks += [(bases_tight_set, verts, c) for c in constraints]
        for tight_set, verts, c in checks:
            want = _mask(naive.tight_set(verts, frozenset(c.support().labels()), c.rhs))
            assert tight_set(m, c) == want, (name, c.canonical())
            origins.add(c.origin)
    assert origins == set(Origin)


def test_tight_sets_read_an_integral_rhs_of_any_type():
    m = catalog_get("MK4").matroid
    c = predicted_facets_bases(m).facets[-1]  # a locked bound, x(S) <= 2
    for tight_set in (bases_tight_set, independence_tight_set):
        want = tight_set(m, c)
        assert want
        for rhs, tight in [(Fraction(2), want), (2.0, want), (Fraction(3, 2), 0)]:
            other = LinearConstraint(c.ground, c.support_mask, c.sense, rhs, c.origin)
            assert tight_set(m, other) == tight, (tight_set.__name__, rhs)


def _rows(system):
    """The system as separate reads it: the equality's two halves, then
    the facets, as (support labels, sense, rhs)."""
    rows = []
    if system.equality is not None:
        eq = system.equality
        rows += [(eq, "<="), (eq, ">=")]
    rows += [(c, c.sense) for c in system.facets]
    return [(c, sense, (frozenset(c.support().labels()), sense, c.rhs)) for c, sense in rows]


def _check_separate(system, point):
    """separate against the Fraction reference; returns the index of the
    row it should return (None inside) and whether that row's violation
    is tied by a later one."""
    rows = _rows(system)
    found = naive.violations([row for _, _, row in rows], dict(zip(system.ground.labels, point)))
    worst = max(found)
    got = separate(system, point)
    if worst == 0:
        assert got is None
        return None, False
    k = found.index(worst)  # the earliest of the most violated
    c, sense, _ = rows[k]
    assert got is not None and got.sense == sense, (point, got)
    assert got.coeffs == c.coeffs and got.rhs == c.rhs
    assert got.origin == (Origin.RANK_EQUALITY if c is system.equality else c.origin)
    if c is not system.equality:
        assert got is c
    return k, found.count(worst) > 1


def _mixed_point(rng, n):
    # ints and fractions of small denominators, so that ties are common
    ints = [rng.randint(-1, 2) for _ in range(n)]
    fractions = [Fraction(rng.randint(-2, 8), rng.randint(2, 4)) for _ in range(n)]
    return [rng.choice(pair) for pair in zip(ints, fractions)]


class TestSeparateAgainstFractions:
    def test_seeded_points_on_catalog_systems(self, catalog):
        rng = random.Random(20)
        seen = set()
        ties = 0
        for name, entry in sorted(catalog.items()):
            system = predicted_facets_bases(entry.matroid)
            n = len(system.ground)
            for _ in range(150):
                k, tied = _check_separate(system, _mixed_point(rng, n))
                ties += tied
                if k is not None and k < 2:
                    seen.add(k)
        assert seen == {0, 1}  # both halves of the equality were returned
        assert ties > 0

    def test_ties_go_to_the_earliest_constraint(self):
        m = catalog_get("MK4").matroid
        system = predicted_facets_bases(m)
        # every triangle at 3/4 per edge: all four locked bounds are
        # violated by 1/4, and x(E) = 9/2 also breaks the equality by 3/2
        point = [Fraction(3, 4)] * 6
        cut = separate(system, point)
        assert cut.sense == "<=" and cut.origin == Origin.RANK_EQUALITY
        # on the equality, x(ab) <= 1, x(cd) >= 0 and the triangles abc
        # and abd are all broken by 1/2: the first of them wins
        half = Fraction(1, 2)
        point = [3 * half, half, half, half, half, -half]
        k, tied = _check_separate(system, point)
        assert tied
        assert separate(system, point).canonical() == "x(ab) <= 1 [parallel-upper]"
        system = FacetSystem(system.ground, system.equality, system.facets[12:])
        assert separate(system, point).canonical() == "x(ab ac bc) <= 2 [locked-upper]"

    def test_equality_sense_facet(self):
        ground = uniform(2, 4).ground
        eq = LinearConstraint.on_subset(ground.subset(["1", "2"]), "=", 1, Origin.RANK_UPPER)
        low = LinearConstraint.on_subset(ground.singleton("3"), ">=", 0, Origin.NONNEGATIVITY)
        system = FacetSystem(ground, None, (low, eq))
        assert separate(system, [Fraction(3, 2), 1, Fraction(-1, 2), 0]) is eq  # |5/2 - 1|
        assert separate(system, [0, 0, Fraction(-1, 2), 0]) is eq  # |0 - 1| beats 1/2
        assert separate(system, [0, Fraction(1, 2), -1, 0]) is low  # 1/2 < 1: nonnegativity
        rng = random.Random(21)
        for _ in range(200):
            _check_separate(system, _mixed_point(rng, 4))

    def test_floats_are_read_exactly(self):
        # ten 0.1s add up to just under 1 in floats, but the float 0.1 is
        # a little over 1/10, so exactly they break x(E) <= 1
        assert sum([0.1] * 10) < 1 < sum(map(Fraction, [0.1] * 10))
        cut = separate(predicted_facets_bases(uniform(1, 10)), [0.1] * 10)
        assert cut.sense == "<=" and not cut.satisfied_by([0.1] * 10)
        system = predicted_facets_bases(uniform(2, 4))
        assert separate(system, [0.5, 0.5, 0.5, 0.5]) is None
        rng = random.Random(22)
        for _ in range(100):
            _check_separate(system, [rng.choice((0.25, 0.5, 0.75, 1.0, -0.5)) for _ in range(4)])


_COORDINATES = (
    lambda rng: rng.randint(-1, 2),
    lambda rng: Fraction(rng.randint(-2, 6), rng.randint(2, 4)),
    lambda rng: rng.choice((0.25, 0.5, -0.75, 1.0, 0.1)),
    lambda rng: rng.random() < 0.5,
    lambda rng: rng.choice((Decimal("0.5"), Decimal("-1.25"), Decimal("0.1"), Decimal(2))),
)


def _drawn_system(rng, n, with_equality):
    """A FacetSystem on n elements with random 0/1 supports and small
    right-hand sides, so that ties are frequent: facets of every sense,
    "=" among them, and some repeated as equal but distinct constraints."""
    ground = GroundSet(str(i) for i in range(n))

    def drawn(sense, origin):
        mask = 0
        while not mask:
            mask = sum(rng.randint(0, 1) << i for i in range(n))
        return LinearConstraint(ground, mask, sense, rng.randint(-1, 3), origin)

    facets = [drawn(rng.choice(polytope_mod._SENSES), rng.choice(list(Origin))) for _ in range(rng.randint(1, 12))]
    for c in rng.sample(facets, rng.randint(0, len(facets))):
        facets.insert(rng.randint(0, len(facets)), dataclasses.replace(c))
    equality = drawn("=", Origin.RANK_EQUALITY) if with_equality else None
    return FacetSystem(ground, equality, tuple(facets))


def _drawn_point(rng, n):
    # int, Fraction, float, bool and Decimal coordinates, mixed
    return [rng.choice(_COORDINATES)(rng) for _ in range(n)]


class TestSeparateOnDrawnSystems:
    def test_drawn_systems_against_fractions(self):
        rng = random.Random(30)
        returned = Counter()
        ties = 0
        for _ in range(40):
            for with_equality in (False, True):
                n = rng.randint(1, 8)
                system = _drawn_system(rng, n, with_equality)
                for _ in range(40):
                    point = _drawn_point(rng, n)
                    k, tied = _check_separate(system, point)
                    ties += tied
                    returned[None if k is None else _rows(system)[k][1]] += 1
        assert set(returned) == {None, "<=", ">=", "="}
        assert ties > 100

    def test_a_used_system_agrees_with_an_equal_fresh_one(self):
        rng = random.Random(31)
        for with_equality in (False, True):
            system = _drawn_system(rng, 7, with_equality)
            before = hash(system), repr(system)
            for _ in range(300):
                point = _drawn_point(rng, 7)
                fresh = FacetSystem(system.ground, system.equality, system.facets)
                got, want = separate(system, point), separate(fresh, point)
                assert got == want
                assert got is want or got.origin == Origin.RANK_EQUALITY
            assert (hash(system), repr(system)) == before
            unused = FacetSystem(system.ground, system.equality, system.facets)
            assert (unused, hash(unused), repr(unused)) == (system, *before)


# separate packs each row's gap into a field of a power of two bytes,
# whose top bit is the sign: these are the largest sizes of 1, 2, 4 and 8
_FIELD_LIMITS = (2**7, 2**15, 2**31, 2**63)


def _wide_rhs_system(rng, n, with_equality, limit, wide=False):
    """A ``_drawn_system`` with its rhs redrawn: small ints, Fractions and
    floats, negative ones among them, and one int from -limit / (8 D) to
    half that, D the lcm of the others' denominators.  Past the smallest
    limit that int is the largest rhs in size and below every other, so a
    width read off the largest rhs falls short.  ``wide`` adds 40-digit
    Fractions and the floats 0.1 and -1e300 to the draw."""
    system = _drawn_system(rng, n, with_equality)
    kinds = [
        lambda: rng.randint(-3, 3),
        lambda: Fraction(rng.randint(-9, 9), rng.choice((2, 3, 4))),
        lambda: rng.choice((0.25, -0.5, 1.5, -3.75)),
    ]
    if wide:
        kinds.append(lambda: Fraction(rng.randrange(-10**40, 10**40), rng.randrange(10**39, 10**40)))
        kinds.append(lambda: rng.choice((0.1, -1e300)))
    constraints = [dataclasses.replace(c, rhs=rng.choice(kinds)()) for c in system.constraints()]
    d = lcm(*(Fraction(c.rhs).denominator for c in constraints))
    k = rng.randrange(len(constraints))
    big = rng.randint(max(1, limit // (16 * d)), max(1, limit // (8 * d)))
    constraints[k] = dataclasses.replace(constraints[k], rhs=-big)
    if with_equality:
        return FacetSystem(system.ground, constraints[0], tuple(constraints[1:]))
    return FacetSystem(system.ground, None, tuple(constraints))


def _packing_bound(system, point):
    """D S (sum |x_i| + max |rhs|), D and S the lcms of the rhs and the
    point denominators: no row's gap, times D S, is larger."""
    rhs = [Fraction(c.rhs) for c in system.constraints()]
    exact = [Fraction(v) for v in point]
    scale = lcm(*(r.denominator for r in rhs)) * lcm(*(x.denominator for x in exact))
    return scale * (sum(map(abs, exact)) + max(map(abs, rhs)))


def _int_point(rng, n, size):
    """An int point with sum |x_i| = size, nearly all of it on one
    coordinate, and random signs."""
    sizes = [0] * n
    spread = rng.randint(0, min(size, 3))
    sizes[rng.randrange(n)] = size - spread
    for _ in range(spread):
        sizes[rng.randrange(n)] += 1
    return [rng.choice((1, -1)) * s for s in sizes]


def _wide_point(rng, n):
    # 40-digit Fractions, floats from 1e-300 to 1e300, small ints, either sign
    kinds = (
        lambda: Fraction(rng.randrange(-10**40, 10**40), rng.randrange(10**39, 10**40)),
        lambda: rng.choice((1, -1)) * rng.choice((1e-300, 1e300, 10.0 ** rng.randint(-300, 300))),
        lambda: rng.randint(-2, 2),
    )
    return [rng.choice(kinds)() for _ in range(n)]


class TestPackedSeparation:
    def test_points_on_both_sides_of_every_field_limit(self):
        rng = random.Random(40)
        for limit in _FIELD_LIMITS:
            for _ in range(30):
                n = rng.randint(1, 8)
                system = _wide_rhs_system(rng, n, rng.random() < 0.5, limit)
                rhs = [Fraction(c.rhs) for c in system.constraints()]
                d = lcm(*(r.denominator for r in rhs))
                top = d * max(map(abs, rhs))  # D max |rhs|, an int
                below, above = (limit - 1 - top) // d, -((top - limit) // d)
                for size, under in ((below, True), (above, False)):
                    for _ in range(5):
                        point = _int_point(rng, n, size)
                        bound = _packing_bound(system, point)
                        assert limit - d <= bound < limit + d and (bound < limit) == under
                        _check_separate(system, point)

    def test_wide_magnitudes_against_fractions(self):
        rng = random.Random(41)
        widths = set()
        for _ in range(40):
            n = rng.randint(1, 8)
            system = _wide_rhs_system(rng, n, rng.random() < 0.5, 2**20, wide=True)
            for _ in range(20):
                _check_separate(system, _wide_point(rng, n))
            widths |= set(system._packed)
        assert {32, 64, 128, 256, 512} <= widths  # fields of 32 bytes and more

    def test_one_system_at_every_width_in_turn(self):
        rng = random.Random(42)
        for with_equality in (False, True):
            system = _drawn_system(rng, 6, with_equality)
            before = hash(system), repr(system)
            for e in [*range(0, 90, 3), *range(90, -1, -7)]:
                point = [v * 10**e for v in _mixed_point(rng, 6)]
                fresh = FacetSystem(system.ground, system.equality, system.facets)
                got, want = separate(system, point), separate(fresh, point)
                assert got == want
                assert got is want or got.origin == Origin.RANK_EQUALITY
                _check_separate(system, point)
            assert sorted(system._packed) == [1, 2, 4, 8, 16, 32, 64]
            assert (hash(system), repr(system)) == before
            unused = FacetSystem(system.ground, system.equality, system.facets)
            assert (unused, hash(unused), repr(unused)) == (system, *before)

    def test_a_system_with_no_rows(self):
        system = FacetSystem(uniform(2, 4).ground, None, ())
        rng = random.Random(43)
        for _ in range(50):
            assert separate(system, _wide_point(rng, 4)) is None
        for wrong in ([], [0] * 3, [0.5] * 5):
            with pytest.raises(DimensionMismatch):
                separate(system, wrong)

    def test_violation_reads_a_float_rhs_exactly(self):
        # the float 0.1 is a little over 1/10, and 1/10**40 over it is
        # lost when the gap is taken in floats
        ground = uniform(1, 2).ground
        c = LinearConstraint(ground, 0b01, "<=", 0.1, Origin.RANK_UPPER)
        point = [Fraction(0.1) + Fraction(1, 10**40), 0]
        assert c.violation(point) == Fraction(1, 10**40)
        assert not c.satisfied_by(point)
        assert separate(FacetSystem(ground, None, (c,)), point) is c
