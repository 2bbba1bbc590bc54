"""Drawn matroids for the property tests: ``draws(max_size)`` draws a
matroid of any family in ``FAMILIES`` on at most ``max_size`` elements,
loops and coloops allowed, with its rank as its construction gives it
and its family.  ``hypothesis.event`` names each family a draw uses, at
its top or inside it.  A family is a ``(draw, max_size) -> (matroid,
rank)`` function; one that takes a draw takes it from the families
listed before it."""

import random
from collections import namedtuple
from functools import partial
from itertools import combinations
from math import comb
from operator import attrgetter

from hypothesis import assume, event
from hypothesis import strategies as st

from _linear import linear
from matroidfacets import GroundSet, Matroid, circuit_hyperplanes, direct_sum, graphic
from matroidfacets import relax, two_sum, uniform


Draw = namedtuple("Draw", "matroid rank family")


def sparse_paving(n, r, seed, draws):
    """U_{r,n} less a greedy family of r-sets that pairwise meet in at
    most r - 2 elements, taken from the first ``draws`` r-sets of a
    seeded shuffle: a sparse paving matroid whose circuit-hyperplanes are
    that family (Oxley, Matroid Theory, 2nd ed.).  Returns the matroid
    on labels "0".."n-1" and the family as masks."""
    subsets = [sum(1 << i for i in c) for c in combinations(range(n), r)]
    random.Random(seed).shuffle(subsets)
    family = []
    for s in subsets[:draws]:
        if all((s & f).bit_count() <= r - 2 for f in family):
            family.append(s)
    ground = GroundSet(str(i) for i in range(n))
    return Matroid._from_masks(ground, set(subsets).difference(family)), family


def _graphic(draw, max_size, least=1, cycle=False):
    """``least`` to ``max_size`` (9 at most) edges on 2 to 6 vertices: a path
    and chords, or with ``cycle`` a cycle and chords (no bridge)."""
    max_edges = min(max_size, 9)
    v = draw(st.integers(2, min(6, max_edges + (not cycle))))
    edges = [(i, i + 1) for i in range(v - 1)] + ([(v - 1, 0)] if cycle else [])
    pairs = st.sampled_from(list(combinations(range(v), 2)))
    chords = st.lists(pairs, min_size=max(0, least - len(edges)), max_size=max_edges - len(edges))
    m = graphic(v, edges + draw(chords))
    return m, m.rank_value


def _operand(draw, size):
    """A uniform or graphic matroid on 3 to ``size`` elements, with no loop
    or coloop, and a basepoint."""
    if draw(st.booleans()):
        n = draw(st.integers(3, size))
        m = uniform(draw(st.integers(1, n - 1)), n)
    else:
        m, _ = _graphic(draw, size, least=3, cycle=True)
    return m, draw(st.sampled_from(m.ground.labels))


def _uniform(draw, max_size):
    n = draw(st.integers(1, min(max_size, 9)))
    r = draw(st.integers(0, n))
    return uniform(r, n), r


def _glued(draw, max_size, gluings=1):
    """Operands of 3 to 6 elements joined by one 2-sum, or of 3 to 5 by
    two, as ``gluings`` says; each gluing costs one rank."""
    m, _ = _operand(draw, min(7 - gluings, max_size - gluings))
    rank = m.rank_value
    for left in reversed(range(gluings)):
        other, q = _operand(draw, min(7 - gluings, max_size + 2 - len(m.ground) - left))
        m = two_sum(m, draw(st.sampled_from(m.ground.labels)), other, q)
        rank += other.rank_value - 1
    return m, rank


def _sparse_paving(draw, max_size):
    n = draw(st.integers(4, min(max_size, 9)))
    r = draw(st.integers(2, n - 2))
    seed, count = draw(st.integers(0, 2**32)), draw(st.integers(1, comb(n, r)))
    return sparse_paving(n, r, seed, count)[0], r


def _clones(draw, max_size):
    """An operand with its basepoint grown into k parallel or series clones."""
    m, p = _operand(draw, min(6, max_size - 1))
    k = draw(st.integers(2, max_size + 1 - len(m.ground)))
    r = draw(st.sampled_from([1, k]))
    return two_sum(m, p, uniform(r, k + 1), "1"), m.rank_value + r - 1


def _relaxation(draw, max_size):
    m, rank, _ = _earlier(draw, max_size, "relaxation")
    targets = circuit_hyperplanes(m)
    assume(targets)
    return relax(m, draw(st.sampled_from(targets))), rank


def _dual(draw, max_size):
    m, rank, _ = _earlier(draw, max_size, "dual")
    return m.dual(), len(m.ground) - rank


def _with_loops_and_coloops(draw, max_size):
    extras = draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=min(2, max_size - 2)))
    m, rank, _ = _earlier(draw, max_size - len(extras), "loops and coloops")
    for extra in extras:
        m = direct_sum(m, uniform(extra, 1))
    return m, rank + sum(extras)


def _direct_sum(draw, max_size):
    m1, rank1, _ = _earlier(draw, max_size - 2, "direct sum")
    m2, rank2, _ = _earlier(draw, max_size - len(m1.ground), "direct sum")
    return direct_sum(m1, m2), rank1 + rank2


# name: (fewest elements, family); a family that takes a draw takes it
# from those above it
FAMILIES = {
    "uniform": (2, _uniform),
    "graphic": (2, _graphic),
    "2-sum": (4, _glued),
    "nested 2-sum": (5, partial(_glued, gluings=2)),
    "sparse paving": (4, _sparse_paving),
    "clones": (4, _clones),
    "linear": (2, linear),
    "relaxation": (4, _relaxation),
    "dual": (2, _dual),
    "loops and coloops": (3, _with_loops_and_coloops),
    "direct sum": (4, _direct_sum),
}


def admitted(max_size, before=None):
    """The families (listed before ``before``) that fit ``max_size`` elements."""
    names = list(FAMILIES)
    return [f for f in names[: names.index(before) if before else None] if FAMILIES[f][0] <= max_size]


def _earlier(draw, max_size, before=None):
    """(matroid, rank, family) of a family listed before ``before``, which
    it names with ``hypothesis.event``."""
    family = draw(st.sampled_from(admitted(max_size, before)))
    event(family)
    return *FAMILIES[family][1](draw, max_size), family


@st.composite
def draws(draw, max_size):
    return Draw(*_earlier(draw, max_size))


def matroids(max_size):
    return draws(max_size).map(attrgetter("matroid"))
