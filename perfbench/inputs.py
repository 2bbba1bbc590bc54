"""Seeded, deterministic benchmark inputs built from public constructors.

Every input is a ``Spec``: a function that builds a fresh ``Matroid``,
the facts the checkers hold the answers to, and one line on why it sits
on its rung.  Locked counts and independence-facet counts of inputs
outside the catalog are the values the package gave at the commit that
introduced this benchmark; a change that moves them is caught as a wrong
answer.

The seed picks a permutation of each ground set (so bit order, and with
it scan order, differs between seeds) and the weights and points handed
to greedy and separation.  It never changes which matroid is built, so
every seed does the same work up to scan order.

Catalog matroids are copied into new ``Matroid(ground, bases)`` objects:
``catalog_get`` hands back ``lru_cache``d objects whose rank cache would
otherwise stay warm across jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Spec:
    name: str
    build: Callable  # build(mf) -> Matroid, mf the imported package
    why: str
    n: int
    r: int
    bases: int
    components: int = 1
    three_connected: bool = False
    locked: int | None = None  # expected locked count
    ind_facets: int | None = None  # expected independence-polytope facet count
    commands: tuple[str, ...] = ()


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _wheel(spokes):
    rim = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return [(0, i) for i in range(1, spokes + 1)] + rim


def _complete(v):
    return [(a, b) for a in range(v) for b in range(a + 1, v)]


def _triangle_chain(k):
    edges = []
    for t in range(k):
        a, b, c = 2 * t, 2 * t + 1, 2 * t + 2
        edges += [(a, b), (b, c), (a, c)]
    return edges


def _catalog(name):
    def build(mf):
        source = mf.catalog_get(name).matroid
        return mf.Matroid(source.ground, source.bases)

    return build


def _graphic(vertices, edges):
    return lambda mf: mf.graphic(vertices, edges)


def _uniform(r, n):
    return lambda mf: mf.uniform(r, n)


def _two_sum_catalog(left, right):
    def build(mf):
        a = _catalog(left)(mf)
        b = _catalog(right)(mf)
        return mf.two_sum(a, a.ground.labels[0], b, b.ground.labels[0])

    return build


def _direct_sum_uniform(r1, n1, r2, n2):
    return lambda mf: mf.direct_sum(mf.uniform(r1, n1), mf.uniform(r2, n2))


# MK4 (2-sum) W5 as one graph: K4 on 0..3 and the wheel with hub 4 and
# rim 0 1 5 6 7 share the edge 0-1, which the 2-sum deletes.  Building it
# with ``two_sum`` would spend seconds in exchange validation.
_MK4_W5 = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_MK4_W5 += [(4, 0), (4, 1), (4, 5), (4, 6), (4, 7)]
_MK4_W5 += [(1, 5), (5, 6), (6, 7), (7, 0)]

# Two cycles sharing vertex 0 (lengths 6 and 4), tied together by three
# chords so the graph is 2-connected.
_TWO_CYCLES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
_TWO_CYCLES += [(0, 6), (6, 7), (7, 8), (8, 0)]
_TWO_CYCLES += [(2, 6), (4, 8), (1, 7)]

_C18_CHORDS = _cycle(18) + [(0, 6), (9, 15)]

# name, n, r, |B|, locked count, independence facet count
CATALOG = (
    ("MK4", 6, 3, 16, 4, 17),
    ("W3", 6, 3, 17, 3, 16),
    ("Q6", 6, 3, 18, 2, 15),
    ("P6", 6, 3, 19, 1, 14),
    ("V8", 8, 4, 65, 5, 22),
)

_ALL = ("info", "locked", "locked-k1", "uniform", "certify", "facets-ind")
_DISCONNECTED = ("info", "locked", "locked-k1", "uniform", "facets-ind")

LADDER = (
    *(
        Spec(name, _catalog(name), f"catalog {name}: the paper's worked example",
             n, r, b, 1, True, locked, facets, _ALL)
        for name, n, r, b, locked, facets in CATALOG
    ),
    Spec("K5", _graphic(5, _complete(5)), "M(K5): graphic, 15 locked sets, k=1 refuses",
         10, 4, 125, 1, True, 15, 36, _ALL),
    Spec("W5", _graphic(6, _wheel(5)), "wheel W5: 3-connected graphic, 16 locked sets",
         10, 5, 121, 1, True, 16, 37, _ALL),
    Spec("MK4+MK4", _two_sum_catalog("MK4", "MK4"), "2-sum: connected, not 3-connected",
         10, 5, 128, 1, False, 10, 35, _ALL),
    Spec("U_3_10", _uniform(3, 10), "uniform rank 3 on 10: no locked sets",
         10, 3, 120, 1, True, 0, 21, _ALL),
    Spec("U_5_10", _uniform(5, 10), "uniform rank 5 on 10: 252 bases",
         10, 5, 252, 1, True, 0, 21, _ALL),
    Spec("W6", _graphic(7, _wheel(6)), "wheel W6: 12 elements, 320 bases, 25 locked sets",
         12, 6, 320, 1, True, 25, 50, _ALL),
    Spec("U_4_12", _uniform(4, 12), "top rung: 12 elements, 495 bases",
         12, 4, 495, 1, True, 0, 25, _ALL),
    Spec("U_2_4+U_2_4", _direct_sum_uniform(2, 4, 2, 4),
         "disconnected, loopless, coloopless: the known-wrong uniform verdict",
         8, 4, 36, 2, False, 0, 18, _DISCONNECTED),
    Spec("triangles5", _graphic(11, _triangle_chain(5)),
         "five triangles in a chain: 15 elements, 243 bases, 5 components",
         15, 10, 243, 5, False, 0, 35, _DISCONNECTED),
    Spec("U_4_4", _uniform(4, 4), "free matroid: every element a coloop",
         4, 4, 1, 4, False, None, 8, ("info", "uniform", "facets-ind")),
    Spec("U_0_4", _uniform(0, 4), "zero matroid: every element a loop",
         4, 0, 1, 4, False, None, None, ("info", "uniform")),
)

ORACLE = (
    Spec("V8", _catalog("V8"), "catalog V8: rank 4, 8 elements", 8, 4, 65),
    Spec("K5", _graphic(5, _complete(5)), "M(K5): 15 locked facets to certify", 10, 4, 125),
    Spec("W5", _graphic(6, _wheel(5)), "wheel W5: 3-connected graphic", 10, 5, 121),
    Spec("MK4+MK4", _two_sum_catalog("MK4", "MK4"), "2-sum of MK4 with itself", 10, 5, 128),
    Spec("P6+P6", _two_sum_catalog("P6", "P6"), "2-sum of P6 with itself", 10, 5, 180),
    Spec("W6", _graphic(7, _wheel(6)), "wheel W6: 12 elements, 320 bases", 12, 6, 320),
    Spec("U_4_12", _uniform(4, 12), "uniform: 495 bases on 12 elements", 12, 4, 495),
    Spec("V8+MK4", _two_sum_catalog("V8", "MK4"), "2-sum of V8 and MK4: 520 bases", 12, 6, 520),
    Spec("two-cycles", _graphic(9, _TWO_CYCLES), "two cycles with chords: 13 elements", 13, 8, 480),
    Spec("MK4+W5", _graphic(8, _MK4_W5), "MK4 (2-sum) W5 built as a graph: 968 bases", 14, 7, 968),
)

# Independence predicted-vs-oracle runs on the oracle inputs this small.
INDEPENDENCE_MAX_N = 10

# Seeded points handed to ``separate`` per oracle input.
SEPARATE_POINTS = 120

WIDE = (
    Spec("U_2_20", _uniform(2, 20), "uniform rank 2 on 20: 190 bases", 20, 2, 190),
    Spec("U_1_24", _uniform(1, 24), "rank 1 on 24: the widest ground set", 24, 1, 24),
    Spec("U_22_24", _uniform(22, 24), "corank 2 on 24: 276 bases", 24, 22, 276),
    Spec("C20", _graphic(20, _cycle(20)), "20-cycle: corank 1, 20 bases", 20, 19, 20),
    Spec("C12", _graphic(12, _cycle(12)), "12-cycle: the usual 2-sum operand", 12, 11, 12),
    Spec("C18+2", _graphic(18, _C18_CHORDS), "18-cycle with two chords: 378 bases", 20, 17, 378),
)

# Weight vectors handed to ``mwbp`` per wide input.
WEIGHTS_PER_INPUT = 3

# Small operands for ``two-sum``, written beside the wide inputs.
WIDE_OPERANDS = (
    Spec("U_2_4", _uniform(2, 4), "4-point line", 4, 2, 6),
    Spec("U_1_3", _uniform(1, 3), "parallel class of 3", 3, 1, 3),
)

# (left, right) inputs glued with ``two-sum -o``: 21 to 22 elements and
# at most about 200 bases, so validation and the written listing stay small.
WIDE_TWO_SUMS = (("C12", "C12"), ("C20", "U_2_4"), ("U_2_20", "U_1_3"))

# (r, n) of the uniform matroids written with ``catalog U_r_n -o``.
WIDE_CATALOG = ((3, 20), (8, 16), (10, 20))


def rng_for(seed, name):
    """One independent stream per (seed, input name)."""
    return random.Random(f"{seed}:{name}")


def permuted(mf, matroid, rng):
    """The same matroid with its ground set in a seeded order."""
    labels = list(matroid.ground.labels)
    rng.shuffle(labels)
    ground = mf.GroundSet(labels)
    return mf.Matroid(ground, [ground.subset(b.labels()) for b in matroid.bases])


def weights(rng, n):
    """Seeded rational weights with ties and negatives."""
    return [Fraction(rng.randint(-9, 30), rng.choice((1, 2, 3))) for _ in range(n)]


def points(rng, basis_masks, n, count):
    """Seeded rational points: half are convex combinations of three
    bases (inside the bases polytope), half are points of the unit cube
    (almost always outside it)."""
    out = []
    for k in range(count):
        if k % 2 == 0:
            chosen = [rng.choice(basis_masks) for _ in range(3)]
            coeffs = [rng.randint(1, 5) for _ in chosen]
            total = sum(coeffs)
            out.append(tuple(
                Fraction(sum(c for c, b in zip(coeffs, chosen) if b >> i & 1), total)
                for i in range(n)
            ))
        else:
            out.append(tuple(Fraction(rng.randint(0, 6), 6) for _ in range(n)))
    return out
