"""Sparse paving matroids, seeded, for the tests: a hypothesis strategy
and a builder for fixed inputs."""

import random
from itertools import combinations
from math import comb

from hypothesis import strategies as st

from matroidfacets import GroundSet, Matroid


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
    bases = set(subsets).difference(family)
    return Matroid._from_masks(GroundSet(str(i) for i in range(n)), bases), family


@st.composite
def sparse_paving_matroids(draw):
    """A sparse paving matroid on 4 to 9 elements.  Such draws seldom
    have clones (coordinates whose swap maps the bases onto themselves)."""
    n = draw(st.integers(4, 9))
    r = draw(st.integers(2, n - 2))
    seed = draw(st.integers(0, 2**32))
    return sparse_paving(n, r, seed, draw(st.integers(1, comb(n, r))))[0]
