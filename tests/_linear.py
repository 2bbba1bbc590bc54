"""Linear matroids over GF(2) and GF(3) for the tests: n random nonzero
columns in GF(p)^r, whose bases are the r-sets of columns that row
reduction mod p finds independent.  The elimination is written here from
the definition and shares no code with the package."""

import random
from itertools import combinations

from hypothesis import strategies as st

from matroidfacets import GroundSet, Matroid


def _independent(vectors, p):
    """Whether the vectors over GF(p) are linearly independent: reduce
    them mod p, one pivot per vector, and fail on a vector that reduces
    to zero."""
    rows = [list(v) for v in vectors]
    for k, row in enumerate(rows):
        col = next((j for j, a in enumerate(row) if a), None)
        if col is None:
            return False
        inverse = pow(row[col], p - 2, p)
        for other in rows[k + 1:]:
            factor = other[col] * inverse % p
            other[:] = [(a - factor * b) % p for a, b in zip(other, row)]
    return True


def linear_matroid(p, r, n, seed):
    """The matroid of n random nonzero columns in GF(p)^r, on labels
    "0".."n-1": a zero column would be a loop, so each is redrawn, and
    the whole draw is redrawn until the columns have rank r."""
    rng = random.Random(seed)
    while True:
        columns = []
        while len(columns) < n:
            column = [rng.randrange(p) for _ in range(r)]
            if any(column):
                columns.append(column)
        bases = [
            sum(1 << i for i in c)
            for c in combinations(range(n), r)
            if _independent([columns[i] for i in c], p)
        ]
        if bases:
            return Matroid._from_masks(GroundSet(str(i) for i in range(n)), bases)


def linear(draw, max_size):
    """A linear matroid over GF(2) or GF(3) on 2 to ``max_size`` (9 at
    most) elements, and its rank."""
    n = draw(st.integers(2, min(max_size, 9)))
    r = draw(st.integers(1, n))
    p = draw(st.sampled_from([2, 3]))
    return linear_matroid(p, r, n, draw(st.integers(0, 2**32))), r
