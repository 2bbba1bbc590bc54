import pytest
from hypothesis import settings

from matroidfacets import (
    catalog_get,
    catalog_names,
    direct_sum,
    graphic,
    two_sum,
    uniform,
)

CATALOG_NAMES = catalog_names()

# Every property test runs the package against naive scans whose time
# grows with the draw, so none has a per-example deadline; each test sets
# its own max_examples.
settings.register_profile("tests", deadline=None)
settings.load_profile("tests")


@pytest.fixture(scope="session")
def catalog():
    return {name: catalog_get(name) for name in CATALOG_NAMES}


def build_uniformity_pool():
    """At least fifty matroids of mixed shape: every uniform on up to 8
    elements, the catalog five, a few graphic ones, direct sums (with
    loops/coloops, or of two uniform matroids), and some 2-sums."""
    pool = []
    for n in range(1, 9):
        for r in range(n + 1):
            pool.append((f"U_{r}_{n}", uniform(r, n)))
    for name in CATALOG_NAMES:
        pool.append((name, catalog_get(name).matroid))
    pool.append(("K4", graphic(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])))
    pool.append(("C4", graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0)])))
    pool.append(("C5", graphic(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])))
    pool.append(("K4-e", graphic(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])))
    pool.append(("bowtie", graphic(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])))
    pool.append(("path3", graphic(4, [(0, 1), (1, 2), (2, 3)])))
    pool.append(("U12+U12", direct_sum(uniform(1, 2), uniform(1, 2))))
    pool.append(("U24+U24", direct_sum(uniform(2, 4), uniform(2, 4))))
    pool.append(("U01+U23", direct_sum(uniform(0, 1), uniform(2, 3))))
    pool.append(("U11+U23", direct_sum(uniform(1, 1), uniform(2, 3))))
    pool.append(("U23*U23", two_sum(uniform(2, 3), "1", uniform(2, 3), "1")))
    pool.append(("U24*U24", two_sum(uniform(2, 4), "1", uniform(2, 4), "1")))
    pool.append(("U24*U23", two_sum(uniform(2, 4), "1", uniform(2, 3), "1")))
    return pool


@pytest.fixture(scope="session")
def uniformity_pool():
    return build_uniformity_pool()
