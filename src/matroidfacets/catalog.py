"""Named matroids and constructions used throughout the package.

The fixed entries are MK4 (the rank-3 cycle matroid of the complete graph
on four vertices), the chain obtained from it by relaxing one
circuit-hyperplane at a time (W3, Q6, P6, ending at U_3_6), and V8, of
rank 4 on eight elements with five non-basis quadruples.  MK4 and V8 are
typed-in nonbasis rows, turned into masks by ``GroundSet.subset`` and
read by ``files.MatroidFile``, so they are exchange-checked once, when
first built.  Uniform matroids are U_r_n.

Each entry carries the ``MatroidFile`` listing that the CLI's
``catalog`` writes.  A fixed entry's listing is encoded from its built
matroid.  U_r_n's is its header alone, with no nonbasis, so it takes O(n)
to list; its matroid, all C(n, r) bases, is built only when read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

from .core import ElementSubset, GroundSet, MatroidError, Matroid, r_subsets
from .files import MatroidFile


class BadParameters(MatroidError):
    """Construction parameters out of range."""


class UnknownName(MatroidError):
    """Not a catalog name."""


class DisconnectedGraph(MatroidError):
    """graphic() needs a connected multigraph."""


class NotCircuitHyperplane(MatroidError):
    """relax() needs a closed circuit of full-rank cardinality (its rank
    falls exactly one short)."""


class BasepointDegenerate(MatroidError):
    """A 2-sum basepoint must be neither a loop nor a coloop."""


class LabelCollision(MatroidError):
    """Combined ground sets must not share labels."""


@dataclass(frozen=True)
class CatalogEntry:
    """A named matroid: the listing ``catalog`` writes, and the matroid,
    built by ``build`` on first read of ``matroid``."""

    name: str
    listing: MatroidFile
    expected_locked_number: int
    build: Callable[[], Matroid] = field(repr=False, compare=False)

    @cached_property
    def matroid(self) -> Matroid:
        return self.build()


def _uniform_labels(r: int, n: int) -> tuple[str, ...]:
    if n < 1 or r < 0 or r > n:
        raise BadParameters(f"uniform needs 0 <= r <= n and n >= 1, got r={r} n={n}")
    return tuple(str(i) for i in range(1, n + 1))


def uniform(r: int, n: int) -> Matroid:
    """The uniform matroid of rank r on n elements, labeled "1".."n"."""
    return Matroid._from_masks(GroundSet(_uniform_labels(r, n)), r_subsets(n, r))


def graphic(num_vertices: int, edges: list[tuple[int, int]], labels: list[str] | None = None) -> Matroid:
    """The cycle matroid of a connected multigraph: one element per edge,
    bases are the spanning trees.  Vertices are 0..num_vertices-1.

    The trees come from a depth-first search over the edges in index
    order (Read and Tarjan, *Networks* 5, 1975).  A node is a forest on
    edges[:i], kept as one component label per vertex: edge i joins it
    when its ends lie in different components, and leaving edge i out is
    always tried.  A forest of size s is dropped once s + reach[i], where
    reach[i] is the rank of edges[i:], falls below V - 1, so the search
    visits only forests that can still span, not all C(m, V - 1) edge
    subsets."""
    if num_vertices < 1:
        raise BadParameters("graphic needs at least one vertex")
    if not edges:
        raise BadParameters("graphic needs at least one edge")
    for u, v in edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise BadParameters(f"edge ({u}, {v}) mentions an unknown vertex")
        if u == v:
            raise BadParameters("self-loops are not supported here")
    rank = num_vertices - 1
    # one pass from the last edge back, with the same component labels;
    # reach[0] is the rank of the graph, V - 1 exactly when it is connected
    reach = [0] * (len(edges) + 1)
    comp = list(range(num_vertices))
    for i in range(len(edges) - 1, -1, -1):
        u, v = edges[i]
        a, b = comp[u], comp[v]
        reach[i] = reach[i + 1] + (a != b)
        if a != b:
            comp = [a if c == b else c for c in comp]
    if reach[0] != rank:
        raise DisconnectedGraph("the multigraph must be connected")
    if labels is None:
        labels = [f"e{i}" for i in range(len(edges))]
    ground = GroundSet(labels)
    if len(ground) != len(edges):
        raise BadParameters("one label per edge required")
    masks = []
    stack = [(0, 0, 0, list(range(num_vertices)))]
    while stack:
        i, size, mask, comp = stack.pop()
        if size == rank:
            masks.append(mask)
        elif size + reach[i] >= rank:
            stack.append((i + 1, size, mask, comp))
            u, v = edges[i]
            a, b = comp[u], comp[v]
            if a != b:
                stack.append((i + 1, size + 1, mask | 1 << i, [a if c == b else c for c in comp]))
    return Matroid._from_masks(ground, masks)


def _is_circuit_hyperplane(matroid: Matroid, subset: ElementSubset) -> bool:
    """A closed set of size r(E) and rank r(E) - 1 that is a circuit:
    dropping any one element leaves an independent set."""
    mask = subset.mask
    r = matroid.rank_value
    return (
        mask.bit_count() == r
        and matroid._rank_mask(mask) == r - 1
        and all(matroid._rank_mask(mask ^ (1 << i)) == r - 1 for i in subset.indices())
        and matroid.is_closed(subset)
    )


def circuit_hyperplanes(matroid: Matroid) -> tuple[ElementSubset, ...]:
    """Closed circuits of cardinality r(E), in lexicographic element
    order.  These are exactly the sets whose promotion to a basis
    (relaxation) again yields a matroid: the cyclic flats of size r(E)
    and rank r(E) - 1, each of which holds one circuit, itself."""
    r = matroid.rank_value
    flats = matroid._cyclic_flats()
    keep = [f for f in flats if f.bit_count() == r and matroid._rank_mask(f) == r - 1]
    return tuple(ElementSubset(matroid.ground, f) for f in keep)


def relax(matroid: Matroid, target: ElementSubset) -> Matroid:
    """Promote a circuit-hyperplane to a basis.  The result is again a
    matroid (Oxley, *Matroid Theory*, 2nd ed., Prop. 1.5.14), so only the
    circuit-hyperplane precondition is checked."""
    mask = matroid._coerce(target)
    if not _is_circuit_hyperplane(matroid, target):
        raise NotCircuitHyperplane(f"{{{' '.join(target)}}} is not a closed circuit of size r")
    return Matroid._from_masks(matroid.ground, (*matroid._basis_masks, mask))


def _prefixed_union(ground1: GroundSet, drop1: int | None, ground2: GroundSet, drop2: int | None) -> GroundSet:
    labels = [f"L.{lab}" for i, lab in enumerate(ground1.labels) if i != drop1]
    labels += [f"R.{lab}" for i, lab in enumerate(ground2.labels) if i != drop2]
    return GroundSet(labels)


def two_sum(matroid1: Matroid, basepoint1: str, matroid2: Matroid, basepoint2: str) -> Matroid:
    """Glue two matroids along one basepoint each.

    The ground set is the disjoint union minus the basepoints (labels
    prefixed "L." and "R."), and a set is a basis iff it is the union of
    B1 - p1 and B2 - p2 where exactly one of the Bi contains its
    basepoint.  Rank comes out to r1 + r2 - 1.
    """
    if len(matroid1.ground) < 3 or len(matroid2.ground) < 3:
        raise BadParameters("two_sum needs at least 3 elements on each side")
    p1 = matroid1.ground.singleton(basepoint1)
    p2 = matroid2.ground.singleton(basepoint2)
    for m, p, side in ((matroid1, p1, basepoint1), (matroid2, p2, basepoint2)):
        if p <= m.loops() or p <= m.coloops():
            raise BasepointDegenerate(f"basepoint {side} is a loop or coloop")
    i1, i2 = p1.indices()[0], p2.indices()[0]
    ground = _prefixed_union(matroid1.ground, i1, matroid2.ground, i2)

    def squeeze(mask: int, drop: int) -> int:
        low = mask & ((1 << drop) - 1)
        return low | ((mask >> (drop + 1)) << drop)

    with1 = [squeeze(b, i1) for b in matroid1._basis_masks if b >> i1 & 1]
    without1 = [squeeze(b, i1) for b in matroid1._basis_masks if not b >> i1 & 1]
    with2 = [squeeze(b, i2) for b in matroid2._basis_masks if b >> i2 & 1]
    without2 = [squeeze(b, i2) for b in matroid2._basis_masks if not b >> i2 & 1]
    shift = len(matroid1.ground) - 1
    # right-hand side outermost: each list comes out in mask order
    masks = [b1 | (b2 << shift) for b2 in without2 for b1 in with1]
    masks += [b1 | (b2 << shift) for b2 in with2 for b1 in without1]
    return Matroid._from_masks(ground, masks)


def direct_sum(matroid1: Matroid, matroid2: Matroid) -> Matroid:
    """Disjoint union (labels prefixed "L." and "R."); bases are unions of
    one basis from each side."""
    ground = _prefixed_union(matroid1.ground, None, matroid2.ground, None)
    shift = len(matroid1.ground)
    # right-hand side outermost, so the masks come out in order
    masks = [
        b1 | (b2 << shift)
        for b2 in matroid2._basis_masks
        for b1 in matroid1._basis_masks
    ]
    return Matroid._from_masks(ground, masks)


@lru_cache(maxsize=None)
def _mk4() -> Matroid:
    # Edges of the complete graph on vertices a, b, c, d; the non-bases
    # among the 3-subsets are the four triangles.
    ground = GroundSet(("ab", "ac", "ad", "bc", "bd", "cd"))
    triangles = (("ab", "ac", "bc"), ("ab", "ad", "bd"), ("ac", "ad", "cd"), ("bc", "bd", "cd"))
    masks = tuple(ground.subset(t).mask for t in triangles)
    return MatroidFile("MK4", ground.labels, 3, "nonbases", masks).to_matroid()


@lru_cache(maxsize=None)
def _chain(steps: int) -> Matroid:
    # Relax the lexicographically first remaining circuit-hyperplane,
    # `steps` times, starting from MK4.
    m = _mk4()
    for _ in range(steps):
        m = relax(m, circuit_hyperplanes(m)[0])
    return m


@lru_cache(maxsize=None)
def vamos() -> Matroid:
    """Rank 4 on eight elements in four tagged pairs; exactly five pair
    unions fail to be bases and there is no representation over any field."""
    ground = GroundSet(("a", "a'", "b", "b'", "c", "c'", "d", "d'"))
    nonbases = (
        ("a", "a'", "b", "b'"),
        ("a", "a'", "c", "c'"),
        ("a", "a'", "d", "d'"),
        ("b", "b'", "c", "c'"),
        ("b", "b'", "d", "d'"),
    )
    masks = tuple(ground.subset(nb).mask for nb in nonbases)
    return MatroidFile("V8", ground.labels, 4, "nonbases", masks).to_matroid()


_UNIFORM_NAME = re.compile(r"^U_(\d+)_(\d+)$")

# Each fixed entry's builder and locked number; the locked numbers are
# construction-time ground truth for tests and reports.
_FIXED = {
    "MK4": (_mk4, 4),
    "W3": (lambda: _chain(1), 3),
    "Q6": (lambda: _chain(2), 2),
    "P6": (lambda: _chain(3), 1),
    "V8": (vamos, 5),
}


def catalog_names() -> tuple[str, ...]:
    """Fixed catalog names; uniform matroids follow the U_r_n pattern."""
    return tuple(_FIXED)


def catalog_get(name: str) -> CatalogEntry:
    """Look up a catalog entry by name (MK4, W3, Q6, P6, V8, or U_r_n)."""
    if name in _FIXED:
        build, locked_number = _FIXED[name]
        return CatalogEntry(name, MatroidFile.from_matroid(build(), name), locked_number, build)
    match = _UNIFORM_NAME.match(name)
    if match:
        r, n = int(match.group(1)), int(match.group(2))
        try:
            labels = _uniform_labels(r, n)
        except BadParameters as err:
            raise UnknownName(str(err)) from None
        # Every r-set is a basis, so there is no nonbasis to list.  No
        # uniform matroid has a locked subset: one side of any split
        # always has rank or corank below 2.
        return CatalogEntry(name, MatroidFile(name, labels, r, "nonbases", ()), 0, partial(uniform, r, n))
    raise UnknownName(f"unknown catalog name: {name}")
