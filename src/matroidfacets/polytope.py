"""Facet systems for the bases polytope and the independence polytope.

Two routes to the facets of the bases polytope P(M), the convex hull of
the basis incidence vectors:

* ``predicted_facets_bases`` builds the structural description: the rank
  equality x(E) = r(E), one upper bound per parallel closure, one lower
  bound per coparallel closure, and one upper bound per locked subset.
* ``oracle_facets_bases`` finds the facets by brute force from the vertex
  set, with no structural knowledge: every candidate inequality is
  classified by the affine dimension of the vertices it holds with
  equality.

``certify`` runs both and compares.  On the affine hull x(E) = r(E) many
different inequalities cut the same facet, so facet identity is the
*tight set*: the set of bases satisfying the constraint with equality.
Two constraints with the same tight set are the same facet.

All arithmetic is exact: vertices are 0/1 integer vectors and affine
dimensions come from fraction-free integer elimination (for the bases
oracle, of the tight vertices' Gram matrix, whose size is bounded by the
ground set rather than by the number of vertices).  Both oracles first
count the coordinates that vary over a candidate's tight vertices, which
bounds its dimension, and eliminate only candidates that could reach a
facet's dimension; the screen uses the vertices alone, no matroid
theory.  Points handed to ``separate`` should be ints or fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    ColoopPresent,
    ElementSubset,
    GroundSet,
    LoopPresent,
    Matroid,
    MatroidError,
    _bit_indices,
    _is_flat,
    subsets_by_size,
)
from .locked import enumerate_locked

TightSet = frozenset  # of vertex indices


class NotConnected(MatroidError):
    """The bases-polytope generators need a connected matroid."""


class DegeneratePolytope(MatroidError):
    """A single-vertex polytope has no facets to certify."""


class DimensionMismatch(MatroidError):
    """A point's coordinate count must equal the ground-set size."""


class CertificationFailed(MatroidError):
    """Predicted and oracle facet systems disagree; carries the report."""

    def __init__(self, report: "CertificationReport"):
        self.report = report
        super().__init__(report.summary())


class Origin(Enum):
    NONNEGATIVITY = "nonnegativity"
    PARALLEL_UPPER = "parallel-upper"
    COPARALLEL_LOWER = "coparallel-lower"
    LOCKED_UPPER = "locked-upper"
    RANK_UPPER = "rank-upper"
    RANK_EQUALITY = "rank-equality"


_SENSES = ("<=", ">=", "=")


@dataclass(frozen=True)
class LinearConstraint:
    """A 0/1-support constraint  x(S) sense rhs  over a ground set."""

    ground: GroundSet
    coeffs: tuple[int, ...]
    sense: str
    rhs: int
    origin: Origin

    def __post_init__(self):
        if len(self.coeffs) != len(self.ground):
            raise DimensionMismatch("coefficient count != ground-set size")
        if self.sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}")
        if any(c not in (0, 1) for c in self.coeffs):
            raise ValueError("constraints here have 0/1 coefficients")
        if not any(self.coeffs):
            raise ValueError("empty support")

    @property
    def support_mask(self) -> int:
        m = 0
        for i, c in enumerate(self.coeffs):
            if c:
                m |= 1 << i
        return m

    def support(self) -> ElementSubset:
        return ElementSubset(self.ground, self.support_mask)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != len(self.coeffs):
            raise DimensionMismatch("point dimension != ground-set size")
        total = Fraction(0)
        for c, v in zip(self.coeffs, point):
            if c:
                total += v
        return total

    def violation(self, point: Sequence) -> Fraction:
        """How far the point is on the wrong side (0 when satisfied).
        For the equality sense this is the absolute gap."""
        gap = self.evaluate(point) - self.rhs
        if self.sense == "<=":
            return max(Fraction(0), gap)
        if self.sense == ">=":
            return max(Fraction(0), -gap)
        return abs(gap)

    def satisfied_by(self, point: Sequence) -> bool:
        return self.violation(point) == 0

    def canonical(self) -> str:
        labels = " ".join(lab for lab, c in zip(self.ground.labels, self.coeffs) if c)
        return f"x({labels}) {self.sense} {self.rhs} [{self.origin.value}]"

    @classmethod
    def on_subset(cls, subset: ElementSubset, sense: str, rhs: int, origin: Origin) -> "LinearConstraint":
        coeffs = tuple(1 if subset.mask >> i & 1 else 0 for i in range(len(subset.ground)))
        return cls(subset.ground, coeffs, sense, rhs, origin)


@dataclass(frozen=True)
class FacetSystem:
    """An equality (absent for full-dimensional polytopes), the facet
    inequalities in canonical order, and any structurally predicted
    constraints that collapsed into the equality and were dropped."""

    ground: GroundSet
    equality: LinearConstraint | None
    facets: tuple[LinearConstraint, ...]
    collapsed: tuple[LinearConstraint, ...] = field(default=())

    def constraints(self) -> tuple[LinearConstraint, ...]:
        if self.equality is None:
            return self.facets
        return (self.equality, *self.facets)

    def canonical_lines(self) -> tuple[str, ...]:
        return tuple(c.canonical() for c in self.constraints())


def _integer_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    prev = 1
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            head = rows[i][c]
            row = rows[i]
            for j in range(c, cols):
                row[j] = (row[j] * lead - head * rows[rank][j]) // prev
        prev = lead
        rank += 1
        if rank == len(rows):
            break
    return rank


def _mask_vector(mask: int, n: int) -> list[int]:
    return [mask >> i & 1 for i in range(n)]


def _affine_dimension_of_masks(masks: Sequence[int], n: int) -> int:
    """Affine dimension of a set of 0/1 points; -1 for the empty set."""
    if not masks:
        return -1
    base = _mask_vector(masks[0], n)
    rows = []
    for m in masks[1:]:
        vec = _mask_vector(m, n)
        rows.append([a - b for a, b in zip(vec, base)])
    return _integer_rank(rows)


def _varying_columns(tight: int, columns: Sequence[int]) -> list[int]:
    """The columns restricted to the bases picked by ``tight``, keeping
    only the elements held by some but not all of those bases."""
    size = tight.bit_count()
    return [c for c in (tight & col for col in columns) if 0 < c.bit_count() < size]


def _gram_rank(size: int, varying: Sequence[int]) -> int:
    rows = [[size, *(c.bit_count() for c in varying)]]
    rows += [[a.bit_count(), *((a & b).bit_count() for b in varying)] for a in varying]
    return _integer_rank(rows)


def _affine_dimension_of_tight(tight: int, columns: Sequence[int]) -> int:
    """Affine dimension of the bases picked by the bits of ``tight``
    (``columns`` as from ``Matroid._basis_columns``); -1 for none.

    With a leading 1 on each vertex, the points' affine dimension is the
    rank of their matrix minus one, and that rank is the rank of its Gram
    matrix, whose entries count the picked bases holding an element, or
    two.  An element in all or none of the picked bases is constant on
    them, a multiple of the leading column, and is left out.
    """
    size = tight.bit_count()
    if not size:
        return -1
    return _gram_rank(size, _varying_columns(tight, columns)) - 1


def polytope_dimension(vertices: Iterable[ElementSubset]) -> int:
    """Affine dimension of the convex hull of 0/1 vertices."""
    vertices = list(vertices)
    if not vertices:
        raise ValueError("no vertices")
    n = len(vertices[0].ground)
    return _affine_dimension_of_masks([v.mask for v in vertices], n)


def _tight_indices(constraint_mask: int, rhs: int, vertex_masks: Sequence[int]) -> TightSet:
    return frozenset(
        i for i, v in enumerate(vertex_masks) if (v & constraint_mask).bit_count() == rhs
    )


def predicted_facets_bases(matroid: Matroid) -> FacetSystem:
    """The structural facet description of the bases polytope.

    Needs a connected, loopless, coloopless matroid.  A parallel or
    coparallel closure equal to the whole ground set would make its
    constraint coincide with the rank equality; such constraints are
    recorded in ``collapsed`` rather than emitted as facets (certify
    treats discrepancies explainable this way as degenerate, not wrong).
    """
    loops = matroid.loops()
    if loops:
        raise LoopPresent(next(iter(loops)))
    coloops = matroid.coloops()
    if coloops:
        raise ColoopPresent(next(iter(coloops)))
    if not matroid.is_connected():
        raise NotConnected("bases-polytope description needs a connected matroid")
    # the scan comes first so that the partitions read its rank table
    locked_sets = enumerate_locked(matroid)
    ground = matroid.ground
    full = ground.full
    equality = LinearConstraint.on_subset(
        full, "=", matroid.rank_value, Origin.RANK_EQUALITY
    )
    facets: list[LinearConstraint] = []
    collapsed: list[LinearConstraint] = []
    for p in matroid.parallel_closures():
        c = LinearConstraint.on_subset(p, "<=", 1, Origin.PARALLEL_UPPER)
        (collapsed if p.mask == ground.full_mask else facets).append(c)
    for s in matroid.coparallel_closures():
        c = LinearConstraint.on_subset(s, ">=", len(s) - 1, Origin.COPARALLEL_LOWER)
        (collapsed if s.mask == ground.full_mask else facets).append(c)
    for locked in locked_sets:
        facets.append(
            LinearConstraint.on_subset(
                locked, "<=", matroid._rank_mask(locked.mask), Origin.LOCKED_UPPER
            )
        )
    return FacetSystem(ground, equality, tuple(facets), tuple(collapsed))


def bases_tight_set(matroid: Matroid, constraint: LinearConstraint) -> TightSet:
    """Indices (into matroid.bases order) of bases tight for the constraint."""
    return _tight_indices(constraint.support_mask, constraint.rhs, matroid._basis_masks)


def _bases_oracle(matroid: Matroid) -> tuple[int, frozenset]:
    if not matroid.is_connected():
        raise NotConnected("the facet oracle needs a connected matroid")
    masks = matroid._basis_masks
    if len(masks) < 2:
        raise DegeneratePolytope("a single basis leaves nothing to certify")
    matroid._rank_table()
    columns = matroid._basis_columns()
    every = (1 << len(masks)) - 1
    dim = _affine_dimension_of_tight(every, columns)
    # Candidates are tight sets as bitmasks over basis indices: the
    # nonnegativity bounds, then x(A) <= r(A) for each nonempty A.
    tight_sets = {every & ~col for col in columns}
    for sub in range(1, matroid.ground.full_mask + 1):
        tight_sets.add(matroid._rank_and_tight(sub)[1])
    facets = set()
    for t in tight_sets:
        varying = _varying_columns(t, columns)
        # Exact screen: the tight vertices are fixed outside the k varying
        # coordinates, and every vertex sums to r, so when k > 0 the
        # varying ones obey one more equation: dim(T) <= max(k - 1, 0).
        if max(len(varying) - 1, 0) < dim - 1:
            continue
        if _gram_rank(t.bit_count(), varying) - 1 == dim - 1:
            facets.add(frozenset(_bit_indices(t)))
    return dim, frozenset(facets)


def oracle_facets_bases(matroid: Matroid) -> frozenset:
    """Facets of the bases polytope found by brute force, as tight sets.

    Candidates are the nonnegativity bounds and x(A) <= r(A) for every
    nonempty subset A; a candidate is a facet iff its tight vertex set
    has affine dimension one below the polytope's.  Constraints that are
    equivalent modulo the rank equality collapse automatically because
    they share a tight set.
    """
    return _bases_oracle(matroid)[1]


@dataclass
class CertificationReport:
    """Outcome of comparing predicted and oracle facet systems."""

    ground: GroundSet
    dimension: int
    predicted: tuple[tuple[LinearConstraint, TightSet], ...]
    oracle: frozenset
    missing: tuple[TightSet, ...]
    extra: tuple[tuple[LinearConstraint, TightSet], ...]
    collapsed: tuple[LinearConstraint, ...]
    lemma_violations: tuple[ElementSubset, ...]
    notes: tuple[str, ...]

    @property
    def predicted_count(self) -> int:
        return len(self.predicted)

    @property
    def oracle_count(self) -> int:
        return len(self.oracle)

    @property
    def matched_count(self) -> int:
        return self.predicted_count - len(self.extra)

    @property
    def passed(self) -> bool:
        if self.extra or self.lemma_violations:
            return False
        # Oracle facets with no predicted partner are only excusable when
        # a degenerate collapse removed structural constraints.
        return not self.missing or bool(self.collapsed)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: predicted {self.predicted_count} facets, oracle "
            f"{self.oracle_count}, matched {self.matched_count}, missing "
            f"{len(self.missing)}, extra {len(self.extra)}"
        )


def certify(matroid: Matroid, *, check: bool = False) -> CertificationReport:
    """Compare the structural facet description against the brute-force
    oracle, by tight set, and run the converse sanity scan (no subset that
    is closed and connected with a disconnected dual complement may define
    a facet).  With ``check=True`` a failed comparison raises."""
    system = predicted_facets_bases(matroid)
    dim, oracle = _bases_oracle(matroid)
    predicted = tuple((c, bases_tight_set(matroid, c)) for c in system.facets)
    predicted_tights = {t for _, t in predicted}
    missing = tuple(sorted(oracle - predicted_tights, key=sorted))
    extra = tuple(pair for pair in predicted if pair[1] not in oracle)
    lemma_violations = []
    oracle_masks = {sum(1 << j for j in t) for t in oracle}
    ranks = matroid._rank_table()
    rank_of = ranks.__getitem__
    full = matroid.ground.full_mask
    for sub in range(1, full):
        if not _is_flat(ranks, sub, full):
            continue
        if not matroid._sub_connected(sub, rank_of):
            continue
        if matroid._sub_connected(full ^ sub, matroid._dual_rank_mask):
            continue
        if matroid._rank_and_tight(sub)[1] in oracle_masks:
            lemma_violations.append(ElementSubset(matroid.ground, sub))
    notes = []
    for c in system.collapsed:
        notes.append(f"degenerate collapse: {c.canonical()} coincides with the rank equality")
    if missing and system.collapsed:
        notes.append(
            f"{len(missing)} oracle facet(s) unmatched; attributed to the degenerate collapse"
        )
    report = CertificationReport(
        ground=matroid.ground,
        dimension=dim,
        predicted=predicted,
        oracle=oracle,
        missing=missing,
        extra=extra,
        collapsed=system.collapsed,
        lemma_violations=tuple(lemma_violations),
        notes=tuple(notes),
    )
    if check and not report.passed:
        raise CertificationFailed(report)
    return report


def independence_vertices(matroid: Matroid) -> tuple[ElementSubset, ...]:
    """Vertices of the independence polytope: all independent sets."""
    ground = matroid.ground
    return tuple(ElementSubset(ground, m) for m in matroid._independent_masks())


def predicted_facets_independence(matroid: Matroid) -> FacetSystem:
    """Structural facets of the independence polytope: nonnegativity for
    every element, and x(A) <= r(A) exactly for the nonempty subsets A
    that are closed and have a connected restriction.  Needs a loopless
    matroid (loops would flatten the polytope)."""
    loops = matroid.loops()
    if loops:
        raise LoopPresent(next(iter(loops)))
    ranks = matroid._rank_table()
    ground = matroid.ground
    facets = [
        LinearConstraint.on_subset(ground.singleton(lab), ">=", 0, Origin.NONNEGATIVITY)
        for lab in ground.labels
    ]
    for mask in subsets_by_size(ground, 1):
        if not _is_flat(ranks, mask, ground.full_mask):
            continue
        if not matroid._sub_connected(mask, ranks.__getitem__):
            continue
        facets.append(
            LinearConstraint.on_subset(
                ElementSubset(ground, mask), "<=", ranks[mask], Origin.RANK_UPPER
            )
        )
    return FacetSystem(ground, None, tuple(facets), ())


def independence_tight_set(matroid: Matroid, constraint: LinearConstraint) -> TightSet:
    return _tight_indices(constraint.support_mask, constraint.rhs, matroid._independent_masks())


def oracle_facets_independence(matroid: Matroid) -> frozenset:
    """Brute-force facet tight sets of the independence polytope.  A
    candidate is eliminated only when at least dim - 1 coordinates vary
    over its tight vertices, since the others are constant there."""
    loops = matroid.loops()
    if loops:
        raise LoopPresent(next(iter(loops)))
    vertex_masks = [v.mask for v in independence_vertices(matroid)]
    ranks = matroid._rank_table()
    n = len(matroid.ground)
    dim = _affine_dimension_of_masks(vertex_masks, n)
    tight_sets = set()
    for i in range(n):
        bit = 1 << i
        tight_sets.add(frozenset(j for j, v in enumerate(vertex_masks) if not v & bit))
    for sub in range(1, matroid.ground.full_mask + 1):
        tight_sets.add(_tight_indices(sub, ranks[sub], vertex_masks))
    facets = set()
    for t in tight_sets:
        if not t:
            continue
        points = [vertex_masks[j] for j in sorted(t)]
        held_by_all = held_by_some = points[0]
        for v in points:
            held_by_all &= v
            held_by_some |= v
        if (held_by_some ^ held_by_all).bit_count() < dim - 1:
            continue
        if _affine_dimension_of_masks(points, n) == dim - 1:
            facets.add(t)
    return frozenset(facets)


def separate(system: FacetSystem, point: Sequence) -> LinearConstraint | None:
    """One pass over the system: return a most-violated constraint, or
    None when the point satisfies everything.  The equality is treated as
    its two inequality halves, so the returned constraint always has an
    inequality sense.  Ties go to the earliest constraint in canonical
    order."""
    if len(point) != len(system.ground):
        raise DimensionMismatch("point dimension != ground-set size")
    candidates: list[LinearConstraint] = []
    if system.equality is not None:
        eq = system.equality
        candidates.append(
            LinearConstraint(eq.ground, eq.coeffs, "<=", eq.rhs, Origin.RANK_EQUALITY)
        )
        candidates.append(
            LinearConstraint(eq.ground, eq.coeffs, ">=", eq.rhs, Origin.RANK_EQUALITY)
        )
    candidates.extend(system.facets)
    best: LinearConstraint | None = None
    worst = Fraction(0)
    for c in candidates:
        v = c.violation(point)
        if v > worst:
            best, worst = c, v
    return best
