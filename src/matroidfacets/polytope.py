"""Facet systems for the bases polytope and the independence polytope.

Two routes to the facets of the bases polytope P(M), the convex hull of
the basis incidence vectors:

* ``predicted_facets_bases`` builds the structural description: the rank
  equality x(E) = r(E), an upper bound per parallel closure P with M/P
  connected, a lower bound per coparallel closure S with M|(E-S)
  connected, and an upper bound per locked subset.
* ``oracle_facets_bases`` finds the facets by brute force from the vertex
  set, with no structural knowledge: every candidate inequality is
  classified by the affine dimension of the vertices it holds with
  equality.

``certify`` runs both and compares.  On the affine hull x(E) = r(E) many
different inequalities cut the same facet, so facet identity is the
*tight set*: the set of bases satisfying the constraint with equality.
Two constraints with the same tight set are the same facet.  A tight
set is an int bitmask over vertex indices, in every result too: bit i is
``matroid.bases[i]``, or ``independence_vertices(matroid)[i]``.

A constraint is its support mask, like every other subset here:
``LinearConstraint(ground, support_mask, sense, rhs, origin)``, with bit
i for ``ground.labels[i]``.  Its 0/1 coefficient tuple ``coeffs`` is
derived from the mask on each read.

One brute-force oracle serves both polytopes.  It reads the vertex
masks (the bases, or the independent sets) and a list of subsets, and
eliminates Edmonds' (1970) candidates x_i >= 0 and x(A) <= h(A), with
h(A) = max_v |v ∩ A|, for few A.  If A is not cyclic under h (e ∈ A,
|A| >= 2, h(A) = h(A-e) + 1), x(A) <= h(A) is the sum of
x(A-e) <= h(A-e) and x_e <= h({e}); if A is not closed (f ∉ A,
h(A+f) = h(A)), it is the sum of x(A+f) <= h(A+f) and -x_f <= 0.  A
sum's face is the intersection of its terms' faces, and a facet inside
two faces is one of them unless one is the whole polytope.  Closing A,
then dropping the coloops of the restriction to A, keeps A a flat, so
every facet is the face of x_i >= 0, of a singleton, or of an A closed
and cyclic under h.  For the bases, and for the independent sets since
each lies in a basis, h is the rank, so those A are the cyclic flats,
``Matroid._cyclic_flats``, that the lemma scan and the independence
prediction read too.  The oracle shares them with the predictor only
to pick candidates: elimination alone decides which faces are facets,
and the tests keep the walk over every subset as the reference.

The counts |v ∩ A| are bit-sliced, one bitmask per binary digit, from
the vertex columns each family builds once and keeps on the matroid.
Tight sets varying in too few coordinates to span a facet are dropped.
Only the maximal ones are tested, since a face inside another proper
face is no facet.  With a leading 1 on each vertex, a proper face's
vertex matrix has rank at most the polytope's dimension d, and its rank
over GF(2), an XOR basis of the face and its columns, is never above
its rank over Q: reaching d there settles a facet.  The polytope's own
rank is settled the same way, against 1 plus its varying coordinates,
less 1 when the vertices share a coordinate sum.  Only a face or a
polytope that falls short gets fraction-free (Bareiss) elimination of
its Gram matrix, at most (n+1)-square.  The other
tight sets (predicted constraints, collapse excuses, the lemma scan)
are read from the same counts.  ``separate`` and
``LinearConstraint.evaluate`` read coordinates exactly, floats included,
and sum integers on the point scaled by the lcm of its denominators.
``separate`` finds every row's gap at once: each ``FacetSystem`` packs
its rows into one int per coordinate, a signed field per row, so that
one sum of n products over the scaled point holds all the gaps, in
fields of a power of two bytes wide enough for the point at hand.

The independence facets and certify's lemma scan range over the flats
with a connected restriction: the singleton flats, and the cyclic flats
with a connected restriction, since a connected set is cyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial, reduce
from math import lcm
from operator import mul
from struct import Struct
from typing import Iterable, Sequence

from .core import (
    DimensionMismatch,
    ElementSubset,
    GroundSet,
    Matroid,
    MatroidError,
    _bit_indices,
    _vertex_columns,
)
from .locked import locked_structure


class NotConnected(MatroidError):
    """The bases-polytope generators need a connected matroid."""


class DegeneratePolytope(MatroidError):
    """A single-vertex polytope has no facets to certify."""


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


def _scaled(point: Iterable) -> tuple[list[int], int]:
    """The coordinates times the lcm of their denominators, as ints, and
    that lcm, so sums and comparisons run on ints.  Each coordinate is
    read once, by ``as_integer_ratio``: ints and ``Fraction``s as they
    are, anything else through ``Fraction``, so floats exactly too."""
    ratios = [(v if type(v) in (int, Fraction) else Fraction(v)).as_integer_ratio() for v in point]
    scale = lcm(*(q for _, q in ratios))
    return [p * (scale // q) for p, q in ratios], scale


@dataclass(frozen=True)
class LinearConstraint:
    """A 0/1-support constraint  x(S) sense rhs  over a ground set, S
    given by its bitmask over the ground set: bit i is ``ground.labels[i]``."""

    ground: GroundSet
    support_mask: int
    sense: str
    rhs: int
    origin: Origin

    def __post_init__(self):
        if not isinstance(self.support_mask, int):
            raise TypeError(f"support_mask must be an int bitmask, not {type(self.support_mask).__name__}")
        if self.support_mask & ~self.ground.full_mask:
            self.ground.from_mask(self.support_mask)  # raises ForeignElement
        if self.sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}")
        if not self.support_mask:
            raise ValueError("empty support")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The 0/1 coefficient of each element, in ground order."""
        return tuple(self.support_mask >> i & 1 for i in range(len(self.ground)))

    def support(self) -> ElementSubset:
        return ElementSubset(self.ground, self.support_mask)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != len(self.ground):
            raise DimensionMismatch("point dimension != ground-set size")
        scaled, scale = _scaled([point[i] for i in _bit_indices(self.support_mask)])
        return Fraction(sum(scaled), scale)

    def violation(self, point: Sequence) -> Fraction:
        """How far the point is on the wrong side (0 when satisfied).
        For the equality sense this is the absolute gap."""
        gap = self.evaluate(point) - Fraction(self.rhs)
        return max(Fraction(0), {"<=": gap, ">=": -gap, "=": abs(gap)}[self.sense])

    def satisfied_by(self, point: Sequence) -> bool:
        return self.violation(point) == 0

    def canonical(self) -> str:
        labels = " ".join(self.support())
        return f"x({labels}) {self.sense} {self.rhs} [{self.origin.value}]"

    @classmethod
    def on_subset(cls, subset: ElementSubset, sense: str, rhs: int, origin: Origin) -> "LinearConstraint":
        return cls(subset.ground, subset.mask, sense, rhs, origin)


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

    @cached_property
    def _packed(self) -> "_PackedRows":
        """The rows packed for ``separate``, one entry per field width,
        built on first use and kept out of eq, hash and repr."""
        return _PackedRows(self)


class _PackedRows(dict):
    """A ``FacetSystem``'s rows packed into one int per coordinate, keyed
    by the field width W, a power of two in bytes, each entry built on
    first use.  The rows follow the constraints in canonical order: one
    per inequality, with sign +1 for <= and -1 for >=, and two per
    equality, its <= half first.  Each row returns its own constraint,
    but the system's equality returns new halves of origin
    ``RANK_EQUALITY``.  With R rows and rhs read exactly, D the lcm of
    their denominators, an entry holds:

    * per coordinate i, the sum of sign_k * D * 2^(8W(R-1-k)) over the
      rows k that hold i;
    * the rhs packed the same way, sign_k * D * rhs_k in field k;
    * the offset 2^(8W-1) in every field;
    * a ``Struct`` cutting R fields of W bytes, and the bytes of a zero
      gap, the offset alone.

    On a point scaled to ints s with lcm S, field k of
    offset + sum_i s_i * column_i - S * rhs is then the offset plus
    D * S times row k's gap, as long as every such product is below
    2^(8W-1) in size: no field borrows from or carries into another.
    """

    def __init__(self, system: FacetSystem):
        super().__init__()
        rows = []
        for c in system.constraints():
            for half in ("<=", ">=") if c.sense == "=" else (c.sense,):
                out = c
                if c is system.equality:
                    out = LinearConstraint(c.ground, c.support_mask, half, c.rhs, Origin.RANK_EQUALITY)
                rows.append((c.support_mask, c.rhs, 1 if half == "<=" else -1, out))
        masks, rhs, signs, self.returned = tuple(zip(*rows)) or ((),) * 4
        scaled, self.scale = _scaled(rhs)
        self.rhs = [sign * r for sign, r in zip(signs, scaled)]
        self.largest = max(map(abs, self.rhs), default=0)
        # one byte per row, 1 where the row holds the coordinate with that sign
        n, count = len(system.ground), len(masks)
        plus, minus = [bytearray(count) for _ in range(n)], [bytearray(count) for _ in range(n)]
        for k, (mask, sign) in enumerate(zip(masks, signs)):
            holders = plus if sign > 0 else minus
            for i in _bit_indices(mask):
                holders[i][k] = 1
        self.holders = list(zip(plus, minus))

    def __missing__(self, width: int) -> tuple:
        rows, bits = len(self.rhs), 8 * width

        def spread(ones: bytes) -> int:
            fields = bytearray(rows * width)
            fields[width - 1 :: width] = ones
            return int.from_bytes(fields, "big")

        columns = [self.scale * (spread(p) - spread(m)) for p, m in self.holders]
        rhs = 0
        for r in self.rhs:
            rhs = (rhs << bits) + r
        zero = b"\x80" + bytes(width - 1)
        offset = int.from_bytes(zero * rows, "big")
        self[width] = entry = (columns, rhs, offset, Struct(">" + f"{width}s" * rows), zero)
        return entry


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


def _plus(digits: Sequence[int], column: int) -> list[int]:
    """Bit-sliced counts, one bitmask over vertex indices per binary
    digit, with one more column added: a single carry ripple."""
    out = list(digits)
    for k, digit in enumerate(out):
        out[k] = digit ^ column
        column &= digit
        if not column:
            return out
    return [*out, column]


def _tight(digits: Sequence[int], every: int, rhs: int | None = None) -> int:
    """The vertices picked by ``every`` whose bit-sliced count equals
    ``rhs``, or with ``rhs`` None those reaching the largest count, read
    digit by digit from the top."""
    if rhs is not None and rhs >> len(digits):
        return 0  # negative, or beyond every count
    for k in range(len(digits) - 1, -1, -1):
        hit = every & digits[k]
        if hit if rhs is None else rhs >> k & 1:
            every = hit
        elif hit:
            every ^= hit
    return every


def _tight_set(columns: Sequence[int], every: int, m: int, rhs) -> int:
    """The vertices picked by ``every`` with |v ∩ m| = rhs, as a bitmask
    over vertex indices, counted from the vertices' columns at once.  An
    integral rhs of another type (1.0, Fraction(1)) reads as its int."""
    if rhs % 1:
        return 0  # no count is fractional
    return _tight(reduce(_plus, [columns[i] for i in _bit_indices(m)], []), every, int(rhs))


def _varying_columns(tight: int, columns: Sequence[int], need: int = 0) -> list[int] | None:
    """The columns restricted to the vertices picked by ``tight``, keeping
    only the coordinates held by some but not all of those vertices; None
    as soon as the constant ones leave fewer than ``need``."""
    varying = []
    spare = len(columns) - need
    for col in columns:
        c = tight & col
        if c and c != tight:
            varying.append(c)
        elif (spare := spare - 1) < 0:
            return None
    return varying


def _gram_rank(size: int, varying: Sequence[int]) -> int:
    """Rank of the picked vertices' matrix with a leading 1 on each
    vertex, which is their affine dimension plus one (0 for none).

    That rank is the rank of the matrix's Gram matrix, whose entries
    count the picked vertices holding a coordinate, or two.  A coordinate
    held by all or none of them is a multiple of the leading column and
    is left out, so the matrix is at most (n+1)-square whatever the
    number of vertices.
    """
    rows = [[size, *(c.bit_count() for c in varying)]]
    rows += [[a.bit_count(), *((a & b).bit_count() for b in varying)] for a in varying]
    return _integer_rank(rows)


def _gf2_rank(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of bitmask vectors, by an XOR basis keyed by each
    member's top bit.  A nonzero minor mod 2 is nonzero over Q, so this is
    never above the rank over Q of the same 0/1 vectors."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v and (top := v.bit_length()) in basis:
            v ^= basis[top]
        if v:
            basis[top] = v
    return len(basis)


def _dimension(count: int, columns: Sequence[int], shared: int) -> int:
    """Affine dimension of ``count`` vertices from their columns, with
    ``shared`` 1 when they all have the same coordinate sum.

    With a leading 1 on each vertex, the matrix has rank at most 1 + k
    for k varying coordinates, and 1 less when the sum is shared and
    k > 0, as the varying columns then add up to a multiple of the
    leading one.  Its rank over GF(2) is never above that over Q, so
    reaching the bound there settles it; only a family that falls short,
    such as disconnected bases, gets the Gram matrix.
    """
    every = (1 << count) - 1
    varying = _varying_columns(every, columns)
    rank = _gf2_rank([every, *varying])
    if rank < len(varying) + 1 - (shared if varying else 0):
        rank = _gram_rank(count, varying)
    return rank - 1


def _facet_oracle(
    vertex_masks: Sequence[int], columns: Sequence[int], subsets: Iterable[int]
) -> tuple[int, frozenset]:
    """Brute-force facets of the convex hull of 0/1 vertices, from the
    vertices and their ``_vertex_columns``: its dimension, and the tight
    sets of the facets among x_i >= 0 and x(A) <= max_v |v ∩ A|, as
    bitmasks over vertex indices.  A runs over the singletons and the
    nonempty ``subsets``, which must hold every A closed and cyclic under
    that max: for a matroid's bases or independent sets, its cyclic flats.
    """
    every = (1 << len(vertex_masks)) - 1
    shared = 1 if len({v.bit_count() for v in vertex_masks}) == 1 else 0
    dim = _dimension(len(vertex_masks), columns, shared)
    # Exact screen: a facet's dimension, dim - 1, is at most its k varying
    # coordinates, or max(k - 1, 0) when the vertices share a coordinate sum
    need = dim - 1 + shared if dim > 1 else 0
    supports = [1 << i for i in range(len(columns))] + [a for a in subsets if a]
    tights = {every & ~col for col in columns}
    for a in supports:
        tights.add(_tight(reduce(_plus, [columns[i] for i in _bit_indices(a)], []), every))
    tights.discard(every)  # the whole polytope, no proper face
    # each passing tight set with its varying columns, read once
    passed = {t: v for t in tights if (v := _varying_columns(t, columns, need)) is not None}
    maximal: list[int] = []
    for t in sorted(passed, key=int.bit_count, reverse=True):
        if all(t & m != t for m in maximal):
            maximal.append(t)
    facets = []
    for t in maximal:
        # a proper face has rank at most dim over Q, and over GF(2) no more
        # than that: reaching dim there settles a facet with no Gram matrix
        if _gf2_rank([t, *passed[t]]) == dim or _gram_rank(t.bit_count(), passed[t]) == dim:
            facets.append(t)
    return dim, frozenset(facets)


def polytope_dimension(vertices: Iterable[ElementSubset]) -> int:
    """Affine dimension of the convex hull of 0/1 vertices."""
    vertices = list(vertices)
    if not vertices:
        raise ValueError("no vertices")
    masks = [v.mask for v in vertices]
    shared = 1 if len({m.bit_count() for m in masks}) == 1 else 0
    return _dimension(len(masks), _vertex_columns(masks, len(vertices[0].ground)), shared)


def _connected_flats(matroid: Matroid) -> dict[int, int]:
    """The nonempty flats of a loopless matroid with a connected
    restriction, by size and then lexicographically by index, each with
    its rank.  {e} is a flat of rank 1 when its parallel closure is {e};
    the others are cyclic, read off ``Matroid._lattice`` with their ranks."""
    flats = {p.mask: 1 for p in matroid.parallel_closures() if len(p) == 1}
    flats.update((f, rank) for f, rank in matroid._lattice().items() if f and matroid._connected(f))
    return flats


def predicted_facets_bases(matroid: Matroid) -> FacetSystem:
    """The structural facet description of the bases polytope.

    Needs a connected, loopless, coloopless matroid.  A parallel or
    coparallel closure equal to the whole ground set would make its
    constraint coincide with the rank equality; such constraints are
    recorded in ``collapsed`` rather than emitted as facets.  The bound
    x(P) <= 1 of a parallel closure P cuts the face P(M|P ⊕ M/P), a facet
    only when M/P (dually M*|(E-P)) is connected; the bound of a
    coparallel closure S is x(E-S) <= r(E-S), a facet only when M|(E-S)
    is connected.  Other closures emit nothing.
    """
    matroid._refuse_loops()
    matroid._refuse_coloops()
    if not matroid.is_connected():
        raise NotConnected("bases-polytope description needs a connected matroid")
    structure = locked_structure(matroid)
    ground = matroid.ground
    full = ground.full_mask
    equality = LinearConstraint.on_subset(
        ground.full, "=", matroid.rank_value, Origin.RANK_EQUALITY
    )
    facets: list[LinearConstraint] = []
    collapsed: list[LinearConstraint] = []
    for p in structure.parallel:
        c = LinearConstraint.on_subset(p, "<=", 1, Origin.PARALLEL_UPPER)
        if p.mask == full:
            collapsed.append(c)
        elif matroid._connected(full ^ p.mask, dual=True):
            facets.append(c)
    for s in structure.coparallel:
        c = LinearConstraint.on_subset(s, ">=", len(s) - 1, Origin.COPARALLEL_LOWER)
        if s.mask == full:
            collapsed.append(c)
        elif matroid._connected(full ^ s.mask):
            facets.append(c)
    for locked in structure.locked:
        facets.append(
            LinearConstraint.on_subset(locked, "<=", structure.rho[locked], Origin.LOCKED_UPPER)
        )
    return FacetSystem(ground, equality, tuple(facets), tuple(collapsed))


def bases_tight_set(matroid: Matroid, constraint: LinearConstraint) -> int:
    """Bases tight for the constraint: bit i is ``matroid.bases[i]``."""
    columns, every = matroid._basis_columns(), (1 << matroid.basis_count()) - 1
    return _tight_set(columns, every, constraint.support_mask, constraint.rhs)


def _bases_oracle(matroid: Matroid) -> tuple[int, frozenset]:
    """The dimension of the bases polytope and its facet tight sets, as
    bitmasks over basis indices."""
    if not matroid.is_connected():
        raise NotConnected("the facet oracle needs a connected matroid")
    if len(matroid._basis_masks) < 2:
        raise DegeneratePolytope("a single basis leaves nothing to certify")
    return _facet_oracle(matroid._basis_masks, matroid._basis_columns(), matroid._cyclic_flats())


def oracle_facets_bases(matroid: Matroid) -> frozenset[int]:
    """Facets of the bases polytope found by brute force, as tight sets.

    Candidates are x_i >= 0 and x(A) <= r(A) for A a singleton or a
    cyclic flat; the module docstring shows why no other A is needed.  A
    candidate is a facet iff its tight vertex set has affine dimension
    one below the polytope's.  Constraints equivalent modulo the rank
    equality collapse, since they share a tight set.
    """
    return _bases_oracle(matroid)[1]


@dataclass
class CertificationReport:
    """Outcome of comparing predicted and oracle facet systems by tight
    set.  ``excused`` holds the missing tight sets that a collapse accounts
    for: those of x_e >= 0 and x_e <= 1 for e in a collapsed support."""

    ground: GroundSet
    dimension: int
    predicted: tuple[tuple[LinearConstraint, int], ...]
    oracle: frozenset[int]
    missing: tuple[int, ...]
    excused: tuple[int, ...]
    extra: tuple[tuple[LinearConstraint, int], ...]
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
        return len(self.excused) == len(self.missing)

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
    tight = partial(_tight_set, matroid._basis_columns(), (1 << matroid.basis_count()) - 1)
    predicted = tuple((c, tight(c.support_mask, c.rhs)) for c in system.facets)
    missing = sorted(oracle - {t for _, t in predicted}, key=_bit_indices)
    # x_e >= 0 and x_e <= 1 for each e of a collapsed support
    elements = [i for c in system.collapsed for i in _bit_indices(c.support_mask)]
    excusable = {tight(1 << i, rhs) for i in elements for rhs in (0, 1)}
    excused = [t for t in missing if t in excusable]
    lemma_violations = []
    full = matroid.ground.full_mask
    for sub, rank in sorted(_connected_flats(matroid).items()):
        if sub == full or matroid._connected(full ^ sub, dual=True):
            continue
        if tight(sub, rank) in oracle:
            lemma_violations.append(ElementSubset(matroid.ground, sub))
    notes = []
    for c in system.collapsed:
        notes.append(f"degenerate collapse: {c.canonical()} coincides with the rank equality")
    if excused:
        notes.append(
            f"{len(excused)} oracle facet(s) unmatched; attributed to the degenerate collapse"
        )
    report = CertificationReport(
        ground=matroid.ground,
        dimension=dim,
        predicted=predicted,
        oracle=oracle,
        missing=tuple(missing),
        excused=tuple(excused),
        extra=tuple((c, t) for c, t in predicted if t not in oracle),
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
    matroid._refuse_loops()
    ground = matroid.ground
    facets = [LinearConstraint(ground, 1 << i, ">=", 0, Origin.NONNEGATIVITY) for i in range(len(ground))]
    for mask, rank in _connected_flats(matroid).items():
        facets.append(LinearConstraint(ground, mask, "<=", rank, Origin.RANK_UPPER))
    return FacetSystem(ground, None, tuple(facets), ())


def independence_tight_set(matroid: Matroid, constraint: LinearConstraint) -> int:
    """Independent sets tight for the constraint, bit i for vertex i."""
    columns, every = matroid._independent_columns(), (1 << len(matroid._independent_masks())) - 1
    return _tight_set(columns, every, constraint.support_mask, constraint.rhs)


def oracle_facets_independence(matroid: Matroid) -> frozenset[int]:
    """Brute-force facet tight sets of the independence polytope, from
    the same oracle as the bases polytope run on the independent sets."""
    matroid._refuse_loops()
    columns = matroid._independent_columns()
    return _facet_oracle(matroid._independent_masks(), columns, matroid._cyclic_flats())[1]


def separate(system: FacetSystem, point: Sequence) -> LinearConstraint | None:
    """One packed sum over the system's rows: return a most-violated
    constraint, or None when the point satisfies everything.  The
    equality is read as its two inequality halves, so the returned
    constraint always has an inequality sense.  Ties go to the earliest
    constraint in canonical order.  Coordinates are read exactly by
    ``Fraction``, floats too.

    The point is scaled to ints s with lcm S, and the field width W is
    the least power of two bytes with D * sum_i |s_i| + S * max_k
    |D * rhs_k| < 2^(8W-1), a bound on every row's gap times D S.  Then
    n multiply-adds with the packed columns of ``FacetSystem._packed``
    give every gap at once, offset by 2^(8W-1) so that each field is
    unsigned and its W big-endian bytes compare as its number does: the
    largest and earliest bytes win.  The cost grows with the field width
    times the size of the scaled coordinates."""
    if len(point) != len(system.ground):
        raise DimensionMismatch("point dimension != ground-set size")
    scaled, scale = _scaled(point)
    table = system._packed
    bound = table.scale * sum(map(abs, scaled)) + scale * table.largest
    width = 1 << ((bound.bit_length() + 8) // 8 - 1).bit_length()  # bound < 2^(8W-1)
    columns, rhs, offset, fields, zero = table[width]
    total = offset + sum(map(mul, scaled, columns)) - scale * rhs
    values = fields.unpack(total.to_bytes(fields.size, "big"))
    worst = max(values, default=zero)
    return table.returned[values.index(worst)] if worst > zero else None
