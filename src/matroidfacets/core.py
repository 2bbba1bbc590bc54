"""Exact matroid primitives over explicit basis families.

A matroid is stored as the full list of its bases.  Subsets of the ground
set are bitmasks (one bit per element, in ground-set order), so every
query here (rank, closure, duality, connectivity) is plain integer
arithmetic: no floats, no tolerances, bit-for-bit reproducible.

The family is one sorted tuple of basis masks, and no hash set of it is
kept.  Constructions build their masks in increasing order (``r_subsets``
by Pascal's recurrence, sums with the right-hand side outermost), or
reversed, as the dual's complements are, so sorting them is one timsort
pass and repeats show as equal neighbours.

Every rank comes from the basis columns: per element, a bitmask over
basis indices of the bases holding it.  ``Matroid._greedy`` walks a set
in index order and keeps an element while some basis still holds all
kept ones, one AND of columns per element; what it keeps is a basis of
the set, so r(X) costs |X| ANDs of |B|-bit ints, and no table of
ranks is built.  Components read the same columns, from the fundamental
graph of a greedy basis, in r(n-r) ANDs.

The exhaustive scans (the cyclic flats, and the locked subsets,
parallel classes, 3-connectivity and facet oracles read off them) need
two sets of subsets, each one bit per subset of an int of 2^n bits: the
independent sets, and the sets of odd rank.  They are capped at MAX_SCAN_SIZE
elements, where each takes 2 MiB.  No scan walks the 2^n subsets in
Python: n passes over the parity bits, as one big int, find the cyclic
flats (closed unions of circuits), the only candidates the other scans
need.  Locked sets, connected flats and circuit-hyperplanes are cyclic
flats (Bonin and de Mier, "The lattice of cyclic flats of a matroid",
2008), and a connected matroid with a 2-separation and rank and corank
at least 2 has one on a cyclic flat (``Matroid.is_3_connected`` proves
it).  The cyclic flats with their ranks form the lattice that Bonin and
de Mier show determines the matroid (``Matroid._lattice``), and every
side whose connectivity the package asks about, a set of the lattice or
of its dual's or E less one element, is read off it in O(|lattice|) dict
lookups (``Matroid._connected`` states which sides, and proves how).

Constructions take matroids to matroids and check only their
preconditions.  ``Matroid.validate()`` checks a family built by hand:
``files.MatroidFile`` runs it on every file it reads, since files come
from outside, and so on the catalog's typed-in MK4 and V8 listings, once
each, when first built.  The exchange check reads the bases and their
columns alone, in |B|·min(r, n-r) dict updates (``Matroid.validate``).
Each vertex family's columns are built once and kept on the matroid.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from operator import lt
from typing import Iterable, Iterator, Sequence

MAX_SCAN_SIZE = 24
# per bit position k, the digit "0" or "1" of bit k of each byte value
_BIT_DIGITS = [bytes(ord("0") + (v >> k & 1) for v in range(256)) for k in range(8)]


class MatroidError(Exception):
    """Base class for every error raised by this package."""


class EmptyBasisFamily(MatroidError):
    """A matroid needs at least one basis."""


class UnequalBasisSizes(MatroidError):
    """All bases of a matroid have the same cardinality."""


class ForeignElement(MatroidError):
    """A label or subset does not belong to the ground set in use."""


class EmptyGroundSet(MatroidError):
    """The requested operation would produce or consume an empty ground set."""


class NotProperSubset(MatroidError):
    """The operation needs a subset X with empty < X < E."""


class LoopPresent(MatroidError):
    """Raised by operations that require a loopless matroid."""

    def __init__(self, element: str):
        self.element = element
        super().__init__(f"matroid has a loop: {element}")


class ColoopPresent(MatroidError):
    """Raised by operations that require a coloopless matroid."""

    def __init__(self, element: str):
        self.element = element
        super().__init__(f"matroid has a coloop: {element}")


class DimensionMismatch(MatroidError):
    """A point's coordinate count must equal the ground-set size."""


class ExchangeAxiomViolated(MatroidError):
    """The family fails the basis-exchange axiom; carries one witness."""

    def __init__(self, basis1: tuple[str, ...], basis2: tuple[str, ...], element: str):
        self.basis1 = basis1
        self.basis2 = basis2
        self.element = element
        super().__init__(
            "exchange fails for bases {%s} and {%s} at element %s"
            % (" ".join(basis1), " ".join(basis2), element)
        )


class GroundSet:
    """An ordered set of distinct element labels.

    The order is the bit order of every mask built over this ground set
    and the display order of every subset, so it is part of the identity:
    two ground sets are equal iff their label tuples are equal.
    """

    __slots__ = ("labels", "index", "full_mask", "_hash")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise EmptyGroundSet("a ground set needs at least one element")
        for lab in labels:
            if not isinstance(lab, str) or not lab or lab.split() != [lab]:
                raise ValueError(f"labels must be nonempty strings without whitespace: {lab!r}")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in ground set")
        self.labels = labels
        self.index = {lab: i for i, lab in enumerate(labels)}
        self.full_mask = (1 << len(labels)) - 1
        self._hash = hash(labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self.index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GroundSet({' '.join(self.labels)})"

    def subset(self, labels: Iterable[str]) -> "ElementSubset":
        mask = 0
        for lab in labels:
            i = self.index.get(lab)
            if i is None:
                raise ForeignElement(f"label {lab!r} is not in the ground set")
            mask |= 1 << i
        return ElementSubset(self, mask)

    def singleton(self, label: str) -> "ElementSubset":
        return self.subset((label,))

    def from_mask(self, mask: int) -> "ElementSubset":
        if mask & ~self.full_mask:
            raise ForeignElement("mask has bits outside the ground set")
        return ElementSubset(self, mask)

    @property
    def empty(self) -> "ElementSubset":
        return ElementSubset(self, 0)

    @property
    def full(self) -> "ElementSubset":
        return ElementSubset(self, self.full_mask)


@dataclass(frozen=True)
class ElementSubset:
    """A subset of a ground set, stored as a bitmask."""

    ground: GroundSet
    mask: int

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, label: str) -> bool:
        i = self.ground.index.get(label)
        return i is not None and self.mask >> i & 1 == 1

    def __iter__(self) -> Iterator[str]:
        for i, lab in enumerate(self.ground.labels):
            if self.mask >> i & 1:
                yield lab

    def __le__(self, other: "ElementSubset") -> bool:
        self._same_ground(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "ElementSubset") -> bool:
        return self <= other and self.mask != other.mask

    def __or__(self, other: "ElementSubset") -> "ElementSubset":
        self._same_ground(other)
        return ElementSubset(self.ground, self.mask | other.mask)

    def __and__(self, other: "ElementSubset") -> "ElementSubset":
        self._same_ground(other)
        return ElementSubset(self.ground, self.mask & other.mask)

    def __sub__(self, other: "ElementSubset") -> "ElementSubset":
        self._same_ground(other)
        return ElementSubset(self.ground, self.mask & ~other.mask)

    def __xor__(self, other: "ElementSubset") -> "ElementSubset":
        self._same_ground(other)
        return ElementSubset(self.ground, self.mask ^ other.mask)

    def complement(self) -> "ElementSubset":
        return ElementSubset(self.ground, self.ground.full_mask & ~self.mask)

    def labels(self) -> tuple[str, ...]:
        return tuple(self)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.ground)) if self.mask >> i & 1)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Order subsets by cardinality, then lexicographically by index."""
        return (self.mask.bit_count(), self.indices())

    def _same_ground(self, other: "ElementSubset") -> None:
        if self.ground != other.ground:
            raise ForeignElement("subsets built over different ground sets")

    def __repr__(self) -> str:
        return "{%s}" % " ".join(self)


@dataclass(frozen=True)
class RankQueryResult:
    """Rank value plus a witness: an independent subset of the queried set
    of maximum size, taken greedily in index order."""

    value: int
    witness: ElementSubset


def _lanes(n: int) -> Iterator[tuple[int, int]]:
    """Per element e of an n-element ground set, from the top down, 2^e
    and the positions X without e in an int of 2^n bits.  Those come in
    runs of 2^e; starting from the lower half, each step halves the run.
    Only one such int is live at a time."""
    lanes = (1 << (1 << n >> 1)) - 1
    for e in range(n - 1, -1, -1):
        yield 1 << e, lanes
        lanes ^= lanes << (1 << e >> 1)


def _subset_bits(n: int, bases: Iterable[int], r: int) -> tuple[int, int]:
    """Two sets of subsets of an n-element ground set, each an int of 2^n
    bits with bit X for the subset of mask X, from the basis masks of a
    rank-r matroid: the independent sets, and the sets of odd rank.

    Each pass below moves every position across one element at once (a
    subset-sum, or zeta, transform).  The independent sets are the
    positions below some basis.  The sets of rank at least k are the
    positions above some independent k-set; these are nested, so r(X) is
    the number of k in 1..r whose set holds X, and its parity is the XOR
    of the r sets.
    """
    bits = bytearray(max(1 << n >> 3, 1))
    for b in bases:
        bits[b >> 3] |= 1 << (b & 7)
    independent = int.from_bytes(bits, "little")
    for step, lanes in _lanes(n):
        independent |= (independent >> step) & lanes
    # by_size[k]: the positions of the k-sets, grown one element at a time
    by_size = [1] + [0] * r
    for i in range(n):
        for k in range(min(i + 1, r), 0, -1):
            by_size[k] |= by_size[k - 1] << (1 << i)
    parity = 0
    for k in range(1, r + 1):
        up = independent & by_size[k]
        for step, lanes in _lanes(n):
            up |= (up & lanes) << step
        parity ^= up
    return independent, parity


def _bit_indices(mask: int) -> list[int]:
    """The indices of the set bits, lowest first, read from the binary
    digits in one pass: linear in the length of the mask, where shifting
    or clearing one bit at a time copies the whole int at every step."""
    return [i for i, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"]


def _vertex_columns(vertex_masks: Sequence[int], n: int) -> list[int]:
    """Per coordinate, a bitmask over vertex indices of the vertices
    holding it, read at once from all the vertices packed into bytes."""
    width = (n + 7) // 8
    packed = b"".join(v.to_bytes(width, "little") for v in vertex_masks)
    # int() reads the lowest vertex last
    return [int(packed[i >> 3 :: width].translate(_BIT_DIGITS[i & 7])[::-1], 2) for i in range(n)]


class Matroid:
    """A matroid given by its full basis family.

    Immutable after construction.  Construction runs only the cheap
    structural checks (nonempty family, equal basis sizes, membership in
    the ground set); the basis-exchange check is ``validate()``, as the
    module docstring says.

    The family is kept once, as ``_basis_masks``: the distinct masks in
    increasing order, sorted in one pass when they arrive in order or in
    reverse.  There is no hash set of the bases, and no table of ranks:
    every rank is read from the basis columns, built on first use and
    kept.  The first exhaustive scan keeps its two 2^n-bit sets, and the
    lattice of cyclic flats keeps the rank of each.
    """

    __slots__ = (
        "ground",
        "rank_value",
        "_basis_masks",
        "_scanned",
        "_independent",
        "_basis_cols",
        "_independent_cols",
        "_cyclic",
        "_lattices",
        "_dual",
        "_components",
        "_sides",
        "_bases",
        "_loop_masks",
        "_hash",
    )

    def __init__(self, ground: GroundSet, bases: Iterable[ElementSubset]):
        masks = []
        for b in bases:
            if b.ground is not ground and b.ground != ground:
                raise ForeignElement("basis built over a different ground set")
            masks.append(b.mask)
        self._fill(ground, masks)

    @classmethod
    def _from_masks(cls, ground: GroundSet, masks: Iterable[int]) -> "Matroid":
        matroid = cls.__new__(cls)
        matroid._fill(ground, masks)
        return matroid

    def _fill(self, ground: GroundSet, masks: Iterable[int]) -> None:
        # one timsort pass when the masks come in order or in reverse
        family = sorted(masks)
        if not family:
            raise EmptyBasisFamily("a matroid needs at least one basis")
        if not all(map(lt, family, islice(family, 1, None))):
            family = sorted(set(family))  # a repeat: equal neighbours
        sizes = set(map(int.bit_count, family))
        if len(sizes) != 1:
            raise UnequalBasisSizes(f"basis sizes differ: {sorted(sizes)}")
        self.ground = ground
        self.rank_value = sizes.pop()
        self._basis_masks = tuple(family)
        self._scanned: tuple[int, int] | None = None
        self._independent: tuple[int, ...] | None = None
        self._basis_cols: list[int] | None = None
        self._independent_cols: list[int] | None = None
        self._cyclic: tuple[int, ...] | None = None
        self._lattices: tuple[dict[int, int], dict[int, int]] | None = None
        self._dual: Matroid | None = None
        self._components: tuple[ElementSubset, ...] | None = None
        self._sides: dict[int, bool] = {}
        self._bases: tuple[ElementSubset, ...] | None = None
        self._loop_masks: tuple[int, int] | None = None
        self._hash = hash((ground, self._basis_masks))

    # -- identity ---------------------------------------------------------

    @property
    def bases(self) -> tuple[ElementSubset, ...]:
        if self._bases is None:
            self._bases = tuple(ElementSubset(self.ground, m) for m in self._basis_masks)
        return self._bases

    def basis_count(self) -> int:
        return len(self._basis_masks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matroid)
            and self.ground == other.ground
            and self._basis_masks == other._basis_masks
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        # _fill sets _hash last, so a Matroid without it raised in _fill
        if not hasattr(self, "_hash"):
            return "Matroid(not built)"
        return (
            f"Matroid(rank {self.rank_value}, {len(self._basis_masks)} bases "
            f"on {len(self.ground)} elements)"
        )

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        """Check basis exchange: for B1, B2 and e in B1-B2 there is f in
        B2-B1 with B1-e+f again a basis.

        Fix B1 and e in B1.  The fan of I = B1-e is the set of x with I+x
        a basis: e and every f that exchanges for it.  Exchange fails at
        (B1, B2, e) exactly when B2 misses the whole fan.  (In a matroid
        the fan is a cocircuit, the complement of the hyperplane cl(I), so
        every basis meets it.)  One pass collects the fans, a dict update
        per set and element of it, and each distinct fan is tested against
        every set at once: the sets that miss it are the bits left clear
        by the OR of its elements' columns, bitmasks over set indices.
        When n-r < r the pass runs first on the complements of the bases,
        in |B|·(n-r) updates, not |B|·r: they are the dual's bases, a
        family passes exchange iff its complements do (Oxley, *Matroid
        Theory*, 2nd ed., Thm 2.1.1), and their columns are the
        complements of the bases'.  A fan falls short of E-I only where
        some I+x is a nonbasis, so all C(n, r) r-sets pass before any fan
        is built.  A failure is named from the bases' own fans: the first
        in (B1, B2, e) order, bases in mask order.
        """
        masks, ground = self._basis_masks, self.ground
        n, r = len(ground), self.rank_value
        if len(masks) == comb(n, r):
            return
        columns = self._basis_columns()
        every = (1 << len(masks)) - 1
        sides = [(masks, columns)]
        if n - r < r:
            sides.insert(0, ([ground.full_mask ^ b for b in masks], [every ^ c for c in columns]))
        for sets, cols in sides:
            fans: dict[int, int] = defaultdict(int)
            for i in range(n):
                bit = 1 << i
                for s in sets:
                    if s & bit:
                        fans[s ^ bit] |= bit
            full = n - sets[0].bit_count() + 1  # a fan of all of E-I misses no set
            missed: dict[int, int] = {}
            for fan in {fan for fan in fans.values() if fan.bit_count() != full}:
                covered = 0
                for j in _bit_indices(fan):
                    covered |= cols[j]
                if covered != every:
                    missed[fan] = every & ~covered
            if not missed:
                return
        for b1 in masks:
            # per e in B1, the lowest set bit: the first basis, in mask order
            found = [
                (avoid & -avoid, i)
                for i in _bit_indices(b1)
                if (avoid := missed.get(fans[b1 ^ (1 << i)]))
            ]
            if found:
                low, i = min(found)
                raise ExchangeAxiomViolated(
                    ElementSubset(ground, b1).labels(),
                    ElementSubset(ground, masks[low.bit_length() - 1]).labels(),
                    ground.labels[i],
                )

    # -- rank and friends -------------------------------------------------

    def _coerce(self, x: ElementSubset) -> int:
        if x.ground != self.ground:
            raise ForeignElement("subset built over a different ground set")
        return x.mask

    def _greedy(self, m: int) -> tuple[int, int]:
        """A basis I of m and the bases that hold it, a bitmask over basis
        indices.  The walk takes m in index order and keeps an element
        when some basis still alive holds it, narrowing the alive bases
        to those."""
        columns = self._basis_columns()
        alive = (1 << len(self._basis_masks)) - 1
        basis = 0
        for i in _bit_indices(m):
            held = alive & columns[i]
            if held:
                basis |= 1 << i
                alive = held
        return basis, alive

    def _rank_mask(self, m: int) -> int:
        return self._greedy(m)[0].bit_count()

    def _dual_rank_mask(self, m: int) -> int:
        return m.bit_count() - self.rank_value + self._rank_mask(self.ground.full_mask ^ m)

    def rank(self, x: ElementSubset) -> RankQueryResult:
        """Rank of x, with a basis of x picked greedily as the witness."""
        witness, _ = self._greedy(self._coerce(x))
        return RankQueryResult(witness.bit_count(), ElementSubset(self.ground, witness))

    def corank(self, x: ElementSubset) -> int:
        """Rank of x in the dual, via |x| - r(E) + r(E - x)."""
        return self._dual_rank_mask(self._coerce(x))

    def independent(self, x: ElementSubset) -> bool:
        """x lies in a basis: the greedy walk keeps all of it."""
        m = self._coerce(x)
        return self._greedy(m)[0] == m

    def closure(self, x: ElementSubset) -> ElementSubset:
        """A basis I of x, and every element that no basis holding I holds."""
        basis, alive = self._greedy(self._coerce(x))
        for i, column in enumerate(self._basis_columns()):
            if not alive & column:
                basis |= 1 << i
        return ElementSubset(self.ground, basis)

    def is_closed(self, x: ElementSubset) -> bool:
        return self.closure(x).mask == x.mask

    def _loops_and_coloops(self) -> tuple[int, int]:
        """The masks of the loops and of the coloops, from one pass over
        the bases on first use, then kept."""
        if self._loop_masks is None:
            self._loop_masks = _absent_and_common(self._basis_masks, self.ground.full_mask)
        return self._loop_masks

    def loops(self) -> ElementSubset:
        """Elements contained in no basis."""
        return ElementSubset(self.ground, self._loops_and_coloops()[0])

    def coloops(self) -> ElementSubset:
        """Elements contained in every basis."""
        return ElementSubset(self.ground, self._loops_and_coloops()[1])

    # -- duality and minors -----------------------------------------------

    def dual(self) -> "Matroid":
        """The matroid whose bases are the complements of this one's."""
        if self._dual is None:
            full = self.ground.full_mask
            d = Matroid._from_masks(self.ground, (full ^ b for b in self._basis_masks))
            d._dual = self
            self._dual = d
        return self._dual

    def restrict(self, x: ElementSubset) -> "Matroid":
        """The matroid on x whose bases are the maximal basis traces on x."""
        m = self._coerce(x)
        if m == 0:
            raise EmptyGroundSet("cannot restrict to the empty set")
        keep = _bit_indices(m)
        sub_ground = GroundSet(self.ground.labels[i] for i in keep)
        rx = self._rank_mask(m)
        traces = {b & m for b in self._basis_masks if (b & m).bit_count() == rx}
        remap = {old: new for new, old in enumerate(keep)}
        new_masks = set()
        for t in traces:
            nm = 0
            for i in _bit_indices(t):
                nm |= 1 << remap[i]
            new_masks.add(nm)
        return Matroid._from_masks(sub_ground, new_masks)

    def contract(self, x: ElementSubset) -> "Matroid":
        """Contract the elements of x away (ground set shrinks to E - x)."""
        m = self._coerce(x)
        if m == 0:
            return self
        if m == self.ground.full_mask:
            raise EmptyGroundSet("cannot contract the whole ground set")
        return self.dual().restrict(x.complement()).dual()

    # -- connectivity -----------------------------------------------------

    def _scan(self) -> tuple[int, int]:
        """``_subset_bits`` of the bases, built on first use and kept.
        Every exhaustive scan calls this first, so it also refuses ground
        sets above MAX_SCAN_SIZE."""
        if self._scanned is None:
            if len(self.ground) > MAX_SCAN_SIZE:
                raise MatroidError(
                    f"exhaustive subset scans are capped at {MAX_SCAN_SIZE} elements"
                )
            self._scanned = _subset_bits(len(self.ground), self._basis_masks, self.rank_value)
        return self._scanned

    def _independent_masks(self) -> tuple[int, ...]:
        """The masks of all independent sets in increasing order: the set
        bits of the scan's independent sets, read at once from the binary
        digits, on first use and kept."""
        if self._independent is None:
            digits = bin(self._scan()[0])[:1:-1]
            self._independent = tuple(m.start() for m in re.finditer("1", digits))
        return self._independent

    def _basis_columns(self) -> list[int]:
        """``_vertex_columns`` of the bases, built on first use and kept."""
        if self._basis_cols is None:
            self._basis_cols = _vertex_columns(self._basis_masks, len(self.ground))
        return self._basis_cols

    def _independent_columns(self) -> list[int]:
        """``_vertex_columns`` of the independent sets, built on first use and kept."""
        if self._independent_cols is None:
            self._independent_cols = _vertex_columns(self._independent_masks(), len(self.ground))
        return self._independent_cols

    def _cyclic_flats(self) -> tuple[int, ...]:
        """The masks of all cyclic flats by size, then lexicographically
        by index, read off the scan's parity bits on first use and kept.

        One pass per element e finds d = r(X+e) - r(X) at every X without
        e at once: d = 0 marks X as not closed, d = 1 marks X+e as not
        cyclic, and the cyclic flats are the sets that no pass marks.
        Rank grows by steps of 0 or 1, so d is the XOR of the two ranks'
        parities, and the passes run on one parity bit per set: an int of
        2^n bits, 2 MiB at n = 24.
        """
        if self._cyclic is None:
            parity = self._scan()[1]
            marked = 0
            for step, lanes in _lanes(len(self.ground)):
                d = (parity ^ (parity >> step)) & lanes
                marked |= (lanes ^ d) | (d << step)
            # the unmarked bits, lowest first, from the bytes with a clear
            # bit; below 8 subsets the byte's bits past 2^n count as marked
            size = 1 << len(self.ground)
            data = (marked | 0xFF >> size << size).to_bytes(max(size >> 3, 1), "little")
            found = [
                i << 3 | k
                for i in map(re.Match.start, re.finditer(rb"[^\xff]", data))
                for k in range(8)
                if not data[i] >> k & 1
            ]
            self._cyclic = tuple(sorted(found, key=lambda m: (m.bit_count(), _bit_indices(m))))
        return self._cyclic

    def _lattice(self, dual: bool = False) -> dict[int, int]:
        """The lattice of cyclic flats with their ranks, each in increasing
        size, built on first use and kept: 𝓛 maps each cyclic flat Z less
        the loops to r(Z), one greedy walk each, in the order of
        ``_cyclic_flats``, and 𝓛* (``dual``) maps E-Z less the coloops to
        r*(E-Z) = |E-Z| - r + r(Z), in the reverse order: the cyclic flats
        of M*, whose loops are the coloops of M.  The least cyclic flat is
        the loops, and the greatest is E less the coloops."""
        if self._lattices is None:
            flats, full, r = self._cyclic_flats(), self.ground.full_mask, self.rank_value
            loops, coloops = flats[0], full ^ flats[-1]
            ranks = {z & ~loops: self._rank_mask(z) for z in flats}
            coranks = {
                (full ^ z) & ~coloops: (full ^ z).bit_count() - r + ranks[z & ~loops]
                for z in reversed(flats)
            }
            self._lattices = ranks, coranks
        return self._lattices[dual]

    def _connected(self, sub: int, dual: bool = False) -> bool:
        """Whether M|sub, or M*|sub with ``dual``, is connected, for sub
        in 𝓛 (in 𝓛* with ``dual``; see ``_lattice``), or sub = E-e in a
        connected M where e's coparallel class is {e} (its parallel
        class, with ``dual``).  Each answer is kept, keyed by sub for M
        and by ~sub for M*, so a side that several scans ask about is
        tested once.

        For X in 𝓛, M|X is disconnected iff some Z in 𝓛 with
        empty < Z < X has X-Z in 𝓛 and r(Z) + r(X-Z) = r(X).  If: Z
        separates M|X.  Only if: X is cyclic, so M|X has no coloop, and
        no circuit crosses a separator S of M|X; so S and X-S are unions
        of circuits, and cl(S) ∩ X = S.  cl(S) lies in cl(X), which is X
        with the loops, so S is in 𝓛, and so is X-S.  M*|X over 𝓛* is
        the same statement in M*.  Z separates M|X iff X-Z does, and one
        of the two has at most half of X, so the scan tries only Z with
        2|Z| <= |X|, and stops at the first larger one, since the lattice
        runs in increasing size.

        The same test answers X = E-e, with r(X) = r: e has no
        coparallel partner, so M\\e has no coloop and X is cyclic, and e
        is not in cl(S), or S+e would separate M, as
        r(S+e) + r(X-S) = r.  So cl(S) ∩ X = S gives cl(S) = S, and S is
        in 𝓛 as before.  Dually, M*|X when e has no parallel partner,
        with r*(X) = n-r.

        Every caller meets the contract:
        - ``locked._locked_in``: L is in 𝓛, and C-L in 𝓛*, where it
          already reads r*(C-L).
        - ``polytope._connected_flats``: each f is in 𝓛.
        - ``polytope.predicted_facets_bases`` refuses loops, coloops and
          a disconnected M; a closure P or S of two or more elements is
          a rank-1 cyclic flat of M or M*, so E-P is in 𝓛* and E-S in 𝓛,
          and a closure {e} means e has no partner.
        - ``polytope.certify``'s lemma scan runs on that M and asks about
          E-F for each F of ``_connected_flats``: E-F is in 𝓛* for F in
          𝓛, and a singleton flat {e} is its own parallel class.
        """
        if sub.bit_count() <= 1:
            return True
        key = ~sub if dual else sub
        if key not in self._sides:
            flats = self._lattice(dual)
            # sub = E-e when it is not in the lattice: r, or n-r with dual
            rank = flats[sub] if sub in flats else flats[self.ground.full_mask]
            size, split = sub.bit_count(), False
            for z, rz in flats.items():
                if 2 * z.bit_count() > size:
                    break
                if z and z | sub == sub and flats.get(sub ^ z) == rank - rz:
                    split = True
                    break
            self._sides[key] = not split
        return self._sides[key]

    def is_connected(self) -> bool:
        """True iff no proper nonempty subset X has r(X) + r(E-X) = r(E),
        that is, iff E is one component."""
        return len(self.components()) == 1

    def components(self) -> tuple[ElementSubset, ...]:
        """The finest partition of E into separators, ordered by first
        element.

        The fundamental graph of a basis J joins e in it to f outside it
        whenever J-e+f is again a basis, and its connected parts are the
        components (Krogdahl 1977; Cunningham and Edmonds 1980).  J is
        picked greedily, and J-e+f is a basis when some basis holds J-e
        and f: one AND of basis columns per pair, r(n-r) in all, with the
        bases holding J-e found once per e.  Each element of J brings its
        star, merged with every cell it meets; the elements no star
        reaches are loops, one cell each.
        """
        if self._components is None:
            columns, full = self._basis_columns(), self.ground.full_mask
            every = (1 << len(self._basis_masks)) - 1
            basis = self._greedy(full)[0]
            inside, outside = _bit_indices(basis), _bit_indices(full ^ basis)
            cells: list[int] = []
            reached = 0
            for i in inside:
                rest = every
                for k in inside:
                    if k != i:
                        rest &= columns[k]
                star = 1 << i
                for j in outside:
                    if rest & columns[j]:
                        star |= 1 << j
                reached |= star
                merged = [c for c in cells if c & star]
                cells = [c for c in cells if not c & star]
                for c in merged:
                    star |= c
                cells.append(star)
            cells += [1 << j for j in _bit_indices(full ^ reached)]
            cells.sort(key=lambda m: (m & -m).bit_length())
            self._components = tuple(ElementSubset(self.ground, m) for m in cells)
        return self._components

    def is_3_connected(self) -> bool:
        """Connected with no 2-separation: no split (X, E-X) with two
        elements on each side and lambda(X) = r(X) + r(E-X) - r <= 1.

        Read off the cyclic flats: M is 3-connected iff it is connected,
        has r >= 2 and r* = n - r >= 2 when n >= 4, and no cyclic flat Z
        with 2 <= |Z| <= n-2 has lambda(Z) <= 1.  Below 4 elements no Z
        fits the size bounds, so this is connectivity there.

        Only if: such a Z is a 2-separation.  At n >= 4 a connected M has
        no loop, so r < 2 means r = 1, and then every 2-set X is one
        (lambda(X) <= 1 + 1 - 1); so is r* < 2, as lambda is the same in
        M*.  Without this guard
        U_1_n and U_{n-1,n}, whose only cyclic flats are empty and E,
        would pass.

        If: let M be connected (so loopless and coloopless), n >= 4,
        r >= 2, r* >= 2, with a 2-separation (X, Y); connected makes
        lambda >= 1 on every proper nonempty set.
        - M not simple: a parallel class P with |P| >= 2 is a cyclic flat
          of rank 1, so lambda(P) <= 1.  E-P is not empty, as r >= 2, and
          not one element x, or lambda(P) = 1 + 1 - r <= 0.
        - M simple: F = cl(X) has lambda(F) <= lambda(X), as r(F) = r(X)
          and E-F lies in Y.  F = E would give lambda(X) = r(Y) >= 2, since
          two elements of a simple matroid have rank 2.  E-F = {y} would
          give lambda(F) = 0.  So |E-F| >= 2.  Drop the coloops C of M|F:
          Z = F-C is a cyclic flat (an element of C in cl(Z) would not be
          a coloop of M|F), r(Z) = r(F) - |C| and r(E-Z) <= r(E-F) + |C|,
          so lambda(Z) <= lambda(F).  A nonempty Z holds a circuit, of at
          least 3 elements in a simple matroid, so Z fits.  If Z is empty,
          F is independent; as (E-F, F) is a 2-separation too, the same
          step on G = cl(E-F) gives a Z that fits, or an independent G.
          Then F and G cover E, and r(F) + r(G) = r(F) + r(E-F) <= r + 1
          gives n <= |F| + |G| <= r + 1: r* <= 1, which is excluded.

        r(Z) is read off ``_lattice``, r(E-Z) is a greedy walk over the
        basis columns.
        """
        if not self.is_connected():
            return False
        n, r = len(self.ground), self.rank_value
        if n >= 4 and not 2 <= r <= n - 2:
            return False
        full = self.ground.full_mask
        # connected, so loopless once n >= 2: 𝓛 holds the cyclic flats
        return not any(
            2 <= z.bit_count() <= n - 2 and rank + self._rank_mask(full ^ z) <= r + 1
            for z, rank in self._lattice().items()
        )

    # -- parallel structure -------------------------------------------------

    def _rank_one_classes(self, dual: bool) -> tuple[ElementSubset, ...]:
        """The partition of E into the rank-1 members of 𝓛 (of 𝓛* with
        ``dual``) and singletons, ordered by first element.  In a loopless
        matroid a rank-1 flat is the closure of any element of it, so the
        parallel classes of two or more elements, which are cyclic, are
        exactly the rank-1 cyclic flats; the singletons are the elements
        parallel to no other.  Dually for a coloopless M and 𝓛*."""
        classes = [z for z, rank in self._lattice(dual).items() if rank == 1]
        covered = 0
        for c in classes:
            covered |= c
        classes += [1 << i for i in _bit_indices(self.ground.full_mask ^ covered)]
        classes.sort(key=lambda m: (m & -m).bit_length())
        return tuple(ElementSubset(self.ground, c) for c in classes)

    def _refuse_loops(self) -> None:
        """Raise ``LoopPresent`` naming the first loop, if there is one."""
        loops = self.loops()
        if loops:
            raise LoopPresent(next(iter(loops)))

    def _refuse_coloops(self) -> None:
        """Raise ``ColoopPresent`` naming the first coloop, if there is one."""
        coloops = self.coloops()
        if coloops:
            raise ColoopPresent(next(iter(coloops)))

    def parallel_closures(self) -> tuple[ElementSubset, ...]:
        """The partition of E into maximal rank-1 classes, read off
        ``_lattice``, so capped at MAX_SCAN_SIZE elements like every
        exhaustive scan.  Needs a loopless matroid."""
        self._refuse_loops()
        return self._rank_one_classes(dual=False)

    def coparallel_closures(self) -> tuple[ElementSubset, ...]:
        """Parallel closures of the dual, read off ``_lattice(dual=True)``,
        so capped at MAX_SCAN_SIZE elements.  Needs a coloopless matroid."""
        self._refuse_coloops()
        return self._rank_one_classes(dual=True)

    def is_simple(self) -> bool:
        """No loops and no two distinct parallel elements.  Reads
        ``parallel_closures``, so a loopless M is capped at MAX_SCAN_SIZE
        elements."""
        return not self.loops() and len(self.parallel_closures()) == len(self.ground)

    def is_cosimple(self) -> bool:
        """No coloops and no two distinct coparallel elements.  Reads
        ``coparallel_closures``, so a coloopless M is capped at
        MAX_SCAN_SIZE elements."""
        return not self.coloops() and len(self.coparallel_closures()) == len(self.ground)


def _absent_and_common(masks: Iterable[int], full: int) -> tuple[int, int]:
    """The bits of ``full`` set in no mask, and those set in every mask."""
    used, common = 0, full
    for b in masks:
        used |= b
        common &= b
    return full & ~used, common


def r_subsets(n: int, r: int) -> list[int]:
    """Masks of the r-subsets of n elements, in increasing order.

    Pascal's recurrence over the elements: after element i, level k holds
    the k-subsets of elements 0..i in increasing order, which are those
    of 0..i-1 followed by those with i added to a (k-1)-subset, each
    larger than every set without i.  A level is freed once too few
    elements remain for it to reach r.
    """
    if not 0 <= r <= n:
        return []
    levels: list[list[int]] = [[0]] + [[] for _ in range(r)]
    for i in range(n):
        bit = 1 << i
        # the lowest level that can still reach r from the n-1-i elements left
        low = r - (n - 1 - i)
        for k in range(min(i + 1, r), max(low, 1) - 1, -1):
            levels[k] += [x | bit for x in levels[k - 1]]
        if low > 0:
            levels[low - 1] = []
    return levels[r]


def subsets_by_size(ground: GroundSet, smallest: int = 0, largest: int | None = None) -> Iterator[int]:
    """Masks of all subsets of the ground set, by increasing cardinality
    and lexicographic index order within each cardinality."""
    n = len(ground)
    if largest is None:
        largest = n
    bits = [1 << i for i in range(n)]
    for k in range(smallest, largest + 1):
        yield from map(sum, combinations(bits, k))
