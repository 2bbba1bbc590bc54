"""Locked subsets and the locked structure of a matroid.

A subset L is locked when it is a proper subset of one component C and,
in M|C, the restriction to L and the dual's restriction to C - L are
both connected and both sides carry rank at least 2 (r(L) >= 2 and the
corank of C - L is >= 2).  For a connected matroid C is the ground set.
``is_locked`` and ``enumerate_locked`` both apply this one predicate.
Locked subsets, together with the parallel and coparallel partitions,
pin down the nontrivial facets of the bases polytope; their count is the
"locked number" of the matroid.

A locked set is a cyclic flat of its component, so both test only the
sets of the lattice of cyclic flats, ``Matroid._lattice``: each cyclic
flat less the loops, which lie in every flat, with its rank.  Both of a
set's sides lie in that lattice or in its dual, so ``Matroid._connected``
reads their connectivity off it, and keeps each answer for ``certify``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ElementSubset, Matroid, MatroidError, NotProperSubset


class NegativeExponent(MatroidError, ValueError):
    """The bounded locked oracle's threshold |E|**k needs k >= 0."""


@dataclass
class LockedStructure:
    """Parallel partition, coparallel partition, locked subsets, and the
    rank of each of those sets (plus the empty set and the ground set)."""

    parallel: tuple[ElementSubset, ...]
    coparallel: tuple[ElementSubset, ...]
    locked: tuple[ElementSubset, ...]
    rho: dict[ElementSubset, int]


@dataclass(frozen=True)
class LockedNumbers:
    """Summary counts used by the uniformity test."""

    ell: int
    rank: int
    parallel_count: int
    coparallel_count: int


@dataclass(frozen=True)
class KLockedVerdict:
    """Outcome of the bounded locked-subset oracle: either the full locked
    structure, or a refusal because more than ``threshold`` locked subsets
    exist (structure is None in that case)."""

    k: int
    threshold: int
    structure: LockedStructure | None

    @property
    def is_no(self) -> bool:
        return self.structure is None


def _locked_in(matroid: Matroid, mask: int) -> bool:
    """The locked predicate for L in the lattice 𝓛 (a loop-free L with
    L ∪ loops a cyclic flat of M), so that L is a cyclic flat of M|C for
    any component C holding it.

    Only cyclic flats can be locked: an element of cl(L)-L is a coloop
    of M*|(C-L), an element of L in no circuit of L is a coloop of M|L,
    and either one disconnects its side.  Both ranks are read off the
    lattice.  C-L is in 𝓛*: it is E-Z less the coloops for the cyclic
    flat Z = L ∪ (E-C) less the coloops, as C, which holds L properly, is
    a component with no loop or coloop.  Rank is additive over
    separators, so r*(C-L), which is |C-L| - r(C) + r(L), is the dual
    rank in M|C.
    """
    comp = next((c.mask for c in matroid.components() if mask & ~c.mask == 0), None)
    if comp is None or mask == comp or matroid._lattice()[mask] < 2:
        return False
    co = comp & ~mask
    if matroid._lattice(dual=True)[co] < 2:
        return False
    return matroid._connected(mask) and matroid._connected(co, dual=True)


def is_locked(matroid: Matroid, subset: ElementSubset) -> bool:
    """Whether a proper nonempty subset is locked."""
    mask = matroid._coerce(subset)
    if mask == 0 or mask == matroid.ground.full_mask:
        raise NotProperSubset("locked subsets are proper and nonempty")
    return mask in matroid._lattice() and _locked_in(matroid, mask)


def enumerate_locked(matroid: Matroid, cap: int | None = None) -> tuple[ElementSubset, ...]:
    """All locked subsets, scanned by increasing cardinality and then
    lexicographic element order, so truncated runs are reproducible:
    the lattice keeps that order, as it takes the same loops out of
    every cyclic flat.

    With ``cap`` given, the scan stops as soon as cap + 1 locked subsets
    have been found (the bounded oracle only needs to know the count
    exceeded its threshold).
    """
    found: list[ElementSubset] = []
    for mask in matroid._lattice():
        if _locked_in(matroid, mask):
            found.append(ElementSubset(matroid.ground, mask))
            if cap is not None and len(found) > cap:
                break
    return tuple(found)


def _structure(matroid: Matroid, locked: tuple[ElementSubset, ...]) -> LockedStructure:
    """The structure around locked sets already found: the parallel and
    coparallel closures, and the rank of each closure and locked set.
    The parallel closures are read off the lattice with their rank, 1,
    as a locked set's rank is; a coparallel closure's is a greedy walk."""
    parallel = matroid.parallel_closures()
    coparallel = matroid.coparallel_closures()
    rho = dict.fromkeys(parallel, 1)
    rho.update((s, matroid._rank_mask(s.mask)) for s in coparallel)
    ranks = matroid._lattice()
    for s in locked:
        rho[s] = ranks[s.mask]
    rho[matroid.ground.empty] = 0
    rho[matroid.ground.full] = matroid.rank_value
    return LockedStructure(parallel, coparallel, locked, rho)


def locked_structure(matroid: Matroid) -> LockedStructure:
    """The full locked structure.  Needs a loopless, coloopless matroid
    (the partitions are undefined otherwise)."""
    return _structure(matroid, enumerate_locked(matroid))


def k_locked_oracle(matroid: Matroid, k: int) -> KLockedVerdict:
    """Bounded oracle: answer No when the locked number exceeds
    n**min(k, n), n = |E|, otherwise hand back the full locked structure:
    at most 2**n - 2 <= n**n proper subsets are locked, so the verdict is
    that of n**k.  The capped enumeration is complete when it stays
    within the threshold, so it runs once."""
    if k < 0:
        raise NegativeExponent(f"k must be nonnegative, got {k}")
    threshold = len(matroid.ground) ** min(k, len(matroid.ground))
    found = enumerate_locked(matroid, cap=threshold)
    if len(found) > threshold:
        return KLockedVerdict(k, threshold, None)
    return KLockedVerdict(k, threshold, _structure(matroid, found))


def locked_number_oracle(matroid: Matroid) -> LockedNumbers:
    """Locked number, rank, and the sizes of the two partitions."""
    structure = locked_structure(matroid)
    return LockedNumbers(
        ell=len(structure.locked),
        rank=matroid.rank_value,
        parallel_count=len(structure.parallel),
        coparallel_count=len(structure.coparallel),
    )
