"""Uniformity testing from locked-structure counts.

A matroid on n elements with rank r is uniform iff its basis family is
every r-subset.  ``is_uniform_direct`` checks that by counting.
``test_uniformity`` reaches the same verdict from summary numbers alone:
it needs at most one call to the locked-number oracle and decides by the
first matching condition, checked in this order:

  (iv)  r = n                      (the free matroid)
  (v)   r = 0                      (the zero matroid)
  (ii)  one parallel closure       (rank 1, any loopless such matroid)
  (iii) one coparallel closure     (corank 1)
  (i)   no locked subsets and both partitions are all singletons

Conditions (iv) and (v) come first because the free and zero matroids
have no coparallel (resp. parallel) partition to count.  A matroid with
loops or coloops and 0 < r < n cannot be uniform, and neither can a
disconnected one (U_r_n with 0 < r < n is connected); both are reported
not-uniform directly, without consulting the oracle.  The connectivity
screen is needed for correctness, not only speed: the oracle counts
locked subsets component by component, so a direct sum of uniform
matroids such as U_2_4 + U_2_4 would otherwise pass condition (i).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable

from .core import Matroid, MatroidError
from .locked import LockedNumbers, enumerate_locked, locked_number_oracle


class Not3Connected(MatroidError):
    """The uniformity-locked equivalence is asserted only for 3-connected
    matroids."""


@dataclass(frozen=True)
class UniformityVerdict:
    uniform: bool
    witness_condition: str  # "i".."v", or "none"
    inputs_used: LockedNumbers | None
    note: str = ""


def is_uniform_direct(matroid: Matroid) -> bool:
    """Uniform iff the basis family is all r-subsets, checked by count
    (the family is deduplicated and size-checked at construction)."""
    return matroid.basis_count() == comb(len(matroid.ground), matroid.rank_value)


def test_uniformity(
    matroid: Matroid,
    oracle: Callable[[Matroid], LockedNumbers] = locked_number_oracle,
) -> UniformityVerdict:
    """Decide uniformity from at most one locked-number-oracle call."""
    n = len(matroid.ground)
    r = matroid.rank_value
    if r == n:
        return UniformityVerdict(True, "iv", None)
    if r == 0:
        return UniformityVerdict(True, "v", None)
    if matroid.loops() or matroid.coloops():
        return UniformityVerdict(
            False, "none", None,
            note="loops or coloops with 0 < r < n rule uniformity out directly",
        )
    if not matroid.is_connected():
        return UniformityVerdict(
            False, "none", None,
            note="a disconnected matroid with 0 < r < n is not uniform",
        )
    numbers = oracle(matroid)
    if numbers.parallel_count == 1:
        return UniformityVerdict(True, "ii", numbers)
    if numbers.coparallel_count == 1:
        return UniformityVerdict(True, "iii", numbers)
    if numbers.ell == 0 and numbers.parallel_count == n == numbers.coparallel_count:
        return UniformityVerdict(True, "i", numbers)
    return UniformityVerdict(False, "none", numbers)


# the test_ prefix makes pytest try to collect this as a test when it is
# imported into a test module; it is not one
test_uniformity.__test__ = False  # type: ignore[attr-defined]


def uniform_iff_no_locked(matroid: Matroid) -> bool:
    """For a 3-connected matroid, uniformity and the absence of locked
    subsets are equivalent; return whether the two sides agree here."""
    if not matroid.is_3_connected():
        raise Not3Connected("equivalence asserted for 3-connected matroids only")
    return is_uniform_direct(matroid) == (len(enumerate_locked(matroid)) == 0)
