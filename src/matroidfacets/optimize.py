"""Maximum-weight basis: the matroid greedy algorithm and its brute-force
oracle, plus the rank and independence reductions built on greedy.

Weights are exact rationals.  The greedy scan visits every element in
decreasing weight order (ties broken toward a preferred subset, then by
element index) and accepts an element iff some basis holds it and the set
built so far, one AND of basis columns; as a matroid's bases all have one
size, the scan always ends on a basis, negative weights included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .core import DimensionMismatch, ElementSubset, GroundSet, Matroid


@dataclass(frozen=True)
class WeightFunction:
    """Rational weights, one per ground-set element, in ground order."""

    ground: GroundSet
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != len(self.ground):
            raise DimensionMismatch("one weight per element required")

    @classmethod
    def from_values(cls, ground: GroundSet, values: Iterable) -> "WeightFunction":
        # a Fraction is immutable, so one is kept, not copied
        return cls(ground, tuple(v if type(v) is Fraction else Fraction(v) for v in values))

    @classmethod
    def from_mapping(cls, ground: GroundSet, mapping: Mapping[str, object]) -> "WeightFunction":
        return cls(ground, tuple(Fraction(mapping[lab]) for lab in ground.labels))

    @classmethod
    def characteristic(cls, subset: ElementSubset) -> "WeightFunction":
        ground = subset.ground
        return cls(
            ground,
            tuple(Fraction(1 if subset.mask >> i & 1 else 0) for i in range(len(ground))),
        )

    def common_denominator(self) -> tuple[tuple[int, ...], int]:
        """Integer numerators over one shared denominator (fast exact dots)."""
        den = lcm(*(v.denominator for v in self.values)) if self.values else 1
        nums = tuple(v.numerator * (den // v.denominator) for v in self.values)
        return nums, den

    def dot_mask(self, mask: int) -> Fraction:
        total = Fraction(0)
        for i, v in enumerate(self.values):
            if mask >> i & 1:
                total += v
        return total

    def of(self, subset: ElementSubset) -> Fraction:
        if subset.ground != self.ground:
            raise DimensionMismatch("subset built over a different ground set")
        return self.dot_mask(subset.mask)


@dataclass(frozen=True)
class TraceStep:
    label: str
    weight: Fraction
    accepted: bool


@dataclass(frozen=True)
class OptimizationResult:
    basis: ElementSubset
    value: Fraction
    trace: tuple[TraceStep, ...]


def greedy_max_basis(
    matroid: Matroid, weights: WeightFunction, prefer: ElementSubset | None = None
) -> OptimizationResult:
    """Matroid greedy: scan by (weight desc, preferred-membership desc,
    index asc), accept whenever some basis still holds the current set.
    Exact and optimal for any rational weights."""
    if weights.ground != matroid.ground:
        raise DimensionMismatch("weights built over a different ground set")
    prefer_mask = matroid._coerce(prefer) if prefer is not None else 0
    nums, den = weights.common_denominator()
    order = sorted(range(len(nums)), key=lambda i: (-nums[i], not prefer_mask >> i & 1, i))
    columns = matroid._basis_columns
    alive = (1 << matroid.basis_count()) - 1  # the bases holding the set, by index
    current = total = 0
    trace = []
    for i in order:
        holding = alive & columns[i]
        if holding:
            alive = holding
            current |= 1 << i
            total += nums[i]
        trace.append(TraceStep(matroid.ground.labels[i], weights.values[i], holding != 0))
    return OptimizationResult(
        ElementSubset(matroid.ground, current), Fraction(total, den), tuple(trace)
    )


def brute_force_max_basis(matroid: Matroid, weights: WeightFunction) -> OptimizationResult:
    """Exhaustive oracle over the basis family.  Ties break to the
    lexicographically smallest basis (by sorted element indices)."""
    if weights.ground != matroid.ground:
        raise DimensionMismatch("weights built over a different ground set")
    nums, den = weights.common_denominator()
    best_mask = None
    best_num = None
    best_key = None
    for b in matroid._basis_masks:
        total = 0
        m = b
        while m:
            low = m & -m
            total += nums[low.bit_length() - 1]
            m ^= low
        if best_num is None or total > best_num:
            best_mask, best_num = b, total
            best_key = ElementSubset(matroid.ground, b).indices()
        elif total == best_num:
            key = ElementSubset(matroid.ground, b).indices()
            if key < best_key:
                best_mask, best_key = b, key
    basis = ElementSubset(matroid.ground, best_mask)
    return OptimizationResult(basis, Fraction(best_num, den), ())


def rank_via_optimization(matroid: Matroid, subset: ElementSubset) -> int:
    """Rank of a subset as a greedy optimization: maximize the subset's
    characteristic weights over the bases; the optimum equals the rank."""
    weights = WeightFunction.characteristic(subset)
    result = greedy_max_basis(matroid, weights, prefer=subset)
    assert result.value.denominator == 1
    return int(result.value)


def independent_via_optimization(matroid: Matroid, subset: ElementSubset) -> bool:
    """Independence of a subset via greedy: with characteristic weights
    and the subset preferred in ties, the subset is independent iff it
    lands inside the optimal basis."""
    weights = WeightFunction.characteristic(subset)
    result = greedy_max_basis(matroid, weights, prefer=subset)
    return subset <= result.basis
