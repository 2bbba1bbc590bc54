"""Flat-file matroid format.

A matroid file is line-oriented text.  Blank lines and lines starting
with ``#`` are ignored, so no element label may start with ``#``: a row
starting with it would be skipped.  Header lines come first, each of
``name``, ``elements`` and ``rank`` exactly once, then exactly one set
section running to the end of the file::

    name MK4
    elements ab ac ad bc bd cd
    rank 3
    nonbases:
    ab ac bc
    ab ad bd
    ac ad cd
    bc bd cd

The section is ``bases:`` (one basis per line) or ``nonbases:`` (the
r-subsets that are NOT bases; an empty section encodes a uniform
matroid).  Labels are whitespace-separated; under ``rank 0`` an empty
``bases:`` section is the one empty basis.

``loads`` reads the file once, line by line, and raises ``ParseError``
at the first fault:

- on a header line: an unknown or repeated header, an empty name or
  element list, a repeated label or one starting with ``#``, or a rank
  that is not ASCII decimal digits or is negative;
- at the section line, or at the end of a file with none: a missing
  header (name, then elements, then rank), then the missing section,
  then a rank above the number of elements;
- on each row, in file order: the row's mask is the sum of its labels'
  bits, made as the row is split.  A label with no bit is an unknown
  element, named where it first sits in the row; a mask with fewer bits
  than the row has labels is a repeated element.  A row is checked
  whole before the next is read;
- after the rows: an empty ``bases:`` section under a rank above 0.

``MatroidFile`` keeps the label rows and their masks side by side, so
``to_matroid`` and ``basis_count`` read masks and map no label again.
``to_matroid`` then refuses a nonbasis row of the wrong size
(``ParseError``), rebuilds the basis family and validates it against
the exchange axiom (``ExchangeAxiomViolated``), so a corrupted file
fails on load rather than poisoning later computations, and last
refuses a basis size other than the declared rank (``ParseError``).
A ``MatroidFile`` built by hand gets its masks from its rows when it
is built: an unknown label raises ``ForeignElement``, and a repeated
one counts once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import filterfalse, islice
from math import comb
from operator import or_
from pathlib import Path

from .core import (
    ElementSubset,
    ForeignElement,
    GroundSet,
    Matroid,
    MatroidError,
    r_subsets,
    subsets_by_size,
)


class ParseError(MatroidError):
    """Malformed matroid file."""


@dataclass(frozen=True)
class MatroidFile:
    """Parsed file contents: exactly one of ``bases``/``nonbases`` is
    None (a ``ValueError`` when built otherwise).  ``masks`` holds the
    listed rows as bitmasks over ``labels``, row for row; left out, it
    is read from the rows when the file is built."""

    name: str
    labels: tuple[str, ...]
    rank: int
    bases: tuple[tuple[str, ...], ...] | None
    nonbases: tuple[tuple[str, ...], ...] | None
    masks: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.bases is None) == (self.nonbases is None):
            raise ValueError("exactly one of bases/nonbases must be present")
        if self.masks is None:
            bit = {lab: 1 << i for i, lab in enumerate(self.labels)}
            rows = self.bases if self.bases is not None else self.nonbases
            try:
                masks = tuple(reduce(or_, map(bit.__getitem__, row), 0) for row in rows)
            except KeyError as err:
                raise ForeignElement(f"label {err.args[0]!r} is not in the ground set") from None
            object.__setattr__(self, "masks", masks)

    def to_matroid(self) -> Matroid:
        ground = GroundSet(self.labels)
        masks = self.masks
        if self.bases is None:
            for nb, mask in zip(self.nonbases, masks):
                if mask.bit_count() != self.rank:
                    raise ParseError(
                        f"nonbasis {{{' '.join(sorted(set(nb)))}}} does not have rank cardinality"
                    )
            masks = filterfalse(set(masks).__contains__, r_subsets(len(ground), self.rank))
        matroid = Matroid._from_masks(ground, masks)
        matroid.validate()
        if matroid.rank_value != self.rank:
            raise ParseError(f"declared rank {self.rank} != basis size {matroid.rank_value}")
        return matroid

    def basis_count(self) -> int:
        """|B| read off the listing, with nothing expanded: its distinct
        rows, or C(n, r) less them for a ``nonbases`` listing."""
        distinct = len(set(self.masks))
        return distinct if self.bases is not None else comb(len(self.labels), self.rank) - distinct

    @classmethod
    def from_matroid(cls, matroid: Matroid, name: str, encoding: str = "auto") -> "MatroidFile":
        """Encode a matroid.  ``auto`` picks the shorter of the two set
        listings."""
        if encoding not in ("auto", "bases", "nonbases"):
            raise ValueError("encoding must be auto, bases, or nonbases")
        labels = matroid.ground.labels
        r = matroid.rank_value
        count = matroid.basis_count()
        missing = comb(len(labels), r) - count
        if encoding == "auto":
            encoding = "nonbases" if missing < count else "bases"
        bases = nonbases = None
        if encoding == "bases":
            masks = matroid._basis_masks
            bases = tuple(b.labels() for b in matroid.bases)
        elif not missing:
            masks = nonbases = ()  # uniform: nothing to list, no set to build
        else:
            # the scan stops at the last nonbasis, in subsets_by_size order
            ground = matroid.ground
            is_basis = set(matroid._basis_masks).__contains__
            masks = tuple(islice(filterfalse(is_basis, subsets_by_size(ground, r, r)), missing))
            nonbases = tuple(ElementSubset(ground, m).labels() for m in masks)
        return cls(name, labels, r, bases, nonbases, masks)


def dumps(mf: MatroidFile) -> str:
    if any(lab.startswith("#") for lab in mf.labels):
        raise ValueError("element labels may not start with '#': rows would read as comments")
    lines = [
        f"name {mf.name}",
        f"elements {' '.join(mf.labels)}",
        f"rank {mf.rank}",
    ]
    section = "bases" if mf.bases is not None else "nonbases"
    lines.append(f"{section}:")
    for row in mf.bases if mf.bases is not None else mf.nonbases:
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def loads(text: str) -> MatroidFile:
    name = None
    labels = None
    rank = None
    section = None
    seen: set[str] = set()
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("bases:", "nonbases:"):
            section = line[:-1]
            break
        parts = line.split(None, 1)
        key = parts[0]
        value = parts[1] if len(parts) == 2 else ""
        if key in seen:
            raise ParseError(f"line {lineno}: repeated header {key!r}")
        seen.add(key)
        if key == "name":
            if not value:
                raise ParseError(f"line {lineno}: empty name")
            name = value
        elif key == "elements":
            labels = tuple(value.split())
            if not labels:
                raise ParseError(f"line {lineno}: empty element list")
            if len(set(labels)) != len(labels):
                raise ParseError(f"line {lineno}: duplicate element labels")
            if any(lab.startswith("#") for lab in labels):
                raise ParseError(f"line {lineno}: element labels may not start with '#'")
        elif key == "rank":
            digits = value.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise ParseError(f"line {lineno}: rank must be an integer")
            rank = int(value)
            if rank < 0:
                raise ParseError(f"line {lineno}: rank must be nonnegative")
        else:
            raise ParseError(f"line {lineno}: unknown header {key!r}")
    if name is None:
        raise ParseError("missing header: name")
    if labels is None:
        raise ParseError("missing header: elements")
    if rank is None:
        raise ParseError("missing header: rank")
    if section is None:
        raise ParseError("missing section: bases: or nonbases:")
    if rank > len(labels):
        raise ParseError(f"rank {rank} exceeds the {len(labels)} elements")
    bit = {lab: 1 << i for i, lab in enumerate(labels)}.__getitem__
    rows: list[tuple[str, ...]] = []
    masks: list[int] = []
    for row in map(str.split, islice(lines, lineno, None)):
        if not row or row[0][0] == "#":
            continue
        try:
            mask = sum(map(bit, row))
        except KeyError as err:
            raise ParseError(f"unknown element {err.args[0]!r} in {section} section") from None
        # distinct bits add without a carry; a repeated one carries
        if mask.bit_count() != len(row):
            raise ParseError(f"repeated element in set: {' '.join(row)}")
        rows.append(tuple(row))
        masks.append(mask)
    if section == "bases" and not rows:
        if rank:
            raise ParseError("a bases section needs at least one basis")
        rows, masks = [()], [0]  # the empty basis, written as a blank line
    return MatroidFile(
        name,
        labels,
        rank,
        tuple(rows) if section == "bases" else None,
        tuple(rows) if section == "nonbases" else None,
        tuple(masks),
    )


def write(path: str | Path, mf: MatroidFile) -> None:
    Path(path).write_text(dumps(mf))


def save(path: str | Path, matroid: Matroid, name: str, encoding: str = "auto") -> None:
    write(path, MatroidFile.from_matroid(matroid, name, encoding))


def load(path: str | Path) -> tuple[Matroid, MatroidFile]:
    mf = loads(Path(path).read_text())
    return mf.to_matroid(), mf
