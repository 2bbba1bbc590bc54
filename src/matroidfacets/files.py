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

``MatroidFile`` stores a listing one way: its section and one mask per
listed row, in file order.  ``to_matroid`` and ``basis_count`` read the
masks, and ``bases``/``nonbases`` render label rows from them on demand,
each row in ground order.  ``to_matroid`` then refuses a nonbasis row of
the wrong size (``ParseError``), rebuilds the basis family and validates
it against the exchange axiom (``ExchangeAxiomViolated``), so a
corrupted file fails on load rather than poisoning later computations,
and last refuses a basis size other than the declared rank
(``ParseError``).  A ``MatroidFile`` built by hand is given masks (say
``GroundSet.subset(row).mask``): a section other than ``bases`` or
``nonbases`` raises ``ValueError``, and a mask with a bit outside the
labels ``ForeignElement``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse, islice
from math import comb
from pathlib import Path

from .core import (
    ForeignElement,
    GroundSet,
    Matroid,
    MatroidError,
    _bit_indices,
    r_subsets,
    subsets_by_size,
)


class ParseError(MatroidError):
    """Malformed matroid file."""


@dataclass(frozen=True)
class MatroidFile:
    """Parsed file contents: the listed ``section``, ``bases`` or
    ``nonbases``, and its rows as bitmasks over ``labels``, in file
    order.  The listed section's label rows are read off the masks by
    the property of its name; the other property is None."""

    name: str
    labels: tuple[str, ...]
    rank: int
    section: str
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.section not in ("bases", "nonbases"):
            raise ValueError("section must be bases or nonbases")
        outside = -1 << len(self.labels)  # every bit past the last label
        if any(map(outside.__and__, self.masks)):
            raise ForeignElement("mask has bits outside the ground set")

    @property
    def bases(self) -> tuple[tuple[str, ...], ...] | None:
        return self._rows() if self.section == "bases" else None

    @property
    def nonbases(self) -> tuple[tuple[str, ...], ...] | None:
        return self._rows() if self.section == "nonbases" else None

    def _rows(self) -> tuple[tuple[str, ...], ...]:
        return tuple(_row(self.labels, mask) for mask in self.masks)

    def to_matroid(self) -> Matroid:
        ground = GroundSet(self.labels)
        masks = self.masks
        if self.section == "nonbases":
            for mask in masks:
                if mask.bit_count() != self.rank:
                    row = " ".join(sorted(_row(self.labels, mask)))
                    raise ParseError(f"nonbasis {{{row}}} does not have rank cardinality")
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
        return distinct if self.section == "bases" else comb(len(self.labels), self.rank) - distinct

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
        if encoding == "bases":
            masks = matroid._basis_masks
        elif not missing:
            masks = ()  # uniform: nothing to list, no set to build
        else:
            # the scan stops at the last nonbasis, in subsets_by_size order
            is_basis = set(matroid._basis_masks).__contains__
            masks = tuple(islice(filterfalse(is_basis, subsets_by_size(matroid.ground, r, r)), missing))
        return cls(name, labels, r, encoding, masks)


def _row(labels: tuple[str, ...], mask: int) -> tuple[str, ...]:
    """The labels of a mask's bits, in ground order."""
    return tuple(map(labels.__getitem__, _bit_indices(mask)))


def dumps(mf: MatroidFile) -> str:
    if any(lab.startswith("#") for lab in mf.labels):
        raise ValueError("element labels may not start with '#': rows would read as comments")
    lines = [
        f"name {mf.name}",
        f"elements {' '.join(mf.labels)}",
        f"rank {mf.rank}",
    ]
    lines.append(f"{mf.section}:")
    lines += (" ".join(_row(mf.labels, mask)) for mask in mf.masks)
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
        masks.append(mask)
    if section == "bases" and not masks:
        if rank:
            raise ParseError("a bases section needs at least one basis")
        masks = [0]  # the empty basis, written as a blank line
    return MatroidFile(name, labels, rank, section, tuple(masks))


def write(path: str | Path, mf: MatroidFile) -> None:
    Path(path).write_text(dumps(mf))


def save(path: str | Path, matroid: Matroid, name: str, encoding: str = "auto") -> None:
    write(path, MatroidFile.from_matroid(matroid, name, encoding))


def load(path: str | Path) -> tuple[Matroid, MatroidFile]:
    mf = loads(Path(path).read_text())
    return mf.to_matroid(), mf
