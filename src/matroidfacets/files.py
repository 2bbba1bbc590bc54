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
``bases:`` section is the one empty basis.  Loading rebuilds the basis
family and always validates it against the exchange axiom, so a
corrupted file fails on load rather than poisoning later computations.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Parsed file contents: one of ``bases``/``nonbases`` is None."""

    name: str
    labels: tuple[str, ...]
    rank: int
    bases: tuple[tuple[str, ...], ...] | None
    nonbases: tuple[tuple[str, ...], ...] | None

    def to_matroid(self) -> Matroid:
        ground = GroundSet(self.labels)
        rows = self.bases if self.bases is not None else self.nonbases
        bit = {lab: 1 << i for lab, i in ground.index.items()}
        try:
            masks = [reduce(or_, map(bit.__getitem__, row), 0) for row in rows]
        except KeyError as err:
            raise ForeignElement(f"label {err.args[0]!r} is not in the ground set") from None
        if self.bases is None:
            for nb, mask in zip(rows, masks):
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
        distinct = len(set(map(frozenset, self.bases if self.bases is not None else self.nonbases)))
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
            bases = tuple(b.labels() for b in matroid.bases)
        elif not missing:
            nonbases = ()  # uniform: nothing to list, no set to build
        else:
            # the scan stops at the last nonbasis, in subsets_by_size order
            ground = matroid.ground
            is_basis = set(matroid._basis_masks).__contains__
            found = islice(filterfalse(is_basis, subsets_by_size(ground, r, r)), missing)
            nonbases = tuple(ElementSubset(ground, m).labels() for m in found)
        return cls(name=name, labels=labels, rank=r, bases=bases, nonbases=nonbases)


def dumps(mf: MatroidFile) -> str:
    if any(lab.startswith("#") for lab in mf.labels):
        raise ValueError("element labels may not start with '#': rows would read as comments")
    lines = [
        f"name {mf.name}",
        f"elements {' '.join(mf.labels)}",
        f"rank {mf.rank}",
    ]
    if (mf.bases is None) == (mf.nonbases is None):
        raise ValueError("exactly one of bases/nonbases must be present")
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
    rows: list[tuple[str, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if section is not None:
            rows.append(tuple(line.split()))
            continue
        if line in ("bases:", "nonbases:"):
            section = line[:-1]
            continue
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
            try:
                rank = int(value)
            except ValueError:
                raise ParseError(f"line {lineno}: rank must be an integer") from None
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
    known = set(labels)
    for row in rows:
        if not known.issuperset(row):
            lab = next(lab for lab in row if lab not in known)
            raise ParseError(f"unknown element {lab!r} in {section} section")
        if len(set(row)) != len(row):
            raise ParseError(f"repeated element in set: {' '.join(row)}")
    if section == "bases" and not rows:
        if rank:
            raise ParseError("a bases section needs at least one basis")
        rows = [()]  # the empty basis, written as a blank line
    return MatroidFile(
        name=name,
        labels=labels,
        rank=rank,
        bases=tuple(rows) if section == "bases" else None,
        nonbases=tuple(rows) if section == "nonbases" else None,
    )


def write(path: str | Path, mf: MatroidFile) -> None:
    Path(path).write_text(dumps(mf))


def save(path: str | Path, matroid: Matroid, name: str, encoding: str = "auto") -> None:
    write(path, MatroidFile.from_matroid(matroid, name, encoding))


def load(path: str | Path) -> tuple[Matroid, MatroidFile]:
    mf = loads(Path(path).read_text())
    return mf.to_matroid(), mf
