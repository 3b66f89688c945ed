"""OEIS b-file interchange: one "index value" pair per ASCII line.

The writer emits exactly that (no header, newline-terminated).  The reader
additionally tolerates blank lines and '#' comments, which appear in files
downloaded from the OEIS, but rejects gaps or reordering in the index
column.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence


class BFileParseError(ValueError):
    """Malformed b-file; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class BFile(namedtuple("BFile", "entries")):
    """Parsed b-file: contiguous (index, value) pairs."""

    __slots__ = ()

    @property
    def first_index(self) -> int:
        return self.entries[0][0]

    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.entries)


def parse_bfile(text: str) -> BFile:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileParseError(lineno, f"expected 'index value', got {raw!r}")
        try:
            idx, val = int(fields[0]), int(fields[1])
        except ValueError:
            raise BFileParseError(lineno, f"non-integer field in {raw!r}") from None
        if idx < 0:
            raise BFileParseError(lineno, f"negative index {idx}")
        if entries and idx != entries[-1][0] + 1:
            raise BFileParseError(
                lineno, f"index gap: {entries[-1][0]} followed by {idx}"
            )
        entries.append((idx, val))
    if not entries:
        raise BFileParseError(1, "no data lines")
    return BFile(tuple(entries))


def format_bfile(values: Sequence[int]) -> str:
    return "".join(f"{n} {v}\n" for n, v in enumerate(values))


def first_discrepancy(bfile: BFile, values: Sequence[int]):
    """First (index, file value, expected value) differing over the overlap.

    ``values[n]`` is the expected value at index n; comparison covers the
    intersection of the file's index range with 0..len(values)-1.
    """
    for idx, val in bfile.entries:
        if idx >= len(values):
            break
        if val != values[idx]:
            return idx, val, values[idx]
    return None
