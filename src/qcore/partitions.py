"""Generating-function-free oracle: enumerate partitions, compute hook
numbers, and count t-cores by exhaustive search.

This side of the system never touches series arithmetic, which is what
makes it a ground truth for the coefficient engines.
"""

from __future__ import annotations

from typing import Iterator, Tuple

DEFAULT_CEILING = 60


class OracleScaleExceeded(RuntimeError):
    """Enumeration was asked for an n above the configured ceiling."""


class Partition:
    """A partition: non-increasing positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError("parts must be positive")
            if i and parts[i - 1] < p:
                raise ValueError("parts must be non-increasing")
        self.parts = parts

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def conjugate(self) -> "Partition":
        """Column counts of the Ferrers-Young diagram (an involution)."""
        parts = self.parts
        if not parts:
            return Partition(())
        cols = [0] * parts[0]
        for p in parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def hook_numbers(self) -> Tuple[Tuple[int, ...], ...]:
        """Hook number of every node, row-major: H(i,j) = l_i + l'_j - i - j + 1."""
        parts = self.parts
        if not parts:
            return ()
        cols = self.conjugate().parts
        return tuple(
            tuple(lam + cols[j] - i - j - 1 for j in range(lam))
            for i, lam in enumerate(parts)
        )

    def is_t_core(self, t: int) -> bool:
        """True iff no hook number is divisible by t."""
        if t < 1:
            raise ValueError("t must be >= 1")
        parts = self.parts
        if not parts:
            return True
        cols = [0] * parts[0]
        for p in parts:
            for j in range(p):
                cols[j] += 1
        for i, lam in enumerate(parts):
            for j in range(lam):
                if (lam + cols[j] - i - j - 1) % t == 0:
                    return False
        return True


def partitions_of(n: int) -> Iterator[Partition]:
    """Every partition of n exactly once, in decreasing lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield Partition(())
        return
    parts = [n]
    while True:
        yield Partition(parts)
        # rightmost part that can still shrink
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        parts[i] -= 1
        cap = parts[i]
        rest = len(parts) - i - 1 + 1  # the ones we dropped, plus the unit shaved off
        del parts[i + 1 :]
        while rest > 0:
            nxt = min(cap, rest)
            parts.append(nxt)
            rest -= nxt


def count_t_cores(n: int, t: int, ceiling: int = DEFAULT_CEILING) -> int:
    """Number of t-core partitions of n, by exhaustive enumeration.

    Refuses to run above ``ceiling`` (p(n) grows fast); callers that hit
    OracleScaleExceeded should skip rather than wait.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if t < 1:
        raise ValueError("t must be >= 1")
    if n > ceiling:
        raise OracleScaleExceeded(f"n={n} exceeds the enumeration ceiling {ceiling}")
    return sum(1 for p in partitions_of(n) if p.is_t_core(t))
