"""Generating-function-free oracle: t-cores as lattice vectors, and the
partitions and hook numbers that check what it lists.

Garvan, Kim and Stanton ("Cranks and t-cores", 1990) put the t-cores of n
in bijection with the x in Z^t with sum(x) = 0 and
(t/2)·sum(x_j^2) + sum(j·x_j) = n.  No series arithmetic happens here,
which is what makes it a ground truth for the coefficient engines.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from math import isqrt


class Partition(namedtuple("Partition", "parts")):
    """A partition: a named tuple of its non-increasing positive parts."""

    __slots__ = ()

    def __new__(cls, parts):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError("parts must be positive")
            if i and parts[i - 1] < p:
                raise ValueError("parts must be non-increasing")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        """Column counts of the Ferrers-Young diagram (an involution)."""
        parts = self.parts
        return Partition(sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0))

    def hook_numbers(self) -> tuple[tuple[int, ...], ...]:
        """Hook number of every node, row-major: H(i,j) = l_i + l'_j - i - j + 1."""
        parts, cols = self.parts, self.conjugate().parts
        return tuple(
            tuple(lam + cols[j] - i - j - 1 for j in range(lam))
            for i, lam in enumerate(parts)
        )

    def is_t_core(self, t: int) -> bool:
        """True iff no hook number is divisible by t."""
        if t < 1:
            raise ValueError("t must be >= 1")
        return all(h % t for row in self.hook_numbers() for h in row)


def _core_vectors(n: int, t: int) -> Iterator[list[int]]:
    """The t-cores of n as w_j = 2t·x_j + c_j, c_j = 2j - t + 1: each w with
    w_j = c_j (mod 2t), sum(w) = 0 and sum(w^2) = 8tn + sum(c_j^2) once, in
    one list that the search overwrites.  Depth first over w_0, w_1, ...; a
    branch is cut when the coordinates left cannot reach the remaining sum
    and square sum, by Cauchy-Schwarz or as each |w_k| >= |c_k|.
    """
    if n < 0 or t < 1:
        raise ValueError(f"need n >= 0 and t >= 1, got n={n}, t={t}")
    modulus = 2 * t
    offsets = [2 * j - t + 1 for j in range(t)]
    tail = [sum(c * c for c in offsets[j:]) for j in range(t + 1)]  # least sum of w_k^2, k >= j
    w = [0] * t

    def search(j: int, total: int, squares: int) -> Iterator[list[int]]:
        # w_j..w_{t-1} must sum to -total with square sum ``squares``
        left = t - j
        if left == 0:  # reached only for t = 1
            if squares == 0:
                yield w
            return
        if left == 2:  # the last pair, from a quadratic
            disc = 2 * squares - total * total
            root = isqrt(disc)
            if root * root != disc or (total + root) % 2:
                return
            for v in {(root - total) // 2, (-root - total) // 2}:
                if (v - offsets[j]) % modulus == 0 and (-total - v - offsets[j + 1]) % modulus == 0:
                    w[j], w[j + 1] = v, -total - v
                    yield w
            return
        # (total + v)^2 <= (left - 1)(squares - v^2), solved for v
        spread = isqrt((left - 1) * (left * squares - total * total))
        bound = isqrt(squares - tail[j + 1])
        low = max(-((total + spread) // left), -bound)
        for v in range(low + (offsets[j] - low) % modulus,
                       min((spread - total) // left, bound) + 1, modulus):
            if left == 3:  # the last pair needs a perfect square; test it before the call
                disc = 2 * (squares - v * v) - (total + v) ** 2
                if isqrt(disc) ** 2 != disc:
                    continue
            w[j] = v
            yield from search(j + 1, total + v, squares - v * v)

    return search(0, 0, 8 * t * n + tail[0])


def count_t_cores(n: int, t: int) -> int:
    """Number of t-core partitions of n: the lattice vectors of the bijection."""
    return sum(1 for _ in _core_vectors(n, t))


def t_cores(n: int, t: int) -> list[Partition]:
    """The t-cores of n in decreasing lexicographic order, read off the
    t-runner abacus: runner j holds beads at j + t·k for every k < x_j, and
    the parts are b_i + i over the bead positions b_1 > b_2 > ...
    """
    cores = []
    for w in _core_vectors(n, t):
        x = [(wj - 2 * j + t - 1) // (2 * t) for j, wj in enumerate(w)]
        low = min(x)  # every position below t·low holds a bead
        beads = sorted((j + t * k for j in range(t) for k in range(low, x[j])), reverse=True)
        cores.append(Partition(p for p in (b + i for i, b in enumerate(beads, 1)) if p))
    return sorted(cores, key=lambda p: p.parts, reverse=True)
