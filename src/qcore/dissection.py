"""m-dissection mechanics.

A dissection splits a series into its m residue-class subseries, each
re-indexed by q^m -> q; the split is lossless and the reassembly identity
is part of the type's contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .series import TruncatedSeries


@dataclass(frozen=True)
class Dissection:
    """The m residue-class components of a series, re-indexed to q^n."""

    modulus: int
    components: Tuple[TruncatedSeries, ...]

    def reassemble(self, order: int) -> TruncatedSeries:
        """Sum of q^r * components[r](q^m); inverse of dissect up to order."""
        m = self.modulus
        out = [0] * (order + 1)
        for r, comp in enumerate(self.components):
            if m * comp.order + r + m <= order:
                raise ValueError(f"component {r} too short to reassemble at order {order}")
            for n, c in enumerate(comp.coeffs):
                idx = m * n + r
                if idx > order:
                    break
                out[idx] = c
        return TruncatedSeries(out, order)


def dissect(a: TruncatedSeries, m: int) -> Dissection:
    """Split ``a`` by exponent residue mod m; requires a.order >= m - 1."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if a.order < m - 1:
        raise ValueError("series order too small for every residue class")
    return Dissection(m, tuple(a.extract_ap(m, r) for r in range(m)))
