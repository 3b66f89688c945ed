"""m-dissection mechanics.

A dissection splits a series into its m residue-class subseries, each
re-indexed by q^m -> q; the split is lossless and the reassembly identity
is part of the type's contract.
"""

from __future__ import annotations

from collections import namedtuple

from .series import TruncatedSeries


class Dissection(namedtuple("Dissection", "modulus components")):
    """The m residue-class components of a series, re-indexed to q^n."""

    __slots__ = ()

    def reassemble(self, order: int) -> TruncatedSeries:
        """Sum of q^r * components[r](q^m); inverse of dissect up to order."""
        m = self.modulus
        out = [0] * (order + 1)
        for r, comp in enumerate(self.components):
            count = len(range(r, order + 1, m))
            if comp.order + 1 < count:
                raise ValueError(f"component {r} too short to reassemble at order {order}")
            out[r::m] = comp.coeffs[:count]
        return TruncatedSeries(out, order)


def dissect(a: TruncatedSeries, m: int) -> Dissection:
    """Split ``a`` by exponent residue mod m; requires a.order >= m - 1."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if a.order < m - 1:
        raise ValueError("series order too small for every residue class")
    return Dissection(m, tuple(TruncatedSeries(a.coeffs[r::m], (a.order - r) // m)
                              for r in range(m)))
