"""Exact arithmetic on truncated formal power series in q.

Coefficients are plain Python integers, so they are arbitrary precision and
nothing is ever rounded.  A series knows its truncation order N and stores
the exact coefficients of q^0 .. q^N.  Truncation discards information; it
never approximates it.

``mul`` and ``div`` import their kernels (``kernels``) at their first call,
so a process that makes no product or quotient never loads them.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator


class NonUnitConstantTerm(ValueError):
    """Inversion or division by a series whose constant term is not +1 or -1."""


class TruncatedSeries:
    """Immutable dense power series with exact integer coefficients.

    ``coeffs[n]`` is the coefficient of q^n for 0 <= n <= order.  Binary
    operations on series of different orders truncate to the smaller order.
    Reading an index below 0 returns 0 (the usual convention for sequences
    extended to negative arguments); reading beyond the truncation order
    raises IndexError, because those coefficients were discarded, not zero.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[int], order: int | None = None):
        coeffs = tuple(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient sequence needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs = coeffs + (0,) * (order + 1 - len(coeffs))
        elif len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        self.order = order
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0,) * (order + 1), order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,) + (0,) * order, order)

    @classmethod
    def monomial(cls, order: int, coeff: int = 1, exponent: int = 0) -> "TruncatedSeries":
        """The series coeff * q^exponent at the given truncation order."""
        if exponent < 0:
            raise ValueError("negative exponents are not representable")
        c = [0] * (order + 1)
        if exponent <= order:
            c[exponent] = coeff
        return cls(c, order)

    # -- basic protocol ------------------------------------------------

    def __getitem__(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.order:
            raise IndexError(f"coefficient of q^{n} lies beyond truncation order {self.order}")
        return self.coeffs[n]

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if c:
                if n == 0:
                    terms.append(str(c))
                else:
                    mag = "" if abs(c) == 1 else str(abs(c))
                    s = "-" if c < 0 else ("+" if terms else "")
                    terms.append(f"{s}{mag}q^{n}" if n > 1 else f"{s}{mag}q")
            if len(terms) >= 8:
                terms.append("...")
                break
        body = " ".join(terms) if terms else "0"
        return f"TruncatedSeries({body}; order={self.order})"

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients above ``order`` (which must not exceed self.order)."""
        if order > self.order:
            raise ValueError("cannot extend a series beyond its truncation order")
        if order == self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1], order)

    # -- ring operations -----------------------------------------------

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        # each coeffs tuple holds order + 1 slots: map stops at the smaller order
        return TruncatedSeries(list(map(operator.add, self.coeffs, other.coeffs)),
                               min(self.order, other.order))

    def scale(self, k: int) -> "TruncatedSeries":
        if k == 1:
            return self
        return TruncatedSeries([k * c for c in self.coeffs], self.order)

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact product, truncated to the smaller order (``kernels._product``).

        A square, ``x.mul(x)``, packs its operand once.
        """
        from .kernels import _product

        order = min(self.order, other.order)
        a = self.coeffs[: order + 1]
        b = a if other is self else other.coeffs[: order + 1]
        return TruncatedSeries(_product(a, b, order), order)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse: 1 divided by this series."""
        return TruncatedSeries.one(self.order).div(self)

    def div(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact long division; ``other`` must have unit constant term.

        The quotient solves b_0 out_n = a_n - sum_{k>=1} b_k out_{n-k}
        (``kernels._divide``).  A divisor in q^P, P > 1, dissects the
        quotient as a factor's period dissects a product (``_dissect``):
        each residue class r mod P of the numerator runs its own recurrence
        over ``b[::P]``, P times shorter, and an empty class runs none.
        """
        from .kernels import _dissect, _divide, _period

        b = other.coeffs
        b0 = b[0]
        if b0 not in (1, -1):
            raise NonUnitConstantTerm(f"constant term is {b0}, need +1 or -1")
        order = min(self.order, other.order)
        a = self.coeffs[: order + 1]
        b = b[: order + 1]
        period = _period(b, len(b) - b.count(0))
        out = _dissect(a, b, period, order, _divide) if period > 1 else _divide(a, b, order)
        return TruncatedSeries(out, order)

    def pow(self, k: int) -> "TruncatedSeries":
        """k-th power by binary powering (k >= 0): square, and multiply by
        this series at each 1 bit of k below the leading one.

        Every product goes through ``mul``, so a series in q^g is raised
        through products dissected by g and the squarings pack their
        operand once.
        """
        if k < 0:
            raise ValueError("negative powers: use invert() then pow()")
        if k == 0:
            return TruncatedSeries.one(self.order)
        result = self
        for bit in bin(k)[3:]:
            result = result.mul(result)
            if bit == "1":
                result = result.mul(self)
        return result

    # -- substitutions and index surgery --------------------------------

    def inflate(self, m: int, order: int | None = None) -> "TruncatedSeries":
        """Substitute q -> q^m.

        The result is exact up to self.order*m + m - 1 (the slots between
        multiples of m are genuinely zero); by default the result order is
        self.order*m, and an explicit ``order`` may request anything up to
        the exact limit.
        """
        if m < 1:
            raise ValueError("inflation step must be >= 1")
        natural = self.order * m
        if order is None:
            order = natural
        elif order > natural + m - 1:
            raise ValueError("requested order exceeds what the source determines exactly")
        if m == 1 and order == self.order:
            return self
        out = [0] * (order + 1)
        out[::m] = self.coeffs[: order // m + 1]
        return TruncatedSeries(out, order)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by q^k; order is preserved, the top k coefficients fall off."""
        if k < 0:
            raise ValueError("shift distance must be >= 0")
        if k == 0:
            return self
        out = (0,) * min(k, self.order + 1) + self.coeffs[: self.order + 1 - k]
        return TruncatedSeries(out, self.order)

    def alternate(self) -> "TruncatedSeries":
        """Substitute q -> -q: negate the odd-index coefficients."""
        coeffs = list(self.coeffs)
        coeffs[1::2] = [-c for c in coeffs[1::2]]
        return TruncatedSeries(coeffs, self.order)

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.add(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.mul(other)
        return NotImplemented


def first_mismatch(
    a: TruncatedSeries, b: TruncatedSeries, modulus: int = 0
) -> tuple[int, int, int] | None:
    """The smallest n up to the shared order where a[n] and b[n] differ, as
    (n, a[n], b[n]), or None; with a modulus m > 0, where a[n] - b[n] is not
    a multiple of m."""
    ca, cb = a.coeffs, b.coeffs
    if ca == cb:
        return None
    for n, (x, y) in enumerate(zip(ca, cb)):
        if x != y and (not modulus or (x - y) % modulus):
            return n, x, y
    return None
