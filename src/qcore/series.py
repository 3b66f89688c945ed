"""Exact arithmetic on truncated formal power series in q.

Coefficients are plain Python integers, so they are arbitrary precision and
nothing is ever rounded.  A series knows its truncation order N and stores
the exact coefficients of q^0 .. q^N.  Truncation discards information; it
never approximates it.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Tuple

# Multiplication strategy: when one factor has at most this many nonzero
# terms, or the order is at most _SMALL_ORDER, convolve over just the
# nonzero terms; otherwise pack both factors into big integers and let
# CPython's integer multiply do the convolution.  The order compared is the
# deflated one: factors in q^g are multiplied as series in q at order // g.
_SPARSE_LIMIT = 64
_SMALL_ORDER = 128


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

    def __init__(self, coeffs: Iterable[int], order: Optional[int] = None):
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

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def nonzero_count(self) -> int:
        return sum(1 for c in self.coeffs if c)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients above ``order`` (which must not exceed self.order)."""
        if order > self.order:
            raise ValueError("cannot extend a series beyond its truncation order")
        if order == self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1], order)

    # -- ring operations -----------------------------------------------

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries([a[i] + b[i] for i in range(order + 1)], order)

    def sub(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries([a[i] - b[i] for i in range(order + 1)], order)

    def scale(self, k: int) -> "TruncatedSeries":
        if k == 1:
            return self
        return TruncatedSeries([k * c for c in self.coeffs], self.order)

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact product, truncated to the smaller order.

        When every nonzero exponent of both factors is a multiple of some
        g > 1, the product is a series in q^g: the kernel multiplies
        ``coeffs[::g]`` at order ``order // g`` and the result is spread
        back over every g-th slot.  The skipped slots are zero, so this is
        exact.
        """
        order = min(self.order, other.order)
        a = self.coeffs[: order + 1]
        b = other.coeffs[: order + 1]
        ia = _support(a)
        ib = _support(b)
        if not ia or not ib:
            return TruncatedSeries.zero(order)
        g = gcd(*ia, *ib)
        sub = order
        if g > 1:
            a, b, sub = a[::g], b[::g], order // g
        if min(len(ia), len(ib)) <= _SPARSE_LIMIT or sub <= _SMALL_ORDER:
            if len(ib) < len(ia):
                a, b = b, a
            out = _convolve_sparse(a, b, sub)
        else:
            out = _convolve_packed(a, b, sub)
        return TruncatedSeries(_spread(out, g, order), order)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse: 1 divided by this series."""
        return TruncatedSeries.one(self.order).div(self)

    def div(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact long division; ``other`` must have unit constant term.

        The quotient solves b_0 out_n = a_n - sum_{k>=1} b_k out_{n-k}.  The
        numerator's nonzero exponents and the denominator's nonzero
        exponents k >= 1 share a gcd g; when g > 1 the recurrence runs on
        every g-th coefficient, as in ``mul``.  The sum over k is gathered
        per distinct coefficient value of b (see ``_divide``).
        """
        b = other.coeffs
        b0 = b[0]
        if b0 not in (1, -1):
            raise NonUnitConstantTerm(f"constant term is {b0}, need +1 or -1")
        order = min(self.order, other.order)
        a = self.coeffs[: order + 1]
        b = b[: order + 1]
        g = gcd(*_support(a), *_support(b)[1:])
        sub = order
        if g > 1:
            a, b, sub = a[::g], b[::g], order // g
        return TruncatedSeries(_spread(_divide(a, b, sub), g, order), order)

    def pow(self, k: int) -> "TruncatedSeries":
        """k-th power by repeated exact multiplication (k >= 0).

        A series in q^g is raised at order N/g, through ``mul``.
        """
        if k < 0:
            raise ValueError("negative powers: use invert() then pow()")
        if k == 0:
            return TruncatedSeries.one(self.order)
        result = self
        for _ in range(k - 1):
            result = result.mul(self)
        return result

    # -- substitutions and index surgery --------------------------------

    def inflate(self, m: int, order: Optional[int] = None) -> "TruncatedSeries":
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
        return TruncatedSeries(_spread(list(self.coeffs[: order // m + 1]), m, order), order)

    def extract_ap(self, m: int, r: int) -> "TruncatedSeries":
        """Coefficients along the arithmetic progression mn + r, re-indexed to q^n."""
        if m < 1:
            raise ValueError("progression step must be >= 1")
        if not 0 <= r < m:
            raise ValueError("residue must satisfy 0 <= r < m")
        if self.order < r:
            raise ValueError("series order too small to contain residue class")
        if m == 1:
            return self
        order = (self.order - r) // m
        return TruncatedSeries([self.coeffs[m * n + r] for n in range(order + 1)], order)

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
        return TruncatedSeries(
            [c if n % 2 == 0 else -c for n, c in enumerate(self.coeffs)], self.order
        )

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.add(other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.sub(other)
        return NotImplemented

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.mul(other)
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k):
        if isinstance(k, int):
            return self.pow(k)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.div(other)
        return NotImplemented


def first_mismatch(
    a: TruncatedSeries, b: TruncatedSeries
) -> Optional[Tuple[int, int, int]]:
    """Smallest index where a and b differ (up to the shared order), or None."""
    order = min(a.order, b.order)
    ca, cb = a.coeffs, b.coeffs
    for n in range(order + 1):
        if ca[n] != cb[n]:
            return n, ca[n], cb[n]
    return None


# -- kernels -----------------------------------------------------------------


def _support(coeffs) -> list:
    """Indices of the nonzero coefficients, ascending."""
    return [i for i, c in enumerate(coeffs) if c]


def _spread(vals: list, g: int, order: int) -> list:
    """Put vals[i] at index g*i of a zero list of order + 1 slots (g <= 1: vals)."""
    if g <= 1:
        return vals
    out = [0] * (order + 1)
    out[::g] = vals
    return out


def _divide(a, b, order):
    """a / b to the given order, for b[0] = +1 or -1.

    ``out`` grows by one coefficient per step, so out[n-k] is out[-k].  The
    denominator's terms are grouped by coefficient value, and each group
    keeps one itemgetter over the negative indices of its k <= n, so that
    a step costs one C-level gather and sum per distinct value rather than
    a bytecode loop over the terms.  A getter is rebuilt only when its
    group gains a k.  Theta and Euler denominators have at most the values
    +-1 and +-2.
    """
    b0 = b[0]
    terms = [(k, b[k]) for k in _support(b) if k]
    groups = {}      # coefficient value -> negative indices of its k <= n
    gathers = {}     # coefficient value -> (value, getter, single index)
    out = []
    t = 0
    next_k = terms[0][0] if terms else order + 1
    for n in range(order + 1):
        while next_k <= n:
            c = terms[t][1]
            idx = groups.setdefault(c, [])
            idx.append(-next_k)
            # itemgetter of one index returns the value, not a tuple
            gathers[c] = (c, itemgetter(*idx), len(idx) == 1)
            t += 1
            next_k = terms[t][0] if t < len(terms) else order + 1
        s = a[n]
        for c, get, single in gathers.values():
            s -= c * (get(out) if single else sum(get(out)))
        out.append(s if b0 == 1 else -s)
    return out


def _convolve_sparse(a, b, order):
    """Cauchy convolution driven by the nonzero terms of a (the sparser factor)."""
    out = [0] * (order + 1)
    for i, c in enumerate(a):
        if not c:
            continue
        top = order - i
        if c == 1:
            for j in range(min(top, len(b) - 1) + 1):
                d = b[j]
                if d:
                    out[i + j] += d
        elif c == -1:
            for j in range(min(top, len(b) - 1) + 1):
                d = b[j]
                if d:
                    out[i + j] -= d
        else:
            for j in range(min(top, len(b) - 1) + 1):
                d = b[j]
                if d:
                    out[i + j] += c * d
    return out


def _pack(vals, width):
    buf = bytearray(len(vals) * width)
    off = 0
    for v in vals:
        if v:
            buf[off : off + width] = v.to_bytes(width, "little")
        off += width
    return int.from_bytes(buf, "little")


def _unpack(n, count, width):
    total = count * width
    raw = n.to_bytes(max(total, (n.bit_length() + 7) // 8), "little")[:total]
    return [
        int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(count)
    ]


def _convolve_packed(a, b, order):
    """Exact convolution via big-integer multiplication (Kronecker substitution).

    Signed coefficients are split into positive and negative parts; the
    digit width is chosen so no packed digit can overflow, which keeps the
    digitwise reading of the products exact.
    """
    max_a = max(abs(c) for c in a)
    max_b = max(abs(c) for c in b)
    bits = max_a.bit_length() + max_b.bit_length() + (order + 1).bit_length() + 2
    width = (bits + 7) // 8
    count = order + 1

    if all(c >= 0 for c in a) and all(c >= 0 for c in b):
        return _unpack(_pack(a, width) * _pack(b, width), count, width)

    a_pos = [c if c > 0 else 0 for c in a]
    a_neg = [-c if c < 0 else 0 for c in a]
    b_pos = [c if c > 0 else 0 for c in b]
    b_neg = [-c if c < 0 else 0 for c in b]
    ap, an = _pack(a_pos, width), _pack(a_neg, width)
    bp, bn = _pack(b_pos, width), _pack(b_neg, width)
    # same-sign and mixed-sign convolutions are both digitwise nonnegative,
    # and mixed >= 0 digit by digit, so the integer subtraction is exact.
    same = ap * bp + an * bn
    mixed = (ap + an) * (bp + bn) - same
    ps = _unpack(same, count, width)
    ms = _unpack(mixed, count, width)
    return [p - m for p, m in zip(ps, ms)]
