"""Exact arithmetic on truncated formal power series in q.

Coefficients are plain Python integers, so they are arbitrary precision and
nothing is ever rounded.  A series knows its truncation order N and stores
the exact coefficients of q^0 .. q^N.  Truncation discards information; it
never approximates it.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Iterable, Iterator
from itertools import compress, count, islice
from math import gcd, isqrt, log2
from sys import int_info


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
        """Exact product, truncated to the smaller order (``_product``).

        A square, ``x.mul(x)``, packs its operand once.
        """
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
        (``_divide``).  A divisor in q^P, P > 1, dissects the quotient as
        a factor's period dissects a product (``_dissect``): each residue
        class r mod P of the numerator runs its own recurrence over
        ``b[::P]``, P times shorter, and an empty class runs none.
        """
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


# -- kernels -----------------------------------------------------------------


def _support(coeffs) -> list:
    """Indices of the nonzero coefficients, ascending."""
    return list(compress(range(len(coeffs)), coeffs))


def _period(b, nb: int) -> int:
    """The gcd of the nonzero exponents of b, which has nb nonzero terms;
    0 when b is a constant.  It is the largest divisor d of the first
    nonzero exponent past 0, k, for which ``b[::d]`` holds all nb nonzero
    terms, each tried from the largest down at the cost of one slice.  k
    is found without listing b's support, at once when b has a q^1 term."""
    k = next(compress(count(1), islice(b, 1, None)), 0)
    if k < 2:
        return k
    small = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
    for d in dict.fromkeys([k // d for d in small] + small[::-1]):
        if d == 1:
            break
        picked = b[::d]
        if len(picked) - picked.count(0) == nb:
            return d
    return 1


def _divide(a, b, order):
    """a / b to the given order, for b[0] = +1 or -1: the recurrence
    out_n = b_0 (a_n - sum b_k out_{n-k}) over the nonzero b_k, 1 <= k <= n."""
    b0 = b[0]
    terms = [(k, b[k]) for k in _support(b) if k]
    out = []
    for n in range(order + 1):
        s = a[n]
        for k, c in terms:
            if k > n:
                break
            s -= c * out[n - k]
        out.append(b0 * s)
    return out


def _widths(a, ia, b, count: int) -> tuple:
    """Slot widths (``_slot_width``) of the shifted and the packed kernel
    for a * b over count slots, a nonzero at the indices ia, from one read
    of a's nonzero values and one of max|b|.

    A slot of W bits holds a signed digit below 2^(W-1): the shifted
    kernel's digits are at most (sum |a_i|) max|b|, the packed kernel's
    at most count max|a| max|b|.
    """
    mags = list(map(abs, map(a.__getitem__, ia)))
    mag_a = max(mags, default=0)
    bits_b = (mag_a if b is a else max(max(b), -min(b))).bit_length()
    return (_slot_width(bits_b + sum(mags).bit_length() + 1),
            _slot_width(mag_a.bit_length() + bits_b + count.bit_length() + 1))


# struct code of each native slot width in bytes, at the standard sizes of
# the "<" format (the tests check each size).
_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}

# the native width a slot of 1 to 8 bytes moves through: its own, or the
# next larger one, of whose items it keeps the low bytes
_NATIVE = {width: next(n for n in _CODES if n >= width) for width in range(1, 9)}

# byte -> the byte that sign-extends it: 0xff when its top bit is set
_SIGN = bytes(0xFF * (byte >> 7) for byte in range(256))


def _slot_width(bits: int) -> int:
    """Bytes of a slot of at least ``bits`` bits: whole bytes."""
    return (bits + 7) // 8


def _half(width: int, count: int) -> int:
    """H, with 2^(W-1) in each of count slots of W = 8 * width bits."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(vals, width: int) -> int:
    """The integer sum v_k 2^(Wk), W = 8 * width, for |v_k| < 2^(W-1).

    The slots are written in little-endian two's complement by one
    ``struct.pack`` at the native width of ``_NATIVE``, of whose items a
    narrower slot keeps the low bytes, one strided copy per byte; one
    ``to_bytes`` each past 8 bytes.  T, read from those bytes, counts a
    negative v_k as v_k + 2^W, and (T ^ H) - H takes that 2^W back.
    """
    native = _NATIVE.get(width)
    if native is None:
        raw = b"".join([v.to_bytes(width, "little", signed=True) for v in vals])
    else:
        raw = struct.pack(f"<{len(vals)}{_CODES[native]}", *vals)
        if native > width:
            wide, raw = raw, bytearray(width * len(vals))
            for j in range(width):
                raw[j::width] = wide[j::native]
    t = int.from_bytes(raw, "little")
    half = _half(width, len(vals))
    return (t ^ half) - half


def _unpack(p: int, width: int, count: int) -> list:
    """The low count slots p_k of p = sum p_k 2^(Wk), for |p_k| < 2^(W-1),
    as a list.

    The low count slots of p + H are p_k + 2^(W-1) exactly, whatever p
    holds above them, and xor with H leaves each p_k in little-endian two's
    complement, read by one ``struct.unpack`` at the native width of
    ``_NATIVE``: a narrower slot is copied into the low bytes of its item,
    one strided copy per byte, and its top byte, mapped through ``_SIGN``,
    fills the rest.  One ``from_bytes`` each past 8 bytes.
    """
    total = width * count
    half = _half(width, count)
    raw = (((p + half) & ((1 << (8 * total)) - 1)) ^ half).to_bytes(total, "little")
    native = _NATIVE.get(width)
    if native is None:
        return [int.from_bytes(raw[i : i + width], "little", signed=True)
                for i in range(0, total, width)]
    if native > width:
        narrow, raw = raw, bytearray(native * count)
        for j in range(width):
            raw[j::native] = narrow[j::width]
        sign = narrow[width - 1::width].translate(_SIGN)
        for j in range(width, native):
            raw[j::native] = sign
    return list(struct.unpack(f"<{count}{_CODES[native]}", raw))


def _price(a, ia, b, count: int) -> tuple:
    """(shifted, width) for a * b over count slots, a nonzero at the indices
    ia: whether the cost model (``_product``) prices
    ``_convolve_shifted`` lower than ``_convolve_packed``, and the slot
    width of the one it picks."""
    shifted_width, packed_width = _widths(a, ia, b, count)
    digits = count * 8 / int_info.bits_per_digit       # per byte of slot width
    if len(ia) * digits * shifted_width < (digits * packed_width) ** log2(3):
        return True, shifted_width
    return False, packed_width


def _product(x, y, order: int) -> list:
    """x * y to the given order, for x and y of order + 1 slots each (y is
    x for a square): the one place that decides how a product is made.

    Nonzero counts pick the sparser factor, x, and the denser one, y, and
    ``_period`` finds y's period P from slices of y.  With P > 1 the
    product is dissected by P (``_dissect``): each nonempty residue class
    of x mod P times ``y[::P]``, made by this function again, P times
    shorter.  That also covers two factors in a common q^g, whose classes
    off the multiples of g are empty.  With P = 1 the product is a leaf,
    made by one of two kernels.  ``_convolve_shifted`` costs about one pass
    over the packed y per nonzero term of x, ``_convolve_packed`` about
    one Karatsuba multiply of both packed factors, D^log2(3) for D digits;
    ``_price`` picks the cheaper, and the width its kernel packs with.  A
    leaf priced packed whose sparser factor x is in q^Q, Q > 1, is
    dissected by Q instead, one class of y per product, since the shifted
    kernel would make the same passes over y in Q pieces.
    """
    nx = len(x) - x.count(0)
    ny = nx if y is x else len(y) - y.count(0)
    if not nx or not ny:
        return [0] * (order + 1)
    if ny < nx:
        x, y, ny = y, x, nx
    period = _period(y, ny)
    if period > 1:
        return _dissect(x, y, period, order, _product)
    ix = _support(x)
    shifted, width = _price(x, ix, y, order + 1)
    if shifted:
        return _convolve_shifted(x, ix, y, order, width)
    period = gcd(*ix)
    if period > 1:
        return _dissect(y, x, period, order, _product)
    return _convolve_packed(x, y, order, width)


def _dissect(x, y, period: int, order: int, kernel) -> list:
    """x * y (``_product``) or x / y (``_divide``), as ``kernel``, to the
    given order, for y a series in q^period: slots r mod period of the
    result are ``kernel(x[r::period], y[::period])`` at order
    (order - r) // period, written back with a slice, and zero for an
    empty class of x.  A square stays a square."""
    out = [0] * (order + 1)
    head = y[::period]
    for r in range(min(period, order + 1)):
        part = x[r::period]
        if any(part):
            out[r::period] = kernel(part, part if x is y else head[: len(part)], len(part) - 1)
    return out


def _convolve_shifted(a, ia, b, order, width):
    """Exact convolution of a, nonzero at the indices ia, with b of
    order + 1 coefficients, in slots of ``width`` bytes (``_widths``): b
    is packed once and the sum of a_i (B << Wi) over i in ia is read back
    once.

    The copies of B are summed per coefficient value of a before they are
    multiplied by it, so a theta or Euler factor, whose values are +-1 or
    +-2, costs about one shift and one add per term.  Each digit of the
    sum is sum_i a_i b_(k-i), at most (sum |a_i|) max|b| in magnitude,
    which fits the slot; digits past the order are dropped on reading.
    """
    packed = _pack(b, width)
    step = 8 * width
    copies = {}     # coefficient value of a -> sum of the copies of B it scales
    for i in ia:
        c = a[i]
        copies[c] = copies.get(c, 0) + (packed << (step * i))
    return _unpack(sum(c * copy for c, copy in copies.items()), width, order + 1)


def _convolve_packed(a, b, order, width):
    """Exact convolution by one big-integer multiply (signed Kronecker
    substitution), for a and b of order + 1 coefficients each, in slots of
    ``width`` bytes (``_widths``), wide enough for every digit of the
    product.

    Both operands are packed, multiplied once and read back.  A square
    packs its operand once.
    """
    count = order + 1
    pa = _pack(a, width)
    return _unpack(pa * (pa if b is a else _pack(b, width)), width, count)
