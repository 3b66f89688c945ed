"""The paper's three sequences, c5, a5 and b5, from their Eisenstein
divisor-sum closed forms, with no q-series arithmetic.

Each is a weight-2 modular form (``FORMS``) whose product side is written
with the side helpers ``F``, ``PHI``, ``PSI`` and ``P``, which are defined
here and which ``products`` evaluates.  Only these three keep their
results past a call.  ``_closed_form`` evaluates a sequence on any
progression m*n + r with 0 <= r < m, the prefix being m = 1, r = 0.  Each
form's value at x = 2^v 5^w u, u prime to 10, is s15(u) times a constant
of (v, w, u mod 10), since s51 and s15 are multiplicative and agree up to
the sign (u | 5) at u prime to 5.  So the evaluator sieves s15 at the u
prime to 10 alone, about 0.16 X ln sqrt(X) element operations to
argument X against X ln sqrt(X) over every divisor pair, and writes each
class of x as one scaled slice of that sieve.  One
cache holds the longest prefix of each sequence, keyed by its name, and
serves every lower order, and every progression inside it, by slicing,
which gives the same coefficients as a fresh build.  A deeper progression
is evaluated on its own n, through U_5 where m and the argument's offset
share a power of 5: b5(25n + 22) costs what the prefix b5(n) to the same
order costs, and is not kept.  Every read goes through the constructors in
``SEQUENCES``, which give the prefix or, with a modulus m, the terms at
exponents r mod m alone; a sequence atom of a side reaches them through
``products.evaluate_side``.  Series are immutable, so sharing them across
callers is safe.  ``sign_census`` counts a sequence's signs, so a census
needs no registry.

This module imports only ``series``, and no product or quotient, so a
command that reads a sequence loads neither ``products`` nor the kernels.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count, repeat
from math import isqrt
from operator import add, floordiv, mul

from .series import TruncatedSeries


# -- side helpers -----------------------------------------------------------
#
# ``products`` describes sides and atoms; these four helpers are the ones
# ``FORMS`` is written in, and ``products`` imports them from here.


def F(j: int, sign: int = -1) -> tuple:
    """The Euler product f(sign*q^j); f_j when sign = -1."""
    return ("euler_f", j, sign)


def PHI(sign: int, j: int) -> tuple:
    return ("phi", sign, j)


def PSI(sign: int, j: int) -> tuple:
    return ("psi", sign, j)


def P(coeff: int, shift: int, *factors) -> tuple:
    """coeff * q^shift * prod atom^e; a factor is (atom, e), or an atom for e = 1.

    A repeated atom is one factor whose exponent is the sum of its
    exponents, in the order atoms are first seen; an atom whose exponents
    sum to 0 is left out.
    """
    exponents = {}
    for f in factors:
        atom, e = f if isinstance(f[0], tuple) else (f, 1)
        exponents[atom] = exponents.get(atom, 0) + e
    return (coeff, shift, tuple((atom, e) for atom, e in exponents.items() if e))


# -- headline generating functions ------------------------------------------
#
# Each sequence is a weight-2 form on Gamma0(level) with character (5/.).
# q^shift times its product side is the eta quotient prod eta(delta*tau)^r,
# and divisor times that is its closed form, the sum over the terms
# (kind, t, c) of c * E_kind(q^t), where E51 = sum over m >= 1 of s51(m) q^m,
# s51(m) = sum over d | m of (m/d | 5) d, and E15 = -1/5 + sum of s15(m) q^m,
# s15(m) = sum over d | m of (d | 5) d.  By Sturm the two sides are equal
# once q^0 .. q^sturm agree; tests/test_closed_forms.py checks each of these.

ModularForm = namedtuple("ModularForm", "side eta level weight character sturm shift divisor terms")

FORMS = {
    "c5": ModularForm(side=(P(1, 0, (F(5), 5), (F(1), -1)),), eta=((1, -1), (5, 5)),
                      level=5, weight=2, character=5, sturm=1, shift=1, divisor=1,
                      terms=(("s51", 1, 1),)),
    "a5": ModularForm(side=(P(1, 0, (PHI(-1, 5), 5), (PHI(-1, 1), -1)),),
                      eta=((1, -2), (2, 1), (5, 10), (10, -5)),
                      level=10, weight=2, character=5, sturm=3, shift=0, divisor=1,
                      terms=(("s51", 1, 3), ("s51", 2, 4), ("s15", 1, -1), ("s15", 2, -4))),
    "b5": ModularForm(side=(P(1, 0, (PSI(-1, 5), 5), (PSI(-1, 1), -1)),),
                      eta=((1, -1), (2, 1), (4, -1), (5, 5), (10, -5), (20, 5)),
                      level=20, weight=2, character=5, sturm=6, shift=3, divisor=4,
                      terms=(("s51", 1, 1), ("s51", 2, 1), ("s51", 4, -4),
                             ("s15", 1, -1), ("s15", 2, -3), ("s15", 4, 4))),
}

_LEGENDRE_5 = (0, 1, -1, -1, 1)     # (n | 5) at n mod 5


def _u5(m: int, offset: int) -> tuple:
    """U_5 on x = m*n + offset: (m / 5^w, offset / 5^w, 5^w) for the
    largest 5^w dividing both.  With y = x / 5^w, s51(x) = 5^w s51(y) and
    s15(x) = s15(y), since s51's local factor at 5^e is 5^e and s15's is
    1, and a t prime to 5 divides x exactly when it divides y."""
    power = 1
    while m % (5 * power) == 0 and offset % (5 * power) == 0:
        power *= 5
    return m // power, offset // power, power


_CLASSES = (1, 3, 7, 9)             # the residues mod 10 prime to 10


def _at_power_of_2(kind: str, x: int) -> int:
    """s51(x) or s15(x) at x = 2^e, summed over its divisors d = 2^i."""
    return sum(_LEGENDRE_5[(x >> i if kind == "s51" else 1 << i) % 5] << i
               for i in range(x.bit_length()))


def _closed_form(form: ModularForm, m: int, r: int, order: int) -> TruncatedSeries:
    """The form's sequence at m*n + r for n = 0..order, 0 <= r < m; m = 1,
    r = 0 is its prefix.

    The sum runs on y = m*n + offset, after ``_u5`` has divided m and
    r + shift by the largest 5^w that divides both, giving m and offset,
    and weighted the s51 terms by 5^w: so b5(25n + 22), b5(5n + 2) and
    a5(5n) each run over y <= order + 1, as a prefix to the order does.
    Every y >= 1 is 2^v * 5^w * u with u prime to 10 in one way.  s51 and
    s15 are multiplicative, with local factors 5^w and 1 at 5^w, and
    s51(u) = chi(u) S(u) for S = s15 and chi = (. | 5), so each term
    c*s51(y/t) or c*s15(y/t), t | 4 and t | 2^v, is S(u) times a constant
    of (v, w, u mod 10), and so is the form.

    The sieve writes S(u) for every u <= y_max = m*order + offset prime to
    10 from the pairs d*e = u, d <= e, both prime to 10: for each
    d <= sqrt(y_max) and each class of e mod 10, chi(d)*d + chi(e)*e is one
    arithmetic progression on the slice of step 10d, which d = 1 writes
    into the zero list and every larger d adds to, and (d, d) counts once.
    That is 4 Python steps per d and about 0.16 y_max ln sqrt(y_max)
    element operations in C, against y_max ln sqrt(y_max) over every
    divisor pair.  The assembly writes each class (2^v, 5^w, u mod 10)
    into the y it holds as one slice of S times the class's constant,
    divided by the form's divisor where the constant is not a multiple of
    it: about 4 log2(y_max) log5(y_max) / 2 slices, each element once.
    y = 0 is E15's constant term -1/5 alone.  With m > 1 the sieve runs
    over every y to y_max, and the progression's slots are kept."""
    for term in form.terms:
        if 4 % term[1]:
            raise ValueError(f"term {term!r}: its t must divide 4")
    m, offset, weight = _u5(m, r + form.shift)      # y = m*n + offset
    top = m * order + offset
    s = [0] * (top + 1)                 # S(u) at u prime to 10
    for d in range(1, isqrt(top) + 1):
        if not d % 2 or not d % 5:
            continue
        chi_d = _LEGENDRE_5[d % 5]
        for c in _CLASSES:
            e = d + (c - d) % 10        # the least cofactor e >= d in the class
            if d * e > top:
                continue
            chi_e = _LEGENDRE_5[c % 5]
            v, inc = chi_d * d + chi_e * e, 10 * chi_e
            if d == 1:                  # the first to reach these slots: they hold 0
                s[e::10] = range(v, v + ((top - e) // 10 + 1) * inc, inc)
            else:
                s[d * e::10 * d] = map(add, s[d * e::10 * d], count(v, inc))
        s[d * d] -= chi_d * d           # (d, d) is one pair, added twice above
    acc = [0] * (top - offset + 1)      # the sequence at y = offset..top
    if not offset:                      # y = 0: E15(0) = -1/5
        acc[0] = -sum(c for kind, _, c in form.terms if kind == "s15") // (5 * form.divisor)
    divisor, two = form.divisor, 1
    while two <= top:                   # two = 2^v; a and b are the s51 and s15 factors
        a = weight * sum(c * _at_power_of_2(kind, two // t)
                         for kind, t, c in form.terms if kind == "s51" and two % t == 0)
        b = sum(c * _at_power_of_2(kind, two // t)
                for kind, t, c in form.terms if kind == "s15" and two % t == 0)
        power = two                     # power = 2^v 5^w
        while power <= top:
            five = power // two
            for c in _CLASSES:
                k = five * _LEGENDRE_5[c % 5] * a + b
                if not k:
                    continue
                # the least u in the class with power * u >= offset
                u = c + 10 * max(0, -((power * c - offset) // (10 * power)))
                values = s[u:top // power + 1:10]
                if k % divisor:
                    values = map(floordiv, map(mul, values, repeat(k)), repeat(divisor))
                elif k != divisor:
                    values = map(mul, values, repeat(k // divisor))
                acc[power * u - offset::10 * power] = values
            power *= 5
        two *= 2
    del s
    return TruncatedSeries(acc if m == 1 else acc[::m], order)


# name -> the longest prefix of the sequence evaluated so far; a lower order
# and a progression inside it are read off by slicing
_EXPANSIONS: dict = {}

def _expansion(name: str, m: int, r: int, order: int) -> TruncatedSeries:
    """name(m*n + r) for n = 0..order, 0 <= r < m: a slice of the cached
    prefix when that reaches m*order + r, else ``_closed_form``'s
    evaluation, cached when it is the prefix (m = 1)."""
    prefix = _EXPANSIONS.get(name)
    if prefix is not None and prefix.order >= m * order + r:
        if m == 1:
            return prefix.truncate(order)
        return TruncatedSeries(prefix.coeffs[r:m * order + r + 1:m], order)
    series = _closed_form(FORMS[name], m, r, order)
    if m == 1:
        _EXPANSIONS[name] = series
    return series


def _part(name: str, order: int, m: int, r: int) -> TruncatedSeries:
    """The terms name(x)*q^x of the generating function with x = r (mod m),
    to q^order; with m = 1, the whole series."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return _expansion(name, 1, 0, order)
    r %= m
    coeffs = [0] * (order + 1)
    if order >= r:
        coeffs[r::m] = _expansion(name, m, r, (order - r) // m).coeffs
    return TruncatedSeries(coeffs, order)


def gen_c5(order: int, m: int = 1, r: int = 0) -> TruncatedSeries:
    """Generating function of 5-core counts, f5^5 / f1, by Garvan-Kim-Stanton's
    closed form; its terms at exponents = r (mod m) alone when m > 1."""
    return _part("c5", order, m, r)


def gen_a5bar(order: int, m: int = 1, r: int = 0) -> TruncatedSeries:
    """Generating function phi(-q^5)^5 / phi(-q), from its closed form; its
    terms at exponents = r (mod m) alone when m > 1."""
    return _part("a5", order, m, r)


def gen_b5bar(order: int, m: int = 1, r: int = 0) -> TruncatedSeries:
    """Generating function psi(-q^5)^5 / psi(-q), from its closed form; its
    terms at exponents = r (mod m) alone when m > 1."""
    return _part("b5", order, m, r)


SEQUENCES = {"c5": gen_c5, "a5": gen_a5bar, "b5": gen_b5bar}


# Exact sign frequencies of a sequence over indices 1..order.
CensusResult = namedtuple("CensusResult", "seq order zero positive negative")


def sign_census(seq_name: str, order: int) -> CensusResult:
    """Exact rational sign frequencies over indices 1..order.

    A frequency here is evidence at finite range, not a limit statement:
    the registry's census bounds are asymptotic claims checked empirically
    at the order the caller fixes.
    """
    from fractions import Fraction      # only a census loads fractions

    if order < 1:
        raise ValueError("census needs order >= 1")
    if seq_name not in SEQUENCES:
        raise ValueError(f"unknown sequence {seq_name!r}; known: {', '.join(SEQUENCES)}")
    coeffs = SEQUENCES[seq_name](order).coeffs[1:]
    zero = coeffs.count(0)
    positive = sum(c > 0 for c in coeffs)
    return CensusResult(seq_name, order, Fraction(zero, order), Fraction(positive, order),
                        Fraction(order - zero - positive, order))

