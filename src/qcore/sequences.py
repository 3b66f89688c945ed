"""The paper's three sequences, c5, a5 and b5, from their Eisenstein
divisor-sum closed forms, with no q-series arithmetic.

Each is a weight-2 modular form (``FORMS``) whose product side is written
with the side helpers ``F``, ``PHI``, ``PSI`` and ``P``, which are defined
here and which ``products`` evaluates.  Only these three keep their
results past a call.  ``_closed_form`` evaluates a sequence on any
progression m*n + r with 0 <= r < m, the prefix being m = 1, r = 0.  One
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
from math import gcd, isqrt
from operator import add, floordiv

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


def _closed_form(form: ModularForm, m: int, r: int, order: int) -> TruncatedSeries:
    """The form's sequence at m*n + r for n = 0..order, 0 <= r < m; m = 1,
    r = 0 is its prefix.

    The sum runs on x = m*n + offset, after ``_u5`` has divided m and
    r + shift by the largest 5^w that divides both, giving m and offset,
    and weighted the s51 terms by 5^w: so b5(25n + 22), b5(5n + 2) and
    a5(5n) each run over x <= order + 1, as a prefix to the order does.
    With chi = (. | 5) and big the largest t (every t divides big), big
    times the closed form at x is the sum over d*e = x of
    chi(e)*d*alpha[d % big] + chi(d)*d*beta[e % big]: c*s51(x/t) adds
    c*big/t to alpha where t | d, c*s15(x/t) adds c*big to beta where t | e.
    Each d <= sqrt(x) meets its cofactors e >= d as (d, e) and (e, d),
    summing to c0 + c1*e with c0, c1 periodic in e mod 5*big.  The n with
    d | x form one residue class mod d/gcd(d, m), along which e steps by
    m/gcd(d, m), so a residue class of e adds one arithmetic progression to
    one slice of the accumulator.  That is O(order log x) element
    operations in C and at most 5*big Python steps per d <= sqrt(x), for x
    up to m*order + offset.  x = 0 is E15's constant term -1/5 alone.

    Every x >= 1 has d = 1, so the classes of d = 1 meet each slot from the
    first x > 0 on exactly once: they write their progressions into the
    zero slots rather than add them, and each d's (d, d) correction follows
    its classes.  A class with c0 = c1 = 0 is skipped and one with c1 = 0
    adds the constant c0.  For c5, big times the divisor is 1 and the
    accumulator is the sequence itself, with nothing to divide."""
    m, offset, weight = _u5(m, r + form.shift)      # x = m*n + offset
    big = max(t for _, t, _ in form.terms)
    period = 5 * big
    alpha = [weight * sum(c * big // t for kind, t, c in form.terms
                          if kind == "s51" and i % t == 0)
             for i in range(big)]
    beta = [sum(c * big for kind, t, c in form.terms if kind == "s15" and i % t == 0)
            for i in range(big)]
    acc = [0] * (order + 1)             # big times the closed form at n
    first = 0 if offset else 1          # the first n with x > 0
    if not offset:                      # x = 0 at n = 0: E15(0) = -1/5
        acc[0] = -sum(c * big for kind, _, c in form.terms if kind == "s15") // 5
    x0 = m * first + offset             # x at n = first
    for d in range(1, isqrt(m * order + offset) + 1):
        g = gcd(d, m)
        if x0 % g:
            continue
        step, de = d // g, m // g       # n steps by step over d | x, and e by de
        n = first + (-(x0 // g) * pow(de, -1, step) % step)
        e = (m * n + offset) // d
        if e < d:
            lift = -((e - d) // de)
            n, e = n + lift * step, e + lift * de
        chi_d, a_d, b_d = _LEGENDRE_5[d % 5], d * alpha[d % big], beta[d % big]
        square = e == d and n <= order  # (d, d) is one pair, added twice below
        stride = period * step
        for start in range(n, min(n + stride, order + 1), step):
            chi_e = _LEGENDRE_5[e % 5]
            c0 = chi_e * a_d + chi_d * d * beta[e % big]
            c1 = chi_d * alpha[e % big] + chi_e * b_d
            v, inc = c0 + c1 * e, period * de * c1
            e += de
            if not (c0 or c1):
                continue                # the class adds nothing
            if d == 1:                  # the first to reach these slots: they hold 0
                k = (order - start) // stride + 1
                acc[start::stride] = range(v, v + k * inc, inc) if inc else [v] * k
            else:
                acc[start::stride] = map(add, acc[start::stride],
                                         count(v, inc) if inc else repeat(v))
        if square:
            acc[n] -= chi_d * (a_d + d * b_d)
    if big * form.divisor == 1:         # acc is the series itself
        return TruncatedSeries(acc, order)
    return TruncatedSeries(map(floordiv, acc, repeat(big * form.divisor)), order)


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
    coeffs = SEQUENCES[seq_name](order).coeffs[1:]
    zero = coeffs.count(0)
    positive = sum(c > 0 for c in coeffs)
    return CensusResult(seq_name, order, Fraction(zero, order), Fraction(positive, order),
                        Fraction(order - zero - positive, order))

