"""Constructors for the named series: Pochhammer products, Euler products,
theta functions, the Rogers-Ramanujan quotient, and the three headline
generating functions (5-core counts and their two theta-quotient analogs).

Sum-style constructors (``euler_f``, ``theta_general``, ``phi``, ``psi``)
iterate over exactly the integer window whose exponents fit under the
truncation order; there are no heuristic cutoffs.  ``phi``, ``psi`` and
``euler_f`` can also be expanded through their q-product forms, which the
test suite compares against the sums coefficient by coefficient.

All constructors are pure and memoized on their full argument tuple;
results are immutable, so sharing across callers (or threads) is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from .series import TruncatedSeries


@dataclass(frozen=True)
class PochhammerFactor:
    """One factor (sign*q^offset; q^modulus)_inf^exponent."""

    sign: int
    offset: int
    modulus: int
    exponent: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.offset < 1 or self.modulus < 1:
            raise ValueError("offset and modulus must be >= 1")


@dataclass(frozen=True)
class QProductSpec:
    """A finite product of Pochhammer factors; constant term is always 1."""

    factors: Tuple[PochhammerFactor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class ThetaSpec:
    """The two-monomial theta f(a, b) with a = s1*q^e1 and b = s2*q^e2."""

    s1: int
    e1: int
    s2: int
    e2: int

    def __post_init__(self):
        if self.s1 not in (1, -1) or self.s2 not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if self.e1 < 0 or self.e2 < 0:
            raise ValueError("exponents must be >= 0")
        if self.e1 + self.e2 < 1:
            raise ValueError("need e1 + e2 >= 1 for convergence")


# -- product expansion ------------------------------------------------------


def _binomial_product(sign: int, offset: int, modulus: int, order: int) -> list:
    """(sign*q^offset; q^modulus)_inf to the given order, exponent 1."""
    out = [1] + [0] * order
    t = offset
    while t <= order:
        # multiply in place by (1 - sign*q^t); descending keeps sources intact
        for i in range(order - t, -1, -1):
            c = out[i]
            if c:
                out[i + t] -= sign * c
        t += modulus
    return out


@lru_cache(maxsize=None)
def expand_pochhammer(factor: PochhammerFactor, order: int) -> TruncatedSeries:
    """Exact expansion of a single Pochhammer factor, any integer exponent."""
    base = TruncatedSeries(
        _binomial_product(factor.sign, factor.offset, factor.modulus, order), order
    )
    z = factor.exponent
    if z == 1:
        return base
    if z == 0:
        return TruncatedSeries.one(order)
    result = base.pow(abs(z))
    return result.invert() if z < 0 else result


def expand_qproduct(spec: QProductSpec, order: int) -> TruncatedSeries:
    result = TruncatedSeries.one(order)
    for factor in spec.factors:
        result = result.mul(expand_pochhammer(factor, order))
    return result


# -- bilateral sums ---------------------------------------------------------


@lru_cache(maxsize=None)
def theta_general(spec: ThetaSpec, order: int) -> TruncatedSeries:
    """f(a, b) = sum over all integers n of a^(n(n+1)/2) * b^(n(n-1)/2).

    The exponent e1*n(n+1)/2 + e2*n(n-1)/2 is strictly increasing for
    n >= 1 and for n <= -1 (since e1 + e2 >= 1), so each direction stops
    at the first exponent past the order.
    """
    out = [0] * (order + 1)

    def accumulate(n: int) -> bool:
        t1 = n * (n + 1) // 2
        t2 = n * (n - 1) // 2
        exp = spec.e1 * t1 + spec.e2 * t2
        if exp > order:
            return False
        sign = (spec.s1 if t1 % 2 else 1) * (spec.s2 if t2 % 2 else 1)
        out[exp] += sign
        return True

    accumulate(0)
    n = 1
    while accumulate(n):
        n += 1
    n = -1
    while accumulate(n):
        n -= 1
    return TruncatedSeries(out, order)


@lru_cache(maxsize=None)
def euler_f(j: int, order: int, sign: int = -1) -> TruncatedSeries:
    """The Euler product f(sign*q^j) via the pentagonal-number sum.

    sign=-1 is the standard f_j = (q^j; q^j)_inf; sign=+1 is the same
    series with q^j replaced by -q^j (each pentagonal term picks up the
    parity of its exponent).
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = [0] * (order + 1)

    def accumulate(n: int) -> bool:
        g = n * (3 * n - 1) // 2
        exp = j * g
        if exp > order:
            return False
        term = -1 if n % 2 else 1
        if sign == 1 and g % 2:
            term = -term
        out[exp] += term
        return True

    accumulate(0)
    n = 1
    while accumulate(n):
        n += 1
    n = -1
    while accumulate(n):
        n -= 1
    return TruncatedSeries(out, order)


# -- named theta specializations --------------------------------------------


def _from_unit_series(base: TruncatedSeries, sign: int, j: int, order: int) -> TruncatedSeries:
    """Substitute q -> sign*q^j into a series known at order floor(order/j)."""
    if sign == 1:
        base = base.alternate()
    return base.inflate(j, order)


@lru_cache(maxsize=None)
def phi(sign: int, j: int, order: int, form: str = "sum") -> TruncatedSeries:
    """phi(sign*q^j) = sum over n of (sign*q^j)^(n^2).

    form="sum" uses the square-number sum; form="product" expands the
    q-product f1^2/f2 and substitutes, giving the independent route.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if j < 1:
        raise ValueError("j must be >= 1")
    if form == "product":
        sub = order // j
        base = euler_f(1, sub).pow(2).div(euler_f(2, sub))
        return _from_unit_series(base, sign, j, order)
    if form != "sum":
        raise ValueError("form must be 'sum' or 'product'")
    out = [0] * (order + 1)
    out[0] = 1
    n = 1
    while j * n * n <= order:
        out[j * n * n] += 2 * (sign if n % 2 else 1)
        n += 1
    return TruncatedSeries(out, order)


@lru_cache(maxsize=None)
def psi(sign: int, j: int, order: int, form: str = "sum") -> TruncatedSeries:
    """psi(sign*q^j) = sum over n >= 0 of (sign*q^j)^(n(n+1)/2).

    The product route expands f1*f4/f2 and substitutes.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if j < 1:
        raise ValueError("j must be >= 1")
    if form == "product":
        sub = order // j
        base = euler_f(1, sub).mul(euler_f(4, sub)).div(euler_f(2, sub))
        return _from_unit_series(base, sign, j, order)
    if form != "sum":
        raise ValueError("form must be 'sum' or 'product'")
    out = [0] * (order + 1)
    n = 0
    while True:
        t = n * (n + 1) // 2
        if j * t > order:
            break
        out[j * t] += sign if t % 2 else 1
        n += 1
    return TruncatedSeries(out, order)


@lru_cache(maxsize=None)
def chi(sign: int, j: int, order: int) -> TruncatedSeries:
    """chi(sign*q^j): chi(-q) = (q; q^2)_inf and chi(q) = (-q; q^2)_inf."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if j < 1:
        raise ValueError("j must be >= 1")
    return expand_pochhammer(PochhammerFactor(-sign, j, 2 * j), order)


@lru_cache(maxsize=None)
def rr_quotient(j: int, order: int) -> TruncatedSeries:
    """The Rogers-Ramanujan quotient R(q^j) = f(-q^j, -q^4j) / f(-q^2j, -q^3j).

    By the triple product this is (q;q^5)(q^4;q^5) / ((q^2;q^5)(q^3;q^5))
    at q -> q^j; unit constant term, so the integer powers needed by the
    5-dissection formulas come from pow/invert on the expansion.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    num = ("theta_general", ThetaSpec(-1, j, -1, 4 * j))
    den = ("theta_general", ThetaSpec(-1, 2 * j, -1, 3 * j))
    return evaluate_side(((1, 0, ((num, 1), (den, -1))),), order)


# -- headline generating functions ------------------------------------------


@lru_cache(maxsize=None)
def gen_c5(order: int) -> TruncatedSeries:
    """Generating function of 5-core partition counts: f5^5 / f1."""
    return euler_f(5, order).pow(5).div(euler_f(1, order))


@lru_cache(maxsize=None)
def gen_a5bar(order: int) -> TruncatedSeries:
    """Generating function phi(-q^5)^5 / phi(-q)."""
    return phi(-1, 5, order).pow(5).div(phi(-1, 1, order))


@lru_cache(maxsize=None)
def gen_b5bar(order: int) -> TruncatedSeries:
    """Generating function psi(-q^5)^5 / psi(-q)."""
    return psi(-1, 5, order).pow(5).div(psi(-1, 1, order))


SEQUENCES = {"c5": gen_c5, "a5": gen_a5bar, "b5": gen_b5bar}


# -- theta quotients as data -------------------------------------------------
#
# A side of a series identity is a tuple of product terms
# (coeff, shift, ((atom, exponent), ...)), meaning the sum of
# coeff * q^shift * prod atom^exponent.  An atom names one series:
#
#   ("euler_f", j, sign)          f(sign*q^j)
#   ("phi", sign, j)              phi(sign*q^j)
#   ("psi", sign, j)              psi(sign*q^j)
#   ("theta_general", spec)       f(a, b) for a ThetaSpec
#   (name, m, r, s, k)            sum over n of name(m*n + r) * (s*q^k)^n,
#                                 name a key of SEQUENCES, s = +1 or -1
#
# Exponents may be negative: an atom divided by has unit constant term.


def _atom_series(atom: tuple, order: int) -> TruncatedSeries:
    """Expand one atom to the given order."""
    head, *args = atom
    if head == "euler_f":
        j, sign = args
        return euler_f(j, order, sign)
    if head == "phi":
        return phi(*args, order)
    if head == "psi":
        return psi(*args, order)
    if head == "theta_general":
        return theta_general(args[0], order)
    m, r, s, k = args
    inner = order // k
    base = SEQUENCES[head](m * inner + r).extract_ap(m, r)
    if s == -1:
        base = base.alternate()
    return base.inflate(k, order)


def evaluate_side(side: tuple, order: int) -> TruncatedSeries:
    """Expand one side, a sum of coeff * q^shift * prod atom^e, to the order.

    Each atom's lowest exponent over the terms (0 where a term lacks it) is
    factored out of the sum: the terms are summed with nonnegative
    exponents, the sum is multiplied by the atoms common to every term and
    then divided by the common denominator one atom at a time, so that a
    division costs the order times the nonzero terms of one theta or Euler
    product rather than of their dense product.  Powers of an atom are
    built once per side.  An atom appears at most once per term.
    """
    atoms = dict.fromkeys(atom for _, _, factors in side for atom, _ in factors)
    low = {atom: min(dict(factors).get(atom, 0) for _, _, factors in side)
           for atom in atoms}
    powers = {}

    def power(atom, e):
        table = powers.get(atom)
        if table is None:
            table = powers[atom] = [None, _atom_series(atom, order)]
        while len(table) <= e:
            table.append(table[-1].mul(table[1]))
        return table[e]

    total = None
    for coeff, shift, factors in side:
        exponents = dict(factors)
        product = None
        for atom in atoms:
            e = exponents.get(atom, 0) - low[atom]
            if e:
                factor = power(atom, e)
                product = factor if product is None else product.mul(factor)
        if product is None:
            product = TruncatedSeries.one(order)
        term = product.shift(shift).scale(coeff)
        total = term if total is None else total.add(term)
    for atom, e in low.items():
        if e > 0:
            total = total.mul(power(atom, e))
        for _ in range(-e):
            total = total.div(power(atom, 1))
    return total


# -- Jacobi triple product ---------------------------------------------------


def _poch_factors_for(coeff_sign: int, coeff_exp: int, base_sign: int, base_exp: int):
    """Factors of (c; Q)_inf with c = coeff_sign*q^coeff_exp, Q = base_sign*q^base_exp.

    A negative base splits over even/odd k into two factors on modulus
    2*base_exp.
    """
    if coeff_exp < 1:
        raise ValueError("triple product expansion needs strictly positive exponents")
    if base_sign == 1:
        return (PochhammerFactor(coeff_sign, coeff_exp, base_exp),)
    return (
        PochhammerFactor(coeff_sign, coeff_exp, 2 * base_exp),
        PochhammerFactor(-coeff_sign, coeff_exp + base_exp, 2 * base_exp),
    )


def triple_product(spec: ThetaSpec, order: int) -> TruncatedSeries:
    """Expand f(a, b) through (-a; ab)(-b; ab)(ab; ab) as q-products."""
    ab_sign = spec.s1 * spec.s2
    ab_exp = spec.e1 + spec.e2
    factors = (
        _poch_factors_for(-spec.s1, spec.e1, ab_sign, ab_exp)
        + _poch_factors_for(-spec.s2, spec.e2, ab_sign, ab_exp)
        + _poch_factors_for(ab_sign, ab_exp, ab_sign, ab_exp)
    )
    return expand_qproduct(QProductSpec(factors), order)
