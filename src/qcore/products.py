"""Constructors for the named series: Pochhammer factors, Euler products,
theta functions, and the evaluator for sums of their quotients, whose
sequence atoms read the three headline generating functions (5-core counts
and their two theta-quotient analogs) of ``sequences``.

``theta_general`` sums f(a, b) over exactly the integer window whose
exponents fit under the truncation order; there are no heuristic cutoffs.
``euler_f``, ``phi`` and ``psi`` are its specializations.

Every named series is a side: a sum of product terms over atoms, which
``evaluate_side`` expands by running the side's plan (``plan_side``)
through one table of the atoms and products it reads (``plan_run``).  A
product's monomial names its atoms in the order the side first names them,
and that order is its recipe (``_factors``).  A ``shared_products`` block,
as in ``identities.verify_all``, has one table for all of its sides, so
that a series several of them read is made once; any other side is a run
of one.  The helpers ``F``, ``PHI``, ``PSI``, ``THETA``,
``SEQ``, ``POCH``, ``CHI``, ``R`` and ``P`` spell sides out; chi and the
Rogers-Ramanujan quotient R are quotients of atoms, not atoms.  A product
of Pochhammer factors, such as the Jacobi triple product, is a side of
``POCH`` atoms.  ``ThetaSpec`` and ``PochhammerFactor`` are named tuples,
so equal specs of the two kinds are equal; their atoms stay distinct by
their heads, ``"theta_general"`` and ``"expand_pochhammer"``.

The three sequences, their closed forms and their one prefix cache are
defined in ``sequences``, which makes no product.  Their constructors,
``gen_c5``, ``gen_a5bar`` and ``gen_b5bar``, are names of this module as
well, the same objects.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterable
from contextlib import contextmanager
from functools import reduce
from itertools import accumulate, count

from .sequences import PHI, PSI, SEQUENCES, F, P, gen_a5bar, gen_b5bar, gen_c5  # noqa: F401
from .series import TruncatedSeries


class PochhammerFactor(namedtuple("PochhammerFactor", "sign offset modulus exponent")):
    """One factor (sign*q^offset; q^modulus)_inf^exponent."""

    __slots__ = ()

    def __new__(cls, sign: int, offset: int, modulus: int, exponent: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if offset < 1 or modulus < 1:
            raise ValueError("offset and modulus must be >= 1")
        return super().__new__(cls, sign, offset, modulus, exponent)


class ThetaSpec(namedtuple("ThetaSpec", "s1 e1 s2 e2")):
    """The two-monomial theta f(a, b) with a = s1*q^e1 and b = s2*q^e2."""

    __slots__ = ()

    def __new__(cls, s1: int, e1: int, s2: int, e2: int):
        if s1 not in (1, -1) or s2 not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if e1 < 0 or e2 < 0:
            raise ValueError("exponents must be >= 0")
        if e1 + e2 < 1:
            raise ValueError("need e1 + e2 >= 1 for convergence")
        return super().__new__(cls, s1, e1, s2, e2)


# -- product expansion ------------------------------------------------------


def _binomial_product(sign: int, offset: int, modulus: int, order: int) -> list:
    """(sign*q^offset; q^modulus)_inf to the given order, exponent 1, by
    Euler's sum over n >= 0 of (-sign)^n q^(n*offset + modulus*n(n-1)/2)
    / (q^modulus; q^modulus)_n.

    The n-th term starts past the order once n ~ sqrt(2*order/modulus), and
    each costs O(order): 1/(q^M; q^M)_n is 1/(q^M; q^M)_(n-1) divided by
    (1 - q^(nM)), a prefix sum over every residue class mod nM.  So the
    whole product is O(order^1.5) where multiplying factor by factor is
    O(order^2 / modulus).
    """
    out = [1] + [0] * order
    inv = out[:]            # 1/(q^M; q^M)_n, kept to the order the n-th term reaches
    n, start = 1, offset
    while start <= order:
        del inv[order - start + 1:]
        step = n * modulus
        for r in range(min(step, len(inv))):
            inv[r::step] = accumulate(inv[r::step])
        term = inv if sign == -1 or n % 2 == 0 else [-c for c in inv]
        out[start:] = map(int.__add__, out[start:], term)
        n, start = n + 1, start + offset + n * modulus
    return out


def expand_pochhammer(factor: PochhammerFactor, order: int) -> TruncatedSeries:
    """Exact expansion of a single Pochhammer factor, any integer exponent:
    the sparse product is raised to |exponent| and then inverted once."""
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


# -- bilateral sums ---------------------------------------------------------


def theta_general(spec: ThetaSpec, order: int) -> TruncatedSeries:
    """f(a, b) = sum over all integers n of a^(n(n+1)/2) * b^(n(n-1)/2).

    The exponent e1*n(n+1)/2 + e2*n(n-1)/2 is strictly increasing for
    n >= 1 and for n <= -1 (since e1 + e2 >= 1), so each direction stops
    at the first exponent past the order.
    """
    s1, e1, s2, e2 = spec
    out = [0] * (order + 1)
    for ns in (count(0), count(-1, -1)):
        for n in ns:
            t1 = n * (n + 1) // 2
            t2 = n * (n - 1) // 2
            exp = e1 * t1 + e2 * t2
            if exp > order:
                break
            out[exp] += (s1 if t1 % 2 else 1) * (s2 if t2 % 2 else 1)
    return TruncatedSeries(out, order)


# -- named theta specializations --------------------------------------------


def _theta_step(sign: int, j: int) -> None:
    """Refuse a step j < 1 or a sign other than +1 or -1 for f, phi and psi."""
    if j < 1:
        raise ValueError("j must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")


def euler_f(j: int, order: int, sign: int = -1) -> TruncatedSeries:
    """The Euler product f(sign*q^j) = f(sign*q^j, -q^2j); f_j = (q^j; q^j)_inf
    when sign = -1 (the pentagonal-number sum)."""
    _theta_step(sign, j)
    return theta_general(ThetaSpec(sign, j, -1, 2 * j), order)


def phi(sign: int, j: int, order: int) -> TruncatedSeries:
    """phi(sign*q^j) = f(sign*q^j, sign*q^j) = sum over n of (sign*q^j)^(n^2)."""
    _theta_step(sign, j)
    return theta_general(ThetaSpec(sign, j, sign, j), order)


def psi(sign: int, j: int, order: int) -> TruncatedSeries:
    """psi(sign*q^j) = f(sign*q^j, sign*q^3j) = sum over n >= 0 of
    (sign*q^j)^(n(n+1)/2)."""
    _theta_step(sign, j)
    return theta_general(ThetaSpec(sign, j, sign, 3 * j), order)


# -- sides: sums of theta quotients as data -----------------------------------
#
# A side of a series identity is a tuple of product terms
# (coeff, shift, ((atom, exponent), ...)), meaning the sum of
# coeff * q^shift * prod atom^exponent.  An atom names one series:
#
#   ("euler_f", j, sign)          f(sign*q^j)
#   ("phi", sign, j)              phi(sign*q^j)
#   ("psi", sign, j)              psi(sign*q^j)
#   ("theta_general", spec)       f(a, b) for a ThetaSpec
#   ("expand_pochhammer", factor) (sign*q^offset; q^modulus)_inf^exponent
#                                 for a PochhammerFactor
#   (name, m, r, s, k)            sum over n of name(m*n + r) * (s*q^k)^n,
#                                 name a key of SEQUENCES, m >= 1, r any
#                                 integer (name at a negative index is 0),
#                                 s = +1 or -1, k >= 1
#
# Exponents may be negative: an atom divided by has unit constant term.
# F, PHI, PSI and P, the helpers the sequences' product sides are written
# in, are defined in ``sequences`` and imported from there.


def THETA(s1: int, e1: int, s2: int, e2: int) -> tuple:
    """f(s1*q^e1, s2*q^e2)."""
    return ("theta_general", ThetaSpec(s1, e1, s2, e2))


def POCH(sign: int, offset: int, modulus: int, exponent: int = 1) -> tuple:
    """(sign*q^offset; q^modulus)_inf^exponent.

    The exponent stays inside the atom: the sparse product is raised to
    |exponent| before the one inversion, where a side exponent of -|Z| would
    divide |Z| times by a dense product.
    """
    return ("expand_pochhammer", PochhammerFactor(sign, offset, modulus, exponent))


def SEQ(name: str, m: int = 1, r: int = 0, s: int = 1, k: int = 1) -> tuple:
    """sum over n of name(m*n + r) * (s*q^k)^n; name at a negative index is 0."""
    return (name, m, r, s, k)


def CHI(sign: int, j: int) -> tuple:
    """The factors of chi(sign*q^j) = f(sign*q^j) / f(-q^2j).

    chi(-q) = (q; q^2)_inf and chi(q) = (-q; q^2)_inf: the odd factors of
    (-sign*q^j; -sign*q^j)_inf are chi's, its even ones are f(-q^2j).  The
    quotient costs one division by a sparse Euler product, O(order^1.5).
    """
    _theta_step(sign, j)
    return ((F(j, sign), 1), (F(2 * j), -1))


def R(j: int, p: int = 1) -> tuple:
    """The factors of R(q^j)^p, R(q) = f(-q, -q^4) / f(-q^2, -q^3) the
    Rogers-Ramanujan quotient; by the triple product R(q) is
    (q;q^5)(q^4;q^5) / ((q^2;q^5)(q^3;q^5))."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return ((THETA(-1, j, -1, 4 * j), p), (THETA(-1, 2 * j, -1, 3 * j), -p))


def _atom_series(atom: tuple, order: int) -> TruncatedSeries:
    """Expand one atom to the given order.

    A sequence atom reads its progression to order // k through the
    constructor in ``SEQUENCES``: the prefix, or the part of the
    generating function at the progression's residue, to its largest
    index.  So a wrapper of a constructor, such as a tracer or an injected
    fault, sees every value an atom reads at that value's own index.  The
    terms at a negative index are the zeros put in here, the only place that
    meets one.  The plain atom (name, 1, 0, 1, 1) is the cached prefix itself.
    """
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
    if head == "expand_pochhammer":
        return expand_pochhammer(args[0], order)
    m, r, s, k = args
    inner = order // k                  # the progression's own order
    if (m, r) == (1, 0):
        series = SEQUENCES[head](inner)
    else:
        first = max(0, -(r // m))       # the first n with m*n + r >= 0
        vals = (0,) * min(first, inner + 1)
        if first <= inner:
            vals += SEQUENCES[head](m * inner + r, m, r).coeffs[m * first + r::m]
        series = TruncatedSeries(vals, inner)
    if s == -1:
        series = series.alternate()
    return series.inflate(k, order)


# -- evaluating a side: a plan of products ------------------------------------
#
# A monomial is a product of atom powers, the tuple of its (atom, e) pairs,
# one pair per atom, in the order its side first names the atoms; () is 1.
# That order is its recipe (``_factors``).  The run table keys a monomial by
# the set of its pairs, so that sides naming the same atoms in other orders
# read one entry.  An atom's own monomial, ((atom, 1),), is a leaf: the
# atom's series, from its constructor.

Plan = namedtuple("Plan", "terms common divisors")


def _leaf(atom: tuple) -> tuple:
    return ((atom, 1),)


def _factors(mono: tuple) -> tuple | None:
    """The two monomials whose ``mul`` makes mono, or None for a leaf: a
    power of an atom by squaring, x^2k = x^k * x^k and x^(k+1) = x^k * x,
    and a product of powers as all its pairs but the last times the last."""
    if len(mono) > 1:
        return mono[:-1], mono[-1:]
    (atom, e), = mono
    if e == 1:
        return None
    if e % 2:
        return ((atom, e - 1),), _leaf(atom)
    half = ((atom, e // 2),)
    return half, half


def plan_side(side: tuple) -> Plan:
    """The products that ``evaluate_side`` makes for a side, as data.

    Each atom's lowest exponent over the terms (0 where a term lacks it) is
    factored out of the sum, except that a one-term side keeps its positive
    exponents.  ``terms`` holds each term as (coeff, shift, monomial), the
    monomial of its remaining exponents, () for 1.  ``common`` lists the
    power of each atom factored out of several terms, which multiplies the
    sum, one at a time.  ``divisors`` lists each atom divided by, with how
    many times.  Every monomial names its atoms in the order the side first
    names them, and ``_factors`` makes it from that order.
    """
    exponents = [dict(factors) for _, _, factors in side]
    atoms = tuple(dict.fromkeys(atom for term in exponents for atom in term))
    low = {atom: min(term.get(atom, 0) for term in exponents) for atom in atoms}
    if len(side) == 1:
        low = {atom: min(e, 0) for atom, e in low.items()}
    terms = tuple((coeff, shift, tuple((atom, e) for atom in atoms
                                       if (e := term.get(atom, 0) - low[atom])))
                  for (coeff, shift, _), term in zip(side, exponents))
    common = tuple(((atom, e),) for atom, e in low.items() if e > 0)
    divisors = tuple((atom, -e) for atom, e in low.items() if e < 0)
    return Plan(terms, common, divisors)


def _read(table: dict, mono: tuple, order: int) -> int:
    """Count one read of (mono, order) into the table and, when it is the
    entry's first, one read of each of its ``_factors``; the number of
    products read for the first time."""
    entry = table.setdefault((frozenset(mono), order), [0, None])
    entry[0] += 1
    if entry[0] > 1 or (factors := _factors(mono)) is None:
        return 0
    return 1 + sum(_read(table, factor, order) for factor in factors)


RunPlan = namedtuple("RunPlan", "table sides products")


def plan_run(sides: Iterable[tuple]) -> RunPlan:
    """The table for evaluating each (side, order) of ``sides`` in turn.

    ``table`` maps each (set of a monomial's pairs, order) that the run
    reads, leaves and products alike, to [how many times it is read, None].
    A side reads the monomial of each term, each entry of its ``common`` and
    each divisor's leaf; the first side to read a product makes it, and so
    also reads its two ``_factors``, and a later side reads the product
    alone, whatever order it names the atoms in.  ``sides`` lists
    each (side, order, plan), the plan from ``plan_side``; ``products``
    counts the ``mul`` calls of the whole run, one per product in the table
    and one per entry of a side's ``common``."""
    table, planned, products = {}, [], 0
    for side, order in sides:
        plan = plan_side(side)
        reads = [mono for _, _, mono in plan.terms if mono] + list(plan.common)
        reads += (_leaf(atom) for atom, _ in plan.divisors)
        products += len(plan.common) + sum(_read(table, mono, order) for mono in reads)
        planned.append((side, order, plan))
    return RunPlan(table, planned, products)


# the running ``shared_products`` block: its table, (monomial, order) ->
# [reads left, its series or None], and the (side, order, plan) still to run
_RUN: dict = {}
_SIDES: deque = deque()


@contextmanager
def shared_products(sides: Iterable[tuple]):
    """Run the block, which evaluates each (side, order) of ``sides`` in
    turn, with one table for all of them (``plan_run``): each leaf and
    product is made once, on its first read, and dropped after its last.
    The table is empty when the block ends, however it ends."""
    run = plan_run(sides)
    _RUN.update(run.table)
    _SIDES.extend(run.sides)
    del run             # so that a dropped entry's series is freed
    try:
        yield
    finally:
        _RUN.clear()
        _SIDES.clear()


def _take(table: dict, mono: tuple, order: int) -> TruncatedSeries:
    """Read (mono, order) from the table: its series, made on the first
    read, a leaf by its atom's constructor and a product by one ``mul`` of
    its ``_factors``, and dropped after the last."""
    key = frozenset(mono), order
    entry = table[key]
    if entry[1] is None:
        factors = _factors(mono)
        if factors is None:
            (atom, _), = mono
            entry[1] = _atom_series(atom, order)
        else:
            left, right = factors
            entry[1] = _take(table, left, order).mul(_take(table, right, order))
    entry[0] -= 1
    if not entry[0]:
        del table[key]
    return entry[1]


def evaluate_side(side: tuple, order: int) -> TruncatedSeries:
    """Expand one side, a sum of coeff * q^shift * prod atom^e, to the order,
    by running its plan (``plan_side``).

    The terms are summed with nonnegative exponents, the sum is multiplied
    by every atom common to all terms and only then divided by the common
    denominator, one atom at a time.  A dense series times a theta or Euler
    atom costs about one pass over it per nonzero term of the atom
    (``mul``), where after a division it would be a product of two dense
    series; a division costs the order times the nonzero terms of one atom
    rather than of their dense product.  ``identities`` clears the
    denominators of a series identity, so that its sides do not divide at
    all; only 1/D, to a mismatch's index, does.  An atom appears at most
    once per term, as ``P`` writes it.

    The side reads its leaves and products from a table (``plan_run``),
    each made on its first read and dropped after its last.  The side that
    a running ``shared_products`` block plans next reads the block's table,
    and so what the block's earlier sides made; any other side is a run of
    one, with a table of its own.  A one-term side multiplies nothing into
    its term's product: its coefficient and power of q are a ``scale`` and
    a ``shift``.  A side with no terms is the zero series.
    """
    if _SIDES and _SIDES[0][:2] == (side, order):
        plan, table = _SIDES.popleft()[2], _RUN
    else:
        run = plan_run([(side, order)])
        plan, table = run.sides[0][2], run.table

    if not plan.terms:
        return TruncatedSeries.zero(order)
    terms = ((_take(table, mono, order) if mono else TruncatedSeries.one(order))
             .shift(shift).scale(coeff) for coeff, shift, mono in plan.terms)
    total = reduce(TruncatedSeries.add, terms)
    for mono in plan.common:
        total = total.mul(_take(table, mono, order))
    for atom, times in plan.divisors:
        x = _take(table, _leaf(atom), order)
        for _ in range(times):
            total = total.div(x)
    return total
