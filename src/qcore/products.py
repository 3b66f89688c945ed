"""Constructors for the named series: Pochhammer factors, Euler products,
theta functions, the three headline generating functions (5-core counts and
their two theta-quotient analogs), and the evaluator for sums of their
quotients.

``theta_general`` sums f(a, b) over exactly the integer window whose
exponents fit under the truncation order; there are no heuristic cutoffs.
``euler_f``, ``phi`` and ``psi`` are its specializations.

Every named series is a side: a sum of product terms over atoms, which
``evaluate_side`` expands by running the side's plan (``plan_side``), its
products as (monomial, left, right) steps, through one table of the atoms
and products it reads (``plan_run``).  A ``shared_products`` block, as in
``identities.verify_all``, has one table for all of its sides, so that a
series several of them read is made once; any other side is a run of one.
The helpers ``F``, ``PHI``, ``PSI``, ``THETA``,
``SEQ``, ``POCH``, ``CHI``, ``R`` and ``P`` spell sides out; chi and the
Rogers-Ramanujan quotient R are quotients of atoms, not atoms.  A product
of Pochhammer factors, such as the Jacobi triple product, is a side of
``POCH`` atoms.  ``ThetaSpec`` and ``PochhammerFactor`` are named tuples,
so equal specs of the two kinds are equal; their atoms stay distinct by
their heads, ``"theta_general"`` and ``"expand_pochhammer"``.

The three sequences are sums of Eisenstein divisor sums (``FORMS``), and
only they keep their results past a call.  ``_closed_form`` evaluates a
sequence on any progression m*n + r with 0 <= r < m, the prefix being
m = 1, r = 0.  One cache holds the longest prefix of each sequence, keyed
by its name, and serves every lower order, and every progression inside
it, by slicing, which gives the same coefficients as a fresh build.  A
deeper progression is evaluated on its own n, through U_5 where m and the
argument's offset share a power of 5: b5(25n + 22) costs what the prefix
b5(n) to the same order costs.  A ``held_progressions`` block, which
each verification runs in, keeps it and reads it first until the block
ends.  Every read goes through the constructors in ``SEQUENCES``, which give the prefix or, with a
modulus m, the terms at exponents r mod m alone.  Series are immutable, so
sharing them across callers is safe.  ``sign_census`` counts a sequence's
signs, so a census needs no registry.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterable
from contextlib import contextmanager
from functools import reduce
from itertools import accumulate, count, repeat
from math import gcd, isqrt
from operator import add, floordiv

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


def F(j: int, sign: int = -1) -> tuple:
    """The Euler product f(sign*q^j); f_j when sign = -1."""
    return ("euler_f", j, sign)


def PHI(sign: int, j: int) -> tuple:
    return ("phi", sign, j)


def PSI(sign: int, j: int) -> tuple:
    return ("psi", sign, j)


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
# A monomial is a product of atom powers, the frozenset of its (atom, e)
# pairs, one pair per atom.  An atom's own monomial, {(atom, 1)}, is a leaf:
# the atom's series, from its constructor.

Plan = namedtuple("Plan", "steps terms common divisors")


def _leaf(atom: tuple) -> frozenset:
    return frozenset(((atom, 1),))


def plan_side(side: tuple) -> Plan:
    """The products that ``evaluate_side`` makes for a side, as data.

    Each atom's lowest exponent over the terms (0 where a term lacks it) is
    factored out of the sum, except that a one-term side keeps its positive
    exponents.  ``terms`` holds each term as (coeff, shift, monomial), the
    monomial of its remaining exponents or None for 1.  ``common`` lists
    the power of each atom factored out of several terms, which multiplies
    the sum, one at a time.  ``divisors`` lists each atom divided by, with
    how many times.
    ``steps`` maps each monomial that is a product to its (left, right)
    factors, a factor before the product it makes: a power of an atom by
    squaring, x^2k = x^k * x^k and x^(k+1) = x^k * x, and a product of
    powers by chaining them in the order the atoms are first seen in the
    side.
    """
    exponents = [dict(factors) for _, _, factors in side]
    atoms = tuple(dict.fromkeys(atom for term in exponents for atom in term))
    low = {atom: min(term.get(atom, 0) for term in exponents) for atom in atoms}
    if len(side) == 1:
        low = {atom: min(e, 0) for atom, e in low.items()}
    steps = {}

    def power(atom, e):
        mono = frozenset(((atom, e),))
        if e > 1 and mono not in steps:
            if e % 2:
                left, right = power(atom, e - 1), power(atom, 1)
            else:
                left = right = power(atom, e // 2)
            steps[mono] = left, right
        return mono

    def product(pairs):
        mono = None
        for atom, e in pairs:
            if e:
                factor = power(atom, e)
                if mono is None:
                    mono = factor
                else:
                    left, mono = mono, mono | factor
                    steps.setdefault(mono, (left, factor))
        return mono

    terms = tuple((coeff, shift, product((atom, term.get(atom, 0) - low[atom]) for atom in atoms))
                  for (coeff, shift, _), term in zip(side, exponents))
    common = tuple(power(atom, e) for atom, e in low.items() if e > 0)
    divisors = tuple((atom, -e) for atom, e in low.items() if e < 0)
    return Plan(steps, terms, common, divisors)


def _read(table: dict, key: tuple, steps: dict) -> int:
    """Count one read of key, a (monomial, order), into the table and, when
    it is the key's first, one read of each factor that ``steps`` makes
    the product from; the number of products read for the first time."""
    entry = table.setdefault(key, [0, None])
    entry[0] += 1
    mono, order = key
    if entry[0] > 1 or mono not in steps:
        return 0
    return 1 + sum(_read(table, (factor, order), steps) for factor in steps[mono])


RunPlan = namedtuple("RunPlan", "table sides products")


def plan_run(sides: Iterable[tuple]) -> RunPlan:
    """The table for evaluating each (side, order) of ``sides`` in turn.

    ``table`` maps each (monomial, order) that the run reads, leaves and
    products alike, to [how many times it is read, None].  A side reads the
    monomial of each term, each entry of its ``common`` and each divisor's
    leaf; the first side to read a product makes it, and so also reads its
    two factors, and a later side reads the product alone.  ``sides`` lists
    each (side, order, plan), the plan from ``plan_side``; ``products``
    counts the ``mul`` calls of the whole run, one per product in the table
    and one per entry of a side's ``common``."""
    table, planned, products = {}, [], 0
    for side, order in sides:
        plan = plan_side(side)
        reads = [mono for _, _, mono in plan.terms if mono is not None] + list(plan.common)
        reads += (_leaf(atom) for atom, _ in plan.divisors)
        products += len(plan.common) + sum(_read(table, (mono, order), plan.steps)
                                           for mono in reads)
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


def _take(table: dict, steps: dict, key: tuple) -> TruncatedSeries:
    """Read key, a (monomial, order), from the table: its series, made on
    the first read, a leaf by its atom's constructor and a product by one
    ``mul`` of the factors in ``steps``, and dropped after the last."""
    entry = table[key]
    if entry[1] is None:
        mono, order = key
        if mono in steps:
            left, right = steps[mono]
            entry[1] = _take(table, steps, (left, order)).mul(_take(table, steps, (right, order)))
        else:
            (atom, _), = mono
            entry[1] = _atom_series(atom, order)
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
    all.  An atom appears at most once per term, as ``P`` writes it.

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

    def take(mono):
        return _take(table, plan.steps, (mono, order))

    if not plan.terms:
        return TruncatedSeries.zero(order)
    terms = ((TruncatedSeries.one(order) if mono is None else take(mono)).shift(shift).scale(coeff)
             for coeff, shift, mono in plan.terms)
    total = reduce(TruncatedSeries.add, terms)
    for mono in plan.common:
        total = total.mul(take(mono))
    for atom, times in plan.divisors:
        x = take(_leaf(atom))
        for _ in range(times):
            total = total.div(x)
    return total


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
    up to m*order + offset.  x = 0 is E15's constant term -1/5 alone."""
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
        if e == d and n <= order:       # (d, d) is one pair, added twice below
            acc[n] -= chi_d * (a_d + d * b_d)
        stride = period * step
        for start in range(n, min(n + stride, order + 1), step):
            chi_e = _LEGENDRE_5[e % 5]
            c0 = chi_e * a_d + chi_d * d * beta[e % big]
            c1 = chi_d * alpha[e % big] + chi_e * b_d
            acc[start::stride] = map(add, acc[start::stride],
                                     count(c0 + c1 * e, period * de * c1))
            e += de
    return TruncatedSeries(map(floordiv, acc, repeat(big * form.divisor)), order)


# name -> the longest prefix of the sequence evaluated so far; a lower order
# and a progression inside it are read off by slicing
_EXPANSIONS: dict = {}

# (name, m, r) -> the longest progression m*n + r, m > 1, evaluated in the
# running held_progressions block; None outside one
_HELD: dict | None = None


@contextmanager
def held_progressions():
    """Run the block keeping each progression that ``_expansion`` evaluates,
    and reading it first, so that a later read at a lower order, as when a
    mismatch is expanded again, comes from the same evaluation.  An inner
    block runs in the outer one's table."""
    global _HELD
    if _HELD is not None:
        yield
        return
    _HELD = {}
    try:
        yield
    finally:
        _HELD = None


def _expansion(name: str, m: int, r: int, order: int) -> TruncatedSeries:
    """name(m*n + r) for n = 0..order, 0 <= r < m: the progression held by
    the running ``held_progressions`` block when it reaches the order, else
    a slice of the cached prefix when that reaches m*order + r, else
    ``_closed_form``'s evaluation, cached when it is the prefix (m = 1),
    else held."""
    held = (_HELD or {}).get((name, m, r))
    if held is not None and held.order >= order:
        return held.truncate(order)
    prefix = _EXPANSIONS.get(name)
    if prefix is not None and prefix.order >= m * order + r:
        if m == 1:
            return prefix.truncate(order)
        return TruncatedSeries(prefix.coeffs[r:m * order + r + 1:m], order)
    series = _closed_form(FORMS[name], m, r, order)
    if m == 1:
        _EXPANSIONS[name] = series
    elif _HELD is not None:
        _HELD[name, m, r] = series
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

