"""Declarative registry of every verified identity.

Each record states one claim about the sequences c5 (5-core counts),
a5 (coefficients of phi(-q^5)^5/phi(-q)) and b5 (coefficients of
psi(-q^5)^5/psi(-q)), or one series identity among the theta/eta products.
Records are data plus a human-readable statement: a series identity lists
its sides as sums of theta and Euler quotients, which
``products.evaluate_side`` expands, and the other kinds list subsequence
terms.  The evaluator in ``identities`` dispatches purely on record type,
so adding a claim here never touches the verification code.

Record kinds
    SeriesEquality        all listed sides agree coefficient by coefficient
    SubsequenceRelation   seq(stride*n + offset) equals a linear combination
                          of other subsequence terms, for every n in range
    RecurrenceFamily      a SubsequenceRelation shape parameterized by k
    Congruence            a linear combination is divisible by a fixed modulus
    CongruenceFamily      same, with stride/offset/modulus depending on k
    CensusRecord          sign-frequency lower bounds over indices 1..N

Terms use the convention that a sequence read at a negative index is 0,
so relations like b5(4n+1) = c5(n) - 2 b5(2n-1) include their n = 0 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Tuple, Union

from .products import ThetaSpec

CORE = "core"
EXTENDED = "extended"


@dataclass(frozen=True)
class Term:
    """scale * seq(stride*n + offset); negative indices read as 0."""

    seq: str
    stride: int
    offset: int = 0
    scale: Fraction = Fraction(1)


def T(seq: str, stride: int, offset: int = 0, scale=1) -> Term:
    return Term(seq, stride, offset, Fraction(scale))


@dataclass(frozen=True)
class SeriesEquality:
    id: str
    tier: str
    statement: str
    sides: Tuple[tuple, ...]
    kind: str = "series-equality"

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(tuple(side) for side in self.sides))


@dataclass(frozen=True)
class SubsequenceRelation:
    id: str
    tier: str
    statement: str
    lhs: Term
    rhs: Tuple[Term, ...]
    kind: str = "subsequence-relation"


@dataclass(frozen=True)
class RecurrenceFamily:
    id: str
    tier: str
    statement: str
    lhs_for: Callable[[int], Term]
    rhs_for: Callable[[int], Tuple[Term, ...]]
    kind: str = "recurrence-family"


@dataclass(frozen=True)
class Congruence:
    id: str
    tier: str
    statement: str
    terms: Tuple[Term, ...]
    modulus: int
    kind: str = "congruence-family"


@dataclass(frozen=True)
class CongruenceFamily:
    id: str
    tier: str
    statement: str
    terms_for: Callable[[int], Tuple[Term, ...]]
    modulus_for: Callable[[int], int]
    kind: str = "congruence-family"


@dataclass(frozen=True)
class CensusRecord:
    id: str
    tier: str
    statement: str
    seq: str
    zero_min: Fraction
    positive_min: Fraction
    negative_min: Fraction
    kind: str = "census"


Record = Union[
    SeriesEquality,
    SubsequenceRelation,
    RecurrenceFamily,
    Congruence,
    CongruenceFamily,
    CensusRecord,
]


# -- series-equality sides ---------------------------------------------------
#
# A side is a tuple of product terms in the form ``products.evaluate_side``
# reads; every side of a record must agree coefficient by coefficient.


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


def SEQ(name: str, m: int = 1, r: int = 0, s: int = 1, k: int = 1) -> tuple:
    """sum over n of name(m*n + r) * (s*q^k)^n."""
    return (name, m, r, s, k)


def P(coeff: int, shift: int, *factors) -> tuple:
    """coeff * q^shift * prod atom^e; a factor is (atom, e), or an atom for e = 1."""
    pairs = tuple(f if isinstance(f[0], tuple) else (f, 1) for f in factors)
    return (coeff, shift, tuple((atom, e) for atom, e in pairs if e))


# R(q^5) = f(-q^5, -q^20) / f(-q^10, -q^15), by the triple product.
R5_NUM = THETA(-1, 5, -1, 20)
R5_DEN = THETA(-1, 10, -1, 15)


def R5(p: int) -> tuple:
    """The factors of R(q^5)^p."""
    return ((R5_NUM, p), (R5_DEN, -p))


def add_record(registry: Dict[str, "Record"], record: "Record", replace: bool = False) -> None:
    """Insert a record, refusing a taken id or a series equality whose sides
    repeat another record's, which would check nothing new."""
    if not replace and record.id in registry:
        raise ValueError(f"duplicate identity id {record.id}")
    if isinstance(record, SeriesEquality):
        sides = frozenset(record.sides)
        for other in registry.values():
            if (isinstance(other, SeriesEquality) and other.id != record.id
                    and frozenset(other.sides) == sides):
                raise ValueError(f"{record.id} repeats the sides of {other.id}")
    registry[record.id] = record


# -- the registry ------------------------------------------------------------


def build_registry() -> Dict[str, Record]:
    records = []

    def eq(rid, tier, statement, *sides):
        records.append(SeriesEquality(rid, tier, statement, sides))

    def rel(rid, tier, statement, lhs, *rhs):
        records.append(SubsequenceRelation(rid, tier, statement, lhs, tuple(rhs)))

    # six theta-product identities
    eq("lemma.phimodeq", CORE,
       "phi(q^5)^5/phi(q) + 4q f(q^5)^5/f(q) = phi(q) phi(q^5)^3",
       [P(1, 0, (PHI(1, 5), 5), (PHI(1, 1), -1)), P(4, 1, (F(5, 1), 5), (F(1, 1), -1))],
       [P(1, 0, PHI(1, 1), (PHI(1, 5), 3))])
    eq("lemma.phimodeqfora5", CORE,
       "phi(q)^2 - phi(q^5)^2 = 4q chi(q) f5 f20",
       [P(1, 0, (PHI(1, 1), 2)), P(-1, 0, (PHI(1, 5), 2))],
       [P(4, 1, F(1, 1), (F(2), -1), F(5), F(20))])  # chi(q) = f(q)/f2
    eq("lemma.psimodeq", CORE,
       "psi(-q^5)^5/psi(-q) - psi(q^5)^5/psi(q) = 4q^3 psi(q^10)^5/psi(q^2) + 2q f20^5/f4",
       [P(1, 0, (PSI(-1, 5), 5), (PSI(-1, 1), -1)), P(-1, 0, (PSI(1, 5), 5), (PSI(1, 1), -1))],
       [P(4, 3, (PSI(1, 10), 5), (PSI(1, 2), -1)), P(2, 1, (F(20), 5), (F(4), -1))])
    eq("lemma.psimodeqforb5", CORE,
       "psi(q)^2 - q psi(q^5)^2 = f(-q^5) phi(-q^5)/chi(-q) = f(q,q^4) f(q^2,q^3)",
       [P(1, 0, (PSI(1, 1), 2)), P(-1, 1, (PSI(1, 5), 2))],
       [P(1, 0, F(5), PHI(-1, 5), F(2), (F(1), -1))],  # chi(-q) = f1/f2
       [P(1, 0, THETA(1, 1, 1, 4), THETA(1, 2, 1, 3))])
    eq("lemma.f5modeg", CORE,
       "f5^5/f1 - 4q^3 f20^5/f4 = f(q^5)^5/f(q) + 2q f10^5/f2",
       [P(1, 0, (F(5), 5), (F(1), -1)), P(-4, 3, (F(20), 5), (F(4), -1))],
       [P(1, 0, (F(5, 1), 5), (F(1, 1), -1)), P(2, 1, (F(10), 5), (F(2), -1))])
    eq("lemma.A4B", CORE,
       "f2^2/f1^4 = f10^2/f5^4 + 4q f2 f10^5/(f1^3 f5^5)",
       [P(1, 0, (F(2), 2), (F(1), -4))],
       [P(1, 0, (F(10), 2), (F(5), -4)), P(4, 1, F(2), (F(10), 5), (F(1), -3), (F(5), -5))])

    # two 5-core subsequence identities
    rel("lemma.c4n1", CORE, "c5(4n+1) = c5(2n)", T("c5", 4, 1), T("c5", 2, 0))
    rel("lemma.c5n4", CORE, "c5(5n+4) = 5 c5(n)", T("c5", 5, 4), T("c5", 1, 0, 5))

    # the four closed-form 5-dissections
    eq("dissection.f1_5", CORE,
       "f1 = f25 (1/R(q^5) - q - q^2 R(q^5))",
       [P(1, 0, F(1))],
       [P(1, 0, F(25), *R5(-1)), P(-1, 1, F(25)), P(-1, 2, F(25), *R5(1))])
    eq("dissection.inv_f1_5", CORE,
       "1/f1 = f25^5/f5^6 * (R^-4 + q R^-3 + 2q^2 R^-2 + 3q^3 R^-1 + 5q^4"
       " - 3q^5 R + 2q^6 R^2 - q^7 R^3 + q^8 R^4), R = R(q^5)",
       [P(1, 0, (F(1), -1))],
       [P(c, i, (F(25), 5), (F(5), -6), *R5(p)) for i, (c, p) in enumerate(
           [(1, -4), (1, -3), (2, -2), (3, -1), (5, 0), (-3, 1), (2, 2), (-1, 3), (1, 4)])])
    eq("dissection.phi_5", CORE,
       "phi(q) = phi(q^25) + 2q f(q^15,q^35) + 2q^4 f(q^5,q^45)",
       [P(1, 0, PHI(1, 1))],
       [P(1, 0, PHI(1, 25)), P(2, 1, THETA(1, 15, 1, 35)), P(2, 4, THETA(1, 5, 1, 45))])
    eq("dissection.psi_5", CORE,
       "psi(q) = f(q^10,q^15) + q f(q^5,q^20) + q^3 psi(q^25)",
       [P(1, 0, PSI(1, 1))],
       [P(1, 0, THETA(1, 10, 1, 15)), P(1, 1, THETA(1, 5, 1, 20)), P(1, 3, PSI(1, 25))])

    # a5 subsequence relations
    rel("thm1.a5n2", CORE, "a5(5n+2) = 4 c5(5n+1)", T("a5", 5, 2), T("c5", 5, 1, 4))
    rel("thm1.a5n3", CORE, "a5(5n+3) = 4 c5(5n+2)", T("a5", 5, 3), T("c5", 5, 2, 4))
    rel("thm1.a10n1", CORE, "a5(10n+1) = 2 c5(10n)", T("a5", 10, 1), T("c5", 10, 0, 2))
    rel("thm1.a10n9", CORE, "a5(10n+9) = 2 c5(10n+8)", T("a5", 10, 9), T("c5", 10, 8, 2))
    rel("thm1.a20n6", CORE, "a5(20n+6) = 10 c5(10n+2)", T("a5", 20, 6), T("c5", 10, 2, 10))
    rel("thm1.a20n14", CORE, "a5(20n+14) = 10 c5(10n+6)",
        T("a5", 20, 14), T("c5", 10, 6, 10))
    records.append(RecurrenceFamily(
        "thm1.recurrence", CORE,
        "a5(5^k n) = (5^k-1)/4 * a5(5n) - (5^k-5)/4 * a5(n), k >= 2",
        lambda k: T("a5", 5 ** k, 0),
        lambda k: (T("a5", 5, 0, (5 ** k - 1) // 4), T("a5", 1, 0, -((5 ** k - 5) // 4))),
    ))

    # a5 congruences
    records.append(Congruence(
        "cor1.mod10a", CORE, "a5(20n+6) == 0 (mod 10)", (T("a5", 20, 6),), 10))
    records.append(Congruence(
        "cor1.mod10b", CORE, "a5(20n+14) == 0 (mod 10)", (T("a5", 20, 14),), 10))
    records.append(CongruenceFamily(
        "cor1.mod5k", CORE,
        "4 a5(5^k n) == 5 a5(n) - a5(5n) (mod 5^k), k >= 2",
        lambda k: (T("a5", 5 ** k, 0, 4), T("a5", 1, 0, -5), T("a5", 5, 0, 1)),
        lambda k: 5 ** k,
    ))

    # b5 recurrences
    rel("thm2.b4n3", CORE, "b5(4n+3) = 2 b5(2n)", T("b5", 4, 3), T("b5", 2, 0, 2))
    records.append(RecurrenceFamily(
        "thm2.recurrence", CORE,
        "b5(5^k(n+3)-3) = (5^k-1)/4 * b5(5n+12) - (5^k-5)/4 * b5(n), k >= 2",
        lambda k: T("b5", 5 ** k, 3 * 5 ** k - 3),
        lambda k: (T("b5", 5, 12, (5 ** k - 1) // 4), T("b5", 1, 0, -((5 ** k - 5) // 4))),
    ))

    # b5 subsequence relations
    rel("thm3.b5_4n_1", CORE, "b5(4n+1) = c5(n) - 2 b5(2n-1)",
        T("b5", 4, 1), T("c5", 1, 0), T("b5", 2, -1, -2))
    rel("thm3.b5_10n", CORE, "b5(10n) = c5(10n+2)/2",
        T("b5", 10, 0), T("c5", 10, 2, Fraction(1, 2)))
    rel("thm3.b5_10n_1", CORE, "b5(10n+1) = c5(5n+1)", T("b5", 10, 1), T("c5", 5, 1))
    rel("thm3.b5_10n_2", CORE, "b5(10n+2) = a5(2n+1)/4 + c5(2n)/2",
        T("b5", 10, 2), T("a5", 2, 1, Fraction(1, 4)), T("c5", 2, 0, Fraction(1, 2)))
    rel("thm3.b5_10n_3", CORE, "b5(10n+3) = c5(5n+2)", T("b5", 10, 3), T("c5", 5, 2))
    rel("thm3.b5_10n_4", CORE, "b5(10n+4) = c5(10n+6)/2",
        T("b5", 10, 4), T("c5", 10, 6, Fraction(1, 2)))
    rel("thm3.b5_10n_6", CORE, "b5(10n+6) = 0", T("b5", 10, 6))
    rel("thm3.b5_10n_8", CORE, "b5(10n+8) = 0", T("b5", 10, 8))
    rel("thm3.b5_20n_5", CORE, "b5(20n+5) = -c5(5n+1)", T("b5", 20, 5), T("c5", 5, 1, -1))
    rel("thm3.b5_20n_7", CORE, "b5(20n+7) = a5(2n+1)/2 + c5(2n)",
        T("b5", 20, 7), T("a5", 2, 1, Fraction(1, 2)), T("c5", 2, 0))
    rel("thm3.b5_20n_9", CORE, "b5(20n+9) = -c5(5n+2)", T("b5", 20, 9), T("c5", 5, 2, -1))
    rel("thm3.b5_20n_15", CORE, "b5(20n+15) = 0", T("b5", 20, 15))
    rel("thm3.b5_20n_19", CORE, "b5(20n+19) = 0", T("b5", 20, 19))

    # census bounds, sequence cross-links, mod-5^k corollaries
    records.append(CensusRecord(
        "cor.census", CORE,
        "over n in 1..N: b5(n) = 0 at least 30%, > 0 at least 52%, < 0 at least 10%",
        "b5", Fraction(3, 10), Fraction(13, 25), Fraction(1, 10),
    ))
    rel("cor.a5b5.a20n6", CORE, "a5(20n+6) = 20 b5(10n)",
        T("a5", 20, 6), T("b5", 10, 0, 20))
    rel("cor.a5b5.a20n14", CORE, "a5(20n+14) = 20 b5(10n+4)",
        T("a5", 20, 14), T("b5", 10, 4, 20))
    records.append(CongruenceFamily(
        "cor.b5.mod5k.rec", CORE,
        "4 b5(5^k(n+3)-3) == 5 b5(n) - b5(5n+12) (mod 5^k), k >= 2",
        lambda k: (T("b5", 5 ** k, 3 * 5 ** k - 3, 4), T("b5", 1, 0, -5), T("b5", 5, 12, 1)),
        lambda k: 5 ** k,
    ))
    records.append(CongruenceFamily(
        "cor.b5.mod5k.n18", CORE,
        "b5(5^k(20n+18)-3) == 0 (mod (5^k-1)/4), k >= 2",
        lambda k: (T("b5", 20 * 5 ** k, 18 * 5 ** k - 3),),
        lambda k: (5 ** k - 1) // 4,
    ))
    records.append(CongruenceFamily(
        "cor.b5.mod5k.n22", CORE,
        "b5(5^k(20n+22)-3) == 0 (mod (5^k-1)/4), k >= 2",
        lambda k: (T("b5", 20 * 5 ** k, 22 * 5 ** k - 3),),
        lambda k: (5 ** k - 1) // 4,
    ))
    records.append(RecurrenceFamily(
        "cor.b5.exact.n87", CORE,
        "b5(5^k(20n+18)-3) = (5^k-1)/4 * b5(100n+87), k >= 2",
        lambda k: T("b5", 20 * 5 ** k, 18 * 5 ** k - 3),
        lambda k: (T("b5", 100, 87, (5 ** k - 1) // 4),),
    ))
    records.append(RecurrenceFamily(
        "cor.b5.exact.n107", CORE,
        "b5(5^k(20n+22)-3) = (5^k-1)/4 * b5(100n+107), k >= 2",
        lambda k: T("b5", 20 * 5 ** k, 22 * 5 ** k - 3),
        lambda k: (T("b5", 100, 107, (5 ** k - 1) // 4),),
    ))

    # cross-check tying thm1.a20n6, cor.a5b5.a20n6 and thm3.b5_10n together
    rel("derived.triangle", CORE, "10 c5(10n+2) = 20 b5(10n)",
        T("c5", 10, 2, 10), T("b5", 10, 0, 20))

    # proof-internal identities, verified at coefficient level
    eq("ext.a5.start", EXTENDED,
       "phi(-q^5)^5/phi(-q) = 4q f5^5/f1 + phi(-q) phi(-q^5)^3",
       [P(1, 0, (PHI(-1, 5), 5), (PHI(-1, 1), -1))],
       [P(4, 1, (F(5), 5), (F(1), -1)), P(1, 0, PHI(-1, 1), (PHI(-1, 5), 3))])
    eq("ext.a5.start2", EXTENDED,
       "gen a5 = 4q gen c5 + phi(-q^5)^3 (phi(-q^25) - 2q f(-q^15,-q^35)"
       " + 2q^4 f(-q^5,-q^45))",
       [P(1, 0, SEQ("a5"))],
       [P(4, 1, SEQ("c5")), P(1, 0, (PHI(-1, 5), 3), PHI(-1, 25)),
        P(-2, 1, (PHI(-1, 5), 3), THETA(-1, 15, -1, 35)),
        P(2, 4, (PHI(-1, 5), 3), THETA(-1, 5, -1, 45))])
    eq("ext.abc_i", EXTENDED,
       "gen a5 - 4q^3 gen b5 = gen a5(q^2) + 2q gen c5",
       [P(1, 0, SEQ("a5")), P(-4, 3, SEQ("b5"))],
       [P(1, 0, SEQ("a5", k=2)), P(2, 1, SEQ("c5"))])
    rel("ext.a2n1", EXTENDED, "a5(2n+1) - 4 b5(2n-2) = 2 c5(2n)",
        T("a5", 2, 1), T("b5", 2, -2, 4), T("c5", 2, 0, 2))
    rel("ext.a2n", EXTENDED, "a5(2n) - 4 b5(2n-3) = a5(n) + 2 c5(2n-1)",
        T("a5", 2, 0), T("b5", 2, -3, 4), T("a5", 1, 0), T("c5", 2, -1, 2))
    rel("ext.a4n2", EXTENDED, "a5(4n+2) - 4 b5(4n-1) = a5(2n+1) + 2 c5(4n+1)",
        T("a5", 4, 2), T("b5", 4, -1, 4), T("a5", 2, 1), T("c5", 4, 1, 2))
    rel("ext.a4n", EXTENDED, "a5(4n) - 4 b5(4n-3) = a5(2n) + 2 c5(4n-1)",
        T("a5", 4, 0), T("b5", 4, -3, 4), T("a5", 2, 0), T("c5", 4, -1, 2))
    rel("ext.a4n1", EXTENDED, "a5(4n+1) - 4 b5(4n-2) = 2 c5(4n)",
        T("a5", 4, 1), T("b5", 4, -2, 4), T("c5", 4, 0, 2))
    rel("ext.a4n3", EXTENDED, "a5(4n+3) - 4 b5(4n) = 2 c5(4n+2)",
        T("a5", 4, 3), T("b5", 4, 0, 4), T("c5", 4, 2, 2))
    eq("ext.b4n_i", EXTENDED,
       "gen b5 - gen b5(-q) = 4q^3 gen b5(-q^2) + 2q gen c5(q^4)",
       [P(1, 0, SEQ("b5")), P(-1, 0, SEQ("b5", s=-1))],
       [P(4, 3, SEQ("b5", s=-1, k=2)), P(2, 1, SEQ("c5", k=4))])
    rel("ext.a4n2_v2", EXTENDED, "a5(4n+2) = 3 a5(2n+1) - 2 c5(2n)",
        T("a5", 4, 2), T("a5", 2, 1, 3), T("c5", 2, 0, -2))
    rel("ext.a10n3", EXTENDED, "a5(10n+3) = 4 c5(10n+2)",
        T("a5", 10, 3), T("c5", 10, 2, 4))
    rel("ext.a10n7", EXTENDED, "a5(10n+7) = 4 c5(10n+6)",
        T("a5", 10, 7), T("c5", 10, 6, 4))
    rel("ext.a20n14_pre", EXTENDED, "a5(20n+14) = 3 a5(10n+7) - 2 c5(10n+6)",
        T("a5", 20, 14), T("a5", 10, 7, 3), T("c5", 10, 6, -2))
    eq("ext.a5.rec_main_1", EXTENDED,
       "gen a5 = 4q f5^5/f1 + phi(-q) phi(-q^5)^3",
       [P(1, 0, SEQ("a5"))],
       [P(4, 1, (F(5), 5), (F(1), -1)), P(1, 0, PHI(-1, 1), (PHI(-1, 5), 3))])
    eq("ext.a5.rec_main_2", EXTENDED,
       "sum a5(5n) q^n = 20q f5^5/f1 + phi(-q)^3 phi(-q^5)",
       [P(1, 0, SEQ("a5", 5))],
       [P(20, 1, (F(5), 5), (F(1), -1)), P(1, 0, (PHI(-1, 1), 3), PHI(-1, 5))])
    eq("ext.a5.eliminate_1", EXTENDED,
       "sum a5(5n) q^n - gen a5 = 16q f5^5/f1"
       " + phi(-q) phi(-q^5) (phi(-q)^2 - phi(-q^5)^2)",
       [P(1, 0, SEQ("a5", 5)), P(-1, 0, SEQ("a5"))],
       [P(16, 1, (F(5), 5), (F(1), -1)), P(1, 0, (PHI(-1, 1), 3), PHI(-1, 5)),
        P(-1, 0, PHI(-1, 1), (PHI(-1, 5), 3))])
    rel("ext.a25n", EXTENDED, "a5(25n) = 6 a5(5n) - 5 a5(n)",
        T("a5", 25, 0), T("a5", 5, 0, 6), T("a5", 1, 0, -5))
    eq("ext.b5.rec_start", EXTENDED,
       "q psi(-q^5)^5/psi(-q) = f10^5/f2 - psi(-q) psi(-q^5)^3",
       [P(1, 1, (PSI(-1, 5), 5), (PSI(-1, 1), -1))],
       [P(1, 0, (F(10), 5), (F(2), -1)), P(-1, 0, PSI(-1, 1), (PSI(-1, 5), 3))])
    eq("ext.b5.rec_new1", EXTENDED,
       "sum b5(n) q^(n+1) = f10^5/f2 - psi(-q) psi(-q^5)^3",
       [P(1, 1, SEQ("b5"))],
       [P(1, 0, (F(10), 5), (F(2), -1)), P(-1, 0, PSI(-1, 1), (PSI(-1, 5), 3))])
    eq("ext.b5.rec_main_2", EXTENDED,
       "sum b5(5n+2) q^n = 5q f10^5/f2 + psi(-q)^3 psi(-q^5)",
       [P(1, 0, SEQ("b5", 5, 2))],
       [P(5, 1, (F(10), 5), (F(2), -1)), P(1, 0, (PSI(-1, 1), 3), PSI(-1, 5))])
    eq("ext.b5.eliminate_1", EXTENDED,
       "sum b5(5n+2) q^n - q^2 gen b5 = 4q f10^5/f2"
       " + psi(-q) psi(-q^5) (psi(-q)^2 + q psi(-q^5)^2)",
       [P(1, 0, SEQ("b5", 5, 2)), P(-1, 2, SEQ("b5"))],
       [P(4, 1, (F(10), 5), (F(2), -1)), P(1, 0, (PSI(-1, 1), 3), PSI(-1, 5)),
        P(1, 1, PSI(-1, 1), (PSI(-1, 5), 3))])
    eq("ext.b5.before_last", EXTENDED,
       "sum b5(25n+22) q^n - sum b5(5n+2) q^n = 20q f10^5/f2"
       " + psi(-q)(6 psi(-q^5) f(q^2,-q^3) f(-q,q^4) - q psi(-q^5)^3)"
       " - psi(-q)^3 psi(-q^5)",
       [P(1, 0, SEQ("b5", 25, 22)), P(-1, 0, SEQ("b5", 5, 2))],
       [P(20, 1, (F(10), 5), (F(2), -1)),
        P(6, 0, PSI(-1, 1), PSI(-1, 5), THETA(1, 2, -1, 3), THETA(-1, 1, 1, 4)),
        P(-1, 1, PSI(-1, 1), (PSI(-1, 5), 3)), P(-1, 0, (PSI(-1, 1), 3), PSI(-1, 5))])
    eq("ext.b5.eliminate_2", EXTENDED,
       "sum b5(25n+22) q^n - sum b5(5n+2) q^n = 20q f10^5/f2"
       " + 5 psi(-q) psi(-q^5) (psi(-q)^2 + q psi(-q^5)^2)",
       [P(1, 0, SEQ("b5", 25, 22)), P(-1, 0, SEQ("b5", 5, 2))],
       [P(20, 1, (F(10), 5), (F(2), -1)), P(5, 0, (PSI(-1, 1), 3), PSI(-1, 5)),
        P(5, 1, PSI(-1, 1), (PSI(-1, 5), 3))])
    rel("ext.b25n72", EXTENDED, "b5(25n+72) = 6 b5(5n+12) - 5 b5(n)",
        T("b5", 25, 72), T("b5", 5, 12, 6), T("b5", 1, 0, -5))
    eq("ext.b5.rec_main_1", EXTENDED,
       "sum b5(n) q^(n+1) = sum c5(n) q^(2n)"
       " - psi(-q^5)^3 (f(q^10,-q^15) - q f(-q^5,q^20) - q^3 psi(-q^25))",
       [P(1, 1, SEQ("b5"))],
       [P(1, 0, SEQ("c5", k=2)), P(-1, 0, (PSI(-1, 5), 3), THETA(1, 10, -1, 15)),
        P(1, 1, (PSI(-1, 5), 3), THETA(-1, 5, 1, 20)), P(1, 3, (PSI(-1, 5), 3), PSI(-1, 25))])
    rel("ext.b5.start_10n", EXTENDED, "4 b5(2n) = a5(2n+3) - 2 c5(2n+2)",
        T("b5", 2, 0, 4), T("a5", 2, 3), T("c5", 2, 2, -2))
    rel("ext.a10n5", EXTENDED, "a5(10n+5) = a5(2n+1) + 12 c5(2n)",
        T("a5", 10, 5), T("a5", 2, 1), T("c5", 2, 0, 12))

    registry = {}
    for record in records:
        add_record(registry, record)
    return registry
