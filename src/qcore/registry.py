"""Declarative registry of every verified identity.

Each record states one claim about the sequences c5 (5-core counts),
a5 (coefficients of phi(-q^5)^5/phi(-q)) and b5 (coefficients of
psi(-q^5)^5/psi(-q)), or one series identity among the theta/eta products.
Records are named tuples of plain data plus a human-readable statement, in
one term language: every side is a sum of product terms that
``products.evaluate_side`` expands, written with the side helpers F, PHI,
PSI, THETA, SEQ, CHI, R and P that ``products`` defines and this module
re-exports.  A SeriesEquality lists sides that agree coefficient by
coefficient; a Relation says sum(lhs) = sum(rhs) over sequence terms at
every covered n (or, with a modulus m, sum(lhs) - sum(rhs) == 0 (mod m));
a CensusRecord bounds sign frequencies.  The evaluator in ``identities``
checks series equalities and relations with one comparator, so adding a
claim here never touches the verification code.

``T(seq, stride, offset, scale)`` is the side term
scale * seq(stride*n + offset).  The offset may be any integer, and a
sequence read at a negative index is 0, so relations like
b5(4n+1) = c5(n) - 2 b5(2n-1) include their n = 0 case.

A relation whose modulus, or any stride, offset or scale of a term, is a
``K(a, b, c)``, the number (a*5^k + b)/c, is a family: one relation for
each k >= 2, which ``Relation.at`` gives.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

# The side helpers live beside the evaluator that reads them; they are
# re-exported here, where records are written.
from .products import CHI, PHI, PSI, SEQ, THETA, F, P, R

CORE = "core"
EXTENDED = "extended"


def T(seq: str, stride: int, offset: int = 0, scale=1) -> tuple:
    """The side term scale * seq(stride*n + offset), for any integer offset;
    scale may be a Fraction, and any of the three a K."""
    return P(scale, 0, SEQ(seq, stride, offset))


# The integer (a*5^k + b)/c at a family's k: 5^k is K(1), (5^k-1)/4 is K(1, -1, 4).
K = namedtuple("K", "a b c", defaults=(0, 1))


def _at(value, k: int):
    """A K's value at k; any other value as it is."""
    if not isinstance(value, K):
        return value
    a, b, c = value
    quotient, rest = divmod(a * 5 ** k + b, c)
    if rest:
        raise ValueError(f"{value} is not an integer at k={k}")
    return quotient


class SeriesEquality(namedtuple("SeriesEquality", "id tier statement sides")):
    __slots__ = ()
    kind = "series-equality"

    def __new__(cls, id, tier, statement, sides):
        return super().__new__(cls, id, tier, statement, tuple(map(tuple, sides)))


class Relation(namedtuple("Relation", "id tier statement lhs rhs modulus", defaults=((), 0))):
    """sum(lhs) = sum(rhs) at every covered n; with a modulus m,
    sum(lhs) - sum(rhs) == 0 (mod m) instead.  Both sides are sums of
    ``T`` terms; an empty side is 0.  A relation that holds a K is a family,
    checked at each k >= 2."""

    __slots__ = ()

    @property
    def family(self) -> bool:
        """Whether the modulus, or a scale, stride or offset of a term, is a K."""
        numbers = [self.modulus]
        for coeff, _, factors in (*self.lhs, *self.rhs):
            numbers += [coeff, *(x for atom, _ in factors for x in atom[1:])]
        return any(isinstance(x, K) for x in numbers)

    @property
    def kind(self) -> str:
        if self.family:
            return "congruence-family" if self.modulus else "recurrence-family"
        return "congruence" if self.modulus else "subsequence-relation"

    def at(self, k: int) -> Relation:
        """The relation at k: every K replaced by its value there."""
        def side(terms):
            return tuple((_at(coeff, k), shift,
                          tuple(((atom[0], *(_at(x, k) for x in atom[1:])), e)
                                for atom, e in factors))
                         for coeff, shift, factors in terms)
        return self._replace(lhs=side(self.lhs), rhs=side(self.rhs),
                             modulus=_at(self.modulus, k))


class CensusRecord(namedtuple("CensusRecord",
                              "id tier statement seq zero_min positive_min negative_min")):
    __slots__ = ()
    kind = "census"


Record = SeriesEquality | Relation | CensusRecord


def add_record(registry: dict[str, Record], record: Record) -> None:
    """Insert a record, refusing a taken id or a series equality whose sides
    repeat another record's, which would check nothing new."""
    if record.id in registry:
        raise ValueError(f"duplicate identity id {record.id}")
    if isinstance(record, SeriesEquality):
        sides = frozenset(record.sides)
        for other in registry.values():
            if isinstance(other, SeriesEquality) and frozenset(other.sides) == sides:
                raise ValueError(f"{record.id} repeats the sides of {other.id}")
    registry[record.id] = record


# -- the registry ------------------------------------------------------------


def build_registry() -> dict[str, Record]:
    records = []

    def eq(rid, tier, statement, *sides):
        records.append(SeriesEquality(rid, tier, statement, sides))

    def rel(rid, tier, statement, lhs, *rhs, modulus=0):
        records.append(Relation(rid, tier, statement, (lhs,), rhs, modulus))

    # six theta-product identities
    eq("lemma.phimodeq", CORE,
       "phi(q^5)^5/phi(q) + 4q f(q^5)^5/f(q) = phi(q) phi(q^5)^3",
       [P(1, 0, (PHI(1, 5), 5), (PHI(1, 1), -1)), P(4, 1, (F(5, 1), 5), (F(1, 1), -1))],
       [P(1, 0, PHI(1, 1), (PHI(1, 5), 3))])
    eq("lemma.phimodeqfora5", CORE,
       "phi(q)^2 - phi(q^5)^2 = 4q chi(q) f5 f20",
       [P(1, 0, (PHI(1, 1), 2)), P(-1, 0, (PHI(1, 5), 2))],
       [P(4, 1, *CHI(1, 1), F(5), F(20))])
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
       [P(1, 0, F(25), *R(5, -1)), P(-1, 1, F(25)), P(-1, 2, F(25), *R(5))])
    eq("dissection.inv_f1_5", CORE,
       "1/f1 = f25^5/f5^6 * (R^-4 + q R^-3 + 2q^2 R^-2 + 3q^3 R^-1 + 5q^4"
       " - 3q^5 R + 2q^6 R^2 - q^7 R^3 + q^8 R^4), R = R(q^5)",
       [P(1, 0, (F(1), -1))],
       [P(c, i, (F(25), 5), (F(5), -6), *R(5, p)) for i, (c, p) in enumerate(
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
    rel("thm1.recurrence", CORE,
        "a5(5^k n) = (5^k-1)/4 * a5(5n) - (5^k-5)/4 * a5(n), k >= 2",
        T("a5", K(1), 0), T("a5", 5, 0, K(1, -1, 4)), T("a5", 1, 0, K(-1, 5, 4)))

    # a5 congruences
    rel("cor1.mod10a", CORE, "a5(20n+6) == 0 (mod 10)", T("a5", 20, 6), modulus=10)
    rel("cor1.mod10b", CORE, "a5(20n+14) == 0 (mod 10)", T("a5", 20, 14), modulus=10)
    rel("cor1.mod5k", CORE,
        "4 a5(5^k n) == 5 a5(n) - a5(5n) (mod 5^k), k >= 2",
        T("a5", K(1), 0, 4), T("a5", 1, 0, 5), T("a5", 5, 0, -1), modulus=K(1))

    # b5 recurrences
    rel("thm2.b4n3", CORE, "b5(4n+3) = 2 b5(2n)", T("b5", 4, 3), T("b5", 2, 0, 2))
    rel("thm2.recurrence", CORE,
        "b5(5^k(n+3)-3) = (5^k-1)/4 * b5(5n+12) - (5^k-5)/4 * b5(n), k >= 2",
        T("b5", K(1), K(3, -3)), T("b5", 5, 12, K(1, -1, 4)), T("b5", 1, 0, K(-1, 5, 4)))

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
    rel("cor.b5.mod5k.rec", CORE,
        "4 b5(5^k(n+3)-3) == 5 b5(n) - b5(5n+12) (mod 5^k), k >= 2",
        T("b5", K(1), K(3, -3), 4), T("b5", 1, 0, 5), T("b5", 5, 12, -1), modulus=K(1))
    rel("cor.b5.mod5k.n18", CORE,
        "b5(5^k(20n+18)-3) == 0 (mod (5^k-1)/4), k >= 2",
        T("b5", K(20), K(18, -3)), modulus=K(1, -1, 4))
    rel("cor.b5.mod5k.n22", CORE,
        "b5(5^k(20n+22)-3) == 0 (mod (5^k-1)/4), k >= 2",
        T("b5", K(20), K(22, -3)), modulus=K(1, -1, 4))
    rel("cor.b5.exact.n87", CORE,
        "b5(5^k(20n+18)-3) = (5^k-1)/4 * b5(100n+87), k >= 2",
        T("b5", K(20), K(18, -3)), T("b5", 100, 87, K(1, -1, 4)))
    rel("cor.b5.exact.n107", CORE,
        "b5(5^k(20n+22)-3) = (5^k-1)/4 * b5(100n+107), k >= 2",
        T("b5", K(20), K(22, -3)), T("b5", 100, 107, K(1, -1, 4)))

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
