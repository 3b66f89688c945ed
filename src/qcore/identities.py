"""Uniform verification over the identity registry.

``verify_record`` is the one call that verifies a record, registered or
not; ``verify`` looks a record up by id in ``REGISTRY`` and calls it.  It
dispatches on the record type and always returns a VerificationReport; a
mismatch carries the smallest offending index, and a plain relation or a
census that covers no n is skipped, never an exact match.
Series equalities and relations share one comparator over their sides,
``_compare``.  ``_checks`` describes each comparison once, with the sides
of a series identity multiplied through by their common denominator D so
that none divides: ``_compare`` runs it, taking a mismatch's values from
that one evaluation, and ``compared_sides`` plans its products.  A
family, a relation that holds a K, is the same check at each
k = 2..kmax.  A census record reads ``sequences.sign_census``.
``verify_all`` first builds each sequence's prefix to the order, once,
where every later read at or below the order is a slice; a lone record
builds only the progressions it reads.
``verify_all`` also plans every side of a series equality that it will
compare (``compared_sides``) and runs its records with one run-scoped
table (``products.shared_products``): an atom or product that several
sides read is made once and held only until the last of them has read it,
and nothing of it outlives the call.  Everything is computed in exact
integer or rational arithmetic.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from operator import mul

from .defaults import DEFAULT_KMAX, DEFAULT_ORDER
from .products import P, evaluate_side, shared_products
from .registry import (
    CensusRecord,
    Record,
    Relation,
    SeriesEquality,
    build_registry,
)
from .reports import EXACT_MATCH, MISMATCH, SKIPPED, VerificationReport
from .sequences import SEQUENCES, sign_census
from .series import first_mismatch

REGISTRY: dict[str, Record] = build_registry()

NOTHING_COVERED = "no n covered"


class UnknownIdentity(KeyError):
    """No record with the requested id."""


def record_ids(tier: str = "all") -> list[str]:
    return [rid for rid, rec in REGISTRY.items() if tier in ("all", rec.tier)]


# -- one comparator for every side ------------------------------------------


def _plain(num: int, den: int):
    value = Fraction(num, den)
    return value.numerator if value.denominator == 1 else value


def _cleared(sides: Sequence[tuple]) -> tuple[Sequence[tuple], list]:
    """(the sides times D, clear): D the product of the (atom, e) pairs of
    clear, each atom's most negative exponent over all terms negated, so
    that no side divides; the sides themselves and no pairs when none does.

    Theta, Euler and Pochhammer atoms have constant term 1, so D has
    constant term 1 and (lhs - rhs) * D first differs from 0 where
    lhs - rhs does, by the same factor 1 there.  A sequence atom's constant
    term need not be +-1, so it is never cleared."""
    low: dict[tuple, int] = {}
    for side in sides:
        for _, _, factors in side:
            for atom, e in factors:
                if e < low.get(atom, 0) and atom[0] not in SEQUENCES:
                    low[atom] = e
    if not low:
        return sides, []
    clear = [(atom, -e) for atom, e in low.items()]
    return [tuple(P(coeff, shift, *factors, *clear) for coeff, shift, factors in side)
            for side in sides], clear


def _integral(sides: Sequence[tuple]) -> tuple[int, Sequence[tuple], list]:
    """(den, the sides times den and cleared, clear): den the lcm of the
    denominators of the sides' coefficients, so that every coefficient is an
    integer, and the cleared sides, with the pairs of D, from ``_cleared``."""
    den = math.lcm(*(coeff.denominator for side in sides for coeff, _, _ in side))
    if den > 1:
        sides = [tuple((int(coeff * den), shift, factors) for coeff, shift, factors in side)
                 for side in sides]
    return (den, *_cleared(sides))


def _compare(den: int, sides: Sequence[tuple], clear: list, order: int,
             modulus: int) -> tuple[int, object, object] | None:
    """The first n <= order where a side differs from the first, as
    (n, lhs, rhs), or None.  With a modulus m, two sides differ where
    lhs - rhs is not a multiple of m, reported as (n, lhs - rhs, "0 (mod m)").

    den, sides and clear are ``_integral``'s, as ``_checks`` gives them:
    the sides as written times den, so that the series stay integral, and
    times D, the product of the pairs of clear, which finds the same first
    n without a division.  Values are reported as reduced fractions.  A
    mismatch's values come from the same evaluation: the two cleared sides'
    coefficients at n, each convolved with 1/D to n when D is not 1, where
    1/D is the one side expanded after the comparison, and reads no
    sequence."""
    step = den * modulus
    reference, *others = [evaluate_side(side, order) for side in sides]
    for other in others:
        bad = first_mismatch(reference, other, step)
        if bad is None:
            continue
        n, lhs, rhs = bad
        if clear:
            inverse = evaluate_side((P(1, 0, *((atom, -e) for atom, e in clear)),), n)
            lhs, rhs = (sum(map(mul, series.coeffs, reversed(inverse.coeffs)))
                        for series in (reference, other))
        if modulus:
            return n, _plain(lhs - rhs, den), f"0 (mod {modulus})"
        return n, _plain(lhs, den), _plain(rhs, den)
    return None


def _coverage(sides: Sequence[tuple], order: int) -> int:
    """The largest n at which every sequence term's index m*n + r is at most
    the order; negative when no n is covered."""
    return min((order - r) // m
               for side in sides for _, _, factors in side for (_, m, r, _, _), _ in factors)


# -- verification dispatch -----------------------------------------------------


def _mismatch(record: Record, order: int, bad: tuple[int, object, object] | None,
              detail: str = "") -> VerificationReport:
    n, lhs, rhs = bad or (None, None, None)
    return VerificationReport(record.id, record.kind, order, MISMATCH, first_bad_index=n,
                              lhs_value=lhs, rhs_value=rhs, detail=detail)


def _checks(record: Record, order: int, kmax: int) -> Iterator[tuple]:
    """(k, top, modulus, den, sides, clear) for each comparison that
    verifying the record at the order makes, to n = top, with den, sides
    and clear from ``_integral``: a series equality's to the order, and a
    relation's, at each k = 2..kmax for a family, to its coverage.  A plain
    record has one comparison, with k None."""
    if isinstance(record, SeriesEquality):
        yield None, order, 0, *_integral(record.sides)
    elif isinstance(record, Relation):
        if record.family and kmax < 2:
            raise ValueError("kmax must be >= 2")
        for k in range(2, kmax + 1) if record.family else [None]:
            instance = record.at(k)
            sides = (instance.lhs, instance.rhs)
            yield k, _coverage(sides, order), instance.modulus, *_integral(sides)
    else:
        raise TypeError(f"unhandled record type {type(record)!r}")


def _census(record: CensusRecord, order: int) -> VerificationReport:
    """The record's sign frequencies over n = 1..order against its bounds;
    skipped below order 1, where there is no n."""
    if order < 1:
        return VerificationReport(record.id, record.kind, order, SKIPPED, detail=NOTHING_COVERED)
    census = sign_census(record.seq, order)
    detail = (f"zero={census.zero} positive={census.positive} "
              f"negative={census.negative} over n=1..{order}")
    failures = [
        name
        for name, got, bound in (
            ("zero", census.zero, record.zero_min),
            ("positive", census.positive, record.positive_min),
            ("negative", census.negative, record.negative_min),
        )
        if got < bound
    ]
    if failures:
        return _mismatch(record, order, None, f"{detail}; below bound: {failures}")
    return VerificationReport(record.id, record.kind, order, EXACT_MATCH, detail=detail)


def _verify_record(record: Record, order: int, kmax: int) -> VerificationReport:
    """The record's report at the order.  A family, whose comparisons each
    have a k, names the k it checked and the k it could not cover; a plain
    relation that covers no n is skipped."""
    if isinstance(record, CensusRecord):
        return _census(record, order)
    checked, missed = [], []
    for k, top, modulus, den, sides, clear in _checks(record, order, kmax):
        if top < 0:
            missed.append(k)
            continue
        bad = _compare(den, sides, clear, top, modulus)
        if bad is not None:
            return _mismatch(record, order, bad, "" if k is None else f"k={k}")
        checked.append(k)
    if k is not None:
        detail = f"k in {checked}" + (f"; {NOTHING_COVERED} at k in {missed}" if missed else "")
        return VerificationReport(record.id, record.kind, order, EXACT_MATCH, detail=detail)
    if missed:
        return VerificationReport(record.id, record.kind, order, SKIPPED, detail=NOTHING_COVERED)
    return VerificationReport(record.id, record.kind, order, EXACT_MATCH)


def verify_record(record: Record, order: int = DEFAULT_ORDER,
                  kmax: int = DEFAULT_KMAX) -> VerificationReport:
    """Verify a record, registered or not, at the given working order; the
    report carries the elapsed seconds."""
    start = time.perf_counter()
    report = _verify_record(record, order, kmax)
    return report._replace(elapsed=time.perf_counter() - start)


def verify(record_id: str, order: int = DEFAULT_ORDER,
           kmax: int = DEFAULT_KMAX) -> VerificationReport:
    """Verify one registered identity at the given working order."""
    try:
        record = REGISTRY[record_id]
    except KeyError:
        raise UnknownIdentity(record_id) from None
    return verify_record(record, order, kmax)


def largest_index(ids: Iterable[str], order: int) -> int:
    """The largest index that verifying the records at the order reads: the
    order itself, or m*(order // k) + r for a series equality's sequence atom
    (name, m, r, s, k).  A relation reads no index past the order, since its
    coverage caps every term's index there, and neither does a census."""
    top = order
    for rid in ids:
        record = REGISTRY[rid]
        if isinstance(record, SeriesEquality):
            for side in record.sides:
                for _, _, factors in side:
                    for atom, _ in factors:
                        if atom[0] in SEQUENCES:
                            _, m, r, _, k = atom
                            top = max(top, m * (order // k) + r)
    return top


def compared_sides(ids: Iterable[str], order: int, kmax: int) -> list[tuple]:
    """(side, n) for each side that verifying the records at the order
    expands, to n, in the order ``_compare`` expands them: the sides of each
    comparison of ``_checks``."""
    return [(side, top) for rid in ids if not isinstance(REGISTRY[rid], CensusRecord)
            for _, top, _, _, sides, _ in _checks(REGISTRY[rid], order, kmax) if top >= 0
            for side in sides]


def verify_all(tier: str = "all", order: int = DEFAULT_ORDER,
               kmax: int = DEFAULT_KMAX) -> list[VerificationReport]:
    """Verify every record of a tier, one after another, in registration
    order, after building each sequence's prefix to the order once, so that
    the records slice it rather than build it again at each rising order.

    The records run inside one ``shared_products`` block over the sides of
    their series equalities (``compared_sides``): an atom or a product of
    atom powers that several sides read is made by the first and read by
    the others, and held only until the last of them has read it.  Each
    record is still one ``verify`` call with its own report, and its
    elapsed time counts a shared series only in the record that made it.

    Relations stay out, each side a run of one: a term is one sequence
    atom, with no product to share, and its read is the check."""
    ids = record_ids(tier)
    for gen in SEQUENCES.values():
        gen(order)
    equalities = [rid for rid in ids if isinstance(REGISTRY[rid], SeriesEquality)]
    with shared_products(compared_sides(equalities, order, kmax)):
        return [verify(rid, order, kmax) for rid in ids]


def summarize(reports: Sequence[VerificationReport]) -> str:
    total = len(reports)
    matched = sum(1 for r in reports if r.status == EXACT_MATCH)
    mismatched = sum(1 for r in reports if r.status == MISMATCH)
    skipped = sum(1 for r in reports if r.status == SKIPPED)
    return (f"{total} records: {matched} exact-match, "
            f"{mismatched} mismatch, {skipped} skipped")
