"""Uniform verification over the identity registry.

``verify`` dispatches on the record type and always returns a
VerificationReport; a mismatch carries the smallest offending index.
Series equalities and relations share one comparator over their sides,
``_compare``, which multiplies the sides of a series identity through by
their common denominator so that none divides.  A family, a relation that
holds a K, is the same check at each k = 2..kmax.  A census record reads
``products.sign_census``.  Before a record is checked, ``_prefetch`` builds
each sequence prefix it uses once, to the largest index up to the order
that it reads; a deeper progression is evaluated on its own.  Everything is
computed in exact integer or rational arithmetic.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .defaults import DEFAULT_KMAX, DEFAULT_ORDER
from .products import SEQUENCES, P, evaluate_side, sequence, sign_census
from .registry import (
    CensusRecord,
    Record,
    Relation,
    SeriesEquality,
    T,
    add_record,
    build_registry,
)
from .reports import EXACT_MATCH, MISMATCH, SKIPPED, VerificationReport

REGISTRY: dict[str, Record] = build_registry()


class UnknownIdentity(KeyError):
    """No record with the requested id."""


def register(record: Record) -> None:
    """Add a record (used by self-tests to inject deliberate faults)."""
    add_record(REGISTRY, record)


def unregister(record_id: str) -> None:
    REGISTRY.pop(record_id, None)


def record_ids(tier: str = "all") -> list[str]:
    return [rid for rid, rec in REGISTRY.items() if tier in ("all", rec.tier)]


# -- one comparator for every side ------------------------------------------


def _plain(num: int, den: int):
    value = Fraction(num, den)
    return value.numerator if value.denominator == 1 else value


def _cleared(sides: Sequence[tuple]) -> Sequence[tuple]:
    """The sides times D, the product of every atom's most negative exponent
    over all terms, so that no side divides; the sides themselves when none
    does.

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
        return sides
    clear = [(atom, -e) for atom, e in low.items()]
    return [tuple(P(coeff, shift, *factors, *clear) for coeff, shift, factors in side)
            for side in sides]


def _first_difference(a: tuple, b: tuple, step: int) -> int | None:
    """The first n where a[n] and b[n] differ, or with a step > 0 where
    a[n] - b[n] is not a multiple of it; None where there is none."""
    if a == b:
        return None
    return next((n for n, (x, y) in enumerate(zip(a, b))
                 if x != y and (not step or (x - y) % step)), None)


def _compare(sides: Sequence[tuple], order: int,
             modulus: int = 0) -> tuple[int, object, object] | None:
    """The first n <= order where a side differs from the first, as
    (n, lhs, rhs), or None.  With a modulus m, two sides differ where
    lhs - rhs is not a multiple of m, reported as (n, lhs - rhs, "0 (mod m)").

    Sides are expanded times the lcm of their coefficients' denominators, so
    the series stay integral; values are reported as reduced fractions.
    They are compared with their denominators cleared (``_cleared``), which
    finds the same first n without a division; on a mismatch the two sides
    involved are expanded again as written, to the mismatch index, for the
    values at n."""
    den = math.lcm(*(coeff.denominator for side in sides for coeff, _, _ in side))
    if den > 1:
        sides = [tuple((int(coeff * den), shift, factors) for coeff, shift, factors in side)
                 for side in sides]
    step = den * modulus
    reference, *others = [evaluate_side(side, order).coeffs for side in _cleared(sides)]
    for i, other in enumerate(others, 1):
        n = _first_difference(reference, other, step)
        if n is None:
            continue
        lhs, rhs = (evaluate_side(sides[j], n).coeffs for j in (0, i))
        if _first_difference(lhs, rhs, step) != n:
            raise ArithmeticError(f"sides differ first at n={n} with denominators cleared "
                                  "but not as written")
        if modulus:
            return n, _plain(lhs[n] - rhs[n], den), f"0 (mod {modulus})"
        return n, _plain(lhs[n], den), _plain(rhs[n], den)
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


def _verify_record(record: Record, order: int, kmax: int) -> VerificationReport:
    if isinstance(record, SeriesEquality):
        bad = _compare(record.sides, order)
        if bad is not None:
            return _mismatch(record, order, bad)
        return VerificationReport(record.id, record.kind, order, EXACT_MATCH)

    if isinstance(record, Relation):
        family = record.family
        if family and kmax < 2:
            raise ValueError("kmax must be >= 2")
        checked = []
        for k in range(2, kmax + 1) if family else [None]:
            instance = record.at(k)
            sides = (instance.lhs, instance.rhs)
            covered = _coverage(sides, order)
            if covered < 0:
                continue
            bad = _compare(sides, covered, instance.modulus)
            if bad is not None:
                return _mismatch(record, order, bad, f"k={k}" if family else "")
            checked.append(k)
        return VerificationReport(record.id, record.kind, order, EXACT_MATCH,
                                  detail=f"k in {checked}" if family else "")

    if isinstance(record, CensusRecord):
        if order < 1:
            return VerificationReport(record.id, record.kind, order, EXACT_MATCH,
                                      detail="no indices in range (vacuous)")
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
        return VerificationReport(record.id, record.kind, order, EXACT_MATCH,
                                  detail=detail)

    raise TypeError(f"unhandled record type {type(record)!r}")


def verify(record_id: str, order: int = DEFAULT_ORDER,
           kmax: int = DEFAULT_KMAX) -> VerificationReport:
    """Verify one registered identity at the given working order."""
    try:
        record = REGISTRY[record_id]
    except KeyError:
        raise UnknownIdentity(record_id) from None
    return _timed(record, order, kmax)


def _timed(record: Record, order: int, kmax: int) -> VerificationReport:
    """``_verify_record``, after the prefetch of the sequences it reads, with
    its elapsed seconds on the report."""
    start = time.perf_counter()
    _prefetch([record], order)
    report = _verify_record(record, order, kmax)
    return report._replace(elapsed=time.perf_counter() - start)


def _reach(record: Record, order: int) -> Iterator[tuple[str, int]]:
    """(name, index) for every sequence that verifying the record at the
    order reads, to that index: a series equality reads the sequence of an
    atom (name, m, r, s, k) to m*(order // k) + r, and a relation, a family
    at every k, reads each of its sequences to the order, as does a
    census."""
    if isinstance(record, SeriesEquality):
        for side in record.sides:
            for _, _, factors in side:
                for atom, _ in factors:
                    if atom[0] in SEQUENCES:
                        name, m, r, _, k = atom
                        yield name, m * (order // k) + r
    elif isinstance(record, Relation):
        for _, _, factors in (*record.lhs, *record.rhs):
            for atom, _ in factors:
                yield atom[0], order
    elif isinstance(record, CensusRecord) and order >= 1:
        yield record.seq, order


def largest_index(ids: Iterable[str], order: int) -> int:
    """The largest index that verifying the records at the order reads: of
    a sequence, or the order itself."""
    return max([order, *(top for rid in ids for _, top in _reach(REGISTRY[rid], order))])


def _prefetch(records: Iterable[Record], order: int) -> None:
    """Build each sequence's prefix to the largest index up to the order
    that any of the records reads, so the cache builds it once rather
    than once per rising order; every later read at or below it is a slice.
    A read past the order, such as b5(25n + 22), is a progression that
    ``products`` evaluates on its own n."""
    reach: dict[str, int] = {}
    for record in records:
        for name, top in _reach(record, order):
            if top <= order:
                reach[name] = max(reach.get(name, top), top)
    for name, top in reach.items():
        if top >= 0:
            sequence(name, top)


def verify_all(tier: str = "all", order: int = DEFAULT_ORDER,
               kmax: int = DEFAULT_KMAX) -> list[VerificationReport]:
    """Verify every record of a tier, one after another, in registration
    order, after one prefetch for all of them."""
    ids = record_ids(tier)
    _prefetch([REGISTRY[rid] for rid in ids], order)
    return [verify(rid, order, kmax) for rid in ids]


def summarize(reports: Sequence[VerificationReport]) -> str:
    total = len(reports)
    matched = sum(1 for r in reports if r.status == EXACT_MATCH)
    mismatched = sum(1 for r in reports if r.status == MISMATCH)
    skipped = sum(1 for r in reports if r.status == SKIPPED)
    return (f"{total} records: {matched} exact-match, "
            f"{mismatched} mismatch, {skipped} skipped")


# -- spec-level convenience operations ----------------------------------------


def check_congruence(seq_name: str, modulus: int, ap: tuple[int, int],
                     order: int = DEFAULT_ORDER) -> VerificationReport:
    """Check seq(m*n + r) == 0 (mod modulus) for all indices up to order."""
    m, r = ap
    record = Relation(
        f"congruence.{seq_name}.{m}n+{r}.mod{modulus}", "adhoc",
        f"{seq_name}({m}n+{r}) == 0 (mod {modulus})",
        (T(seq_name, m, r),), modulus=modulus,
    )
    return _timed(record, order, DEFAULT_KMAX)
