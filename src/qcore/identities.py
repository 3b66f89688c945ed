"""Uniform verification over the identity registry.

``verify`` dispatches on the record kind and always returns a
VerificationReport; a mismatch carries the smallest offending index.
Everything is computed in exact integer or rational arithmetic,
including the census frequencies.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .partitions import OracleScaleExceeded
from .products import SEQUENCES, evaluate_side
from .registry import (
    CensusRecord,
    Congruence,
    CongruenceFamily,
    Record,
    RecurrenceFamily,
    SeriesEquality,
    SubsequenceRelation,
    Term,
    add_record,
    build_registry,
)
from .reports import EXACT_MATCH, MISMATCH, SKIPPED, VerificationReport, stopwatch
from .series import TruncatedSeries, first_mismatch

DEFAULT_ORDER = 1000
DEFAULT_KMAX = 3

REGISTRY: Dict[str, Record] = build_registry()


class UnknownIdentity(KeyError):
    """No record with the requested id."""


class UnknownSequence(KeyError):
    """No named coefficient sequence with the requested name."""


def register(record: Record, replace: bool = False) -> None:
    """Add a record (used by self-tests to inject deliberate faults)."""
    add_record(REGISTRY, record, replace)


def unregister(record_id: str) -> None:
    REGISTRY.pop(record_id, None)


def record_ids(tier: str = "all") -> List[str]:
    return [rid for rid, rec in REGISTRY.items() if tier in ("all", rec.tier)]


def sequence(name: str, order: int) -> TruncatedSeries:
    try:
        builder = SEQUENCES[name]
    except KeyError:
        raise UnknownSequence(name) from None
    return builder(order)


# -- linear relations over subsequence terms ---------------------------------


def _coverage(terms: Sequence[Term], order: int) -> int:
    """Largest n for which every term's index stays within the order."""
    return min((order - t.offset) // t.stride for t in terms)


def _term_value(term: Term, n: int, cache: Dict[str, TruncatedSeries]) -> Fraction:
    idx = term.stride * n + term.offset
    if idx < 0:
        return Fraction(0)
    return term.scale * cache[term.seq][idx]


def _plain(value: Fraction):
    return value.numerator if value.denominator == 1 else value


def _check_linear(lhs: Term, rhs: Tuple[Term, ...], order: int,
                  cache: Dict[str, TruncatedSeries]) -> Optional[Tuple[int, object, object]]:
    n_max = _coverage((lhs,) + rhs, order)
    for n in range(n_max + 1):
        lv = _term_value(lhs, n, cache)
        rv = sum((_term_value(t, n, cache) for t in rhs), Fraction(0))
        if lv != rv:
            return n, _plain(lv), _plain(rv)
    return None


def _check_divisibility(terms: Tuple[Term, ...], modulus: int, order: int,
                        cache: Dict[str, TruncatedSeries]) -> Optional[Tuple[int, object, object]]:
    n_max = _coverage(terms, order)
    for n in range(n_max + 1):
        v = sum((_term_value(t, n, cache) for t in terms), Fraction(0))
        if v.denominator != 1 or v.numerator % modulus:
            return n, _plain(v), f"0 (mod {modulus})"
    return None


def _cache_for(terms, order) -> Dict[str, TruncatedSeries]:
    return {name: sequence(name, order) for name in {t.seq for t in terms}}


# -- census -------------------------------------------------------------------


@dataclass(frozen=True)
class CensusResult:
    """Exact sign frequencies of a sequence over indices 1..order."""

    seq: str
    order: int
    zero: Fraction
    positive: Fraction
    negative: Fraction

    def summary(self) -> str:
        return (f"n=1..{self.order}: zero {self.zero} "
                f"positive {self.positive} negative {self.negative}")


def sign_census(seq_name: str, order: int) -> CensusResult:
    """Exact rational sign frequencies over indices 1..order.

    A frequency here is evidence at finite range, not a limit statement:
    the registry's census bounds are asymptotic claims checked empirically
    at the order the caller fixes.
    """
    if order < 1:
        raise ValueError("census needs order >= 1")
    coeffs = sequence(seq_name, order).coeffs
    zero = positive = negative = 0
    for c in coeffs[1:]:
        if c == 0:
            zero += 1
        elif c > 0:
            positive += 1
        else:
            negative += 1
    return CensusResult(
        seq_name, order,
        Fraction(zero, order), Fraction(positive, order), Fraction(negative, order),
    )


# -- verification dispatch -----------------------------------------------------


def _verify_record(record: Record, order: int, kmax: int) -> VerificationReport:
    if isinstance(record, SeriesEquality):
        sides = [evaluate_side(side, order) for side in record.sides]
        reference = sides[0]
        for other in sides[1:]:
            bad = first_mismatch(reference, other)
            if bad is not None:
                n, lv, rv = bad
                return VerificationReport(record.id, record.kind, order, MISMATCH,
                                          first_bad_index=n, lhs_value=lv, rhs_value=rv)
        return VerificationReport(record.id, record.kind, order, EXACT_MATCH)

    if isinstance(record, SubsequenceRelation):
        cache = _cache_for((record.lhs,) + record.rhs, order)
        bad = _check_linear(record.lhs, record.rhs, order, cache)
        if bad is not None:
            n, lv, rv = bad
            return VerificationReport(record.id, record.kind, order, MISMATCH,
                                      first_bad_index=n, lhs_value=lv, rhs_value=rv)
        return VerificationReport(record.id, record.kind, order, EXACT_MATCH)

    if isinstance(record, RecurrenceFamily):
        checked = []
        for k in range(2, kmax + 1):
            lhs, rhs = record.lhs_for(k), record.rhs_for(k)
            cache = _cache_for((lhs,) + rhs, order)
            if _coverage((lhs,) + rhs, order) < 0:
                continue
            bad = _check_linear(lhs, rhs, order, cache)
            if bad is not None:
                n, lv, rv = bad
                return VerificationReport(record.id, record.kind, order, MISMATCH,
                                          first_bad_index=n, lhs_value=lv, rhs_value=rv,
                                          detail=f"k={k}")
            checked.append(k)
        return VerificationReport(record.id, record.kind, order, EXACT_MATCH,
                                  detail=f"k in {checked}")

    if isinstance(record, Congruence):
        cache = _cache_for(record.terms, order)
        bad = _check_divisibility(record.terms, record.modulus, order, cache)
        if bad is not None:
            n, lv, rv = bad
            return VerificationReport(record.id, record.kind, order, MISMATCH,
                                      first_bad_index=n, lhs_value=lv, rhs_value=rv)
        return VerificationReport(record.id, record.kind, order, EXACT_MATCH)

    if isinstance(record, CongruenceFamily):
        checked = []
        for k in range(2, kmax + 1):
            terms, modulus = record.terms_for(k), record.modulus_for(k)
            cache = _cache_for(terms, order)
            if _coverage(terms, order) < 0:
                continue
            bad = _check_divisibility(terms, modulus, order, cache)
            if bad is not None:
                n, lv, rv = bad
                return VerificationReport(record.id, record.kind, order, MISMATCH,
                                          first_bad_index=n, lhs_value=lv, rhs_value=rv,
                                          detail=f"k={k}")
            checked.append(k)
        return VerificationReport(record.id, record.kind, order, EXACT_MATCH,
                                  detail=f"k in {checked}")

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
            return VerificationReport(record.id, record.kind, order, MISMATCH,
                                      detail=f"{detail}; below bound: {failures}")
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
    with stopwatch() as sw:
        try:
            report = _verify_record(record, order, kmax)
        except OracleScaleExceeded as exc:
            report = VerificationReport(record.id, record.kind, order, SKIPPED,
                                        detail=str(exc))
    report.elapsed = sw.elapsed
    return report


def verify_all(tier: str = "all", order: int = DEFAULT_ORDER,
               kmax: int = DEFAULT_KMAX, jobs: int = 1) -> List[VerificationReport]:
    """Verify every record of a tier, in registration order.

    With jobs > 1 the records are evaluated concurrently; the returned
    list (and therefore any printed report) keeps the registry order.
    """
    ids = record_ids(tier)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda rid: verify(rid, order, kmax), ids))
    return [verify(rid, order, kmax) for rid in ids]


def summarize(reports: Sequence[VerificationReport]) -> str:
    total = len(reports)
    matched = sum(1 for r in reports if r.status == EXACT_MATCH)
    mismatched = sum(1 for r in reports if r.status == MISMATCH)
    skipped = sum(1 for r in reports if r.status == SKIPPED)
    return (f"{total} records: {matched} exact-match, "
            f"{mismatched} mismatch, {skipped} skipped")


# -- spec-level convenience operations ----------------------------------------


def check_congruence(seq_name: str, modulus: int, ap: Tuple[int, int],
                     order: int = DEFAULT_ORDER) -> VerificationReport:
    """Check seq(m*n + r) == 0 (mod modulus) for all indices up to order."""
    m, r = ap
    record = Congruence(
        f"congruence.{seq_name}.{m}n+{r}.mod{modulus}", "adhoc",
        f"{seq_name}({m}n+{r}) == 0 (mod {modulus})",
        (Term(seq_name, m, r),), modulus,
    )
    with stopwatch() as sw:
        report = _verify_record(record, order, DEFAULT_KMAX)
    report.elapsed = sw.elapsed
    return report


def check_recurrence_a5(kmax: int = DEFAULT_KMAX,
                        order: int = 3000) -> VerificationReport:
    """The a5 three-term recurrence over 2 <= k <= kmax."""
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    return verify("thm1.recurrence", order, kmax)


def check_recurrence_b5(kmax: int = DEFAULT_KMAX,
                        order: int = 3000) -> VerificationReport:
    """The b5 three-term recurrence over 2 <= k <= kmax."""
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    return verify("thm2.recurrence", order, kmax)
