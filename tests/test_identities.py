from fractions import Fraction

import pytest

from qcore import (
    UnknownIdentity,
    evaluate_side,
    UnknownSequence,
    check_congruence,
    check_recurrence_a5,
    check_recurrence_b5,
    record_ids,
    register,
    sequence,
    sign_census,
    summarize,
    unregister,
    verify,
    verify_all,
)
from qcore.identities import REGISTRY
from qcore.registry import P, SeriesEquality, SubsequenceRelation, T

SERIES_EQUALITIES = [rid for rid, rec in REGISTRY.items() if rec.kind == "series-equality"]


def test_registry_shape():
    assert len(REGISTRY) == 74
    assert len(record_ids("core")) == 46
    assert len(record_ids("extended")) == 28
    assert set(record_ids("all")) == set(REGISTRY)


def test_sequence_access():
    assert sequence("c5", 4).coeffs == (1, 1, 2, 3, 5)
    with pytest.raises(UnknownSequence):
        sequence("d7", 10)


def test_verify_single_relation():
    report = verify("thm1.a5n2", 400)
    assert report.ok
    assert report.order == 400


def test_verify_unknown_identity():
    with pytest.raises(UnknownIdentity):
        verify("no.such.id", 100)


def test_perturbed_relation_mismatch_at_zero():
    # same relation with the factor 4 replaced by 3
    register(SubsequenceRelation(
        "selftest.a5n2.bad", "selftest", "a5(5n+2) = 3 c5(5n+1)",
        T("a5", 5, 2), (T("c5", 5, 1, 3),),
    ))
    try:
        report = verify("selftest.a5n2.bad", 200)
        assert not report.ok
        assert report.first_bad_index == 0
        assert report.lhs_value == 4
        assert report.rhs_value == 3
    finally:
        unregister("selftest.a5n2.bad")


def test_corrupted_series_recipe_names_first_index():
    lhs, rhs = REGISTRY["lemma.phimodeq"].sides
    register(SeriesEquality("selftest.phimodeq.bad", "selftest",
                            "phimodeq with rhs bumped at q^7", (lhs, rhs + (P(1, 7),))))
    try:
        report = verify("selftest.phimodeq.bad", 60)
        assert not report.ok
        assert report.first_bad_index == 7
    finally:
        unregister("selftest.phimodeq.bad")


def test_negative_index_case_is_not_clamped():
    # differs from a true relation only at n = 0, where an index is negative
    register(SubsequenceRelation(
        "selftest.neg_index", "selftest", "b5(4n+1) = 3 c5(n) - 2 b5(2n-1)",
        T("b5", 4, 1), (T("c5", 1, 0, 3), T("b5", 2, -1, -2)),
    ))
    try:
        report = verify("selftest.neg_index", 200)
        assert not report.ok
        assert report.first_bad_index == 0
    finally:
        unregister("selftest.neg_index")


def test_register_rejects_duplicates():
    with pytest.raises(ValueError):
        register(REGISTRY["thm1.a5n2"])


def test_register_rejects_repeated_sides():
    # the same sides under a new id would check nothing new
    base = REGISTRY["ext.b5.rec_start"]
    with pytest.raises(ValueError):
        register(SeriesEquality("selftest.rec_start.copy", "selftest", base.statement,
                                base.sides))
    assert "selftest.rec_start.copy" not in REGISTRY


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 7, 61])
def test_series_equalities_at_small_orders(order):
    # odd orders and orders not divisible by 4 move the inner order of the
    # sequence atoms substituted at q^2 and q^4
    for rid in SERIES_EQUALITIES:
        sides = [evaluate_side(side, order) for side in REGISTRY[rid].sides]
        assert [s.order for s in sides] == [order] * len(sides), rid
        report = verify(rid, order)
        assert report.status == "exact-match", report.to_line()


def test_check_congruence_families():
    assert check_congruence("a5", 10, (20, 6), 600).ok
    assert check_congruence("a5", 10, (20, 14), 600).ok
    assert check_congruence("a5", 5, (20, 6), 600).ok  # weaker modulus
    assert not check_congruence("a5", 3, (20, 6), 600).ok


def test_recurrence_checks():
    assert check_recurrence_a5(3, 1500).ok
    assert check_recurrence_b5(3, 1500).ok
    with pytest.raises(ValueError):
        check_recurrence_a5(1, 100)


def test_recurrence_spot_values():
    a5 = sequence("a5", 30)
    assert a5[25] == 6 * a5[5] - 5 * a5[1]
    assert a5[25] == 74
    b5 = sequence("b5", 80)
    assert b5[72] == 6 * b5[12] - 5 * b5[0]


def test_sign_census_small_prefix():
    census = sign_census("b5", 10)
    assert census.zero == Fraction(1, 5)
    assert census.positive == Fraction(3, 5)
    assert census.negative == Fraction(1, 5)


def test_sign_census_c5_has_no_zeros():
    assert sign_census("c5", 500).zero == 0


def test_census_record_reports_frequencies():
    report = verify("cor.census", 1000)
    assert report.ok
    assert "n=1..1000" in report.detail


def test_census_bound_can_dip_below_at_unaligned_order():
    # the zero frequency approaches 30% from below between multiples of 20,
    # so a small unaligned order is reported as a bound violation, with the
    # frequencies spelled out
    report = verify("cor.census", 150)
    assert not report.ok
    assert "zero" in report.detail and "n=1..150" in report.detail


def test_verify_all_core_small_order():
    reports = verify_all("core", 200)
    assert all(r.ok for r in reports)
    assert summarize(reports).startswith("46 records: 46 exact-match")


def test_verify_all_parallel_matches_serial():
    serial = [r.to_line() for r in verify_all("core", 120)]
    parallel = [r.to_line() for r in verify_all("core", 120, jobs=4)]
    assert serial == parallel


def test_consistency_triangle():
    assert verify("derived.triangle", 500).ok
    # and the three records it ties together
    for rid in ("thm1.a20n6", "cor.a5b5.a20n6", "thm3.b5_10n"):
        assert verify(rid, 500).ok


def test_verify_at_order_zero_is_degenerate_but_legal():
    reports = verify_all("core", 0)
    assert all(r.status in ("exact-match",) for r in reports)
