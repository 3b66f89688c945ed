import json
import re
from fractions import Fraction

import pytest

from qcore import (
    UnknownIdentity,
    evaluate_side,
    gen_a5bar,
    gen_b5bar,
    record_ids,
    sign_census,
    summarize,
    verify,
    verify_all,
    verify_record,
)
from qcore import NonUnitConstantTerm, identities, products, sequences
from qcore.cli import resolve_series
from qcore.defaults import DEFAULT_KMAX
from qcore.identities import REGISTRY
from qcore.registry import SEQ, F, K, P, Relation, SeriesEquality, T, add_record
from qcore.series import TruncatedSeries, first_mismatch

SERIES_EQUALITIES = [rid for rid, rec in REGISTRY.items() if rec.kind == "series-equality"]


def test_registry_shape():
    assert len(REGISTRY) == 74
    assert len(record_ids("core")) == 46
    assert len(record_ids("extended")) == 28
    assert set(record_ids("all")) == set(REGISTRY)


def test_sequence_access():
    assert sequences.SEQUENCES["c5"](4).coeffs == (1, 1, 2, 3, 5)


def test_verify_single_relation():
    report = verify("thm1.a5n2", 400)
    assert report.ok
    assert report.order == 400


def test_verify_unknown_identity():
    with pytest.raises(UnknownIdentity):
        verify("no.such.id", 100)


def test_perturbed_relation_mismatch_at_zero():
    # same relation with the factor 4 replaced by 3
    report = verify_record(Relation(
        "selftest.a5n2.bad", "selftest", "a5(5n+2) = 3 c5(5n+1)",
        (T("a5", 5, 2),), (T("c5", 5, 1, 3),),
    ), 200)
    assert not report.ok
    assert report.first_bad_index == 0
    assert report.lhs_value == 4
    assert report.rhs_value == 3


def test_corrupted_series_recipe_names_first_index():
    lhs, rhs = REGISTRY["lemma.phimodeq"].sides
    report = verify_record(SeriesEquality("selftest.phimodeq.bad", "selftest",
                                          "phimodeq with rhs bumped at q^7",
                                          (lhs, rhs + (P(1, 7),))), 60)
    assert not report.ok
    assert report.first_bad_index == 7


def test_negative_index_case_is_not_clamped():
    # differs from a true relation only at n = 0, where an index is negative
    report = verify_record(Relation(
        "selftest.neg_index", "selftest", "b5(4n+1) = 3 c5(n) - 2 b5(2n-1)",
        (T("b5", 4, 1),), (T("c5", 1, 0, 3), T("b5", 2, -1, -2)),
    ), 200)
    assert not report.ok
    assert report.first_bad_index == 0


def test_register_rejects_duplicates():
    registry = {}
    add_record(registry, REGISTRY["thm1.a5n2"])
    with pytest.raises(ValueError, match="duplicate identity id thm1.a5n2"):
        add_record(registry, REGISTRY["thm1.a5n2"])
    assert registry == {"thm1.a5n2": REGISTRY["thm1.a5n2"]}


def test_register_rejects_repeated_sides():
    # the same sides under a new id would check nothing new
    base = REGISTRY["ext.b5.rec_start"]
    registry = {base.id: base}
    with pytest.raises(ValueError, match="repeats the sides of ext.b5.rec_start"):
        add_record(registry, SeriesEquality("selftest.rec_start.copy", "selftest",
                                            base.statement, base.sides))
    assert list(registry) == [base.id]


def test_verify_record_leaves_the_registry_as_it_was():
    # a record that is not registered is verified without entering REGISTRY
    before = dict(REGISTRY)
    record = Relation("selftest.unregistered", "selftest", "a5(5n+2) = 4 c5(5n+1)",
                      (T("a5", 5, 2),), (T("c5", 5, 1, 4),))
    assert verify_record(record, 200).ok
    assert list(REGISTRY) == list(before)
    assert all(REGISTRY[rid] is registered for rid, registered in before.items())


@pytest.mark.parametrize("rid", ["lemma.A4B", "thm1.a5n2", "thm2.recurrence", "cor1.mod5k",
                                 "thm3.b5_20n_15", "cor.census", "ext.b5.before_last"])
def test_verify_record_reports_what_verify_reports(rid):
    # verify is the registry lookup in front of verify_record
    for order in (0, 60, 300):
        assert verify_record(REGISTRY[rid], order).to_line() == verify(rid, order).to_line()


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 7, 61])
def test_series_equalities_at_small_orders(order):
    # odd orders and orders not divisible by 4 move the inner order of the
    # sequence atoms substituted at q^2 and q^4
    for rid in SERIES_EQUALITIES:
        sides = [evaluate_side(side, order) for side in REGISTRY[rid].sides]
        assert [s.order for s in sides] == [order] * len(sides), rid
        report = verify(rid, order)
        assert report.status == "exact-match", report.to_line()


def _recording_closed_forms(monkeypatch) -> list:
    """Start from an empty cache and record each ``_closed_form`` call as
    ((name, m, r), order)."""
    names = {id(form): name for name, form in sequences.FORMS.items()}
    closed_form, builds = sequences._closed_form, []

    def recording(form, m, r, order):
        builds.append(((names[id(form)], m, r), order))
        return closed_form(form, m, r, order)

    monkeypatch.setattr(sequences, "_EXPANSIONS", {})
    monkeypatch.setattr(sequences, "_closed_form", recording)
    return builds


def test_verify_all_builds_each_sequence_at_its_rising_orders(monkeypatch):
    # relations read each sequence to N, and series equalities also read
    # a5(5n), b5(5n+2) and b5(25n+22) for n <= N: verify_all first builds
    # each prefix to N, so it is built once, and every lower order is served
    # by slicing; each deeper progression is evaluated once, at its own
    # N+1 points, not as a prefix to 5N or 25N+22, and only the prefixes
    # are kept past the call
    builds = _recording_closed_forms(monkeypatch)
    verify_all("all", 300)
    assert sorted(builds) == [(("a5", 1, 0), 300), (("a5", 5, 0), 300),
                              (("b5", 1, 0), 300), (("b5", 5, 2), 300),
                              (("b5", 25, 22), 300), (("c5", 1, 0), 300)]
    assert sorted(sequences._EXPANSIONS) == ["a5", "b5", "c5"]
    assert all(series.order == 300 for series in sequences._EXPANSIONS.values())


@pytest.mark.parametrize("rid, order, builds", [
    ("thm2.recurrence", 300, [(("b5", 25, 22), 11), (("b5", 5, 2), 11), (("b5", 1, 0), 9)]),
    ("ext.b5.before_last", 60, [(("b5", 25, 22), 60), (("b5", 5, 2), 60)]),
    ("thm3.b5_20n_15", 10, []),
])
def test_a_lone_verify_builds_each_sequence_once(monkeypatch, rid, order, builds):
    # a lone record builds only the progressions it reads, each once.  At
    # N = 300 the family covers n <= 9 at k = 2, reading b5(25n+72), b5(5n+12)
    # and b5(n), and nothing at k = 3: b5(25n+72) is b5(25n+22) to n = 11
    # and b5(5n+12) is b5(5n+2) to n = 11.  before_last reads b5(25n+22)
    # and b5(5n+2) for n <= N and no prefix.  b5(20n+15) covers no n <= 10,
    # so reads nothing and builds nothing.  Only a prefix is kept
    built = _recording_closed_forms(monkeypatch)
    assert verify(rid, order).ok
    assert built == builds
    assert list(sequences._EXPANSIONS) == [key[0] for key, _ in builds if key[1:] == (1, 0)]


def test_every_record_verified_alone_builds_what_it_reads(monkeypatch):
    # each record verified alone, from an empty cache, at the orders of the
    # benchmark's small requests: 148 verify calls evaluate 266 prefixes and
    # progressions in all, as many as a cache that also kept every
    # progression evaluated
    builds = _recording_closed_forms(monkeypatch)
    for order in (100, 600):
        for rid in REGISTRY:
            sequences._EXPANSIONS.clear()
            assert verify(rid, order).ok, rid
    assert len(builds) == 266


def test_a_wrong_value_from_a_constructor_fails_the_record_that_reads_it(monkeypatch):
    # every sequence value is read through its constructor in SEQUENCES, at
    # its own index: one wrong b5(297) = b5(25*11 + 22) = b5(5*59 + 2) in
    # what gen_b5bar returns fails ext.b5.before_last at N = 100, at n = 11,
    # though no b5 prefix is built
    gen = sequences.gen_b5bar

    def corrupted(order, m=1, r=0):
        series = gen(order, m, r)
        if order < 297:
            return series
        coeffs = list(series.coeffs)
        coeffs[297] += 1
        return TruncatedSeries(coeffs, order)

    monkeypatch.setattr(sequences, "_EXPANSIONS", {})
    monkeypatch.setattr(sequences, "gen_b5bar", corrupted)
    monkeypatch.setitem(sequences.SEQUENCES, "b5", corrupted)
    report = verify("ext.b5.before_last", 100)
    assert not report.ok and report.first_bad_index == 11


def _congruence(seq, m, r, modulus):
    """seq(m*n + r) == 0 (mod modulus), a record that is not registered."""
    return Relation(f"selftest.{seq}.{m}n+{r}.mod{modulus}", "selftest",
                    f"{seq}({m}n+{r}) == 0 (mod {modulus})", (T(seq, m, r),), modulus=modulus)


def test_check_congruence_families():
    assert verify_record(_congruence("a5", 20, 6, 10), 600).ok
    assert verify_record(_congruence("a5", 20, 14, 10), 600).ok
    assert verify_record(_congruence("a5", 20, 6, 5), 600).ok  # weaker modulus
    assert not verify_record(_congruence("a5", 20, 6, 3), 600).ok


def test_recurrence_checks():
    assert verify("thm1.recurrence", 1500, kmax=3).ok
    assert verify("thm2.recurrence", 1500, kmax=3).ok
    with pytest.raises(ValueError):
        verify("thm1.recurrence", 100, kmax=1)


# the eight registered families as functions of k, the reference for their
# K data: k -> (lhs, rhs, modulus)
REFERENCE_FAMILIES = {
    "thm1.recurrence": lambda k: (
        (T("a5", 5 ** k, 0),),
        (T("a5", 5, 0, (5 ** k - 1) // 4), T("a5", 1, 0, -((5 ** k - 5) // 4))), 0),
    "cor1.mod5k": lambda k: (
        (T("a5", 5 ** k, 0, 4),), (T("a5", 1, 0, 5), T("a5", 5, 0, -1)), 5 ** k),
    "thm2.recurrence": lambda k: (
        (T("b5", 5 ** k, 3 * 5 ** k - 3),),
        (T("b5", 5, 12, (5 ** k - 1) // 4), T("b5", 1, 0, -((5 ** k - 5) // 4))), 0),
    "cor.b5.mod5k.rec": lambda k: (
        (T("b5", 5 ** k, 3 * 5 ** k - 3, 4),), (T("b5", 1, 0, 5), T("b5", 5, 12, -1)), 5 ** k),
    "cor.b5.mod5k.n18": lambda k: (
        (T("b5", 20 * 5 ** k, 18 * 5 ** k - 3),), (), (5 ** k - 1) // 4),
    "cor.b5.mod5k.n22": lambda k: (
        (T("b5", 20 * 5 ** k, 22 * 5 ** k - 3),), (), (5 ** k - 1) // 4),
    "cor.b5.exact.n87": lambda k: (
        (T("b5", 20 * 5 ** k, 18 * 5 ** k - 3),), (T("b5", 100, 87, (5 ** k - 1) // 4),), 0),
    "cor.b5.exact.n107": lambda k: (
        (T("b5", 20 * 5 ** k, 22 * 5 ** k - 3),), (T("b5", 100, 107, (5 ** k - 1) // 4),), 0),
}


@pytest.mark.parametrize("rid", sorted(REFERENCE_FAMILIES))
def test_families_as_data_equal_the_reference(rid):
    record = REGISTRY[rid]
    assert record.family
    for k in range(2, 9):
        instance = record.at(k)
        assert (instance.lhs, instance.rhs, instance.modulus) == REFERENCE_FAMILIES[rid](k), k


def test_every_kind_is_unchanged():
    kinds = {}
    for rid, record in REGISTRY.items():
        kinds.setdefault(record.kind, []).append(rid)
    assert sorted(kinds["recurrence-family"]) == [
        "cor.b5.exact.n107", "cor.b5.exact.n87", "thm1.recurrence", "thm2.recurrence"]
    assert sorted(kinds["congruence-family"]) == [
        "cor.b5.mod5k.n18", "cor.b5.mod5k.n22", "cor.b5.mod5k.rec", "cor1.mod5k"]
    assert sorted(kinds["congruence"]) == ["cor1.mod10a", "cor1.mod10b"]
    assert kinds["census"] == ["cor.census"]
    assert {kind: len(ids) for kind, ids in kinds.items()} == {
        "series-equality": 24, "subsequence-relation": 39, "recurrence-family": 4,
        "congruence-family": 4, "congruence": 2, "census": 1}


def test_relation_without_k_is_its_own_instance():
    record = REGISTRY["thm3.b5_4n_1"]
    assert not record.family
    assert record.at(2) == record.at(5) == record


def test_k_that_is_not_an_integer_raises():
    record = Relation("selftest.k", "selftest", "c5((5^k)/2 n)", (T("c5", K(1, 0, 2)),))
    with pytest.raises(ValueError, match="not an integer at k=2"):
        record.at(2)


def _bumped_a4b():
    # lemma.A4B with 5q in place of 4q: both sides divide by f1 and f5
    lhs, (first, (_, shift, factors)) = REGISTRY["lemma.A4B"].sides
    return SeriesEquality("selftest.A4B", "selftest", "A4B with 5q in place of 4q",
                          (lhs, (first, (5, shift, factors))))


def _fractional_phimodeqfora5():
    # lemma.phimodeqfora5 plus q^7/(3 f1): a Fraction coefficient and a new divisor
    lhs, rhs = REGISTRY["lemma.phimodeqfora5"].sides
    return SeriesEquality("selftest.frac", "selftest", "phimodeqfora5 plus q^7/(3 f1)",
                          (lhs, rhs + (P(Fraction(1, 3), 7, (F(1), -1)),)))


# recorded before series equalities were compared with their denominators
# cleared; the report still prints the values of the sides as written
@pytest.mark.parametrize("record, line", [
    (_bumped_a4b(), "selftest.A4B mismatch N=800 index=1 lhs=4 rhs=5"),
    (_fractional_phimodeqfora5(), "selftest.frac mismatch N=800 index=7 lhs=0 rhs=1/3"),
    (Relation("selftest.rel", "selftest", "b5(10n+1) = 5/6 c5(5n+1)",
              (T("b5", 10, 1),), (T("c5", 5, 1, Fraction(5, 6)),)),
     "selftest.rel mismatch N=800 index=0 lhs=1 rhs=5/6"),
    (Relation("selftest.cong", "selftest", "b5(80n+80)/2 == 0 (mod 10)",
              (T("b5", 80, 80, Fraction(1, 2)),), modulus=10),
     "selftest.cong mismatch N=800 index=0 lhs=41/2 rhs=0 (mod 10)"),
    # a fractional scale with an integral sum: 1 is not a multiple of 2
    (Relation("selftest.half", "selftest", "c5(10n+2)/2 == 0 (mod 2)",
              (T("c5", 10, 2, Fraction(1, 2)),), modulus=2),
     "selftest.half mismatch N=800 index=0 lhs=1 rhs=0 (mod 2)"),
    # thm1.recurrence with its a5(n) scale -(5^k-5)/4 at k=2 (-5) but one
    # lower at k=3 (-31)
    (Relation("selftest.rec", "selftest", "thm1.recurrence, off by one at k=3",
              (T("a5", K(1), 0),), (T("a5", 5, 0, K(1, -1, 4)), T("a5", 1, 0, K(-13, 75, 50)))),
     "selftest.rec mismatch N=800 index=0 lhs=1 rhs=0 [k=3]"),
    # cor1.mod5k with the modulus 5^k at k=2 (25) but 5^(k+1) at k=3 (625)
    (Relation("selftest.cfam", "selftest", "cor1.mod5k, mod 5^(k+1) at k=3",
              (T("a5", K(1), 0, 4),), (T("a5", 1, 0, 5), T("a5", 5, 0, -1)), K(6, -125)),
     "selftest.cfam mismatch N=800 index=1 lhs=1500 rhs=0 (mod 625) [k=3]"),
], ids=["series-bumped", "series-fraction", "relation", "congruence", "congruence-integral",
        "recurrence-family", "congruence-family"])
def test_mismatch_report_shapes(record, line):
    assert verify_record(record, 800).to_line() == line


def test_a_mismatch_expands_only_one_over_d_to_its_index(monkeypatch):
    # the cleared sides are expanded to N once, and no side again: the
    # mismatch's values come from them and from 1/D, expanded only to the
    # first differing index
    orders = []

    def recording(side, order):
        orders.append(order)
        return evaluate_side(side, order)

    monkeypatch.setattr(identities, "evaluate_side", recording)
    assert verify_record(_bumped_a4b(), 800).first_bad_index == 1
    assert orders == [800, 800, 1]


# -- one run-scoped table of products -------------------------------------------


def _counting_mul(monkeypatch):
    calls = []
    mul = TruncatedSeries.mul

    def counted(self, other):
        calls.append(1)
        return mul(self, other)
    monkeypatch.setattr(TruncatedSeries, "mul", counted)
    return calls


def test_verify_all_makes_each_product_of_its_plan_once(monkeypatch):
    # the sides that ext.a5.* and ext.b5.* rewrite share their products
    # (f10^5, psi(-q) psi(-q^5)^3, phi(-q^5)^3, ...): the run makes each
    # distinct one once, where its records verified one by one make more
    ids = record_ids("all")
    plan = products.plan_run(identities.compared_sides(ids, 1500, DEFAULT_KMAX))
    alone = sum(products.plan_run([pair]).products
                for pair in identities.compared_sides(ids, 1500, DEFAULT_KMAX))
    calls = _counting_mul(monkeypatch)
    assert all(report.ok for report in verify_all("all", 1500))
    assert len(calls) == plan.products < alone
    assert products._RUN == {}


def test_verify_all_expands_each_atom_of_its_plan_once(monkeypatch):
    # an atom's leaf is an entry of the run's table like a product: while
    # verify_all evaluates the series equalities' sides, each (atom, order)
    # that their plan reads is expanded by its constructor once
    sides = identities.compared_sides(SERIES_EQUALITIES, 1500, DEFAULT_KMAX)
    table = products.plan_run(sides).table
    leaves = {(atom, order) for mono, order in table for atom, _ in mono
              if mono == frozenset(products._leaf(atom))}
    current, calls = [], []
    atom_series, one = products._atom_series, identities.verify

    def verifying(rid, *args):
        current.append(rid)
        return one(rid, *args)

    def expanding(atom, order):
        if current and current[-1] in SERIES_EQUALITIES:
            calls.append((atom, order))
        return atom_series(atom, order)

    monkeypatch.setattr(identities, "verify", verifying)
    monkeypatch.setattr(products, "_atom_series", expanding)
    assert all(report.ok for report in verify_all("all", 1500))
    assert len(calls) == len(set(calls))
    assert set(calls) == leaves


@pytest.mark.parametrize("rid", ["dissection.inv_f1_5", "ext.b5.before_last", "thm3.b5_10n"])
def test_a_lone_verify_plans_only_its_own_sides(monkeypatch, rid):
    # outside verify_all each side is its own run: it makes its products
    # once, and none of another side's
    pairs = identities.compared_sides([rid], 300, DEFAULT_KMAX)
    calls = _counting_mul(monkeypatch)
    assert verify(rid, 300).ok
    assert len(calls) == sum(products.plan_run([pair]).products for pair in pairs)


def test_the_run_table_is_empty_after_every_run(monkeypatch):
    assert verify_all("all", 300)
    assert products._RUN == {} and not products._SIDES
    # an error partway through, while the table holds products for later
    # records, leaves it empty too
    euler, held = products.euler_f, []

    def failing(*args):
        held.append(sum(value is not None for _, value in products._RUN.values()))
        if held[-1]:
            raise RuntimeError("injected crash in euler_f")
        return euler(*args)

    monkeypatch.setattr(products, "euler_f", failing)
    with pytest.raises(RuntimeError, match="injected"):
        verify_all("all", 300)
    assert held[-1] > 0
    assert products._RUN == {} and not products._SIDES


def test_a_wrong_record_among_records_that_share_its_products(monkeypatch):
    # ext.b5.eliminate_2 with 4 for its last coefficient 5, placed right
    # after it, reads the products that its neighbours make: it fails where
    # it fails alone, with the same values, and its neighbours still match
    base = REGISTRY["ext.b5.eliminate_2"]
    lhs, rhs = base.sides
    wrong = SeriesEquality("selftest.eliminate_2", "selftest", "eliminate_2 with 4 for 5",
                           (lhs, rhs[:-1] + ((4, *rhs[-1][1:]),)))
    expected = [report._replace(elapsed=None) for report in verify_all("all", 600)]
    registry = {}
    for rid, record in REGISTRY.items():
        registry[rid] = record
        if rid == base.id:
            registry[wrong.id] = wrong
    monkeypatch.setattr(identities, "REGISTRY", registry)
    pairs = identities.compared_sides([base.id, wrong.id], 600, DEFAULT_KMAX)
    assert products.plan_run(pairs).products < sum(products.plan_run([pair]).products
                                                   for pair in pairs)
    alone = verify(wrong.id, 600)
    assert not alone.ok and alone.first_bad_index is not None
    reports = [report._replace(elapsed=None) for report in verify_all("all", 600)]
    assert reports.pop(list(registry).index(wrong.id)) == alone._replace(elapsed=None)
    assert reports == expected


def test_series_equalities_divide_only_to_build_sequences(monkeypatch):
    # with the denominators cleared, no side of a true identity divides, and
    # the sequences, built from their closed forms, do not divide either, so
    # every record at N = 1500 and the sequences at 30000 come out the same
    def run():
        monkeypatch.setattr(sequences, "_EXPANSIONS", {})
        reports = [report._replace(elapsed=None) for report in verify_all("all", 1500)]
        assert len(reports) == 74
        return reports, [resolve_series(name, 30000) for name in ("c5", "a5bar", "b5bar")]

    def no_division(self, other):
        raise AssertionError("a side divided")

    expected = run()
    monkeypatch.setattr(TruncatedSeries, "div", no_division)
    monkeypatch.setattr(sequences, "_EXPANSIONS", {})
    for rid in SERIES_EQUALITIES:
        assert verify(rid, 300).ok, rid
    assert run() == expected


def test_a_fault_in_clearing_is_reported_as_a_mismatch(monkeypatch):
    # q^3 added to the cleared lhs, which the sides as written lack, is a
    # mismatch at n = 3, never an exact match: times 1/D, whose constant term
    # is 1, the lhs there is one more than the rhs
    clear = identities._cleared

    def bumped(sides):
        cleared, pairs = clear(sides)
        return [cleared[0] + (P(1, 3),), *cleared[1:]], pairs

    monkeypatch.setattr(identities, "_cleared", bumped)
    report = verify("lemma.A4B", 50)
    assert not report.ok and report.first_bad_index == 3
    assert report.lhs_value == report.rhs_value + 1


CLEARED = [rid for rid in SERIES_EQUALITIES if identities._cleared(REGISTRY[rid].sides)[1]]


@pytest.mark.parametrize("rid", CLEARED)
def test_a_cleared_mismatch_reports_the_values_of_the_sides_as_written(rid):
    # the sides as written, each expanded to N with its divisions, are the
    # oracle: each +1 coefficient mutant of a term reports the first side and
    # the first other side that differs from it at their first differing n
    record = REGISTRY[rid]
    for s, side in enumerate(record.sides):
        for t, (coeff, shift, factors) in enumerate(side):
            sides = list(record.sides)
            sides[s] = side[:t] + ((coeff + 1, shift, factors),) + side[t + 1:]
            report = verify_record(SeriesEquality(rid, "selftest", "", sides), 60)
            reference, *others = (evaluate_side(mutated, 60) for mutated in sides)
            n, lhs, rhs = next(bad for other in others
                               if (bad := first_mismatch(reference, other)) is not None)
            assert (report.first_bad_index, report.lhs_value, report.rhs_value) == (n, lhs, rhs)


def test_sequence_denominator_is_not_cleared():
    # 1/c5(5n+4) = 1/(5 c5(n)) holds times c5(5n+4) c5(n), but c5(5n+4) has
    # constant term 5, so the side as written cannot be expanded
    record = SeriesEquality(
        "selftest.seq_den", "selftest", "1/c5(5n+4) = 1/(5 c5(n))",
        ([P(1, 0, (SEQ("c5", 5, 4), -1))], [P(Fraction(1, 5), 0, (SEQ("c5"), -1))]))
    with pytest.raises(NonUnitConstantTerm):
        verify_record(record, 50)


def test_recurrence_spot_values():
    a5 = gen_a5bar(30)
    assert a5[25] == 6 * a5[5] - 5 * a5[1]
    assert a5[25] == 74
    b5 = gen_b5bar(80)
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


def test_consistency_triangle():
    assert verify("derived.triangle", 500).ok
    # and the three records it ties together
    for rid in ("thm1.a20n6", "cor.a5b5.a20n6", "thm3.b5_10n"):
        assert verify(rid, 500).ok


def test_verify_at_order_zero_is_degenerate_but_legal():
    # nothing mismatches at order 0; what covers no n there is skipped
    reports = verify_all("core", 0)
    assert all(r.ok for r in reports)
    assert {r.status for r in reports} == {"exact-match", "skipped"}
    assert all(r.detail == "no n covered" for r in reports if r.status == "skipped")


@pytest.mark.parametrize("rid, order", [("thm3.b5_20n_15", 10), ("ext.b25n72", 60),
                                        ("cor.census", 0)])
def test_a_check_that_covers_no_n_is_skipped(rid, order):
    report = verify(rid, order)
    assert report.to_line() == f"{rid} skipped N={order} [no n covered]"
    assert report.ok    # a skip is not a mismatch


def test_every_plain_relation_covers_an_n_from_order_100():
    # perfbench/gate.py accepts only exact-match, and verifies at N >= 100
    for rid, record in REGISTRY.items():
        if isinstance(record, Relation) and not record.family:
            assert identities._coverage((record.lhs, record.rhs), 100) >= 0, rid


@pytest.mark.parametrize("order, kmax", [(0, 3), (60, 3), (300, 3), (1500, 3), (1500, 5)])
def test_a_family_reports_every_k_it_was_asked_for(order, kmax):
    for rid, record in REGISTRY.items():
        if isinstance(record, Relation) and record.family:
            report = verify(rid, order, kmax)
            assert report.status == "exact-match"
            found = re.fullmatch(r"k in (\[.*?\])(?:; no n covered at k in (\[.*\]))?",
                                 report.detail)
            checked, missed = json.loads(found[1]), json.loads(found[2] or "[]")
            assert sorted(checked + missed) == list(range(2, kmax + 1)), report.to_line()
    assert verify("cor.b5.mod5k.n18", 1500).detail == "k in [2]; no n covered at k in [3]"
