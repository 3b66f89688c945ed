"""The closed forms of c5, a5 and b5 and their certificates.

Each sequence's generating function is a weight-2 eta quotient, recorded in
``sequences.FORMS`` with its level, character, Sturm bound and Eisenstein
terms.  Ligozat's criteria, checked here in exact arithmetic, make the
quotient a holomorphic modular form on Gamma0(level) with character (5/.);
each Eisenstein term is one on the same group, so by Sturm the closed form
equals the quotient once their first sturm + 1 coefficients agree.
"""

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, prod
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcore import evaluate_side, sequences, verify, verify_all
from qcore.identities import REGISTRY
from qcore.products import SEQ, F, P
from qcore.sequences import FORMS, SEQUENCES

LEGENDRE_5 = (0, 1, -1, -1, 1)


def divisors(m: int) -> list:
    return [d for d in range(1, m + 1) if m % d == 0]


def eisenstein(kind: str, t: int, m: int) -> Fraction:
    """The coefficient of q^m in E_kind(q^t), from the definitions:
    E51 = sum s51(m) q^m and E15 = -1/5 + sum s15(m) q^m, where
    s51(m) = sum over d | m of (m/d | 5) d and s15(m) = sum of (d | 5) d."""
    if m == 0:
        return Fraction(-1, 5) if kind == "s15" else Fraction(0)
    if m % t:
        return Fraction(0)
    m //= t
    return Fraction(sum(LEGENDRE_5[(m // d if kind == "s51" else d) % 5] * d
                        for d in divisors(m)))


def closed_form(form, m: int) -> Fraction:
    """The coefficient of q^m in q^shift times the sequence's series."""
    return sum(c * eisenstein(kind, t, m) for kind, t, c in form.terms) / form.divisor


def eta_side(form) -> tuple:
    """The eta quotient, q^shift prod f_delta^r, as a side."""
    return (P(1, form.shift, *((F(delta), r) for delta, r in form.eta)),)


def cusp_order(form, c: int) -> Fraction:
    """Ligozat's order of the eta quotient at the cusp 1/c, c | level."""
    level = form.level
    return Fraction(level, 24) * sum(
        Fraction(gcd(c, delta) ** 2 * r, gcd(c, level // c) * c * delta)
        for delta, r in form.eta)


def certificate_failures(form) -> list:
    """The conditions of the certificate that the form fails; [] proves that
    q^shift times its product side is the closed form."""
    level, eta = form.level, dict(form.eta)
    checks = {
        "each delta divides the level": all(level % delta == 0 for delta in eta),
        "weight is half the sum of exponents": sum(eta.values()) == 2 * form.weight,
        "sum of delta*r is 0 mod 24": sum(delta * r for delta, r in eta.items()) % 24 == 0,
        "sum of (level/delta)*r is 0 mod 24":
            sum(level // delta * r for delta, r in eta.items()) % 24 == 0,
        "holomorphic at every cusp": all(cusp_order(form, c) >= 0 for c in divisors(level)),
        "order at infinity is the shift": cusp_order(form, level) == form.shift,
    }
    # the character is d -> ((-1)^k s / d), s = prod delta^r; it is (5/.)
    # when k is even and s is 5 times a rational square
    s = prod(delta ** (r % 2) for delta, r in eta.items())
    checks["character (5/.)"] = (form.character == 5 and form.weight % 2 == 0
                                 and s % 5 == 0 and isqrt(s // 5) ** 2 == s // 5)
    primes = [p for p in divisors(level) if len(divisors(p)) == 2]
    index = level * prod(1 + Fraction(1, p) for p in primes)    # of Gamma0(level) in SL2(Z)
    checks["Sturm bound of Gamma0(level)"] = form.sturm == form.weight * index / 12
    # E51 and E15 are weight-2 forms on Gamma0(5) with character (5/.), so
    # E(q^t) is one on Gamma0(5t); the evaluator reads t from its divisors of 4
    for kind, t, c in form.terms:
        checks[f"{c} {kind}(m/{t}) is on Gamma0(level)"] = (
            kind in ("s51", "s15") and 4 % t == 0 and level % (5 * t) == 0)
    quotient = evaluate_side(eta_side(form), 100)
    shifted = tuple((c, shift + form.shift, factors) for c, shift, factors in form.side)
    checks["the eta quotient is the product side"] = (
        quotient == evaluate_side(shifted, 100))
    checks["closed form through the Sturm bound"] = all(
        quotient[m] == closed_form(form, m) for m in range(form.sturm + 1))
    return [what for what, ok in checks.items() if not ok]


@pytest.mark.parametrize("name, orders, coefficients", [
    ("c5", [0, 1], 2),
    ("a5", [0, 0, 3, 0], 4),
    ("b5", [0, 0, 0, 3, 0, 3], 7),
])
def test_each_sequence_is_certified(name, orders, coefficients):
    form = FORMS[name]
    assert certificate_failures(form) == []
    assert [cusp_order(form, c) for c in divisors(form.level)] == orders
    assert form.sturm + 1 == coefficients


@pytest.mark.parametrize("name, changes, failing", [
    # f10^-4 for f10^-5: not a form of weight 2, nor the product side
    ("a5", {"eta": ((1, -2), (2, 1), (5, 10), (10, -4))},
     "weight is half the sum of exponents"),
    # the exponents of f4 and f20 swapped: right weight and character, a pole
    ("b5", {"eta": ((1, -1), (2, 1), (4, 5), (5, 5), (10, -5), (20, -1))},
     "holomorphic at every cusp"),
    ("c5", {"eta": ((1, -1), (5, 5), (25, 0))}, "each delta divides the level"),
    ("b5", {"terms": FORMS["b5"].terms[:-1] + (("s15", 4, 3),)},
     "closed form through the Sturm bound"),
    ("a5", {"terms": (("s51", 1, 3), ("s51", 2, 4), ("s15", 1, -4), ("s15", 2, -1))},
     "closed form through the Sturm bound"),
    ("c5", {"terms": (("s15", 1, 1),)}, "closed form through the Sturm bound"),
    ("a5", {"terms": FORMS["a5"].terms + (("s51", 4, 0),)},
     "0 s51(m/4) is on Gamma0(level)"),
    ("a5", {"sturm": 2}, "Sturm bound of Gamma0(level)"),
    ("c5", {"shift": 0}, "order at infinity is the shift"),
])
def test_a_wrong_exponent_or_term_fails_the_certificate(name, changes, failing):
    assert failing in certificate_failures(FORMS[name]._replace(**changes))


@pytest.mark.parametrize("name", sorted(FORMS))
def test_evaluator_matches_the_divisor_sum_definitions(name):
    form = FORMS[name]
    series = sequences._closed_form(form, 1, 0, 300)
    assert all(series[n] == closed_form(form, n + form.shift) for n in range(301))


def test_a_term_whose_t_does_not_divide_4_is_refused():
    # the evaluator's factors at 2 read t as 1, 2 or 4
    form = FORMS["a5"]._replace(terms=FORMS["a5"].terms + (("s51", 3, 1),))
    with pytest.raises(ValueError, match=r"\('s51', 3, 1\)"):
        sequences._closed_form(form, 1, 0, 10)


@pytest.mark.parametrize("m, r", [(0, 0), (-2, 1)])
@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_a_constructor_refuses_a_modulus_below_1(name, m, r):
    with pytest.raises(ValueError, match="m must be >= 1"):
        SEQUENCES[name](5, m, r)


# the deepest index the progressions below read
DEEPEST = 130 * 300 + 1000


@cache
def prefix(name: str) -> tuple:
    return sequences._closed_form(FORMS[name], 1, 0, DEEPEST).coeffs


def test_the_prefix_is_the_divisor_sum_sieve():
    # every n <= DEEPEST, against s51 and s15 sieved over every divisor d,
    # with E15's constant -1/5 at 0
    top = DEEPEST + max(form.shift for form in FORMS.values())
    sums = {"s51": [0] * (top + 1), "s15": [0] * (top + 1)}
    for d in range(1, top + 1):
        sums["s15"][d::d] = [v + LEGENDRE_5[d % 5] * d for v in sums["s15"][d::d]]
        sums["s51"][d::d] = [v + LEGENDRE_5[e % 5] * d
                             for e, v in enumerate(sums["s51"][d::d], 1)]
    for name, form in FORMS.items():
        sieved = [closed_form(form, 0) * form.divisor] + [
            sum(c * sums[kind][x // t] for kind, t, c in form.terms if x % t == 0)
            for x in range(1, DEEPEST + form.shift + 1)]
        assert [form.divisor * v for v in prefix(name)] == sieved[form.shift:], name


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(FORMS)), st.integers(1, 130), st.integers(-300, 1000),
       st.integers(0, 300))
@example("a5", 7, 0, 5)         # a5(0) = 1, E15's constant alone, at n = 0
@example("a5", 3, -6, 9)        # a5(0) at n = 2, after two negative indices
@example("b5", 1, -3, 4)        # x = 0 at index -3, which is 0; index 0 reads x = 3
@example("c5", 130, -300, 2)    # every index negative
@example("c5", 1, -1, 0)
@example("b5", 25, 22, 300)     # the progression ext.b5.before_last reads
@example("a5", 5, 0, 300)
@example("b5", 1, 0, 0)
def test_a_progression_is_the_slice_of_the_prefix(name, m, r, order):
    # a sequence atom on n = 0..order at m*n + r, read from an empty cache,
    # so through the one evaluator at its own progression, against the
    # evaluator's prefix (m = 1, r = 0), which the tests above pin to the
    # divisor sums and the product side; a negative index is 0
    with patch.dict(sequences._EXPANSIONS, clear=True):
        series = evaluate_side((P(1, 0, SEQ(name, m, r)),), order)
    expected = [prefix(name)[m * n + r] if m * n + r >= 0 else 0 for n in range(order + 1)]
    assert series.order == order and list(series.coeffs) == expected


# U_5: on a progression whose step and offset share a factor 5^w, the
# evaluator divides both by 5^w and weights the s51 terms by 5^w
U5_STEPS = (5, 10, 25, 50, 125)
U5_ORDERS = (0, 1, 2, 3, 4, 5, 11, 24, 59, 60)


def u5_mismatches(name: str, m: int) -> list:
    """The (r, K), 0 <= r < m and K in U5_ORDERS, at which the evaluator on
    m*n + r to order K differs from the m = 1 prefix, which ``_u5`` leaves
    undivided, to m*K + r sliced at [r::m]."""
    form = FORMS[name]
    prefix = sequences._closed_form(form, 1, 0, m * max(U5_ORDERS) + m - 1).coeffs
    return [(r, order) for r in range(m) for order in U5_ORDERS
            if sequences._closed_form(form, m, r, order).coeffs
            != prefix[r: m * order + r + 1: m]]


@pytest.mark.parametrize("m", U5_STEPS)
@pytest.mark.parametrize("name", sorted(FORMS))
def test_a_progression_divided_by_a_power_of_5_is_the_slice_of_the_prefix(name, m):
    assert u5_mismatches(name, m) == []


@pytest.mark.parametrize("name", sorted(FORMS))
def test_a_wrong_u5_weight_is_caught(name, monkeypatch):
    # with the weight 5^w replaced by 1, every step has a wrong progression
    u5 = sequences._u5
    monkeypatch.setattr(sequences, "_u5", lambda m, offset: u5(m, offset)[:2] + (1,))
    assert all(u5_mismatches(name, m) for m in U5_STEPS)


@pytest.mark.parametrize("name", sorted(FORMS))
def test_closed_forms_match_the_product_definitions(name, monkeypatch):
    # every n <= 5000, against the product side expanded as a side
    monkeypatch.setattr(sequences, "_EXPANSIONS", {})
    assert SEQUENCES[name](5000) == evaluate_side(FORMS[name].side, 5000)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_closed_forms_at_the_smallest_orders(order, monkeypatch):
    # a5(0) = 1 is E15's constant term; b5 reads its divisor sums at n + 3
    for name, gen in SEQUENCES.items():
        monkeypatch.setattr(sequences, "_EXPANSIONS", {})
        series = gen(order)
        assert series.order == order
        assert series == evaluate_side(FORMS[name].side, order), (name, order)
    assert sequences._closed_form(FORMS["a5"], 1, 0, order)[0] == 1
    assert list(sequences._closed_form(FORMS["b5"], 1, 0, order).coeffs) == [1, 1, 1, 2, 3][
        :order + 1]


@pytest.mark.parametrize("name, record", [
    ("c5", "ext.a5.start2"),
    ("a5", "ext.a5.rec_main_1"),
    ("b5", "ext.b5.rec_new1"),
])
def test_a_wrong_closed_form_coefficient_is_caught_by_name(name, record, monkeypatch):
    # the registry ties each sequence to products in every run
    closed = sequences._closed_form

    def corrupted(form, m, r, order):
        series = closed(form, m, r, order)
        if form is not FORMS[name] or (m, r) != (1, 0) or order < 100:
            return series
        coeffs = list(series.coeffs)
        coeffs[100] += 1
        return type(series)(coeffs, order)

    monkeypatch.setattr(sequences, "_EXPANSIONS", {})
    monkeypatch.setattr(sequences, "_closed_form", corrupted)
    mismatches = [r.id for r in verify_all("all", 300) if not r.ok]
    assert record in mismatches, mismatches


def _wrong_b5_197(monkeypatch):
    """Start from an empty cache with b5(197) = b5(25*7 + 22) off by one
    where ``_closed_form`` evaluates b5(25n + 22), and right elsewhere."""
    closed = sequences._closed_form

    def corrupted(form, m, r, order):
        series = closed(form, m, r, order)
        if form is not FORMS["b5"] or (m, r) != (25, 22) or order < 7:
            return series
        coeffs = list(series.coeffs)
        coeffs[7] += 1
        return type(series)(coeffs, order)

    monkeypatch.setattr(sequences, "_EXPANSIONS", {})
    monkeypatch.setattr(sequences, "_closed_form", corrupted)


def test_a_wrong_progression_value_is_caught_by_name(monkeypatch):
    # b5(25n + 22) is evaluated on its own n, not sliced from a prefix: one
    # wrong value there, b5(197), fails exactly the records that read it
    # from that evaluation.  Under verify_all these are the two that read
    # b5(25n + 22) to n = 300, at n = 7; every other record reads b5(197)
    # from the prefix, built to 300 first.  Each record verified alone, from
    # an empty cache, evaluates what it reads, so thm2.recurrence,
    # cor.b5.mod5k.rec and ext.b25n72 fail at n = 5 as well
    _wrong_b5_197(monkeypatch)
    mismatches = {r.id: r.first_bad_index for r in verify_all("all", 300) if not r.ok}
    assert mismatches == {"ext.b5.before_last": 7, "ext.b5.eliminate_2": 7}
    mismatches = {}
    for rid in REGISTRY:
        sequences._EXPANSIONS.clear()
        report = verify(rid, 300)
        if not report.ok:
            mismatches[rid] = report.first_bad_index
    assert mismatches == {"thm2.recurrence": 5, "cor.b5.mod5k.rec": 5,
                          "ext.b5.before_last": 7, "ext.b5.eliminate_2": 7, "ext.b25n72": 5}


def test_a_wrong_progression_value_is_reported_over_a_longer_prefix(monkeypatch):
    # a prefix already cached past b5(197) does not reach b5(25n + 22) for
    # n <= 300, so the record evaluates that progression, b5(197) wrong in
    # it, and reports the mismatch its own comparison found
    _wrong_b5_197(monkeypatch)
    SEQUENCES["b5"](300)
    report = verify("ext.b5.before_last", 300)
    assert not report.ok and report.first_bad_index == 7
