import pytest

from conftest import THETA_CORPUS

import _brute as brute
from _brute import triple_product
from qcore import (
    PochhammerFactor,
    ThetaSpec,
    TruncatedSeries,
    euler_f,
    evaluate_side,
    expand_pochhammer,
    gen_a5bar,
    gen_b5bar,
    gen_c5,
    phi,
    psi,
    theta_general,
)
from qcore import products, sequences
from qcore.products import CHI, PHI, POCH, PSI, SEQ, THETA, F, P, R
from qcore.registry import T

# frozen via _brute.py (qproduct / theta_sum / partition counts)
R_OF_Q_16 = [1, -1, 1, 0, -1, 1, -1, 1, 0, -1, 2, -3, 2, 0, -2, 4, -4]
F_PLUS_Q_16 = [1, 1, -1, 0, 0, -1, 0, -1, 0, 0, 0, 0, -1, 0, 0, 1, 0]
CHI_MINUS_Q_8 = [1, -1, 0, -1, 1, -1, 1, -1, 2]
CHI_PLUS_Q_8 = [1, 1, 0, 1, 1, 1, 1, 1, 2]
DISTINCT_PARTS_8 = [1, 1, 1, 2, 2, 3, 4, 5, 6]
C5_16 = [1, 1, 2, 3, 5, 2, 6, 5, 7, 5, 12, 6, 12, 6, 10, 11, 16]
A5BAR_16 = [1, 2, 4, 8, 14, 14, 20, 24, 20, 14, 32, 24, 24, 48, 60, 32, 62]
B5BAR_16 = [1, 1, 1, 2, 3, -1, 0, 2, 0, -2, 6, 6, 3, 5, 8, 0, 0]


# -- Pochhammer products -------------------------------------------------------


def test_pochhammer_euler_product():
    assert expand_pochhammer(PochhammerFactor(1, 1, 1), 7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_pochhammer_zero_exponent():
    assert expand_pochhammer(PochhammerFactor(1, 1, 2, 0), 5) == TruncatedSeries.one(5)


def test_pochhammer_distinct_parts():
    got = expand_pochhammer(PochhammerFactor(-1, 1, 1), 8)
    assert list(got.coeffs) == DISTINCT_PARTS_8


def test_pochhammer_negative_exponent_is_partition_gf():
    got = expand_pochhammer(PochhammerFactor(1, 1, 1, -1), 10)
    assert list(got.coeffs) == brute.partition_counts(10)


def test_pochhammer_square_matches_pow():
    single = expand_pochhammer(PochhammerFactor(1, 2, 3), 30)
    assert expand_pochhammer(PochhammerFactor(1, 2, 3, 2), 30) == single.pow(2)


def test_pochhammer_validation():
    with pytest.raises(ValueError, match="sign must be"):
        PochhammerFactor(2, 1, 1)
    with pytest.raises(ValueError, match="offset and modulus must be >= 1"):
        PochhammerFactor(1, 0, 1)
    with pytest.raises(ValueError, match="offset and modulus must be >= 1"):
        PochhammerFactor(1, 1, 0)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("offset", range(1, 8))
def test_pochhammer_euler_sum_matches_factor_by_factor(sign, offset):
    # Euler's sum against multiplying in one factor (1 - sign q^t) at a time,
    # at orders below, at and past the first factor
    for modulus in range(1, 8):
        for order in sorted({0, 1, offset - 1, offset, 300}):
            got = expand_pochhammer(PochhammerFactor(sign, offset, modulus), order)
            assert list(got.coeffs) == brute.pochhammer(sign, offset, modulus, order), \
                (sign, offset, modulus, order)


def test_value_types_compare_hash_and_show_by_value():
    poch = PochhammerFactor(-1, 2, 3)
    spec = ThetaSpec(1, 2, -1, 3)
    assert repr(poch) == "PochhammerFactor(sign=-1, offset=2, modulus=3, exponent=1)"
    assert repr(spec) == "ThetaSpec(s1=1, e1=2, s2=-1, e2=3)"
    assert poch == PochhammerFactor(sign=-1, offset=2, modulus=3, exponent=1)
    assert hash(poch) == hash(PochhammerFactor(-1, 2, 3, 1))
    assert poch != PochhammerFactor(-1, 2, 3, 2)
    assert spec == ThetaSpec(1, 2, -1, 3) and spec != ThetaSpec(1, 2, 1, 3)
    assert hash(spec) == hash(ThetaSpec(1, 2, -1, 3))
    assert (spec.s1, spec.e1, spec.s2, spec.e2) == (1, 2, -1, 3)
    assert poch.exponent == 1


def test_value_types_are_immutable():
    for value, field in ((PochhammerFactor(1, 1, 1), "sign"), (ThetaSpec(1, 1, 1, 1), "e2")):
        with pytest.raises(AttributeError):
            setattr(value, field, 2)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 0


def test_equal_specs_stay_distinct_atoms_by_their_head():
    # the two specs are equal tuples, but each atom carries its head
    assert ThetaSpec(1, 1, 1, 1) == PochhammerFactor(1, 1, 1, 1)
    term = P(1, 0, THETA(1, 1, 1, 1), POCH(1, 1, 1, 1))
    assert term[2] == ((THETA(1, 1, 1, 1), 1), (POCH(1, 1, 1, 1), 1))
    expected = theta_general(ThetaSpec(1, 1, 1, 1), 60).mul(
        expand_pochhammer(PochhammerFactor(1, 1, 1, 1), 60))
    assert evaluate_side((term,), 60) == expected


def test_equal_sides_share_one_prefix_cache_entry(monkeypatch):
    # a sequence atom in equal but distinct sides and the sequence's
    # constructor find its one cache entry
    monkeypatch.setattr(sequences, "_EXPANSIONS", {})
    first = evaluate_side((P(1, 0, SEQ("b5")),), 40)
    again = evaluate_side((P(1, 0, SEQ("b5")),), 30)
    assert again == first.truncate(30) and gen_b5bar(40) is first
    assert list(sequences._EXPANSIONS) == ["b5"]


@pytest.mark.parametrize("m, r, order", [
    (5, 2, 52), (25, 22, 120), (25, 72, 120), (4, -3, 30), (3, 4, 2), (7, 0, 0), (25, 22, 10)])
@pytest.mark.parametrize("source", ["evaluated", "sliced"])
def test_a_constructor_with_a_modulus_keeps_the_terms_at_that_residue(monkeypatch, source,
                                                                      m, r, order):
    # gen(M, m, r) is the generating function to q^M with every term whose
    # exponent is not r mod m set to 0, whether the terms are evaluated on
    # their own or sliced from a cached prefix that reaches M; the cache
    # keeps the prefix alone, so terms evaluated on their own leave it empty
    monkeypatch.setattr(sequences, "_EXPANSIONS", {})
    for gen, name in ((gen_c5, "c5"), (gen_a5bar, "a5"), (gen_b5bar, "b5")):
        full = gen(order)
        expected = [c if x % m == r % m else 0 for x, c in enumerate(full.coeffs)]
        sequences._EXPANSIONS.clear()
        if source == "sliced":
            gen(order)
        part = gen(order, m, r)
        assert part.order == order and list(part.coeffs) == expected, name
        keys = {"sliced": [name], "evaluated": []}[source]
        assert list(sequences._EXPANSIONS) == keys
        sequences._EXPANSIONS.clear()


# -- Euler products --------------------------------------------------------------


def test_euler_f1_pentagonal():
    assert euler_f(1, 7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_euler_f5_is_one_below_q5():
    assert euler_f(5, 4) == TruncatedSeries.one(4)


def test_euler_f2():
    assert euler_f(2, 6).coeffs == (1, 0, -1, 0, -1, 0, 0)


def test_euler_f_matches_pochhammer():
    for j in (1, 2, 5):
        assert euler_f(j, 150) == expand_pochhammer(PochhammerFactor(1, j, j), 150)


def test_euler_f_inflate_consistency():
    for j in (2, 3, 5):
        n = 90
        assert euler_f(j, n) == euler_f(1, n // j).inflate(j, n)


def test_euler_f_positive_argument():
    assert list(euler_f(1, 16, 1).coeffs) == F_PLUS_Q_16
    # f(q) = f2^3/(f1 f4) as a q-product
    prod = euler_f(2, 100).pow(3).div(euler_f(1, 100).mul(euler_f(4, 100)))
    assert euler_f(1, 100, 1) == prod


# -- general theta ----------------------------------------------------------------


def test_theta_phi_psi_f_specializations():
    assert theta_general(ThetaSpec(-1, 1, -1, 1), 9).coeffs == (1, -2, 0, 0, 2, 0, 0, 0, 0, -2)
    assert theta_general(ThetaSpec(-1, 1, -1, 3), 10).coeffs == (1, -1, 0, -1, 0, 0, 1, 0, 0, 0, 1)
    assert theta_general(ThetaSpec(-1, 1, -1, 2), 60) == euler_f(1, 60)


def test_theta_matches_brute_window():
    for spec in THETA_CORPUS:
        got = theta_general(spec, 120)
        assert list(got.coeffs) == brute.theta_sum(spec.s1, spec.e1, spec.s2, spec.e2, 120), spec


def test_theta_spec_validation():
    with pytest.raises(ValueError, match="need e1 \\+ e2 >= 1 for convergence"):
        ThetaSpec(1, 0, 1, 0)
    with pytest.raises(ValueError, match="signs must be"):
        ThetaSpec(0, 1, 1, 1)
    with pytest.raises(ValueError, match="exponents must be >= 0"):
        ThetaSpec(1, -1, 1, 2)


def test_triple_product_matches_bilateral_sum():
    for spec in THETA_CORPUS:
        assert triple_product(spec, 200) == theta_general(spec, 200), spec


# -- named specializations ----------------------------------------------------------


def test_phi_values():
    assert phi(-1, 1, 9).coeffs == (1, -2, 0, 0, 2, 0, 0, 0, 0, -2)
    assert phi(1, 1, 4).coeffs == (1, 2, 0, 0, 2)
    assert phi(-1, 5, 20) == phi(-1, 1, 4).inflate(5)


def test_psi_values():
    assert psi(-1, 1, 10).coeffs == (1, -1, 0, -1, 0, 0, 1, 0, 0, 0, 1)
    assert psi(1, 1, 6).coeffs == (1, 1, 0, 1, 0, 0, 1)
    assert psi(-1, 5, 15).coeffs == (1,) + (0,) * 4 + (-1,) + (0,) * 9 + (-1,)


def side(*factors, order):
    """The one-term side prod factors, expanded to the order."""
    return evaluate_side((P(1, 0, *factors),), order)


@pytest.mark.parametrize("sign", [1, -1])
def test_named_thetas_match_their_own_sums(sign):
    # f, phi and psi are specializations of theta_general; check each against
    # its classical sum: pentagonal numbers, squares, triangular numbers
    order = 503
    for j in (1, 2, 3, 5, 10, 20, 25):
        f = [0] * (order + 1)
        for n in range(-30, 31):
            g = n * (3 * n - 1) // 2
            if j * g <= order:
                f[j * g] += (-1) ** n * sign ** g * (-1) ** g
        ph = [0] * (order + 1)
        for n in range(-30, 31):
            if j * n * n <= order:
                ph[j * n * n] += sign ** (n * n)
        ps = [0] * (order + 1)
        for n in range(40):
            t = n * (n + 1) // 2
            if j * t <= order:
                ps[j * t] += sign ** t
        assert list(euler_f(j, order, sign).coeffs) == f, j
        assert list(phi(sign, j, order).coeffs) == ph, j
        assert list(psi(sign, j, order).coeffs) == ps, j


def test_named_thetas_reject_bad_arguments():
    # CHI(-1, j) is f(-q^j) / f(-q^2j): at j = 0 its two atoms would cancel
    for call in (lambda: euler_f(0, 5), lambda: phi(1, 0, 5), lambda: psi(-1, -2, 5),
                 lambda: CHI(-1, 0), lambda: CHI(1, -1)):
        with pytest.raises(ValueError, match="j must be >= 1"):
            call()
    for call in (lambda: euler_f(1, 5, 0), lambda: phi(2, 1, 5), lambda: psi(0, 1, 5),
                 lambda: CHI(0, 1)):
        with pytest.raises(ValueError, match="sign must be"):
            call()


def test_phi_psi_euler_sum_vs_product_forms():
    # phi(s q^j) = f(s q^j)^2 / f(-q^2j) and psi(s q^j) = f(s q^j) f(-q^4j) / f(-q^2j)
    for sign in (1, -1):
        for j in (1, 2, 3, 5):
            assert phi(sign, j, 300) == side((F(j, sign), 2), (F(2 * j), -1), order=300)
            assert psi(sign, j, 300) == side(F(j, sign), F(4 * j), (F(2 * j), -1), order=300)
    assert euler_f(1, 300) == expand_pochhammer(PochhammerFactor(1, 1, 1), 300)


def test_chi_values():
    assert side(*CHI(-1, 1), order=4).coeffs == (1, -1, 0, -1, 1)
    assert side(*CHI(1, 1), order=3).coeffs == (1, 1, 0, 1)
    assert list(side(*CHI(-1, 1), order=8).coeffs) == CHI_MINUS_Q_8
    assert list(side(*CHI(1, 1), order=8).coeffs) == CHI_PLUS_Q_8


def test_chi_product_pairing():
    n = 120
    assert side(*CHI(1, 1), order=n).mul(side(*CHI(-1, 1), order=n)) == side(*CHI(-1, 2), order=n)
    # chi(-q) = f1/f2
    assert side(*CHI(-1, 1), order=n) == euler_f(1, n).div(euler_f(2, n))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_chi_matches_pochhammer_route(sign, j):
    # chi is an Euler-product quotient; (-sign*q^j; q^2j)_inf is its product form
    product = expand_pochhammer(PochhammerFactor(-sign, j, 2 * j), 300)
    assert side(*CHI(sign, j), order=300) == product


def test_rr_quotient_expansion():
    assert list(side(*R(1), order=16).coeffs) == R_OF_Q_16


def test_rr_quotient_inverse_pairs():
    r = side(*R(1), order=80)
    assert r.mul(r.invert()) == TruncatedSeries.one(80)
    assert r.invert().pow(4)[0] == 1
    assert side(*R(1, -4), order=80) == r.invert().pow(4)


def test_rr_quotient_inflated():
    assert side(*R(5), order=80) == side(*R(1), order=16).inflate(5)


def test_rr_quotient_rejects_nonpositive_step():
    for j in (0, -1):
        with pytest.raises(ValueError):
            R(j)


# -- evaluate_side builds powers by squaring ----------------------------------

POWER_ATOMS = [F(1), F(5, 1), PHI(-1, 1), PSI(1, 2), THETA(-1, 1, -1, 4), SEQ("b5", 2, 1)]


@pytest.mark.parametrize("atom", POWER_ATOMS, ids=repr)
def test_evaluate_side_powers_match_pow(atom):
    order = 90
    x = side(atom, order=order)
    # lone: each power alone on a one-term side
    for k in range(10):
        assert side((atom, k), order=order) == x.pow(k), k
    # consecutive: x^0 .. x^9 on one side, built up from x and down from x^9
    for ks in (range(10), range(9, -1, -1)):
        expected = TruncatedSeries.zero(order)
        for k in ks:
            expected = expected.add(x.pow(k).shift(k).scale(k + 1))
        assert evaluate_side(tuple(P(k + 1, k, (atom, k)) for k in ks), order) == expected


def test_side_multiplies_before_it_divides(monkeypatch):
    # 4q chi(q) f5 f20 = 4q f(q) f5 f20 / f2: the term's product of f(q),
    # f5 and f20, shifted and scaled, then one division by f2
    ops = []
    for name in ("mul", "div"):
        def record(self, other, _name=name, _op=getattr(TruncatedSeries, name)):
            ops.append(_name)
            return _op(self, other)
        monkeypatch.setattr(TruncatedSeries, name, record)
    rhs = P(4, 1, *CHI(1, 1), F(5), F(20))
    value = evaluate_side((rhs,), 200)
    assert ops == ["mul", "mul", "div"]
    monkeypatch.undo()
    product = euler_f(1, 200, 1).mul(euler_f(5, 200)).mul(euler_f(20, 200))
    assert value == product.div(euler_f(2, 200)).shift(1).scale(4)


@pytest.mark.parametrize("term, atom", [
    (P(4, 1, SEQ("b5")), SEQ("b5")),
    (T("c5", 10, 2, 10), SEQ("c5", 10, 2)),     # thm1.a20n6's right side
], ids=["4q b5", "10 c5(10n+2)"])
def test_lone_scaled_term_is_shifted_and_scaled(monkeypatch, term, atom):
    # a one-term side's coefficient c * q^s multiplies nothing: the atom is
    # shifted and scaled
    order = 200
    coeff, shift, _ = term
    expected = side(atom, order=order).shift(shift).scale(coeff)
    calls = []
    mul = TruncatedSeries.mul

    def counting(self, other):
        calls.append((self.order, other.order))
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "mul", counting)
    assert evaluate_side((term,), order) == expected
    assert calls == []


def test_empty_side_is_zero():
    # a relation with nothing on its right-hand side compares against 0
    for order in (0, 1, 40):
        assert evaluate_side((), order) == TruncatedSeries.zero(order)


def test_a_side_the_run_does_not_plan_next_has_a_table_of_its_own(monkeypatch):
    # a run of f1^2 f5 then f1^2 f10, where the second reads the f1^2 that
    # the first made.  The first side again in between, as a mismatch is
    # expanded again, is not the side the run plans next: it makes its
    # products in a table of its own and leaves the run's table as it was
    first, second = (P(1, 0, (F(1), 2), F(5)),), (P(1, 0, (F(1), 2), F(10)),)
    run = [(first, 60), (second, 60)]
    made = products.plan_run(run).products + products.plan_run(run[:1]).products
    expected = euler_f(1, 60).pow(2).mul(euler_f(10, 60))
    calls = []
    mul = TruncatedSeries.mul

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "mul", counting)
    with products.shared_products(run):
        value = evaluate_side(first, 60)
        held = {key: list(entry) for key, entry in products._RUN.items()}
        assert evaluate_side(first, 60) == value
        assert products._RUN == held
        assert evaluate_side(second, 60) == expected
        assert products._RUN == {}
    assert len(calls) == made == 5


def test_sides_naming_the_same_atoms_in_either_order_share_their_product(monkeypatch):
    # f1 f5 and f5 f1 are one product: the first side makes it, in the order
    # it names the atoms, and the second reads it
    first, second = (P(1, 0, F(1), F(5)),), (P(1, 0, F(5), F(1)),)
    run = [(first, 60), (second, 60)]
    expected = euler_f(1, 60).mul(euler_f(5, 60))
    calls = []
    mul = TruncatedSeries.mul

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "mul", counting)
    assert products.plan_run(run).products == 1
    with products.shared_products(run):
        assert evaluate_side(first, 60) == evaluate_side(second, 60) == expected
    assert len(calls) == 1


# -- sequence atoms read any progression ----------------------------------------


@pytest.mark.parametrize("atom, order, expected", [
    # r < 0: b5(2n-1), whose n = 0 term reads b5(-1) = 0
    (SEQ("b5", 2, -1), 8, [0] + [B5BAR_16[2 * n - 1] for n in range(1, 9)]),
    # r < 0 past several strides: b5(4n-9) is 0 for n < 3
    (SEQ("b5", 4, -9), 6, [0, 0, 0, B5BAR_16[3], B5BAR_16[7], B5BAR_16[11], B5BAR_16[15]]),
    # every index negative
    (SEQ("c5", 3, -30), 5, [0] * 6),
    # r >= m: b5(3n+4) and c5(2n+7)
    (SEQ("b5", 3, 4), 4, [B5BAR_16[3 * n + 4] for n in range(5)]),
    (SEQ("c5", 2, 7), 4, [C5_16[2 * n + 7] for n in range(5)]),
    # s = -1: (-1)^n a5(2n+1)
    (SEQ("a5", 2, 1, s=-1), 7, [(-1) ** n * A5BAR_16[2 * n + 1] for n in range(8)]),
    # k = 2: a5(n) at q^2n, zero at the odd exponents
    (SEQ("a5", k=2), 9, [A5BAR_16[n // 2] if n % 2 == 0 else 0 for n in range(10)]),
    # all at once: (-1)^n b5(3n-2) at q^2n, order 9 reads n = 0..4
    (SEQ("b5", 3, -2, -1, 2), 9,
     [0, 0, -B5BAR_16[1], 0, B5BAR_16[4], 0, -B5BAR_16[7], 0, B5BAR_16[10], 0]),
], ids=["2n-1", "4n-9", "3n-30", "3n+4", "2n+7", "alternate", "q^2", "all"])
def test_sequence_atom_reads(atom, order, expected):
    assert list(side(atom, order=order).coeffs) == expected


def test_lone_unit_term_is_not_multiplied(monkeypatch):
    # x^5 costs three products, as pow does, and x itself none: a one-term
    # side's value is its term's product, never multiplied by a unit series
    x = euler_f(5, 200)
    calls = []
    mul = TruncatedSeries.mul

    def counting(self, other):
        calls.append((self.order, other.order))
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "mul", counting)
    assert side((F(5), 5), order=200) == x.pow(5)
    assert len(calls) == 3 + 3
    calls.clear()
    assert side(F(1), order=200) == euler_f(1, 200)
    assert calls == []


# -- generating functions --------------------------------------------------------


def test_gen_c5_matches_brute():
    assert list(gen_c5(16).coeffs) == C5_16


def test_gen_a5bar_matches_brute():
    assert list(gen_a5bar(16).coeffs) == A5BAR_16


def test_gen_b5bar_matches_brute():
    assert list(gen_b5bar(16).coeffs) == B5BAR_16


def test_generating_functions_unit_constant_terms():
    assert gen_c5(0).coeffs == (1,)
    assert gen_a5bar(0).coeffs == (1,)
    assert gen_b5bar(0).coeffs == (1,)


def test_gen_c5_strictly_positive():
    assert all(c >= 1 for c in gen_c5(2000).coeffs)


def test_a5bar_20n6_coefficient_divisible_by_ten():
    assert gen_a5bar(6)[6] == 20
    assert gen_a5bar(6)[6] % 10 == 0


def test_b5bar_zero_slots():
    series = gen_b5bar(200)
    assert all(series[10 * n + 6] == 0 for n in range(20))


def test_named_constructors_memoize(monkeypatch):
    # one cache: rising orders build once each; a lower order builds
    # nothing and equals a fresh build
    builds = []
    closed_form = sequences._closed_form

    def counting(form, m, r, order):
        builds.append(order)
        return closed_form(form, m, r, order)

    monkeypatch.setattr(sequences, "_EXPANSIONS", {})
    monkeypatch.setattr(sequences, "_closed_form", counting)
    for gen in (gen_c5, gen_a5bar, gen_b5bar):
        builds.clear()
        for order in (10, 40, 90):
            gen(order)
        assert builds == [10, 40, 90]
        served = {order: gen(order) for order in (0, 7, 10, 40, 89, 90)}
        assert builds == [10, 40, 90]
        assert gen(90) is served[90]
        sequences._EXPANSIONS.clear()
        for order, series in served.items():
            assert series == gen(order) and series.order == order
            sequences._EXPANSIONS.clear()
        assert builds == [10, 40, 90, 0, 7, 10, 40, 89, 90]
    # the plain sequence atom is the cached expansion itself, not a copy
    gen_c5(90)
    assert side(SEQ("c5"), order=90) is gen_c5(90)


def test_qproduct_expansion_matches_brute():
    got = side(POCH(1, 1, 5), POCH(1, 4, 5), POCH(1, 2, 5, -1), POCH(1, 3, 5, -1),
               order=40)
    num = brute.qproduct([(1, 1, 5, 1), (1, 4, 5, 1)], 40)
    den = brute.qproduct([(1, 2, 5, 1), (1, 3, 5, 1)], 40)
    assert list(got.coeffs) == brute.convolve(num, brute.invert(den, 40), 40)


def test_repeated_atom_exponents_add_up():
    # P(1, 0, F(1), F(1)) is f1^2, not f1; opposite exponents cancel to 1
    assert P(1, 0, F(1), F(1)) == (1, 0, ((F(1), 2),))
    assert side(F(1), F(1), order=60) == euler_f(1, 60).pow(2)
    assert side(F(1), (F(1), -1), order=60) == TruncatedSeries.one(60)
    # first-seen order is kept, and a zero sum drops the atom
    assert P(2, 1, F(2), (F(1), 3), F(5), (F(1), -1), F(2)) == \
        (2, 1, ((F(2), 2), (F(1), 2), (F(5), 1)))
    assert P(2, 1, F(2), (F(1), 3), (F(2), -1), (F(1), -3), F(5)) == (2, 1, ((F(5), 1),))
