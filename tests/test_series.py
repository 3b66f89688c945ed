import struct
from math import gcd, isqrt, log2
from sys import int_info

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import series_strategy, unit_series_strategy

import _brute as brute
from qcore import NonUnitConstantTerm, TruncatedSeries, dissect, first_mismatch
from qcore import series as series_module
from qcore.products import euler_f, phi
from qcore.series import (_CODES, _NATIVE, _convolve_packed, _convolve_shifted, _pack,
                          _slot_width, _unpack, _widths)

# frozen via the naive helpers in _brute.py
PENTAGONAL_16 = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1, 0]
PARTITIONS_12 = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
F1_SQUARED_5 = [1, -2, -1, 2, 1, 2]
F1_CUBED_10 = [1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9]


def S(*coeffs):
    return TruncatedSeries(coeffs)


def _support(c):
    """Indices of the nonzero entries, as the shifted kernel takes them."""
    return [i for i, x in enumerate(c) if x]


def kernel_shifted(a, b, order):
    """The shifted kernel on a, at its support, and b, at the width mul gives it."""
    ia = _support(a)
    return _convolve_shifted(a, ia, b, order, _widths(a, ia, b, order + 1)[0])


def kernel_packed(a, b, order):
    """The packed kernel on a and b, at the width mul gives it."""
    return _convolve_packed(a, b, order, _widths(a, _support(a), b, order + 1)[1])


# -- construction and access -------------------------------------------------


def test_basic_shape():
    a = S(1, 2, 3)
    assert a.order == 2
    assert a.coeffs == (1, 2, 3)
    assert TruncatedSeries([5], order=3).coeffs == (5, 0, 0, 0)


def test_negative_index_reads_zero():
    a = S(1, 2, 3)
    assert a[-1] == 0
    assert a[-100] == 0


def test_index_beyond_order_raises():
    with pytest.raises(IndexError):
        S(1, 2, 3)[3]


def test_monomial_and_one():
    assert TruncatedSeries.monomial(4, 7, 2).coeffs == (0, 0, 7, 0, 0)
    assert TruncatedSeries.one(2).coeffs == (1, 0, 0)


# -- add / mul / invert / div -------------------------------------------------


def test_add_cancellation():
    assert (S(1, -1) + S(0, 1)).coeffs == (1, 0)


def test_add_identity():
    a = S(3, 1, 4, 1, 5)
    assert (a + TruncatedSeries.zero(4)) == a


def test_add_phi_plus_2q():
    assert (phi(-1, 1, 4) + TruncatedSeries.monomial(4, 2, 1)).coeffs == (1, 0, 0, 0, 2)


def test_mul_difference_of_squares():
    assert (S(1, -1, 0) * S(1, 1, 0)).coeffs == (1, 0, -1)


def test_mul_by_inverse_is_one():
    f1 = euler_f(1, 60)
    assert f1.mul(f1.invert()) == TruncatedSeries.one(60)


def test_f1_squared():
    assert list(euler_f(1, 5).pow(2).coeffs) == F1_SQUARED_5


def test_mul_truncates_to_smaller_order():
    assert (S(1, 1, 1) * S(1, 1)).order == 1


def test_invert_geometric():
    assert S(1, -1, 0, 0, 0).invert().coeffs == (1, 1, 1, 1, 1)


def test_invert_f1_gives_partition_numbers():
    assert list(euler_f(1, 12).invert().coeffs) == PARTITIONS_12


def test_invert_is_involution():
    p = phi(-1, 1, 30)
    assert p.invert().invert() == p


def test_invert_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        S(2, 1).invert()


def test_div_self_is_one():
    a = S(1, 4, -2, 7)
    assert a.div(a) == TruncatedSeries.one(3)


def test_div_gen_c5_prefix():
    f5_5 = euler_f(5, 4).pow(5)
    assert f5_5.div(euler_f(1, 4)).coeffs == (1, 1, 2, 3, 5)


def test_div_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        S(1, 1).div(S(0, 1))


def test_pow_zero_and_square():
    a = S(1, 1, 0)
    assert a.pow(0) == TruncatedSeries.one(2)
    assert a.pow(2).coeffs == (1, 2, 1)


def test_pow_jacobi_cube_fragment():
    assert euler_f(1, 3).pow(3).coeffs == (1, -3, 0, 5)
    assert list(euler_f(1, 10).pow(3).coeffs) == F1_CUBED_10


# -- substitutions -------------------------------------------------------------


def test_inflate_binomial():
    assert S(1, 1).inflate(5).coeffs == (1, 0, 0, 0, 0, 1)


def test_inflate_f1_is_f2():
    assert euler_f(1, 10).inflate(2) == euler_f(2, 20)


def test_inflate_respects_exactness_cap():
    a = S(1, 1)
    assert a.inflate(3, 5).coeffs == (1, 0, 0, 1, 0, 0)
    with pytest.raises(ValueError):
        a.inflate(3, 6)  # q^6 coefficient would need a[2]


def test_extract_ap_identity():
    a = S(5, 6, 7, 8)
    assert dissect(a, 1).components == (a,)


def test_extract_inflate_round_trip():
    a = S(3, -1, 4, 1, -5, 9)
    assert dissect(a.inflate(4), 4).components[0] == a


def test_extract_ap_a5bar_example():
    from qcore.products import gen_a5bar, gen_c5

    comp = dissect(gen_a5bar(7), 5).components[2]
    assert comp.coeffs == (4, 24)
    c5 = gen_c5(6)
    assert comp.coeffs == (4 * c5[1], 4 * c5[6])


def test_shift():
    assert TruncatedSeries.one(3).shift(1).coeffs == (0, 1, 0, 0)
    a = S(1, 2, 3)
    assert a.shift(0) is a
    assert a.shift(2).coeffs == (0, 0, 1)


def test_alternate_matches_phi_signs():
    assert phi(1, 1, 9).alternate() == phi(-1, 1, 9)


def test_alternate_involution():
    a = S(1, 2, 3, 4, 5)
    assert a.alternate().alternate() == a


# -- dissection reassembly (series-level) --------------------------------------


@given(series_strategy(max_order=60), st.sampled_from([2, 4, 5, 10, 20]))
def test_dissection_reassembly(a, m):
    if a.order < m - 1:
        a = TruncatedSeries(a.coeffs, m - 1)
    total = TruncatedSeries.zero(a.order)
    for r, comp in enumerate(dissect(a, m).components):
        piece = comp.inflate(m, min(a.order, comp.order * m + m - 1)).shift(r)
        total = TruncatedSeries(
            [total.coeffs[i] + (piece.coeffs[i] if i <= piece.order else 0)
             for i in range(a.order + 1)]
        )
    assert total == a


@given(series_strategy())
def test_alternate_even_part_unchanged(a):
    if a.order < 2:
        a = TruncatedSeries(a.coeffs, 2)
    assert dissect(a.alternate(), 2).components[0] == dissect(a, 2).components[0]


# -- ring axioms ----------------------------------------------------------------


@given(series_strategy(), series_strategy(), series_strategy())
def test_mul_associative_and_commutative(a, b, c):
    assert a.mul(b) == b.mul(a)
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


@given(series_strategy(), series_strategy(), series_strategy())
def test_distributive(a, b, c):
    assert a.mul(b + c) == a.mul(b) + a.mul(c)


@given(unit_series_strategy())
def test_invert_round_trip(a):
    assert a.mul(a.invert()) == TruncatedSeries.one(a.order)


@given(series_strategy(), unit_series_strategy())
def test_div_matches_mul_by_inverse(a, b):
    order = min(a.order, b.order)
    assert a.div(b) == a.mul(b.invert()).truncate(order)


# -- multiplication kernels agree with the naive convolution ---------------------


@given(series_strategy(max_order=30, max_coeff=10 ** 12),
       series_strategy(max_order=30, max_coeff=10 ** 12))
def test_mul_matches_brute_convolution(a, b):
    order = min(a.order, b.order)
    expected = brute.convolve(list(a.coeffs), list(b.coeffs), order)
    assert list(a.mul(b).coeffs) == expected


@settings(max_examples=25)
@given(
    st.lists(st.integers(min_value=-10 ** 30, max_value=10 ** 30), min_size=150, max_size=220),
    st.lists(st.integers(min_value=-10 ** 30, max_value=10 ** 30), min_size=150, max_size=220),
)
def test_packed_kernel_matches_shifted_kernel(la, lb):
    order = min(len(la), len(lb)) - 1
    a, b = la[: order + 1], lb[: order + 1]
    assert kernel_packed(a, b, order) == kernel_shifted(a, b, order)


def test_dense_mul_uses_packed_path_correctly():
    # order and density chosen to take the packed kernel
    a = TruncatedSeries([((-1) ** n) * (n ** 3 + 1) for n in range(400)])
    b = TruncatedSeries([((-1) ** (n // 2)) * (2 * n + 1) for n in range(400)])
    expected = brute.convolve(list(a.coeffs), list(b.coeffs), 399)
    assert list(a.mul(b).coeffs) == expected


# -- the signed packed kernel, the shifted kernel and binary powering ------------
#
# The packed kernel reads each product digit back as a signed slot of
# bits(max|a|) + bits(max|b|) + bits(order + 1) + 1 bits, the shifted kernel
# as one of bits(max|b|) + bits(sum |a_i|) + 1 bits, each rounded up to 1, 2,
# 4 or 8 bytes, or to whole bytes past 8.  Constant operands of the largest
# magnitude for their bit lengths put the top digit within a factor 2 of the
# bound the slot is sized from.


def _extremal_pairs(ma, mb, count):
    a, b = [ma] * count, [mb] * count
    alt = [ma * (-1) ** k for k in range(count)]
    return [
        (a, b),
        ([-x for x in a], [-x for x in b]),   # all-negative operands
        (a, [-x for x in b]),                 # every digit negative
        (alt, b),
        (alt, [-x for x in alt]),
    ]


@pytest.mark.parametrize("count", [3, 7, 40])
@pytest.mark.parametrize("extra", [0, 1], ids=["at-boundary", "past-boundary"])
@pytest.mark.parametrize("width", range(1, 11))
def test_packed_kernel_at_byte_boundaries(width, extra, count):
    room = 8 * width + extra - 1 - count.bit_length()   # bits(max|a|) + bits(max|b|)
    ma, mb = 2 ** (room // 2) - 1, 2 ** (room - room // 2) - 1
    for a, b in _extremal_pairs(ma, mb, count):
        assert kernel_packed(a, b, count - 1) == brute.convolve(a, b, count - 1)


@pytest.mark.parametrize("terms", [1, 2, 5, 40])
@pytest.mark.parametrize("extra", [0, 1], ids=["at-boundary", "past-boundary"])
@pytest.mark.parametrize("width", range(1, 11))
def test_shifted_kernel_at_byte_boundaries(width, extra, terms):
    # the sparse factor has terms nonzeros, each of magnitude max|a|
    count, room = 40, 8 * width + extra - 1   # bits(max|b|) + bits(sum |a_i|)
    sum_bits = max(room // 2, terms.bit_length())
    ma, mb = (2 ** sum_bits - 1) // terms, 2 ** (room - sum_bits) - 1
    assert (terms * ma).bit_length() + mb.bit_length() == room
    step = count // terms
    for a, b in _extremal_pairs(ma, mb, count):
        a = [c if k % step == 0 and k < terms * step else 0 for k, c in enumerate(a)]
        expected = brute.convolve(a, b, count - 1)
        assert kernel_shifted(a, b, count - 1) == expected


def test_packed_kernel_with_negative_top_digit():
    # the packed product is a negative integer whenever its top digit is
    for a, b in [([5, -1], [1, 1]), ([0, -1], [0, 1]), ([-3, 0, 0], [0, 0, 1])]:
        order = len(a) - 1
        assert kernel_packed(a, b, order) == brute.convolve(a, b, order)
        assert kernel_shifted(a, b, order) == brute.convolve(a, b, order)
        assert kernel_shifted(b, a, order) == brute.convolve(a, b, order)


@pytest.mark.parametrize("x, y", [(0, 0), (1, -1), (-1, -1), (-(2 ** 70), 3), (2 ** 64, 2 ** 64 + 1)])
def test_kernels_at_order_zero(x, y):
    assert kernel_packed([x], [y], 0) == [x * y]
    assert kernel_shifted([x], [y], 0) == [x * y]
    assert S(x).mul(S(y)).coeffs == (x * y,)


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=-2 ** 200, max_value=2 ** 200), min_size=1, max_size=60),
       st.lists(st.integers(min_value=-2 ** 200, max_value=2 ** 200), min_size=1, max_size=60),
       st.integers(min_value=65, max_value=200))
def test_packed_kernel_above_64_bits(la, lb, shift):
    order = min(len(la), len(lb)) - 1
    a = [c + (2 ** shift if c > 0 else -(2 ** shift) if c < 0 else 0) for c in la[: order + 1]]
    b = lb[: order + 1]
    assert kernel_packed(a, b, order) == brute.convolve(a, b, order)
    assert kernel_packed(a, a, order) == brute.convolve(a, a, order)
    assert kernel_shifted(a, b, order) == brute.convolve(a, b, order)
    assert kernel_shifted(b, a, order) == brute.convolve(a, b, order)
    assert kernel_shifted(a, a, order) == brute.convolve(a, a, order)


def test_packed_kernel_squaring_path():
    for a in ([2 ** 65 - 1] * 9, [(-1) ** k * (k * k + 1) for k in range(50)], [-7] * 33):
        order = len(a) - 1
        assert kernel_packed(a, a, order) == brute.convolve(a, a, order)
    x = TruncatedSeries([((-1) ** (n // 3)) * (n % 11 + 1) for n in range(300)])
    square = brute.convolve(list(x.coeffs), list(x.coeffs), 299)
    assert list(x.mul(x).coeffs) == square
    assert list(x.pow(2).coeffs) == square
    y = x.inflate(3)   # squared on every third coefficient, one class
    assert list(y.mul(y).coeffs) == brute.convolve(list(y.coeffs), list(y.coeffs), y.order)


@pytest.mark.parametrize("width", range(1, 11))
def test_pack_unpack_round_trip_at_every_width(width):
    # 1, 2, 4 and 8 bytes go through struct, 3, 5, 6 and 7 through the low
    # bytes of struct's 4 or 8, 9 and 10 through bytes
    top = 2 ** (8 * width - 1) - 1
    for vals in ([0], [top], [-top], [0, top, -top, 0, -1, 1, top, -top],
                 [top, 0, 5, -top]):   # the last slot negative
        assert _unpack(_pack(vals, width), width, len(vals)) == vals
    # the low slots read back whatever the packed integer holds above them
    vals = [-top, top, -1]
    assert _unpack(_pack(vals + [top, -top], width), width, 3) == vals


def test_native_widths_map_to_struct_codes_of_that_size():
    assert sorted(_CODES) == [1, 2, 4, 8]
    for width, code in _CODES.items():
        assert struct.calcsize("<" + code) == width
    # a slot is whole bytes; up to 8 it moves through the next native width
    assert [_slot_width(8 * w) for w in range(1, 11)] == list(range(1, 11))
    assert [_slot_width(bits) for bits in (1, 9, 17, 33, 65)] == [1, 2, 3, 5, 9]
    assert _NATIVE == {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8}


def _kernels_run(monkeypatch):
    """Record the name of each multiply kernel that runs, in order."""
    ran = []
    for name in ("_convolve_shifted", "_convolve_packed"):
        def record(*args, _name=name, _kernel=getattr(series_module, name)):
            ran.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(series_module, name, record)
    return ran


# nonzero at the squares: sparse, while its square and higher powers are
# dense enough for the packed kernel
SPARSE_256 = TruncatedSeries([((-1) ** n) * (n % 5 + 1) if isqrt(n) ** 2 == n else 0
                              for n in range(256)])


@pytest.mark.parametrize("k", range(10))
def test_pow_matches_repeated_mul_past_sparse_limit(monkeypatch, k):
    x = SPARSE_256
    expected = TruncatedSeries.one(x.order)
    for _ in range(k):
        expected = expected.mul(x)
    ran = _kernels_run(monkeypatch)
    assert x.pow(k) == expected
    if k == 9:
        # x^2 from the sparse x, x^4 and x^8 from dense halves, then x^8 * x
        assert ran == ["_convolve_shifted", "_convolve_packed", "_convolve_packed",
                       "_convolve_shifted"]
    if k <= 3:
        assert list(expected.coeffs) == brute.power(list(x.coeffs), k, x.order)


@given(st.lists(st.sampled_from((0,) * 6 + (1, -1, 3, -2 ** 70)), min_size=1, max_size=80),
       st.lists(st.sampled_from((0,) * 6 + (1, -1, 5, 2 ** 66)), min_size=1, max_size=80))
def test_shifted_kernel_on_sparse_operands(la, lb):
    order = min(len(la), len(lb)) - 1
    a, b = la[: order + 1], lb[: order + 1]
    expected = brute.convolve(a, b, order)
    assert kernel_shifted(a, b, order) == expected
    assert kernel_shifted(b, a, order) == expected


def test_shifted_kernel_drops_terms_past_the_order():
    a, b = [1, 2, 0, 5], [3, 0, 1, 4]
    ia = [0, 1, 3]
    assert _convolve_shifted(a, ia, b, 3, _widths(a, ia, b, 4)[0]) == [3, 6, 1, 21]
    assert _convolve_shifted(a, ia, b[:1], 0, _widths(a, ia, b[:1], 1)[0]) == [3]


# -- which kernel mul runs ---------------------------------------------------------


@pytest.mark.parametrize("order", [200, 1500, 6000])
def test_theta_factor_times_dense_series_takes_shifted_kernel(monkeypatch, order):
    dense = euler_f(1, order).invert()
    ran = _kernels_run(monkeypatch)
    for theta in (euler_f(1, order), euler_f(5, order), phi(-1, 1, order)):
        product = dense.mul(theta)
        assert product == theta.mul(dense)
        assert product.div(theta) == dense
        expected = brute.convolve(list(dense.coeffs[:41]), list(theta.coeffs[:41]), 40)
        assert list(product.coeffs[:41]) == expected
    assert ran == ["_convolve_shifted"] * 6


@pytest.mark.parametrize("order", [20, 200, 1500])
def test_two_dense_factors_take_packed_kernel(monkeypatch, order):
    x = euler_f(1, order).invert()
    y = phi(-1, 1, order).invert()
    ran = _kernels_run(monkeypatch)
    product = x.mul(y)
    assert list(product.coeffs[:41]) == brute.convolve(list(x.coeffs[:41]),
                                                       list(y.coeffs[:41]), min(order, 40))
    assert ran == ["_convolve_packed"]


@pytest.mark.parametrize("x", [euler_f(1, 1500), euler_f(1, 1500).invert(),
                               euler_f(1, 750).invert().inflate(2)],
                         ids=["shifted", "packed", "dissected"])
def test_square_packs_its_operand_once(monkeypatch, x):
    packed = []
    pack = series_module._pack
    monkeypatch.setattr(series_module, "_pack",
                        lambda vals, *args: packed.append(vals) or pack(vals, *args))
    square = x.mul(x)
    assert len(packed) == 1
    assert list(square.coeffs[:41]) == brute.convolve(list(x.coeffs[:41]),
                                                      list(x.coeffs[:41]), 40)


# -- mul prices as it did when it scanned each factor per kernel ----------------
#
# The slot formulas as they stood when the cost model and each kernel read
# the factors' magnitudes themselves, and the choice mul made from them.


def _magnitude(vals):
    return max(max(vals), -min(vals))


def _packed_slot_bits(a, b, count):
    mag_a = _magnitude(a)
    mag_b = mag_a if b is a else _magnitude(b)
    return mag_a.bit_length() + mag_b.bit_length() + count.bit_length() + 1


def _shifted_slot_bits(a, ia, b):
    return _magnitude(b).bit_length() + sum(abs(a[i]) for i in ia).bit_length() + 1


def _reference_price(a, ia, b, sub):
    """The kernel and slot width of a * b at order sub, a nonzero at ia."""
    digits = (sub + 1) * 8 / int_info.bits_per_digit
    shifted_width = _slot_width(_shifted_slot_bits(a, ia, b))
    packed_width = _slot_width(_packed_slot_bits(a, b, sub + 1))
    if len(ia) * digits * shifted_width < (digits * packed_width) ** log2(3):
        return "_convolve_shifted", shifted_width
    return "_convolve_packed", packed_width


def _reference_product(x, y, sub):
    """The kernels and slot widths of x * y to order sub, x and y of sub + 1
    slots (y is x for a square), in the order they run, from both supports
    and the formulas above; [] when a factor is zero and no kernel runs.

    One recursive rule: with b the denser factor and a the sparser (a stays
    x on a tie), b in q^G, G > 1, dissects the product by G into one
    product per nonempty residue class of a, each by this rule again.
    Otherwise it is one priced call, unless that call is packed and a is
    in q^G, G > 1: then G dissects it, one product per class of b."""
    a, b = x, y
    ia = _support(a)
    ib = ia if b is a else _support(b)
    if not ia or not ib:
        return []
    if len(ib) < len(ia):
        a, ia, b, ib = b, ib, a, ia
    if gcd(*ib) > 1:
        return _reference_classes(a, b, gcd(*ib), sub)
    choice = _reference_price(a, ia, b, sub)
    if choice[0] == "_convolve_packed" and gcd(*ia) > 1:
        return _reference_classes(b, a, gcd(*ia), sub)
    return [choice]


def _reference_classes(x, y, period, sub):
    """The choices of x * y, y a series in q^period: the products
    x[r::period] times y[::period] to order (sub - r) // period, for
    r = 0..period - 1, by ``_reference_product``."""
    choices = []
    for r in range(min(period, sub + 1)):
        part = x[r::period]
        head = part if x is y else y[::period][: len(part)]
        choices += _reference_product(part, head, len(part) - 1)
    return choices


def _reference_choice(x, y):
    """The choices of the series product x * y, truncated to the smaller
    order."""
    order = min(x.order, y.order)
    a = x.coeffs[: order + 1]
    return _reference_product(a, a if y is x else y.coeffs[: order + 1], order)


@st.composite
def _priced_operand(draw, max_order=120, g=None):
    """A series in q^g (g drawn from 1, 2, 3, 5 unless given) whose slots
    hold 0 or one of a few values, up to a drawn bound, at a drawn density."""
    g = draw(st.sampled_from((1, 2, 3, 5))) if g is None else g
    bound = draw(st.sampled_from((1, 2, 60, 2 ** 40, 2 ** 70)))
    values = draw(st.lists(st.integers(-bound, bound).filter(bool), min_size=1, max_size=3))
    zeros = draw(st.sampled_from((0, 1, 12)))      # zero slots per value slot
    order = draw(st.integers(0, max_order // g))
    slots = st.sampled_from([0] * zeros * len(values) + values)
    x = TruncatedSeries(draw(st.lists(slots, min_size=order + 1, max_size=order + 1)))
    return x.inflate(g, x.order * g + draw(st.integers(0, g - 1)))


def _with_q1(x):
    """x with a nonzero coefficient at q^1 (x itself at order 0)."""
    if x.order < 1 or x[1]:
        return x
    return x + TruncatedSeries.monomial(x.order, 1, 1)


_PRICING_CASES = {
    "independent": st.tuples(_priced_operand(), _priced_operand()),
    "common-g": st.sampled_from((2, 3, 5)).flatmap(
        lambda g: st.tuples(_priced_operand(g=g), _priced_operand(g=g))),
    "square": _priced_operand().map(lambda x: (x, x)),
    "order-0": st.tuples(_priced_operand(max_order=0, g=1), _priced_operand()),
    "zero": _priced_operand().map(lambda x: (x, TruncatedSeries.zero(x.order))),
    "q1-in-one": st.tuples(_priced_operand(g=1).map(_with_q1),
                           st.sampled_from((2, 3, 5)).flatmap(lambda g: _priced_operand(g=g))),
}

_DENSE_150 = TruncatedSeries([n % 7 - 3 or 9 for n in range(151)])


@pytest.mark.parametrize("case", _PRICING_CASES)
def test_mul_prices_as_the_reference_and_matches_brute(monkeypatch, case):
    ran = []
    for name in ("_convolve_shifted", "_convolve_packed"):
        def record(*args, _name=name, _kernel=getattr(series_module, name)):
            ran.append((_name, args[-1]))
            return _kernel(*args)
        monkeypatch.setattr(series_module, name, record)

    @settings(max_examples=25, deadline=None)
    @given(_PRICING_CASES[case])
    @example((_DENSE_150, _DENSE_150.shift(3)))                  # packed
    @example((euler_f(1, 150), _DENSE_150))                      # shifted
    @example((euler_f(1, 150).inflate(2, 151), _DENSE_150))      # q^1 in one factor
    @example((S(127, *[1] * 7, *[0] * 33), S(*[127] * 8, *[0] * 33)))   # tie: x stays a, 2 bytes
    @example((S(0, 0, 1, 0), S(0, 0, 0, 1)))                     # zero at order 3: no kernel
    def check(pair):
        x, y = pair
        ran.clear()
        product = x.mul(y)
        assert ran == _reference_choice(x, y)
        order = min(x.order, y.order)
        assert list(product.coeffs) == brute.convolve(list(x.coeffs[: order + 1]),
                                                      list(y.coeffs[: order + 1]), order)

    check()


_PERIOD_CASES = st.one_of(
    *_PRICING_CASES.values(),
    # a constant factor, whose period is 0
    st.tuples(st.integers(-9, 9).filter(bool),
              st.sampled_from((1, 2, 3, 5, 6)).flatmap(lambda g: _priced_operand(g=g))).map(
        lambda cy: (TruncatedSeries.monomial(cy[1].order, cy[0]), cy[1])),
    st.tuples(_priced_operand(), _priced_operand(g=1).map(_with_q1)),
)


@settings(max_examples=300, deadline=None)
@given(_PERIOD_CASES)
@example((TruncatedSeries.one(40), euler_f(1, 20).inflate(2, 40)))
@example((euler_f(2, 60).inflate(3, 180), euler_f(1, 30).inflate(6, 180)))
def test_period_is_the_gcd_of_the_support(pair):
    # the period that dissects a product, found by slices, for either factor
    x, y = pair
    order = min(x.order, y.order)
    for b in (x.coeffs[: order + 1], y.coeffs[: order + 1]):
        assert series_module._period(b, len(b) - b.count(0)) == gcd(*_support(b))


# -- a product dissected by a factor's period -----------------------------------
#
# A factor in q^P splits the product into P residue classes, each a product
# of its own.

# (g, G): one operand in q^g, the other in q^G, g dividing G or not
_PERIOD_PAIRS = ((1, 2), (1, 5), (1, 25), (2, 5), (3, 4), (4, 6), (5, 2), (10, 25), (3, 25))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_PERIOD_PAIRS).flatmap(lambda pair: st.one_of(
    st.tuples(_priced_operand(g=pair[0]), _priced_operand(g=pair[1])),
    _priced_operand(g=pair[1]).map(lambda y: (y, y)))))
@example((S(1, 2, 3, 4, 5, 6, 7), S(1, 0, 0, 0, 0, 2, 0)))     # classes of order 1 and 0
@example((S(1, 0, 0, 3, *[0] * 46), euler_f(1, 10).invert().inflate(5, 49)))  # 3 empty classes
@example((S(5, 0, 7), S(2, 0, 0)))                               # an order below the period
@example((euler_f(5, 120), euler_f(1, 120).invert()))           # only the sparser in q^5
def test_dissected_mul_matches_brute(pair):
    x, y = pair
    order = min(x.order, y.order)
    expected = brute.convolve(list(x.coeffs[: order + 1]), list(y.coeffs[: order + 1]), order)
    assert list(x.mul(y).coeffs) == expected
    assert list(y.mul(x).coeffs) == expected


def test_dissection_runs_one_kernel_per_nonempty_class(monkeypatch):
    ran = _kernels_run(monkeypatch)
    dense_in_q5 = euler_f(1, 60).invert().inflate(5, 300)
    dense = euler_f(1, 300).invert()
    two_classes = S(*[1 if n % 35 in (0, 28) else 0 for n in range(301)])    # 0, 3 mod 5
    assert list(two_classes.mul(dense_in_q5).coeffs) == brute.convolve(
        list(two_classes.coeffs), list(dense_in_q5.coeffs), 300)
    assert ran == ["_convolve_shifted"] * 2            # one per class
    ran.clear()
    # only the sparser factor in q^5: undissected when priced shifted ...
    assert list(dense.mul(euler_f(5, 300)).coeffs[:61]) == brute.convolve(
        list(dense.coeffs[:61]), list(euler_f(5, 60).coeffs), 60)
    assert ran == ["_convolve_shifted"]
    ran.clear()
    # ... and dissected, one packed multiply per class, when priced packed
    product = dense.mul(dense_in_q5)
    assert ran == ["_convolve_packed"] * 5
    assert list(product.coeffs[:61]) == brute.convolve(list(dense.coeffs[:61]),
                                                       list(dense_in_q5.coeffs[:61]), 60)


# -- operands in q^g and the division agree with the naive helpers -------------
#
# Operands in q^g are multiplied and divided by residue classes mod g.

STEPS = [2, 3, 5, 10]


def _in_q_to(x, g, extra):
    """x(q^g) at an order 1..g-1 past a multiple of g (x itself when g = 1)."""
    return x.inflate(g, x.order * g + (extra % (g - 1) + 1 if g > 1 else 0))


def _denominators(values, max_order=40):
    """Series with constant term +-1 and other coefficients drawn from values or 0."""
    return st.tuples(
        st.sampled_from((1, -1)),
        st.lists(st.sampled_from((0,) + values), max_size=max_order),
    ).map(lambda t: TruncatedSeries((t[0],) + tuple(t[1])))


def _distinct_denominators(max_order=40):
    """Dense series: every coefficient past q^0 nonzero and all of them distinct."""
    return st.tuples(
        st.sampled_from((1, -1)),
        st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(bool),
                 unique=True, max_size=max_order),
    ).map(lambda t: TruncatedSeries((t[0],) + tuple(t[1])))


def _brute_div(a, b):
    order = min(a.order, b.order)
    inverse = brute.invert(list(b.coeffs[: order + 1]), order)
    return brute.convolve(list(a.coeffs), inverse, order)


@given(series_strategy(max_order=25), series_strategy(max_order=25),
       st.sampled_from([1] + STEPS), st.sampled_from([1] + STEPS), st.integers(0, 8))
def test_mul_of_inflated_operands_matches_brute(x, y, g, h, extra):
    a, b = _in_q_to(x, g, extra), _in_q_to(y, h, extra + 1)
    order = min(a.order, b.order)
    assert list(a.mul(b).coeffs) == brute.convolve(list(a.coeffs), list(b.coeffs), order)


@given(series_strategy(max_order=12, max_coeff=6), st.sampled_from(STEPS),
       st.integers(0, 8), st.integers(0, 5))
def test_pow_of_inflated_series_matches_brute(x, g, extra, k):
    a = _in_q_to(x, g, extra)
    assert list(a.pow(k).coeffs) == brute.power(list(a.coeffs), k, a.order)


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("sub", [65, 100, 128])
def test_dense_mul_at_small_orders_takes_packed_kernel(monkeypatch, sub, g):
    # dense factors go to the packed kernel at any order, here at dissected
    # orders 65..128
    x = TruncatedSeries([((-1) ** n) * (n * n + 1) for n in range(sub + 1)]).inflate(g)
    y = TruncatedSeries([n % 7 - 3 or 5 for n in range(sub + 1)]).inflate(g)
    expected = brute.convolve(list(x.coeffs), list(y.coeffs), x.order)

    def no_shifted(*args):
        raise AssertionError("dense operands took the shifted kernel")

    monkeypatch.setattr(series_module, "_convolve_shifted", no_shifted)
    assert list(x.mul(y).coeffs) == expected
    assert list(x.mul(x).coeffs) == brute.convolve(list(x.coeffs), list(x.coeffs), x.order)


def test_packed_mul_of_inflated_dense_series():
    # dense factors at a small order after dissection
    x = TruncatedSeries([((-1) ** n) * (n * n + 1) for n in range(300)])
    y = TruncatedSeries([n % 7 - 3 for n in range(300)])
    for g in STEPS:
        a, b = _in_q_to(x, g, 0), _in_q_to(y, g, g)
        order = min(a.order, b.order)
        assert list(a.mul(b).coeffs) == brute.convolve(list(a.coeffs), list(b.coeffs), order)
        assert list(a.mul(y).coeffs) == brute.convolve(list(a.coeffs), list(y.coeffs), y.order)


@pytest.mark.parametrize("denominators", [
    _denominators((1, -1)),
    _denominators((1, -1, 2, -2)),
    _distinct_denominators(),
], ids=["values-1", "values-1-2", "dense-distinct"])
def test_div_and_invert_match_brute(denominators):
    @given(series_strategy(max_order=40), denominators,
           st.sampled_from([1] + STEPS), st.sampled_from([1] + STEPS), st.integers(0, 8))
    def check(x, y, g, h, extra):
        a, b = _in_q_to(x, g, extra), _in_q_to(y, h, extra)
        assert list(a.div(b).coeffs) == _brute_div(a, b)
        assert list(b.invert().coeffs) == brute.invert(list(b.coeffs), b.order)

    check()


@pytest.mark.parametrize("b0", [1, -1])
@pytest.mark.parametrize("k, c", [(1, -1), (1, 3), (3, 2), (4, -7), (30, 1)])
def test_div_by_one_term_past_constant(b0, k, c):
    order = 30
    b = TruncatedSeries.monomial(order, b0) + TruncatedSeries.monomial(order, c, k)
    a = TruncatedSeries([n * n - 5 for n in range(order + 1)])
    assert list(a.div(b).coeffs) == _brute_div(a, b)
    assert list(b.invert().coeffs) == brute.invert(list(b.coeffs), order)


def test_quotient_runs_one_recurrence_per_nonempty_class(monkeypatch):
    orders = []
    divide = series_module._divide
    monkeypatch.setattr(series_module, "_divide",
                        lambda a, b, order: orders.append(order) or divide(a, b, order))
    # chi(-q) = f(-q) / f(-q^2): each class mod 2 of f(-q) over f(-q^2)[::2]
    chi = euler_f(1, 2000).div(euler_f(2, 2000))
    assert orders == [1000, 999]
    assert list(chi.coeffs[:201]) == _brute_div(euler_f(1, 200), euler_f(2, 200))
    orders.clear()
    # a numerator at 0 and 3 mod 5 over a divisor in q^5: three empty classes
    two_classes = S(*[n % 7 - 3 if n % 5 in (0, 3) else 0 for n in range(301)])
    assert list(two_classes.div(euler_f(5, 300)).coeffs) == _brute_div(two_classes,
                                                                       euler_f(5, 300))
    assert orders == [60, 59]
    orders.clear()
    # a divisor of period 1, or a constant one, runs one recurrence
    assert list(two_classes.div(euler_f(1, 300)).coeffs) == _brute_div(two_classes,
                                                                       euler_f(1, 300))
    assert two_classes.div(S(-1, *[0] * 300)) == two_classes.scale(-1)
    assert orders == [300, 300]


def test_constant_and_zero_operands():
    assert S(3, 0, 0).mul(S(-2, 0, 0)).coeffs == (-6, 0, 0)
    assert S(2, 0, 0).div(S(-1, 0, 0)).coeffs == (-2, 0, 0)
    assert S(-1, 0, 0).invert().coeffs == (-1, 0, 0)
    assert TruncatedSeries.zero(5).div(S(1, 0, 1, 0, 0, 0)) == TruncatedSeries.zero(5)
    assert TruncatedSeries.zero(4).mul(S(1, 0, 1, 0, 0)) == TruncatedSeries.zero(4)


def test_first_mismatch():
    a = S(1, 2, 3, 4)
    b = S(1, 2, 7, 4)
    assert first_mismatch(a, b) == (2, 3, 7)
    assert first_mismatch(a, a) is None
    # with a modulus, only a difference that is not a multiple of it counts
    assert first_mismatch(a, b, 4) is None
    assert first_mismatch(a, b, 3) == (2, 3, 7)
    assert first_mismatch(S(1, 5, 3, 4), b, 4) == (1, 5, 2)
    assert first_mismatch(a, a, 5) is None
    # up to the shared order
    assert first_mismatch(S(1, 2), b) is None
    assert first_mismatch(S(1, 2, 3, 4, 9), a) is None
