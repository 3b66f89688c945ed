import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import series_strategy

from qcore import (
    TruncatedSeries,
    dissect,
    evaluate_side,
    first_mismatch,
    gen_a5bar,
    gen_b5bar,
    gen_c5,
    verify,
)
from qcore.identities import REGISTRY
from qcore.products import euler_f


def sides(record_id, order):
    return [evaluate_side(side, order) for side in REGISTRY[record_id].sides]


def test_dissect_identity_modulus():
    a = TruncatedSeries((3, 1, 4, 1, 5))
    d = dissect(a, 1)
    assert d.modulus == 1
    assert d.components == (a,)


def test_dissect_components_reindex():
    a = TruncatedSeries(tuple(range(10)))
    d = dissect(a, 3)
    assert d.components[0].coeffs == (0, 3, 6, 9)
    assert d.components[1].coeffs == (1, 4, 7)
    assert d.components[2].coeffs == (2, 5, 8)


def test_dissect_requires_enough_order():
    with pytest.raises(ValueError):
        dissect(TruncatedSeries((1, 2)), 5)


def test_b5bar_component_six_vanishes():
    comp = dissect(gen_b5bar(300), 10).components[6]
    assert comp.is_zero()


def test_a5bar_component_two_is_four_c5():
    comp = dissect(gen_a5bar(200), 5).components[2]
    c5 = gen_c5(200)
    assert all(comp[n] == 4 * c5[5 * n + 1] for n in range(comp.order + 1))


def test_reassemble_round_trip_seeded():
    rng = random.Random(20240501)
    for m in (2, 3, 4, 5, 10, 20):
        coeffs = [rng.randint(-99, 99) for _ in range(64)]
        a = TruncatedSeries(coeffs)
        assert dissect(a, m).reassemble(a.order) == a


@given(series_strategy(max_order=50), st.sampled_from([2, 3, 4, 5, 10, 20]))
def test_reassemble_round_trip_property(a, m):
    if a.order < m - 1:
        a = TruncatedSeries(a.coeffs, m - 1)
    assert dissect(a, m).reassemble(a.order) == a


def test_component_orthogonality():
    a = gen_c5(120)
    d = dissect(a, 4)
    for r in range(4):
        comp = d.components[r]
        for n in range(comp.order + 1):
            assert comp[n] == a[4 * n + r]


# -- the four closed-form verifications ------------------------------------------


@pytest.mark.parametrize("record_id", [
    "dissection.f1_5",
    "dissection.inv_f1_5",
    "dissection.phi_5",
    "dissection.psi_5",
])
def test_closed_form_dissections_match(record_id):
    report = verify(record_id, 300)
    assert report.ok, report.to_line()


def test_dissections_match_at_order_zero():
    assert verify("dissection.f1_5", 0).ok
    assert verify("dissection.inv_f1_5", 0).ok


def test_corrupted_rhs_reports_first_bad_index():
    lhs, rhs = sides("dissection.f1_5", 50)
    corrupted = rhs + TruncatedSeries.monomial(50, 1, 3)
    assert first_mismatch(lhs, corrupted) == (3, lhs[3], lhs[3] + 1)


def test_inv_f1_components_show_multiples_of_five():
    # the residue-4 class of 1/f1 is divisible by 5 throughout
    inv = euler_f(1, 400).invert()
    comp = dissect(inv, 5).components[4]
    assert all(c % 5 == 0 for c in comp.coeffs)
    lhs, rhs = sides("dissection.inv_f1_5", 120)
    assert first_mismatch(lhs, rhs) is None


def test_phi_dissection_alternate_form():
    # the q -> -q orientation used alongside the positive one
    lhs, rhs = sides("dissection.phi_5", 240)
    assert first_mismatch(lhs.alternate(), rhs.alternate()) is None


def test_psi_dissection_alternate_form():
    lhs, rhs = sides("dissection.psi_5", 240)
    assert first_mismatch(lhs.alternate(), rhs.alternate()) is None
