"""Weights, index sequences, step operators, inverses, hereditary products."""
import random

import pytest

import hyperorlicz as hz
from hyperorlicz.operators import ProductConvention, translated_weight


def test_weight_forms():
    assert hz.constant_weight(1.5)(7) == 1.5
    w = hz.step_weight(0, 2.0, 0.5)
    assert w(0) == 2.0 and w(-3) == 2.0 and w(1) == 0.5
    t = hz.table_weight({0: 3.0, 2: 0.25}, default=1.0)
    assert t(0) == 3.0 and t(1) == 1.0
    g = hz.geometric_weight(2.0, 0.5)
    assert g(3) == 0.25
    assert w.sup_over(range(-2, 3)) == 2.0
    assert w.inf_over(range(-2, 3)) == 0.5
    # a table's default is read only off its entries
    assert hz.table_weight({0: 2.0}, default=5.0).sup_over([0]) == 2.0
    assert hz.table_weight({0: 2.0}, default=0.5).inf_over([0]) == 2.0


def test_weight_positivity_enforced():
    with pytest.raises(ValueError):
        hz.constant_weight(0.0)
    with pytest.raises(ValueError):
        hz.table_weight({0: -1.0})


def test_translated_weight_averages(dr05):
    w = hz.step_weight(0, 2.0, 0.5)
    # delta_1 * delta_1 = delta_0 at a = 0.5, so the translate picks up w(0)
    assert translated_weight(dr05, w, 1, 1) == 2.0
    # off-diagonal point convolution evaluates w at the max label
    assert translated_weight(dr05, w, 5, 1) == w(5)


def test_translated_weight_proper_average(dr03):
    w = hz.table_weight({0: 4.0, 1: 8.0}, default=1.0)
    mu = dr03.raw_convolve_points(1, 1)
    expected = 4.0 * mu.value_at(0) + 8.0 * mu.value_at(1)
    assert translated_weight(dr03, w, 1, 1) == pytest.approx(expected, rel=1e-15)


def test_weight_product_conventions(zline, doubling_weight):
    eta = hz.center_powers(zline, 1)
    # n = 3 at x = 0: exclusive takes w(0)w(-1)w(-2), inclusive adds w(-3)
    excl = hz.weight_product(zline, doubling_weight, eta, 0, 3,
                             ProductConvention.ITERATE_EXCLUSIVE)
    incl = hz.weight_product(zline, doubling_weight, eta, 0, 3,
                             ProductConvention.INCLUSIVE)
    assert excl == 8.0
    assert incl == 16.0
    assert hz.weight_product(zline, doubling_weight, eta, 4, 4) == 2.0**-4


def test_step_operator_golden(zline, doubling_weight):
    eta = hz.center_powers(zline, 1)
    out = hz.apply_weighted_translation(zline, hz.indicator([0]),
                                        doubling_weight, eta, 4)
    assert out.values == ((4, 0.0625),)


def test_single_step_goldens(zline, dr05):
    out = hz.apply_single_step(zline, hz.indicator([0]), 1,
                               hz.constant_weight(2.0))
    assert out.values == ((1, 2.0),)
    fixed = hz.apply_single_step(dr05, hz.indicator([2]), 1,
                                 hz.constant_weight(1.0))
    assert fixed.values == ((2, 1.0),)


def test_iterate_matches_step_operator_bitwise(zline):
    rng = random.Random(7)
    eta = hz.center_powers(zline, 1)
    for _ in range(5):
        w = hz.table_weight({i: rng.uniform(0.3, 2.5) for i in range(-12, 13)},
                            default=rng.uniform(0.5, 1.5))
        f = hz.SparseFunction.from_dict(
            {rng.randint(-8, 8): rng.uniform(-2, 2) for _ in range(4)})
        for n in (1, 5, 12):
            lam = hz.apply_weighted_translation(zline, f, w, eta, n)
            itr = hz.iterate_single_step(zline, f, 1, w, n)
            assert lam.values == itr.values


def test_right_inverse_golden(zline, doubling_weight):
    eta = hz.center_powers(zline, 1)
    out = hz.apply_right_inverse(zline, hz.indicator([0]), doubling_weight,
                                 eta, 3)
    assert out.values == ((-3, 0.125),)


def test_inverse_roundtrips(zline, dr05, doubling_weight):
    cases = [
        (zline, doubling_weight, hz.center_powers(zline, 1),
         hz.SparseFunction.from_dict({0: 1.0, 3: -0.5, -2: 0.25})),
        (dr05, hz.table_weight({0: 2.0, 1: 0.5}, default=1.25),
         hz.center_powers(dr05, 1),
         hz.SparseFunction.from_dict({0: 1.0, 1: -2.0, 4: 0.5})),
    ]
    for model, w, eta, f in cases:
        for n in range(0, 11):
            there = hz.apply_right_inverse(model, f, w, eta, n)
            back = hz.apply_weighted_translation(model, there, w, eta, n)
            for x, v in f.values:
                assert back.value_at(x) == pytest.approx(v, abs=1e-12)
            fwd = hz.apply_weighted_translation(model, f, w, eta, n)
            again = hz.apply_right_inverse(model, fwd, w, eta, n)
            for x, v in f.values:
                assert again.value_at(x) == pytest.approx(v, abs=1e-12)


def test_hereditary_pair_golden(zline, doubling_weight):
    fwd, back = hz.hereditary_weight_pair(zline, 0, 1, doubling_weight, 3)
    assert fwd == 0.125 and back == 0.125
    fwd0, back0 = hz.hereditary_weight_pair(zline, 5, 1, doubling_weight, 0)
    assert fwd0 == 1.0 and back0 == 1.0  # empty products


def test_hereditary_matches_shifted_cocycle(zline):
    rng = random.Random(11)
    w = hz.table_weight({i: rng.uniform(0.4, 2.0) for i in range(-40, 41)},
                        default=1.0)
    eta = hz.center_powers(zline, 1)
    for x in (-5, 0, 7):
        for n in (1, 4, 9):
            fwd, _ = hz.hereditary_weight_pair(zline, x, 1, w, n)
            vn = hz.weight_product(zline, w, eta,
                                   zline.point_product(x, eta(n)), n)
            assert fwd == vn


def test_hereditary_pair_edge_contract(zline, dr03, doubling_weight):
    # The pair is the center pair under CenterPowers(model, z): z must be
    # central, n nonnegative, and x (and z^n) inside the window.
    with pytest.raises(ValueError):
        hz.hereditary_weight_pair(zline, 0, 1, doubling_weight, -1)
    with pytest.raises(hz.NotCentral):
        hz.hereditary_weight_pair(dr03, 0, 1, doubling_weight, 1)
    with pytest.raises(hz.NotCentral):  # checked before n
        hz.hereditary_weight_pair(dr03, 0, 1, doubling_weight, -1)
    for n in (0, 1, 5):
        with pytest.raises(ValueError, match="outside the truncation window"):
            hz.hereditary_weight_pair(zline, 65, 1, doubling_weight, n)
    assert hz.hereditary_weight_pair(zline, 0, 1, doubling_weight, 64) == (
        2.0**-64, 2.0**-64)
    with pytest.raises(hz.WindowOverflow):
        hz.hereditary_weight_pair(zline, 0, 1, doubling_weight, 65)


def test_hereditary_pairs_share_the_rows_of_one_center_element():
    # Every CenterPowers of one z is one sequence, so its factor rows and
    # its weight products are keyed by z: a loop over the pair on a model
    # that is not a group keeps one memo entry of each, not one per call.
    model = hz.dunkl_ramirez(0.5, 32)
    w = hz.step_weight(0, 2.0, 0.5)
    pairs = {hz.hereditary_weight_pair(model, 3, 1, w, 8) for _ in range(200)}
    assert len(pairs) == 1
    assert sorted(key[0] for key in w._memo) == ["products", "rows"]


def test_shifted_product_requires_central_sequence(su2m):
    eta = hz.eta_from_table(su2m, {n: n for n in range(1, 9)})
    with pytest.raises(hz.NotCentral):
        hz.shifted_weight_product(su2m, hz.constant_weight(1.0), eta, 0, 2)


def test_a_negative_step_is_rejected_first():
    # Powers of -1 on integer_group(1) stay in the window, so before the
    # step index was checked the orbit path read eta(2) and overflowed
    # (exclusive) or returned 1.0 (inclusive), and the step operator on
    # integer_group(8) returned an unweighted shift.
    model = hz.integer_group(1)
    w = hz.step_weight(0, 2.0, 0.5)
    eta = hz.center_powers(model, -1)
    for convention in ProductConvention:
        for product in (hz.weight_product, hz.shifted_weight_product):
            with pytest.raises(ValueError, match="step index must be nonnegative"):
                product(model, w, eta, -1, -1, convention)
    model = hz.integer_group(8)
    eta = hz.center_powers(model, 1)
    for apply in (hz.apply_weighted_translation, hz.apply_right_inverse):
        for f in (hz.indicator([0]), hz.ZERO_FUNCTION):
            with pytest.raises(ValueError, match="step index must be nonnegative"):
                apply(model, f, w, eta, -2)
    # A negative step wins over a sequence index and a point past the window.
    with pytest.raises(ValueError, match="step index must be nonnegative"):
        hz.shifted_weight_product(model, w, eta, 99, -20)
    with pytest.raises(ValueError, match="step index must be nonnegative"):
        hz.weight_product(model, w, eta, 99, -20)


def test_center_powers_validation(dr03, dr05):
    with pytest.raises(hz.NotCentral):
        hz.center_powers(dr03, 1)
    eta = hz.center_powers(dr05, 1)
    assert eta(0) == 0
    assert [eta(n) for n in (1, 2, 3, 4)] == [1, 0, 1, 0]  # period two
    assert eta(-3) == dr05.involution(eta(3))


def test_table_eta(su2m):
    eta = hz.eta_from_table(su2m, {1: 1, 2: 2, 3: 3})
    assert eta(0) == 0 and eta(2) == 2
    assert eta(-2) == su2m.involution(2)
    with pytest.raises(hz.WindowOverflow):
        eta(4)


def test_right_inverse_needs_center_powers(su2m):
    eta = hz.eta_from_table(su2m, {n: n for n in range(1, 5)})
    with pytest.raises(hz.NotCentral):
        hz.apply_right_inverse(su2m, hz.indicator([0]),
                               hz.constant_weight(1.0), eta, 2)
