"""Finitely supported functions: translation and integration."""
import pytest

import hyperorlicz as hz


def test_indicator_and_zero():
    assert hz.indicator([]).is_zero()
    chi = hz.indicator([0, 1])
    assert chi.support() == (0, 1)
    assert chi.value_at(0) == 1.0 and chi.value_at(5) == 0.0
    assert hz.ZERO_FUNCTION.support() == ()


def test_from_dict_drops_zeros_and_sorts():
    f = hz.SparseFunction.from_dict({3: 0.0, 1: 2.0, -2: -1.0})
    assert f.support() == (-2, 1)
    assert f.value_at(3) == 0.0


def test_non_finite_values_are_named():
    for bad in (float("inf"), float("nan")):
        with pytest.raises(hz.NonFiniteValue):
            hz.SparseFunction.from_dict({0: bad})
    with pytest.raises(hz.NonFiniteValue):
        hz.SparseFunction.from_dict({0: 1e308}).scale(10.0)


def test_arithmetic():
    f = hz.SparseFunction.from_dict({0: 1.0, 1: 2.0})
    g = hz.SparseFunction.from_dict({1: -2.0, 2: 3.0})
    assert (f + g).support() == (0, 2)  # the label-1 values cancel exactly
    assert (f - f).is_zero()
    assert f.scale(0.5).value_at(1) == 1.0
    assert f.restrict([1]).support() == (1,)
    assert f.max_abs() == 2.0


def test_translate_group_shift(zline):
    f = hz.SparseFunction.from_dict({0: 1.0, 2: -0.5})
    g = hz.translate(zline, f, 3)
    # f^y(x) = f(x + y) on the integers
    assert g.values == ((-3, 1.0), (-1, -0.5))


def test_translate_point_swap_at_half(dr05):
    # translate by the central label 1 swaps the values at 0 and 1 exactly
    f = hz.SparseFunction.from_dict({0: 0.25, 1: -1.5, 4: 2.0})
    g = hz.translate(dr05, f, 1)
    assert g.value_at(0) == -1.5 and g.value_at(1) == 0.25
    assert g.value_at(4) == 2.0


def test_translate_indicator_fixed_point(dr05):
    # delta_2 * delta_1 = delta_2, delta_1 * delta_1 = delta_0, so chi_2 is fixed
    chi2 = hz.indicator([2])
    assert hz.translate(dr05, chi2, 1).values == chi2.values


def test_translate_spreads_on_su2(su2m):
    chi1 = hz.indicator([1])
    g = hz.translate(su2m, chi1, 1)
    # (chi_1)^1(x) = (delta_x * delta_1)({1}): x=0 gives 1, x=2 gives 1/3
    assert g.value_at(0) == pytest.approx(1.0, abs=1e-15)
    assert g.value_at(2) == pytest.approx(1 / 3, abs=1e-15)


def test_translate_reach_overflow(su2m):
    f = hz.indicator([30])
    with pytest.raises(hz.WindowOverflow):
        hz.translate(su2m, f, 5)


def test_integration_golden(dr05, su2m):
    assert hz.integrate_haar(dr05, hz.indicator([0])) == 1.0
    assert hz.integrate_haar(su2m, hz.indicator([1])) == 4.0


def test_measure_of_set_and_sup(dr05):
    assert hz.measure_of_set(dr05, [0, 2]) == pytest.approx(3.0, abs=1e-12)


def test_translation_preserves_integral(dr03, su2m, zline):
    f = hz.SparseFunction.from_dict({0: 1.0, 2: 0.5, 5: -0.25})
    for model in (dr03, su2m, zline):
        base = hz.integrate_haar(model, f)
        for y in range(0, 9):
            shifted = hz.integrate_haar(model, hz.translate(model, f, y))
            assert abs(shifted - base) <= 1e-10, (model, y)
