"""Young functions, conjugates, and both Orlicz-type norms."""
import functools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hyperorlicz as hz
from hyperorlicz import hypergroups, orlicz
from hyperorlicz.errors import RTOL_NORM
from hyperorlicz.orlicz import complementary_eval, young_inverse

COSH1 = 0.5430806348152437  # cosh(1) - 1


def test_young_evaluations():
    assert hz.phi_p(2.0)(2.0) == 2.0
    assert hz.exp_minus_linear()(0.0) == 0.0
    assert hz.cosh_minus_one()(1.0) == pytest.approx(COSH1, rel=1e-15)
    assert hz.phi_p(1.0)(3.0) == 3.0


def test_young_overflow_to_infinity():
    assert hz.exp_minus_linear()(800.0) == math.inf
    # expm1 overflows from log(max float) = 709.78 on, short of 710
    assert hz.exp_minus_linear()(709.9) == math.inf
    assert hz.exp_minus_linear()(709.78) < math.inf
    assert hz.cosh_minus_one()(2000.0) == math.inf
    assert hz.phi_p(3.0)(1e200) == math.inf


def test_young_inverse_roundtrip():
    for phi in (hz.phi_p(1.5), hz.cosh_minus_one(), hz.exp_minus_linear()):
        for target in (0.25, 1.0, 7.5):
            t = young_inverse(phi, target)
            assert phi(t) == pytest.approx(target, rel=1e-9)


def test_young_inverse_is_relative_at_small_levels():
    # the bisection stops at a width relative to the root, not at 1e-14
    for level in (1e-8, 1e-24, 1e-300):
        assert young_inverse(hz.phi_p(2.0), level) == pytest.approx(
            math.sqrt(2.0 * level), rel=1e-14)


def test_tabulated_young_interpolation_and_validation():
    phi = hz.tabulated_young([(0.0, 0.0), (1.0, 0.5), (2.0, 2.0)])
    assert phi(0.5) == 0.25
    assert phi(1.5) == 1.25
    assert phi(3.0) == 3.5  # final slope 1.5 extrapolates
    with pytest.raises(ValueError):
        hz.tabulated_young([(0.5, 0.0), (1.0, 1.0)])  # must start at the origin
    with pytest.raises(ValueError):
        hz.tabulated_young([(0.0, 0.0), (1.0, 2.0), (2.0, 2.5)])  # slopes decrease


def test_tabulated_young_convexity_slack_is_relative():
    # One straight line at slopes near 1e300: the computed slopes differ in
    # their last bits, beyond an absolute slack of 1e-15.
    hz.tabulated_young([(0.0, 0.0), (1e-300, 1.0), (1.5e-300, 1.5)])
    # The slope falls from 1e-20 to 1e-30, within an absolute 1e-15.
    with pytest.raises(ValueError, match="convexity"):
        hz.tabulated_young([(0.0, 0.0), (1.0, 1e-20), (2.0, 1.0000000001e-20)])
    # A slope of 2 / 1e-308 overflows, and phi read nan at the last knot.
    with pytest.raises(ValueError, match="finite"):
        hz.tabulated_young([(0.0, 0.0), (1e-308, 1.0), (2e-308, 3.0)])


def test_young_inverse_doubles_up_to_the_float_range():
    # The doubling stopped at 1e300; it now checks every power of two up to
    # 2^1023 and raises only where phi stays below the level there.
    assert young_inverse(hz.phi_p(1.0), 5e307) == pytest.approx(5e307, rel=1e-14)
    with pytest.raises(hz.NonFiniteIntegrand):
        young_inverse(hz.phi_p(1.0), sys.float_info.max)
    # So the gauge search starts near the norm at every knot scale: it halved
    # from max|f| in 1037 steps at knots of 1e300.
    model, f = hz.integer_group(4), hz.indicator([0])
    for knot in (1.0, 1e300, 1e307):
        phi = hz.tabulated_young([(0.0, 0.0), (knot, 1.0), (2.0 * knot, 3.0)])
        res = hz.luxemburg_norm(model, f, phi)
        assert res.iterations <= 45, knot
        assert res.value == pytest.approx(1.0 / knot, rel=1e-12, abs=0), knot
    # At knots of 8e307 the start max|f| / phi^{-1}(1) would be subnormal; it
    # is kept at the least normal ratio, where the search raises as the norm
    # of 1.25e-308 lies below it.
    phi = hz.tabulated_young([(0.0, 0.0), (8e307, 1.0), (1.6e308, 3.0)])
    with pytest.raises(hz.NonFiniteIntegrand):
        hz.luxemburg_norm(model, f, phi)


def test_orlicz_norm_converges_at_the_float_resolution_of_log_k():
    # At knots of 1e300 the minimiser lies at log k = 690, where one ulp of
    # log k exceeds the 1e-13 at which a golden section on log k stopped: it
    # ran to its cap of 4 001 evaluations unconverged.
    model, f = hz.integer_group(4), hz.indicator([0])
    for knot in (1e300, 1e-300):
        phi = hz.tabulated_young([(0.0, 0.0), (knot, 1.0), (2.0 * knot, 3.0)])
        res = hz.orlicz_norm(model, f, phi)
        assert res.value == pytest.approx(2.0 / knot, rel=1e-12, abs=0), knot


def test_complementary_power_pair():
    # the conjugate of t^2/2 is y^2/2
    assert complementary_eval(hz.phi_p(2.0), 3.0) == pytest.approx(4.5, rel=1e-12)
    # p = 3 pairs with q = 3/2
    q = 1.5
    y = 2.0
    assert complementary_eval(hz.phi_p(3.0), y) == pytest.approx(y**q / q, rel=1e-9)


def test_complementary_linear_kind():
    phi1 = hz.phi_p(1.0)
    assert complementary_eval(phi1, 0.5) == 0.0
    assert complementary_eval(phi1, 1.0) == 0.0
    assert complementary_eval(phi1, 2.0) == math.inf


def test_complementary_exp_kind_analytic():
    phi = hz.exp_minus_linear()
    for y in (0.0, 0.3, 1.0, 4.0, 20.0):
        expected = (1 + y) * math.log1p(y) - y
        assert complementary_eval(phi, y) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_complementary_exp_kind_matches_its_exact_series():
    # (1 + y) log(1 + y) - y = sum_{k>=2} (-1)^k y^k / (k(k-1)) for y <= 1,
    # summed here in exact rationals until a term falls below 1e-30 of the
    # sum; the float value must not lose digits where the closed form cancels.
    phi = hz.exp_minus_linear()
    for y in (1e-150, 1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.5):
        yq, exact, k = Fraction(y), Fraction(0), 2
        while True:
            term = (-yq) ** k / (k * (k - 1))
            exact += term
            if abs(term) < exact * Fraction(1, 10**30):
                break
            k += 1
        assert abs(Fraction(complementary_eval(phi, y)) - exact) <= exact * 1e-15, y


def test_exp_kind_matches_its_exact_series():
    # e^t - 1 - t = sum_{k>=2} t^k / k!, summed here in exact rationals until
    # a term falls below 1e-30 of the sum.  expm1(t) - t cancelled at small t:
    # 6e-10 relative off at t = 7.5e-7, and 0.0 below about 1e-16.
    phi = hz.exp_minus_linear()
    for t in (1e-150, 1e-20, 1e-12, 7.5e-7, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.75):
        tq, term, exact, k = Fraction(t), Fraction(t) ** 2 / 2, Fraction(0), 2
        while term >= exact * Fraction(1, 10**30):
            exact += term
            k += 1
            term = term * tq / k
        assert abs(Fraction(phi(t)) - exact) <= exact * 4e-16, t


def test_complementary_cosh_kind_analytic():
    phi = hz.cosh_minus_one()
    for y in (0.0, 0.5, 2.0, 10.0):
        expected = y * math.asinh(y) - (math.sqrt(1 + y * y) - 1)
        assert complementary_eval(phi, y) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_complementary_is_nonnegative_and_bounds_fenchel_young():
    # Psi(y) >= t*y - phi(t) for every t, and Psi >= 0 (t = 0); the tails of
    # the float range are where a closed form can cancel or overflow.
    kinds = (hz.phi_p(1.0), hz.phi_p(3.0), hz.exp_minus_linear(),
             hz.cosh_minus_one(),
             hz.tabulated_young([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]))
    for phi in kinds:
        for y in (5e-324, 1e-300, 1e-12, 1.0, 1e300):
            psi = complementary_eval(phi, y)
            assert psi >= 0.0, (phi.kind, y, psi)
            for t in (1e-6, 0.5, 1.0, 2.0, 10.0):
                assert t * y - phi(t) <= psi + 1e-12 * psi, (phi.kind, y, t)
        assert complementary_eval(phi, math.inf) == math.inf


def test_complementary_tabulated_knot_scan():
    phi = hz.tabulated_young([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
    # slopes are 1 then 2; conjugate at y=1.5 is max(t*1.5 - phi(t)) = 0.5 at t=1
    assert complementary_eval(phi, 1.5) == pytest.approx(0.5, rel=1e-12)
    assert complementary_eval(phi, 3.0) == math.inf  # beyond the final slope


def test_complementary_tabulated_reads_the_knot_where_the_slopes_cross():
    # psi at a piece's own slope is read at that piece's left knot, the
    # value _dual_term sums, not at the rounding of the piece's other knot:
    # a max over every knot gave 4.44e-16 here.
    phi = hz.tabulated_young([(0, 0), (1.4999999999999999e-109, 3.0)])
    assert complementary_eval(phi, 2.0000000000000004e109) == 0.0
    phi = hz.tabulated_young([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (3.0, 6.0)])
    term = orlicz._dual_term(phi)
    for (t0, v0), (t1, v1) in zip(phi.knots, phi.knots[1:]):
        slope = (v1 - v0) / (t1 - t0)
        assert complementary_eval(phi, slope) == term(0.5 * (t0 + t1)) == t0 * slope - v0


@pytest.mark.seeded
def test_young_equality_holds_per_kind():
    # psi(phi'(t)) = t phi'(t) - phi(t) from t = 1e-300 to 1e300 wherever
    # the right side is finite: complementary_eval against the difference,
    # and the term the infimum form's modular sums (one pair (t, 1) at scale
    # 1) against complementary_eval.  Each may round by 4 ulps of t phi'(t)
    # times 1 + |log phi'(t)|: the power kind's y^q carries the rounding of
    # q = p / (p - 1), which pow scales by |log y|.
    ulps = 4 * sys.float_info.epsilon
    for phi in EMBEDDING_YOUNG + (hz.phi_p(40.0),):
        for e in range(-300, 301, 5):
            t = 10.0**e
            slope = orlicz._slope(phi, t)
            difference = t * slope - phi(t)
            if not difference < math.inf:
                continue
            psi = complementary_eval(phi, slope)
            if slope == 0.0:
                assert psi == difference == 0.0, (phi, t)
                continue
            tolerance = ulps * (1.0 + abs(math.log(slope))) * t * slope
            assert abs(psi - difference) <= tolerance, (phi, t)
            if phi.p != 1.0:  # the search never sums phi_p(1)'s term, psi(1) = 0
                term = orlicz._modular_of([(t, 1.0)], phi, dual=True)(1.0)
                assert abs(term - psi) <= tolerance, (phi, t, term, psi)


def test_right_derivative_per_kind():
    # phi' against the one-sided difference quotient (phi(t + h) - phi(t)) / h
    # at h = 1e-9 t, off the knots, where its second-order term and its
    # rounding stay below 1e-6; at a knot it is the slope to the right.
    for phi in EMBEDDING_YOUNG:
        for t in (1e-3, 0.3, 0.75, 1.7, 5.0, 40.0, 300.0):
            h = 1e-9 * t
            if not phi(t + h) < math.inf or phi(t) < 1e-290:
                continue
            quotient = (phi(t + h) - phi(t)) / h
            assert orlicz._slope(phi, t) == pytest.approx(quotient, rel=1e-6), (phi, t)
    steps = hz.tabulated_young([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
    assert [orlicz._slope(steps, t) for t in (0.0, 1.0, 2.0, 1e300)] == [1.0, 2.0, 2.0, 2.0]
    assert orlicz._slope(hz.phi_p(1.0), 0.0) == 1.0
    # phi'(inf) is finite exactly for phi_p(1) and tabulated functions.
    for phi in EMBEDDING_YOUNG:
        limit = orlicz._slope(phi, math.inf)
        assert (limit < math.inf) == (phi.kind == "tabulated" or phi.p == 1.0), phi
    assert orlicz._slope(hz.phi_p(1.0), math.inf) == 1.0
    assert orlicz._slope(steps, math.inf) == 2.0


def test_luxemburg_golden_values(dr05):
    phi2 = hz.phi_p(2.0)
    n0 = hz.luxemburg_norm(dr05, hz.indicator([0]), phi2)
    assert n0.value == pytest.approx(2**-0.5, rel=1e-9)
    n2 = hz.luxemburg_norm(dr05, hz.indicator([2]), phi2)
    assert n2.value == pytest.approx(1.0, rel=1e-9)
    assert n0.bracket[0] <= n0.value <= n0.bracket[1] * (1 + 1e-15)


def test_luxemburg_zero_function(dr05):
    res = hz.luxemburg_norm(dr05, hz.ZERO_FUNCTION, hz.phi_p(2.0))
    assert res.value == 0.0 and res.iterations == 0


def test_luxemburg_phi1_is_l1_norm(dr03):
    f = hz.SparseFunction.from_dict({0: 1.0, 2: -0.5})
    res = hz.luxemburg_norm(dr03, f, hz.phi_p(1.0))
    l1 = 1.0 * dr03.haar[0] + 0.5 * dr03.haar[2]
    assert res.value == pytest.approx(l1, rel=1e-9)


def test_luxemburg_defining_inequality_holds_at_value(dr05):
    # the returned value is the upper bracket end, so the modular is <= 1 there
    phi = hz.cosh_minus_one()
    f = hz.SparseFunction.from_dict({0: 2.0, 3: 1.0, 7: -0.5})
    res = hz.luxemburg_norm(dr05, f, phi)
    total = sum(phi(abs(v) / res.value) * dr05.haar[x]
                for x, v in f.values)
    assert total <= 1.0 + 1e-9


def test_luxemburg_caps_scale_with_the_data():
    # The peak argument max|f| / k stays near phi^{-1}(1), so a peak of 1e300
    # has a finite gauge norm of about 1e300 / 1.146 under e^t - t - 1.
    phi = hz.exp_minus_linear()
    f = hz.SparseFunction.from_dict({0: 1e300})
    res = hz.luxemburg_norm(hz.integer_group(40), f, phi)
    assert res.value == pytest.approx(1e300 / young_inverse(phi, 1.0), rel=1e-9)
    assert phi(1e300 / res.value) <= 1.0
    # At the other end, phi_1 gives the l1 norm of a tiny peak, not 0.
    tiny = hz.SparseFunction.from_dict({0: 1e-300})
    res = hz.luxemburg_norm(hz.integer_group(40), tiny, hz.phi_p(1.0))
    assert res.value == pytest.approx(1e-300, rel=1e-9, abs=0)
    # A norm beyond the float range is still reported as non-finite.
    steep = hz.tabulated_young([(0.0, 0.0), (1.0, 1e10)])
    heavy = hz.dunkl_ramirez(0.1, 300)
    with pytest.raises(hz.NonFiniteIntegrand):
        hz.luxemburg_norm(heavy, hz.indicator([300]), steep)


def test_luxemburg_norm_beyond_the_float_range_on_a_heavy_point():
    # The search starts at max|f| / phi^{-1}(1 / m) = 7e316 here, which was
    # inf: halving inf never met the lower cap, and the search never ended.
    # Whenever that start overflows the norm does too, so it is named.
    model = hz.dunkl_ramirez(0.1, 24)
    with pytest.raises(hz.NonFiniteIntegrand):
        hz.luxemburg_norm(model, hz.SparseFunction.from_dict({24: 1e305}), hz.phi_p(2.0))
    res = hz.luxemburg_norm(model, hz.SparseFunction.from_dict({24: 1e290}), hz.phi_p(2.0))
    assert res.value == pytest.approx(1e290 / math.sqrt(2 / model.haar[24]), rel=1e-11)


def test_luxemburg_norm_of_a_subnormal_peak():
    # Scaling by 1 / k overflows for k below about 5.6e-309; the norm of a
    # subnormal peak is still the peak times the norm of the unit peak.
    model = hz.integer_group(4)
    for phi in (hz.phi_p(1.0), hz.phi_p(2.0), hz.exp_minus_linear()):
        unit = hz.luxemburg_norm(model, hz.indicator([0]), phi).value
        # 1e-320 keeps only about 11 significant bits.
        for peak, rel in ((1e-310, 1e-9), (1e-320, 1e-3)):
            res = hz.luxemburg_norm(model, hz.SparseFunction.from_dict({0: peak}), phi)
            # abs=0: approx would otherwise accept any value below 1e-12.
            assert res.value == pytest.approx(peak * unit, rel=rel, abs=0), (phi, peak)
            assert res.bracket[0] <= res.value == res.bracket[1]


def test_orlicz_norm_at_extreme_peaks():
    # inf_k (1 + k^2 c^2 / 2) / k = sqrt(2) c for c delta_0 under phi_2.
    # Beyond about 1e220 the unscaled search stopped at its step cap without
    # a word, and below about 1e-300 its bracket was no float interval.
    model = hz.integer_group(4)
    phi = hz.phi_p(2.0)
    for exponent in range(-320, 301, 10):
        peak = float(f"1e{exponent}")
        f = hz.SparseFunction.from_dict({0: peak, 2: -0.5 * peak})
        res = hz.orlicz_norm(model, f, phi)
        assert res.iterations < 400, exponent
        # phi_2 gives the l2 norm times sqrt(2); a subnormal peak keeps only
        # a few significant bits.
        exact = 2**0.5 * math.hypot(peak, f.value_at(2))
        rel = 1e-12 if peak > 1e-300 else 1e-3
        assert res.value == pytest.approx(exact, rel=rel, abs=0), exponent
        lo, hi = res.bracket
        assert 0.0 <= lo <= hi


def test_orlicz_norm_rescaling_keeps_the_bits_inside_the_scan_range():
    # The search runs at unit peak, so data scaled by any power of two that
    # keeps its values and its norm normal floats gives the norm of the
    # unit-peak data (peak 0.75) scaled alike, to the last bit.
    model = hz.su2(6)
    f = hz.SparseFunction.from_dict({1: 0.75, 4: -0.25})
    for phi in (hz.phi_p(1.5), hz.cosh_minus_one(), hz.exp_minus_linear()):
        base = hz.orlicz_norm(model, f, phi)
        low = max(-1020, -1021 - math.frexp(base.value)[1])
        high = min(1023, 1023 - math.frexp(base.value)[1])
        for shift in range(low, high + 1):
            res = hz.orlicz_norm(model, hz.SparseFunction.from_dict(
                {x: math.ldexp(v, shift) for x, v in f.values}), phi)
            assert res.iterations == base.iterations, shift
            assert res.value == math.ldexp(base.value, shift), shift


def test_orlicz_norm_finds_a_minimiser_left_of_its_grid():
    # The former log-grid scan started at k = 1e-9 / max|f|.  On a point of
    # Haar mass m the minimiser of (1 + m k^2 / 2) / k is k = sqrt(2 / m),
    # left of that start once m passes 2e18, and the norm is sqrt(2 m).  The
    # scan stopped at its start and returned 4.5e14 for sqrt(2e24) = 1.41e12.
    model = hz.dunkl_ramirez(0.1, 24)
    for x in (20, 24):
        mass = model.haar[x]
        res = hz.orlicz_norm(model, hz.indicator([x]), hz.phi_p(2.0))
        assert res.value == pytest.approx(math.sqrt(2 * mass), rel=1e-12, abs=0), x
        # the bracket holds the minimiser k* = sqrt(2 / m)
        lo, hi = res.bracket
        assert hi < 1e-9
        assert lo == pytest.approx(math.sqrt(2 / mass), rel=1e-6)


def test_orlicz_norm_finds_a_minimiser_right_of_its_capped_grid():
    # With knots at 1e150 the objective (1 + phi(k)) / k falls to 2e-150 at
    # k = 1e150, far right of the former scan's cap at k = 1e18, which only
    # its bound k >= 1 / (2 N), N = 1e-150 the gauge norm, reached.
    model = hz.integer_group(4)
    f = hz.indicator([0])
    phi = hz.tabulated_young([(0.0, 0.0), (1e150, 1.0), (2e150, 3.0)])
    res = hz.orlicz_norm(model, f, phi)
    assert res.value == pytest.approx(2e-150, rel=1e-12)
    gauge = hz.luxemburg_norm(model, f, phi).value
    assert gauge <= res.value <= 2 * gauge
    # phi_1 has its infimum at k -> infinity, so its scan ended at the cap
    # too; there 1 / (2 N) = 1/2 lay inside the grid, and the scan stayed
    res = hz.orlicz_norm(model, f, hz.phi_p(1.0))
    assert res.value == 1.0


def test_orlicz_norm_takes_the_limit_at_infinity_exactly():
    # Where phi'(inf) = s is finite and psi(s) m(supp f) <= 1 the objective
    # falls all the way, and the infimum is its limit s ||f||_1.  Under
    # phi_p(1), psi(1) = 0: the grid gave 9.999999999999999e-301 for
    # 1e-300 delta_0.
    model = hz.integer_group(4)
    res = hz.orlicz_norm(model, hz.SparseFunction.from_dict({0: 1e-300}), hz.phi_p(1.0))
    assert res.value == 1e-300
    # Slopes 1 and 1.25, psi(1.25) = 0.25, on two points of Haar weight 1.
    phi = hz.tabulated_young([(0.0, 0.0), (1.0, 1.0), (2.0, 2.25)])
    res = hz.orlicz_norm(model, hz.SparseFunction.from_dict({0: 3.0, 2: -0.25}), phi)
    assert res.value == 1.25 * 3.25
    # One straight line of slope 1e-164: both norms are ||f||_1 / 1e164, here
    # 4.3e-309 on a point of Haar weight 2^31.  The grid stopped at
    # k = 1.8e308, where 1 / k is 5.6e-309, and gave 9.9e-309 > 2 N.
    model = hz.dunkl_ramirez(0.5, 32)
    phi = hz.tabulated_young([(0.0, 0.0), (1e164, 1.0), (2e164, 2.0)])
    f = hz.SparseFunction.from_dict({32: -2e-154})
    exact = float(_exact_tabulated_infimum(model, f, phi))
    assert hz.orlicz_norm(model, f, phi).value == pytest.approx(exact, rel=1e-12, abs=0)
    assert hz.luxemburg_norm(model, f, phi).value == pytest.approx(exact, rel=1e-12, abs=0)


def test_orlicz_norm_extends_its_cap_with_the_gauge_norm():
    # On a point of mass m under knots (0, 0), (s, 1), (2 s, 3) the objective
    # is 1/k + m/s up to k = s, so the infimum is (1 + m) / s at k = s = 1e40.
    # With m = 9e7 the bound 1 / (2 N) = s / (2 m) lay inside the former
    # capped grid, which ended near k = 1e33 and gave 1e-32 for 9e-33: the
    # 1/k term is negligible beside N only from about k = 1e18 / N on.
    model = hz.dunkl_ramirez(0.1, 24)
    phi = hz.tabulated_young([(0.0, 0.0), (1e40, 1.0), (2e40, 3.0)])
    for x in (4, 8, 12):
        mass = model.haar[x]
        res = hz.orlicz_norm(model, hz.indicator([x]), phi)
        assert res.value == pytest.approx((1 + mass) / 1e40, rel=1e-12, abs=0), x


def test_orlicz_norm_finds_a_minimiser_left_of_a_grid_flat_in_float():
    # Knots (0, 0), (s, 1), (2 s, 4) at s = 1e-25: the objective is 1/k + 1/s
    # below k = s and 3/s - 1/k above it, so the infimum is 2/s at k = s.  On
    # the former first grid, k = 1e-9 .. 1e12, 1/k is below one ulp of 3/s,
    # so the grid was flat in float, its best point lay anywhere, and the
    # search returned 3/s as converged.
    model = hz.integer_group(4)
    phi = hz.tabulated_young([(0.0, 0.0), (1e-25, 1.0), (2e-25, 4.0)])
    res = hz.orlicz_norm(model, hz.indicator([0]), phi)
    assert res.value == pytest.approx(2e25, rel=1e-12, abs=0)


def test_orlicz_golden_values(dr05):
    phi2 = hz.phi_p(2.0)
    res = hz.orlicz_norm(dr05, hz.indicator([0]), phi2)
    assert res.value == pytest.approx(2**0.5, rel=1e-9)
    # linear growth pushes the infimum to the k -> infinity limit, value 1
    res1 = hz.orlicz_norm(dr05, hz.indicator([0]), hz.phi_p(1.0))
    assert res1.value == pytest.approx(1.0, rel=1e-6)


def test_sandwich_between_gauge_and_infimum_form(dr03):
    phi = hz.cosh_minus_one()
    f = hz.SparseFunction.from_dict({0: 1.5, 1: -0.25, 4: 0.75})
    lux = hz.luxemburg_norm(dr03, f, phi).value
    ame = hz.orlicz_norm(dr03, f, phi).value
    assert lux <= ame * (1 + 1e-9)
    assert ame <= 2 * lux * (1 + 1e-9)


def test_delta2_states():
    assert hz.delta2_check(hz.phi_p(3.0)).state == "proven"
    assert hz.delta2_check(hz.phi_p(3.0)).constant == 8.0
    assert hz.delta2_check(hz.phi_p(1023.0)).constant == 2.0**1023
    assert hz.delta2_check(hz.exp_minus_linear()).state == "refuted"
    assert hz.delta2_check(hz.cosh_minus_one()).state == "refuted"
    tab = hz.tabulated_young([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
    assert hz.delta2_check(tab).state == "unknown"


def test_delta2_constant_beyond_the_float_range():
    # 2.0**p raised OverflowError past p = 1024; Delta-2 still holds.
    for p in (1024.0, 1100.0, 1e6):
        assert hz.delta2_check(hz.phi_p(p)) == ("proven", math.inf, None), p


def test_l1_embedding_report(dr05):
    lin = hz.l1_embedding_check(dr05, hz.phi_p(1.0))
    assert lin.holds and lin.derivative_status == "positive"
    assert lin.right_derivative == pytest.approx(1.0, rel=1e-6)
    assert not lin.rigorous
    exp = hz.l1_embedding_check(dr05, hz.exp_minus_linear())
    assert exp.holds and exp.derivative_status == "zero"
    quad = hz.l1_embedding_check(dr05, hz.phi_p(2.0))
    assert quad.holds


# Psi^{-1}(1 / m(X)) against A(1_X) / m(X): windows from a few labels to
# Haar masses of 1e42, where the minimiser sits far left of the scan's start.
EMBEDDING_MODELS = {
    "integers-8": lambda: hz.integer_group(8),
    "integers-256": lambda: hz.integer_group(256),
    "su2-8": lambda: hz.su2(8),
    "su2-128": lambda: hz.su2(128),
    "dr0.5-12": lambda: hz.dunkl_ramirez(0.5, 12),
    "dr0.5-32": lambda: hz.dunkl_ramirez(0.5, 32),
    "dr0.3-24": lambda: hz.dunkl_ramirez(0.3, 24),
    "dr0.1-24": lambda: hz.dunkl_ramirez(0.1, 24),
    "dr0.2-60": lambda: hz.dunkl_ramirez(0.2, 60),
}
EMBEDDING_YOUNG = (
    hz.phi_p(1.0), hz.phi_p(1.5), hz.phi_p(2.0), hz.phi_p(4.0),
    hz.exp_minus_linear(), hz.cosh_minus_one(),
    hz.tabulated_young([(0.0, 0.0), (1.0, 0.5), (2.0, 2.0)]),
    hz.tabulated_young([(0.0, 0.0), (0.5, 0.1), (1.0, 1.0), (3.0, 7.0)]),
)


@functools.cache
def _embedding_model(name):
    return EMBEDDING_MODELS[name]()


@functools.cache
def _embedding_constant(name, phi):
    return hz.l1_embedding_check(_embedding_model(name), phi).constant_estimate


def _psi_inverse(phi, y):
    """sup {s : Psi(s) <= y} for y > 0, Psi the complementary function."""
    if phi.kind == "phi_p":
        if phi.p == 1.0:
            return 1.0  # Psi is 0 up to 1 and infinite beyond
        q = phi.p / (phi.p - 1.0)
        return (q * y) ** (1.0 / q)
    lo, hi = 0.0, 1.0
    while complementary_eval(phi, hi) <= y:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if complementary_eval(phi, mid) <= y:
            lo = mid
        else:
            hi = mid
    return lo


def test_embedding_constant_is_the_closed_form():
    for name in EMBEDDING_MODELS:
        model = _embedding_model(name)
        mass = sum(model.haar[x] for x in model.carrier)
        for phi in EMBEDDING_YOUNG:
            expected = _psi_inverse(phi, 1.0 / mass)
            assert _embedding_constant(name, phi) == pytest.approx(expected, rel=1e-9), \
                (name, phi)


def test_embedding_constant_takes_one_norm_search(monkeypatch, dr05):
    calls = []
    search = orlicz.orlicz_norm

    def counted(model, f, phi):
        calls.append(f)
        return search(model, f, phi)

    monkeypatch.setattr(orlicz, "orlicz_norm", counted)
    phi = hz.phi_p(1.5)
    report = hz.l1_embedding_check(dr05, phi)
    whole = hz.indicator(dr05.carrier)
    assert calls == [whole]
    assert report.constant_estimate == \
        search(dr05, whole, phi).value / hz.integrate_haar(dr05, whole)


@pytest.mark.seeded
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_embedding_constant_bounds_every_ratio(data):
    # Hoelder: A(g) >= Psi^{-1}(1 / m(X)) ||g||_1 for every g, the property
    # that lets the constant come from 1_X alone.
    name = data.draw(st.sampled_from(sorted(EMBEDDING_MODELS)))
    phi = data.draw(st.sampled_from(EMBEDDING_YOUNG))
    model = _embedding_model(name)
    labels = data.draw(st.lists(st.sampled_from(model.carrier), min_size=1,
                                max_size=6, unique=True))
    values = data.draw(st.lists(
        st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((-1.0, 1.0)),
                  st.floats(min_value=-200.0, max_value=200.0)),
        min_size=len(labels), max_size=len(labels)))
    g = hz.SparseFunction.from_dict(dict(zip(labels, values)))
    l1 = sum(abs(v) * model.haar[x] for x, v in g.values)
    ratio = hz.orlicz_norm(model, g, phi).value / l1
    assert ratio >= _embedding_constant(name, phi) * (1 - 1e-9)


@pytest.mark.seeded
@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0),
       vals=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1,
                     max_size=5))
def test_gauge_norm_homogeneity(dr03, scale, vals):
    f = hz.SparseFunction.from_dict({i: v for i, v in enumerate(vals)})
    if f.is_zero():
        return
    phi = hz.phi_p(2.0)
    base = hz.luxemburg_norm(dr03, f, phi).value
    scaled = hz.luxemburg_norm(dr03, f.scale(scale), phi).value
    assert scaled == pytest.approx(scale * base, rel=1e-9)


@pytest.mark.seeded
@settings(max_examples=25, deadline=None)
@given(a=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=4),
       b=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=4))
def test_gauge_norm_triangle_inequality(dr03, a, b):
    f = hz.SparseFunction.from_dict({i: v for i, v in enumerate(a)})
    g = hz.SparseFunction.from_dict({i + 2: v for i, v in enumerate(b)})
    phi = hz.cosh_minus_one()
    nf = hz.luxemburg_norm(dr03, f, phi).value
    ng = hz.luxemburg_norm(dr03, g, phi).value
    nfg = hz.luxemburg_norm(dr03, f + g, phi).value
    assert nfg <= nf + ng + 1e-9


def _frozen_modular(model, f, phi, scale):
    """The plain modular loop the per-call kernel replaced, kept as the
    oracle: phi(scale * |v|) * haar summed in support order."""
    total = 0.0
    for x, v in f.values:
        total += phi(scale * abs(v)) * model.haar[x]
        if total == math.inf:
            return math.inf
    return total


def _frozen_young_inverse(phi, y):
    """young_inverse as it was when its doubling stopped at 1e300."""
    if y <= 0.0:
        return 0.0
    hi = 1.0
    while phi(hi) < y:
        hi *= 2.0
        if hi > 1e300:
            raise hz.NonFiniteIntegrand("young function never reaches the target level")
    lo = 0.0
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        if phi(mid) >= y:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * hi:
            break
    return hi


def _reference_luxemburg_norm(model, f, phi):
    """The gauge search before it rescaled every peak, kept as the oracle.

    It searched f itself unless max|f| was below 2^-960, and stopped where
    max|f| / k left [1e-300, 1e300]: raising below, returning 0 above.
    """
    if f.is_zero():
        return orlicz.NormResult(0.0, 0, (0.0, 0.0))
    fmax = f.max_abs()
    shift = 0
    if fmax < 2.0**-960:
        shift = -math.frexp(fmax)[1]
        f = hz.SparseFunction.from_dict({x: math.ldexp(v, shift) for x, v in f.values})
        fmax = f.max_abs()
    m_min = min(model.haar[x] for x, _ in f.values)
    try:
        k0 = min(fmax / _frozen_young_inverse(phi, 1.0 / m_min), sys.float_info.max)
    except hz.NonFiniteIntegrand:
        k0 = fmax
    iters = 0

    def excess(k):
        return _frozen_modular(model, f, phi, 1.0 / k) > 1.0

    if excess(k0):
        lo = hi = k0
        while excess(hi):
            hi *= 2.0
            iters += 1
            if fmax / hi < 1e-300:
                raise hz.NonFiniteIntegrand("modular never falls to 1")
    else:
        hi = lo = k0
        while not excess(lo):
            hi = lo
            lo *= 0.5
            iters += 1
            if fmax / lo > 1e300:
                return orlicz.NormResult(0.0, iters, (0.0, 0.0))
    while hi - lo > RTOL_NORM * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid):
            lo = mid
        else:
            hi = mid
        iters += 1
    lo, hi = math.ldexp(lo, -shift), math.ldexp(hi, -shift)
    return orlicz.NormResult(hi, iters, (lo, hi))


UNIT_SCALE_YOUNG = (
    hz.phi_p(1.0), hz.phi_p(1.5), hz.phi_p(2.0), hz.exp_minus_linear(),
    hz.cosh_minus_one(), hz.tabulated_young([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]),
)


def _draw_scale(data, low, high):
    """m * 10^e for a decade e in [low, high] and a mantissa m in [1, 10):
    spread over the decades, where a float exponent clusters at its ends."""
    decade = data.draw(st.integers(min_value=low, max_value=high - 1))
    return data.draw(st.floats(min_value=1.0, max_value=10.0, exclude_max=True)) * 10.0**decade


def _draw_function(data, model, peak):
    """Up to five points of the carrier, the first at the peak and the rest
    within six decades below it."""
    labels = data.draw(st.lists(st.sampled_from(model.carrier), min_size=1,
                                max_size=5, unique=True))
    values = [peak] + [data.draw(st.floats(min_value=1e-6, max_value=1.0)) * peak
                       for _ in labels[1:]]
    signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=len(labels),
                               max_size=len(labels)))
    return hz.SparseFunction.from_dict(
        {x: s * v for x, s, v in zip(labels, signs, values)})


@pytest.mark.seeded
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gauge_norm_keeps_the_bits_of_the_unrescaled_search(all_models, data):
    # Rescaling every peak by an exact power of two changes nothing wherever
    # the earlier search found a positive finite norm.
    model = all_models[data.draw(st.sampled_from(sorted(all_models)))]
    phi = data.draw(st.sampled_from(UNIT_SCALE_YOUNG))
    peak = _draw_scale(data, -320, 300)
    f = _draw_function(data, model, peak)
    try:
        expected = _reference_luxemburg_norm(model, f, phi)
    except (hz.NonFiniteIntegrand, ZeroDivisionError):
        return
    if 0.0 < expected.value < math.inf:
        assert hz.luxemburg_norm(model, f, phi) == expected


@pytest.mark.seeded
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_norms_at_extreme_scales_are_sandwiched_or_named(all_models, data):
    # The float range is the only limit: each norm is positive and finite or
    # raises NonFiniteIntegrand, and N <= A <= 2N wherever both return.
    model = all_models[data.draw(st.sampled_from(sorted(all_models)))]
    kind = data.draw(st.sampled_from(("phi_p", "exp_minus_linear",
                                      "cosh_minus_one", "tabulated")))
    if kind == "phi_p":
        phi = hz.phi_p(data.draw(st.floats(min_value=1.0, max_value=4.0)))
    elif kind == "tabulated":
        # The slope steepens by c: (1 + c) - 1 >= 1 and 2 s - s = s keep
        # these knots convex in floats too.
        knot = _draw_scale(data, -300, 300)
        steepen = data.draw(st.floats(min_value=1.0, max_value=10.0))
        phi = hz.tabulated_young([(0.0, 0.0), (knot, 1.0), (2.0 * knot, 1.0 + steepen)])
    else:
        phi = getattr(hz, kind)()
    peak = _draw_scale(data, -300, 300)
    f = _draw_function(data, model, peak)
    found = []
    for search in (hz.luxemburg_norm, hz.orlicz_norm):
        try:
            res = search(model, f, phi)
        except hz.NonFiniteIntegrand:
            continue
        assert 0.0 < res.value < math.inf, search
        found.append(res)
    if len(found) == 2:
        # A subnormal norm is rounded to a multiple of the least subnormal
        # when it is scaled back.
        gauge, infimum = (res.value for res in found)
        slack = 2 * math.ulp(0.0)
        assert gauge <= infimum * (1 + 1e-9) + slack
        assert infimum <= 2 * gauge * (1 + 1e-9) + slack


def test_gauge_norm_at_the_edges_of_the_float_range():
    # With knots at 1e300 the norm of delta_0 is 1e-300; the search stopped
    # at max|f| / k = 1e300 and returned 0.  At 1e-300 a peak of 1e-5 has
    # norm 1e295, and at 1e200 a peak of 1e-150 has norm 1e-350, below the
    # least float.
    model = hz.integer_group(4)
    for knot, peak, norm in ((1e300, 1.0, 1e-300), (1e-300, 1e-5, 1e295)):
        phi = hz.tabulated_young([(0.0, 0.0), (knot, 1.0), (2 * knot, 3.0)])
        f = hz.SparseFunction.from_dict({0: peak})
        res = hz.luxemburg_norm(model, f, phi)
        assert res.value == pytest.approx(norm, rel=1e-12, abs=0), knot
        infimum = hz.orlicz_norm(model, f, phi)
        assert infimum.value == pytest.approx(2 * norm, rel=1e-12, abs=0), knot
    phi = hz.tabulated_young([(0.0, 0.0), (1e200, 1.0), (2e200, 3.0)])
    f = hz.SparseFunction.from_dict({0: 1e-150})
    for search in (hz.luxemburg_norm, hz.orlicz_norm):
        with pytest.raises(hz.NonFiniteIntegrand):
            search(model, f, phi)


@pytest.mark.seeded
def test_gauge_midpoint_near_the_largest_float():
    # The search starts at 6.6e307 and doubles to 1.3e308, so the sum of its
    # ends is inf; the midpoint halves each end instead.  The norm was named
    # "scales back to inf" though it is about 6.7e-13.
    model = hz.dunkl_ramirez(0.5, 32)
    phi = hz.tabulated_young([(0.0, 0.0), (1e-300, 1.0), (2e-300, 7.97)])
    f = hz.SparseFunction.from_dict({27: -1e-320})
    gauge = hz.luxemburg_norm(model, f, phi).value
    infimum = hz.orlicz_norm(model, f, phi).value
    assert math.isfinite(gauge) and gauge > 0.0
    assert gauge <= infimum <= 2 * gauge


def _frozen_luxemburg_norm(model, f, phi, touched):
    """luxemburg_norm before the per-call kernel, on the frozen loop.

    It appends to ``touched`` where its start differs from today's: where
    young_inverse's doubling stopped at 1e300 and the search fell back to
    max|f|, which now doubles on to the float range."""
    if f.is_zero():
        return orlicz.NormResult(0.0, 0, (0.0, 0.0))
    shift = -math.frexp(f.max_abs())[1]
    f = hz.SparseFunction.from_dict({x: math.ldexp(v, shift) for x, v in f.values})
    fmax = f.max_abs()
    m_min = min(model.haar[x] for x, _ in f.values)
    try:
        k0 = min(fmax / _frozen_young_inverse(phi, 1.0 / m_min), sys.float_info.max)
    except hz.NonFiniteIntegrand:
        touched.append("young_inverse")
        k0 = fmax
    iters = 0

    def excess(k):
        return _frozen_modular(model, f, phi, 1.0 / k) > 1.0

    if excess(k0):
        lo = hi = k0
        while excess(hi):
            hi *= 2.0
            iters += 1
            if hi / fmax > sys.float_info.max:
                raise hz.NonFiniteIntegrand("modular never falls to 1")
    else:
        hi = lo = k0
        while not excess(lo):
            hi = lo
            lo *= 0.5
            iters += 1
            if lo / fmax < sys.float_info.min:
                raise hz.NonFiniteIntegrand("modular never rises above 1")
    while hi - lo > RTOL_NORM * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid):
            lo = mid
        else:
            hi = mid
        iters += 1
    hi = orlicz._norm_value(hi, -shift)
    return orlicz.NormResult(hi, iters, (orlicz._ldexp(lo, -shift), hi))


def _frozen_orlicz_norm(model, f, phi, touched):
    """orlicz_norm as a log grid and golden section, before the per-call
    kernel and the root search, on the frozen loop, with its golden section
    stopping at an absolute width of 1e-13 in log k.

    It appends to ``touched`` where its stop may fall short (a bracket end
    at |log k| >= 256, where two ulps of log k exceed 1e-13), where its
    gauge norm's start differs, and where it raises because its bound
    k >= 1 / (2 N), which the root search does not use, leaves the float
    range."""
    if f.is_zero():
        return orlicz.NormResult(0.0, 0, (0.0, 0.0))
    fmax = f.max_abs()
    shift = 0
    if not 2.0**-512 <= fmax <= 2.0**512:
        shift = -math.frexp(fmax)[1]
        f = hz.SparseFunction.from_dict({x: math.ldexp(v, shift) for x, v in f.values})
        fmax = f.max_abs()
    log_max = math.log(sys.float_info.max)

    def objective(logk):
        k = math.exp(logk)
        return (1.0 + _frozen_modular(model, f, phi, k)) / k

    lo = first = math.log(1e-9 / fmax)
    hi = math.log(1e12 / fmax)
    cap = 1e18 / fmax
    npts = 61
    iters = 0
    bounded = False
    while True:
        step = (hi - lo) / (npts - 1)
        vals = [objective(lo + i * step) for i in range(npts)]
        iters += npts
        best = min(range(npts), key=lambda i: (vals[i], i))
        if best == npts - 1 and math.exp(hi) >= cap and not bounded:
            bounded = True
            try:
                gauge = _frozen_luxemburg_norm(model, f, phi, touched).value
                start = -math.log(2.0 * gauge)
                if start > log_max:
                    raise hz.NonFiniteIntegrand("the minimising k lies beyond the float range")
            except hz.NonFiniteIntegrand:
                touched.append("gauge bound")
                raise
            cap = max(cap, 1e18 / gauge)
            if hi < start:
                lo, hi = start, min(start + (hi - lo), log_max)
                continue
        if best == npts - 1 and math.exp(hi) < cap and hi < log_max:
            lo, hi = hi - 2.0 * step, min(hi + (hi - lo), log_max)
            continue
        floor = -math.log(vals[best])
        if not bounded and -math.inf < floor < first:
            lo, hi, bounded = floor, lo + min(best + 1, npts - 1) * step, True
            continue
        break
    a = lo + max(best - 1, 0) * step
    b = lo + min(best + 1, npts - 1) * step
    if max(-a, b) >= 256.0:
        touched.append("golden section")
    inv_gold = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_gold * (b - a)
    x2 = a + inv_gold * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > 1e-13:
        iters += 1
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_gold * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_gold * (b - a)
            f2 = objective(x2)
        if iters > 4000:
            break
    value = min(vals[best], objective(0.5 * (a + b)), f1, f2)
    bracket = (orlicz._ldexp(math.exp(a), shift), orlicz._ldexp(math.exp(b), shift))
    return orlicz.NormResult(orlicz._norm_value(value, -shift), iters, bracket)


def _outcome(search, *args):
    """A search's NormResult, or the exception type it raised."""
    try:
        return search(*args)
    except hz.NonFiniteIntegrand:
        return hz.NonFiniteIntegrand


def _draw_young(data):
    """Any kind: phi_p with p log-uniform in [1, 1e6], and tabulated knots
    from unit scale to the edges of the float range."""
    kind = data.draw(st.sampled_from(("phi_p", "exp_minus_linear",
                                      "cosh_minus_one", "tabulated")))
    if kind == "phi_p":
        return hz.phi_p(min(10.0 ** data.draw(st.floats(min_value=0.0, max_value=6.0)), 1e6))
    if kind == "tabulated":
        knot = _draw_scale(data, -300, 300)
        steepen = data.draw(st.floats(min_value=1.0, max_value=10.0))
        return hz.tabulated_young([(0.0, 0.0), (knot, 1.0), (2.0 * knot, 1.0 + steepen)])
    return getattr(hz, kind)()


def _exact_tabulated_infimum(model, f, phi):
    """inf_k (1 + modular(k f)) / k in exact rationals, for tabulated phi.
    Between the kinks k = t / |v| (t a knot, v a value of f) the objective
    is c + d / k, monotone, so its infimum is its least value at a kink or
    its limit s ||f||_1 as k -> infinity, s the final slope."""
    knots = [(Fraction(t), Fraction(y)) for t, y in phi.knots]
    slopes = [(y1 - y0) / (t1 - t0) for (t0, y0), (t1, y1) in zip(knots, knots[1:])]
    pairs = [(abs(Fraction(v)), Fraction(model.haar[x])) for x, v in f.values]

    def value(t):
        i = min(sum(1 for u, _ in knots[1:] if u <= t), len(slopes) - 1)
        return knots[i][1] + slopes[i] * (t - knots[i][0])

    candidates = [slopes[-1] * sum(a * h for a, h in pairs)]
    for t, _ in knots[1:]:
        for a, _ in pairs:
            k = t / a
            candidates.append((1 + sum(value(k * b) * h for b, h in pairs)) / k)
    return min(candidates)


# The infimum-form search moved from a golden section on a grid of log k to
# a root search, so its bits moved: its value is compared within this.
RTOL_INFIMUM_FORM = 1e-12


def _assert_both_norms_match_the_frozen_copies(model, f, phi):
    """The gauge search gives the NormResult the plain loop gave, or raises
    where it raised; the infimum form gives its value within
    RTOL_INFIMUM_FORM, or raises where it raised.  Rows the float-range
    start and stop may move are left out.  Where only the frozen grid
    raises, because its objective or its bound k >= 1 / (2 N) passed the
    float range, a tabulated phi gives the exact infimum instead."""
    touched = []
    expected = _outcome(_frozen_luxemburg_norm, model, f, phi, touched)
    event(f"luxemburg_norm: {'moved' if touched else 'compared'}")
    if not touched:
        assert _outcome(hz.luxemburg_norm, model, f, phi) == expected
    touched = []
    expected = _outcome(_frozen_orlicz_norm, model, f, phi, touched)
    event(f"orlicz_norm: {'moved' if touched else 'compared'}")
    if touched:
        return
    found = _outcome(hz.orlicz_norm, model, f, phi)
    if expected is hz.NonFiniteIntegrand and found is not hz.NonFiniteIntegrand \
            and phi.kind == "tabulated":
        event("orlicz_norm: only the frozen grid raises")
        assert found.value == pytest.approx(
            float(_exact_tabulated_infimum(model, f, phi)), rel=1e-14, abs=0)
    elif expected is hz.NonFiniteIntegrand:
        assert found is hz.NonFiniteIntegrand
    else:
        assert found is not hz.NonFiniteIntegrand
        assert found.value == pytest.approx(expected.value, rel=RTOL_INFIMUM_FORM, abs=0)


@pytest.mark.seeded
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_norm_kernel_keeps_every_bit(all_models, data):
    model = all_models[data.draw(st.sampled_from(sorted(all_models)))]
    phi = _draw_young(data)
    f = _draw_function(data, model, _draw_scale(data, -320, 300))
    _assert_both_norms_match_the_frozen_copies(model, f, phi)


def _draw_full_range_function(data, model):
    """Up to five points of the carrier, the label of least Haar weight among
    them: the first at a peak m * 10^e, the rest at m' * 10^(e - d) for d up
    to 340 decades.  Each value is parsed from its digits, so only the float
    range decides where it underflows, not an intermediate power of ten."""
    least = min(model.carrier, key=lambda x: (model.haar[x], x))
    labels = data.draw(st.lists(st.sampled_from(model.carrier), min_size=1,
                                max_size=4, unique=True))
    if least not in labels:
        labels.append(least)
    mantissa = st.floats(min_value=1.0, max_value=10.0, exclude_max=True)
    e = data.draw(st.integers(min_value=-320, max_value=299))
    exponents = [e] + [e - data.draw(st.integers(min_value=0, max_value=340))
                       for _ in labels[1:]]
    signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=len(labels),
                               max_size=len(labels)))
    return hz.SparseFunction.from_dict(
        {x: s * float(f"{data.draw(mantissa)!r}e{u}")
         for x, s, u in zip(labels, signs, exponents)})


@pytest.mark.seeded
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_norm_kernel_keeps_every_bit_over_the_full_range(all_models, data):
    # As test_norm_kernel_keeps_every_bit, with values down to 340 decades
    # below the peak, so that the unit-peak shift underflows some of them to
    # 0 (and maybe the one of least Haar weight): the frozen copies drop
    # those points, and so must the searches.
    model = all_models[data.draw(st.sampled_from(sorted(all_models)))]
    phi = _draw_young(data)
    f = _draw_full_range_function(data, model)
    shift = -math.frexp(f.max_abs())[1]
    if any(math.ldexp(v, shift) == 0.0 for _, v in f.values):
        event("a value underflows under the unit shift")
    _assert_both_norms_match_the_frozen_copies(model, f, phi)


@pytest.mark.seeded
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tabulated_infimum_form_is_exact(all_models, data):
    # Under a tabulated phi of one to four pieces, at knot scales and data
    # over the float range, the infimum form is the exact infimum within
    # 1e-14, or two least subnormals below the normal range.  It raises only
    # where that rounds to 0, passes the largest float, or lies beyond the
    # largest float times max|f| (where the gauge norm raises too).  The grid
    # was up to 1.8e-12 off at |log k| >= 256, and raised where its bound
    # k >= 1 / (2 N) or its objective passed the float range.
    model = all_models[data.draw(st.sampled_from(sorted(all_models)))]
    knot = _draw_scale(data, -300, 300)
    slopes = sorted(data.draw(st.lists(st.integers(min_value=1, max_value=9),
                                       min_size=1, max_size=4)))
    heights = [0]
    for slope in slopes:
        heights.append(heights[-1] + slope)
    phi = hz.tabulated_young([(knot * i, float(y)) for i, y in enumerate(heights)])
    f = _draw_full_range_function(data, model)
    exact = _exact_tabulated_infimum(model, f, phi)
    found = _outcome(hz.orlicz_norm, model, f, phi)
    if found is hz.NonFiniteIntegrand:
        event("raises")
        largest = Fraction(sys.float_info.max)
        assert exact < Fraction(sys.float_info.min) or exact > largest \
            or exact > largest * Fraction(f.max_abs()), (exact, phi, f)
    else:
        event("subnormal" if found.value < sys.float_info.min else "normal")
        assert abs(Fraction(found.value) - exact) <= \
            exact * Fraction(1e-14) + 2 * Fraction(math.ulp(0.0)), (found, float(exact))


def test_infimum_form_limit_of_one_tiny_piece_on_a_heavy_support(dr03):
    # An example test_tabulated_infimum_form_is_exact drew.  On one piece
    # psi of the final slope is 0, but a scan over every knot read the
    # rounding of the last one, 4.4e-16, which the Haar mass 3.4e15 of
    # label 30 lifted past 1: the root search then ran on a dual modular
    # that is 0 everywhere, and raised.  The limit s ||f||_1 is the infimum.
    phi = hz.tabulated_young([(0.0, 0.0), (1.4999999999999999e-109, 3.0)])
    f = hz.SparseFunction.from_dict({0: -1.0, 30: -1.0})
    assert hz.complementary_eval(phi, orlicz._slope(phi, math.inf)) == 0.0
    exact = _exact_tabulated_infimum(dr03, f, phi)
    found = hz.orlicz_norm(dr03, f, phi)
    assert found.bracket == (math.inf, math.inf)
    assert abs(Fraction(found.value) - exact) <= exact * Fraction(1e-14)
    assert float(exact) == 6.799710049466415e124
    assert math.isclose(found.value, hz.luxemburg_norm(dr03, f, phi).value, rel_tol=1e-12)


def test_a_norm_call_builds_no_sparse_function(monkeypatch):
    # A norm call scales the values of f itself and copies f into no new
    # SparseFunction, at every peak, in the k -> infinity limit (phi_p(1),
    # knots at 1e150) and in the root search alike.
    model = hz.integer_group(8)
    functions = [hz.SparseFunction.from_dict({0: peak, 1: -0.5 * peak, 3: 1e-300 * peak})
                 for peak in (3.0, 1e200, 1e-200)]
    young = (hz.phi_p(1.0), hz.phi_p(2.5), hz.exp_minus_linear(), hz.cosh_minus_one(),
             hz.tabulated_young([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]),
             hz.tabulated_young([(0.0, 0.0), (1e150, 1.0), (2e150, 3.0)]))
    built = []
    post_init = hz.SparseFunction.__post_init__

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(hz.SparseFunction, "__post_init__", counted_post_init)
    for f in functions:
        for phi in young:
            _outcome(hz.luxemburg_norm, model, f, phi)
            _outcome(hz.orlicz_norm, model, f, phi)
            orlicz._gauge_exceeds(model, f, phi, f.max_abs())
    assert built == []


def test_gauge_search_starts_from_one_bisection_per_level(monkeypatch):
    # A work count, not a time.  The gauge search starts from
    # young_inverse(phi, 1 / least Haar weight), which is pure, so it is
    # searched once per (phi, level) and every norm keeps its bits.  On
    # su2 each support below holds 0, whose Haar weight 1 is the least.
    model = hz.su2(8)
    functions = [hz.SparseFunction.from_dict({x: 1.0 + x / 7.0 for x in range(k + 1)})
                 for k in range(4)]
    young = (hz.phi_p(2.5), hz.exp_minus_linear(),
             hz.tabulated_young([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]))
    fresh = []
    for phi in young:
        for f in functions:
            orlicz._STARTS.clear()
            fresh.append((hz.luxemburg_norm(model, f, phi), hz.orlicz_norm(model, f, phi)))
    levels = []
    inverse = orlicz.young_inverse

    def counted(phi, y):
        levels.append((phi, y))
        return inverse(phi, y)

    monkeypatch.setattr(orlicz, "young_inverse", counted)
    orlicz._STARTS.clear()
    for _ in range(3):
        again = [(hz.luxemburg_norm(model, f, phi), hz.orlicz_norm(model, f, phi))
                 for phi in young for f in functions]
        assert again == fresh
    assert levels == [(phi, 1.0) for phi in young]


class _CountedKnots(tuple):
    """A knots tuple that counts the calls to its hash."""

    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


def test_norm_calls_hash_no_knot_table():
    # The gauge search's start is memoised by the id of phi, so a norm call
    # hashes no knots tuple: a tuple hash is not cached, and with 10 000
    # knots a cache hit keyed on phi's value took longer than the bisection
    # it saved.
    knots = tuple((float(i), float(i * i)) for i in range(50))
    model = hz.su2(8)
    functions = [hz.SparseFunction.from_dict({x: 1.0 + x / 7.0 for x in range(k + 1)})
                 for k in range(4)]
    plain = hz.tabulated_young(knots)
    counted = hz.YoungFunction(kind="tabulated", knots=_CountedKnots(knots))
    expected = [(hz.luxemburg_norm(model, f, plain), hz.orlicz_norm(model, f, plain))
                for f in functions]
    _CountedKnots.hashes = 0
    for _ in range(2):
        found = [(hz.luxemburg_norm(model, f, counted), hz.orlicz_norm(model, f, counted))
                 for f in functions]
        assert found == expected
    assert _CountedKnots.hashes == 0


@pytest.mark.seeded
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_phi_p_norms_match_their_closed_forms(all_models, data):
    # Under phi_p both norms are closed forms in S = sum |f|^p h: the gauge
    # norm is N = (S/p)^(1/p), the infimum form q^(1/q) S^(1/p) with
    # q = p/(p-1), or S itself at p = 1.  The gauge search returns the upper
    # end of a bracket of relative width RTOL_NORM around N; the root
    # search lands within 1e-14 of the infimum form.  S is summed with the
    # peak M factored out, so M^p may leave the float range.
    model = all_models[data.draw(st.sampled_from(sorted(all_models)))]
    p = data.draw(st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=3.0)
                            .map(lambda e: 10.0**e)))
    labels = data.draw(st.lists(st.sampled_from(model.carrier), min_size=1,
                                max_size=6, unique=True))
    values = {x: data.draw(st.sampled_from((-1.0, 1.0)))
              * 10.0**data.draw(st.floats(min_value=-3.0, max_value=3.0))
              for x in labels}
    f = hz.SparseFunction.from_dict(values)
    peak = max(abs(v) for v in values.values())
    scaled = math.fsum((abs(v) / peak) ** p * model.haar[x] for x, v in values.items())
    gauge = peak * (scaled / p) ** (1.0 / p)
    if p == 1.0:
        infimum = peak * scaled
    else:
        q = p / (p - 1.0)
        infimum = q ** (1.0 / q) * peak * scaled ** (1.0 / p)
    ulps = 4 * sys.float_info.epsilon
    n = hz.luxemburg_norm(model, f, hz.phi_p(p)).value
    assert gauge * (1 - ulps) <= n <= gauge * (1 + RTOL_NORM) * (1 + ulps), (n, gauge)
    a = hz.orlicz_norm(model, f, hz.phi_p(p)).value
    assert abs(a - infimum) <= 1e-14 * infimum, (a, infimum)


ROOT_EXPONENTS = (1.0, 1.0 + 1e-12, 1.0 + 1e-6, 1.5, 2.0, 1023.9)


@functools.cache
def _root_models():
    """A model of each Haar family: supports up to 2 001 points on the
    integers and SU(2), Haar weights up to 6e301 on Dunkl-Ramirez at
    a = 0.013 and 5e300 at a = 1/2, and a Dunkl-Ramirez table whose Haar
    weights the table itself determines."""
    fam = hypergroups._DunklRamirez(0.25)
    table = hz.table_hypergroup(
        {(x, y): fam.raw_convolve(x, y) for x in range(13) for y in range(13)},
        {x: x for x in range(13)})
    return {"integers": hz.integer_group(1000), "su2": hz.su2(2000),
            "dr0.013": hz.dunkl_ramirez(0.013, 160), "dr0.5": hz.dunkl_ramirez(0.5, 1000),
            "table": table}


def _bits(outcome):
    """A NormResult as the hex of its floats, or the exception type."""
    if outcome is hz.NonFiniteIntegrand:
        return outcome
    lo, hi = outcome.bracket
    return outcome.value.hex(), outcome.iterations, lo.hex(), hi.hex()


@pytest.mark.seeded
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_phi_p_root_keeps_every_bit_of_the_plain_search(data):
    # A phi_p search step that reads the closed-form root instead of the
    # modular must decide as the modular does: both norms return the
    # NormResult of the search that evaluates every step, to the bit, or
    # raise where it raises.  Supports of up to 2 000 points carry values
    # spread over up to 340 decades below their peak.
    models = _root_models()
    name = data.draw(st.sampled_from(sorted(models)))
    model = models[name]
    phi = hz.phi_p(data.draw(st.one_of(st.sampled_from(ROOT_EXPONENTS),
                                       st.floats(min_value=1.0, max_value=1023.0))))
    size = data.draw(st.one_of(st.integers(1, 8), st.integers(1, 2000)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    labels = rng.sample(model.carrier, min(size, len(model.carrier)))
    peak = data.draw(st.integers(min_value=-320, max_value=299))
    spread = data.draw(st.integers(min_value=0, max_value=340))
    f = hz.SparseFunction.from_dict(
        {x: rng.choice((-1.0, 1.0))
         * float(f"{rng.uniform(1.0, 10.0)!r}e{peak - rng.randint(0, spread)}")
         for x in labels})
    shift = -math.frexp(f.max_abs())[1]
    pairs = orlicz._support(model, f, shift)
    for dual in (False, True):
        if pairs and not (dual and phi.p == 1.0):
            band = orlicz._power_band(pairs, phi, orlicz._modular_of(pairs, phi, dual))
            event(f"{name} {'dual ' if dual else ''}band: "
                  f"{'root' if band else 'every step evaluates'}")
    for search in (hz.luxemburg_norm, hz.orlicz_norm):
        found = _bits(_outcome(search, model, f, phi))
        with pytest.MonkeyPatch.context() as plain:
            plain.setattr(orlicz, "_power_band", lambda pairs, phi, modular: None)
            assert found == _bits(_outcome(search, model, f, phi)), search
