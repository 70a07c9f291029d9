"""Young functions, conjugates, and both Orlicz-type norms."""
import functools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperorlicz as hz
from hyperorlicz import orlicz
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
        assert res.converged and res.iterations < 400, exponent
        # phi_2 gives the l2 norm times sqrt(2); a subnormal peak keeps only
        # a few significant bits.
        exact = 2**0.5 * math.hypot(peak, f.value_at(2))
        rel = 1e-12 if peak > 1e-300 else 1e-3
        assert res.value == pytest.approx(exact, rel=rel, abs=0), exponent
        lo, hi = res.bracket
        assert 0.0 <= lo <= hi


def test_orlicz_norm_rescaling_keeps_the_bits_inside_the_scan_range():
    # Data rescaled by an exact power of two (peak 0.75) searched alone, and
    # at peaks where the search needs no rescaling, agree to the last bit.
    model = hz.su2(6)
    for phi in (hz.phi_p(1.5), hz.cosh_minus_one(), hz.exp_minus_linear()):
        f = hz.SparseFunction.from_dict({1: 0.75, 4: -0.25})
        base = hz.orlicz_norm(model, f, phi)
        for shift in (-1000, 1000):
            res = hz.orlicz_norm(model, hz.SparseFunction.from_dict(
                {x: math.ldexp(v, shift) for x, v in f.values}), phi)
            assert res.iterations == base.iterations
            assert res.value == math.ldexp(base.value, shift)


def test_orlicz_norm_finds_a_minimiser_left_of_its_grid():
    # The scan starts at k = 1e-9 / max|f|.  On a point of Haar mass m the
    # minimiser of (1 + m k^2 / 2) / k is k = sqrt(2 / m), left of that start
    # once m passes 2e18, and the norm is sqrt(2 m).  The search stopped at
    # the start and returned 4.5e14 for sqrt(2e24) = 1.41e12.
    model = hz.dunkl_ramirez(0.1, 24)
    for x in (20, 24):
        mass = model.haar[x]
        res = hz.orlicz_norm(model, hz.indicator([x]), hz.phi_p(2.0))
        assert res.converged
        assert res.value == pytest.approx(math.sqrt(2 * mass), rel=1e-12, abs=0), x
        # the bracket narrows to where float noise flattens the objective
        lo, hi = res.bracket
        assert hi < 1e-9
        assert lo == pytest.approx(math.sqrt(2 / mass), rel=1e-6)


def test_orlicz_norm_finds_a_minimiser_right_of_its_capped_grid():
    # With knots at 1e150 the objective (1 + phi(k)) / k falls to 2e-150 at
    # k = 1e150, far right of the scan's cap at k = 1e18; the bound
    # k >= 1 / (2 N), N = 1e-150 the gauge norm, reaches it.
    model = hz.integer_group(4)
    f = hz.indicator([0])
    phi = hz.tabulated_young([(0.0, 0.0), (1e150, 1.0), (2e150, 3.0)])
    res = hz.orlicz_norm(model, f, phi)
    assert res.converged
    assert res.value == pytest.approx(2e-150, rel=1e-12)
    gauge = hz.luxemburg_norm(model, f, phi).value
    assert gauge <= res.value <= 2 * gauge
    # phi_1 has its infimum at k -> infinity, so its scan ends at the cap
    # too; there 1 / (2 N) = 1/2 lies inside the grid, and the scan stays
    res = hz.orlicz_norm(model, f, hz.phi_p(1.0))
    assert (res.value, res.iterations) == (1.0, 186)


def test_orlicz_norm_extends_its_cap_with_the_gauge_norm():
    # On a point of mass m under knots (0, 0), (s, 1), (2 s, 3) the objective
    # is 1/k + m/s up to k = s, so the infimum is (1 + m) / s at k = s = 1e40.
    # With m = 9e7 the bound 1 / (2 N) = s / (2 m) lies inside the capped
    # grid, which ended near k = 1e33 and gave 1e-32 for 9e-33: the 1/k term
    # is negligible beside N only from about k = 1e18 / N on.
    model = hz.dunkl_ramirez(0.1, 24)
    phi = hz.tabulated_young([(0.0, 0.0), (1e40, 1.0), (2e40, 3.0)])
    for x in (4, 8, 12):
        mass = model.haar[x]
        res = hz.orlicz_norm(model, hz.indicator([x]), phi)
        assert res.converged
        assert res.value == pytest.approx((1 + mass) / 1e40, rel=1e-12, abs=0), x


def test_orlicz_norm_finds_a_minimiser_left_of_a_grid_flat_in_float():
    # Knots (0, 0), (s, 1), (2 s, 4) at s = 1e-25: the objective is 1/k + 1/s
    # below k = s and 3/s - 1/k above it, so the infimum is 2/s at k = s.  On
    # the first grid, k = 1e-9 .. 1e12, 1/k is below one ulp of 3/s, so the
    # grid is flat in float, its best point lay anywhere, and the search
    # returned 3/s with ``converged`` True.
    model = hz.integer_group(4)
    phi = hz.tabulated_young([(0.0, 0.0), (1e-25, 1.0), (2e-25, 4.0)])
    res = hz.orlicz_norm(model, hz.indicator([0]), phi)
    assert res.converged
    assert res.value == pytest.approx(2e25, rel=1e-12, abs=0)


def test_orlicz_norm_reports_a_search_stopped_at_its_cap(monkeypatch):
    model = hz.integer_group(4)
    f = hz.indicator([0])
    assert hz.orlicz_norm(model, f, hz.phi_p(2.0)).converged
    monkeypatch.setattr(orlicz, "_SCAN_CAP", 80)
    res = hz.orlicz_norm(model, f, hz.phi_p(2.0))
    assert not res.converged and res.iterations == 81
    assert res.value == pytest.approx(2**0.5, rel=1e-3)


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
    assert exp.via_finite_window
    quad = hz.l1_embedding_check(dr05, hz.phi_p(2.0))
    assert quad.holds and quad.via_finite_window


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
        k0 = min(fmax / young_inverse(phi, 1.0 / m_min), sys.float_info.max)
    except hz.NonFiniteIntegrand:
        k0 = fmax
    iters = 0

    def excess(k):
        return orlicz._modular(model, f, phi, 1.0 / k) > 1.0

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


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_norms_at_extreme_scales_are_sandwiched_or_named(all_models, data):
    # The float range is the only limit: each norm is positive and finite or
    # raises NonFiniteIntegrand, and N <= A <= 2N wherever both converged.
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
    if len(found) == 2 and all(res.converged for res in found):
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
        # Near log k = +-690 one ulp of log k exceeds the golden section's
        # stopping width, so the search may stop at its cap unconverged.
        infimum = hz.orlicz_norm(model, f, phi)
        assert infimum.value == pytest.approx(2 * norm, rel=1e-12, abs=0), knot
    phi = hz.tabulated_young([(0.0, 0.0), (1e200, 1.0), (2e200, 3.0)])
    f = hz.SparseFunction.from_dict({0: 1e-150})
    for search in (hz.luxemburg_norm, hz.orlicz_norm):
        with pytest.raises(hz.NonFiniteIntegrand):
            search(model, f, phi)
