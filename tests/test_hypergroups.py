"""Structure layer: convolution tables, involution, Haar weights, center."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperorlicz as hz
from hyperorlicz.hypergroups import AxiomViolation, is_point_mass_at, point_mass


def test_point_convolution_golden_values(dr05, su2m):
    # a = 0.5 kills the diagonal atom: delta_1 * delta_1 collapses to delta_0
    mu = dr05.convolve_points(1, 1)
    assert mu.atoms == ((0, 1.0),)
    # every-second-label support between |m-n| and m+n
    nu = su2m.convolve_points(1, 2)
    assert nu.support() == (1, 3)
    assert nu.value_at(1) == pytest.approx(1 / 3, abs=1e-15)
    assert nu.value_at(3) == pytest.approx(2 / 3, abs=1e-15)
    rho = su2m.convolve_points(1, 1)
    assert rho.value_at(0) == pytest.approx(1 / 4, abs=1e-15)
    assert rho.value_at(2) == pytest.approx(3 / 4, abs=1e-15)


def test_dr_general_a_diagonal_formula(dr03):
    # r = 2 at a = 0.3: masses a^2/(1-a), a^{2-1}, (1-2a)/(1-a)
    mu = dr03.convolve_points(2, 2)
    assert mu.value_at(0) == pytest.approx(0.09 / 0.7, rel=1e-14)
    assert mu.value_at(1) == pytest.approx(0.3, rel=1e-14)
    assert mu.value_at(2) == pytest.approx(0.4 / 0.7, rel=1e-14)
    assert mu.mass() == pytest.approx(1.0, abs=1e-12)


def test_off_diagonal_is_point_max(dr03):
    assert dr03.convolve_points(3, 7).atoms == ((7, 1.0),)
    assert dr03.convolve_points(7, 3).atoms == ((7, 1.0),)


def test_all_masses_are_probabilities(all_models):
    for model in all_models.values():
        for x in model.carrier:
            for y in model.carrier:
                mu = model.raw_convolve_points(x, y)
                assert abs(mu.mass() - 1.0) <= 1e-12, (x, y)


def test_identity_mass_vanishes_off_involution_pairs(dr05):
    # mass at the identity is positive exactly when y is the involution of x
    assert dr05.convolve_points(1, 2).value_at(0) == 0.0
    assert dr05.convolve_points(2, 2).value_at(0) > 0.0


def test_measure_convolution_bilinearity(dr05):
    mu = hz.SparseMeasure.from_dict({1: 0.5, 2: 0.5})
    out = dr05.convolve_measures(mu, point_mass(1))
    assert out.support() == (0, 2)
    assert out.value_at(0) == pytest.approx(0.5, abs=1e-15)
    assert out.value_at(2) == pytest.approx(0.5, abs=1e-15)


def test_set_convolution(su2m, dr05):
    assert su2m.set_convolve([1], [2]) == frozenset({1, 3})
    assert dr05.set_convolve([0, 1, 2], [3]) == frozenset({3})


def test_haar_weights_closed_forms(dr03, dr05, su2m, zline):
    assert dr05.haar[2] == pytest.approx(2.0, abs=1e-15)
    for n in su2m.carrier:
        assert su2m.haar[n] == float((n + 1) ** 2)  # exact, by Fraction arithmetic
    for r in range(1, 33):
        assert dr03.haar[r] == pytest.approx(0.7 / 0.3**r, rel=1e-12)
    assert all(zline.haar[x] == 1.0 for x in zline.carrier)


def test_haar_exact_fraction_backing(dr05):
    # a = 0.5 gives float-exact powers of two: m({r}) = (1-a)/a^r = 2^(r-1)
    assert dr05.haar[0] == 1.0
    for r in range(1, 33):
        assert dr05.haar[r] == float(Fraction(2) ** (r - 1))
    assert dr05.haar[10] == 512.0


def test_center_membership(all_models):
    assert all_models["dr03"].center_elements().members == (0,)
    assert all_models["dr05"].center_elements().members == (0, 1)
    assert all_models["su2"].center_elements().members == (0,)
    z = all_models["integers"]
    assert z.center_elements().members == tuple(range(-64, 65))
    # a label off the carrier is not central, and asking raises nothing
    assert not z.is_central(65) and not all_models["su2"].is_central(-1)


def test_haar_constant_on_center_orbits(dr05):
    # the norm-invariance argument needs equal weights along the orbit of 1
    assert dr05.haar[0] == dr05.haar[1] == 1.0


def test_point_product_center_action(dr05, zline):
    assert dr05.point_product(0, 1) == 1
    assert dr05.point_product(1, 1) == 0
    assert dr05.point_product(5, 1) == 5
    assert zline.point_product(3, -2) == 1
    with pytest.raises(hz.NotCentral):
        dr05.point_product(0, 2)


def test_window_overflow_raised(su2m, zline):
    with pytest.raises(hz.WindowOverflow):
        su2m.convolve_points(20, 20)
    with pytest.raises(hz.WindowOverflow):
        zline.convolve_points(40, 40)
    # raw access still exposes the untruncated measure
    raw = su2m.raw_convolve_points(20, 20)
    assert raw.support()[-1] == 40


def test_out_of_window_labels_rejected(dr03):
    with pytest.raises(ValueError):
        dr03.convolve_points(0, 33)
    with pytest.raises(ValueError):
        dr03.haar_weight(-1)


def test_axioms_pass_on_families(dr03, su2m):
    assert dr03.verify_axioms(12) == []
    assert su2m.verify_axioms(12) == []


def test_table_hypergroup_cyclic_group():
    conv = {(x, y): {(x + y) % 3: 1.0} for x in range(3) for y in range(3)}
    inv = {0: 0, 1: 2, 2: 1}
    model = hz.table_hypergroup(conv, inv)
    assert model.center_elements().members == (0, 1, 2)
    assert not model.is_central(3)
    assert model.haar == {0: 1.0, 1: 1.0, 2: 1.0}
    assert model.verify_axioms(3) == []
    assert model.point_product(1, 2) == 0


def test_verify_axioms_finds_an_involution_that_does_not_fold_back():
    # Z_3 with the involution 1 -> 2 -> 2.  Every row (x, x^-) keeps an
    # identity atom, so the Haar weights exist and only the axioms fail.
    conv = {(x, y): {(x + y) % 3: 1.0} for x in range(3) for y in range(3)}
    conv[(2, 2)] = {0: 1.0}
    model = hz.table_hypergroup(conv, {0: 0, 1: 2, 2: 2}, validate=False)
    found = model.verify_axioms(2)
    assert found[0] == AxiomViolation("involution", (1,),
                                      "involution of 1 does not fold back")
    assert [v for v in found if v.axiom == "involution"] == found[:1]


def test_verify_axioms_returns_a_fresh_list_per_call():
    # Z_3 with delta_1 * delta_1 moved onto the identity: findings to return
    conv = {(x, y): {(x + y) % 3: 1.0} for x in range(3) for y in range(3)}
    conv[(1, 1)] = {0: 1.0}
    model = hz.table_hypergroup(conv, {0: 0, 1: 2, 2: 1}, validate=False)
    first, second = model.verify_axioms(2), model.verify_axioms(2)
    assert first == second != []
    first.clear()
    assert model.verify_axioms(2) == second != []


def test_table_hypergroup_rejects_bad_mass():
    conv = {(x, y): {(x + y) % 2: 0.5} for x in range(2) for y in range(2)}
    with pytest.raises(ValueError):
        hz.table_hypergroup(conv, {0: 0, 1: 1})


def test_table_hypergroup_rejects_broken_identity():
    # delta_1 * delta_1 misses the identity although 1 is its own involution
    conv = {(0, 0): {0: 1.0}, (0, 1): {1: 1.0}, (1, 0): {1: 1.0},
            (1, 1): {1: 1.0}}
    with pytest.raises(ValueError):
        hz.table_hypergroup(conv, {0: 0, 1: 1})


def test_table_hypergroup_requires_exact_support_reversal():
    # delta_1 * delta_0 keeps a stray identity atom below the axiom
    # tolerances, yet delta_0 * delta_0 has no atom at 1.  Translation reads
    # preimages from the latter, so validation refuses the table.
    conv = {(0, 0): {0: 1.0}, (0, 1): {1: 1.0},
            (1, 0): {0: 1e-13, 1: 1.0 - 1e-13}, (1, 1): {0: 1.0}}
    diagnostic = hz.table_hypergroup(conv, {0: 0, 1: 1}, validate=False)
    assert diagnostic.verify_axioms(1) == []
    with pytest.raises(ValueError, match="support-reversal law: row \\(1,0\\)"):
        hz.table_hypergroup(conv, {0: 0, 1: 1})


def test_haar_weights_equal_the_rounded_exact_reciprocal():
    # The Haar weight is 1 / (delta_x * delta_{x^-})({e}) rounded once; the
    # float forms (1.0, (x+1)^2, 1.0 / v) must give the bits of that exact
    # reciprocal taken in rational arithmetic.
    for window in (1, 7, 60):
        model = hz.integer_group(window)
        assert all(model.haar[x] == float(1 / Fraction(1)) for x in model.carrier)
    for window in (1, 16, 300):
        model = hz.su2(window)
        assert all(model.haar[x] == float(1 / Fraction(1, (x + 1) ** 2))
                   for x in model.carrier)
    for a, window in ((0.5, 40), (0.3, 20), (0.1, 200), (0.45, 500)):
        model = hz.dunkl_ramirez(a, window)
        q = Fraction(a)
        assert all(model.haar[x] == float(1 / (q**x / (1 - q)) if x else 1)
                   for x in model.carrier)
    # The two-point hypergroup delta_1 * delta_1 = q delta_0 + (1 - q) delta_1.
    for q in (0.3, 0.7, 1 / 3, 0.123456789, 1e-5):
        conv = {(0, 0): {0: 1.0}, (0, 1): {1: 1.0}, (1, 0): {1: 1.0},
                (1, 1): {0: q, 1: 1.0 - q}}
        model = hz.table_hypergroup(conv, {0: 0, 1: 1})
        assert model.haar == {0: 1.0, 1: float(1 / Fraction(q))}


def test_table_haar_weight_beyond_float_range_is_named():
    # The table's row names it, as a plain ValueError: a table's window
    # selects no labels, so the scenario parser must not place it there.
    conv = {(0, 0): {0: 1.0}, (0, 1): {1: 1.0}, (1, 0): {1: 1.0},
            (1, 1): {0: 1e-310, 1: 1.0}}
    with pytest.raises(ValueError, match=r"table row \(1,1\) ") as err:
        hz.table_hypergroup(conv, {0: 0, 1: 1}, validate=False)
    assert not isinstance(err.value, hz.NonFiniteValue)


def test_haar_weight_beyond_float_range_is_named():
    # (1 - a) / a^x at a = 0.3 passes the largest float at x = 590.
    assert math.isfinite(hz.dunkl_ramirez(0.3, 589).haar[589])
    with pytest.raises(hz.NonFiniteValue, match="label 590 "):
        hz.dunkl_ramirez(0.3, 590)


def test_sparse_measure_validation():
    with pytest.raises(ValueError):
        hz.SparseMeasure(((0, -0.5),))
    mu = hz.SparseMeasure.from_dict({3: 0.25, 1: 0.75})
    assert mu.support() == (1, 3)
    assert mu.mass() == 1.0
    assert is_point_mass_at(point_mass(4), 4)


def test_translate_reach_guards(dr03, su2m, zline):
    assert dr03.translate_reach_ok([30], 30)
    assert su2m.translate_reach_ok([10], 22)
    assert not su2m.translate_reach_ok([10], 23)
    assert zline.translate_reach_ok([-60], -4)
    assert not zline.translate_reach_ok([-60], 5)
    # A table's carrier may skip labels; translating by one is refused, as
    # translate refuses it.
    conv = {(x, y): {(x + y) % 15: 1.0} for x in (0, 5, 10) for y in (0, 5, 10)}
    table = hz.table_hypergroup(conv, {0: 0, 5: 10, 10: 5})
    assert table.translate_reach_ok([1, 5], 10)
    with pytest.raises(ValueError, match="label 1 lies outside"):
        table.translate_reach_ok([5], 1)


@settings(max_examples=15, deadline=None)
@given(a=st.floats(min_value=0.05, max_value=0.5),
       r=st.integers(min_value=0, max_value=8),
       s=st.integers(min_value=0, max_value=8))
def test_dr_family_axioms_hold_for_random_a(a, r, s):
    model = hz.dunkl_ramirez(a, 8)
    mu = model.raw_convolve_points(r, s)
    assert abs(mu.mass() - 1.0) <= 1e-12
    assert model.verify_axioms(4) == []


@settings(max_examples=25, deadline=None)
@given(x=st.integers(min_value=0, max_value=20),
       y=st.integers(min_value=0, max_value=20))
def test_su2_adjoint_symmetry(su2m, x, y):
    # hermitian involution: the adjoint law reduces to commutativity
    a = su2m.raw_convolve_points(x, y)
    b = su2m.raw_convolve_points(y, x)
    assert a.atoms == b.atoms
