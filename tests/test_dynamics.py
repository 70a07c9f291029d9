"""Horizon-bounded dynamics checks: aperiodicity, criterion probes,
witnesses, orbit scans."""
import math

import pytest

import hyperorlicz as hz
from hyperorlicz import dynamics
from hyperorlicz.dynamics import AperiodicityVerdict, CriterionReport, CriterionRow


def test_integer_translates_first_index(zline):
    eta = hz.center_powers(zline, 1)
    verdict = hz.aperiodic_sequence_check(zline, eta, range(-2, 3), horizon=16)
    # E + n meets E exactly when |n| <= 4
    assert verdict.holds_at_horizon and verdict.first_n == 5
    assert [n for n, _ in verdict.counterexamples] == [1, 2, 3, 4]


def test_integer_pairwise_first_index(zline):
    eta = hz.center_powers(zline, 1)
    verdict = hz.strongly_aperiodic_check(zline, eta, range(-2, 3), horizon=16,
                                          rs_bound=3)
    assert verdict.holds_at_horizon and verdict.first_n == 5


def test_dr_table_sequence_first_index(dr05):
    # a = 0.5 collapses the small diagonal convolutions, so translating
    # E = {0,1,2} by the labels 1 and 2 lands back inside E; 3 separates.
    eta = hz.eta_from_table(dr05, {n: n for n in range(1, 17)})
    verdict = hz.aperiodic_sequence_check(dr05, eta, [0, 1, 2], horizon=16)
    assert verdict.holds_at_horizon and verdict.first_n == 3
    assert dict(verdict.counterexamples)[1] == (0, 1, 2)


def test_su2_table_sequence_first_index(su2m):
    eta = hz.eta_from_table(su2m, {n: n for n in range(1, 17)})
    verdict = hz.aperiodic_sequence_check(su2m, eta, [0, 1], horizon=16)
    assert verdict.holds_at_horizon and verdict.first_n == 3


def test_su2_constant_sequence_fails(su2m):
    eta = hz.eta_from_table(su2m, {n: 1 for n in range(1, 65)})
    verdict = hz.aperiodic_sequence_check(su2m, eta, [0, 1], horizon=64)
    assert not verdict.holds_at_horizon and verdict.first_n is None
    assert len(verdict.counterexamples) == 64
    strong = hz.strongly_aperiodic_check(su2m, eta, [0, 1], horizon=64,
                                         rs_bound=3)
    assert not strong.holds_at_horizon


def test_center_periodic_element_fails(dr05):
    # z = 1 squares to the identity, so even shifts bring E back onto itself
    rep = hz.aperiodic_center_check(dr05, 1, [0, 1], horizon=16, rs_bound=3)
    assert not rep.direct.holds_at_horizon
    assert not rep.pairwise.holds_at_horizon
    assert rep.agree
    # E * {z^n} returns the set itself at every index: odd shifts swap 0 and 1
    assert [n for n, _ in rep.direct.counterexamples] == list(range(1, 17))


def test_center_shift_holds(zline):
    rep = hz.aperiodic_center_check(zline, 1, [0], horizon=12, rs_bound=3)
    assert rep.direct.holds_at_horizon and rep.direct.first_n == 1
    assert rep.agree


def test_center_pairwise_check_skips_translates_off_the_window():
    # E = {8} in -10..10: at every n some multiple r n with |r| <= 3 takes 8
    # off the window and no translates overlap, so each index is skipped
    rep = hz.aperiodic_center_check(hz.integer_group(10), 1, [8], 8, 3)
    assert rep.pairwise.inconclusive == tuple(range(1, 9))
    assert rep.pairwise.counterexamples == ()
    assert not rep.pairwise.holds_at_horizon
    assert rep.direct.inconclusive == tuple(range(3, 9))


def test_center_check_translates_each_index_once(monkeypatch):
    # The direct and pairwise readings share one memo of E's translates, so
    # each index r n (|r| <= 3, within the horizon) is translated once, and
    # E is checked once.  The pairwise reading kept its own memo and redid
    # the direct reading's 12 translates.
    model = hz.integer_group(64)
    points = []
    convolve = hz.HypergroupModel.set_convolve

    def counted(self, a, b):
        points.extend(b)
        return convolve(self, a, b)

    monkeypatch.setattr(hz.HypergroupModel, "set_convolve", counted)
    checked = []
    require = dynamics._require_set
    monkeypatch.setattr(dynamics, "_require_set",
                        lambda m, e: checked.append(e) or require(m, e))
    rep = hz.aperiodic_center_check(model, 1, [0], horizon=12, rs_bound=3)
    assert rep.direct.holds_at_horizon and rep.pairwise.holds_at_horizon
    assert sorted(points) == list(range(-12, 13))
    assert len(checked) == 1


def test_verdict_dataclass_validation():
    with pytest.raises(ValueError):
        AperiodicityVerdict(holds_at_horizon=True, first_n=None, horizon=8,
                            counterexamples=())
    with pytest.raises(ValueError):
        CriterionReport(criterion="x", verdict="fails", horizon=4,
                        convention=hz.DEFAULT_CONVENTION,
                        rows=(CriterionRow(1, 3, (), 0.0, ()),
                              CriterionRow(2, 2, (), 0.0, ())))


def test_zero_goal_needs_a_zero_final_row():
    # A falling residual vanishes, but the zero goal also needs it to end at 0.
    def rows(residuals):
        return [CriterionRow(k, k, (), 1.0, (("residual_norm", r),))
                for k, r in enumerate(residuals, start=1)]

    falling = rows([0.8, 0.6, 0.4, 0.2])
    assert dynamics._verdict(falling, False, ("residual_norm",)) == "holds_empirically"
    assert dynamics._verdict(falling, False, (), ("residual_norm",)) == "fails"
    assert dynamics._verdict(rows([0.8, 0.4, 0.0, 0.0]), False, (),
                             ("residual_norm",)) == "holds_empirically"


def test_center_probe_tracked_values_exact(zline, doubling_weight):
    eta = hz.center_powers(zline, 1)
    report = hz.probe_center_conditions(zline, doubling_weight, eta,
                                        hz.phi_p(2.0), [0], horizon=20)
    assert report.verdict == "holds_empirically"
    assert report.certification == "densely hypercyclic certified at horizon 20"
    for row in report.rows:
        assert row.metric("sup_reciprocal") == 2.0**-row.n
        assert row.metric("sup_shifted") == 2.0**-row.n
        assert row.metric("residual_norm") == 0.0
        assert row.measure_ratio == 1.0


def test_center_probe_constant_weights_fail(zline):
    eta = hz.center_powers(zline, 1)
    for c in (1.0, 2.0, 0.5):
        report = hz.probe_center_conditions(zline, hz.constant_weight(c), eta,
                                            hz.phi_p(2.0), [0], horizon=16)
        assert report.verdict == "fails", c


def test_center_probe_requires_center_powers(su2m):
    eta = hz.eta_from_table(su2m, {n: n for n in range(1, 9)})
    with pytest.raises(hz.PreconditionFailed) as err:
        hz.probe_center_conditions(su2m, hz.constant_weight(1.0), eta,
                                   hz.phi_p(2.0), [0], horizon=8)
    assert err.value.hypothesis == "central-sequence"


def test_center_probe_periodic_element_precondition(dr05):
    eta = hz.center_powers(dr05, 1)
    with pytest.raises(hz.PreconditionFailed) as err:
        hz.probe_center_conditions(dr05, hz.constant_weight(1.0), eta,
                                   hz.phi_p(2.0), [0, 1], horizon=8)
    assert err.value.hypothesis == "center-aperiodicity"


def test_sup_probe_holds_and_fails(zline, doubling_weight):
    eta = hz.center_powers(zline, 1)
    good = hz.probe_sup_necessary(zline, doubling_weight, eta, [0], horizon=20)
    assert good.verdict == "holds_empirically"
    for row in good.rows:
        assert row.metric("sup_profile") == 2.0**-row.n
    flat = hz.probe_sup_necessary(zline, hz.constant_weight(1.0), eta,
                                  [0], horizon=20)
    assert flat.verdict == "fails"


def test_series_probe_tail_bound(zline, doubling_weight):
    eta = hz.center_powers(zline, 1)
    report = hz.probe_series_necessary(zline, doubling_weight, eta,
                                       [0], horizon=10, series_cutoff=5)
    assert report.verdict == "holds_empirically"
    for row in report.rows:
        assert not row.flags
        bound = 2.0 * 2.0**-row.n / (1.0 - 2.0**-row.n)
        assert row.metric("combined") <= bound + 1e-12
    last = report.rows[-1]
    assert last.n == 10
    assert last.metric("combined") <= 2.0 * 2.0**-10 / (1 - 2.0**-10)


def test_series_probe_constant_weight_fails(zline):
    eta = hz.center_powers(zline, 1)
    report = hz.probe_series_necessary(zline, hz.constant_weight(1.0), eta,
                                       [0], horizon=8, series_cutoff=5)
    assert report.verdict == "fails"
    # every term contributes the full set mass, twice per step
    assert report.rows[0].metric("combined") == pytest.approx(10.0, rel=1e-12)


def test_series_probe_flags_truncation(zline, doubling_weight):
    eta = hz.center_powers(zline, 1)
    report = hz.probe_series_necessary(zline, doubling_weight, eta,
                                       [0], horizon=24, series_cutoff=40)
    assert any("series-truncated" in row.flags for row in report.rows)
    assert report.verdict == "inconclusive"


def test_series_probe_flags_a_sum_that_overflows():
    # Two steps of weight 1e-160 give the product 1e-320, and haar / 1e-320
    # is inf without raising: row n = 1 had an infinite sum and no flag.
    model = hz.integer_group(200)
    report = hz.probe_series_necessary(model, hz.step_weight(0, 1e-160, 1e-160),
                                       hz.center_powers(model, 1), [0],
                                       horizon=16, series_cutoff=2)
    first = report.rows[0]
    assert (first.n, first.metric("combined")) == (1, math.inf)
    assert first.flags == ("non-finite",)
    assert all(row.flags == ("non-finite",) for row in report.rows)
    assert report.verdict == "inconclusive"


def test_hereditary_probe_golden(zline, doubling_weight):
    report = hz.probe_hereditary(zline, 1, doubling_weight, hz.phi_p(2.0),
                                 [0], horizon=20)
    assert report.verdict == "holds_empirically"
    for row in report.rows:
        assert row.metric("sup_forward") == 2.0**-row.n
        assert row.metric("sup_backward") == 2.0**-row.n


def test_hereditary_probe_preconditions(zline, dr03):
    with pytest.raises(hz.PreconditionFailed) as err:
        hz.probe_hereditary(zline, 1, hz.constant_weight(1.0),
                            hz.cosh_minus_one(), [0], horizon=8)
    assert err.value.hypothesis == "doubling-regularity"
    with pytest.raises(hz.PreconditionFailed) as err2:
        hz.probe_hereditary(dr03, 1, hz.constant_weight(1.0), hz.phi_p(2.0),
                            [0], horizon=8)
    assert err2.value.hypothesis == "central-element"


def test_hereditary_probe_constant_weights_fail(zline):
    for c in (1.0, 2.0, 0.5):
        report = hz.probe_hereditary(zline, 1, hz.constant_weight(c),
                                     hz.phi_p(2.0), [0], horizon=12)
        assert report.verdict == "fails", c


def test_witness_errors_golden(zline, doubling_weight):
    chi0 = hz.indicator([0])
    report = hz.build_transitivity_witness(zline, chi0, chi0, doubling_weight,
                                           hz.center_powers(zline, 1),
                                           hz.phi_p(2.0), k_max=20, horizon=20)
    assert report.eventually_decreasing
    for row in report.rows:
        expected = 2.0**-row.n / math.sqrt(2.0)
        assert row.err_source == pytest.approx(expected, rel=1e-9)
        assert row.err_target == pytest.approx(expected, rel=1e-9)
    assert report.final_witness.value_at(0) == 1.0
    assert report.final_witness.value_at(-20) == 2.0**-20


def test_witness_flat_weight_precondition(zline):
    chi0 = hz.indicator([0])
    with pytest.raises(hz.PreconditionFailed):
        hz.build_transitivity_witness(zline, chi0, chi0,
                                      hz.constant_weight(1.0),
                                      hz.center_powers(zline, 1),
                                      hz.phi_p(2.0), k_max=8, horizon=16)


def test_center_indices_need_both_translates_in_the_window(zline, doubling_weight):
    # Powers of 1 move E = {-60} right through the window, so the gate holds,
    # but its backward translates leave the window after n = 4.
    for report in (hz.probe_hereditary(zline, 1, doubling_weight, hz.phi_p(2.0),
                                       [-60], horizon=10),
                   hz.probe_center_conditions(zline, doubling_weight,
                                              hz.center_powers(zline, 1),
                                              hz.phi_p(2.0), [-60], horizon=10)):
        assert [row.n for row in report.rows] == [1, 2, 3, 4]


def test_no_separating_index_fails_the_aperiodicity_precondition(zline, doubling_weight):
    eta = hz.center_powers(zline, 1)
    phi2 = hz.phi_p(2.0)
    # E = -20..20 meets each of its translates by 1..16.
    with pytest.raises(hz.PreconditionFailed) as err:
        hz.probe_sup_necessary(zline, doubling_weight, eta, range(-20, 21), horizon=16)
    assert err.value.hypothesis == "aperiodicity"
    # E = {-64}: the forward translates pass the gate, but every backward
    # translate leaves the window.
    for probe in (lambda: hz.probe_center_conditions(zline, doubling_weight, eta,
                                                     phi2, [-64], horizon=16),
                  lambda: hz.probe_hereditary(zline, 1, doubling_weight, phi2,
                                              [-64], horizon=16)):
        with pytest.raises(hz.PreconditionFailed) as err:
            probe()
        assert err.value.hypothesis == "aperiodicity"


def _center_calls(zline, dr03, dr05, su2m, doubling_weight):
    """The center, hereditary and witness calls of the tests above, each as
    its report or as the hypothesis of the precondition it failed."""
    eta = hz.center_powers(zline, 1)
    phi2 = hz.phi_p(2.0)
    one = hz.constant_weight(1.0)
    chi0 = hz.indicator([0])
    flat = (1.0, 2.0, 0.5)
    calls = [
        lambda: hz.probe_center_conditions(zline, doubling_weight, eta, phi2, [0],
                                           horizon=20),
        *(lambda c=c: hz.probe_center_conditions(zline, hz.constant_weight(c), eta,
                                                 phi2, [0], horizon=16)
          for c in flat),
        lambda: hz.probe_center_conditions(
            su2m, one, hz.eta_from_table(su2m, {n: n for n in range(1, 9)}), phi2,
            [0], horizon=8),
        lambda: hz.probe_center_conditions(dr05, one, hz.center_powers(dr05, 1),
                                           phi2, [0, 1], horizon=8),
        lambda: hz.probe_hereditary(zline, 1, doubling_weight, phi2, [0], horizon=20),
        lambda: hz.probe_hereditary(zline, 1, one, hz.cosh_minus_one(), [0],
                                    horizon=8),
        lambda: hz.probe_hereditary(dr03, 1, one, phi2, [0], horizon=8),
        *(lambda c=c: hz.probe_hereditary(zline, 1, hz.constant_weight(c), phi2,
                                          [0], horizon=12)
          for c in flat),
        lambda: hz.build_transitivity_witness(zline, chi0, chi0, doubling_weight,
                                              eta, phi2, k_max=20, horizon=20),
        lambda: hz.build_transitivity_witness(zline, chi0, chi0, one, eta, phi2,
                                              k_max=8, horizon=16),
    ]
    out = []
    for call in calls:
        try:
            out.append(call())
        except hz.PreconditionFailed as exc:
            out.append(exc.hypothesis)
    return out


def test_center_probes_need_no_pairwise_check(monkeypatch, zline, dr03, dr05,
                                              su2m, doubling_weight):
    # The center gate and the separating indices come from one forward and
    # one backward overlap pass; the pairwise checks are never consulted.
    models = (zline, dr03, dr05, su2m, doubling_weight)
    before = _center_calls(*models)
    assert before[4:6] == ["central-sequence", "center-aperiodicity"]

    def refuse(*args, **kwargs):
        raise AssertionError("the center probes must not run this check")

    monkeypatch.setattr(dynamics, "aperiodic_center_check", refuse)
    monkeypatch.setattr(dynamics, "strongly_aperiodic_check", refuse)
    assert _center_calls(*models) == before


def test_short_horizon_is_inconclusive(zline, doubling_weight):
    eta = hz.center_powers(zline, 1)
    report = hz.probe_sup_necessary(zline, doubling_weight, eta,
                                    [0], horizon=3)
    assert report.verdict == "inconclusive"


def test_sup_probe_flags_rows_past_the_window():
    # The profile at n translates {1} twice by n, which reaches the label
    # 2n + 1: outside the window {0..40} from n = 20.  n = 2 is skipped,
    # as 1 * 2 meets {1}.
    su2 = hz.su2(40)
    eta = hz.eta_from_table(su2, {n: n for n in range(1, 31)})
    report = hz.probe_sup_necessary(su2, hz.constant_weight(1.0), eta, [1],
                                    horizon=30)
    assert report.verdict == "inconclusive"
    assert [(r.k, r.n) for r in report.rows] == list(
        enumerate([1] + list(range(3, 31)), start=1))
    sups = [0.5, 0.125, 0.08000000000000002, 0.05555555555555556]
    for row in report.rows:
        if row.n < 20:
            inside = row.k <= len(sups)
            assert row.members == ((1,) if inside else ())
            assert row.measure_ratio == (1.0 if inside else 0.0)
            assert row.metrics == (
                ("sup_profile", sups[row.k - 1] if inside else 0.0),
                ("eps", 2.0**-row.k))
            assert row.flags == ()
        else:
            assert row.members == () and row.measure_ratio == 0.0
            assert row.flags == ("window-overflow",)
            [(name, value)] = row.metrics
            assert name == "sup_profile" and math.isnan(value)


def test_orbit_probe_reaches_target(zline, doubling_weight):
    eta = hz.center_powers(zline, 1)
    witness = hz.SparseFunction.from_dict({0: 1.0, -10: 2.0**-10})
    results = hz.orbit_density_probe(zline, witness, doubling_weight, eta,
                                     [hz.indicator([0])], horizon=12,
                                     phi=hz.phi_p(2.0))
    res = results[0]
    assert res.best_error <= 2.0**-10 / math.sqrt(2.0) * (1 + 1e-9)
    assert res.best_n in (0, 10)
    assert res.skipped == ()


def test_orbit_probe_flat_weight_stays_away(zline):
    eta = hz.center_powers(zline, 1)
    results = hz.orbit_density_probe(zline, hz.indicator([0]),
                                     hz.constant_weight(1.0), eta,
                                     [hz.indicator([0]).scale(2.0)],
                                     horizon=12, phi=hz.phi_p(2.0))
    # translates keep the gauge norm, so no orbit point approaches 2*chi_0
    assert results[0].best_error == pytest.approx(2**-0.5, rel=1e-9)
    assert results[0].best_n == 0


def test_periodic_point_detection(dr05, zline, doubling_weight):
    eta = hz.center_powers(dr05, 1)
    f = hz.indicator([0, 1])
    assert hz.periodic_point_check(dr05, f, hz.constant_weight(1.0), eta,
                                   hz.phi_p(2.0), n=2, r_max=4, tol=1e-12)
    zeta = hz.center_powers(zline, 1)
    assert not hz.periodic_point_check(zline, hz.indicator([0]),
                                       doubling_weight, zeta, hz.phi_p(2.0),
                                       n=1, r_max=2, tol=1e-9)
