"""Horizon-bounded dynamics checks: aperiodicity, criterion probes,
witnesses, orbit scans."""
import collections
import math
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hyperorlicz as hz
from hyperorlicz import cli, dynamics, operators, scenario
from hyperorlicz.dynamics import AperiodicityVerdict, CriterionReport, CriterionRow
from hyperorlicz.report import render_records

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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


def test_multiplier_bound_below_one_is_rejected():
    # E = {0, 1} meets E + 1, which the multipliers 0 and 1 find at n = 1.
    # A bound below 1 leaves no pair to test, so every index passed, and the
    # series probe built rows from n = 1.
    model = hz.integer_group(32)
    eta = hz.center_powers(model, 1)
    found = hz.strongly_aperiodic_check(model, eta, [0, 1], 8, 1)
    assert (found.first_n, found.counterexamples) == (2, ((1, (0, 1)),))
    w = hz.step_weight(0, 2.0, 0.5)
    for bound in (0, -2):
        for check in (lambda: hz.strongly_aperiodic_check(model, eta, [0, 1], 8, bound),
                      lambda: hz.aperiodic_center_check(model, 1, [0, 1], 8, bound),
                      lambda: hz.probe_series_necessary(model, w, eta, [0, 1], 8, 2,
                                                        rs_bound=bound),
                      # before any other check: E is empty here
                      lambda: hz.strongly_aperiodic_check(model, eta, [], 8, bound),
                      lambda: hz.aperiodic_center_check(model, 1, [], 8, bound)):
            with pytest.raises(ValueError, match="rs_bound"):
                check()
    # Other counts below their range: with no series term every row's sum
    # is 0.0, so a cutoff below 1 read as holding; a negative k_max sliced
    # rows off the end of the center report, and a negative orbit horizon
    # reported a best step it never computed.  Each raises ValueError; an
    # orbit horizon of 0 scans f itself.
    model = hz.integer_group(64)
    eta = hz.center_powers(model, 1)
    w = hz.step_weight(0, 0.5, 2.0)
    assert hz.probe_series_necessary(model, w, eta, [0], 20, 1).verdict == "fails"
    for cutoff in (0, -3):
        with pytest.raises(ValueError, match="series_cutoff"):
            hz.probe_series_necessary(model, w, eta, [0], 20, cutoff)
    sc = hz.load_scenario(str(SCENARIO_DIR / "doubling_shift.yaml"))
    f, g, target = (sc.functions[k] for k in ("f", "g", "target"))
    for k_max in (0, -3):
        with pytest.raises(ValueError, match="k_max"):
            hz.build_transitivity_witness(sc.model, f, g, sc.weight, sc.eta, sc.phi,
                                          k_max, sc.run.horizon)
    with pytest.raises(ValueError, match="horizon"):
        hz.orbit_density_probe(sc.model, f, sc.weight, sc.eta, [target], -2, sc.phi)
    (found,) = hz.orbit_density_probe(sc.model, f, sc.weight, sc.eta, [target], 0,
                                      sc.phi)
    assert found.best_n == 0 and math.isfinite(found.best_error)


def _window_translates(model, eta, e):
    """idx -> E translated by eta(idx), None off the window."""
    def translated(idx):
        try:
            return model.set_convolve(e, [eta(idx)])
        except hz.WindowOverflow:
            return None
    return translated


def _pair_loop_overlaps(translated, horizon, rs_bound):
    """The pairwise overlaps as the loop over pairs of multipliers r < s,
    kept as the reference: each pair within the horizon is intersected, and
    an index with a translate off the window and no overlap is skipped."""
    overlaps = {}
    for n in range(1, horizon + 1):
        overlap, skipped = set(), False
        for r in range(-rs_bound, rs_bound + 1):
            for s in range(r + 1, rs_bound + 1):
                if abs(r * n) > horizon or abs(s * n) > horizon:
                    continue
                a, b = translated(r * n), translated(s * n)
                if a is None or b is None:
                    skipped = True
                    continue
                overlap |= a & b
        overlaps[n] = None if skipped and not overlap else overlap
    return overlaps


@pytest.mark.seeded
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pairwise_checks_match_the_pair_loop(data):
    # Each multiplied translate is read once, and the overlap is the labels
    # seen in two of them: the verdicts are the pair loop's for every bound
    # from 1, with translates leaving the window (None) included.
    kind = data.draw(st.sampled_from(("integers", "dunkl_ramirez", "su2")))
    if kind == "integers":  # sets and steps near 0 pass in many examples
        model = hz.integer_group(data.draw(st.integers(6, 24)))
        labels = st.integers(-3, 3)
        z = data.draw(st.one_of(st.sampled_from((1, -1, 2, 3)),
                                st.sampled_from(model.center_elements().members)))
    elif kind == "dunkl_ramirez":
        model = hz.dunkl_ramirez(data.draw(st.sampled_from((0.3, 0.5))),
                                 data.draw(st.integers(4, 16)))
    else:
        model = hz.su2(data.draw(st.integers(4, 16)))
    if kind != "integers":
        labels = st.sampled_from(model.carrier)
    e = data.draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    horizon = data.draw(st.integers(1, 16))
    rs_bound = data.draw(st.integers(1, 4))
    if kind == "integers" or data.draw(st.booleans()):
        if kind != "integers":
            z = data.draw(st.sampled_from(model.center_elements().members))
        eta = hz.center_powers(model, z)
    else:  # a table that may stop short of the horizon
        z = None
        eta = hz.eta_from_table(model, data.draw(st.dictionaries(
            st.integers(1, horizon), labels, min_size=1)))
    translated = _window_translates(model, eta, e)
    pairwise = dynamics._tail_verdict(
        horizon, _pair_loop_overlaps(translated, horizon, rs_bound))
    assert hz.strongly_aperiodic_check(model, eta, e, horizon, rs_bound) == pairwise
    event(f"{kind}: holds {pairwise.holds_at_horizon}, "
          f"skipped {bool(pairwise.inconclusive)}")
    if z is None:
        return
    direct = dynamics._tail_verdict(horizon, {
        n: None if translated(n) is None else set(e) & translated(n)
        for n in range(1, horizon + 1)})
    assert hz.aperiodic_center_check(model, z, e, horizon, rs_bound) == (
        direct, pairwise, direct.holds_at_horizon == pairwise.holds_at_horizon)


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


def _cyclic_group(labels):
    """A validated Cayley table of the cyclic group on the given labels."""
    n = len(labels)
    conv = {(labels[i], labels[j]): {labels[(i + j) % n]: 1.0}
            for i in range(n) for j in range(n)}
    involution = {labels[i]: labels[-i % n] for i in range(n)}
    return hz.table_hypergroup(conv, involution, identity=labels[0])


def _reference_center_rows(model, w, z, e, horizon):
    """The sublevel rows over the shifted and the reciprocal weight products
    at each good index, built from the operators alone: the failing
    precondition, or per row (k, n, flag) where it is flagged and else (k,
    n, members, ratio, sup of the shifted, sup of the reciprocal, eps)."""
    e = tuple(sorted(e))
    eta = hz.center_powers(model, z)
    translated = _window_translates(model, eta, e)

    def disjoint(idx):
        shifted = translated(idx)
        return shifted is not None and not set(e) & shifted

    if not disjoint(horizon):
        return "center-aperiodicity"
    good = [n for n in range(1, horizon + 1) if disjoint(n) and disjoint(-n)]
    if not good:
        return "aperiodicity"
    rows = []
    for k, n in enumerate(good, start=1):
        eps = 2.0**-k
        try:  # the reciprocal products first, as the probes compute them
            reciprocal = [1.0 / hz.weight_product(model, w, eta, x, n) for x in e]
            shifted = [hz.shifted_weight_product(model, w, eta, x, n) for x in e]
        except hz.WindowOverflow:
            rows.append((k, n, "window-overflow"))
            continue
        except (hz.NonFiniteValue, ZeroDivisionError):
            rows.append((k, n, "non-finite"))
            continue
        if not all(map(math.isfinite, reciprocal + shifted)):
            rows.append((k, n, "non-finite"))
            continue
        inside = [i for i in range(len(e)) if max(shifted[i], reciprocal[i]) <= eps]
        members = tuple(e[i] for i in inside)
        rows.append((k, n, members,
                     hz.measure_of_set(model, members) / hz.measure_of_set(model, e),
                     max((shifted[i] for i in inside), default=0.0),
                     max((reciprocal[i] for i in inside), default=0.0), eps))
    return rows


@pytest.mark.seeded
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_center_and_hereditary_track_one_pair(data):
    # Both probes track the shifted and the reciprocal products along powers
    # of z, and the hereditary probe reads the center report, so each row of
    # either is the reference row, flags included, whichever probe ran
    # first; the ratio goal of the one meets exactly when the residual goal
    # of the other does.  With E next to the window's edges along powers of
    # 1 on the integers, the last rows read products at the edge and the
    # columns end there; a good index keeps E z^n, E z^-n and z^n in the
    # window, so no row can be flagged window-overflow on a group.
    kind = data.draw(st.sampled_from(("integers", "integers-edge", "table",
                                      "dunkl_ramirez")))
    if kind.startswith("integers"):
        model = hz.integer_group(data.draw(st.integers(12, 40)))
    elif kind == "table":
        model = _cyclic_group(data.draw(st.lists(st.integers(-16, 16), min_size=2,
                                                 max_size=9, unique=True)))
    else:
        model = hz.dunkl_ramirez(0.5, data.draw(st.integers(2, 24)))
    central = st.sampled_from(model.center_elements().members)
    labels, top = model.carrier, model.window
    if kind == "integers":  # small steps near the threshold give many rows
        central = st.one_of(st.sampled_from((1, 2)), central)
        labels = range(-4, 5)
        top = (model.window - 4) // 2
    elif kind == "integers-edge":
        top = data.draw(st.integers(4, 8))
        labels = (-model.window + top, 0, model.window - top)
        central = st.sampled_from((1, -1))
    z = data.draw(central)
    level = st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0, 1e-160, 1e160))
    form = data.draw(st.sampled_from(("step", "geometric", "table")))
    if form == "step":
        low, high = data.draw(level), data.draw(level)
        if data.draw(st.booleans()):  # a falling step, hypercyclic along 1
            low, high = max(low, high), min(low, high)
        w = hz.step_weight(data.draw(st.integers(-4, 4)), low, high)
    elif form == "geometric":
        w = hz.geometric_weight(data.draw(level), data.draw(st.floats(0.25, 4.0)))
    else:
        w = hz.table_weight(data.draw(st.dictionaries(st.sampled_from(model.carrier),
                                                      level, max_size=6)),
                            default=data.draw(level))
    e = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3,
                           unique=True))
    horizon = data.draw(st.integers(4, max(4, top)))
    phi = hz.phi_p(2.0)

    def run(probe):
        try:
            return probe()
        except hz.PreconditionFailed as exc:
            return exc.hypothesis

    # The hereditary probe alone computes the center report; after the
    # center probe on the same weight it reads the kept one.
    alone = run(lambda: hz.probe_hereditary(model, z, w._replace(), phi, e, horizon))
    center = run(lambda: hz.probe_center_conditions(
        model, w, hz.center_powers(model, z), phi, e, horizon))
    hereditary = run(lambda: hz.probe_hereditary(model, z, w, phi, e, horizon))
    expected = _reference_center_rows(model, w._replace(), z, e, horizon)
    assert alone == hereditary
    if isinstance(expected, str):
        assert hereditary == center == expected
        event(f"{kind}: precondition {expected}")
        return
    assert hereditary.verdict == center.verdict
    event(f"{kind}: {center.verdict}")
    assert len(hereditary.rows) == len(center.rows) == len(expected)
    for her, cen, ref in zip(hereditary.rows, center.rows, expected):
        if kind == "integers-edge" and max(map(abs, e)) + ref[1] == model.window:
            event("integers-edge: a row at the window edge")
        if len(ref) == 3:
            k, n, flag = ref
            event(f"flag {flag}")
            assert not (model.group and flag == "window-overflow")
            for row, name in ((her, "sup_forward"), (cen, "residual_norm")):
                assert (row.k, row.n, row.members, row.measure_ratio, row.flags) == (
                    k, n, (), 0.0, (flag,))
                assert [key for key, _ in row.metrics] == [name]
                assert math.isnan(row.metric(name))
            continue
        k, n, members, ratio, shifted, reciprocal, eps = ref
        assert her == CriterionRow(k, n, members, ratio,
                                   (("sup_forward", shifted),
                                    ("sup_backward", reciprocal), ("eps", eps)))
        assert (cen.k, cen.n, cen.members, cen.measure_ratio, cen.flags) == (
            k, n, members, ratio, ())
        assert cen.metrics[1:] == (("sup_reciprocal", reciprocal),
                                   ("sup_shifted", shifted), ("eps", eps))
        assert [v.hex() for _, v in cen.metrics[1:]] == [
            v.hex() for v in (reciprocal, shifted, eps)]


def test_runs_end_at_the_window_edge_and_the_next_step_raises():
    # Along powers of 1 on integer_group(20) with E = {0, 14}, the center
    # probe's last row, n = 6, reads the shifted product at 20, the window
    # edge.  Past the edge the orbit reader falls back to the per-step call,
    # which raises WindowOverflow, so the series probe's multiplied steps
    # from 7 on truncate its rows.  Neither probe reads the orbit of 1 past
    # the window edge, though the series probe's last step is 24.
    model = hz.integer_group(20)
    eta = hz.center_powers(model, 1)
    w = hz.step_weight(0, 4.0, 0.25)
    convention = hz.DEFAULT_CONVENTION
    where = w._memo["orbits", model, 1]

    def last_point():  # the highest point any orbit state of 1 holds
        return max(orbit[0][3] for orbit, _ in where.values())

    report = hz.probe_center_conditions(model, w, eta, hz.phi_p(2.0), (0, 14), 6)
    assert [(row.n, row.flags) for row in report.rows] == [(n, ()) for n in range(1, 7)]
    assert last_point() == 20
    fresh = hz.step_weight(0, 4.0, 0.25)
    read = operators._orbit_products(model, w, eta, (0, 14), 7, convention)
    for n in range(7):
        assert [v.hex() for v in read(n, True)] == [
            hz.shifted_weight_product(model, fresh, eta, x, n).hex() for x in (0, 14)]
    with pytest.raises(hz.WindowOverflow):
        hz.shifted_weight_product(model, fresh, eta, 14, 7)
    with pytest.raises(hz.WindowOverflow):
        read(7, True)
    series = hz.probe_series_necessary(model, w, eta, (0, 14), 6, 4)
    assert [(row.n, row.flags) for row in series.rows] == [(1, ())] + [
        (n, ("series-truncated",)) for n in range(2, 7)]
    assert last_point() == 20


def test_hereditary_after_center_reads_the_kept_report(monkeypatch):
    # After the center probe of a session, the hereditary probe on the same
    # set multiplies no weight product and computes no gauge norm: its rows
    # are the kept center rows relabelled, and its body is the one a session
    # running it alone prints.
    def session():
        return hz.load_scenario(str(SCENARIO_DIR / "doubling_shift.yaml"))

    alone = cli.run_command(session(), "probe", {"id": "hereditary"}, 0)
    sc = session()
    assert cli.run_command(sc, "probe", {"id": "center"}, 0)[1] == 0
    calls = collections.Counter()
    for module, name in ((dynamics, "weight_product"),
                         (dynamics, "luxemburg_norm"),
                         (operators, "weight_product"),
                         (operators, "shifted_weight_product"),
                         (dynamics, "_orbit_products"),
                         (operators, "_cocycle"),
                         (operators, "_orbit_span")):
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert cli.run_command(sc, "probe", {"id": "hereditary"}, 0) == alone
    assert alone[1] == 0
    assert calls == {}


def _frozen_sup_necessary_values(model, w, eta, e, n, convention, read):
    """The sup-vanishing profile at E through both translates, the path
    every sequence took before powers of a center element read the shifted
    product, kept as the oracle; the probe's orbit reader goes unused."""
    pulled = hz.translate(model, hz.indicator(e), eta(-n))
    weighted = hz.SparseFunction.from_dict(
        {x: tv * hz.weight_product(model, w, eta, x, n, convention)
         for x, tv in pulled.values})
    profile = hz.translate(model, weighted, eta(n))
    return [profile.value_at(x) for x in e]


def _report_bits(probe):
    """A report's verdict and rows with every float as its hex, or the
    failing precondition."""
    try:
        report = probe()
    except hz.PreconditionFailed as exc:
        return exc.hypothesis
    return report.verdict, [
        (row.k, row.n, row.members, row.measure_ratio.hex(),
         tuple((name, v.hex()) for name, v in row.metrics), row.flags)
        for row in report.rows]


@pytest.mark.seeded
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sup_necessary_values_along_center_powers_match_the_translate_path(data):
    # Along powers of a center element both translates of the sup-vanishing
    # profile are relabellings with mass 1.0, so the shifted product gives
    # the same rows, flags included, up to horizons past the window edge.
    # The integers come up twice as often: their preconditions fail least.
    kind = data.draw(st.sampled_from(("integers", "integers", "table", "dunkl_ramirez")))
    if kind == "integers":
        model = hz.integer_group(data.draw(st.integers(8, 24)))
        labels = range(-4, 5)
    elif kind == "table":
        model = _cyclic_group(data.draw(st.lists(st.integers(-16, 16), min_size=2,
                                                 max_size=9, unique=True)))
        labels = model.carrier
    else:
        model = hz.dunkl_ramirez(0.5, data.draw(st.integers(2, 24)))
        labels = model.carrier
    central = st.sampled_from(model.center_elements().members)
    if kind == "integers":  # small steps reach the window edge in many rows
        central = st.one_of(st.sampled_from((1, -1, 2)), central)
    z = data.draw(central)
    level = st.sampled_from((0.25, 0.5, 2.0, 4.0, 1e-160, 1e160))
    form = data.draw(st.sampled_from(("step", "geometric", "table")))
    if form == "step":
        fields = dict(form="step", threshold=data.draw(st.integers(-4, 4)),
                      low=data.draw(level), high=data.draw(level))
    elif form == "geometric":
        fields = dict(form="geometric", base=data.draw(level),
                      ratio=data.draw(st.floats(0.25, 4.0)))
    else:
        fields = dict(form="table", default=data.draw(level), entries=tuple(sorted(
            data.draw(st.dictionaries(st.sampled_from(model.carrier), level,
                                      max_size=6)).items())))
    e = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3,
                           unique=True))
    horizon = data.draw(st.one_of(st.integers(2, model.window + 2),
                                  st.integers(max(2, model.window // 2), model.window + 2)))
    cutoff = data.draw(st.integers(1, 3))
    probes = (
        lambda w, eta: hz.probe_sup_necessary(model, w, eta, e, horizon),
        lambda w, eta: hz.probe_series_necessary(model, w, eta, e, horizon, cutoff))
    for probe in probes:
        # A fresh weight and sequence per side, so neither reads the
        # other's memo.
        def fresh():
            return _report_bits(lambda: probe(hz.Weight(**fields), hz.center_powers(model, z)))

        found = fresh()
        with pytest.MonkeyPatch.context() as frozen:
            frozen.setattr(dynamics, "_sup_necessary_values", _frozen_sup_necessary_values)
            assert found == fresh()
        if isinstance(found, str):
            event(f"{kind}: precondition {found}")
            continue
        event(f"{kind}: {found[0]}")
        for flag in {f for *_, flags in found[1] for f in flags}:
            event(f"a row flagged {flag}")


def test_center_and_hereditary_keep_one_orbit_cache():
    # The hereditary pair reads the center probe's orbits: the weight keeps
    # no walk of its own along an orbit.  Besides the orbits it keeps only
    # the center probe's report, which the hereditary probe reads; the
    # probes slice their products from the orbits and store none.
    sc = hz.load_scenario(str(SCENARIO_DIR / "doubling_shift.yaml"))
    for probe in ("center", "hereditary"):
        _, code = cli.run_command(sc, "probe", {"id": probe}, 0)
        assert code == 0, probe
    kinds = sorted(key[0] for key in sc.weight._memo)
    assert "orbit" not in kinds
    assert kinds == ["orbits", "reports"]


def test_center_report_is_kept_per_session():
    # A repeated call returns the stored report.  The witness reads the
    # report of its support union: computed once for a union no probe has
    # seen, kept for the next witness, never another set's.  A call that
    # raises keeps nothing.
    model = hz.integer_group(64)
    w = hz.step_weight(0, 2.0, 0.5)
    eta, phi = hz.center_powers(model, 1), hz.phi_p(2.0)
    first = hz.probe_center_conditions(model, w, eta, phi, [0, 1], 20)
    assert first.verdict == "fails"
    again = hz.probe_center_conditions(model, w, hz.center_powers(model, 1), phi,
                                       (1, 0), 20)
    assert again is first
    assert again == hz.probe_center_conditions(model, hz.step_weight(0, 2.0, 0.5),
                                               eta, phi, [0, 1], 20)
    reports = w._memo["reports", model, 1]
    assert list(reports) == [(phi, (0, 1), 20, hz.DEFAULT_CONVENTION)]

    chi = hz.indicator([0])
    witness = hz.build_transitivity_witness(model, chi, chi, w, eta, phi,
                                            k_max=8, horizon=20)
    assert list(reports) == [(phi, (0, 1), 20, hz.DEFAULT_CONVENTION),
                             (phi, (0,), 20, hz.DEFAULT_CONVENTION)]
    kept = reports[phi, (0,), 20, hz.DEFAULT_CONVENTION]
    assert kept.verdict == "holds_empirically"
    assert hz.probe_center_conditions(model, w, eta, phi, [0], 20) is kept
    fresh = hz.build_transitivity_witness(model, chi, chi, hz.step_weight(0, 2.0, 0.5),
                                          eta, phi, k_max=8, horizon=20)
    assert witness == fresh
    assert hz.build_transitivity_witness(model, chi, chi, w, eta, phi,
                                         k_max=8, horizon=20) == fresh
    assert len(reports) == 2

    with pytest.raises(hz.PreconditionFailed):
        hz.probe_center_conditions(model, w, eta, phi, [0], 0)
    assert len(reports) == 2


def _outcome(fn, *args, **kwargs):
    """repr of a call's result, so floats compare by their bits, or the type
    of what it raised."""
    try:
        return repr(fn(*args, **kwargs))
    except (hz.PreconditionFailed, hz.WindowOverflow, ValueError) as exc:
        return type(exc)


@pytest.mark.seeded
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_kept_center_reports_match_fresh_ones(data):
    # Probes and witnesses in any order on one weight give what each gives
    # on a fresh weight: a stored report serves only its own (phi, E,
    # horizon, convention).
    model = hz.integer_group(24)
    w = hz.step_weight(data.draw(st.integers(-2, 2)), 2.0, data.draw(
        st.sampled_from((0.25, 0.5, 1.0))))
    eta = hz.center_powers(model, 1)
    # Few choices of each, so that calls share some keys and not others.
    labels = st.sampled_from(([0], [1], [0, 1]))
    for _ in range(6):
        phi = hz.phi_p(data.draw(st.sampled_from((1.5, 2.0))))
        horizon = data.draw(st.sampled_from((4, 8, 12)))
        convention = data.draw(st.sampled_from(tuple(hz.ProductConvention)))
        fresh = w._replace()
        if data.draw(st.booleans()):
            e = data.draw(labels)
            assert (_outcome(hz.probe_center_conditions, model, w, eta, phi, e,
                             horizon, convention)
                    == _outcome(hz.probe_center_conditions, model, fresh, eta, phi,
                                e, horizon, convention))
        else:
            f = hz.indicator(data.draw(labels))
            g = hz.indicator(data.draw(labels))
            assert (_outcome(hz.build_transitivity_witness, model, f, g, w, eta, phi,
                             8, horizon, convention)
                    == _outcome(hz.build_transitivity_witness, model, f, g, fresh, eta,
                                phi, 8, horizon, convention))


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


def _unpruned_orbit(model, f, w, eta, targets, horizon, phi,
                    convention=hz.DEFAULT_CONVENTION):
    """The orbit scan without its skip: a full gauge search per candidate,
    each step from its own call of the operator."""
    orbit = []
    for n in range(horizon + 1):
        try:
            orbit.append((n, hz.apply_weighted_translation(model, f, w, eta, n,
                                                           convention)))
        except (hz.WindowOverflow, hz.NonFiniteValue):
            orbit.append((n, None))
    results = []
    for idx, g in enumerate(targets):
        best_n, best_err, skipped = 0, math.inf, []
        for n, point in orbit:
            if point is None:
                skipped.append(n)
                continue
            err = hz.luxemburg_norm(model, point - g, phi).value
            if err < best_err:
                best_n, best_err = n, err
        results.append(hz.OrbitResult(idx, best_n, best_err, tuple(skipped)))
    return tuple(results)


def _both_scans(model, f, w, eta, targets, horizon, phi,
                convention=hz.DEFAULT_CONVENTION):
    """(pruned, unpruned) results, each the NonFiniteIntegrand type where
    that scan raised it."""
    found = []
    for scan in (hz.orbit_density_probe, _unpruned_orbit):
        try:
            found.append(scan(model, f, w, eta, targets, horizon, phi, convention))
        except hz.NonFiniteIntegrand:
            found.append(hz.NonFiniteIntegrand)
    return found


def _counting_norms(monkeypatch):
    calls = []
    search = dynamics.luxemburg_norm

    def counted(model, f, phi):
        calls.append(f)
        return search(model, f, phi)

    monkeypatch.setattr(dynamics, "luxemburg_norm", counted)
    return calls


def test_orbit_pruning_keeps_the_result_at_zero_and_subnormal_errors(zline, monkeypatch):
    eta = hz.center_powers(zline, 1)
    phi = hz.phi_p(2.0)
    one = hz.constant_weight(1.0)
    f = hz.SparseFunction.from_dict({0: 3e-310, 1: -1e-310})
    # f itself is hit at n = 0 with error 0.0: every later candidate is
    # skipped after one modular evaluation, where 1 / 0 would have raised.
    # Its step-5 image is hit exactly at n = 5; the last two targets are
    # off by subnormal amounts everywhere.
    targets = [f, hz.apply_weighted_translation(zline, f, one, eta, 5), f.scale(1.5),
               hz.SparseFunction.from_dict({4: 2e-310, 5: -3e-310, 6: 5e-324})]
    pruned, unpruned = _both_scans(zline, f, one, eta, targets, 40, phi)
    assert pruned == unpruned
    assert [r.best_n for r in pruned[:2]] == [0, 5]
    assert [r.best_error for r in pruned[:2]] == [0.0, 0.0]
    assert 0.0 < pruned[3].best_error < sys.float_info.min
    calls = _counting_norms(monkeypatch)
    hz.orbit_density_probe(zline, f, one, eta, [f], 40, phi)
    assert len(calls) == 1


def test_orbit_pruning_keeps_window_overflow_skips(zline):
    eta = hz.center_powers(zline, 1)
    f = hz.SparseFunction.from_dict({50: 1.0, 52: 0.5})
    targets = [hz.indicator([60]), hz.indicator([-3]).scale(1e-300)]
    pruned, unpruned = _both_scans(zline, f, hz.step_weight(55, 2.0, 0.5), eta,
                                   targets, 20, hz.cosh_minus_one())
    assert pruned == unpruned
    assert pruned[0].skipped == tuple(range(13, 21))


def test_orbit_scan_relabels_only_a_step_known_to_be_the_operator(zline):
    # The scan relabels step n into step n + 1 only where that is the
    # operator's step.  On integer_group(8), f = {-5: 1.0} stays in the
    # window past n = 8, but z^-9 leaves it, so every step from 9 is
    # skipped.  f = {0: 5e-324} loses its one point at n = 1, where the
    # product underflows to 0.0, and 0.0 times w(2) = inf is NaN, so every
    # step from 2 is skipped, though relabelling the empty step 1 would
    # give an empty step 2.
    model = hz.integer_group(8)
    eta = hz.center_powers(model, 1)
    for f, w, skipped in (
            ({-5: 1.0}, hz.step_weight(0, 2.0, 0.5), range(9, 13)),
            ({0: 5e-324}, hz.geometric_weight(1e-320, 1e300), range(2, 13))):
        f = hz.SparseFunction.from_dict(f)
        pruned, unpruned = _both_scans(model, f, w, eta, [hz.indicator([1])], 12,
                                       hz.phi_p(2.0))
        assert pruned == unpruned
        assert pruned[0].skipped == tuple(skipped)


def test_orbit_pruning_makes_fewer_norm_searches(zline, doubling_weight, monkeypatch):
    eta = hz.center_powers(zline, 1)
    witness = hz.SparseFunction.from_dict({0: 1.0, -10: 2.0**-10})
    args = (zline, witness, doubling_weight, eta, [hz.indicator([0])], 24, hz.phi_p(2.0))
    calls = _counting_norms(monkeypatch)
    assert hz.orbit_density_probe(*args) == _unpruned_orbit(*args)
    # The full scan searches all 25 candidates, n = 0..24; the pruned one
    # only the two that improve on the best so far, n = 0 and n = 10.
    assert len(calls) == 2


ORBIT_YOUNG = (hz.phi_p(1.0), hz.phi_p(2.5), hz.phi_p(1e6), hz.exp_minus_linear(),
               hz.cosh_minus_one(),
               hz.tabulated_young([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]),
               hz.tabulated_young([(0.0, 0.0), (1e-200, 1.0), (2e-200, 4.0)]))


@pytest.mark.seeded
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_orbit_pruning_matches_the_unpruned_scan(zline, dr05, data):
    # The skip never changes a result.  A skipped candidate whose own search
    # would raise NonFiniteIntegrand no longer ends the scan, so where the
    # full scan raises, the pruned one may return.  On a group (the
    # integers, a relabelled cyclic table) the pruned scan relabels each
    # step from the one before, and the full one calls the operator.
    kind = data.draw(st.sampled_from(("integers", "dunkl_ramirez", "table")))
    if kind == "table":
        model = _cyclic_group(data.draw(st.lists(st.integers(-16, 16), min_size=2,
                                                 max_size=9, unique=True)))
        eta = hz.center_powers(model, data.draw(st.sampled_from(model.carrier)))
    else:
        model = zline if kind == "integers" else dr05
        eta = hz.center_powers(model, 1)
    convention = data.draw(st.sampled_from(tuple(hz.ProductConvention)))
    level = st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0, 1e-160, 1e160))
    w = hz.step_weight(data.draw(st.integers(-3, 3)), data.draw(level), data.draw(level))
    phi = data.draw(st.sampled_from(ORBIT_YOUNG))
    labels = [x for x in model.carrier if abs(x) <= 40]
    if kind == "integers" and data.draw(st.booleans()):  # steps leave the window
        labels = [x for x in model.carrier if x >= model.window - 12]
    scale = 10.0 ** data.draw(st.integers(-320, 300))

    def function():
        points = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4,
                                    unique=True))
        return hz.SparseFunction.from_dict(
            {x: scale * data.draw(st.floats(0.1, 10.0)) for x in points})

    f = function()
    targets = [function() for _ in range(data.draw(st.integers(1, 3)))]
    horizon = data.draw(st.integers(0, 30))
    if data.draw(st.booleans()):  # a target on the orbit
        try:
            targets.append(hz.apply_weighted_translation(
                model, f, w, eta, data.draw(st.integers(0, horizon)), convention))
        except (hz.WindowOverflow, hz.NonFiniteValue):
            pass
    pruned, unpruned = _both_scans(model, f, w, eta, targets, horizon, phi, convention)
    if unpruned is hz.NonFiniteIntegrand:
        event("the full scan raised")
        return
    assert pruned == unpruned
    for res in pruned:
        event("zero error" if res.best_error == 0.0 else
              "subnormal error" if res.best_error < sys.float_info.min else "normal error")
        if res.skipped:
            event(f"{kind}: skipped steps")


# -- one session against fresh loads ----------------------------------------

SESSION_COMMANDS = tuple(("probe", {"id": pid}) for pid in cli.PROBES) + (
    ("witness", {}), ("orbit", {}), ("aperiodic", {}), ("norm", {}))

LEVELS = (0.25, 0.5, 2.0, 4.0, 1e-160, 1e160)


@st.composite
def session_docs(draw):
    """A scenario for every session command: the integers, a cyclic Cayley
    table (validated at load) and Dunkl-Ramirez along powers of a center
    element, or SU(2) (Dunkl-Ramirez too) along a table sequence.  Horizons
    and series reach past the window or the table, and weights reach past
    the float range, so rows are flagged ``window-overflow``,
    ``series-truncated`` and ``non-finite``.  Half the integer scenarios
    are doubling shifts on one point, where the center probe can hold and
    the witness is built."""
    family = draw(st.sampled_from(("integers", "table", "dunkl_ramirez", "su2")))
    window = draw(st.integers(3, 12))
    conventions = ("iterate_exclusive", "inclusive")
    weight = None
    if family == "integers":
        window *= 2
        hypergroup = {"family": "integers", "window": window}
        labels = list(range(-window, window + 1))
        near = list(range(-3, 4))
        if draw(st.booleans()):
            near = [draw(st.sampled_from(near))]
            weight = {"form": "step", "threshold": near[0],
                      "low": draw(st.sampled_from((2.0, 4.0))),
                      "high": draw(st.sampled_from((0.5, 0.25)))}
            conventions = conventions[:1]
    elif family == "table":
        hypergroup = {"family": "table", "window": window, "identity": 0,
                      "involution": {i: -i % window for i in range(window)},
                      "table": [[i, j, {(i + j) % window: 1.0}]
                                for i in range(window) for j in range(window)]}
        labels = near = list(range(window))
    else:
        hypergroup = {"family": family, "window": window}
        if family == "dunkl_ramirez":
            hypergroup["a"] = 0.5
        labels = near = list(range(window + 1))
    if family == "su2" or (family == "dunkl_ramirez" and draw(st.booleans())):
        horizon = draw(st.integers(1, window + 4))
        eta = {"generator": "table", "entries": {
            n: draw(st.sampled_from(labels)) for n in range(1, horizon + 1)}}
    else:
        z = draw({"integers": st.sampled_from((1, -1, 2)) if weight is None else st.just(1),
                  "table": st.integers(1, window - 1),
                  "dunkl_ramirez": st.just(1)}[family])
        # Powers on the integers must stay in the window up to the horizon;
        # the others cycle.
        reach = window // abs(z) if family == "integers" else 2 * window + 4
        # A verdict other than inconclusive needs four rows.
        horizon = draw(st.integers(1 if weight is None else 4, reach))
        eta = {"generator": "center_powers", "z": z}
    if weight is None:
        form = draw(st.sampled_from(("step", "geometric", "table")))
        if form == "step":
            weight = {"form": "step", "threshold": draw(st.integers(-2, 2)),
                      "low": draw(st.sampled_from(LEVELS)),
                      "high": draw(st.sampled_from(LEVELS))}
        elif form == "geometric":
            weight = {"form": "geometric",
                      "base": draw(st.sampled_from((0.5, 1.0, 2.0))),
                      "ratio": draw(st.sampled_from((0.5, 0.9, 2.0, 1e10)))}
        else:
            weight = {"form": "table", "default": draw(st.sampled_from(LEVELS)),
                      "entries": {x: draw(st.sampled_from(LEVELS)) for x in draw(
                          st.lists(st.sampled_from(labels), max_size=6, unique=True))}}

    def points():
        return draw(st.lists(st.sampled_from(near), min_size=1, max_size=3,
                             unique=True))

    def function():
        return {x: draw(st.sampled_from((0.25, 0.5, 1.0, 1.5))) for x in points()}

    return {
        "id": "session",
        "hypergroup": hypergroup,
        "young": draw(st.sampled_from(({"kind": "phi_p", "p": 1.0},
                                       {"kind": "phi_p", "p": 2.0},
                                       {"kind": "phi_p", "p": 3.0},
                                       {"kind": "cosh_minus_one"}))),
        "weight": weight,
        "eta": eta,
        "sets": {"E": points()},
        "functions": {"f": function(), "g": function(), "target": function()},
        "run": {"horizon": horizon, "k_max": draw(st.integers(1, 8)),
                "series_cutoff": draw(st.integers(1, 4)),
                "rs_bound": draw(st.integers(1, 3)),
                "convention": draw(st.sampled_from(conventions))},
    }


def _command_outcome(sc, command, opts):
    """(exit code, rendered body) of a command, or the type it raised."""
    try:
        records, code = cli.run_command(sc, command, opts, 0)
    except Exception as exc:
        return type(exc)
    return code, render_records(command, sc.scenario_id, records).split("\n", 1)[1]


@pytest.mark.seeded
@settings(max_examples=100, deadline=None)
@given(session_docs(), st.permutations(SESSION_COMMANDS))
def test_one_session_matches_fresh_sessions(doc, order):
    # The memos a session shares (weight products, translates of E) must
    # not change a bit of any command, whatever ran before it.
    sc = scenario.parse_scenario(doc)
    for command, opts in order:
        got = _command_outcome(sc, command, opts)
        assert got == _command_outcome(scenario.parse_scenario(doc), command, opts), \
            (command, opts)
        label = f"{command}:{opts.get('id', '')}".rstrip(":")
        if isinstance(got, type):
            event(f"{label} raised {got.__name__}")
            continue
        event(f"{label} exit {got[0]}")
        for flag in ("window-overflow", "series-truncated", "non-finite"):
            if flag in got[1]:
                event(f"a row flagged {flag}")


@pytest.mark.seeded
def test_one_session_computes_each_translate_and_product_once(monkeypatch):
    # Over a session set_convolve runs at most once per (E, point), and each
    # weight product weight_product stores (the witness's right inverse
    # reads them) is stored once per (x, factor count), so it was computed
    # once.  The probes slice their own products from the orbits and store
    # none, so only the translates, the label values, the orbits and those
    # products are shared.
    convolved = collections.Counter()
    set_convolve = hz.HypergroupModel.set_convolve

    def counted_convolve(self, a, b):
        convolved[tuple(a), tuple(b)] += 1
        return set_convolve(self, a, b)

    stored = collections.Counter()

    class Products(dict):
        def __setitem__(self, key, value):
            stored[key] += 1
            super().__setitem__(key, value)

    class Memo(collections.defaultdict):
        def __missing__(self, key):
            kind = Products if key[0] == "products" else dict
            entry = self[key] = kind()
            return entry

    monkeypatch.setattr(hz.HypergroupModel, "set_convolve", counted_convolve)
    sc = hz.load_scenario(str(SCENARIO_DIR / "doubling_shift.yaml"))
    sc.weight.__dict__["_memo"] = Memo()
    for command, opts in SESSION_COMMANDS:
        assert cli.run_command(sc, command, opts, 0)[1] == 0, (command, opts)
    assert convolved and set(convolved.values()) == {1}
    assert stored and set(stored.values()) == {1}
    for memo, entries in sc.weight._memo.items():
        if memo[0] == "products":
            assert set(entries) <= set(stored)
