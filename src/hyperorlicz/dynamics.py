"""Horizon-bounded empirical checks of translation-dynamics criteria.

Everything here is finite evidence, never a proof: a check runs up to a
declared horizon and reports what it saw.  The empirical verdict rule shared
by all probes looks at the last quartile of the reported rows (at least two
rows; fewer than four rows in total is inconclusive, as is an error-flagged
row inside the quartile):

* a quantity "approaches one" when it is nondecreasing there (slack 1e-12)
  and the final row is within 1e-9 of one;
* a quantity "vanishes" when it is nonincreasing there and the final row is
  either exactly zero (below 1e-12) or strictly below the quartile start;
* the verdict is ``holds_empirically`` when every tracked quantity meets its
  goal, else ``fails``.

The transitivity witness reads its trend by the same rule: both error norms
must vanish over the last quartile of its unflagged rows.

Per-step window overflows never abort a check; the step is recorded as
inconclusive or the row is flagged and skipped.  Neither does a step whose
values are no finite float (a weight product that overflowed, or the
reciprocal of one that underflowed to zero): its row is flagged
``non-finite``, and the orbit scan skips it.
"""
from __future__ import annotations

import math
from functools import cache
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import NonFiniteValue, PreconditionFailed, WindowOverflow
from .functions import (
    ZERO_FUNCTION,
    SparseFunction,
    indicator,
    measure_of_set,
    translate,
)
from .hypergroups import HypergroupModel
from .operators import (
    DEFAULT_CONVENTION,
    CenterPowers,
    EtaSequence,
    ProductConvention,
    Weight,
    apply_right_inverse,
    apply_weighted_translation,
    hereditary_weight_pair,
    shifted_weight_product,
    weight_product,
)
from .orlicz import YoungFunction, delta2_check, luxemburg_norm
from .records import Checked

TREND_SLACK = 1e-12
RATIO_TARGET_SLACK = 1e-9
ZERO_LEVEL = 1e-12

# Per-step failures that flag a row instead of aborting a check.
_STEP_ERRORS = (WindowOverflow, NonFiniteValue, ZeroDivisionError)


def _step_flag(exc: Exception) -> str:
    return "window-overflow" if isinstance(exc, WindowOverflow) else "non-finite"


# -- aperiodicity -----------------------------------------------------------


class _AperiodicityVerdictFields(NamedTuple):
    holds_at_horizon: bool
    first_n: int | None
    horizon: int
    counterexamples: tuple[tuple[int, tuple[int, ...]], ...]
    inconclusive: tuple[int, ...] = ()


class AperiodicityVerdict(Checked, _AperiodicityVerdictFields):
    """Tail disjointness of a set from its sequence translates.

    ``first_n`` is the least index from which every tested later index stayed
    disjoint; present exactly when the verdict holds.  ``counterexamples``
    lists (index, overlap labels); ``inconclusive`` lists indices skipped for
    window overflow.
    """

    __slots__ = ()

    def __post_init__(self):
        if self.holds_at_horizon != (self.first_n is not None):
            raise ValueError("first_n must be present exactly when the verdict holds")


def _tail_verdict(horizon: int,
                  overlaps: dict[int, set[int] | None]) -> AperiodicityVerdict:
    """Verdict from the overlap found at each index, None where it was skipped."""
    bad = {n: s for n, s in overlaps.items() if s}
    inconclusive = [n for n, s in overlaps.items() if s is None]
    blocked = set(bad) | set(inconclusive)
    first = max(blocked) + 1 if blocked else 1
    holds = first <= horizon
    return AperiodicityVerdict(
        holds_at_horizon=holds,
        first_n=first if holds else None,
        horizon=horizon,
        counterexamples=tuple(sorted((n, tuple(sorted(s))) for n, s in bad.items())),
        inconclusive=tuple(sorted(inconclusive)),
    )


def _translates(model: HypergroupModel, eta: EtaSequence,
                e: Sequence[int]) -> Callable[[int], frozenset[int] | None]:
    """idx -> E translated by eta(idx), None off the window; each computed once."""
    @cache
    def translated(idx: int) -> frozenset[int] | None:
        try:
            return model.set_convolve(e, [eta(idx)])
        except WindowOverflow:
            return None
    return translated


def _overlaps(translated: Callable, e: Sequence[int], horizon: int,
              signs: tuple[int, ...]) -> dict[int, set[int] | None]:
    """For n = 1..horizon, the labels E shares with its translates at the
    indices s n over the signs s, or None where one leaves the window."""
    eset = set(e)
    out: dict[int, set[int] | None] = {}
    for n in range(1, horizon + 1):
        overlap: set[int] | None = set()
        for sign in signs:
            shifted = translated(sign * n)
            if shifted is None:
                overlap = None
                break
            overlap |= eset & shifted
        out[n] = overlap
    return out


def _require_set(model: HypergroupModel, e_set: Iterable[int]) -> tuple[int, ...]:
    labels = tuple(sorted(set(e_set)))
    if not labels:
        raise PreconditionFailed("nonempty-set", "the tested set is empty")
    for x in labels:
        model._require_in_window(x)
    return labels


def aperiodic_sequence_check(model: HypergroupModel, eta: EtaSequence,
                             e_set: Iterable[int], horizon: int) -> AperiodicityVerdict:
    """Disjointness of E from E translated by the n-th and (-n)-th sequence
    points, for every n up to the horizon."""
    e = _require_set(model, e_set)
    overlaps = _overlaps(_translates(model, eta, e), e, horizon, (1, -1))
    return _tail_verdict(horizon, overlaps)


def strongly_aperiodic_check(model: HypergroupModel, eta: EtaSequence,
                             e_set: Iterable[int], horizon: int,
                             rs_bound: int) -> AperiodicityVerdict:
    """Pairwise disjointness of E translated by the (r n)-th and (s n)-th
    sequence points over distinct multipliers bounded by rs_bound, with the
    multiplied indices kept within the horizon."""
    e = _require_set(model, e_set)
    return _pairwise_verdict(_translates(model, eta, e), horizon, rs_bound)


def _pairwise_verdict(translated: Callable, horizon: int,
                      rs_bound: int) -> AperiodicityVerdict:
    """The verdict of strongly_aperiodic_check from E's translates."""
    overlaps: dict[int, set[int] | None] = {}
    for n in range(1, horizon + 1):
        overlap: set[int] = set()
        skipped = False
        for r in range(-rs_bound, rs_bound + 1):
            for s in range(r + 1, rs_bound + 1):
                if abs(r * n) > horizon or abs(s * n) > horizon:
                    continue
                a = translated(r * n)
                b = translated(s * n)
                if a is None or b is None:
                    skipped = True
                    continue
                overlap |= a & b
        overlaps[n] = None if skipped and not overlap else overlap
    return _tail_verdict(horizon, overlaps)


class CenterAperiodicityReport(NamedTuple):
    direct: AperiodicityVerdict
    pairwise: AperiodicityVerdict
    agree: bool


def aperiodic_center_check(model: HypergroupModel, z: int, e_set: Iterable[int],
                           horizon: int, rs_bound: int) -> CenterAperiodicityReport:
    """Aperiodicity of a center element along its powers, checked two ways:
    directly (E against E shifted by the n-th power) and through pairwise
    disjointness of multiplied shifts.  Negative powers use the involution;
    both readings share one memo of translates."""
    e = _require_set(model, e_set)
    translated = _translates(model, CenterPowers(model, z), e)
    # The direct reading uses positive shifts only.
    direct = _tail_verdict(horizon, _overlaps(translated, e, horizon, (1,)))
    pairwise = _pairwise_verdict(translated, horizon, rs_bound)
    return CenterAperiodicityReport(
        direct=direct, pairwise=pairwise,
        agree=direct.holds_at_horizon == pairwise.holds_at_horizon)


# -- criterion probes -------------------------------------------------------


class CriterionRow(NamedTuple):
    k: int
    n: int
    members: tuple[int, ...]          # the selected sublevel subset of E
    measure_ratio: float
    metrics: tuple[tuple[str, float], ...]
    flags: tuple[str, ...] = ()

    def metric(self, name: str) -> float:
        for key, v in self.metrics:
            if key == name:
                return v
        raise KeyError(name)


class _CriterionReportFields(NamedTuple):
    criterion: str
    verdict: str                      # "holds_empirically" | "fails" | "inconclusive"
    rows: tuple[CriterionRow, ...]
    horizon: int
    convention: ProductConvention
    certification: str | None = None
    notes: tuple[str, ...] = ()


class CriterionReport(Checked, _CriterionReportFields):
    __slots__ = ()

    def __post_init__(self):
        ns = [r.n for r in self.rows]
        if ns != sorted(ns) or len(ns) != len(set(ns)):
            raise ValueError("rows must be strictly increasing in n")


def _quartile(rows: Sequence) -> Sequence:
    """The last quarter of the rows, at least two."""
    count = max(2, math.ceil(len(rows) / 4))
    return rows[-count:]


def _approaches_one(vals: Sequence[float]) -> bool:
    monotone = all(b >= a - TREND_SLACK for a, b in zip(vals, vals[1:]))
    return monotone and vals[-1] >= 1.0 - RATIO_TARGET_SLACK


def _vanishes(vals: Sequence[float]) -> bool:
    monotone = all(b <= a + TREND_SLACK for a, b in zip(vals, vals[1:]))
    return monotone and (vals[-1] <= ZERO_LEVEL or vals[-1] < vals[0])


def _verdict(rows: Sequence[CriterionRow], ratio_goal: bool,
             vanish_names: Sequence[str],
             zero_names: Sequence[str] = ()) -> str:
    """Shared empirical verdict rule; see the module docstring."""
    if len(rows) < 4:
        return "inconclusive"
    quart = _quartile(rows)
    if any(r.flags for r in quart):
        return "inconclusive"
    ok = True
    if ratio_goal:
        ok = ok and _approaches_one([r.measure_ratio for r in quart])
    for name in vanish_names:
        ok = ok and _vanishes([r.metric(name) for r in quart])
    for name in zero_names:
        vals = [r.metric(name) for r in quart]
        ok = ok and _vanishes(vals) and vals[-1] <= ZERO_LEVEL
    return "holds_empirically" if ok else "fails"


def _center_indices(model: HypergroupModel, eta: CenterPowers, e: Sequence[int],
                    horizon: int) -> list[int]:
    """The indices n at which E is disjoint from both its translates by the
    n-th and (-n)-th powers of the center element, after the
    center-aperiodicity gate: the forward translates must be disjoint from E
    at the horizon.  One forward and one backward pass serve both."""
    translated = _translates(model, eta, e)
    forward = _overlaps(translated, e, horizon, (1,))
    if not _tail_verdict(horizon, forward).holds_at_horizon:
        raise PreconditionFailed(
            "center-aperiodicity",
            f"powers of {eta.z} keep meeting the set below the horizon")
    backward = _overlaps(translated, e, horizon, (-1,))
    good = [n for n in forward if forward[n] == set() and backward[n] == set()]
    if not good:
        raise PreconditionFailed("aperiodicity", "no separating index below horizon")
    return good


def _sup_necessary_profile(model: HypergroupModel, w: Weight, eta: EtaSequence,
                           e: Sequence[int], n: int,
                           convention: ProductConvention) -> SparseFunction:
    """The tracked function of the sup-vanishing criterion: translate back the
    indicator, multiply the weight product in, translate forward."""
    pulled = translate(model, indicator(e), eta(-n))
    weighted = SparseFunction.from_dict(
        {x: tv * weight_product(model, w, eta, x, n, convention)
         for x, tv in pulled.values})
    return translate(model, weighted, eta(n))


def _sublevel_rows(model: HypergroupModel, e: tuple[int, ...], good: Sequence[int],
                   names: tuple[str, ...],
                   tracked: Callable[[int], Sequence[Sequence[float]]],
                   lead: Callable[[tuple[int, ...]], float] | None = None
                   ) -> tuple[CriterionRow, ...]:
    """The rows of a sublevel probe: the k-th at the k-th good index n, with
    eps_k = 2^-k.

    ``tracked(n)`` gives the values at the points of E of each tracked
    metric.  The members are the points where every tracked value is at most
    eps_k; each tracked metric reports its sup over them (0 when there are
    none), after ``lead(members)`` when given, and ("eps", eps_k) comes last.
    ``names`` names the metrics in that order.  A tracked value leaving the
    window, or one that is no finite float, flags the row
    (``window-overflow`` or ``non-finite``), with no members, ratio 0 and
    NaN for the first metric.
    """
    m_e = measure_of_set(model, e)
    rows: list[CriterionRow] = []
    for k, n in enumerate(good, start=1):
        eps = 2.0**-k
        try:
            values = tracked(n)
            finite = all(math.isfinite(v) for vals in values for v in vals)
            flag = None if finite else "non-finite"
        except _STEP_ERRORS as exc:
            flag = _step_flag(exc)
        if flag:
            rows.append(CriterionRow(k=k, n=n, members=(), measure_ratio=0.0,
                                     metrics=((names[0], math.nan),),
                                     flags=(flag,)))
            continue
        inside = [i for i in range(len(e)) if all(v[i] <= eps for v in values)]
        members = tuple(e[i] for i in inside)
        sups = [max((v[i] for i in inside), default=0.0) for v in values]
        if lead:
            sups.insert(0, lead(members))
        rows.append(CriterionRow(k=k, n=n, members=members,
                                 measure_ratio=measure_of_set(model, members) / m_e,
                                 metrics=(*zip(names, sups), ("eps", eps))))
    return tuple(rows)


def probe_sup_necessary(model: HypergroupModel, w: Weight, eta: EtaSequence,
                        e_set: Iterable[int], horizon: int,
                        convention: ProductConvention = DEFAULT_CONVENTION
                        ) -> CriterionReport:
    """Necessary condition along a general sequence: the pulled-back weighted
    indicator must vanish in sup norm on sublevel subsets that exhaust E."""
    e = _require_set(model, e_set)
    # The finite window gives the L^1 embedding, so it needs no check here.
    overlaps = _overlaps(_translates(model, eta, e), e, horizon, (1,))
    good = [n for n, overlap in overlaps.items() if overlap == set()]
    if not good:
        raise PreconditionFailed(
            "aperiodicity", "no index below the horizon separates the set")

    def tracked(n):
        profile = _sup_necessary_profile(model, w, eta, e, n, convention)
        return ([profile.value_at(x) for x in e],)

    rows = _sublevel_rows(model, e, good, ("sup_profile",), tracked)
    verdict = _verdict(rows, ratio_goal=True, vanish_names=("sup_profile",))
    return CriterionReport(criterion="necessary-sup", verdict=verdict,
                           rows=rows, horizon=horizon, convention=convention)


def probe_series_necessary(model: HypergroupModel, w: Weight, eta: EtaSequence,
                           e_set: Iterable[int], horizon: int,
                           series_cutoff: int, rs_bound: int = 3,
                           convention: ProductConvention = DEFAULT_CONVENTION
                           ) -> CriterionReport:
    """Necessary condition through two truncated series over multiplied steps:
    forward weighted-indicator integrals plus reciprocal-product integrals,
    both over E itself.  The combined partial sums must vanish."""
    e = _require_set(model, e_set)
    # The finite window gives the L^1 embedding, so it needs no check here.
    strong = strongly_aperiodic_check(model, eta, e, horizon, rs_bound)
    if not strong.holds_at_horizon:
        raise PreconditionFailed(
            "strong-aperiodicity",
            "multiplied translates keep meeting below the horizon")
    # Every skipped index lies below first_n, so all indices from it are good.
    rows: list[CriterionRow] = []
    for k, n in enumerate(range(strong.first_n, horizon + 1), start=1):
        fwd_sum = 0.0
        rec_sum = 0.0
        flags: tuple[str, ...] = ()
        for s in range(1, series_cutoff + 1):
            try:
                profile = _sup_necessary_profile(model, w, eta, e, s * n, convention)
                fwd_sum += sum(profile.value_at(x) * model.haar[x] for x in e)
                rec_sum += sum(model.haar[x] /
                               weight_product(model, w, eta, x, s * n, convention)
                               for x in e)
            except _STEP_ERRORS as exc:
                flags = ("series-truncated" if isinstance(exc, WindowOverflow)
                         else "non-finite",)
                break
        combined = fwd_sum + rec_sum
        if not (flags or math.isfinite(combined)):  # a partial sum overflowed
            flags = ("non-finite",)
        rows.append(CriterionRow(
            k=k, n=n, members=e, measure_ratio=1.0,
            metrics=(("combined", combined),
                     ("forward_partial", fwd_sum),
                     ("reciprocal_partial", rec_sum)),
            flags=flags))
    verdict = _verdict(rows, ratio_goal=False, vanish_names=("combined",))
    return CriterionReport(
        criterion="necessary-series", verdict=verdict, rows=tuple(rows),
        horizon=horizon, convention=convention,
        notes=("both series use the multiplied step index inside the integrand",))


def probe_center_conditions(model: HypergroupModel, w: Weight, eta: EtaSequence,
                            phi: YoungFunction, e_set: Iterable[int], horizon: int,
                            convention: ProductConvention = DEFAULT_CONVENTION
                            ) -> CriterionReport:
    """Center-sequence conditions: reciprocal weight products and shifted
    products must vanish on sublevel subsets exhausting E.

    These are necessary for dense orbits along the sequence; when the Young
    function has proven doubling regularity and the reciprocal weight is
    bounded on the window, an empirically holding verdict also certifies the
    sufficiency construction, recorded in ``certification``.
    """
    e = _require_set(model, e_set)
    if not isinstance(eta, CenterPowers):
        raise PreconditionFailed("central-sequence",
                                 "the probe needs powers of a center element")
    good = _center_indices(model, eta, e, horizon)
    sufficiency_ok = (delta2_check(phi).state == "proven"
                      and w.inf_over(model.carrier) > 0.0)

    def tracked(n):
        return ([1.0 / weight_product(model, w, eta, x, n, convention) for x in e],
                [shifted_weight_product(model, w, eta, x, n, convention) for x in e])

    def residual_norm(members):
        return luxemburg_norm(model, indicator(set(e) - set(members)), phi).value

    rows = _sublevel_rows(model, e, good,
                          ("residual_norm", "sup_reciprocal", "sup_shifted"),
                          tracked, lead=residual_norm)
    verdict = _verdict(rows, ratio_goal=False,
                       vanish_names=("sup_reciprocal", "sup_shifted"),
                       zero_names=("residual_norm",))
    certification = None
    if verdict == "holds_empirically" and sufficiency_ok:
        certification = f"densely hypercyclic certified at horizon {horizon}"
    return CriterionReport(criterion="center-conditions", verdict=verdict,
                           rows=rows, horizon=horizon,
                           convention=convention, certification=certification)


def probe_hereditary(model: HypergroupModel, z: int, w: Weight,
                     phi: YoungFunction, e_set: Iterable[int], horizon: int
                     ) -> CriterionReport:
    """Hereditary two-sided condition along powers of a center element: the
    forward products and reciprocal backward products must both vanish on
    sublevel subsets exhausting E."""
    e = _require_set(model, e_set)
    if not model.is_central(z):
        raise PreconditionFailed("central-element", f"label {z} is not central")
    if delta2_check(phi).state != "proven":
        raise PreconditionFailed("doubling-regularity",
                                 "the criterion needs proven doubling regularity")
    good = _center_indices(model, CenterPowers(model, z), e, horizon)

    def tracked(n):
        return tuple(zip(*(hereditary_weight_pair(model, x, z, w, n) for x in e)))

    rows = _sublevel_rows(model, e, good, ("sup_forward", "sup_backward"), tracked)
    verdict = _verdict(rows, ratio_goal=True,
                       vanish_names=("sup_forward", "sup_backward"))
    return CriterionReport(criterion="hereditary", verdict=verdict,
                           rows=rows, horizon=horizon,
                           convention=DEFAULT_CONVENTION)


# -- constructive witnesses -------------------------------------------------


class WitnessRow(NamedTuple):
    k: int
    n: int
    err_source: float
    err_target: float
    flags: tuple[str, ...] = ()


class WitnessReport(NamedTuple):
    rows: tuple[WitnessRow, ...]
    eventually_decreasing: bool
    convention: ProductConvention
    final_witness: SparseFunction


def build_transitivity_witness(model: HypergroupModel, f: SparseFunction,
                               g: SparseFunction, w: Weight, eta: EtaSequence,
                               phi: YoungFunction, k_max: int, horizon: int,
                               convention: ProductConvention = DEFAULT_CONVENTION
                               ) -> WitnessReport:
    """Two-sided approximation witnesses: near the source function, mapped
    near the target by the step operator.

    Requires the center-conditions probe to hold on the union of supports.
    Per row the witness keeps f on the sublevel subset and adds the right
    inverse of the restricted target; both error norms use the gauge norm.
    """
    e = tuple(sorted(set(f.support()) | set(g.support())))
    probe = probe_center_conditions(model, w, eta, phi, e, horizon,
                                    convention=convention)
    if probe.verdict != "holds_empirically":
        raise PreconditionFailed(
            "center-conditions",
            f"probe verdict was {probe.verdict!r} on the support union")
    rows: list[WitnessRow] = []
    final = None
    for row in probe.rows[:k_max]:
        if row.flags:
            rows.append(WitnessRow(k=row.k, n=row.n, err_source=math.nan,
                                   err_target=math.nan, flags=row.flags))
            continue
        keep = row.members
        try:
            witness = f.restrict(keep) + apply_right_inverse(
                model, g.restrict(keep), w, eta, row.n, convention)
            mapped = apply_weighted_translation(model, witness, w, eta, row.n,
                                                convention)
        except _STEP_ERRORS as exc:
            rows.append(WitnessRow(k=row.k, n=row.n, err_source=math.nan,
                                   err_target=math.nan, flags=(_step_flag(exc),)))
            continue
        err_source = luxemburg_norm(model, witness - f, phi).value
        err_target = luxemburg_norm(model, mapped - g, phi).value
        rows.append(WitnessRow(k=row.k, n=row.n,
                               err_source=err_source, err_target=err_target))
        final = witness
    clean = [r for r in rows if not r.flags]
    tail = _quartile(clean)
    decreasing = (len(clean) >= 2
                  and _vanishes([r.err_source for r in tail])
                  and _vanishes([r.err_target for r in tail]))
    return WitnessReport(rows=tuple(rows), eventually_decreasing=decreasing,
                         convention=convention,
                         final_witness=final if final is not None else ZERO_FUNCTION)


# -- orbit scans ------------------------------------------------------------


class OrbitResult(NamedTuple):
    target_index: int
    best_n: int
    best_error: float
    skipped: tuple[int, ...] = ()


def orbit_density_probe(model: HypergroupModel, f: SparseFunction, w: Weight,
                        eta: EtaSequence, targets: Sequence[SparseFunction],
                        horizon: int, phi: YoungFunction,
                        convention: ProductConvention = DEFAULT_CONVENTION
                        ) -> tuple[OrbitResult, ...]:
    """Best gauge-norm distance from the step orbit of f to each target."""
    orbit: list[tuple[int, SparseFunction | None]] = []
    for n in range(0, horizon + 1):
        try:
            orbit.append((n, apply_weighted_translation(model, f, w, eta, n,
                                                        convention)))
        except (WindowOverflow, NonFiniteValue):
            orbit.append((n, None))
    results = []
    for idx, g in enumerate(targets):
        best_n, best_err = 0, math.inf
        skipped = []
        for n, point in orbit:
            if point is None:
                skipped.append(n)
                continue
            err = luxemburg_norm(model, point - g, phi).value
            if err < best_err:
                best_n, best_err = n, err
        results.append(OrbitResult(target_index=idx, best_n=best_n,
                                   best_error=best_err, skipped=tuple(skipped)))
    return tuple(results)


def periodic_point_check(model: HypergroupModel, f: SparseFunction, w: Weight,
                         eta: EtaSequence, phi: YoungFunction, n: int,
                         r_max: int, tol: float,
                         convention: ProductConvention = DEFAULT_CONVENTION) -> bool:
    """Whether f returns to itself (within tol, gauge norm) at every multiple
    of the step n up to r_max."""
    if n < 1 or r_max < 1:
        raise ValueError("step and multiplier bounds must be positive")
    for r in range(1, r_max + 1):
        image = apply_weighted_translation(model, f, w, eta, r * n, convention)
        if luxemburg_norm(model, image - f, phi).value > tol:
            return False
    return True
