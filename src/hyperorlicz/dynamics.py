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
must vanish over the last quartile of its unflagged rows.  It reads the
center-conditions report, as the hereditary probe does: the weight keeps
one per (phi, E, horizon, convention), computed once.

Per-step window overflows never abort a check; the step is recorded as
inconclusive or the row is flagged and skipped.  Neither does a step whose
values are no finite float (a weight product that overflowed, or the
reciprocal of one that underflowed to zero): its row is flagged
``non-finite``, and the orbit scan skips it.
"""
import math
from functools import cache
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import NonFiniteValue, PreconditionFailed, WindowOverflow
from .functions import (
    ZERO_FUNCTION,
    SparseFunction,
    _translate_sums,
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
    shifted_weight_product,
    weight_product,
)
from .orlicz import YoungFunction, _gauge_exceeds, delta2_check, luxemburg_norm
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
                e: tuple[int, ...]) -> Callable[[int], frozenset[int] | None]:
    """idx -> E translated by eta(idx), None off the window.  The model
    keeps E's translate by each point, so the checks of a session, along
    any sequence and at any index that reaches the point, compute it once;
    each index is looked up once per call."""
    memo = model._set_translates

    @cache
    def translated(idx: int) -> frozenset[int] | None:
        try:
            y = eta(idx)
        except WindowOverflow:
            return None
        if (e, y) not in memo:
            try:
                memo[e, y] = model.set_convolve(e, [y])
            except WindowOverflow:
                memo[e, y] = None
        return memo[e, y]
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
    multiplied indices kept within the horizon.  A bound below 1 leaves no
    pair to test, so it raises ValueError."""
    if rs_bound < 1:
        raise ValueError(f"rs_bound must be at least 1, got {rs_bound}")
    e = _require_set(model, e_set)
    return _pairwise_verdict(_translates(model, eta, e), horizon, rs_bound)


def _pairwise_verdict(translated: Callable, horizon: int,
                      rs_bound: int) -> AperiodicityVerdict:
    """The verdict of strongly_aperiodic_check from E's translates at r n
    (|r| <= rs_bound, |r n| <= horizon), each read once: the labels seen in
    two of them overlap; n is skipped where none do and one is None."""
    overlaps: dict[int, set[int] | None] = {}
    for n in range(1, horizon + 1):
        seen: set[int] = set()
        overlap: set[int] = set()
        skipped = False
        reach = min(rs_bound, horizon // n)
        for r in range(-reach, reach + 1):
            shifted = translated(r * n)
            if shifted is None:
                skipped = True
                continue
            overlap |= seen & shifted
            seen |= shifted
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
    both readings share one memo of translates.  A multiplier bound below 1
    raises ValueError, as in strongly_aperiodic_check."""
    if rs_bound < 1:
        raise ValueError(f"rs_bound must be at least 1, got {rs_bound}")
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
        return dict(self.metrics)[name]


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


def _sup_necessary_values(model: HypergroupModel, w: Weight, eta: EtaSequence,
                          e: Sequence[int], n: int,
                          convention: ProductConvention) -> list[float]:
    """The tracked function of the sup-vanishing criterion at the points of
    E: translate back the indicator, multiply the weight product in,
    translate forward.  Along powers of a center element both translates
    are relabellings with mass exactly 1.0, so the value at x is
    ``shifted_weight_product(x, n)``, with the same bits.  On any other
    sequence the forward translate is summed at the points of E only, from
    the terms ``translate`` sums there, in its order and after its window
    checks, so the values keep their bits; a sum off E is never formed, so
    one that would overflow there flags nothing.  On either path a value
    at E that is not finite raises NonFiniteValue once all are computed,
    as SparseFunction does on the translate path."""
    if isinstance(eta, CenterPowers):
        values = [shifted_weight_product(model, w, eta, x, n, convention) for x in e]
    else:
        pulled = translate(model, indicator(e), eta(-n))
        weighted = SparseFunction.from_dict(
            {x: tv * weight_product(model, w, eta, x, n, convention)
             for x, tv in pulled.values})
        sums = _translate_sums(model, weighted, eta(n), set(e))
        values = [sums.get(x, 0.0) for x in e]
    if not all(map(math.isfinite, values)):
        raise NonFiniteValue("stored values must be finite")
    return values


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
        return (_sup_necessary_values(model, w, eta, e, n, convention),)

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
    # The terms depend only on the multiplied index m = s n.  A step that
    # raised is not kept: computed again, it raises the same error type.
    @cache
    def forward_term(m):
        values = _sup_necessary_values(model, w, eta, e, m, convention)
        return sum(v * model.haar[x] for x, v in zip(e, values))

    @cache
    def reciprocal_term(m):
        return sum(model.haar[x] / weight_product(model, w, eta, x, m, convention)
                   for x in e)

    # Every skipped index lies below first_n, so all indices from it are good.
    rows: list[CriterionRow] = []
    for k, n in enumerate(range(strong.first_n, horizon + 1), start=1):
        fwd_sum = 0.0
        rec_sum = 0.0
        flags: tuple[str, ...] = ()
        for s in range(1, series_cutoff + 1):
            try:
                fwd_sum += forward_term(s * n)
                rec_sum += reciprocal_term(s * n)
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

    The weight keeps the report per (model, center element) and (phi, E,
    horizon, convention), and the hereditary probe and the transitivity
    witness read it too; a call that raises keeps nothing.
    """
    return _center_report(model, w, eta, phi, e_set, horizon, convention)


def _center_report(model: HypergroupModel, w: Weight, eta: EtaSequence,
                   phi: YoungFunction, e_set: Iterable[int], horizon: int,
                   convention: ProductConvention) -> CriterionReport:
    """The kept report of probe_center_conditions after its gates, computed
    on a miss; the probe, the hereditary probe and the witness read it."""
    e = _require_set(model, e_set)
    if not isinstance(eta, CenterPowers):
        raise PreconditionFailed("central-sequence",
                                 "the probe needs powers of a center element")
    reports = w._memo["reports", model, eta.z]
    key = (phi, e, horizon, convention)
    if key in reports:
        return reports[key]
    # Gated on E's forward translates being disjoint from E at the horizon;
    # the rows sit where both translates are.  One pass each way serves both.
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

    def tracked(n):
        return ([1.0 / weight_product(model, w, eta, x, n, convention) for x in e],
                [shifted_weight_product(model, w, eta, x, n, convention) for x in e])

    @cache  # consecutive rows usually keep the same members
    def residual_norm(members):
        return luxemburg_norm(model, indicator(set(e) - set(members)), phi).value

    rows = _sublevel_rows(model, e, good,
                          ("residual_norm", "sup_reciprocal", "sup_shifted"),
                          tracked, lead=residual_norm)
    verdict = _verdict(rows, ratio_goal=False,
                       vanish_names=("sup_reciprocal", "sup_shifted"),
                       zero_names=("residual_norm",))
    certification = None
    if (verdict == "holds_empirically" and delta2_check(phi).state == "proven"
            and w.inf_over(model.carrier) > 0.0):  # the sufficiency side
        certification = f"densely hypercyclic certified at horizon {horizon}"
    report = reports[key] = CriterionReport(
        criterion="center-conditions", verdict=verdict, rows=rows,
        horizon=horizon, convention=convention, certification=certification)
    return report


def probe_hereditary(model: HypergroupModel, z: int, w: Weight,
                     phi: YoungFunction, e_set: Iterable[int], horizon: int
                     ) -> CriterionReport:
    """Hereditary two-sided condition along powers of a center element: the
    forward products and reciprocal backward products must both vanish on
    sublevel subsets exhausting E.  After its own gates it reads the kept
    center-conditions report at the default convention: its rows are those
    rows, the shifted products as ``sup_forward`` and the reciprocal ones as
    ``sup_backward``, with the ratio goal in place of ``residual_norm``."""
    e = _require_set(model, e_set)
    if not model.is_central(z):
        raise PreconditionFailed("central-element", f"label {z} is not central")
    if delta2_check(phi).state != "proven":
        raise PreconditionFailed("doubling-regularity",
                                 "the criterion needs proven doubling regularity")
    center = _center_report(model, w, CenterPowers(model, z), phi, e, horizon,
                            DEFAULT_CONVENTION)
    rows = []
    for row in center.rows:
        if row.flags:
            metrics = (("sup_forward", math.nan),)
        else:
            _, (_, reciprocal), (_, shifted), eps = row.metrics
            metrics = (("sup_forward", shifted), ("sup_backward", reciprocal), eps)
        rows.append(row._replace(metrics=metrics))
    verdict = _verdict(rows, ratio_goal=True,
                       vanish_names=("sup_forward", "sup_backward"))
    return CriterionReport(criterion="hereditary", verdict=verdict,
                           rows=tuple(rows), horizon=horizon,
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

    Requires the center-conditions probe to hold on the union of supports;
    it reads the report the weight keeps for that union, as the probe does.
    Per row the witness keeps f on the sublevel subset and adds the right
    inverse of the restricted target; both error norms use the gauge norm.
    """
    e = tuple(sorted(set(f.support()) | set(g.support())))
    probe = _center_report(model, w, eta, phi, e, horizon, convention)
    if probe.verdict != "holds_empirically":
        raise PreconditionFailed(
            "center-conditions",
            f"probe verdict was {probe.verdict!r} on the support union")
    rows: list[WitnessRow] = []
    final = None
    for row in probe.rows[:k_max]:
        flags = row.flags
        if not flags:
            try:
                witness = f.restrict(row.members) + apply_right_inverse(
                    model, g.restrict(row.members), w, eta, row.n, convention)
                mapped = apply_weighted_translation(model, witness, w, eta, row.n,
                                                    convention)
            except _STEP_ERRORS as exc:
                flags = (_step_flag(exc),)
        if flags:
            rows.append(WitnessRow(k=row.k, n=row.n, err_source=math.nan,
                                   err_target=math.nan, flags=flags))
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
    """Best gauge-norm distance from the step orbit of f to each target.

    A candidate is skipped after one modular evaluation when that proves its
    distance is at least the best one so far (``orlicz._gauge_exceeds``: the
    modular at k = best error exceeds 1 + 1e-9), since its search could not
    win; the result is the one the full scan gives.  Only a skipped
    candidate whose own search would raise NonFiniteIntegrand no longer ends
    the scan.
    """
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
            diff = point - g
            if best_err < math.inf and _gauge_exceeds(model, diff, phi, best_err):
                continue
            err = luxemburg_norm(model, diff, phi).value
            if err < best_err:
                best_n, best_err = n, err
        results.append(OrbitResult(target_index=idx, best_n=best_n,
                                   best_error=best_err, skipped=tuple(skipped)))
    return tuple(results)

