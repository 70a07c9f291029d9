"""Young functions and the two standard norms they induce on a windowed model.

The gauge (Luxemburg) norm is the smallest scaling that pushes the modular
integral down to 1; it is found by bisection on a bracketed scaling, so the
returned value always satisfies the defining inequality at
value*(1+RTOL_NORM).  The dual-style norm is evaluated through its infimum form
inf_k (1 + modular(k f)) / k, which is convex in 1/k, so a coarse log-spaced
scan followed by golden-section refinement finds the minimum deterministically.
Infinity is an explicit sentinel (math.inf), never a float overflow.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from operator import itemgetter
from typing import NamedTuple

from .errors import RTOL_NORM, NonFiniteIntegrand
from .functions import SparseFunction, indicator, integrate_haar
from .hypergroups import HypergroupModel
from .records import Checked

_DELTA2_GRID = tuple(x / 2.0 for x in range(1, 101))  # 0.5 .. 50.0
_REFUTE_RATIO = 1e6
_FLOAT_MAX = sys.float_info.max  # the gauge search starts at most here
_LOG_MAX = math.log(_FLOAT_MAX)  # the infimum search scans log k up to here
# Outside these peaks the infimum search rescales the data.  Its grid of
# log k reaches about 90 past -log max|f|, and its golden section narrows
# log k to 1e-13, less than one ulp once |log k| passes 512.
_SCAN_PEAKS = (2.0**-512, 2.0**512)
_SCAN_CAP = 4000  # objective evaluations before the infimum search gives up
_ABSCISSA = itemgetter(0)
# 1/(j+2)! for j = 17..0: Horner's coefficients of (e^t - 1 - t) / t^2, whose
# first omitted term is below 2^-70 of the sum at t <= 1/2.
_EXP_TAIL = tuple(1.0 / math.factorial(j + 2) for j in range(17, -1, -1))


class YoungFunction(NamedTuple):
    """Convex function vanishing at 0 and unbounded at infinity.

    kind is one of "phi_p" (t^p / p), "exp_minus_linear" (e^t - t - 1),
    "cosh_minus_one", or "tabulated" (piecewise linear through knots, final
    slope extrapolated).
    """

    kind: str
    p: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise ValueError("young functions are evaluated on [0, inf)")
        if t == math.inf:
            return math.inf
        if self.kind == "phi_p":
            p = self.p
            if t > 0.0 and p * math.log10(t) > 308.0:
                return math.inf
            return t**p / p
        if self.kind == "exp_minus_linear":
            if t > _LOG_MAX:  # where expm1 overflows
                return math.inf
            if t <= 0.5:  # expm1(t) - t cancels; the Taylor tail does not
                s = 0.0
                for c in _EXP_TAIL:
                    s = c + t * s
                return t * (t * s)
            return math.expm1(t) - t
        if self.kind == "cosh_minus_one":
            if t >= 1420.0:
                return math.inf
            s = math.sinh(t / 2.0)
            return 2.0 * s * s
        return self._tab_eval(t)

    def _tab_eval(self, t: float) -> float:
        ks = self.knots
        i = bisect_right(ks, t, 1, key=_ABSCISSA)  # first knot beyond t
        if i == len(ks):
            t0, y0 = ks[-1]
            return y0 + self._final_slope() * (t - t0)
        (t0, y0), (t1, y1) = ks[i - 1], ks[i]
        return y0 + (y1 - y0) * (t - t0) / (t1 - t0)

    def _final_slope(self) -> float:
        (t0, y0), (t1, y1) = self.knots[-2], self.knots[-1]
        return (y1 - y0) / (t1 - t0)


def phi_p(p: float) -> YoungFunction:
    """t^p / p.  Doubling regularity is analytic: ratio constant at 2^p."""
    if p < 1.0:
        raise ValueError("exponent must satisfy p >= 1")
    return YoungFunction(kind="phi_p", p=float(p))


def exp_minus_linear() -> YoungFunction:
    return YoungFunction(kind="exp_minus_linear")


def cosh_minus_one() -> YoungFunction:
    return YoungFunction(kind="cosh_minus_one")


def tabulated_young(knots) -> YoungFunction:
    """Piecewise-linear Young function through the given (t, value) knots.

    Requires knots starting at (0, 0), strictly increasing abscissae,
    nondecreasing slopes (convexity), and a strictly positive final slope so
    the extrapolation is unbounded.
    """
    ks = tuple((float(t), float(v)) for t, v in knots)
    if len(ks) < 2 or ks[0] != (0.0, 0.0):
        raise ValueError("knots must start at (0, 0) and contain at least two points")
    slopes = []
    for (t0, y0), (t1, y1) in zip(ks, ks[1:]):
        if t1 <= t0:
            raise ValueError("knot abscissae must be strictly increasing")
        if y1 < y0:
            raise ValueError("knot values must be nondecreasing")
        slopes.append((y1 - y0) / (t1 - t0))
    for s0, s1 in zip(slopes, slopes[1:]):
        if s1 < s0 - 1e-15:
            raise ValueError("knot slopes must be nondecreasing (convexity)")
    if slopes[-1] <= 0.0:
        raise ValueError("final slope must be positive so the function is unbounded")
    return YoungFunction(kind="tabulated", knots=ks)


def young_inverse(phi: YoungFunction, y: float) -> float:
    """Smallest t with phi(t) >= y, by doubling then bisection."""
    if y <= 0.0:
        return 0.0
    hi = 1.0
    while phi(hi) < y:
        hi *= 2.0
        if hi > 1e300:
            raise NonFiniteIntegrand("young function never reaches the target level")
    # Halving [0, hi] down to a relative width of 1e-14 at a root as small
    # as the least normal float takes about 1070 steps.
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


def complementary_eval(phi: YoungFunction, y: float) -> float:
    """Value of the complementary function sup_x (x y - phi(x)).

    Closed form for every kind but tabulated, whose value is an exact knot
    scan.  Unbounded suprema return math.inf.
    """
    if y < 0.0:
        raise ValueError("complementary functions are evaluated on [0, inf)")
    if y == 0.0:
        return 0.0
    if y == math.inf:
        return math.inf
    if phi.kind == "phi_p":
        p = phi.p
        if p == 1.0:
            return 0.0 if y <= 1.0 else math.inf
        q = p / (p - 1.0)
        if q * math.log10(y) > 308.0:
            return math.inf
        return y**q / q
    if phi.kind == "tabulated":
        if y > phi._final_slope():
            return math.inf
        return max(t * y - v for t, v in phi.knots)
    if phi.kind == "exp_minus_linear":  # (1 + y) log(1 + y) - y
        if y <= 0.5:
            # The closed form cancels at small y; its Taylor series
            # y^2 sum_{j>=0} (-y)^j / ((j+1)(j+2)) does not.  The sum is at
            # least 0.41 and its terms alternate and fall, so stopping after
            # 50 terms errs by less than the next, 2^-50 / 2652: under a
            # hundredth of an ulp.
            s = 0.0
            for j in range(49, -1, -1):
                s = 1.0 / ((j + 1) * (j + 2)) - y * s
            return y * (y * s)
        L = math.log1p(y)
        return y * L - (y - L)
    # cosh_minus_one: y asinh(y) - (sqrt(1 + y^2) - 1), with the bracket
    # rewritten as y^2 / (sqrt(1 + y^2) + 1), which neither cancels at small
    # y nor overflows at large y.
    return y * math.asinh(y) - y / (math.hypot(1.0, y) + 1.0) * y


class _NormResultFields(NamedTuple):
    value: float
    iterations: int
    bracket: tuple[float, float]
    converged: bool = True


class NormResult(Checked, _NormResultFields):
    """Norm value plus the final bracket of the one-dimensional search.

    For the gauge norm the bracket lives in the same units as the value and
    its width is at most RTOL_NORM * value.  For the infimum-form norm the
    bracket is over the auxiliary scaling variable.  ``converged`` is False
    when the search stopped at its step cap instead of its tolerance.
    """

    __slots__ = ()

    def __post_init__(self):
        lo, hi = self.bracket
        if not (0.0 <= lo <= hi):
            raise ValueError("bracket must satisfy 0 <= lo <= hi")
        if self.value < 0.0:
            raise ValueError("norms are nonnegative")


def _modular(model: HypergroupModel, f: SparseFunction, phi: YoungFunction,
             scale: float) -> float:
    """Integral of phi(scale * |f|) against the invariant measure."""
    total = 0.0
    for x, v in f.values:
        total += phi(scale * abs(v)) * model.haar[x]
        if total == math.inf:
            return math.inf
    return total


def _unit_peak(f: SparseFunction) -> tuple[SparseFunction, int]:
    """(f * 2^s, s) for the s that brings max|f| into [1/2, 1).  Only values
    far below the peak can lose bits, and only where they underflow."""
    shift = -math.frexp(f.max_abs())[1]
    return SparseFunction.from_dict({x: math.ldexp(v, shift) for x, v in f.values}), shift


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, inf where that exceeds the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _norm_value(x: float, e: int) -> float:
    """x * 2^e, raising NonFiniteIntegrand where that is 0 or inf."""
    value = _ldexp(x, e)
    if not 0.0 < value < math.inf:
        raise NonFiniteIntegrand(f"the norm scales back to {value}, outside the float range")
    return value


def luxemburg_norm(model: HypergroupModel, f: SparseFunction,
                   phi: YoungFunction) -> NormResult:
    """Gauge norm inf{k > 0 : modular(f/k) <= 1} by bracketed bisection.

    The search runs on f times the power of two that brings max|f| into
    [1/2, 1) and scales the result back, so every step of it is exact.  The
    bracket starts from max|f| / phi^{-1}(1 / smallest support weight) and
    is expanded geometrically until it straddles the defining inequality;
    the upper end is returned, so the inequality holds at the value itself.
    The float range is the only limit: NonFiniteIntegrand is raised where the
    ratio of the norm to max|f| leaves the normal range, or the norm
    overflows or underflows to zero.  A subnormal norm is returned.
    """
    if f.is_zero():
        return NormResult(0.0, 0, (0.0, 0.0))
    f, shift = _unit_peak(f)
    fmax = f.max_abs()
    m_min = min(model.haar[x] for x, _ in f.values)
    try:  # young_inverse is positive at a positive level
        k0 = min(fmax / young_inverse(phi, 1.0 / m_min), _FLOAT_MAX)
    except NonFiniteIntegrand:
        k0 = fmax
    iters = 0

    def excess(k: float) -> bool:
        return _modular(model, f, phi, 1.0 / k) > 1.0

    if excess(k0):
        lo = hi = k0
        while excess(hi):
            hi *= 2.0
            iters += 1
            if hi / fmax > _FLOAT_MAX:
                raise NonFiniteIntegrand("modular never falls to 1")
    else:
        hi = lo = k0
        while not excess(lo):
            hi = lo
            lo *= 0.5
            iters += 1
            if lo / fmax < sys.float_info.min:
                raise NonFiniteIntegrand("modular never rises above 1")
    while hi - lo > RTOL_NORM * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid):
            lo = mid
        else:
            hi = mid
        iters += 1
    hi = _norm_value(hi, -shift)
    return NormResult(hi, iters, (_ldexp(lo, -shift), hi))


def orlicz_norm(model: HypergroupModel, f: SparseFunction,
                phi: YoungFunction) -> NormResult:
    """Norm through the infimum form inf_k (1 + modular(k f)) / k.

    The objective is convex in 1/k, hence unimodal along log k.  A log-spaced
    scan brackets the minimiser: it extends to the right while the tail keeps
    improving (linear-growth kinds have their infimum at infinity), up to
    k = 1e18 / max|f|, or 1e18 / N, N the gauge norm, where that is larger;
    once more from k = 1 / (2 N) when its last point is still best there
    and that bound lies beyond it; and once more from the bound
    k >= 1 / objective when that lies left of the first grid.  Golden
    section then refines the bracket, stopping after _SCAN_CAP objective
    evaluations with ``converged`` False.

    When max|f| lies outside _SCAN_PEAKS the search runs on f times an exact
    power of two, and the value and bracket are scaled back (the bracket to
    inf where it leaves the float range).  NonFiniteIntegrand is raised
    where the value overflows or underflows to zero, and where 1 / (2 N)
    lies beyond the largest float.
    """
    if f.is_zero():
        return NormResult(0.0, 0, (0.0, 0.0))
    fmax = f.max_abs()
    shift = 0
    if not _SCAN_PEAKS[0] <= fmax <= _SCAN_PEAKS[1]:
        f, shift = _unit_peak(f)
        fmax = f.max_abs()

    def objective(logk: float) -> float:
        k = math.exp(logk)
        return (1.0 + _modular(model, f, phi, k)) / k

    lo = first = math.log(1e-9 / fmax)
    hi = math.log(1e12 / fmax)
    cap = 1e18 / fmax  # the scan extends right while its last point is best
    npts = 61
    iters = 0
    bounded = False  # whether a bound on the minimiser has moved the grid
    while True:
        step = (hi - lo) / (npts - 1)
        vals = [objective(lo + i * step) for i in range(npts)]
        iters += npts
        best = min(range(npts), key=lambda i: (vals[i], i))
        if best == npts - 1 and math.exp(hi) >= cap and not bounded:
            # The objective is at least 1/k and its infimum at most twice the
            # gauge norm N, so the minimiser has k >= 1 / (2 N); and beside a
            # limit of at least N, 1/k is negligible only from 1e18 / N on.
            bounded = True
            gauge = luxemburg_norm(model, f, phi).value
            start = -math.log(2.0 * gauge)
            if start > _LOG_MAX:
                raise NonFiniteIntegrand("the minimising k lies beyond the float range")
            cap = max(cap, 1e18 / gauge)
            if hi < start:
                lo, hi = start, min(start + (hi - lo), _LOG_MAX)
                continue
        if best == npts - 1 and math.exp(hi) < cap and hi < _LOG_MAX:
            lo, hi = hi - 2.0 * step, min(hi + (hi - lo), _LOG_MAX)
            continue
        # The objective is at least 1/k, so the minimiser has k >= 1 / vals[best],
        # which may lie left of the first grid even where that is flat in float.
        floor = -math.log(vals[best])
        if not bounded and -math.inf < floor < first:
            lo, hi, bounded = floor, lo + min(best + 1, npts - 1) * step, True
            continue
        break
    a = lo + max(best - 1, 0) * step
    b = lo + min(best + 1, npts - 1) * step
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
        if iters > _SCAN_CAP:
            break
    value = min(vals[best], objective(0.5 * (a + b)), f1, f2)
    bracket = (_ldexp(math.exp(a), shift), _ldexp(math.exp(b), shift))
    return NormResult(_norm_value(value, -shift), iters, bracket,
                      converged=b - a <= 1e-13)


class Delta2Report(NamedTuple):
    state: str                      # "proven" | "refuted" | "unknown"
    constant: float | None          # doubling constant when proven
    grid_max_ratio: float | None


def delta2_check(phi: YoungFunction) -> Delta2Report:
    """Doubling regularity phi(2t) <= K phi(t).

    Proven analytically for the power kind (K = 2^p).  Otherwise grid ratios
    phi(2t)/phi(t) are examined: a ratio beyond 1e6, or a tail that keeps
    doubling, refutes; bounded inconclusive evidence stays unknown.
    """
    if phi.kind == "phi_p":
        # 2^p leaves the float range at p = 1024, and Delta-2 still holds.
        return Delta2Report("proven", 2.0**phi.p if phi.p < 1024 else math.inf, None)
    ratios = []
    for t in _DELTA2_GRID:
        ft = phi(t)
        if ft <= 0.0 or ft == math.inf:
            continue
        f2t = phi(2.0 * t)
        if f2t == math.inf:
            return Delta2Report("refuted", None, math.inf)
        ratios.append(f2t / ft)
    if len(ratios) < 4:
        return Delta2Report("unknown", None, max(ratios, default=None))
    tail = ratios[-max(2, len(ratios) // 4):]
    increasing = all(b > a for a, b in zip(tail, tail[1:]))
    if max(ratios) > _REFUTE_RATIO or (increasing and tail[-1] >= 2.0 * tail[0]):
        return Delta2Report("refuted", None, max(ratios))
    return Delta2Report("unknown", None, max(ratios))


class L1EmbeddingReport(NamedTuple):
    """Evidence that the Orlicz space embeds into the weighted l1 space.

    ``constant_estimate`` is A_phi(1_X) / m(X), X the carrier: the least
    A_phi(g) / ||g||_1 over all g, psi^{-1}(1 / m(X)), by Hoelder's inequality
    against the gauge norm under the complementary psi.  Not rigorous only
    because the right derivative at zero is a finite difference.
    """

    holds: bool
    right_derivative: float
    derivative_status: str          # "positive" | "zero" | "indeterminate"
    via_finite_window: bool
    constant_estimate: float
    rigorous: bool = False


def l1_embedding_check(model: HypergroupModel, phi: YoungFunction) -> L1EmbeddingReport:
    h = 1e-8
    d1 = phi(h) / h
    d2 = phi(h / 2.0) / (h / 2.0)
    est = 2.0 * d2 - d1
    if est >= 1e-6:
        status = "positive"
    elif abs(est) <= 1e-12:
        status = "zero"
    else:
        status = "indeterminate"
    whole = indicator(model.carrier)
    constant = orlicz_norm(model, whole, phi).value / integrate_haar(model, whole)
    # The window is finite, so the invariant measure of the carrier is finite
    # and the embedding holds regardless of the derivative.
    return L1EmbeddingReport(holds=True, right_derivative=est,
                             derivative_status=status, via_finite_window=True,
                             constant_estimate=constant)
