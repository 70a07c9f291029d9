"""Young functions and the two standard norms they induce on a windowed model.

The gauge (Luxemburg) norm is the smallest scaling that pushes the modular
integral down to 1; it is found by bisection on a bracketed scaling, so the
returned value always satisfies the defining inequality at
value*(1+RTOL_NORM).  The dual-style norm is evaluated through its infimum form
inf_k (1 + modular(k f)) / k.  By Young's equality psi(phi'(t)) = t phi'(t) -
phi(t), psi the complementary function, the objective falls while the modular
of psi(phi') at k f is below 1 and rises beyond, and that modular is
nondecreasing in k; so the minimiser is a monotone root, found by the same
bracket and bisection as the gauge norm (Rao & Ren, Theory of Orlicz Spaces,
1991; Hudzik & Maligranda, Indag. Math. 11, 2000).  Each norm call builds its
modulars once, as closures over the support's (|v|, haar) pairs.  For phi_p
both modulars are sums of t^p / d * h, so the one at scale 1/k is m1 / k^p,
m1 the sum at 1: a search step reads the root m1^(1/p) wherever k lies
outside a band around it that covers the rounding of the root and of the
modular, and evaluates the modular inside the band (_power_band says when
every step evaluates).  So the steps, their count and every bit stay those
of the search that evaluates each step; the other kinds evaluate every
step.  Infinity is an explicit sentinel (math.inf), never a float overflow.
"""
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
_FLOAT_MIN = sys.float_info.min  # least normal ratio of a gauge norm to max|f|
_LEAST = math.ulp(0.0)  # 2^-1074, the least subnormal
_EPS = sys.float_info.epsilon / 2.0  # 2^-53, the unit roundoff
_LOG_MAX = math.log(_FLOAT_MAX)  # e^t - t - 1 overflows beyond here
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
            return y0 + _slope(self, math.inf) * (t - t0)
        (t0, y0), (t1, y1) = ks[i - 1], ks[i]
        return y0 + (y1 - y0) * (t - t0) / (t1 - t0)


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
    nondecreasing slopes (convexity; a slope may fall by a relative 1e-12,
    the rounding of computed slopes), and a strictly positive final slope so
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
        if slopes[-1] == math.inf:  # phi would read inf - inf = nan beyond it
            raise ValueError("knot slopes must be finite")
    for s0, s1 in zip(slopes, slopes[1:]):
        if s1 < s0 * (1.0 - 1e-12):
            raise ValueError("knot slopes must be nondecreasing (convexity)")
    if slopes[-1] <= 0.0:
        raise ValueError("final slope must be positive so the function is unbounded")
    return YoungFunction(kind="tabulated", knots=ks)


def young_inverse(phi: YoungFunction, y: float) -> float:
    """Smallest t with phi(t) >= y, by doubling then bisection.

    The doubling runs up to the largest power of two below the float range
    and raises NonFiniteIntegrand where phi stays below y there."""
    if y <= 0.0:
        return 0.0
    hi = 1.0
    while phi(hi) < y:
        if hi > _FLOAT_MAX / 2.0:
            raise NonFiniteIntegrand("young function never reaches the target level")
        hi *= 2.0
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

    Closed form for every kind but tabulated, whose value is read at the
    knot where its slopes cross y.  Unbounded suprema return math.inf.
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
        if y > _slope(phi, math.inf):
            return math.inf
        # t y - phi(t) rises while phi's slope is below y, so its sup is at
        # the left knot of the first piece whose slope is at least y: the
        # value _dual_term reads on that piece.
        knots = phi.knots
        for (t0, v0), (t1, v1) in zip(knots, knots[1:]):
            if (v1 - v0) / (t1 - t0) >= y:
                break
        return t0 * y - v0
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


def _piece(knots: tuple[tuple[float, float], ...],
           t: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two knots that bound the piece of a tabulated function right of
    t, the last two past the last knot."""
    i = min(bisect_right(knots, t, 1, key=_ABSCISSA), len(knots) - 1)
    return knots[i - 1], knots[i]


def _slope(phi: YoungFunction, t: float) -> float:
    """The right derivative phi'(t) on [0, inf], inf where it passes the
    float range; phi'(inf) is its limit, finite only for phi_p(1) (1) and
    tabulated (the final slope)."""
    if phi.kind == "tabulated":
        (t0, y0), (t1, y1) = _piece(phi.knots, t)
        return (y1 - y0) / (t1 - t0)
    try:
        if phi.kind == "phi_p":
            return t ** (phi.p - 1.0)
        return math.expm1(t) if phi.kind == "exp_minus_linear" else math.sinh(t)
    except OverflowError:
        return math.inf


def _dual_term(phi: YoungFunction):
    """t -> psi(phi'(t)) = t phi'(t) - phi(t) (Young's equality), psi the
    complementary function; nondecreasing in t.  On a piece of a tabulated
    function it is the constant t0 s - y0, (t0, y0) the piece's left knot
    and s its slope.  For the other kinds phi(t) is at most half of
    t phi'(t), so the difference loses at most one bit to cancellation."""
    if phi.kind == "tabulated":
        def term(t: float) -> float:
            (t0, y0), (t1, y1) = _piece(phi.knots, t)
            return t0 * ((y1 - y0) / (t1 - t0)) - y0
    else:
        def term(t: float) -> float:
            y = _slope(phi, t)
            return y if y == math.inf else t * y - phi(t)
    return term


class _NormResultFields(NamedTuple):
    value: float
    iterations: int
    bracket: tuple[float, float]


class NormResult(Checked, _NormResultFields):
    """Norm value plus the final bracket of the one-dimensional search.

    For the gauge norm the bracket lives in the same units as the value and
    its width is at most RTOL_NORM * value.  For the infimum-form norm the
    bracket holds the minimising scaling k, inf where that lies beyond the
    float range or at infinity.
    """

    __slots__ = ()

    def __post_init__(self):
        lo, hi = self.bracket
        if not (0.0 <= lo <= hi):
            raise ValueError("bracket must satisfy 0 <= lo <= hi")
        if self.value < 0.0:
            raise ValueError("norms are nonnegative")


def _support(model: HypergroupModel, f: SparseFunction,
             shift: int) -> list[tuple[float, float]]:
    """The (|v| * 2^shift, haar) pairs of f in support order.  Only values far
    below the peak lose bits, where the scaling underflows; those it takes
    to 0 are left out."""
    haar = model.haar
    return [(a, haar[x]) for x, v in f.values if (a := math.ldexp(abs(v), shift))]


def _modular_of(pairs: list[tuple[float, float]], phi: YoungFunction,
                dual: bool = False):
    """modular(scale): the sum of phi(scale * a) * h over the (a, h) pairs of
    _support, in their order, as the plain loop over ``phi`` would.  With
    ``dual`` the term is _dual_term's psi(phi'(t)) instead, for phi_p
    (p > 1) t^p / q with q = p / (p - 1).  The power kind is
    inlined, and takes its overflow guard only from t = 10^(300/p) on, below
    which the guard cannot fire and t^p cannot overflow."""
    inf = math.inf
    if phi.kind == "phi_p":
        p = phi.p
        d = p / (p - 1.0) if dual else p
        guarded = 10.0 ** (300.0 / p)

        def modular(scale: float) -> float:
            total = 0.0
            for a, h in pairs:
                t = scale * a
                if t >= guarded and p * math.log10(t) > 308.0:
                    return inf
                total += t**p / d * h
                if total == inf:
                    return inf
            return total
    else:
        term = _dual_term(phi) if dual else phi

        def modular(scale: float) -> float:
            total = 0.0
            for a, h in pairs:
                total += term(scale * a) * h
                if total == inf:
                    return inf
            return total
    return modular


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, inf where that exceeds the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _product(x: float, y: float, e: int) -> float:
    """x * y * 2^e, inf where that exceeds the float range; x * y alone may
    pass it."""
    mantissa, exponent = math.frexp(x)
    return _ldexp(mantissa * y, exponent + e)


def _norm_value(x: float, e: int) -> float:
    """x * 2^e, raising NonFiniteIntegrand where that is 0 or inf."""
    value = _ldexp(x, e)
    if not 0.0 < value < math.inf:
        raise NonFiniteIntegrand(f"the norm scales back to {value}, outside the float range")
    return value


_PRUNE_MARGIN = 1e-9  # relative wobble of the float modular that _gauge_exceeds allows


def _gauge_exceeds(model: HypergroupModel, f: SparseFunction, phi: YoungFunction,
                   bound: float) -> bool:
    """Whether luxemburg_norm(model, f, phi), where it returns, is at least
    bound; one modular evaluation, on the unit-peak support the search uses,
    at k = bound * 2^shift.

    Sound where it says True: every float step of the modular (1/k, scale *
    a, phi, the product with the Haar weight, the sum) is monotone in k up
    to rounding, and the margin covers any ulp-level non-monotonicity of
    pow, expm1 or tabulated interpolation, so the search's excess test holds
    for every k' <= k.  The search returns the upper end of its bracket,
    always a tested non-excess point, so that end lies strictly above k and
    scales back to at least bound.  Where k underflows to 0 (bound 0, or
    bound far below max|f| * 2^-1074) every norm the search can return is at
    least bound, 0 included.
    """
    shift = -math.frexp(f.max_abs())[1]
    k = _ldexp(bound, shift)
    modular = _modular_of(_support(model, f, shift), phi)
    return k == 0.0 or modular(1.0 / k) > 1.0 + _PRUNE_MARGIN


_STARTS: dict[tuple[int, float], tuple[YoungFunction, float | None]] = {}


def _gauge_start(phi: YoungFunction, level: float) -> float | None:
    """young_inverse(phi, level), positive at a positive level, or None
    where phi never reaches it.  young_inverse is pure, so it is memoised
    per (phi, level), the oldest of 256 entries going first.  The key is
    phi's id, so no call hashes a knots tuple; each entry holds its phi,
    so that id names no other object while the entry lasts."""
    key = (id(phi), level)
    if key not in _STARTS:
        try:
            t = young_inverse(phi, level)
        except NonFiniteIntegrand:
            t = None
        if len(_STARTS) >= 256:
            del _STARTS[next(iter(_STARTS))]
        _STARTS[key] = (phi, t)
    return _STARTS[key][1]


def _power_band(pairs: list[tuple[float, float]], phi: YoungFunction,
                modular) -> tuple[float, float] | None:
    """(below, above) around the root r = modular(1)^(1/p) of a phi_p
    modular, which is modular(1) / k^p: the float test modular(1/k) > 1
    reads True for every k <= below and False for every k >= above.

    The band is r (1 -/+ delta), delta = 8 (n + 2p + 8 + |ln m1|) 2^-53 / p
    for n pairs and m1 = modular(1): about four times the relative rounding
    of r (the sum, pow at an exponent rounded from 1/p, which |ln m1| / p
    amplifies) plus that of the modular at 1/k, divided by p.  None (every
    step evaluates) for the other kinds, for more than 2^16 pairs, for m1
    outside (2^-900, 2^900), and where terms that pow or the Haar product
    took below the normal range could move m1, or the modular near 1, by
    more than 2^-60.  phi_p's overflow guard returns inf only where
    (a / k)^p passes 10^308 for some a < 1, so, with m1 above 2^-900, only
    where m1 / k^p passes 10^37 and k lies far below r: the root says True
    there too."""
    n = len(pairs)
    if phi.kind != "phi_p" or n > 1 << 16:
        return None
    p = phi.p
    m1 = modular(1.0)
    lost = n * max(1.0, max(h for _, h in pairs)) * (p + 2.0) * _LEAST
    if not 2.0**-900 < m1 < 2.0**900 or lost > 2.0**-60 * min(1.0, m1):
        return None
    r = m1 ** (1.0 / p)
    delta = 8.0 * (n + 2.0 * p + 8.0 + abs(math.log(m1))) * _EPS / p
    return r * (1.0 - delta), r * (1.0 + delta)


def _gauge(pairs: list[tuple[float, float]], phi: YoungFunction, modular,
           rtol: float = RTOL_NORM) -> tuple[float, float, int]:
    """(lo, hi, iterations) of the gauge search of ``modular`` on nonempty
    _support pairs whose largest a lies in [1/2, 1): modular(a / k) exceeds
    1 at k = lo, not at k = hi, and hi - lo <= rtol * hi or no float lies
    between them.  The bracket starts from max a / phi^{-1}(1 / least h),
    within the normal range of its ratio to max a, and doubles or halves
    until it straddles 1.  NonFiniteIntegrand is raised where the ratio of
    hi to max a passes the largest float; where that of lo falls below the
    least normal float, lo is 0 and hi the last k tested.  Where
    _power_band gives a band, a step outside it reads the root instead of
    the modular."""
    band = _power_band(pairs, phi, modular)
    if band is None:
        def excess(k: float) -> bool:
            return modular(1.0 / k) > 1.0
    else:
        below, above = band

        def excess(k: float) -> bool:
            if below < k < above:
                return modular(1.0 / k) > 1.0
            return k <= below

    fmax = max(a for a, _ in pairs)
    t0 = _gauge_start(phi, 1.0 / min(h for _, h in pairs))
    k0 = fmax if t0 is None else min(max(fmax / t0, fmax * _FLOAT_MIN), _FLOAT_MAX)
    iters = 0
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
            if lo / fmax < _FLOAT_MIN:
                return 0.0, hi, iters
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if mid == math.inf:  # lo + hi passed the largest float
            mid = 0.5 * lo + 0.5 * hi
        if mid == lo or mid == hi:
            break
        if excess(mid):
            lo = mid
        else:
            hi = mid
        iters += 1
    return lo, hi, iters


def luxemburg_norm(model: HypergroupModel, f: SparseFunction,
                   phi: YoungFunction) -> NormResult:
    """Gauge norm inf{k > 0 : modular(f/k) <= 1} by bracketed bisection.

    The search (_gauge) runs on f times the power of two that brings max|f|
    into [1/2, 1), so every step of it is exact; its upper end is scaled
    back and returned, so the inequality holds at the value itself.  The
    float range is the only limit: NonFiniteIntegrand is raised where the
    ratio of the norm to max|f| leaves the normal range, or the norm
    overflows or underflows to zero.  A subnormal norm is returned."""
    if f.is_zero():
        return NormResult(0.0, 0, (0.0, 0.0))
    shift = -math.frexp(f.max_abs())[1]
    pairs = _support(model, f, shift)
    lo, hi, iters = _gauge(pairs, phi, _modular_of(pairs, phi))
    if lo == 0.0:
        raise NonFiniteIntegrand("modular never rises above 1")
    hi = _norm_value(hi, -shift)
    return NormResult(hi, iters, (_ldexp(lo, -shift), hi))


def orlicz_norm(model: HypergroupModel, f: SparseFunction,
                phi: YoungFunction) -> NormResult:
    """Norm through the infimum form inf_k (1 + modular(k f)) / k.

    The objective F(k) has right derivative (modular_G(k f) - 1) / k^2,
    modular_G the modular of G = psi(phi') (_modular_of with ``dual``),
    which is nondecreasing in k.  So F is least at k* = inf{k :
    modular_G(k f) >= 1}, and 1 / k* is the gauge norm of f under G:
    _gauge brackets it between adjacent floats, from the gauge search's
    start under phi, and the smaller F of the two ends is returned.  Where
    phi'(inf) = s is finite and psi(s) m(supp f) <= 1, F never rises, and
    the value is its limit s ||f||_1.  The test reads modular_G at k = inf,
    the sum the search would reach, so the two cannot disagree: psi(s) is
    0 for phi_p(1), and for a tabulated phi G's constant t0 s - y0 on the
    last piece, exactly 0 on a single piece.  Where the root lies beyond the
    float range, F falls at least up to the last k tested, and its value
    there is within 1 / k of the infimum.

    As for the gauge norm, the search runs on f times the power of two that
    brings max|f| into [1/2, 1); the value and the bracket of k* are scaled
    back.  NonFiniteIntegrand is raised where the value overflows or
    underflows to zero, or 1 / k* passes the largest float times max|f|.
    """
    if f.is_zero():
        return NormResult(0.0, 0, (0.0, 0.0))
    shift = -math.frexp(f.max_abs())[1]
    pairs = _support(model, f, shift)
    limit = _slope(phi, math.inf)
    # phi_p(1)'s G is 0; the kinds with phi'(inf) = inf read inf at k = inf.
    p1 = phi.kind == "phi_p" and phi.p == 1.0
    dual = None if p1 else _modular_of(pairs, phi, dual=True)
    if dual is None or dual(math.inf) <= 1.0:
        value = _product(limit, math.fsum(a * h for a, h in pairs), -shift)
        return NormResult(_norm_value(value, 0), 0, (math.inf, math.inf))
    lo, hi, iters = _gauge(pairs, phi, dual, 0.0)
    modular = _modular_of(pairs, phi)
    value = min(_product(u, 1.0 + modular(1.0 / u), -shift) for u in (lo, hi) if u)
    bracket = (_ldexp(1.0 / hi, shift), _ldexp(1.0 / lo, shift) if lo else math.inf)
    return NormResult(_norm_value(value, 0), iters, bracket)


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
                             derivative_status=status, constant_estimate=constant)
