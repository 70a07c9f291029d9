"""Weighted translation operators driven by a two-sided index sequence.

The operator at step n multiplies a running product of translated weight
values into the translate of the argument by the sequence's reflected n-th
point.  Two product conventions are supported: the exclusive convention takes
n factors (indices 0..n-1) and makes the step operator the n-th iterate of
the single-step operator on group models; the inclusive convention takes n+1
factors (indices 0..n).  The exclusive convention is the default everywhere.
A negative step index raises ValueError before any other check.

Weight factors at a point x are translated values, i.e. integrals of the
weight against delta_x convolved with the reflected sequence point; closed
weight forms evaluate at any label, never falling back to zero (a geometric
weight past the float range is inf).  Where the family's point law gives
delta_x * delta_y as the exact unit atom {u: 1.0}, the factor is w(u), the
bits of 0.0 + w(u) * 1.0, and the pair memo is not touched; other products
integrate over the memoised atoms.  The weight keeps one row of factors per
(model, sequence, point), row[j] being the factor for the sequence point of
index -j, and lengthens it only when a product needs more factors; the
powers of one center element z are one sequence, keyed by z.  Powers
of a center element on a group (the integers, a validated Cayley table)
share their rows instead: row(x z^-1)[j] is row(x)[j+1], so the weight keeps
one tuple of values per orbit of the center element, w at consecutive
points x z^q, and one position per point, and a row is a slice of it.
A product is ``math.prod`` over the factors from the last one down to
index 0, started at the value it multiplies.  ``math.prod`` multiplies C
doubles left to right and an IEEE product does not depend on the order of
its two operands, so the result has the bits of the loop
``acc = row[j] * acc`` for j from the last factor down to 0, the rounding
of iterating the single-step operator.  The hereditary pair is the shifted
product and the reciprocal product along powers of a center element, so it
reads the same orbits and rows.

A weight product, the one started at 1.0, is kept per (model, sequence) and
(x, factor count) once ``weight_product`` computes it; a call that raises
keeps nothing, so computing it again raises the same error.  The step
operator starts each product at a translated value instead, so it
multiplies the stored factors afresh.  The weight keeps its value at each
label read (``translated_weight`` reads it), so each label's value is
computed once.

Along powers of z on a group every product is w over consecutive points of
one orbit of z, the shifted product at x and step n being the product at
x z^n, so the probes read the orbit once per point of E and take each
product as a ``math.prod`` slice of it, the slice ``_cocycle`` takes
(``_orbit_products``).  The step operator at n+1 is the one at n relabelled
by z times w at each new point, the same left fold, so the orbit scan
relabels.  A step whose checks might fail is left to the per-(x, n) call,
which raises as it always has.
"""
import enum
import math
from collections import defaultdict
from collections.abc import Hashable
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import NotCentral, WindowOverflow
from .functions import SparseFunction, translate
from .hypergroups import HypergroupModel
from .records import Checked


class ProductConvention(enum.Enum):
    INCLUSIVE = "inclusive"              # n+1 factors, indices 0..n
    ITERATE_EXCLUSIVE = "iterate_exclusive"  # n factors, indices 0..n-1

    def factors(self, n: int) -> int:
        """Number of weight factors used at step n, which must be
        nonnegative."""
        if n < 0:
            raise ValueError("step index must be nonnegative")
        # The member's value: the enum class's attribute lookup is slower.
        return n + 1 if self._value_ == "inclusive" else n


DEFAULT_CONVENTION = ProductConvention.ITERATE_EXCLUSIVE


class _WeightFields(NamedTuple):
    form: str
    value: float = 1.0
    threshold: int = 0
    low: float = 1.0
    high: float = 1.0
    entries: tuple[tuple[int, float], ...] = ()
    default: float = 1.0
    base: float = 1.0
    ratio: float = 1.0


class Weight(Checked, _WeightFields):
    """Bounded positive weight given by a closed form.

    form is one of "constant", "step" (low value up to the threshold, high
    value above it), "table" (explicit values with a default elsewhere), or
    "geometric" (base * ratio^label, inf where that exceeds the float range).
    """

    def __post_init__(self):
        positives = {"constant": (self.value,), "step": (self.low, self.high),
                     "table": tuple(v for _, v in self.entries) + (self.default,),
                     "geometric": (self.base, self.ratio)}
        if self.form not in positives:
            raise ValueError(f"unknown weight form {self.form!r}")
        for v in positives[self.form]:
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError("weight parameters must be finite and positive")

    def __call__(self, label: int) -> float:
        if self.form == "constant":
            return self.value
        if self.form == "step":
            return self.low if label <= self.threshold else self.high
        if self.form == "table":
            return self._lookup.get(label, self.default)
        try:
            return self.base * self.ratio**label
        except OverflowError:  # the power is past the float range
            return math.inf

    @cached_property
    def _lookup(self) -> dict[int, float]:
        return dict(self.entries)

    @cached_property
    def _values(self) -> "_LabelValues":
        """The value at each label read so far, computed on its first read."""
        return _LabelValues(self)

    @cached_property
    def _memo(self) -> defaultdict:
        """Caches of values derived from this weight, one dict per key:
        ("rows", model, sequence key) maps a point to its factor row,
        ("orbits", model, z) a point to its orbit state along powers of z,
        ("products", model, sequence key) an (x, factor count) pair to its
        weight product, and ("reports", model, z) a (phi, E, horizon,
        convention) key to the center-conditions report, which
        ``dynamics.probe_center_conditions``, ``probe_hereditary`` and
        ``build_transitivity_witness`` read.  An entry is only ever
        added, or replaced whole by one that agrees with it wherever both
        hold a value, so a reader racing a writer sees correct values."""
        return defaultdict(dict)

    def sup_over(self, labels) -> float:
        return max(map(self, labels))

    def inf_over(self, labels) -> float:
        return min(map(self, labels))


class _LabelValues(dict):
    """A weight's value at each label read so far."""

    __slots__ = ("_weight",)

    def __init__(self, weight: Weight):
        super().__init__()
        self._weight = weight

    def __missing__(self, label: int) -> float:
        value = self[label] = self._weight(label)
        return value


def constant_weight(value: float) -> Weight:
    return Weight(form="constant", value=float(value))


def step_weight(threshold: int, low: float, high: float) -> Weight:
    return Weight(form="step", threshold=int(threshold), low=float(low), high=float(high))


def table_weight(values: Mapping[int, float], default: float = 1.0) -> Weight:
    return Weight(form="table",
                  entries=tuple(sorted((int(k), float(v)) for k, v in values.items())),
                  default=float(default))


def geometric_weight(base: float, ratio: float) -> Weight:
    return Weight(form="geometric", base=float(base), ratio=float(ratio))


class EtaSequence:
    """Two-sided sequence of window points with a(0) the identity and
    a(-n) the involution of a(n); a subclass gives a(n) for n >= 1.  Each
    point is memoised once reached; the memo only ever adds entries equal
    to what any caller would compute."""

    def __init__(self, model: HypergroupModel):
        self.model = model
        self._points: dict[int, int] = {}
        # The key of this sequence in the weight's memos of factor rows and
        # weight products.
        self._key: Hashable = self

    def __call__(self, n: int) -> int:
        a = self._points.get(n)
        if a is None:
            if n == 0:
                a = self.model.identity
            else:
                a = self._forward(abs(n))
                if n < 0:
                    a = self.model.involution(a)
            self._points[n] = a
        return a

    def _forward(self, n: int) -> int:
        raise NotImplementedError


class CenterPowers(EtaSequence):
    """a(n) = n-th power of a fixed center element."""

    def __init__(self, model: HypergroupModel, z: int):
        if not model.is_central(z):
            raise NotCentral(f"label {z} is not central")
        super().__init__(model)
        self.z = self._key = z  # every CenterPowers of one z is one sequence
        self._powers = [model.identity]

    def _forward(self, n: int) -> int:
        powers = self._powers
        while len(powers) <= n:
            powers.append(self.model.point_product(powers[-1], self.z))
        return powers[n]


class TableEta(EtaSequence):
    """Explicit entries for positive indices."""

    def __init__(self, model: HypergroupModel, entries: Mapping[int, int]):
        super().__init__(model)
        self._entries = {int(k): int(v) for k, v in entries.items()}
        for k, v in self._entries.items():
            if k < 1:
                raise ValueError("table entries are indexed from 1")
            model._require_in_window(v)

    def _forward(self, n: int) -> int:
        entry = self._entries.get(n)
        if entry is None:
            raise WindowOverflow(f"sequence index {n} beyond the declared table")
        return entry


def center_powers(model: HypergroupModel, z: int) -> CenterPowers:
    return CenterPowers(model, z)


def eta_from_table(model: HypergroupModel, entries: Mapping[int, int]) -> TableEta:
    return TableEta(model, entries)


def translated_weight(model: HypergroupModel, w: Weight, x: int, y: int) -> float:
    """Integral of the weight against delta_x * delta_y using exact atoms:
    w(u) where the point law gives the unit atom u."""
    model._require_in_window(x, y)
    u = model._law(x, y)
    values = w._values
    if u is not None:
        return values[u]
    s = 0.0
    for u, m in model._pair(x, y)[0].items():
        s += values[u] * m
    return s


def _cocycle(model: HypergroupModel, w: Weight, eta: EtaSequence, x: int,
             count: int, acc: float) -> float:
    """Multiply the translated weight factors at x for indices count-1 down
    to 0 onto acc, innermost first, from the weight's row for (model, eta, x);
    see the module docstring for why the bits match the plain loop."""
    if count == 0:
        return acc
    if isinstance(eta, CenterPowers) and model.group:
        # The plain loop's first call is eta(-(count-1)), then the window
        # check on x; its factors are then w at x z^-j for j < count.
        eta(1 - count)
        model._require_in_window(x)
        vals, i = _orbit_span(model, w, eta, x, count - 1)
        return math.prod(vals[i - count + 1:i + 1], start=acc)
    rows = w._memo["rows", model, eta._key]
    row = rows.get(x, ())
    if len(row) < count:
        # Missing factors are computed from the highest index down, the order
        # of the plain loop, so a failing index raises the same error.
        new = [translated_weight(model, w, x, eta(-j))
               for j in range(count - 1, len(row) - 1, -1)]
        row = rows[x] = row + tuple(reversed(new))
    return math.prod(row[count - 1::-1], start=acc)


def _orbit_span(model: HypergroupModel, w: Weight, eta: CenterPowers, x: int,
                below: int, above: int = 0) -> tuple[tuple[float, ...], int]:
    """(vals, i) with vals[i + j] the value of w at x z^j for
    -below <= j <= above, z being eta's center element.

    Each orbit of z keeps one state (lo, vals, first, last): vals[k] is w at
    the point of position lo + k, where position q + 1 is the point of
    position q times z, and first and last are the end points.  ``where``
    gives each point reached its orbit and position.  A new point takes the
    position next to a neighbour already placed, or ``below`` above its
    span's far end x z^-below if that is placed, or starts an orbit of its
    own.  The state is extended at either end and replaced whole, so a
    reader racing a writer sees a consistent one; an end that reaches a
    point another state holds takes that state in whole, its values keeping
    their bits (both hold w at the same labels) and its points placed anew,
    so no point is held twice.
    """
    z = eta.z
    where = w._memo["orbits", model, z]
    law, zi = model._law, model.involution(z)
    hit = where.get(x)
    if hit is None:
        for nb, step in ((law(x, zi), 1), (law(x, z), -1), (law(x, eta(-below)), below)):
            near = where.get(nb)
            if near is not None:
                hit = (near[0], near[1] + step)
                break
        else:
            hit = ([(0, (w(x),), x, x)], 0)
        where.setdefault(x, hit)
    orbit, q = hit
    lo, vals, first, last = orbit[0]
    start = q - below
    if start < lo or q + above >= lo + len(vals):
        up, p = [], lo + len(vals)
        while p <= q + above:
            last = law(last, z)
            held = where.setdefault(last, (orbit, p))
            if held[0] is orbit:
                up.append(w(last))
                p += 1
            else:  # another state starts at last: take it in
                olo, ovals, _, last = held[0][0]
                _take_in(where, law, z, held[0], orbit, p - olo)
                up += ovals
                p += len(ovals)
        down, p = [], lo - 1
        while p >= start:
            first = law(first, zi)
            held = where.setdefault(first, (orbit, p))
            if held[0] is orbit:
                down.append(w(first))
                p -= 1
            else:  # another state ends at first: take it in
                olo, ovals, first, _ = held[0][0]
                _take_in(where, law, z, held[0], orbit, p - olo - len(ovals) + 1)
                down += reversed(ovals)
                p -= len(ovals)
        down.reverse()
        lo = p + 1
        vals = (*down, *vals, *up)
        orbit[0] = (lo, vals, first, last)
    return vals, q - lo


def _take_in(where: dict, law, z: int, other: list, orbit: list,
             shift: int) -> None:
    """Place every point the state ``other`` holds in ``orbit``, at its
    position there moved by shift."""
    _, vals, point, _ = other[0]
    for _ in vals:
        held = where[point]
        if held[0] is other:
            where[point] = (orbit, held[1] + shift)
        point = law(point, z)


def weight_product(model: HypergroupModel, w: Weight, eta: EtaSequence,
                   x: int, n: int,
                   convention: ProductConvention = DEFAULT_CONVENTION) -> float:
    """Running product of translated weight values at x (the step-n cocycle),
    kept per (x, factor count) for the model and sequence."""
    count = convention.factors(n)
    products = w._memo["products", model, eta._key]
    product = products.get((x, count))
    if product is None:  # a call that raises stores nothing
        product = products[x, count] = _cocycle(model, w, eta, x, count, 1.0)
    return product


def shifted_weight_product(model: HypergroupModel, w: Weight, eta: EtaSequence,
                           x: int, n: int,
                           convention: ProductConvention = DEFAULT_CONVENTION) -> float:
    """The step-n product evaluated at the point x shifted by the n-th
    sequence element, which must be central."""
    convention.factors(n)  # a negative step is rejected first
    return weight_product(model, w, eta, model.point_product(x, eta(n)), n, convention)


def _orbit_products(model: HypergroupModel, w: Weight, eta: EtaSequence,
                    e: Sequence[int], top: int, convention: ProductConvention
                    ) -> Callable[[int, bool], list[float]]:
    """read(n, shifted): ``weight_product`` at each point x of e at step n,
    or ``shifted_weight_product`` when shifted, for steps 0 <= n <= top.

    Along powers of z on a group the product at x z^s and step n is w over
    x z^(s-count+1) .. x z^s, so one ``_orbit_span`` read per point, down to
    the first factor of the last step and up to x z^top or the window edge,
    gives each product as the ``math.prod`` slice ``_cocycle`` takes, with
    its bits.  A product whose checks might fail (z^n, and with it
    z^-(count-1), or x z^n off the window, or x itself) is left to the
    per-point call, which raises as it always has; so is every product on
    any other sequence or model."""
    reach, spans = -1, []
    if isinstance(eta, CenterPowers) and model.group:
        try:
            eta(top)
            reach = top
        except WindowOverflow:  # the last power in the window
            reach = len(eta._powers) - 1
        below = max(convention.factors(reach) - 1, 0)
        law, labels, z = model._law, model._labels, eta.z
        for x in e:
            # up: the largest j <= reach with x .. x z^j in the window, else -1
            up, p = -1, x
            while p in labels and up < reach:
                up, p = up + 1, law(p, z)
            spans.append((up, *_orbit_span(model, w, eta, x, below, up)) if up >= 0
                         else (-1, (), 0))

    def read(n, shifted):
        product = shifted_weight_product if shifted else weight_product
        if not 0 <= n <= reach:
            return [product(model, w, eta, x, n, convention) for x in e]
        count, s = convention.factors(n), n if shifted else 0
        return [math.prod(vals[i + s - count + 1:i + s + 1], start=1.0) if s <= up
                else product(model, w, eta, x, n, convention)
                for x, (up, vals, i) in zip(e, spans)]
    return read


def apply_weighted_translation(model: HypergroupModel, f: SparseFunction, w: Weight,
                               eta: EtaSequence, n: int,
                               convention: ProductConvention = DEFAULT_CONVENTION
                               ) -> SparseFunction:
    """Step-n operator: weight product times the translate by the reflected point.

    Per point the factors multiply innermost-first onto the translated value,
    matching the float rounding of iterating the single-step operator.
    """
    count = convention.factors(n)
    t = translate(model, f, eta(-n))
    return SparseFunction.from_dict(
        {x: _cocycle(model, w, eta, x, count, tv) for x, tv in t.values})


def _relabelled_step(model: HypergroupModel, w: Weight, eta: EtaSequence,
                     f: SparseFunction, g: SparseFunction, n: int
                     ) -> SparseFunction | None:
    """The step-(n+1) operator applied to f, given g, the step-n one: along
    powers of z on a group its translated value at x z is the one at x, and
    its product at x z is the one at x times w(x z), the left fold
    ``math.prod`` makes, so it is g relabelled by z times w at each new
    point.  None where that is not known to be the step: off a group under
    CenterPowers, where g lost a point of f to a zero product, or where a
    check of the step (z^(n+1) and each new point in the window) fails."""
    if not (isinstance(eta, CenterPowers) and model.group) or len(g.values) != len(f.values):
        return None
    try:
        eta(n + 1)
    except WindowOverflow:
        return None
    labels, law, z = model._labels, model._law, eta.z
    moved = [(law(x, z), v) for x, v in g.values]
    if not all(x in labels for x, _ in moved):
        return None
    values = w._values
    return SparseFunction.from_dict({x: v * values[x] for x, v in moved})


def apply_single_step(model: HypergroupModel, f: SparseFunction, a: int,
                      w: Weight) -> SparseFunction:
    """One weighted translation: pointwise weight times translate by the
    involution of a."""
    t = translate(model, f, model.involution(a))
    return SparseFunction.from_dict({x: w(x) * tv for x, tv in t.values})


def iterate_single_step(model: HypergroupModel, f: SparseFunction, a: int,
                        w: Weight, n: int) -> SparseFunction:
    g = f
    for _ in range(n):
        g = apply_single_step(model, g, a, w)
    return g


def apply_right_inverse(model: HypergroupModel, f: SparseFunction, w: Weight,
                        eta: EtaSequence, n: int,
                        convention: ProductConvention = DEFAULT_CONVENTION
                        ) -> SparseFunction:
    """Right inverse of the step-n operator: divide by the weight product
    and shift the support back by the (-n)-th sequence element, which must
    be central."""
    convention.factors(n)  # a negative step is rejected first
    out: dict[int, float] = {}
    for u, fv in f.values:
        x = model.point_product(u, eta(-n))
        out[x] = fv / weight_product(model, w, eta, u, n, convention)
    return SparseFunction.from_dict(out)


def hereditary_weight_pair(model: HypergroupModel, x: int, z: int, w: Weight,
                           n: int) -> tuple[float, float]:
    """The center pair along powers of z: the forward product over shifts
    by z^1..z^n (``shifted_weight_product``) and the reciprocal backward
    product over shifts by z^0..z^-(n-1) (1 / ``weight_product``), under
    ``CenterPowers(model, z)``.  x, z^n and x z^n must lie in the window."""
    eta = CenterPowers(model, z)
    return (shifted_weight_product(model, w, eta, x, n),
            1.0 / weight_product(model, w, eta, x, n))
