"""Finitely supported real functions on a windowed hypergroup model.

The translate of f by y at x is the integral of f against delta_x * delta_y.
Exact atoms are used even when a pair's support leaves the window; what must
stay inside the window is the support of the *result*, and a translate whose
true support would stick out raises WindowOverflow.

Where the family's point law gives delta_u * delta_{y^-} as one exact unit
atom, the translate reads the preimage of u and its mass 1.0 from the law
and makes no pair-memo entry; on a group (the integers, a validated Cayley
table) every point is such an atom and a translate is a relabelling.  The
memo is read only for products the law leaves open.
"""
import math
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import NonFiniteValue, WindowOverflow
from .hypergroups import HypergroupModel
from .records import Checked, unsupported


class _SparseFunctionFields(NamedTuple):
    values: tuple[tuple[int, float], ...]


class SparseFunction(Checked, _SparseFunctionFields):
    """Sorted (label, value) pairs; zero values are never stored, and a
    value that is not finite raises NonFiniteValue."""

    __mul__ = __rmul__ = unsupported

    def __post_init__(self):
        labels = [v[0] for v in self.values]
        if labels != sorted(labels) or len(labels) != len(set(labels)):
            raise ValueError("values must be sorted by label and unique")
        for _, v in self.values:
            if not math.isfinite(v):
                raise NonFiniteValue("stored values must be finite")
            if v == 0.0:
                raise ValueError("stored values must be nonzero")

    @classmethod
    def from_dict(cls, d: Mapping[int, float]) -> "SparseFunction":
        return cls(tuple(sorted((int(x), float(v)) for x, v in d.items() if v != 0.0)))

    def value_at(self, label: int) -> float:
        return self._lookup.get(label, 0.0)

    @cached_property
    def _lookup(self) -> dict[int, float]:
        return dict(self.values)

    def support(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.values)

    def is_zero(self) -> bool:
        return not self.values

    def scale(self, c: float) -> "SparseFunction":
        return SparseFunction.from_dict({x: c * v for x, v in self.values})

    def __add__(self, other: "SparseFunction") -> "SparseFunction":
        acc = dict(self.values)
        for x, v in other.values:
            acc[x] = acc.get(x, 0.0) + v
        return SparseFunction.from_dict(acc)

    def __sub__(self, other: "SparseFunction") -> "SparseFunction":
        acc = dict(self.values)
        for x, v in other.values:
            acc[x] = acc.get(x, 0.0) - v
        return SparseFunction.from_dict(acc)

    def restrict(self, labels: Iterable[int]) -> "SparseFunction":
        keep = set(labels)
        return SparseFunction(tuple((x, v) for x, v in self.values if x in keep))

    def max_abs(self) -> float:
        return max((abs(v) for _, v in self.values), default=0.0)


ZERO_FUNCTION = SparseFunction(())


def indicator(labels: Iterable[int]) -> SparseFunction:
    return SparseFunction(tuple((int(x), 1.0) for x in sorted(set(labels))))


def translate(model: HypergroupModel, f: SparseFunction, y: int) -> SparseFunction:
    """Translate of f by the window point y through the point convolutions.

    One pass over supp f visits, for each u, the preimages that the pair
    (u, y^-) lists, and raises WindowOverflow at the first u whose
    preimages leave the window.  Each output point sums its terms in
    increasing u, the order of a scan over the whole carrier.  A mass the
    point law gives is exactly 1.0, so its term has the bits the memo's
    would.
    """
    return SparseFunction.from_dict(_translate_sums(model, f, y))


def _translate_sums(model: HypergroupModel, f: SparseFunction, y: int,
                    at: set[int] | None = None) -> dict[int, float]:
    """The sums of ``translate`` before they are stored, zeros included;
    with ``at``, only those at its points, each from the same terms in the
    same order, after the same window checks."""
    model._require_in_window(y)
    out: dict[int, float] = {}
    law, pair = model._law, model._pair
    for u, fv in f.values:
        xs, fits = model._preimages(u, y)
        if not fits:
            raise WindowOverflow(
                f"translate by {y} needs preimages of {u} outside the window")
        for x in xs if at is None else at.intersection(xs):
            v = law(x, y)
            m = pair(x, y)[0].get(u, 0.0) if v is None else float(v == u)
            if m != 0.0:
                out[x] = out.get(x, 0.0) + fv * m
    return out


def integrate_haar(model: HypergroupModel, f: SparseFunction) -> float:
    return sum(v * model.haar[x] for x, v in f.values)


def measure_of_set(model: HypergroupModel, labels: Iterable[int]) -> float:
    return sum(model.haar_weight(x) for x in sorted(set(labels)))

