"""Discrete hypergroup models whose convolutions are computed on demand.

A model holds a truncation window, the involution, the identity and the
derived right-invariant measure.  The convolution of two point masses comes
from the family's closed form the first time a pair is asked for, and is
kept in a per-model memo together with whether its support fits the window;
whether a label is central is likewise decided when first asked, from two
of those pairs.  A translate visits only the points it needs instead of the
whole carrier: by the support-reversal law of hypergroups, delta_x * delta_y
has an atom at u exactly when delta_u * delta_{y^-} has one at x, so the
memoised pair (u, y^-) lists the preimages of u and says whether they fit
the window.  Exact results whose support leaves the window raise
:class:`~hyperorlicz.errors.WindowOverflow`; nothing is ever truncated
silently.

All operations are pure.  The memo only ever adds entries equal to what any
caller would compute, so instances can be shared between threads: a race
costs at most a repeated computation of the same value.

Carrier conventions: families on the nonnegative integers use the labels
``0..window``; the integer-group family uses ``-window..window``; a
table-defined model's carrier is exactly the table's label set.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    EPS_PROB,
    TOL_ASSOC,
    TOL_ATOM,
    NonFiniteValue,
    NotCentral,
    WindowOverflow,
)
from .records import Checked, unsupported


class _SparseMeasureFields(NamedTuple):
    atoms: tuple[tuple[int, float], ...]
    probability: bool = False


class SparseMeasure(Checked, _SparseMeasureFields):
    """Finitely supported nonnegative measure, stored as sorted (label, mass) atoms.

    Atoms are strictly positive; zero masses are never stored.  When
    ``probability`` is set the total mass must be 1 within ``EPS_PROB``.
    """

    __add__ = __mul__ = __rmul__ = unsupported

    def __post_init__(self):
        labels = [a[0] for a in self.atoms]
        if labels != sorted(labels) or len(labels) != len(set(labels)):
            raise ValueError("atoms must be sorted by label and unique")
        for _, m in self.atoms:
            if not (m > 0.0) or not math.isfinite(m):
                raise ValueError("atom masses must be finite and strictly positive")
        if self.probability and abs(self.mass() - 1.0) > EPS_PROB:
            raise ValueError(f"probability measure has mass {self.mass()!r}")

    @classmethod
    def from_dict(cls, d: Mapping[int, float], probability: bool = False) -> "SparseMeasure":
        atoms = tuple(sorted((int(x), float(m)) for x, m in d.items() if m != 0.0))
        return cls(atoms, probability)

    def mass(self) -> float:
        return sum(m for _, m in self.atoms)

    def support(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.atoms)

    def value_at(self, label: int) -> float:
        return self._lookup.get(label, 0.0)

    @cached_property
    def _lookup(self) -> dict[int, float]:
        return dict(self.atoms)


def point_mass(label: int) -> SparseMeasure:
    return SparseMeasure(((label, 1.0),), probability=True)


def _is_point_mass(atoms: Mapping[int, float], label: int) -> bool:
    if abs(atoms.get(label, 0.0) - 1.0) > TOL_ATOM:
        return False
    return all(m <= TOL_ATOM for x, m in atoms.items() if x != label)


def is_point_mass_at(mu: SparseMeasure, label: int) -> bool:
    return _is_point_mass(mu._lookup, label)


def _max_deviation(a: Mapping[int, float], b: Mapping[int, float]) -> float:
    """Largest per-label difference between two atom maps."""
    dev = 0.0
    for u, m in a.items():
        d = abs(m - b.get(u, 0.0))
        if d > dev:
            dev = d
    for u, m in b.items():
        if u not in a and abs(m) > dev:
            dev = abs(m)
    return dev


# The axioms verify_axioms checks, in the order its findings and the axioms
# report list them.
AXIOMS = ("involution", "probability-mass", "identity",
          "support-identity", "adjoint", "associativity")


class AxiomViolation(NamedTuple):
    axiom: str                 # one of AXIOMS
    witness: tuple[int, ...]
    detail: str


class CenterReport(NamedTuple):
    """Elements whose self-convolution with their involution is the identity mass."""

    members: tuple[int, ...]
    horizon: int


class _Family:
    """Closed-form description of one hypergroup family (untruncated):
    ``raw_convolve`` takes any two labels of the family's space, in the
    window or not, and ``has_label`` tells which labels the space has."""

    signed = False  # carrier includes negative labels

    def has_label(self, u: int) -> bool:
        return self.signed or u >= 0

    def involution(self, x: int) -> int:
        raise NotImplementedError

    def raw_convolve(self, x: int, y: int) -> dict[int, float]:
        raise NotImplementedError

    def haar_weight(self, x: int) -> float:
        """The right-invariant measure at x, normalised at the identity: the
        reciprocal of (delta_x * delta_{x^-})({e}), correctly rounded.  Where
        it leaves the float range it is inf or raises OverflowError."""
        raise NotImplementedError

    def carrier(self, window: int) -> tuple[int, ...]:
        if self.signed:
            return tuple(range(-window, window + 1))
        return tuple(range(0, window + 1))


class _DunklRamirez(_Family):
    """Hermitian family on the nonnegative integers with parameter 0 < a <= 1/2.

    Distinct points convolve to the point mass at their maximum; equal points
    spread geometrically over the initial segment.
    """

    def __init__(self, a: float):
        if not (0.0 < a <= 0.5):
            raise ValueError("parameter a must lie in (0, 1/2]")
        self.a = float(a)

    def involution(self, x):
        return x

    def raw_convolve(self, r, s):
        if r != s:
            return {max(r, s): 1.0}
        if r == 0:
            return {0: 1.0}
        a = self.a
        out = {0: a**r / (1.0 - a)}
        for k in range(1, r):
            out[k] = a ** (r - k)
        top = (1.0 - 2.0 * a) / (1.0 - a)
        if top > 0.0:
            out[r] = top
        return out

    def haar_weight(self, x):
        # With a = p/q exactly, (1 - a) / a^x = (q - p) q^(x-1) / p^x: a
        # ratio of integers, which int division rounds once.
        p, q = self.a.as_integer_ratio()
        return (q - p) * q ** (x - 1) / p**x if x else 1.0


class _SU2(_Family):
    """Hermitian family on the nonnegative integers from dimension-weighted
    tensor decompositions: supports run every second label between the
    difference and the sum."""

    def involution(self, x):
        return x

    def raw_convolve(self, m, n):
        den = float((m + 1) * (n + 1))
        return {k: (k + 1) / den for k in range(abs(m - n), m + n + 1, 2)}

    def haar_weight(self, x):
        return float((x + 1) * (x + 1))


class _IntegerGroup(_Family):
    """The group of integers viewed as a hypergroup; counting measure."""

    signed = True

    def involution(self, x):
        return -x

    def raw_convolve(self, x, y):
        return {x + y: 1.0}

    def haar_weight(self, x):
        return 1.0


class _TableFamily(_Family):
    """Finite hypergroup given by an explicit table; the carrier is the whole
    space.  Each row is read through :meth:`SparseMeasure.from_dict` at load,
    so labels and masses are converted, zero masses dropped, and a mass that
    is negative or not finite raises ValueError."""

    def __init__(self, conv, involution_map, identity):
        self._inv = involution_map
        self._identity = identity
        self._carrier = tuple(sorted(involution_map))
        self._conv: dict[tuple[int, int], dict[int, float]] = {
            (x, y): dict(SparseMeasure.from_dict(conv[(x, y)]).atoms)
            for x in self._carrier for y in self._carrier}

    def involution(self, x):
        return self._inv[x]

    def raw_convolve(self, x, y):
        return self._conv[(x, y)]

    def haar_weight(self, x):
        v = self._conv[(x, self._inv[x])].get(self._identity, 0.0)
        if v <= 0.0:
            raise ValueError(f"table row ({x},{self._inv[x]}) has no identity atom; "
                             "cannot derive an invariant measure")
        if 1.0 / v == math.inf:
            raise ValueError(f"table row ({x},{self._inv[x]}) has the identity atom "
                             f"{v!r}, whose reciprocal Haar weight exceeds the float range")
        return 1.0 / v

    def has_label(self, u):
        return u in self._inv

    def carrier(self, window):
        return self._carrier


class HypergroupModel:
    """Windowed model of a discrete hypergroup with on-demand convolutions.

    The exact convolution of a pair of window points is computed from the
    family's closed form when first asked for and memoised.  Pairs whose
    support leaves the window are kept (the exact atoms are still needed for
    translation and for the weight factors) but flagged, and
    :meth:`convolve_points` refuses to return them.  Construction computes
    only the invariant measure, one closed-form weight per label and no
    convolution.  The memos, of pairs, of :meth:`is_central` answers and of
    :meth:`verify_axioms` findings, only ever add entries equal to what any
    caller would compute, so a model can be shared between threads.
    """

    def __init__(self, family: _Family, window: int, identity: int = 0):
        if window < 1:
            raise ValueError("window bound must be at least 1")
        self.window = int(window)
        self.identity = identity
        self._fam = family
        self.carrier: tuple[int, ...] = family.carrier(window)
        self._labels = frozenset(self.carrier)
        if self.identity not in self._labels:
            raise ValueError("identity label missing from carrier")
        # (x, y) -> (atoms of delta_x * delta_y in label order, support fits)
        self._pairs: dict[tuple[int, int], tuple[dict[int, float], bool]] = {}
        # labels checked -> verify_axioms findings on them
        self._findings: dict[tuple[int, ...], tuple[AxiomViolation, ...]] = {}
        # label -> whether it is central, filled in by is_central
        self._central: dict[int, bool] = {}

        # Right-invariant measure normalised at the identity: the reciprocal
        # of the identity atom of delta_x * delta_{x^-}, correctly rounded,
        # so closed-form weights come out exact.
        haar: dict[int, float] = {}
        for x in self.carrier:
            try:
                w = family.haar_weight(x)
            except OverflowError:
                w = math.inf
            if w == math.inf:
                raise NonFiniteValue(f"the Haar weight at label {x} exceeds "
                                     "the float range")
            haar[x] = w
        if abs(haar[self.identity] - 1.0) > TOL_ATOM:
            raise ValueError("invariant measure is not normalised at the identity")
        self.haar: dict[int, float] = haar

    # -- basic structure ---------------------------------------------------

    def involution(self, x: int) -> int:
        return self._fam.involution(x)

    def in_window(self, label: int) -> bool:
        return label in self._labels

    def _require_in_window(self, *labels: int) -> None:
        for x in labels:
            if x not in self._labels:
                raise ValueError(f"label {x} lies outside the truncation window")

    def haar_weight(self, x: int) -> float:
        self._require_in_window(x)
        return self.haar[x]

    # -- convolution -------------------------------------------------------

    def _pair(self, x: int, y: int) -> tuple[dict[int, float], bool]:
        """Memoised (atoms, fits) of delta_x * delta_y: the exact nonzero
        atoms in label order, and whether they all lie in the window."""
        entry = self._pairs.get((x, y))
        if entry is None:
            raw = self._fam.raw_convolve(x, y)
            atoms = {u: m for u, m in sorted(raw.items()) if m != 0.0}
            labels = self._labels
            entry = (atoms, all(u in labels for u in atoms))
            self._pairs[(x, y)] = entry
        return entry

    def _preimages(self, u: int, y: int) -> tuple[dict[int, float], bool]:
        """(atoms, fits) of delta_u * delta_{y^-}.  By the support-reversal
        law its atoms are the labels x where (delta_x * delta_y)({u}) is
        nonzero, and fits says whether they are all window labels.  A label
        outside the family's space has no preimages."""
        if not self._fam.has_label(u):
            return {}, True
        return self._pair(u, self.involution(y))

    def raw_convolve_points(self, x: int, y: int) -> SparseMeasure:
        """Exact convolution of two point masses, support possibly off-window."""
        self._require_in_window(x, y)
        return SparseMeasure(tuple(self._pair(x, y)[0].items()))

    def convolve_points(self, x: int, y: int) -> SparseMeasure:
        self._require_in_window(x, y)
        atoms, fits = self._pair(x, y)
        if not fits:
            raise WindowOverflow(
                f"support of point convolution ({x},{y}) leaves the window "
                f"[{self.carrier[0]},{self.carrier[-1]}]")
        return SparseMeasure(tuple(atoms.items()),
                             probability=abs(sum(atoms.values()) - 1.0) <= EPS_PROB)

    def convolve_measures(self, mu: SparseMeasure, nu: SparseMeasure) -> SparseMeasure:
        acc: dict[int, float] = {}
        labels = self._labels
        for x, mx in mu.atoms:
            for y, my in nu.atoms:
                atoms, fits = (self._pair(x, y) if x in labels and y in labels
                               else ({}, False))
                if not fits:
                    raise WindowOverflow(
                        f"measure convolution needs off-window pair ({x},{y})")
                for u, w in atoms.items():
                    acc[u] = acc.get(u, 0.0) + mx * my * w
        return SparseMeasure.from_dict(acc, probability=mu.probability and nu.probability)

    def set_convolve(self, a: Iterable[int], b: Iterable[int]) -> frozenset[int]:
        """Union of supports of the pairwise point convolutions."""
        out: set[int] = set()
        for x in sorted(set(a)):
            for y in sorted(set(b)):
                self._require_in_window(x, y)
                atoms, fits = self._pair(x, y)
                if not fits:
                    raise WindowOverflow(
                        f"set convolution needs off-window support at pair ({x},{y})")
                out.update(atoms)
        return frozenset(out)

    # -- center ------------------------------------------------------------

    def is_central(self, z: int) -> bool:
        """Whether z is a window label with delta_z * delta_{z^-} and
        delta_{z^-} * delta_z both the identity point mass; memoised."""
        if z not in self._labels:
            return False
        central = self._central.get(z)
        if central is None:
            zi = self.involution(z)
            central = self._central[z] = (
                _is_point_mass(self._pair(z, zi)[0], self.identity)
                and _is_point_mass(self._pair(zi, z)[0], self.identity))
        return central

    def center_elements(self) -> CenterReport:
        return CenterReport(members=tuple(filter(self.is_central, self.carrier)),
                            horizon=self.window)

    def point_product(self, x: int, z: int) -> int:
        """The single support point of delta_x * delta_z for central z."""
        if not self.is_central(z):
            raise NotCentral(f"label {z} is not in the center")
        self._require_in_window(x)
        supp = tuple(self._pair(x, z)[0])
        if len(supp) != 1:
            raise NotCentral(
                f"convolution with center label {z} is not a point mass at ({x},{z})")
        p = supp[0]
        if p not in self._labels:
            raise WindowOverflow(f"point product {x}*{z} leaves the window")
        return p

    def translate_reach_ok(self, f_support: Iterable[int], y: int) -> bool:
        """True when every preimage of supp f under y is a window label, so
        the translate of f by y needs no point outside the window."""
        self._require_in_window(y)
        return all(self._preimages(u, y)[1] for u in f_support)

    # -- verification ------------------------------------------------------

    def verify_axioms(self, triple_bound: int) -> list[AxiomViolation]:
        """Check the defining axioms on all labels within ``triple_bound``.

        Probability masses, the identity law, the support-identity equivalence
        and the adjoint law are checked on the exact (untruncated) atoms, in
        one pass over the labels x with a nested pass over the pairs (x, y).
        Associativity is checked on triples whose intermediate supports stay
        inside the window; out-of-window triples are skipped.  Violations come
        grouped by axiom in the order of :data:`AXIOMS`, each group in label
        order.  The findings are memoised per set of labels checked, so a
        table validated at load is not checked again; each call returns a
        new list.
        """
        pts = tuple(x for x in self.carrier if abs(x) <= triple_bound)
        findings = self._findings.get(pts)
        if findings is None:
            findings = self._findings[pts] = self._check_axioms(pts)
        return list(findings)

    def _check_axioms(self, pts: tuple[int, ...]) -> tuple[AxiomViolation, ...]:
        found: dict[str, list[AxiomViolation]] = {name: [] for name in AXIOMS}
        e = self.identity
        inv = self.involution
        pair = self._pair

        for x in pts:
            xi = inv(x)
            if xi not in self._labels or inv(xi) != x:
                found["involution"].append(AxiomViolation(
                    "involution", (x,), f"involution of {x} does not fold back"))
            for (atoms, tag) in ((pair(x, e)[0], "right"), (pair(e, x)[0], "left")):
                if not _is_point_mass(atoms, x):
                    found["identity"].append(AxiomViolation(
                        "identity", (x,), f"{tag} identity law fails at {x}"))
            for y in pts:
                xy = pair(x, y)[0]
                dm = abs(sum(xy.values()) - 1.0)
                if dm > EPS_PROB:
                    found["probability-mass"].append(AxiomViolation(
                        "probability-mass", (x, y), f"mass deviates by {dm:.3e}"))
                if (xy.get(e, 0.0) > TOL_ATOM) != (x == inv(y)):
                    found["support-identity"].append(AxiomViolation(
                        "support-identity", (x, y),
                        "identity atom present iff x equals the involution of y"))
                lhs = {inv(u): m for u, m in xy.items()}
                dev = _max_deviation(lhs, pair(inv(y), xi)[0])
                if dev > TOL_ATOM:
                    found["adjoint"].append(AxiomViolation(
                        "adjoint", (x, y), f"adjoint law deviates by {dev:.3e}"))

        out = found["associativity"]
        # (delta_x * delta_y) * delta_z against delta_x * (delta_y * delta_z),
        # summed in plain dicts; the point masses contribute exact unit
        # factors.  Each pair's fit is read from its atoms before they are
        # added, and a triple is skipped at the first pair that either side
        # needs outside the window.
        get = self._pairs.get
        fitting_yz = {y: [(z, pair(y, z)[0]) for z in pts if pair(y, z)[1]]
                      for y in pts}
        for x in pts:
            for y in pts:
                xy, fits = pair(x, y)
                if not fits:
                    continue
                for z, yz in fitting_yz[y]:
                    left: dict[int, float] = {}
                    for u, mx in xy.items():
                        atoms, fits = get((u, z)) or pair(u, z)
                        if not fits:
                            break
                        for t, w in atoms.items():
                            left[t] = left.get(t, 0.0) + mx * w
                    else:
                        right: dict[int, float] = {}
                        for v, my in yz.items():
                            atoms, fits = get((x, v)) or pair(x, v)
                            if not fits:
                                break
                            for t, w in atoms.items():
                                right[t] = right.get(t, 0.0) + my * w
                        else:
                            dev = _max_deviation(left, right)
                            if dev > TOL_ASSOC:
                                out.append(AxiomViolation(
                                    "associativity", (x, y, z),
                                    f"triple product deviates by {dev:.3e}"))
        return tuple(v for name in AXIOMS for v in found[name])


def dunkl_ramirez(a: float, window: int) -> HypergroupModel:
    """Model with point-max convolution off the diagonal and geometric spread on it."""
    return HypergroupModel(_DunklRamirez(a), window)


def su2(window: int) -> HypergroupModel:
    """Model with every-second-label supports between difference and sum."""
    return HypergroupModel(_SU2(), window)


def integer_group(window: int) -> HypergroupModel:
    """The integers under addition, windowed to ``-window..window``."""
    return HypergroupModel(_IntegerGroup(), window)


def table_hypergroup(conv: Mapping[tuple[int, int], Mapping[int, float]],
                     involution_map: Mapping[int, int],
                     identity: int = 0,
                     validate: bool = True) -> HypergroupModel:
    """Finite hypergroup from an explicit convolution table.

    ``conv`` must hold every ordered pair of labels, with atoms only at
    labels, and the involution must map labels to labels.  With ``validate``
    (the default) the axioms are checked on load over every label, and the
    support-reversal law, which translation reads its preimages from, is
    checked exactly; any violation is a hard error.  Pass ``validate=False``
    to build a possibly broken model for diagnostic use with
    :meth:`HypergroupModel.verify_axioms` only: where it breaks the reversal
    law, its translates differ from the integral of f against its rows.
    """
    labels = sorted(involution_map)
    for x in labels:
        if involution_map[x] not in involution_map:
            raise ValueError(f"the involution maps {x} outside the labels")
        for y in labels:
            if (x, y) not in conv:
                raise ValueError(f"table is missing the pair ({x},{y})")
    fam = _TableFamily(conv, dict(involution_map), identity)
    for (x, y), atoms in fam._conv.items():
        for u in atoms:
            if u not in involution_map:
                raise ValueError(f"table row ({x},{y}) has an atom at {u} "
                                 "outside the labels")
    window = max(abs(x) for x in labels) if labels else 1
    model = HypergroupModel(fam, max(window, 1), identity)
    if validate:
        violations = model.verify_axioms(max(abs(x) for x in labels))
        if violations:
            first = violations[0]
            raise ValueError(
                f"table violates hypergroup axioms ({len(violations)} findings; "
                f"first: {first.axiom} at {first.witness}: {first.detail})")
        for x in labels:
            for y in labels:
                yi = fam.involution(y)
                for u in fam.raw_convolve(x, y):
                    if x not in fam.raw_convolve(u, yi):
                        raise ValueError(
                            f"table breaks the support-reversal law: row ({x},{y}) "
                            f"has an atom at {u}, row ({u},{yi}) none at {x}")
    return model
