"""Discrete hypergroup models whose convolutions are computed on demand.

A model holds a truncation window, the involution, the identity and the
derived right-invariant measure.  The convolution of two point masses comes
from the family's closed form the first time a pair is asked for, and is
kept in a per-model memo together with whether its support fits the window;
whether a label is central is likewise decided when first asked, from two
products.  The memo is bypassed wherever a product is an exact unit atom:
each family has one point law, with no memo, that gives the label u when
delta_x * delta_y is exactly {u: 1.0} (always on the integers, on the
off-diagonal of Dunkl-Ramirez, with the identity on SU(2), and for a table
row whose single mass is exactly 1.0) and None otherwise, and the supports
that point products, set convolutions, translates and the center test read
come from it first.  A row whose unit mass is only within ``TOL_ATOM`` of 1 keeps the
memo.  A translate visits only the points it needs instead of the whole
carrier: by the support-reversal law of hypergroups, delta_x * delta_y has
an atom at u exactly when delta_u * delta_{y^-} has one at x, so the pair
(u, y^-) lists the preimages of u and says whether they fit the window.
Exact results whose support leaves the window raise
:class:`~hyperorlicz.errors.WindowOverflow`; nothing is ever truncated
silently.  The axiom check reads no row at all where the point law gives a
label for every row it needs (the products of the labels checked, the
products of what those reach with them, both ways round, and the identity
and adjoint rows): on the integers and on any table of unit rows, broken or
not, it decides every axiom on labels, since two unit rows deviate by 0.0
or 1.0, and makes no pair-memo entry.  Elsewhere the associativity check
takes a side of a triple only once it is known to fit.  Where the rows it
reads are bitwise symmetric (every family here but a non-commutative or
broken table) it takes each side once per multiset of labels and shares it
among the orderings; a side built on a unit row {u: 1.0} is then the memo's
row (u, c) itself, with no sum, and two sides with equal atoms, which
deviate by exactly 0.0, are not compared.  The findings are those of the
plain triple loop, in its order, on either path.

All operations are pure.  The memo only ever adds entries equal to what any
caller would compute, so instances can be shared between threads: a race
costs at most a repeated computation of the same value.

Carrier conventions: families on the nonnegative integers use the labels
``0..window``; the integer-group family uses ``-window..window``; a
table-defined model's carrier is exactly the table's label set.
"""
import math
from functools import cached_property
from itertools import chain, compress, repeat
from operator import eq, ne
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


def _unit_label(atoms: Mapping[int, float]) -> int | None:
    """u where atoms is exactly {u: 1.0}, else None."""
    if len(atoms) == 1:
        for u, m in atoms.items():
            if m == 1.0:
                return u
    return None


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


# The detail of each axiom's findings, formatted with the witness labels as
# positional fields; both paths of verify_axioms build findings from these.
_DETAILS = {
    "involution": "involution of {0} does not fold back",
    "probability-mass": "mass deviates by {dev:.3e}",
    "identity": "{tag} identity law fails at {0}",
    "support-identity": "identity atom present iff x equals the involution of y",
    "adjoint": "adjoint law deviates by {dev:.3e}",
    "associativity": "triple product deviates by {dev:.3e}",
}


def _violation(axiom: str, witness: tuple[int, ...], **fields) -> AxiomViolation:
    return AxiomViolation(axiom, witness, _DETAILS[axiom].format(*witness, **fields))


def _differences(a: tuple, b: tuple) -> Iterable[int]:
    """The positions where the equally long tuples a and b differ."""
    return compress(range(len(a)), map(ne, a, b))


class CenterReport(NamedTuple):
    """Elements whose self-convolution with their involution is the identity mass."""

    members: tuple[int, ...]
    horizon: int


class _Family:
    """Closed-form description of one hypergroup family (untruncated):
    ``raw_convolve`` takes any two labels of the family's space, in the
    window or not, and ``has_label`` tells which labels the space has."""

    signed = False  # carrier includes negative labels
    # Every point product is an exact unit atom of an associative law, so
    # the space is a group under point_law.
    group = False

    def has_label(self, u: int) -> bool:
        return self.signed or u >= 0

    def point_law(self, x: int, y: int) -> int | None:
        """The label u where raw_convolve(x, y) is exactly {u: 1.0}, from the
        closed form without convolving; None sends the caller to the
        convolution (it may also be None where the product happens to be
        such an atom)."""
        return None

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

    def point_law(self, r, s):
        if r != s:
            return max(r, s)
        return 0 if r == 0 else None

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

    def point_law(self, m, n):
        if m == 0:
            return n
        return m if n == 0 else None

    def raw_convolve(self, m, n):
        den = float((m + 1) * (n + 1))
        return {k: (k + 1) / den for k in range(abs(m - n), m + n + 1, 2)}

    def haar_weight(self, x):
        return float((x + 1) * (x + 1))


class _IntegerGroup(_Family):
    """The group of integers viewed as a hypergroup; counting measure."""

    signed = True
    group = True

    def involution(self, x):
        return -x

    def point_law(self, x, y):
        return x + y

    def raw_convolve(self, x, y):
        return {x + y: 1.0}

    def haar_weight(self, x):
        return 1.0


class _TableFamily(_Family):
    """Finite hypergroup given by an explicit table; the carrier is the whole
    space.  Each row is read through :meth:`SparseMeasure.from_dict` at load,
    so labels and masses are converted, zero masses dropped, and a mass that
    is negative or not finite raises ValueError.  The point law reads the
    rows that are exactly one atom of mass 1.0; ``group`` is set once a
    table whose rows all are has passed validation."""

    def __init__(self, conv, involution_map, identity):
        self._inv = involution_map
        self._identity = identity
        self._carrier = tuple(sorted(involution_map))
        self._conv: dict[tuple[int, int], dict[int, float]] = {
            (x, y): dict(SparseMeasure.from_dict(conv[(x, y)]).atoms)
            for x in self._carrier for y in self._carrier}
        self._units = {xy: u for xy, atoms in self._conv.items()
                       if (u := _unit_label(atoms)) is not None}

    def involution(self, x):
        return self._inv[x]

    def point_law(self, x, y):
        return self._units.get((x, y))

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
    convolution.  The memos, of pairs, of :meth:`is_central` answers, of
    :meth:`verify_axioms` findings and of the translates of a set by a
    point (filled in by the aperiodicity checks and the probes, so the
    checks of a session translate a set by each point once), only ever add
    entries equal to what any caller would compute, so a model can be
    shared between threads.
    """

    def __init__(self, family: _Family, window: int, identity: int = 0):
        if window < 1:
            raise ValueError("window bound must be at least 1")
        self.window = int(window)
        self.identity = identity
        self._fam = family
        self.carrier: tuple[int, ...] = family.carrier(window)
        self._labels = frozenset(self.carrier)
        self._law = family.point_law
        if self.identity not in self._labels:
            raise ValueError("identity label missing from carrier")
        # (x, y) -> (atoms of delta_x * delta_y in label order, support fits)
        self._pairs: dict[tuple[int, int], tuple[dict[int, float], bool]] = {}
        # labels checked -> verify_axioms findings on them
        self._findings: dict[tuple[int, ...], tuple[AxiomViolation, ...]] = {}
        # label -> whether it is central, filled in by is_central
        self._central: dict[int, bool] = {}
        # (E, y) -> E convolved with y, None where that leaves the window;
        # filled in by the aperiodicity checks and probes of dynamics
        self._set_translates: dict[tuple[tuple[int, ...], int],
                                   frozenset[int] | None] = {}

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

    @property
    def group(self) -> bool:
        """Whether every point product is an exact unit atom of an
        associative law (the integers, a validated Cayley table)."""
        return self._fam.group

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
        atoms in label order, and whether they all lie in the window.  No
        reader of the memo (translate, translated_weight, convolve_*,
        is_central, _check_axioms) mutates a row."""
        entry = self._pairs.get((x, y))
        if entry is None:
            raw = self._fam.raw_convolve(x, y)
            atoms = {u: m for u, m in sorted(raw.items()) if m != 0.0}
            labels = self._labels
            entry = (atoms, all(u in labels for u in atoms))
            self._pairs[(x, y)] = entry
        return entry

    def _support(self, x: int, y: int) -> tuple[Iterable[int], bool]:
        """(support, fits) of delta_x * delta_y: from the point law where it
        gives a label, so no memo entry is made, else from the pair memo."""
        u = self._law(x, y)
        if u is None:
            return self._pair(x, y)
        return (u,), u in self._labels

    def _preimages(self, u: int, y: int) -> tuple[Iterable[int], bool]:
        """(support, fits) of delta_u * delta_{y^-}.  By the support-reversal
        law its atoms are the labels x where (delta_x * delta_y)({u}) is
        nonzero, and fits says whether they are all window labels.  A label
        outside the family's space has no preimages."""
        if not self._fam.has_label(u):
            return (), True
        return self._support(u, self.involution(y))

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
                atoms, fits = self._support(x, y)
                if not fits:
                    raise WindowOverflow(
                        f"set convolution needs off-window support at pair ({x},{y})")
                out.update(atoms)
        return frozenset(out)

    # -- center ------------------------------------------------------------

    def is_central(self, z: int) -> bool:
        """Whether z is a window label with delta_z * delta_{z^-} and
        delta_{z^-} * delta_z both the identity point mass; memoised.  The
        point law answers first, so a pair it gives a label for makes no
        pair-memo entry."""
        if z not in self._labels:
            return False
        central = self._central.get(z)
        if central is None:
            e = self.identity

            def unit(x, y):
                u = self._law(x, y)
                return u == e if u is not None else _is_point_mass(self._pair(x, y)[0], e)

            zi = self.involution(z)
            central = self._central[z] = unit(z, zi) and unit(zi, z)
        return central

    def center_elements(self) -> CenterReport:
        return CenterReport(members=tuple(filter(self.is_central, self.carrier)),
                            horizon=self.window)

    def point_product(self, x: int, z: int) -> int:
        """The single support point of delta_x * delta_z for central z."""
        if not self.is_central(z):
            raise NotCentral(f"label {z} is not in the center")
        self._require_in_window(x)
        p = self._law(x, z)
        if p is None:
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
        inside the window; out-of-window triples are skipped.  Where
        delta_u * delta_c and delta_c * delta_u are equal for every c checked
        and every u those triples reach, which is derived from the rows and
        never declared, (delta_a * delta_b) * delta_c is taken once per
        multiset {a, b, c} and shared among its orderings; there a side on
        a unit row is that row, not a sum, and two sides with equal atoms
        are not compared, which skips most comparisons on the off-diagonal
        of Dunkl-Ramirez.  Elsewhere each ordered triple sums its two sides.
        Where the point law gives a label for every row these read (the
        integers, a table of unit rows), no row is read: each axiom is
        decided on labels, associativity by one comparison of label tuples
        per pair of labels.  All give the same violations in
        the same order, bit for bit.
        Violations come grouped by axiom in the order of :data:`AXIOMS`,
        each group in label order.  The findings are memoised per set of
        labels checked, so a table validated at load is not checked again;
        each call returns a new list.
        """
        pts = tuple(x for x in self.carrier if abs(x) <= triple_bound)
        findings = self._findings.get(pts)
        if findings is None:
            findings = self._findings[pts] = self._check_axioms(pts)
        return list(findings)

    def _check_axioms(self, pts: tuple[int, ...]) -> tuple[AxiomViolation, ...]:
        inv = self.involution
        found = self._check_on_labels(pts)
        if found is None:
            found = self._check_on_rows(pts)
        found["involution"] = [_violation("involution", (x,)) for x in pts
                               if (xi := inv(x)) not in self._labels or inv(xi) != x]
        return tuple(v for name in AXIOMS for v in found[name])

    def _check_on_rows(self, pts: tuple[int, ...]) -> dict[str, list[AxiomViolation]]:
        """Every axiom but the involution's, on the atoms of the pair memo."""
        found: dict[str, list[AxiomViolation]] = {name: [] for name in AXIOMS}
        e = self.identity
        inv = self.involution
        pair = self._pair

        for x in pts:
            xi = inv(x)
            for (atoms, tag) in ((pair(x, e)[0], "right"), (pair(e, x)[0], "left")):
                if not _is_point_mass(atoms, x):
                    found["identity"].append(_violation("identity", (x,), tag=tag))
            for y in pts:
                xy = pair(x, y)[0]
                dm = abs(sum(xy.values()) - 1.0)
                if dm > EPS_PROB:
                    found["probability-mass"].append(
                        _violation("probability-mass", (x, y), dev=dm))
                if (xy.get(e, 0.0) > TOL_ATOM) != (x == inv(y)):
                    found["support-identity"].append(_violation("support-identity", (x, y)))
                lhs = {inv(u): m for u, m in xy.items()}
                dev = _max_deviation(lhs, pair(inv(y), xi)[0])
                if dev > TOL_ATOM:
                    found["adjoint"].append(_violation("adjoint", (x, y), dev=dev))

        found["associativity"] = self._associativity(pts)
        return found

    def _check_on_labels(self, pts: tuple[int, ...]) -> dict[str, list[AxiomViolation]] | None:
        """What _check_on_rows finds, decided on the point law's labels alone,
        or None where the law gives no label for a row that check reads.

        Every row is then a unit atom {u: 1.0}: its mass is exact, it holds
        the identity atom exactly when u is the identity, and two rows
        deviate by exactly 0.0 or 1.0.  The associativity sides of a pair
        (i, j) are the tuples over k of the labels of (pts[i] pts[j]) pts[k]
        and pts[i] (pts[j] pts[k]); where pts[j] pts[k] leaves the window the
        right one takes the left one's label, so one C comparison clears the
        pair, and k is scanned, with the fit of both sides, only where the
        tuples differ.  No pair-memo entry is made.
        """
        law, labels, e = self._law, self._labels, self.identity
        # The diagonal first, where SU(2) and Dunkl-Ramirez spread: the
        # first None there ends the gate.
        if None in map(law, pts, pts):
            return None
        n = len(pts)
        prods = []  # prods[i][j]: the label of pts[i] * pts[j]
        for x in pts:
            row = tuple(map(law, repeat(x, n), pts))
            if None in row:
                return None
            prods.append(row)
        invs = tuple(map(self.involution, pts))
        rights = tuple(map(law, pts, repeat(e, n)))
        lefts = tuple(map(law, repeat(e, n), pts))
        adjoints = [tuple(map(law, invs, repeat(xi, n))) for xi in invs]
        if None in rights or None in lefts or any(None in row for row in adjoints):
            return None
        # pts and the labels of their fitting pairs; the rows (u, c) and
        # (c, u) are read for each u here and c in pts.
        reach = tuple(set(pts).union(labels.intersection(chain.from_iterable(prods))))
        m = len(reach)
        outer = {}  # u -> the labels of u * c over c in pts
        for u in reach:
            row = outer[u] = tuple(map(law, repeat(u, n), pts))
            if None in row:
                return None
        inner = []  # inner[i]: the label of pts[i] * u for each u in reach
        for a in pts:
            row = dict(zip(reach, map(law, repeat(a, m), reach)))
            if None in row.values():
                return None
            inner.append(row)

        found: dict[str, list[AxiomViolation]] = {name: [] for name in AXIOMS}
        found["identity"] = [_violation("identity", (x,), tag=tag)
                             for x, r, l in zip(pts, rights, lefts)
                             for tag, u in (("right", r), ("left", l)) if u != x]
        support, adjoint, assoc = (found["support-identity"], found["adjoint"],
                                   found["associativity"])
        for i, x in enumerate(pts):
            row = prods[i]
            has_e, is_inverse = tuple(map(eq, row, repeat(e))), tuple(map(eq, repeat(x), invs))
            if has_e != is_inverse:
                support.extend(_violation("support-identity", (x, pts[j]))
                               for j in _differences(has_e, is_inverse))
            swapped = tuple(map(self.involution, row))
            if swapped != adjoints[i]:
                adjoint.extend(_violation("adjoint", (x, pts[j]), dev=1.0)
                               for j in _differences(swapped, adjoints[i]))
            by_x = inner[i]
            for j, u in enumerate(row):
                if u not in labels:
                    continue
                left = outer[u]
                right = tuple(map(by_x.get, prods[j], left))
                if left != right:
                    assoc.extend(_violation("associativity", (x, pts[j], pts[k]), dev=1.0)
                                 for k in _differences(left, right)
                                 if left[k] in labels and right[k] in labels)
        return found

    def _associativity(self, pts: tuple[int, ...]) -> list[AxiomViolation]:
        """(delta_x * delta_y) * delta_z against delta_x * (delta_y * delta_z)
        for x, y, z in pts, in the order of the plain triple loop.

        The rows of pts x pts are read once.  A side is taken only once it
        is known to fit: bit k of fit[u] says whether (u, pts[k]) fits, and
        bit k of left[i][j], the AND of fit over the support of
        (pts[i], pts[j]), whether (pts[i] pts[j]) pts[k] does; right[j][k]
        likewise holds bit i where pts[i] (pts[j] pts[k]) fits.  Where the
        rows commute on the labels the sides read, each side serves every
        ordering of its multiset, and a side whose first product is a unit
        row {u: 1.0} is the row (u, c) it equals, with no sum: the sum would
        add 1.0 * w to 0.0 for each mass w of that row, in its order, which
        gives the row's bits.  Two sides with equal atoms deviate by exactly
        0.0 and are not compared; which orderings a multiset compares is
        decided by its indices alone.  Any other side, and every side of the
        plain loop, is summed in a plain dict; the plain loop compares every
        fitting triple.
        """
        pair = self._pair
        pairs = self._pairs
        entries = [[pair(x, y) for y in pts] for x in pts]
        rows = [[atoms for atoms, _ in row] for row in entries]
        reach = set(pts)  # pts and the supports of their fitting pairs
        for row in entries:
            for atoms, fits in row:
                if fits:
                    reach.update(atoms)

        def pair_masks(fit):
            masks = []
            for row in entries:
                line = []
                for atoms, fits in row:
                    m = 0
                    if fits:
                        m = -1
                        for u in atoms:
                            m &= fit[u]
                    line.append(m)
                masks.append(line)
            return masks

        # Equal rows are equal dicts in label order (_pair sorts), so where
        # every (u, c) row equals its (c, u) row, each sum below has the same
        # terms in the same order whichever way round its pairs are read.
        commutes = all(pair(u, c)[0] == pair(c, u)[0] for u in reach for c in pts)
        left = pair_masks({u: sum(1 << k for k, c in enumerate(pts) if pair(u, c)[1])
                           for u in reach})
        right = left if commutes else pair_masks(
            {u: sum(1 << k for k, c in enumerate(pts) if pair(c, u)[1]) for u in reach})

        def side(ab, c):
            """(delta_a * delta_b) * delta_c from the atoms of ab."""
            s: dict[int, float] = {}
            for u, m in ab.items():
                for t, w in pairs[(u, c)][0].items():
                    s[t] = s.get(t, 0.0) + m * w
            return s

        def side_right(a, bc):
            """delta_a * (delta_b * delta_c) from the atoms of bc."""
            s: dict[int, float] = {}
            for v, m in bc.items():
                for t, w in pairs[(a, v)][0].items():
                    s[t] = s.get(t, 0.0) + m * w
            return s

        hits: dict[tuple[int, int, int], AxiomViolation] = {}  # by positions in pts

        def check(p, q, *keys):
            dev = _max_deviation(p, q)  # symmetric in p and q, bit for bit
            if dev > TOL_ASSOC:
                for key in keys:
                    hits[key] = _violation("associativity", tuple(pts[i] for i in key),
                                           dev=dev)

        n = len(pts)
        if commutes:
            # (ab)c depends only on {a, b} and c, so the multiset {a, b, c},
            # i <= j <= k, has the three sides P = (ab)c, Q = (ac)b and
            # R = (bc)a, and each of its six orderings compares two of them:
            # (a,b,c) and (c,b,a) P with R, (a,c,b) and (b,c,a) Q with R,
            # (b,a,c) and (c,a,b) P with Q.  i == j makes R the sum Q is and
            # j == k makes Q the sum P is, which leaves P with R alone.  The
            # indices say which comparisons remain; two sides of distinct
            # orderings can still be equal, and then deviate by 0.0.
            # left_units[i][j][k] is (pts[i] pts[j]) pts[k] where
            # pts[i] pts[j] fits and is a unit row {u: 1.0}, one list per u.
            cols: dict[int, list[dict[int, float]]] = {}
            left_units = []
            for row in entries:
                line = []
                for atoms, fits in row:
                    u = _unit_label(atoms) if fits else None
                    if u is not None and u not in cols:
                        cols[u] = [pairs[(u, c)][0] for c in pts]
                    line.append(None if u is None else cols[u])
                left_units.append(line)
            for i in range(n):
                a, left_i, units_i, rows_i = pts[i], left[i], left_units[i], rows[i]
                for j in range(i, n):
                    b, ab_fit, ab_units = pts[j], left_i[j], units_i[j]
                    left_j, units_j, rows_j = left[j], left_units[j], rows[j]
                    for k in range(j, n):
                        if ab_fit >> k & 1:
                            P = side(rows_i[j], pts[k]) if ab_units is None else ab_units[k]
                        else:
                            P = None
                        if j == k:
                            Q = P
                        elif left_i[k] >> j & 1:
                            units = units_i[k]
                            Q = side(rows_i[k], b) if units is None else units[j]
                        else:
                            Q = None
                        if P is None and Q is None:
                            continue
                        if i == j:
                            R = Q
                        elif left_j[k] >> i & 1:
                            units = units_j[k]
                            R = side(rows_j[k], a) if units is None else units[i]
                        else:
                            R = None
                        if R is not None and P is not None and P != R:
                            check(P, R, (i, j, k), (k, j, i))
                        if i == j or j == k:
                            continue
                        if R is not None and Q is not None and Q != R:
                            check(Q, R, (i, k, j), (j, k, i))
                        if P is not None and Q is not None and P != Q:
                            check(P, Q, (j, i, k), (k, i, j))
        else:
            for i, x in enumerate(pts):
                bit = 1 << i
                for j in range(n):
                    lm, rj, xy = left[i][j], right[j], rows[i][j]
                    for k, z in enumerate(pts):
                        if lm >> k & 1 and rj[k] & bit:
                            check(side(xy, z), side_right(x, rows[j][k]), (i, j, k))
        return [hits[key] for key in sorted(hits)]


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
        fam.group = len(fam._units) == len(fam._conv)
    return model
