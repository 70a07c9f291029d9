"""Differential tests of the on-demand convolution core.

``EagerReference`` keeps the earlier core as the oracle: every pair of the
carrier convolved up front into a validated SparseMeasure, fit read from the
full support, translation scanning the whole carrier (its reach decided from
the untruncated convolutions, not from the model's memo), weight factors
integrated over the table's atoms for every product and multiplied one at a
time, and associativity checked by allocating measures and catching
WindowOverflow.  The hereditary pair is the reference's shifted product and
reciprocal product along powers of its center element.  The lazy core must
agree with it bit for bit (``==`` on floats), including which calls raise,
on its point-law path (exact unit atoms, no pair memo; shared factor rows
along the orbits of a center element on a group) as on its memo path.
"""
import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperorlicz as hz
from hyperorlicz import dynamics, hypergroups
from hyperorlicz.errors import (
    EPS_PROB,
    TOL_ASSOC,
    TOL_ATOM,
    NonFiniteValue,
    NotCentral,
    WindowOverflow,
)
from hyperorlicz.functions import SparseFunction, _translate_sums
from hyperorlicz.hypergroups import (
    AxiomViolation,
    SparseMeasure,
    is_point_mass_at,
    point_mass,
)
from hyperorlicz.operators import CenterPowers, ProductConvention, translated_weight


def _max_deviation(mu, nu):
    labels = set(mu.support()) | set(nu.support())
    if not labels:
        return 0.0
    return max(abs(mu.value_at(x) - nu.value_at(x)) for x in labels)


class EagerReference:
    """The eager-table core, run on the same family as a lazy model."""

    def __init__(self, model, raw=None, space=None):
        raw = raw or model._fam.raw_convolve
        self.model = model
        self.raw = raw
        # Labels of the untruncated space: all integers, the nonnegative ones,
        # or (for tables) the carrier itself.
        self.space = space or (lambda u: model._fam.signed or u >= 0)
        self.cset = set(model.carrier)
        self.table = {}
        self.fits = {}
        for x in model.carrier:
            for y in model.carrier:
                mu = SparseMeasure.from_dict(raw(x, y))
                self.table[(x, y)] = mu
                self.fits[(x, y)] = all(u in self.cset for u in mu.support())
        self.central = self.center_members()

    def center_members(self):
        m, e = self.model, self.model.identity
        return tuple(x for x in m.carrier
                     if is_point_mass_at(self.table[(x, m.involution(x))], e)
                     and is_point_mass_at(self.table[(m.involution(x), x)], e))

    def convolve_points(self, x, y):
        if not self.fits[(x, y)]:
            raise WindowOverflow("reference")
        mu = self.table[(x, y)]
        return SparseMeasure(mu.atoms, probability=abs(mu.mass() - 1.0) <= EPS_PROB)

    def convolve_measures(self, mu, nu):
        acc = {}
        for x, mx in mu.atoms:
            for y, my in nu.atoms:
                if not self.fits.get((x, y), False):
                    raise WindowOverflow("reference")
                for u, w in self.table[(x, y)].atoms:
                    acc[u] = acc.get(u, 0.0) + mx * my * w
        return SparseMeasure.from_dict(acc, probability=mu.probability and nu.probability)

    def set_convolve(self, a, b):
        out = set()
        for x in sorted(set(a)):
            for y in sorted(set(b)):
                if not self.fits[(x, y)]:
                    raise WindowOverflow("reference")
                out.update(self.table[(x, y)].support())
        return frozenset(out)

    def reach_ok(self, f, y):
        """Whether every x with (delta_x * delta_y)({u}) > 0 for some u in
        supp f lies in the carrier.  By the adjoint law those x are the
        support of delta_u * delta_{y^-}."""
        yi = self.model.involution(y)
        return all(x in self.cset
                   for u in f.support() if self.space(u)
                   for x, m in self.raw(u, yi).items() if m != 0.0)

    def translate(self, f, y):
        if f.is_zero():
            return hz.ZERO_FUNCTION
        if not self.reach_ok(f, y):
            raise WindowOverflow("reference")
        out = {}
        for x in self.model.carrier:
            mu = self.table[(x, y)]
            s = 0.0
            for u, fv in f.values:
                m = mu.value_at(u)
                if m != 0.0:
                    s += fv * m
            if s != 0.0:
                out[x] = s
        return SparseFunction.from_dict(out)

    def translated_weight(self, w, x, y):
        if x not in self.cset or y not in self.cset:
            raise ValueError("reference")
        s = 0.0
        for u, m in self.table[(x, y)].atoms:
            s += w(u) * m
        return s

    def cocycle(self, w, eta, x, count, acc):
        for j in range(count - 1, -1, -1):
            acc = self.translated_weight(w, x, eta(-j)) * acc
        return acc

    def weight_product(self, w, eta, x, n, convention):
        return self.cocycle(w, eta, x, convention.factors(n), 1.0)

    def shifted_weight_product(self, w, eta, x, n, convention):
        return self.weight_product(w, eta, self.point_product(x, eta(n)), n, convention)

    def apply_right_inverse(self, f, w, eta, n, convention):
        out = {}
        for u, fv in f.values:
            x = self.point_product(u, eta(-n))
            out[x] = fv / self.weight_product(w, eta, u, n, convention)
        return SparseFunction.from_dict(out)

    def apply_weighted_translation(self, f, w, eta, n, convention):
        t = self.translate(f, eta(-n))
        out = {}
        for x, tv in t.values:
            val = self.cocycle(w, eta, x, convention.factors(n), tv)
            if val != 0.0:
                out[x] = val
        return SparseFunction.from_dict(out)

    def point_product(self, x, z):
        if z not in self.central:
            raise NotCentral("reference")
        if x not in self.cset:
            raise ValueError("reference")
        supp = self.table[(x, z)].support()
        if len(supp) != 1:
            raise NotCentral("reference")
        if supp[0] not in self.cset:
            raise WindowOverflow("reference")
        return supp[0]

    def verify_axioms(self, triple_bound):
        m, out, e = self.model, [], self.model.identity
        pts = [x for x in m.carrier if abs(x) <= triple_bound]
        for x in pts:
            xi = m.involution(x)
            if xi not in self.cset or m.involution(xi) != x:
                out.append(AxiomViolation("involution", (x,),
                                          f"involution of {x} does not fold back"))
        for x in pts:
            for y in pts:
                dm = abs(self.table[(x, y)].mass() - 1.0)
                if dm > EPS_PROB:
                    out.append(AxiomViolation(
                        "probability-mass", (x, y), f"mass deviates by {dm:.3e}"))
        for x in pts:
            for mu, tag in ((self.table[(x, e)], "right"), (self.table[(e, x)], "left")):
                if not is_point_mass_at(mu, x):
                    out.append(AxiomViolation(
                        "identity", (x,), f"{tag} identity law fails at {x}"))
        for x in pts:
            for y in pts:
                has_e = self.table[(x, y)].value_at(e) > TOL_ATOM
                if has_e != (x == m.involution(y)):
                    out.append(AxiomViolation(
                        "support-identity", (x, y),
                        "identity atom present iff x equals the involution of y"))
        for x in pts:
            for y in pts:
                lhs = SparseMeasure.from_dict(
                    {m.involution(u): v for u, v in self.table[(x, y)].atoms})
                rhs = self.table[(m.involution(y), m.involution(x))]
                dev = _max_deviation(lhs, rhs)
                if dev > TOL_ATOM:
                    out.append(AxiomViolation(
                        "adjoint", (x, y), f"adjoint law deviates by {dev:.3e}"))
        for x in pts:
            for y in pts:
                for z in pts:
                    try:
                        left = self.convolve_measures(
                            self.convolve_points(x, y), point_mass(z))
                        right = self.convolve_measures(
                            point_mass(x), self.convolve_points(y, z))
                    except WindowOverflow:
                        continue
                    dev = _max_deviation(left, right)
                    if dev > TOL_ASSOC:
                        out.append(AxiomViolation(
                            "associativity", (x, y, z),
                            f"triple product deviates by {dev:.3e}"))
        return out


def outcome(fn, *args):
    """A call's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (WindowOverflow, ValueError) as exc:
        return type(exc)


# -- strategies ---------------------------------------------------------------


@st.composite
def cyclic_table(draw, size=None):
    n = size or draw(st.integers(2, 7))
    labels = draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n, unique=True))
    conv = {(labels[i], labels[j]): {labels[(i + j) % n]: 1.0}
            for i in range(n) for j in range(n)}
    involution = {labels[i]: labels[-i % n] for i in range(n)}
    return conv, involution, labels[0]


@st.composite
def spread_table(draw):
    """The Dunkl-Ramirez family on {0..n} is closed, so it is a finite table."""
    a = draw(st.sampled_from((0.25, 0.3, 0.5)))
    n = draw(st.integers(1, 7))
    fam = hypergroups._DunklRamirez(a)
    conv = {(x, y): fam.raw_convolve(x, y) for x in range(n + 1) for y in range(n + 1)}
    return conv, {x: x for x in range(n + 1)}, 0


def s3_table():
    """The symmetric group S3 as a table: label i is the i-th permutation of
    (0, 1, 2) in lexicographic order, so 0 is the identity, and the
    convolution composes.  It is the one model here that does not commute,
    so delta_x * delta_y and delta_y * delta_x differ."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    conv = {(index[p], index[q]): {index[tuple(p[i] for i in q)]: 1.0}
            for p in perms for q in perms}
    involution = {index[p]: index[tuple(sorted(range(3), key=p.__getitem__))]
                  for p in perms}
    return conv, involution, 0


@st.composite
def models(draw):
    kind = draw(st.sampled_from(("integers", "su2", "dunkl_ramirez", "table")))
    window = draw(st.integers(1, 16))
    if kind == "integers":
        model = hz.integer_group(window)
    elif kind == "su2":
        model = hz.su2(window)
    elif kind == "dunkl_ramirez":
        model = hz.dunkl_ramirez(draw(st.sampled_from((0.1, 0.3, 0.5))), window)
    else:
        conv, involution, identity = draw(st.one_of(cyclic_table(), spread_table(),
                                                    st.just(s3_table())))
        model = hz.table_hypergroup(conv, involution, identity=identity)
        return model, EagerReference(model, raw=lambda x, y: conv[(x, y)],
                                     space=model.in_window)
    return model, EagerReference(model)


class _SkewedIntegers(hypergroups._IntegerGroup):
    """The integers with some point convolutions split over two neighbours:
    a broken model on a window, where a triple's sides can leave it."""

    group = False

    def __init__(self, skewed):
        super().__init__()
        self.skewed = skewed

    def point_law(self, x, y):
        return None if (x, y) in self.skewed else x + y

    def raw_convolve(self, x, y):
        if (x, y) in self.skewed:
            return {x + y - 1: 0.5, x + y + 1: 0.5}
        return {x + y: 1.0}


@st.composite
def skewed_integers(draw, symmetric=False):
    """With ``symmetric`` the skewed pairs are closed under swap, so the
    broken model still commutes."""
    window = draw(st.integers(2, 8))
    labels = st.integers(-window, window)
    skewed = draw(st.sets(st.tuples(labels, labels), min_size=1, max_size=6))
    if symmetric:
        skewed |= {(y, x) for x, y in skewed}
    model = hypergroups.HypergroupModel(_SkewedIntegers(skewed), window)
    return model, EagerReference(model)


@st.composite
def broken_tables(draw, symmetric=False, odd_bit=False, unit=False):
    """A cyclic table with some rows replaced by a two-atom split of unit
    mass; rows (x, x^-) keep the identity so the invariant measure exists.
    Every row keeps mass one, which the allocating reference loop needs.
    With ``unit`` a replaced row is instead the unit atom {p: 1.0} at a
    drawn label, so sides of distinct orderings can be one shared unit row.
    With ``symmetric`` rows (x, y) and (y, x) get the same split, so the
    broken table still commutes; ``odd_bit`` then moves one mass of one row
    off the diagonal down by an ulp, so that row differs from its
    transpose in the last bit."""
    conv, involution, identity = draw(cyclic_table(size=draw(st.integers(3, 6))))
    labels = sorted(involution)
    pairs = [(x, y) for x in labels for y in labels if y != involution[x]]
    for x, y in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4,
                              unique=True)):
        if unit:
            conv[(x, y)] = {draw(st.sampled_from(labels)): 1.0}
        else:
            p, q = draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2,
                                 unique=True))
            conv[(x, y)] = {p: 0.25, q: 0.75}
        if symmetric:
            conv[(y, x)] = conv[(x, y)]
    if odd_bit:
        x, y = draw(st.sampled_from([(x, y) for x in labels for y in labels if x != y]))
        row = dict(conv[(x, y)])
        u = draw(st.sampled_from(sorted(row)))
        row[u] = math.nextafter(row[u], 0.0)
        conv[(x, y)] = row
    model = hz.table_hypergroup(conv, involution, identity=identity, validate=False)
    return model, EagerReference(model, raw=lambda x, y: conv[(x, y)],
                                 space=model.in_window)


# Values with long mantissas, so a changed summation order shows in the bits.
VALUES = st.one_of(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                   st.integers(-10**6, 10**6).map(lambda k: k / 997.0))
POSITIVE = st.one_of(st.floats(0.125, 8.0),
                     st.integers(125, 7976).map(lambda k: k / 997.0))


def functions(draw, model):
    lo, hi = model.carrier[0] - 2, model.carrier[-1] + 2
    return SparseFunction.from_dict(draw(st.dictionaries(
        st.integers(lo, hi), VALUES, max_size=5)))


@st.composite
def weights(draw):
    form = draw(st.sampled_from(("constant", "step", "table", "geometric")))
    if form == "constant":
        return hz.constant_weight(draw(POSITIVE))
    if form == "step":
        return hz.step_weight(draw(st.integers(-4, 4)), draw(POSITIVE), draw(POSITIVE))
    if form == "table":
        return hz.table_weight(draw(st.dictionaries(st.integers(-18, 18), POSITIVE,
                                                    max_size=8)),
                               default=draw(POSITIVE))
    return hz.geometric_weight(draw(POSITIVE), draw(st.floats(0.5, 2.0)))


def sequences(draw, model, indices=range(1, 9)):
    central = [z for z in model.center_elements().members if z != model.identity]
    if central and draw(st.booleans()):
        return hz.center_powers(model, draw(st.sampled_from(central)))
    points = st.sampled_from(model.carrier)
    return hz.eta_from_table(model, {k: draw(points) for k in indices})


# -- tests ----------------------------------------------------------------------


@pytest.mark.seeded
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_translate_matches_full_carrier_scan(data):
    model, ref = data.draw(models())
    for _ in range(4):
        f = functions(data.draw, model)
        # Drawing y from supp f reaches the diagonal preimages of the
        # spread family.
        y = data.draw(st.sampled_from(model.carrier
                                      + tuple(u for u in f.support() if model.in_window(u))))
        got = outcome(hz.translate, model, f, y)
        want = outcome(ref.translate, f, y)
        assert got == want
        if isinstance(got, SparseFunction):
            assert got.values == want.values


def test_translate_on_a_noncommutative_table():
    conv, involution, identity = s3_table()
    model = hz.table_hypergroup(conv, involution, identity=identity)
    ref = EagerReference(model, raw=lambda x, y: conv[(x, y)], space=model.in_window)
    assert any(conv[(x, y)] != conv[(y, x)] for x in model.carrier for y in model.carrier)
    for u in model.carrier:
        f = SparseFunction.from_dict({u: 1.0, (u + 1) % 6: -0.5})
        for y in model.carrier:
            assert hz.translate(model, f, y).values == ref.translate(f, y).values


def test_translate_off_window_support_overflows():
    # delta_6 * delta_1 is the point mass at 6, outside the window 0..4, so
    # the translate at 6 is not dropped but refused.
    model = hz.dunkl_ramirez(0.3, 4)
    f = SparseFunction.from_dict({2: 1.0, 6: 5.0})
    with pytest.raises(WindowOverflow):
        hz.translate(model, f, 1)
    assert hz.translate(model, f.restrict([2]), 1).values == ((2, 1.0),)


@pytest.mark.seeded
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_convolutions_and_center_match_eager_table(data):
    model, ref = data.draw(models())
    assert model.center_elements().members == ref.center_members()
    for x in model.carrier:
        for y in model.carrier:
            got = outcome(model.convolve_points, x, y)
            want = outcome(ref.convolve_points, x, y)
            assert got == want
            assert model.raw_convolve_points(x, y) == ref.table[(x, y)]
    labels = st.lists(st.sampled_from(model.carrier), max_size=4)
    for _ in range(4):
        a, b = data.draw(labels), data.draw(labels)
        assert outcome(model.set_convolve, a, b) == outcome(ref.set_convolve, a, b)
        mu = SparseMeasure.from_dict({x: 1.0 / len(a) for x in a}) if a else point_mass(
            model.identity)
        nu = SparseMeasure.from_dict({y: 0.5 for y in b})
        assert (outcome(model.convolve_measures, mu, nu)
                == outcome(ref.convolve_measures, mu, nu))


@pytest.mark.seeded
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weight_factors_match_fresh_products(data):
    model, ref = data.draw(models())
    w = data.draw(weights())
    eta = sequences(data.draw, model)
    points = st.sampled_from(model.carrier)
    for _ in range(6):
        x, y = data.draw(points), data.draw(points)
        n = data.draw(st.integers(0, 8))
        convention = data.draw(st.sampled_from(tuple(ProductConvention)))
        assert translated_weight(model, w, x, y) == ref.translated_weight(w, x, y)
        assert (outcome(hz.weight_product, model, w, eta, x, n, convention)
                == outcome(ref.weight_product, w, eta, x, n, convention))
        f = functions(data.draw, model)
        got = outcome(hz.apply_weighted_translation, model, f, w, eta, n, convention)
        want = outcome(ref.apply_weighted_translation, f, w, eta, n, convention)
        assert got == want
        if isinstance(got, SparseFunction):
            assert got.values == want.values


@pytest.mark.seeded
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_factor_rows_and_orbits_match_plain_loops(data):
    """Rows and orbit caches filled by earlier calls, including calls that
    raised, give the plain loops' floats and errors on later calls."""
    model, ref = data.draw(models())
    w = data.draw(weights())
    # Tables may have gaps and stop early, and powers of a center element
    # may leave the window: n runs past both, rising in steps of `stride`
    # (so rows grow by one or by several factors), then falling.
    reach = 2 * model.window + 3
    eta = sequences(data.draw, model,
                    indices=data.draw(st.sets(st.integers(1, reach), max_size=12)))
    z = data.draw(st.sampled_from(model.center_elements().members))
    # Walks from the window's edges leave it after a single step.
    edges = (model.carrier[0], model.carrier[-1])
    outside = (edges[0] - 1, edges[1] + 1)
    xs = edges + tuple(data.draw(st.lists(st.sampled_from(model.carrier + outside),
                                          max_size=2, unique=True)))
    stride = data.draw(st.sampled_from((1, 2, 5)))
    falling = sorted(data.draw(st.lists(st.integers(0, reach), max_size=6)),
                     reverse=True)
    zeta = hz.center_powers(model, z)

    def ref_pair(x, n):
        return (ref.shifted_weight_product(w, zeta, x, n, hz.DEFAULT_CONVENTION),
                1.0 / ref.weight_product(w, zeta, x, n, hz.DEFAULT_CONVENTION))

    for n in list(range(0, reach + 1, stride)) + falling:
        for x in xs:
            for convention in ProductConvention:
                assert (outcome(hz.weight_product, model, w, eta, x, n, convention)
                        == outcome(ref.weight_product, w, eta, x, n, convention))
            assert (outcome(hz.hereditary_weight_pair, model, x, z, w, n)
                    == outcome(ref_pair, x, n))
        f = SparseFunction.from_dict({x: data.draw(VALUES) for x in xs})
        convention = data.draw(st.sampled_from(tuple(ProductConvention)))
        got = outcome(hz.apply_weighted_translation, model, f, w, eta, n, convention)
        want = outcome(ref.apply_weighted_translation, f, w, eta, n, convention)
        assert got == want
        if isinstance(got, SparseFunction):
            assert got.values == want.values


@st.composite
def groups(draw):
    """Models on which every point product is an exact unit atom: the
    integers and validated Cayley tables."""
    if draw(st.booleans()):
        model = hz.integer_group(draw(st.integers(1, 16)))
        return model, EagerReference(model)
    conv, involution, identity = draw(st.one_of(cyclic_table(), st.just(s3_table())))
    model = hz.table_hypergroup(conv, involution, identity=identity)
    return model, EagerReference(model, raw=lambda x, y: conv[(x, y)],
                                 space=model.in_window)


@pytest.mark.seeded
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_group_law_path_matches_eager_table(data):
    """On a group the factors, rows, translates and point products come from
    the point law and shared orbit rows, never from the pair memo, and give
    the eager table's floats and errors."""
    model, ref = data.draw(groups())
    assert model.group
    w = data.draw(weights())
    reach = 2 * model.window + 3
    eta = sequences(data.draw, model,
                    indices=data.draw(st.sets(st.integers(1, reach), max_size=12)))
    edges = (model.carrier[0], model.carrier[-1])
    outside = (edges[0] - 1, edges[1] + 1)
    xs = data.draw(st.lists(st.sampled_from(model.carrier + outside), min_size=1,
                            max_size=4, unique=True))
    # Walks up and down from a point reach its neighbours along the orbit
    # of the sequence's step, as the probes' pulled-back points do.
    step = eta.z if isinstance(eta, CenterPowers) else data.draw(
        st.sampled_from(model.carrier))
    for by in (step, model.involution(step)):
        walk = [data.draw(st.sampled_from(model.carrier))]
        for _ in range(3):
            walk.append(model._law(walk[-1], by))
        xs += walk
    ns = data.draw(st.lists(st.integers(0, reach), min_size=1, max_size=8))
    pairs = len(model._pairs)  # the center was decided while drawing eta
    for n in ns:
        for x in xs:
            for convention in ProductConvention:
                for name in ("weight_product", "shifted_weight_product"):
                    assert (outcome(getattr(hz, name), model, w, eta, x, n, convention)
                            == outcome(getattr(ref, name), w, eta, x, n, convention))
        f = SparseFunction.from_dict({x: data.draw(VALUES) for x in set(xs)})
        convention = data.draw(st.sampled_from(tuple(ProductConvention)))
        for name in ("apply_weighted_translation", "apply_right_inverse"):
            got = outcome(getattr(hz, name), model, f, w, eta, n, convention)
            want = outcome(getattr(ref, name), f, w, eta, n, convention)
            assert got == want
            if isinstance(got, SparseFunction):
                assert got.values == want.values
        y = data.draw(st.sampled_from(model.carrier))
        assert outcome(hz.translate, model, f, y) == outcome(ref.translate, f, y)
        assert (outcome(translated_weight, model, w, xs[0], y)
                == outcome(ref.translated_weight, w, xs[0], y))
    assert len(model._pairs) == pairs


def _bits(value):
    """A float's exact bits, so 0.0 and -0.0 or two NaNs compare as bits;
    anything else (an exception type) as itself."""
    return value.hex() if isinstance(value, float) else value


@pytest.mark.seeded
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shifted_products_match_the_plain_product(data):
    """On a group the shifted products along powers of z extend the stored
    product one factor short by one factor.  Whatever order the steps
    come in, rising by one or by several, falling, negative or past the
    window, and after calls that raised, each must have the bits and the
    error of the product at the shifted point, computed by weight_product
    on a weight of its own and by the eager table."""
    model, ref = data.draw(groups())
    w = data.draw(st.one_of(weights(), st.just(hz.geometric_weight(1e300, 1e8))))
    plain = w._replace()  # an equal weight with memos of its own
    eta = hz.center_powers(model, data.draw(st.sampled_from(
        model.center_elements().members)))
    reach = 2 * model.window + 3
    edges = (model.carrier[0], model.carrier[-1])
    outside = (edges[0] - 1, edges[1] + 1)
    xs = edges + outside + tuple(data.draw(st.lists(st.sampled_from(model.carrier),
                                                    max_size=2)))
    stride = data.draw(st.sampled_from((1, 2, 5)))
    ns = (list(range(0, reach + 1, stride))
          + data.draw(st.lists(st.integers(-2, reach), max_size=6)))

    def fresh(x, n, convention):
        return hz.weight_product(model, plain, eta, model.point_product(x, eta(n)),
                                 n, convention)

    for n in ns:
        for x in xs:
            for convention in ProductConvention:
                got = _bits(outcome(hz.shifted_weight_product, model, w, eta, x, n,
                                    convention))
                if n < 0:  # rejected before the shifted point is computed
                    assert got is ValueError
                    continue
                assert got == _bits(outcome(fresh, x, n, convention))
                assert got == _bits(outcome(ref.shifted_weight_product, w, eta,
                                            x, n, convention))


def _full_sup_values(model, w, eta, e, n, convention):
    """The sup-criterion values at E read off the whole forward sums, which
    raise NonFiniteValue where a weighted value or a value at E is not
    finite."""
    pulled = hz.translate(model, hz.indicator(e), eta(-n))
    weighted = SparseFunction.from_dict(
        {x: tv * hz.weight_product(model, w, eta, x, n, convention)
         for x, tv in pulled.values})
    sums = _translate_sums(model, weighted, eta(n))
    values = [sums.get(x, 0.0) for x in e]
    if not all(map(math.isfinite, values)):
        raise NonFiniteValue("stored values must be finite")
    return values


# Table weights up to the largest float, so weighted functions and their
# forward sums reach the float range.
HUGE = st.floats(1e300, sys.float_info.max)


@pytest.mark.seeded
@settings(max_examples=80, deadline=None)  # about 16 per strategy
@given(st.data())
def test_sup_values_at_e_match_the_whole_translate(data):
    """The forward translate summed at the points of E only gives the
    values, and the errors (NonFiniteValue included), of the whole forward
    sums read at E, on every family and on broken tables."""
    model, ref = data.draw(st.one_of(models(), broken_tables(), skewed_integers()))
    w = data.draw(st.one_of(weights(), st.dictionaries(
        st.sampled_from(model.carrier), HUGE, max_size=4).map(hz.table_weight)))
    eta = hz.eta_from_table(model, {k: data.draw(st.sampled_from(model.carrier))
                                    for k in range(1, 5)})
    e = tuple(sorted(data.draw(st.sets(st.sampled_from(model.carrier), min_size=1,
                                       max_size=4))))
    plain = w._replace()
    for n in range(0, 6):
        for convention in ProductConvention:
            got = outcome(dynamics._sup_necessary_values, model, w, eta, e, n, convention)
            want = outcome(_full_sup_values, model, plain, eta, e, n, convention)
            assert ([_bits(v) for v in got] if isinstance(got, list) else got) == (
                [_bits(v) for v in want] if isinstance(want, list) else want)


def test_sup_values_overflowing_off_e_stay_finite():
    """A broken table on {0, 1, 2}, by eta(1) = 1, with the weight at the
    largest float on 1 and 2: the weighted function is about
    {0: 0.5, 1: MAX, 2: MAX}, and its forward sums overflow at 0, off
    E = {2}, and are MAX at 2.  Only the values at E are tracked, so the
    value is MAX and nothing is flagged."""
    top = sys.float_info.max
    conv = {(x, y): {x + y: 1.0} for x in range(3) for y in range(3) if 0 in (x, y)}
    conv.update({(0, 1): {1: 0.5, 2: 0.5 + 1e-13}, (1, 1): {0: 1e-300, 2: 1.0},
                 (2, 1): {0: 1e-300, 1: 1e-300, 2: 1.0}, (1, 2): {0: 1.0},
                 (2, 2): {0: 1.0}})
    model = hz.table_hypergroup(conv, {0: 0, 1: 1, 2: 2}, validate=False)
    w = hz.table_weight({1: top, 2: top})
    eta = hz.eta_from_table(model, {1: 1})
    convention = ProductConvention.ITERATE_EXCLUSIVE
    pulled = hz.translate(model, hz.indicator([2]), eta(-1))
    weighted = SparseFunction.from_dict(
        {x: tv * hz.weight_product(model, w, eta, x, 1, convention)
         for x, tv in pulled.values})
    assert weighted.values == ((0, 0.5 + 1e-13), (1, top), (2, top))
    sums = _translate_sums(model, weighted, 1)
    assert sums[0] == math.inf and sums[2] == top
    assert dynamics._sup_necessary_values(model, w, eta, (2,), 1, convention) == [top]


def test_an_off_window_point_raises_after_the_sequence_index():
    """The plain loop reads the sequence at index -(count-1) before it checks
    x, so a power past the window wins over an off-window point, also once
    a shared orbit row already holds values at x."""
    model = hz.integer_group(4)
    ref = EagerReference(model)
    w = hz.geometric_weight(1.5, 0.75)
    eta = hz.center_powers(model, 1)
    convention = ProductConvention.ITERATE_EXCLUSIVE
    # Rows of -4 reach down to -6, off the window.
    assert (hz.weight_product(model, w, eta, -4, 3, convention)
            == ref.weight_product(w, eta, -4, 3, convention))
    for x, n, error in ((-6, 1, ValueError), (-6, 3, ValueError),
                        (5, 5, ValueError), (-6, 6, WindowOverflow),
                        (5, 6, WindowOverflow)):
        assert outcome(hz.weight_product, model, w, eta, x, n, convention) is error
        assert outcome(ref.weight_product, w, eta, x, n, convention) is error


def test_a_unit_mass_within_tolerance_keeps_the_general_path():
    """A Cayley table of Z_3 whose row (1,1) has mass 1 - 1e-13 at its unit
    atom validates (the axioms allow TOL_ATOM), but that row is not exactly
    a unit atom: its factor is 0.0 + w(2) * (1 - 1e-13), not w(2), and the
    model is no group, so its products keep one row per point."""
    conv = {(x, y): {(x + y) % 3: 1.0} for x in range(3) for y in range(3)}
    conv[(1, 1)] = {2: 1.0 - 1e-13}
    model = hz.table_hypergroup(conv, {0: 0, 1: 2, 2: 1})
    ref = EagerReference(model, raw=lambda x, y: conv[(x, y)], space=model.in_window)
    assert model._law(1, 1) is None and model._law(1, 2) == 0 and not model.group
    w = hz.table_weight({0: 1.25, 1: 0.75, 2: 3.0})
    assert translated_weight(model, w, 1, 1) == 3.0 * (1.0 - 1e-13) != 3.0
    assert translated_weight(model, w, 1, 1) == ref.translated_weight(w, 1, 1)
    for z in (1, 2):
        eta = hz.center_powers(model, z)
        for n in range(9):
            for x in model.carrier:
                for convention in ProductConvention:
                    for name in ("weight_product", "shifted_weight_product"):
                        assert (getattr(hz, name)(model, w, eta, x, n, convention)
                                == getattr(ref, name)(w, eta, x, n, convention))
            f = SparseFunction.from_dict({0: 0.5, 1: -1.5, 2: 2.0 / 3.0})
            assert (hz.apply_weighted_translation(model, f, w, eta, n).values
                    == ref.apply_weighted_translation(
                        f, w, eta, n, ProductConvention.ITERATE_EXCLUSIVE).values)
            assert hz.translate(model, f, eta(-n)).values == ref.translate(f, eta(-n)).values


def _stored(model, w):
    """(pair-memo entries, weight values the factor rows and orbits hold,
    weight products the product memo holds)."""
    factors = products = 0
    for key, entries in w._memo.items():
        if key[0] == "rows":
            factors += sum(map(len, entries.values()))
        elif key[0] == "orbits":
            states = {id(orbit): orbit[0] for orbit, _ in entries.values()}
            factors += sum(len(vals) for _, vals, _, _ in states.values())
        elif key[0] == "products":
            products += len(entries)
    return len(model._pairs), factors, products


def test_necessary_sup_stores_linearly_in_the_horizon():
    """Each step pulls E back by one more power, so a row per point would
    hold about |E| h^2 / 2 values at horizon h; one row per orbit holds
    about h, and the product memo one shifted product per point of E and
    step.
    Counts only: four times the horizon may at most about quadruple them."""
    stored = {}
    e = range(-4, 4)
    for horizon in (250, 1000):
        model = hz.integer_group(10_000)
        w = hz.step_weight(0, 2.0, 0.5)
        hz.probe_sup_necessary(model, w, hz.center_powers(model, 1), e, horizon)
        stored[horizon] = _stored(model, w)
        assert 0 < stored[horizon][2] <= 2 * len(e) * horizon
    (pairs_250, factors_250, _), (pairs_1000, factors_1000, _) = stored[250], stored[1000]
    assert pairs_1000 <= 5 * max(pairs_250, 1)
    assert 0 < factors_1000 <= 5 * factors_250
    assert factors_1000 < 2 * 1000 + 16


def test_an_orbit_state_reaching_another_takes_it_in():
    """The span of 10 reaches from the state of 0 through 5, which a
    state of its own holds, and the span of 12 down through 10.  One state
    is left, each point in it once, and every product read from it, at the
    points taken in too, has the eager loop's bits."""
    model = hz.integer_group(16)
    ref = EagerReference(model)
    w = hz.table_weight({x: 1.0 + x / 64 for x in range(-16, 17)})
    eta = hz.center_powers(model, 1)
    for x, n in ((0, 1), (5, 1), (10, 11), (5, 6), (12, 15), (10, 3), (-3, 4)):
        for convention in ProductConvention:
            assert (_bits(hz.weight_product(model, w, eta, x, n, convention))
                    == _bits(ref.weight_product(w, eta, x, n, convention)))
    where = w._memo["orbits", model, 1]
    states = {id(orbit): orbit[0] for orbit, _ in where.values()}
    assert len(states) == 1
    (lo, vals, first, last), = states.values()
    assert (first, last) == (-7, 12) and len(vals) == len(where) == 20
    assert all(vals[where[x][1] - lo] == w(x) for x in where)


def test_probes_on_one_orbit_keep_one_state():
    """The sup probe's shifted products and the center probe's products
    at E = (-6, 0, 5) reach the orbit of 1 from several points; a state
    that reaches a point another holds takes it in, so the orbit keeps one
    state and no value twice."""
    horizon = 1000
    model = hz.integer_group(10_000)
    w = hz.step_weight(0, 2.0, 0.5)
    eta, e = hz.center_powers(model, 1), (-6, 0, 5)
    hz.probe_sup_necessary(model, w, eta, e, horizon)
    hz.probe_center_conditions(model, w, eta, hz.phi_p(2.0), e, horizon)
    where = w._memo["orbits", model, 1]
    states = {id(orbit): orbit[0] for orbit, _ in where.values()}
    assert len(states) == 1
    (lo, vals, first, last), = states.values()
    assert len(vals) <= 2 * horizon + 16
    assert [where[x][1] for x in (first, last)] == [lo, lo + len(vals) - 1]
    assert all(vals[where[x][1] - lo] == w(x) for x in where)


@pytest.mark.seeded
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_verify_axioms_matches_allocating_loop(data):
    model, ref = data.draw(models())
    bound = data.draw(st.integers(0, model.window))
    assert model.verify_axioms(bound) == ref.verify_axioms(bound)


class _MovedIntegers(hypergroups._IntegerGroup):
    """The integers with some point products moved to another unit label: a
    broken model whose rows are all unit atoms, where a triple's sides can
    leave the window."""

    group = False

    def __init__(self, moved):
        super().__init__()
        self.moved = moved

    def point_law(self, x, y):
        return self.moved.get((x, y), x + y)

    def raw_convolve(self, x, y):
        return {self.point_law(x, y): 1.0}


@st.composite
def unit_row_models(draw, moved=False):
    """Models every row of which is a unit atom {u: 1.0}: an integer window,
    or S3's Cayley table, which does not commute, under a drawn relabelling.
    With ``moved`` some products of the integers, or one row of the table
    not on a pair (x, x^-), move to another unit label: a broken model."""
    if draw(st.booleans()):
        window = draw(st.integers(1, 6))
        if not moved:
            model = hz.integer_group(window)
        else:
            labels = st.integers(-window, window)
            model = hypergroups.HypergroupModel(_MovedIntegers(draw(st.dictionaries(
                st.tuples(labels, labels),
                st.integers(-2 * window - 1, 2 * window + 1), min_size=1, max_size=4))),
                window)
        return model, EagerReference(model)
    conv, involution, identity = s3_table()
    names = dict(enumerate(draw(st.lists(st.integers(-16, 16), min_size=6, max_size=6,
                                         unique=True))))
    conv = {(names[x], names[y]): {names[u]: 1.0 for u in row}
            for (x, y), row in conv.items()}
    involution = {names[x]: names[y] for x, y in involution.items()}
    if moved:
        x, y = draw(st.sampled_from(sorted(xy for xy in conv if xy[1] != involution[xy[0]])))
        conv[(x, y)] = {draw(st.sampled_from(sorted(set(involution) - set(conv[(x, y)])))): 1.0}
    model = hz.table_hypergroup(conv, involution, identity=names[identity],
                                validate=not moved)
    return model, EagerReference(model, raw=lambda x, y: conv[(x, y)],
                                 space=model.in_window)


@pytest.mark.seeded
@settings(max_examples=60, deadline=None)  # about 20 per strategy
@given(st.one_of(unit_row_models(), unit_row_models(moved=True)))
def test_unit_row_models_match_the_allocating_loop_at_every_bound(pair):
    # The point law gives a label for every row the check reads, so it is
    # decided on labels, with no pair-memo entry, and must find what the
    # plain loop finds on the rows, in its order, at each bound that
    # changes the labels checked.
    model, ref = pair
    for bound in sorted({0} | {abs(x) for x in model.carrier}):
        assert model.verify_axioms(bound) == ref.verify_axioms(bound)
    assert model._pairs == {}


@pytest.mark.seeded
@settings(max_examples=60, deadline=None)  # about 15 per strategy
@given(st.one_of(broken_tables(), skewed_integers(), broken_tables(unit=True),
                 broken_tables(symmetric=True, unit=True)))
def test_broken_model_violations_match(pair):
    model, ref = pair
    got = model.verify_axioms(model.window)
    assert got == ref.verify_axioms(model.window)


@pytest.mark.seeded
@settings(max_examples=90, deadline=None)  # about 30 per strategy
@given(st.data())
def test_shared_sides_match_the_plain_loop_on_commuting_models(data):
    # Commuting rows let one sum of each side serve every ordering of a
    # multiset of labels; the violations must be the plain loop's, in its
    # order, at any bound.
    model, ref = data.draw(st.one_of(broken_tables(symmetric=True),
                                     skewed_integers(symmetric=True),
                                     broken_tables(symmetric=True, unit=True)))
    bound = data.draw(st.integers(0, model.window))
    assert model.verify_axioms(bound) == ref.verify_axioms(bound)


@pytest.mark.seeded
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_row_one_bit_off_its_transpose_matches_the_plain_loop(data):
    # Where that row is among the ones the sweep reads, the model does not
    # commute there and takes the plain loop; elsewhere it shares sides.
    model, ref = data.draw(broken_tables(symmetric=True, odd_bit=True))
    bound = data.draw(st.integers(0, model.window))
    assert model.verify_axioms(bound) == ref.verify_axioms(bound)


@pytest.fixture
def deviation_calls(monkeypatch):
    """A list that grows by one per hypergroups._max_deviation call."""
    calls = []
    original = hypergroups._max_deviation

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(hypergroups, "_max_deviation", counting)
    return calls


def test_a_row_one_bit_off_its_transpose_takes_the_plain_loop(deviation_calls):
    # On Z_3 every triple fits, so the plain loop compares the sides of all
    # 27 after the 9 adjoint comparisons; sharing sides compares fewer.
    calls = deviation_calls
    conv = {(i, j): {(i + j) % 3: 1.0} for i in range(3) for j in range(3)}
    counts = []
    for table in (conv, {**conv, (1, 2): {0: math.nextafter(1.0, 0.0)}}):
        del calls[:]
        model = hz.table_hypergroup(table, {0: 0, 1: 2, 2: 1}, validate=False)
        assert model.verify_axioms(2) == []
        counts.append(len(calls))
    assert counts[0] < counts[1] == 9 + 27


def test_commuting_unit_rows_keep_every_violation():
    # 1*2 = 0, 1*3 = 1 and 2*3 = 1 are unit rows of a broken commuting
    # table, so sides of distinct orderings of one multiset can be one
    # shared unit row.  Guarding the comparisons by identity, as if such a
    # row meant a repeated label, loses (2, 1, 3) and (3, 1, 2); only the
    # indices say which comparisons remain.
    conv = {(x, y): {x + y if 0 in (x, y) else 0: 1.0}
            for x in range(4) for y in range(4)}
    for (x, y), u in {(1, 2): 0, (1, 3): 1, (2, 3): 1}.items():
        conv[(x, y)] = conv[(y, x)] = {u: 1.0}
    model = hz.table_hypergroup(conv, {x: x for x in range(4)}, validate=False)
    ref = EagerReference(model, raw=lambda x, y: conv[(x, y)], space=model.in_window)
    got = model.verify_axioms(3)
    assert got == ref.verify_axioms(3)
    witnesses = [v.witness for v in got if v.axiom == "associativity"]
    assert len(witnesses) == 14
    assert (2, 1, 3) in witnesses and (3, 1, 2) in witnesses


def test_unit_sides_are_rows_and_never_compared_with_themselves(deviation_calls):
    # A work count, not a time.  Every row on the integers is a unit atom the
    # point law gives, so every axiom is decided on labels: no row enters the
    # pair memo and no two rows are compared.  Comparing the 49^2 adjoint
    # rows and summing every associativity side made 31 225 comparisons.
    model = hz.integer_group(24)
    assert model.verify_axioms(24) == []
    assert len(deviation_calls) == 0
    assert model._pairs == {}


def test_associativity_sums_each_side_once_per_multiset(deviation_calls):
    # A work count, not a time.  On su2(40), 12 341 of the 68 921 ordered
    # triples fit the window; the plain loop compares the two sides of each
    # (12 341 calls) after the 41^2 adjoint comparisons, 14 022 in all.
    # Sharing the sides of a multiset halves the triple comparisons, to
    # 5 910, and not comparing sides with equal atoms leaves 4 399.  On
    # dunkl_ramirez(0.3, 32) at bound 20 the off-diagonal sides are unit
    # rows, most of them equal.  The point law has no label for (1, 1), so
    # all of this reads the pair memo's rows, each pair of labels once.
    for model, bound, calls in ((hz.su2(40), 40, 41**2 + 4_399),
                                (hz.dunkl_ramirez(0.3, 32), 20, 618)):
        deviation_calls.clear()
        assert model.verify_axioms(bound) == []
        assert len(deviation_calls) == calls
        assert len(model._pairs) == (bound + 1)**2


def test_mixed_masses_are_reported_not_raised():
    # delta_1 * delta_1 carries half the mass, so (delta_0 * delta_1) * delta_1
    # is not a probability measure; the check lists that instead of failing.
    conv = {(0, 0): {0: 1.0}, (0, 1): {1: 1.0}, (1, 0): {1: 1.0},
            (1, 1): {0: 0.25, 1: 0.25}}
    model = hz.table_hypergroup(conv, {0: 0, 1: 1}, validate=False)
    axioms = {v.axiom for v in model.verify_axioms(1)}
    assert "probability-mass" in axioms
    with pytest.raises(ValueError, match="probability-mass"):
        hz.table_hypergroup(conv, {0: 0, 1: 1})


def test_build_computes_no_convolution(monkeypatch):
    calls = []
    original = hypergroups._IntegerGroup.raw_convolve

    def counting(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(hypergroups._IntegerGroup, "raw_convolve", counting)
    model = hz.integer_group(1000)
    assert len(model.carrier) == 2001
    assert calls == []
    # the center is decided on demand, from the point law without a convolution
    assert model.is_central(7) and calls == []
    assert model.center_elements().members == model.carrier
