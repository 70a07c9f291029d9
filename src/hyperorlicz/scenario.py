"""Scenario files: a YAML description of one model plus run settings.

Grammar (top-level keys, unknown keys rejected):

    id: doubling-shift                  # required, nonempty string
    hypergroup:                         # required
      family: integers | dunkl_ramirez | su2 | table
      window: 64                        # required positive bound
      a: 0.5                            # dunkl_ramirez only, in (0, 1/2]
      identity: 0                       # table only
      involution: {0: 0, 1: 2, 2: 1}   # table only
      table:                            # table only: [x, y, {label: mass}]
        - [0, 0, {0: 1.0}]
    young:                              # required
      kind: phi_p | exp_minus_linear | cosh_minus_one | tabulated
      p: 2.0                            # phi_p only, >= 1
      knots: [[0.0, 0.0], [1.0, 0.5]]  # tabulated only
    weight:                             # required
      form: constant | step | table | geometric
      value: 1.5                        # constant
      threshold: 0                      # step (low at labels <= threshold)
      low: 2.0
      high: 0.5
      entries: {0: 2.0, 1: 0.5}        # table
      default: 1.0
      base: 2.0                         # geometric: base * ratio**label
      ratio: 0.5
    eta:                                # optional; needed by sequence commands
      generator: center_powers | table
      z: 1                              # center_powers
      entries: {1: 1, 2: 2}            # table, indexed from 1
    sets:                               # optional, named label lists
      E: [0]
    functions:                          # optional, named sparse functions
      f: {0: 1.0}
    run:                                # optional, all fields defaulted
      horizon: 24
      k_max: 8
      series_cutoff: 40
      rs_bound: 3
      convention: iterate_exclusive | inclusive
      triple_bound: 12                 # axioms on labels |x| <= 12; >= 0, omit for all

A mapping may not repeat a key: the second ``window:`` in one section is
an error, not a silent override (keys merged in with YAML's ``<<`` may
still be overridden).  Files are parsed with libyaml's C parser when the
PyYAML build has it, else with PyYAML's pure-Python parser, and both share
PyYAML's Python resolver.  The document is then built straight from the
node tree: lists, dicts, and each core scalar (str, int, float, bool, null)
made once per tag and value by PyYAML's own constructor for its tag.  A
file with an alias of a list or mapping, a ``<<`` merge key, any other tag,
or a repeated or unhashable key is built again by PyYAML's whole
constructor, which raises every error, so both parsers give the documents
``yaml.load`` gives.

Validation is eager: the hypergroup is built (axioms of table families are
checked on construction), the declared sequence is dry-run over every index
up to the horizon in both directions, and every set and function label must
lie in the window.  Every number passes through one converter, so a value
that is not a finite int or float (null, a word, a list, a mapping) is a
ScenarioError too, as is a bool or, where an integer belongs, a float with
a fractional part.  A geometric weight must be finite and positive at both
ends of the carrier, and the window must keep every Haar weight a finite
float.  ``run.triple_bound`` must be nonnegative: the axiom check takes the
labels with |x| <= bound, so a negative one would check none.  Parameter ranges are checked by the library constructors alone: a
ValueError one raises is a ScenarioError at its section.  Failures raise
ScenarioError with the offending path.
"""
import math
from collections.abc import Hashable
from typing import NamedTuple

import yaml

from .errors import NonFiniteValue, ScenarioError, WindowOverflow
from .functions import SparseFunction
from .hypergroups import (
    HypergroupModel,
    dunkl_ramirez,
    integer_group,
    su2,
    table_hypergroup,
)
from .operators import (
    DEFAULT_CONVENTION,
    EtaSequence,
    ProductConvention,
    Weight,
    center_powers,
    constant_weight,
    eta_from_table,
    geometric_weight,
    step_weight,
    table_weight,
)
from .orlicz import (
    YoungFunction,
    cosh_minus_one,
    exp_minus_linear,
    phi_p,
    tabulated_young,
)


class _UniqueKeys:
    """Loader mixin: a mapping that repeats an explicit key is a
    ConstructorError naming the key, where PyYAML would keep the last value.
    Keys merged in with ``<<`` are left to PyYAML, which lets explicit keys
    override them."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value if isinstance(node, yaml.MappingNode) else ():
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                break  # PyYAML reports the unhashable key itself
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


# libyaml's scanner and parser when this PyYAML build has them; the
# resolver and the constructor _load falls back to are PyYAML's Python ones
# either way.
class _Loader(_UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    def __init__(self, stream):
        super().__init__(stream)
        self._tags = {}

    def resolve(self, kind, value, implicit):
        """PyYAML's tag, memoised per loader: SafeLoader registers no path
        resolvers, so the tag depends on these three arguments alone."""
        key = (kind, value, implicit)
        tag = self._tags.get(key)
        if tag is None:
            tag = self._tags[key] = super().resolve(kind, value, implicit)
        return tag


_CORE_TAGS = frozenset(f"tag:yaml.org,2002:{name}"
                       for name in ("str", "int", "float", "bool", "null"))
_SEQ_TAG = "tag:yaml.org,2002:seq"
_MAP_TAG = "tag:yaml.org,2002:map"


class _OffPath(Exception):
    """A node the direct build leaves to PyYAML's constructor."""


def _direct(loader, root):
    """The document under root as lists, dicts and core scalars, each core
    scalar made by the loader's own constructor for its tag once per
    (tag, value).  Raises _OffPath at a collection seen twice (an alias),
    any other tag (a ``<<`` merge key included) or a repeated key; an
    unhashable key raises TypeError.  An aliased scalar needs no check: the
    memo hands out one object per (tag, value), as PyYAML's alias does."""
    constructors = loader.yaml_constructors
    scalars = {}
    seen = set()

    def build(node):
        if node.id == "scalar":
            key = (node.tag, node.value)
            out = scalars.get(key, scalars)
            if out is scalars:
                if node.tag not in _CORE_TAGS:
                    raise _OffPath
                out = scalars[key] = constructors[node.tag](loader, node)
            return out
        if node in seen:  # nodes hash by identity
            raise _OffPath
        seen.add(node)
        if node.tag == _SEQ_TAG and node.id == "sequence":
            return [build(item) for item in node.value]
        if node.tag == _MAP_TAG and node.id == "mapping":
            out = {build(k): build(v) for k, v in node.value}
            if len(out) != len(node.value):
                raise _OffPath
            return out
        raise _OffPath

    try:
        return build(root)
    finally:
        del build  # its closure holds it: leave no cycle keeping the loader alive


def _load(stream):
    """The single YAML document in stream, as ``yaml.load(stream,
    Loader=_Loader)`` gives it.  The node tree is composed by _Loader and
    built by _direct; where a node is off that path, or anything raises
    there, PyYAML's constructor builds the whole document again from the
    same tree, so it decides every rare construct and every error text."""
    loader = _Loader(stream)
    try:
        node = loader.get_single_node()
        if node is None:
            return None
        try:
            return _direct(loader, node)
        except Exception:  # PyYAML rebuilds it and raises what yaml.load would
            return loader.construct_document(node)
    finally:
        loader.dispose()


class RunSettings(NamedTuple):
    horizon: int = 16
    k_max: int = 8
    series_cutoff: int = 40
    rs_bound: int = 3
    convention: ProductConvention = DEFAULT_CONVENTION
    triple_bound: int | None = None


class Scenario(NamedTuple):
    scenario_id: str
    model: HypergroupModel
    phi: YoungFunction
    weight: Weight
    eta: EtaSequence | None
    sets: dict[str, tuple[int, ...]]
    functions: dict[str, SparseFunction]
    run: RunSettings


def _need(mapping, key, path, kind=None):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ScenarioError(f"{path}: missing required key {key!r}")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(f"{path}.{key}: expected {kind.__name__}, "
                            f"got {type(value).__name__}")
    return value


def _scalar(value, kind, path):
    """value converted by kind (int or float); a bool, a float the
    conversion would change, or a value kind cannot convert to a finite
    number raises ScenarioError at path."""
    if not isinstance(value, bool):
        try:
            out = kind(value)
            if math.isfinite(out) and not (isinstance(value, float) and out != value):
                return out
        except (TypeError, ValueError, OverflowError):
            pass
    raise ScenarioError(f"{path}: expected a finite {kind.__name__}, got {value!r}")


def _mapping(value, path) -> dict:
    """value itself when it is a mapping, else ScenarioError at path."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _no_extras(mapping, allowed, path):
    extra = set(mapping) - set(allowed)
    if extra:
        raise ScenarioError(f"{path}: unknown keys {sorted(extra)!r}")


def _int_labels(mapping, path) -> dict[int, float]:
    out = {}
    for k, v in mapping.items():
        if not isinstance(k, int) or isinstance(k, bool):
            raise ScenarioError(f"{path}: labels must be integers, got {k!r}")
        out[k] = _scalar(v, float, f"{path}.{k}")
    return out


def _number(section, key, path, kind=float):
    """The required number at path.key, converted by kind."""
    return _scalar(_need(section, key, path), kind, f"{path}.{key}")


def _table_model(section, path, window) -> HypergroupModel:
    identity = _scalar(section.get("identity", 0), int, f"{path}.identity")
    involution = {_scalar(k, int, f"{path}.involution"):
                  _scalar(v, int, f"{path}.involution.{k}")
                  for k, v in _need(section, "involution", path, dict).items()}
    conv = {}
    for i, row in enumerate(_need(section, "table", path, list)):
        if not (isinstance(row, list) and len(row) == 3 and isinstance(row[2], dict)):
            raise ScenarioError(f"{path}.table[{i}]: expected [x, y, {{label: mass}}]")
        conv[(_scalar(row[0], int, f"{path}.table[{i}][0]"),
              _scalar(row[1], int, f"{path}.table[{i}][1]"))] = _int_labels(
            row[2], f"{path}.table[{i}]")
    return table_hypergroup(conv, involution, identity=identity)


def _tabulated(section, path) -> YoungFunction:
    knots = []
    for i, knot in enumerate(_need(section, "knots", path, list)):
        if not (isinstance(knot, list) and len(knot) == 2):
            raise ScenarioError(f"{path}.knots[{i}]: expected [t, value]")
        knots.append(tuple(_scalar(v, float, f"{path}.knots[{i}]") for v in knot))
    return tabulated_young(knots)


# Section -> (the key naming its kind, kind -> (the other keys a section of
# that kind may have, its constructor from (section, path, *context))).
# The library constructors check the parameter ranges.
_KINDS = {
    "hypergroup": ("family", {
        "integers": (("window",), lambda s, path, window: integer_group(window)),
        "su2": (("window",), lambda s, path, window: su2(window)),
        "dunkl_ramirez": (("window", "a"), lambda s, path, window: dunkl_ramirez(
            _number(s, "a", path), window)),
        "table": (("window", "identity", "involution", "table"), _table_model),
    }),
    "young": ("kind", {
        "phi_p": (("p",), lambda s, path: phi_p(_number(s, "p", path))),
        "exp_minus_linear": ((), lambda s, path: exp_minus_linear()),
        "cosh_minus_one": ((), lambda s, path: cosh_minus_one()),
        "tabulated": (("knots",), _tabulated),
    }),
    "weight": ("form", {
        "constant": (("value",), lambda s, path: constant_weight(
            _number(s, "value", path))),
        "step": (("threshold", "low", "high"), lambda s, path: step_weight(
            _number(s, "threshold", path, int), _number(s, "low", path),
            _number(s, "high", path))),
        "table": (("entries", "default"), lambda s, path: table_weight(
            _int_labels(_need(s, "entries", path, dict), f"{path}.entries"),
            _scalar(s.get("default", 1.0), float, f"{path}.default"))),
        "geometric": (("base", "ratio"), lambda s, path: geometric_weight(
            _number(s, "base", path), _number(s, "ratio", path))),
    }),
    "eta": ("generator", {
        "center_powers": (("z",), lambda s, path, model: center_powers(
            model, _number(s, "z", path, int))),
        "table": (("entries",), lambda s, path, model: eta_from_table(model, {
            _scalar(k, int, f"{path}.entries"): _scalar(v, int, f"{path}.entries.{k}")
            for k, v in _need(s, "entries", path, dict).items()})),
    }),
}


def _kind(table, name, path, key):
    """table[name], or a ScenarioError at path.key naming the unknown kind."""
    if not isinstance(name, str) or name not in table:
        raise ScenarioError(f"{path}.{key}: unknown {key} {name!r}")
    return table[name]


def _build(section, path, *context):
    """The object the section at path declares, built by the constructor
    _KINDS gives for its kind.  A ValueError the constructor raises is a
    ScenarioError at path, or at path.window for a Haar weight that the
    window takes beyond the float range."""
    key, kinds = _KINDS[path]
    keys, construct = _kind(kinds, _need(section, key, path, str), path, key)
    _no_extras(section, {key, *keys}, path)
    try:
        return construct(section, path, *context)
    except ScenarioError:
        raise
    except ValueError as exc:
        where = ".window" if isinstance(exc, NonFiniteValue) else ""
        raise ScenarioError(f"{path}{where}: {exc}") from exc


def _build_run(section, path) -> RunSettings:
    """Run settings, each field defaulting as in RunSettings."""
    _no_extras(section, RunSettings._fields, path)
    counts = {key: _scalar(section.get(key, default), int, f"{path}.{key}")
              for key, default in RunSettings._field_defaults.items()
              if key in ("horizon", "k_max", "series_cutoff", "rs_bound")}
    for key, value in counts.items():
        if value < 1:
            raise ScenarioError(f"{path}.{key}: must be a positive integer")
    bound = section.get("triple_bound")
    if bound is not None:
        bound = _scalar(bound, int, f"{path}.triple_bound")
        if bound < 0:  # a negative bound would select no label to check
            raise ScenarioError(f"{path}.triple_bound: must be a nonnegative integer")
    return RunSettings(
        **counts,
        convention=_kind({c.value: c for c in ProductConvention},
                         section.get("convention", DEFAULT_CONVENTION.value),
                         path, "convention"),
        triple_bound=bound)


def parse_scenario(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario: top level must be a mapping")
    _no_extras(data, {"id", "hypergroup", "young", "weight", "eta", "sets",
                      "functions", "run"}, "scenario")
    scenario_id = _need(data, "id", "scenario", str)
    if not scenario_id:
        raise ScenarioError("scenario.id: must be nonempty")
    section = _need(data, "hypergroup", "scenario", dict)
    window = _number(section, "window", "hypergroup", int)
    if window < 1:
        raise ScenarioError("hypergroup.window: must be a positive integer")
    model = _build(section, "hypergroup", window)
    phi = _build(_need(data, "young", "scenario", dict), "young")
    weight = _build(_need(data, "weight", "scenario", dict), "weight")
    if weight.form == "geometric":
        ends = (model.carrier[0], model.carrier[-1])  # monotone: these bound it
        ok = weight.inf_over(ends) > 0.0 and weight.sup_over(ends) < math.inf
        if not ok:
            raise ScenarioError(f"weight: geometric weight is not finite and "
                                f"positive at both carrier ends {ends}")
    run = _build_run(_mapping(data.get("run") or {}, "run"), "run")
    eta = None
    if "eta" in data and data["eta"] is not None:
        eta = _build(data["eta"], "eta", model)
        for n in range(-run.horizon, run.horizon + 1):
            try:
                eta(n)
            except WindowOverflow as exc:
                raise ScenarioError(
                    f"eta: index {n} unreachable within horizon "
                    f"{run.horizon}: {exc}") from exc
    sets: dict[str, tuple[int, ...]] = {}
    for name, labels in _mapping(data.get("sets") or {}, "sets").items():
        if not isinstance(labels, list) or not labels:
            raise ScenarioError(f"sets.{name}: must be a nonempty label list")
        vals = tuple(sorted({_scalar(v, int, f"sets.{name}") for v in labels}))
        for v in vals:
            if not model.in_window(v):
                raise ScenarioError(f"sets.{name}: label {v} outside the window")
        sets[str(name)] = vals
    functions: dict[str, SparseFunction] = {}
    for name, mapping in _mapping(data.get("functions") or {}, "functions").items():
        if not isinstance(mapping, dict):
            raise ScenarioError(f"functions.{name}: must be a label-value map")
        values = _int_labels(mapping, f"functions.{name}")
        for v in values:
            if not model.in_window(v):
                raise ScenarioError(
                    f"functions.{name}: label {v} outside the window")
        functions[str(name)] = SparseFunction.from_dict(values)
    return Scenario(scenario_id=scenario_id, model=model, phi=phi,
                    weight=weight, eta=eta, sets=sets, functions=functions,
                    run=run)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = _load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario file is not valid YAML: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not UTF-8 text: {exc}") from exc
    except (KeyError, ValueError) as exc:
        # PyYAML's constructors raise these, not a YAMLError, for a tagged
        # scalar they cannot read, such as !!bool foo or !!int 1.5.
        raise ScenarioError(f"scenario file {path} holds a tagged value YAML "
                            f"cannot construct: {type(exc).__name__}: {exc}") from exc
    return parse_scenario(data)
