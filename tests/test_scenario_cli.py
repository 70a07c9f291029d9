"""Scenario parsing, CLI commands, exit codes, output determinism."""
import copy
import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperorlicz as hz
from hyperorlicz import cli, scenario
from hyperorlicz.hypergroups import AXIOMS
from hyperorlicz.report import record_line, render_csv, render_records

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

DOUBLING = {
    "id": "doubling",
    "hypergroup": {"family": "integers", "window": 64},
    "young": {"kind": "phi_p", "p": 2.0},
    "weight": {"form": "step", "threshold": 0, "low": 2.0, "high": 0.5},
    "eta": {"generator": "center_powers", "z": 1},
    "sets": {"E": [0]},
    "functions": {"f": {0: 1.0}, "g": {0: 1.0}},
    "run": {"horizon": 12, "k_max": 8, "series_cutoff": 5, "triple_bound": 6},
}


def write_scenario(tmp_path, data, name="sc.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def test_shipped_scenarios_parse():
    for name in ("doubling_shift.yaml", "dr_axioms.yaml", "su2_sequence.yaml"):
        sc = hz.load_scenario(str(SCENARIO_DIR / name))
        assert sc.scenario_id
    sc = hz.load_scenario(str(SCENARIO_DIR / "doubling_shift.yaml"))
    assert sc.run.horizon == 16
    assert isinstance(sc.eta, hz.CenterPowers)


def test_parse_rejects_unknown_keys():
    bad = dict(DOUBLING)
    bad["surprise"] = 1
    with pytest.raises(hz.ScenarioError):
        hz.parse_scenario(bad)


def test_parse_rejects_bad_parameters():
    bad = json.loads(json.dumps(DOUBLING))
    bad["hypergroup"] = {"family": "dunkl_ramirez", "window": 8, "a": 0.75}
    with pytest.raises(hz.ScenarioError):
        hz.parse_scenario(_with_int_keys(bad))
    bad2 = json.loads(json.dumps(DOUBLING))
    bad2["young"] = {"kind": "phi_p", "p": 0.5}
    with pytest.raises(hz.ScenarioError):
        hz.parse_scenario(_with_int_keys(bad2))
    bad3 = json.loads(json.dumps(DOUBLING))
    bad3["sets"] = {"E": [99]}
    with pytest.raises(hz.ScenarioError):
        hz.parse_scenario(_with_int_keys(bad3))
    bad4 = _with_int_keys(json.loads(json.dumps(DOUBLING)))
    bad4["hypergroup"] = {"family": "table", "window": 1, "identity": 0,
                          "involution": {0: 0}, "table": [[None, 0, {0: 1.0}]]}
    with pytest.raises(hz.ScenarioError, match=r"hypergroup\.table\[0\]\[0\]"):
        hz.parse_scenario(bad4)
    bad5 = _with_int_keys(json.loads(json.dumps(DOUBLING)))
    bad5["sets"] = [0, 1]
    with pytest.raises(hz.ScenarioError, match=r"^sets: "):
        hz.parse_scenario(bad5)


def _replaced(data, path, value):
    """A deep copy of data with the entry at path (a tuple of keys and list
    indices) replaced by value."""
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _leaves(node, path=()):
    """Paths of every scalar below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


def test_null_and_malformed_scalars_are_scenario_errors():
    table_eta = {"generator": "table", "entries": {1: 1, 2: None}}
    weights = ({"form": "step", "threshold": 0, "low": None, "high": 0.5},
               {"form": "step", "threshold": None, "low": 2.0, "high": 0.5},
               {"form": "table", "entries": {0: None}})
    cases = [
        (("young", "p"), None, r"^young\.p: "),
        (("run", "horizon"), None, r"^run\.horizon: "),
        (("run", "horizon"), "x", r"^run\.horizon: "),
        (("eta", "z"), None, r"^eta\.z: "),
        (("eta",), table_eta, r"^eta\.entries\.2: "),
        (("functions", "f", 0), None, r"^functions\.f\.0: "),
        (("hypergroup",), {"family": "dunkl_ramirez", "window": 8, "a": None},
         r"^hypergroup\.a: "),
        (("run",), [{"horizon": 4}], r"^run: "),
        (("run", "horizon"), 2.7, r"^run\.horizon: "),
        (("run", "horizon"), True, r"^run\.horizon: "),
        (("hypergroup", "window"), True, r"^hypergroup\.window: "),
        (("sets", "E"), [0.9], r"^sets\.E: "),
    ] + [(("weight",), w, r"^weight\.") for w in weights]
    base = _with_int_keys(json.loads(json.dumps(DOUBLING)))
    for path, value, message in cases:
        with pytest.raises(hz.ScenarioError, match=message):
            hz.parse_scenario(_replaced(base, path, value))


def test_cli_null_scalar_exits_two(tmp_path):
    data = _with_int_keys(json.loads(json.dumps(DOUBLING)))
    data["run"]["horizon"] = None
    path = write_scenario(tmp_path, data)
    assert run_cli(["--scenario", path, "--command", "axioms"]) == 2


SHIPPED = {name: yaml.safe_load((SCENARIO_DIR / name).read_text())
           for name in ("doubling_shift.yaml", "dr_axioms.yaml", "su2_sequence.yaml")}
ODD_VALUES = st.one_of(st.none(), st.text(max_size=4),
                       st.lists(st.integers(-3, 3), max_size=2),
                       st.dictionaries(st.integers(-3, 3), st.integers(-3, 3),
                                       max_size=2))


@pytest.mark.seeded
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_replaced_leaf_parses_or_is_a_scenario_error(data):
    scenario = data.draw(st.sampled_from(sorted(SHIPPED)))
    path = data.draw(st.sampled_from(_leaves(SHIPPED[scenario])))
    bad = _replaced(SHIPPED[scenario], path, data.draw(ODD_VALUES))
    try:
        assert isinstance(hz.parse_scenario(bad), hz.Scenario)
    except hz.ScenarioError:
        pass


def test_cli_malformed_shapes_exit_two(tmp_path):
    data = _with_int_keys(json.loads(json.dumps(DOUBLING)))
    data["sets"] = [0, 1]
    path = write_scenario(tmp_path, data)
    assert run_cli(["--scenario", path, "--command", "axioms"]) == 2


def _with_int_keys(data):
    # JSON round-trips turn integer mapping keys into strings; YAML keeps them
    for section in ("functions",):
        if section in data:
            data[section] = {name: {int(k): v for k, v in mp.items()}
                             for name, mp in data[section].items()}
    return data


def test_parse_dry_runs_sequence_reachability():
    bad = json.loads(json.dumps(DOUBLING))
    bad = _with_int_keys(bad)
    bad["hypergroup"]["window"] = 8
    bad["run"]["horizon"] = 20  # powers of 1 leave the window before 20
    with pytest.raises(hz.ScenarioError):
        hz.parse_scenario(bad)


def test_parse_table_family():
    data = {
        "id": "cyclic-three",
        "hypergroup": {
            "family": "table",
            "window": 2,
            "identity": 0,
            "involution": {0: 0, 1: 2, 2: 1},
            "table": [[x, y, {(x + y) % 3: 1.0}] for x in range(3)
                      for y in range(3)],
        },
        "young": {"kind": "phi_p", "p": 2.0},
        "weight": {"form": "constant", "value": 1.0},
    }
    sc = hz.parse_scenario(data)
    assert sc.model.center_elements().members == (0, 1, 2)


MINIMAL = {"id": "minimal",
           "hypergroup": {"family": "integers", "window": 4},
           "young": {"kind": "phi_p", "p": 2.0},
           "weight": {"form": "constant", "value": 1.0},
           "run": {"horizon": 2}}
Z3_TABLE = {"family": "table", "window": 2, "identity": 0,
            "involution": {0: 0, 1: 2, 2: 1},
            "table": [[x, y, {(x + y) % 3: 1.0}] for x in range(3)
                      for y in range(3)]}
Z3 = hz.table_hypergroup({(x, y): {(x + y) % 3: 1.0} for x in range(3)
                          for y in range(3)}, {0: 0, 1: 2, 2: 1})


def _model_of(sc):
    return sc.model.carrier, sc.model.haar


# (section, declaration, what to read off the scenario, what it must be):
# every kind of every section that has kinds
SECTION_KINDS = [
    ("hypergroup", {"family": "integers", "window": 4}, _model_of,
     (tuple(range(-4, 5)), hz.integer_group(4).haar)),
    ("hypergroup", {"family": "su2", "window": 4}, _model_of,
     (tuple(range(5)), hz.su2(4).haar)),
    ("hypergroup", {"family": "dunkl_ramirez", "window": 4, "a": 0.25}, _model_of,
     (tuple(range(5)), hz.dunkl_ramirez(0.25, 4).haar)),
    ("hypergroup", Z3_TABLE, _model_of, ((0, 1, 2), Z3.haar)),
    ("young", {"kind": "phi_p", "p": 1.5}, lambda sc: sc.phi, hz.phi_p(1.5)),
    ("young", {"kind": "exp_minus_linear"}, lambda sc: sc.phi,
     hz.exp_minus_linear()),
    ("young", {"kind": "cosh_minus_one"}, lambda sc: sc.phi, hz.cosh_minus_one()),
    ("young", {"kind": "tabulated", "knots": [[0.0, 0.0], [1.0, 0.5]]},
     lambda sc: sc.phi, hz.tabulated_young([(0.0, 0.0), (1.0, 0.5)])),
    ("weight", {"form": "constant", "value": 1.5}, lambda sc: sc.weight,
     hz.constant_weight(1.5)),
    ("weight", {"form": "step", "threshold": 1, "low": 2.0, "high": 0.5},
     lambda sc: sc.weight, hz.step_weight(1, 2.0, 0.5)),
    ("weight", {"form": "table", "entries": {0: 2.0, 1: 0.5}, "default": 3.0},
     lambda sc: sc.weight, hz.table_weight({0: 2.0, 1: 0.5}, 3.0)),
    ("weight", {"form": "geometric", "base": 2.0, "ratio": 0.5},
     lambda sc: sc.weight, hz.geometric_weight(2.0, 0.5)),
    ("eta", {"generator": "center_powers", "z": -1},
     lambda sc: [sc.eta(n) for n in range(-2, 3)], [2, 1, 0, -1, -2]),
    ("eta", {"generator": "table", "entries": {1: 3, 2: -1}},
     lambda sc: [sc.eta(n) for n in range(-2, 3)], [1, -3, 0, 3, -1]),
]


@pytest.mark.parametrize(
    "section,declaration,read,expected", SECTION_KINDS,
    ids=[f"{s}-{next(iter(d.values()))}" for s, d, _, _ in SECTION_KINDS])
def test_each_kind_of_each_section_parses(section, declaration, read, expected):
    data = copy.deepcopy(MINIMAL)
    data[section] = copy.deepcopy(declaration)
    assert read(hz.parse_scenario(data)) == expected


@pytest.mark.parametrize("section,key", [("hypergroup", "family"), ("young", "kind"),
                                         ("weight", "form"), ("eta", "generator"),
                                         ("run", "convention")])
def test_an_unknown_kind_names_its_key(section, key):
    data = copy.deepcopy(MINIMAL)
    data[section] = {**MINIMAL.get(section, {}), key: "nonesuch"}
    with pytest.raises(hz.ScenarioError) as err:
        hz.parse_scenario(data)
    assert str(err.value) == f"{section}.{key}: unknown {key} 'nonesuch'"


def test_parameter_ranges_are_checked_by_the_library_constructors():
    cases = [
        ("hypergroup", {"family": "dunkl_ramirez", "window": 4, "a": 0.75},
         "hypergroup: parameter a must lie in (0, 1/2]"),
        ("young", {"kind": "phi_p", "p": 0.5}, "young: exponent must satisfy p >= 1"),
        ("young", {"kind": "tabulated", "knots": [[0.0, 0.0], [1.0, 0.0]]},
         "young: final slope must be positive so the function is unbounded"),
        ("weight", {"form": "step", "threshold": 0, "low": -1.0, "high": 0.5},
         "weight: weight parameters must be finite and positive"),
        ("eta", {"generator": "table", "entries": {0: 1}},
         "eta: table entries are indexed from 1"),
        ("eta", {"generator": "center_powers", "z": 9}, "eta: label 9 is not central"),
    ]
    for section, declaration, message in cases:
        data = copy.deepcopy(MINIMAL)
        data[section] = declaration
        with pytest.raises(hz.ScenarioError) as err:
            hz.parse_scenario(data)
        assert str(err.value) == message


def test_a_table_off_its_labels_is_a_scenario_error():
    bad_involution = copy.deepcopy(Z3_TABLE)
    bad_involution["involution"][1] = 7
    bad_row = copy.deepcopy(Z3_TABLE)
    bad_row["table"][1] = [0, 1, {5: 1.0}]
    for table, message in (
            (bad_involution, "the involution maps 1 outside the labels"),
            (bad_row, "table row (0,1) has an atom at 5 outside the labels")):
        data = copy.deepcopy(MINIMAL)
        data["hypergroup"] = table
        with pytest.raises(hz.ScenarioError) as err:
            hz.parse_scenario(data)
        assert str(err.value) == f"hypergroup: {message}"


def test_axioms_on_a_validated_table_match_a_fresh_check():
    # the command reuses the findings of the load-time check; a copy built
    # with validate=False checks every triple from scratch
    order = 7
    conv = {(x, y): {(x + y) % order: 1.0}
            for x in range(order) for y in range(order)}
    inv = {x: -x % order for x in range(order)}
    sc = hz.parse_scenario({
        "id": "cyclic-seven",
        "hypergroup": {"family": "table", "window": order, "identity": 0,
                       "involution": inv,
                       "table": [[x, y, m] for (x, y), m in conv.items()]},
        "young": {"kind": "phi_p", "p": 2.0},
        "weight": {"form": "constant", "value": 1.0},
    })
    fresh = sc._replace(model=hz.table_hypergroup(conv, inv, validate=False))
    records, code = cli.run_command(sc, "axioms", {}, 0)
    assert (records, code) == cli.run_command(fresh, "axioms", {}, 0)
    assert code == 0 and len(records) == len(AXIOMS)


def run_cli(args):
    return cli.main(args)


def test_cli_repeated_key_exits_two(tmp_path, capsys):
    # a second window: used to override the first without a word, and haar
    # then ran on window 32 and exited 0
    text = (SCENARIO_DIR / "doubling_shift.yaml").read_text()
    assert text.count("  window: 64\n") == 1
    path = tmp_path / "dup.yaml"
    path.write_text(text.replace("  window: 64\n", "  window: 64\n  window: 32\n"))
    assert run_cli(["--scenario", str(path), "--command", "haar"]) == 2
    err = capsys.readouterr().err
    assert "scenario file is not valid YAML:" in err
    assert "found duplicate key 'window'" in err


def test_cli_malformed_yaml_exits_two(tmp_path, capsys):
    # the parsers word their messages differently; only the prefix is ours
    for i, text in enumerate(("id: x\nhypergroup:\n\tfamily: integers\n",
                              "id: {a: 1\n", "id: *nope\n",
                              "id: a\n---\nid: b\n")):
        path = tmp_path / f"bad{i}.yaml"
        path.write_text(text)
        assert run_cli(["--scenario", str(path), "--command", "haar"]) == 2, text
        assert "scenario error: scenario file is not valid YAML: " in \
            capsys.readouterr().err, text


def test_cli_tagged_scalar_yaml_cannot_construct_exits_two(tmp_path, capsys):
    # !!bool foo ended in a KeyError traceback and exit 1, the others in
    # "bad arguments:", which blames --args
    text = (SCENARIO_DIR / "doubling_shift.yaml").read_text()
    for i, value in enumerate(("!!bool foo", "!!int 1.5", "!!float abc",
                               "!!timestamp 2001-13-45")):
        path = tmp_path / f"tagged{i}.yaml"
        path.write_text(text.replace("  window: 64\n", f"  window: {value}\n"))
        assert run_cli(["--scenario", str(path), "--command", "haar"]) == 2, value
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: scenario file {path} holds a tagged "
                              "value YAML cannot construct: "), value
    # a decoding error is a ValueError too, but not a tagged value
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"id: \xff\n")
    assert run_cli(["--scenario", str(path), "--command", "haar"]) == 2
    assert capsys.readouterr().err.startswith(
        f"scenario error: scenario file {path} is not UTF-8 text: ")


def test_merged_keys_may_still_be_overridden():
    doc = yaml.load("base: &b {family: integers, window: 64}\n"
                    "hypergroup:\n  <<: *b\n  window: 8\n",
                    Loader=scenario._Loader)
    assert doc["hypergroup"] == {"family": "integers", "window": 8}


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_c_and_python_parsers_give_equal_documents():
    assert issubclass(scenario._Loader, yaml.CSafeLoader)
    root = SCENARIO_DIR.parent
    paths = sorted(SCENARIO_DIR.glob("*.yaml")) + sorted(
        (root / "bench" / "shipped").glob("*.yaml"))
    assert len(paths) == 6
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == \
            yaml.load(text, Loader=yaml.SafeLoader), path


# Scalars the YAML 1.1 resolver reads as another type than they look, and
# explicit core tags; then the scalars PyYAML's constructor alone builds, or
# rejects.  Keys drawn from a small pool repeat, and 1, 1.0 and true are one
# key.
_CORE_SCALARS = ("017", "0x1f", "1_000", "+3", "1:30", ".inf", "-.inf", ".nan",
                 "yes", "No", "~", "null", "'5'", '"1.0"', "1", "1.0", "-0",
                 "1e3", "abc", "0b101", "!!float 1", "!!str 5", "!!int 0x10",
                 "!!null ''", "!!bool yes")
_RARE_SCALARS = ("!!binary aGk=", "2001-12-14", "2001-12-14 21:59:43.10 -5",
                 "!!int 1.5", "!local x", "=", "<<")
_CORE_KEYS = ("1", "1.0", "true", "a", "b", "'1'", "~", ".nan", "'<<'")


def _yaml_text(root):
    """root's text: a collection whose block flag is set, and that has items,
    in block style below a block parent, everything else in flow style.
    Anchors are numbered in document order, and an alias names one already
    numbered, or is the scalar ~ before the first."""
    anchors = 0

    def flow(node):
        nonlocal anchors
        kind = node[0]
        if kind == "scalar":
            return node[1]
        if kind == "alias":
            return f"*a{node[1] % anchors}" if anchors else "~"
        if kind == "anchor" and node[1][0] in ("alias", "anchor"):
            return flow(node[1])  # a node takes one anchor, an alias none
        if kind == "anchor":
            anchors += 1
            return f"&a{anchors - 1} {flow(node[1])}"
        if kind == "set":
            return "!!set {" + ", ".join(map(flow, node[1])) + "}"
        if kind == "seq":
            return "[" + ", ".join(map(flow, node[1])) + "]"
        return "{" + ", ".join(f"{flow(k)}: {flow(v)}" for k, v in node[1]) + "}"

    def block(node, indent):
        """node as it follows ``-`` or ``key:`` in a block collection."""
        nonlocal anchors
        kind, pad = node[0], " " * indent
        if kind == "anchor" and node[1][0] in ("alias", "anchor"):
            return block(node[1], indent)
        if kind == "anchor":
            anchors += 1
            return f" &a{anchors - 1}" + block(node[1], indent)
        if kind == "seq" and node[2] and node[1]:
            return "\n" + "".join(f"{pad}-{block(c, indent + 2)}" for c in node[1])
        if kind == "map" and node[2] and node[1]:
            return "\n" + "".join(f"{pad}{flow(k)}:{block(v, indent + 2)}"
                                  for k, v in node[1])
        return f" {flow(node)}\n"

    return block(root, 0).lstrip(" \n")


def _nodes(scalars, keys, rare):
    """Node trees of the scalars and keys given; with rare, also sets,
    anchors, aliases and unhashable keys."""
    scalar = st.sampled_from(scalars).map(lambda text: ("scalar", text))
    key = st.sampled_from(keys).map(lambda text: ("scalar", text))
    if rare:
        key = st.one_of(key, st.tuples(st.just("seq"), st.lists(
            scalar, max_size=1).map(tuple), st.just(False)))

    def collections(children):
        options = [
            st.tuples(st.just("seq"), st.lists(children, max_size=4), st.booleans()),
            st.tuples(st.just("map"), st.lists(st.tuples(key, children), max_size=4,
                                               unique_by=lambda item: item[0]),
                      st.booleans())]
        if rare:
            options += [st.tuples(st.just("set"), st.lists(scalar, max_size=3, unique=True)),
                        st.tuples(st.just("anchor"), children)]
        return st.one_of(*options)

    leaves = st.one_of(scalar, st.tuples(st.just("alias"), st.integers(0, 3))) \
        if rare else scalar
    return st.recursive(leaves, collections, max_leaves=12)


_NODE = st.one_of(_nodes(_CORE_SCALARS, _CORE_KEYS, False),
                  _nodes(_CORE_SCALARS + _RARE_SCALARS, _CORE_KEYS + ("<<",), True))
# Larger documents as PyYAML dumps Python data, in block or flow style.
_DUMPED = st.tuples(st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.one_of(st.integers(-2, 2), st.floats(-2, 2), st.text(max_size=2)),
                        children, max_size=5)),
    max_leaves=30), st.booleans()).map(
        lambda drawn: yaml.safe_dump(drawn[0], default_flow_style=drawn[1]))
_DOCUMENT = st.one_of(_NODE.map(_yaml_text), _DUMPED)
# About one text in eight is empty, an explicit start or two documents.
_YAML_TEXTS = st.tuples(st.sampled_from(range(24)), _DOCUMENT, _DOCUMENT).map(
    lambda drawn: {1: "", 2: "# no document\n", 3: "---\n", 4: "---\n" + drawn[1],
                   5: "---\n".join(drawn[1:])}.get(drawn[0], drawn[1]))


def _outcome(load, text):
    """What load makes of text: the document's repr, which tells 1, 1.0 and
    True apart at every depth, prints every NaN alike and stops at a
    recursive alias; or the error's class and message."""
    try:
        return "document", repr(load(text))
    except Exception as exc:  # every error yaml.load raises must match
        return type(exc), str(exc)


@pytest.mark.seeded
@settings(max_examples=300, deadline=None)
@given(_YAML_TEXTS)
@example("[1.0, '1.0', \"1.0\", !!float 1.0, 1, '1', true, 'true']\n")
@example("{1: a, 1.0: b}\n")
@example("a: &x {b: [1]}\nc: *x\nd:\n  <<: *x\n  e: 2\n")
def test_load_matches_yaml_load(text):
    # _Loader's bases alone resolve every tag without _Loader's memo
    plain = type("PlainLoader", scenario._Loader.__bases__, {})
    expected = _outcome(lambda t: yaml.load(t, Loader=scenario._Loader), text)
    assert _outcome(scenario._load, text) == expected, text
    assert _outcome(lambda t: yaml.load(t, Loader=plain), text) == expected, text


def _cyclic_table_text(order):
    """A scenario holding the Cayley table of Z_order, written as PyYAML
    dumps it."""
    return yaml.safe_dump({
        "id": f"cyclic-{order}",
        "hypergroup": {"family": "table", "window": order, "identity": 0,
                       "involution": {x: -x % order for x in range(order)},
                       "table": [[x, y, {(x + y) % order: 1.0}]
                                 for x in range(order) for y in range(order)]},
        "young": {"kind": "phi_p", "p": 2.0},
        "weight": {"form": "constant", "value": 1.0}}, sort_keys=True)


@pytest.mark.seeded
def test_load_falls_back_only_off_the_direct_path(monkeypatch, request):
    root = SCENARIO_DIR.parent
    texts = [path.read_text(encoding="utf-8") for path in sorted(
        SCENARIO_DIR.glob("*.yaml")) + sorted((root / "bench" / "shipped").glob("*.yaml"))]
    texts.append(_cyclic_table_text(28))
    assert len(texts) == 7
    off_path = ("base: &b {family: integers}\nhypergroup: *b\n",
                "base: {family: integers}\nhypergroup: {<<: {window: 8}}\n")
    expected = [repr(yaml.load(text, Loader=scenario._Loader)) for text in texts + list(off_path)]
    fallbacks = []
    construct_document = scenario._Loader.construct_document

    def counted(loader, node):
        fallbacks.append(node)
        return construct_document(loader, node)

    monkeypatch.setattr(scenario._Loader, "construct_document", counted)
    assert [repr(scenario._load(text)) for text in texts] == expected[:len(texts)]
    assert fallbacks == []
    for text, doc in zip(off_path, expected[len(texts):]):
        assert repr(scenario._load(text)) == doc
        assert len(fallbacks) == 1
        fallbacks.clear()

    # the differential once more on PyYAML's pure-Python parser
    seed = request.config.getoption("hypothesis_seed", None)
    code = ("import sys\n"
            "sys.modules['yaml._yaml'] = None\n"
            "import pytest, yaml\n"
            "from hyperorlicz import scenario\n"
            "assert not yaml.__with_libyaml__\n"
            "assert issubclass(scenario._Loader, yaml.SafeLoader)\n"
            "sys.exit(pytest.main(sys.argv[1:]))\n")
    src = str(pathlib.Path(hz.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", code, "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_load_matches_yaml_load",
         *([] if seed is None else [f"--hypothesis-seed={seed}"])],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout


def test_load_leaves_no_cycle_for_the_collector():
    # the direct build recurses through a closure that holds itself; left
    # in place, that cycle kept the loader and both memos alive until the
    # next collection
    texts = [(SCENARIO_DIR / "dr_axioms.yaml").read_text(encoding="utf-8"),
             "a: &x [1]\nb: *x\n", "{1: a, 1.0: b}\n"]
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            try:
                scenario._load(text)
            except yaml.YAMLError:
                pass
            assert gc.collect() == 0, text
    finally:
        gc.enable()


def test_cli_axioms_exit_zero(tmp_path, capsys):
    path = write_scenario(tmp_path, DOUBLING)
    assert run_cli(["--scenario", path, "--command", "axioms"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    head = json.loads(lines[0])
    assert head["record"] == "header" and head["command"] == "axioms"
    assert all(json.loads(l)["ok"] for l in lines[1:])


def test_cli_probe_center_holds(tmp_path, capsys):
    path = write_scenario(tmp_path, DOUBLING)
    code = run_cli(["--scenario", path, "--command", "probe",
                    "--args", "id=center"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    verdict = json.loads(lines[-1])
    assert verdict["verdict"] == "holds_empirically"
    assert verdict["certification"].startswith("densely hypercyclic")
    row = json.loads(lines[1])
    assert row["sup_reciprocal"] == 0.5 and row["n"] == 1


def test_cli_probe_flat_weight_fails(tmp_path):
    data = json.loads(json.dumps(DOUBLING))
    data = _with_int_keys(data)
    data["weight"] = {"form": "constant", "value": 1.0}
    path = write_scenario(tmp_path, data)
    assert run_cli(["--scenario", path, "--command", "probe",
                    "--args", "id=center"]) == 1


def test_cli_norm_of_a_tiny_function_exits_zero(tmp_path, capsys):
    data = _with_int_keys(json.loads(json.dumps(DOUBLING)))
    data["functions"] = {"f": {0: 1.0e-300}}
    path = write_scenario(tmp_path, data)
    assert run_cli(["--scenario", path, "--command", "norm"]) == 0
    norm = json.loads(capsys.readouterr().out.splitlines()[1])
    assert norm["infimum_form"] == pytest.approx(2**0.5 * 1e-300, rel=1e-11)
    assert norm["sandwich_ok"]


def test_cli_doubling_constant_beyond_the_float_range(tmp_path, capsys):
    # 2^p leaves the float range past p = 1024; these four commands ended in
    # an OverflowError traceback with exit 1, the code for "verdict fails".
    text = (SCENARIO_DIR / "doubling_shift.yaml").read_text()
    assert text.count("  p: 2.0\n") == 1
    for p in ("1100.0", "1.0e+6"):
        path = tmp_path / f"p{p}.yaml"
        path.write_text(text.replace("  p: 2.0\n", f"  p: {p}\n"))
        capsys.readouterr()
        assert run_cli(["--scenario", str(path), "--command", "norm"]) == 0, p
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert {"record": "delta2", "state": "proven", "constant": "inf",
                "grid_max_ratio": None} in records
        assert all(r["sandwich_ok"] for r in records if r["record"] == "norm")
        for probe in ("center", "hereditary"):
            assert run_cli(["--scenario", str(path), "--command", "probe",
                            "--args", f"id={probe}"]) == 0, (p, probe)
            verdict = json.loads(capsys.readouterr().out.splitlines()[-1])
            assert verdict["verdict"] == "holds_empirically"
        assert run_cli(["--scenario", str(path), "--command", "witness"]) == 0, p
        assert '"eventually_decreasing":true' in capsys.readouterr().out


def test_cli_norm_under_a_young_function_far_from_unit_scale(tmp_path, capsys):
    data = _with_int_keys(json.loads(json.dumps(DOUBLING)))
    data["hypergroup"]["window"] = 16
    data["young"] = {"kind": "tabulated",
                     "knots": [[0.0, 0.0], [1e150, 1.0], [2e150, 3.0]]}
    data["functions"] = {"f": {0: 1.0}}
    path = write_scenario(tmp_path, data)
    assert run_cli(["--scenario", path, "--command", "norm"]) == 0
    norm = json.loads(capsys.readouterr().out.splitlines()[1])
    assert norm["infimum_form"] == pytest.approx(2e-150, rel=1e-12)
    assert norm["sandwich_ok"]


def test_cli_norm_at_the_edges_of_the_float_range(tmp_path, capsys):
    # Young functions with knots (0, 0), (s, 1), (2 s, 3) at s = 1e300 and
    # 1e-300: the norm of c delta_0 is c / s.  The first gave gauge 0 and
    # exit 1, the second exit 2.
    def edge(scale, peak):
        data = {"id": "edge", "hypergroup": {"family": "integers", "window": 4},
                "young": {"kind": "tabulated",
                          "knots": [[0.0, 0.0], [scale, 1.0], [2 * scale, 3.0]]},
                "weight": {"form": "constant", "value": 1.0},
                "sets": {"E": [0]}, "functions": {"f": {0: peak}},
                "run": {"horizon": 4}}
        path = write_scenario(tmp_path, data, name=f"edge{scale}.yaml")
        code = run_cli(["--scenario", path, "--command", "norm"])
        return code, capsys.readouterr()

    for scale, peak, norm in ((1e300, 1.0, 1e-300), (1e-300, 1e-5, 1e295)):
        code, out = edge(scale, peak)
        assert code == 0, scale
        record = json.loads(out.out.splitlines()[1])
        assert record["gauge"] == pytest.approx(norm, rel=1e-12, abs=0)
        assert record["infimum_form"] == pytest.approx(2 * norm, rel=1e-12, abs=0)
        assert record["sandwich_ok"]
    # The norm 1e-350 lies below the least float: a named exit, where a
    # ZeroDivisionError traceback exited 1, the code for "verdict fails".
    code, out = edge(1e200, 1e-150)
    assert code == 2
    assert out.err.startswith("non-finite norm: ")


def test_cli_aperiodic_lists_skipped_indices(tmp_path, capsys):
    # E = {8} in -10..10: translates by 3 and more leave the window
    data = _with_int_keys(json.loads(json.dumps(DOUBLING)))
    data["hypergroup"]["window"] = 10
    data["sets"] = {"E": [8]}
    data["run"]["horizon"] = 8
    path = write_scenario(tmp_path, data)
    assert run_cli(["--scenario", path, "--command", "aperiodic"]) == 1
    records = [json.loads(line)
               for line in capsys.readouterr().out.strip().split("\n")[1:]]
    skipped = [(r["check"], r["n"]) for r in records if r["record"] == "skipped"]
    assert skipped == ([("direct", n) for n in range(3, 9)]
                       + [("pairwise", n) for n in range(1, 9)])


def test_python_dash_m_runs_the_cli():
    src = str(pathlib.Path(hz.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "hyperorlicz", "--scenario",
         str(SCENARIO_DIR / "doubling_shift.yaml"), "--command", "haar"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header = json.loads(proc.stdout.splitlines()[0])
    assert (header["record"], header["command"], header["scenario"]) == (
        "header", "haar", "doubling-shift")


def test_cli_norm_on_a_point_of_large_haar_mass(tmp_path, capsys):
    # The infimum-form search started right of the minimiser: the norm read
    # 4.5e14 against a gauge of 6.7e11, and the command printed
    # sandwich_ok false and exited 1.
    data = {"id": "heavy-point",
            "hypergroup": {"family": "dunkl_ramirez", "window": 24, "a": 0.1},
            "young": {"kind": "phi_p", "p": 2.0},
            "weight": {"form": "constant", "value": 1.0},
            "functions": {"f": {24: 1.0}}, "run": {"horizon": 8}}
    path = write_scenario(tmp_path, data)
    assert run_cli(["--scenario", path, "--command", "norm"]) == 0
    norm = json.loads(capsys.readouterr().out.splitlines()[1])
    mass = hz.dunkl_ramirez(0.1, 24).haar[24]
    assert norm["infimum_form"] == pytest.approx((2 * mass) ** 0.5, rel=1e-11)
    assert norm["sandwich_ok"]


def test_cli_out_path_that_cannot_be_written_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    path = str(SCENARIO_DIR / "doubling_shift.yaml")
    assert run_cli(["--scenario", path, "--command", "haar", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write output: ")
    assert str(out) in captured.err
    assert captured.out == "" and not out.parent.exists()
    # a writable path still gets the report, and stdout stays empty
    good = tmp_path / "x.json"
    assert run_cli(["--scenario", path, "--command", "haar", "--out", str(good)]) == 0
    assert capsys.readouterr().out == ""
    assert good.read_text().startswith('{"command":"haar"')


def test_cli_missing_eta_is_precondition_failure(tmp_path):
    data = json.loads(json.dumps(DOUBLING))
    data = _with_int_keys(data)
    del data["eta"]
    path = write_scenario(tmp_path, data)
    assert run_cli(["--scenario", path, "--command", "aperiodic"]) == 2


def test_cli_bad_probe_id(tmp_path):
    path = write_scenario(tmp_path, DOUBLING)
    assert run_cli(["--scenario", path, "--command", "probe",
                    "--args", "id=mystery"]) == 2


def test_cli_rejects_args_keys_the_command_does_not_read(capsys):
    # haar reads no key; the hereditary probe takes z from the eta section.
    for name, args in (("dr_axioms.yaml", ["haar", "--args", "probes=7",
                                           "--args", "bogus=1"]),
                       ("doubling_shift.yaml", ["probe", "--args", "id=hereditary",
                                                "--args", "z=1"])):
        argv = ["--scenario", str(SCENARIO_DIR / name), "--command", *args]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scenario error: unknown --args keys ")


def test_cli_repeated_args_key_exits_two(capsys):
    # The last id= used to win: this ran the hereditary probe and exited 0.
    argv = ["--scenario", str(SCENARIO_DIR / "doubling_shift.yaml"), "--command",
            "probe", "--args", "id=center", "--args", "id=hereditary"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("scenario error: --args key 'id' ")


def test_cli_negative_triple_bound_exits_two(tmp_path, capsys):
    # A bound of -1 selected no label, so axioms printed six ok rows and
    # exited 0 without checking anything.  0 keeps its meaning: only |x| <= 0.
    data = {"id": "su2-small", "hypergroup": {"family": "su2", "window": 6},
            "young": {"kind": "phi_p", "p": 2.0},
            "weight": {"form": "constant", "value": 1.0},
            "run": {"triple_bound": -1}}
    path = write_scenario(tmp_path, data)
    assert run_cli(["--scenario", path, "--command", "axioms"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("scenario error: run.triple_bound: ")
    data["run"]["triple_bound"] = 0
    path = write_scenario(tmp_path, data, "zero.yaml")
    assert run_cli(["--scenario", path, "--command", "axioms"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == len(AXIOMS) and all(row["ok"] for row in rows)


def test_cli_window_overflow_exit_code(tmp_path, monkeypatch):
    path = write_scenario(tmp_path, DOUBLING)

    def boom(*args, **kwargs):
        raise hz.WindowOverflow("forced")

    monkeypatch.setattr(cli, "run_command", boom)
    assert run_cli(["--scenario", path, "--command", "axioms"]) == 3


def test_cli_norm_of_a_huge_peak(tmp_path, capsys):
    data = {"id": "huge-peak",
            "hypergroup": {"family": "integers", "window": 40},
            "young": {"kind": "exp_minus_linear"},
            "weight": {"form": "constant", "value": 1.0},
            "sets": {"E": [0]}, "functions": {"f": {0: 1e300}},
            "run": {"horizon": 4}}
    path = write_scenario(tmp_path, data)
    assert run_cli(["--scenario", path, "--command", "norm"]) == 0
    record = json.loads(capsys.readouterr().out.strip().split("\n")[1])
    assert record["gauge"] == pytest.approx(8.7245e299, rel=1e-4)
    # A norm beyond the float range exits 2 with a line on stderr.
    data.update(hypergroup={"family": "dunkl_ramirez", "a": 0.1, "window": 300},
                young={"kind": "tabulated", "knots": [[0.0, 0.0], [1.0, 1e10]]},
                sets={"E": [300]}, functions={"f": {300: 1.0}})
    path = write_scenario(tmp_path, data)
    assert run_cli(["--scenario", path, "--command", "norm"]) == 2
    assert capsys.readouterr().err.startswith("non-finite norm:")


def test_cli_geometric_weight_beyond_float_range_exits_two(tmp_path, capsys):
    # 2.0**1100 overflows and 0.5**1100 underflows to 0 at the carrier's top.
    for ratio in (2.0, 0.5):
        data = {"id": "steep-weight",
                "hypergroup": {"family": "integers", "window": 1100},
                "young": {"kind": "phi_p", "p": 2.0},
                "weight": {"form": "geometric", "base": 1.0, "ratio": ratio},
                "eta": {"generator": "center_powers", "z": 1},
                "sets": {"E": [1050]}, "run": {"horizon": 4}}
        path = write_scenario(tmp_path, data)
        assert run_cli(["--scenario", path, "--command", "probe",
                        "--args", "id=center"]) == 2
        assert capsys.readouterr().err.startswith("scenario error: weight: ")


def test_cli_haar_weight_beyond_float_range_exits_two(tmp_path, capsys):
    # At a = 0.3 the Haar weight (1-a)/a^x leaves the float range at x = 590.
    data = yaml.safe_load((SCENARIO_DIR / "dr_axioms.yaml").read_text())
    data["hypergroup"]["window"] = 700
    path = write_scenario(tmp_path, data)
    for command in cli.COMMANDS:
        assert run_cli(["--scenario", path, "--command", command]) == 2
        assert capsys.readouterr().err.startswith(
            "scenario error: hypergroup.window: the Haar weight at label 590 ")


def test_cli_table_haar_weight_beyond_float_range_is_placed_at_its_row(tmp_path, capsys):
    # The reciprocal of the identity atom 1e-310 exceeds the float range.  A
    # table's window selects no labels, so the error belongs to the table.
    data = {"id": "subnormal-identity-atom",
            "hypergroup": {"family": "table", "window": 1, "identity": 0,
                           "involution": {0: 0, 1: 1},
                           "table": [[0, 0, {0: 1.0}], [0, 1, {1: 1.0}],
                                     [1, 0, {1: 1.0}], [1, 1, {0: 1e-310, 1: 1.0}]]},
            "young": {"kind": "phi_p", "p": 2.0},
            "weight": {"form": "constant", "value": 1.0}}
    path = write_scenario(tmp_path, data)
    assert run_cli(["--scenario", path, "--command", "haar"]) == 2
    assert capsys.readouterr().err.startswith(
        "scenario error: hypergroup: table row (1,1) ")


# The weight is finite on the carrier, but a product of n factors near
# 2^990 is not, and one near 2^-990 underflows to zero.
STEEP = {"id": "steep-products",
         "hypergroup": {"family": "integers", "window": 1000},
         "young": {"kind": "phi_p", "p": 2.0},
         "weight": {"form": "geometric", "base": 1.0, "ratio": 2.0},
         "eta": {"generator": "center_powers", "z": 1},
         "sets": {"E": [990]}, "functions": {"f": {990: 1.0}},
         "run": {"horizon": 16, "series_cutoff": 8}}


def _probe_body(path, probe, capsys):
    code = run_cli(["--scenario", path, "--command", "probe", "--args", f"id={probe}"])
    records = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")[1:]]
    return code, [r["flags"] for r in records[:-1]], records[-1]["verdict"]


def test_cli_overflowing_weight_product_flags_rows(tmp_path, capsys):
    path = write_scenario(tmp_path, STEEP)
    # From n = 2 the pulled-back profile overflows and cannot be stored.
    code, flags, verdict = _probe_body(path, "necessary-sup", capsys)
    assert (code, verdict) == (1, "inconclusive")
    assert flags == [[]] + [["non-finite"]] * 9
    # The orbit skips those steps as it skips the ones past the window.
    assert run_cli(["--scenario", path, "--command", "orbit",
                    "--args", "targets=f"]) == 0
    orbit = json.loads(capsys.readouterr().out.strip().split("\n")[1])
    assert (orbit["best_n"], orbit["skipped"]) == (0, list(range(2, 17)))


def test_cli_underflowing_weight_product_flags_rows(tmp_path, capsys):
    # Below the identity the products underflow to zero, and the probes
    # track their reciprocals.
    path = write_scenario(tmp_path, dict(STEEP, sets={"E": [-990]}))
    for probe in ("center", "hereditary"):
        code, flags, verdict = _probe_body(path, probe, capsys)
        assert (code, verdict) == (1, "inconclusive")
        assert flags == [[]] + [["non-finite"]] * 9
    # At 0 the series' products of s*n factors 2^-j underflow from s*n = 47.
    path = write_scenario(tmp_path, dict(STEEP, sets={"E": [0]}))
    code, flags, verdict = _probe_body(path, "necessary-series", capsys)
    assert (code, verdict) == (1, "inconclusive")
    assert flags == [[]] * 5 + [["non-finite"]] * 11


# The carrier ends bound the geometric weight, but a factor of the table
# sequence sits at e + a_n - a_j = 1200, off the window, where 2.0**1200 is
# past the float range.
OFF_WINDOW_FACTOR = {"id": "off-window-factor",
                     "hypergroup": {"family": "integers", "window": 600},
                     "young": {"kind": "phi_p", "p": 2.0},
                     "weight": {"form": "geometric", "base": 1.0, "ratio": 2.0},
                     "eta": {"generator": "table", "entries": {1: -600, 2: 600}},
                     "sets": {"E": [0]}, "functions": {"f": {0: 1.0}},
                     "run": {"horizon": 2}}

# The lines cli.main writes on stderr for exit codes 2 and 3.
DOCUMENTED_STDERR = ("scenario error: ", "precondition failed: ", "window overflow: ",
                     "non-finite norm: ", "bad arguments: ")


def test_cli_weight_past_the_float_range_off_the_window(tmp_path, capsys):
    path = write_scenario(tmp_path, OFF_WINDOW_FACTOR)
    for args in (["probe", "--args", "id=necessary-sup"],
                 ["probe", "--args", "id=necessary-series"],
                 ["orbit", "--args", "targets=f"]):
        code = run_cli(["--scenario", path, "--command", *args])
        out, err = capsys.readouterr()
        if code in (0, 1):
            last = json.loads(out.strip().split("\n")[-1])
            assert last["record"] in ("verdict", "orbit") and not err
        else:
            assert code in (2, 3) and err.startswith(DOCUMENTED_STDERR)
    # The overflowing step is flagged, as a product past the range is.
    code, flags, verdict = _probe_body(path, "necessary-sup", capsys)
    assert (code, flags, verdict) == (1, [[], ["non-finite"]], "inconclusive")


def test_cli_witness_and_orbit(tmp_path, capsys):
    path = write_scenario(tmp_path, DOUBLING)
    assert run_cli(["--scenario", path, "--command", "witness"]) == 0
    out = capsys.readouterr().out
    final = json.loads(out.strip().split("\n")[-1])
    assert final["record"] == "witness" and final["values"]["0"] == 1.0
    assert run_cli(["--scenario", path, "--command", "orbit",
                    "--args", "f=f", "--args", "targets=g"]) == 0


def test_cli_haar_seeded(tmp_path, capsys):
    path = write_scenario(tmp_path, DOUBLING)
    assert run_cli(["--scenario", path, "--command", "haar",
                    "--seed", "5"]) == 0
    first = capsys.readouterr().out.strip().split("\n")[1:]
    assert run_cli(["--scenario", path, "--command", "haar",
                    "--seed", "5"]) == 0
    second = capsys.readouterr().out.strip().split("\n")[1:]
    assert first == second


def test_cli_haar_on_table_labels_that_skip_integers(tmp_path, capsys):
    # The cyclic group of order 3 on the labels {0, 5, 7}: no probe or
    # translation may use a label between them.
    labels = (0, 5, 7)
    data = {
        "id": "cyclic-three-sparse",
        "hypergroup": {
            "family": "table", "window": 7, "identity": 0,
            "involution": {0: 0, 5: 7, 7: 5},
            "table": [[labels[i], labels[j], {labels[(i + j) % 3]: 1.0}]
                      for i in range(3) for j in range(3)],
        },
        "young": {"kind": "phi_p", "p": 2.0},
        "weight": {"form": "constant", "value": 1.0},
    }
    path = write_scenario(tmp_path, data)
    assert run_cli(["--scenario", path, "--command", "haar"]) == 0
    body = [json.loads(line) for line in capsys.readouterr().out.split("\n")[1:]
            if line]
    assert {r["y"] for r in body if r["record"] == "invariance"} == set(labels)


def test_cli_out_file_and_csv(tmp_path):
    path = write_scenario(tmp_path, DOUBLING)
    out = tmp_path / "report.csv"
    code = run_cli(["--scenario", path, "--command", "probe",
                    "--args", "id=necessary-sup", "--format", "csv",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert "sup_profile" in lines[0]
    assert len(lines) >= 5


def test_record_serialization_canonical():
    line = record_line({"b": 1.0, "a": 0.1234567890123456, "c": [1, 2]})
    assert line == '{"a":0.123456789012,"b":1.0,"c":[1,2]}'
    assert record_line({"x": float("nan")}) == '{"x":"nan"}'
    text = render_records("cmd", "sid", [{"v": 1}])
    head = json.loads(text.split("\n")[0])
    assert head["records"] == 1 and "sha256" in head
    csv_text = render_csv([{"a": 1, "b": "x,y"}])
    assert csv_text == 'a,b\n1,"x,y"\n'


def test_cli_bodies_byte_identical(tmp_path):
    path = write_scenario(tmp_path, DOUBLING)
    bodies = []
    for name in ("r1.txt", "r2.txt"):
        out = tmp_path / name
        assert run_cli(["--scenario", path, "--command", "probe",
                        "--args", "id=hereditary", "--out", str(out)]) == 0
        bodies.append(out.read_text().split("\n", 1)[1])
    assert bodies[0] == bodies[1]


def _haar_run(hypergroup, seed):
    """(exit code, invariance records) of the haar command on a model, or
    the scenario error's message where the model cannot be built."""
    data = {"id": "haar-bound", "hypergroup": hypergroup,
            "young": {"kind": "phi_p", "p": 2.0},
            "weight": {"form": "constant", "value": 1.0}}
    try:
        sc = scenario.parse_scenario(data)
    except hz.ScenarioError as exc:
        return str(exc), []
    records, code = cli.run_command(sc, "haar", {}, seed)
    return code, [r for r in records if r["record"] == "invariance"]


@pytest.mark.seeded
@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.0, 0.5, exclude_min=True), window=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1))
@example(a=0.1, window=24, seed=0)  # 3 of 54 rows failed the absolute 1e-10
@example(a=0.05, window=24, seed=0)
@example(a=0.01, window=24, seed=0)
def test_haar_invariance_bound_scales_with_the_weights(a, window, seed):
    # The Haar weights (1 - a) / a^x grow without bound as a falls, and the
    # integrals with them; the invariance bound grows along, so every row
    # holds, unless a weight leaves the float range and the model is refused.
    code, rows = _haar_run({"family": "dunkl_ramirez", "window": window, "a": a}, seed)
    if isinstance(code, str):
        assert code.startswith("hypergroup.window: the Haar weight at label ")
        return
    assert code == 0 and len(rows) == 6 * min(window // 2 + 1, 9)
    assert all(r["ok"] for r in rows)


@pytest.mark.seeded
@settings(max_examples=20, deadline=None)
@given(exponent=st.integers(0, 11), seed=st.integers(0, 2**32 - 1))
def test_haar_invariance_bound_on_a_heavy_table(exponent, seed):
    # The two-point hypergroup on {0, 2} with delta_2 * delta_2 =
    # {0: m, 2: 1 - m}: the Haar weight at 2 is 1 / m, up to 1e11 (an
    # identity atom at TOL_ATOM or below breaks the support-identity axiom).
    m = 10.0**-exponent
    table = [[0, 0, {0: 1.0}], [0, 2, {2: 1.0}], [2, 0, {2: 1.0}],
             [2, 2, {0: m, 2: 1.0 - m} if m < 1.0 else {0: 1.0}]]
    code, rows = _haar_run({"family": "table", "window": 2, "identity": 0,
                            "involution": {0: 0, 2: 2}, "table": table}, seed)
    assert code == 0 and len(rows) == 12
    assert all(r["ok"] for r in rows)
