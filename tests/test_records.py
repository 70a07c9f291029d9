"""The public records are immutable named tuples that behave as the frozen
records they replace, and importing the package stays lean."""
import copy
import json
import pathlib
import subprocess
import sys

import pytest

import hyperorlicz as hz
import hyperorlicz.cli

SRC = str(pathlib.Path(hz.__file__).resolve().parent.parent)
SCENARIO = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "doubling_shift.yaml"

MODEL = hz.integer_group(2)
VERDICT = hz.AperiodicityVerdict(True, 1, 8, ())
ROW = hz.CriterionRow(1, 3, (0,), 1.0, (("eps", 0.5),))
WITNESS_ROW = hz.WitnessRow(1, 2, 0.25, 0.5)

# name -> (positional arguments, field names in order, their defaults)
RECORDS = {
    "AperiodicityVerdict": (
        (True, 1, 8, ((2, (0,)),)),
        ("holds_at_horizon", "first_n", "horizon", "counterexamples", "inconclusive"),
        {"inconclusive": ()}),
    "CenterAperiodicityReport": (
        (VERDICT, VERDICT, True), ("direct", "pairwise", "agree"), {}),
    "CriterionRow": (
        (1, 3, (0,), 1.0, (("eps", 0.5),)),
        ("k", "n", "members", "measure_ratio", "metrics", "flags"), {"flags": ()}),
    "CriterionReport": (
        ("center-conditions", "fails", (ROW,), 4, hz.DEFAULT_CONVENTION),
        ("criterion", "verdict", "rows", "horizon", "convention", "certification",
         "notes"),
        {"certification": None, "notes": ()}),
    "WitnessRow": (
        (1, 2, 0.25, 0.5), ("k", "n", "err_source", "err_target", "flags"),
        {"flags": ()}),
    "WitnessReport": (
        ((WITNESS_ROW,), True, hz.DEFAULT_CONVENTION, hz.ZERO_FUNCTION),
        ("rows", "eventually_decreasing", "convention", "final_witness"), {}),
    "OrbitResult": (
        (0, 3, 0.5), ("target_index", "best_n", "best_error", "skipped"),
        {"skipped": ()}),
    "YoungFunction": (
        ("phi_p", 2.0), ("kind", "p", "knots"), {"p": None, "knots": None}),
    "NormResult": (
        (1.5, 7, (1.0, 1.5)), ("value", "iterations", "bracket"), {}),
    "Delta2Report": (
        ("proven", 4.0, None), ("state", "constant", "grid_max_ratio"), {}),
    "L1EmbeddingReport": (
        (True, 0.0, "zero", 0.5),
        ("holds", "right_derivative", "derivative_status", "constant_estimate",
         "rigorous"),
        {"rigorous": False}),
    "SparseMeasure": (
        (((0, 0.25), (1, 0.75)),), ("atoms", "probability"), {"probability": False}),
    "AxiomViolation": (
        ("identity", (0,), "right identity law fails at 0"),
        ("axiom", "witness", "detail"), {}),
    "CenterReport": (((-1, 0, 1), 2), ("members", "horizon"), {}),
    "RunSettings": (
        (), ("horizon", "k_max", "series_cutoff", "rs_bound", "convention",
             "triple_bound"),
        {"horizon": 16, "k_max": 8, "series_cutoff": 40, "rs_bound": 3,
         "convention": hz.DEFAULT_CONVENTION, "triple_bound": None}),
    "Scenario": (
        ("s", MODEL, hz.phi_p(2.0), hz.constant_weight(1.0), None, {"E": (0,)},
         {"f": hz.indicator([0])}, hz.RunSettings()),
        ("scenario_id", "model", "phi", "weight", "eta", "sets", "functions", "run"),
        {}),
    "SparseFunction": ((((-1, 0.5), (2, -1.0)),), ("values",), {}),
    "Weight": (
        ("step", 1.0, 0, 2.0, 0.5),
        ("form", "value", "threshold", "low", "high", "entries", "default", "base",
         "ratio"),
        {"value": 1.0, "threshold": 0, "low": 1.0, "high": 1.0, "entries": (),
         "default": 1.0, "base": 1.0, "ratio": 1.0}),
}


def _record(name):
    args, fields, _ = RECORDS[name]
    return getattr(hz, name)(*args), fields


def test_eighteen_public_records():
    assert len(RECORDS) == 18
    assert set(RECORDS) <= set(hz.__all__)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_defaults_and_construction(name):
    cls = getattr(hz, name)
    args, fields, defaults = RECORDS[name]
    rec = cls(*args)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_keyword == rec
    for field in fields[len(args):]:
        assert getattr(rec, field) == defaults[field]
    with pytest.raises(TypeError):
        cls(*args, bogus=1)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_hash_and_repr_go_by_the_fields(name):
    rec, fields = _record(name)
    twin = copy.copy(rec)
    assert twin == rec and not twin != rec
    if name != "Scenario":                      # its sets and functions are dicts
        assert hash(twin) == hash(rec)
    else:
        with pytest.raises(TypeError):
            hash(rec)
    # A replacement each record's checks accept: NormResult checks its bracket.
    other = {"SparseFunction": ((0, 1.0),), "NormResult": (0.0, 2.0)}.get(name, "other")
    assert rec._replace(**{fields[-1]: other}) != rec
    body = ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields)
    assert repr(rec) == f"{name}({body})"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    rec, fields = _record(name)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            delattr(rec, field)


CHECKS = [
    (lambda: hz.SparseFunction(((1, 1.0), (0, 1.0))), ValueError,
     "values must be sorted by label and unique"),
    (lambda: hz.SparseFunction(((0, 1.0), (0, 2.0))), ValueError,
     "values must be sorted by label and unique"),
    (lambda: hz.SparseFunction(((0, float("inf")),)), hz.NonFiniteValue,
     "stored values must be finite"),
    (lambda: hz.SparseFunction(((0, 0.0),)), ValueError,
     "stored values must be nonzero"),
    (lambda: hz.SparseMeasure(((1, 0.5), (0, 0.5))), ValueError,
     "atoms must be sorted by label and unique"),
    (lambda: hz.SparseMeasure(((0, -0.5),)), ValueError,
     "atom masses must be finite and strictly positive"),
    (lambda: hz.SparseMeasure(((0, 0.5),), probability=True), ValueError,
     "probability measure has mass 0.5"),
    (lambda: hz.Weight("bogus"), ValueError, "unknown weight form 'bogus'"),
    (lambda: hz.Weight("constant", value=0.0), ValueError,
     "weight parameters must be finite and positive"),
    (lambda: hz.Weight(form="table", entries=((0, float("nan")),)), ValueError,
     "weight parameters must be finite and positive"),
    (lambda: hz.NormResult(1.0, 3, (2.0, 1.0)), ValueError,
     "bracket must satisfy 0 <= lo <= hi"),
    (lambda: hz.NormResult(-1.0, 3, (0.0, 1.0)), ValueError,
     "norms are nonnegative"),
    (lambda: hz.AperiodicityVerdict(True, None, 8, ()), ValueError,
     "first_n must be present exactly when the verdict holds"),
    (lambda: hz.AperiodicityVerdict(False, 3, 8, ()), ValueError,
     "first_n must be present exactly when the verdict holds"),
    (lambda: hz.CriterionReport("x", "fails", (ROW, ROW), 4, hz.DEFAULT_CONVENTION),
     ValueError, "rows must be strictly increasing in n"),
]


@pytest.mark.parametrize("make, exc, message", CHECKS)
def test_validators_keep_their_errors(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc and str(info.value) == message


def test_replace_and_make_run_the_validators():
    f = hz.indicator([0, 1])
    with pytest.raises(ValueError, match="stored values must be nonzero"):
        f._replace(values=((0, 0.0),))
    with pytest.raises(ValueError, match="unknown weight form"):
        hz.constant_weight(2.0)._replace(form="bogus")
    with pytest.raises(ValueError, match="norms are nonnegative"):
        hz.NormResult._make((-1.0, 0, (0.0, 0.0)))
    assert hz.point_mass(3)._replace(probability=False) == hz.SparseMeasure(((3, 1.0),))


def test_tuple_arithmetic_stays_a_type_error():
    f = hz.indicator([0, 1])
    mu = hz.point_mass(0)
    for op in (lambda: f * 2, lambda: 2 * f, lambda: f * f,
               lambda: mu + mu, lambda: mu * 2, lambda: 2 * mu):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()
    assert (f + f).values == ((0, 2.0), (1, 2.0))
    assert (f - f).is_zero()


def test_cached_members_still_work():
    f = hz.SparseFunction(((0, 1.5), (4, -2.0)))
    assert f.value_at(4) == -2.0 and f.value_at(1) == 0.0
    assert hz.point_mass(2).value_at(2) == 1.0
    w = hz.table_weight({0: 2.0}, default=0.5)
    assert w(0) == 2.0 and w(7) == 0.5
    w._memo["k"][1] = 3.0
    assert w._memo["k"] == {1: 3.0} and copy.copy(w) == w


def test_import_and_builds_load_no_dataclasses_inspect_or_fractions():
    heavy = {"dataclasses", "inspect", "fractions", "decimal"}
    code = (
        "import sys\n"
        f"heavy = {sorted(heavy)!r}\n"
        "before = set(sys.modules)\n"
        "import hyperorlicz as hz, hyperorlicz.cli\n"
        "print(*sorted(set(heavy) & (set(sys.modules) - before)) or ['none'])\n"
        "hz.integer_group(8); hz.su2(8)\n"
        "hz.table_hypergroup({(x, y): {(x + y) % 2: 1.0} for x in (0, 1) for y in (0, 1)},"
        " {0: 0, 1: 1})\n"
        "hz.dunkl_ramirez(0.3, 4)\n"
        "print('fractions' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={"PYTHONPATH": SRC}, check=True)
    assert out.stdout.split() == ["none", "False"]


HAAR_CALL = (
    "import contextlib, io, json\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out):\n"
    f"    code = hyperorlicz.cli.main(['--scenario', {str(SCENARIO)!r}, '--command', 'haar'])\n"
    "header = json.loads(out.getvalue().split('\\n')[0])\n")


def test_a_cli_call_loads_no_openssl_digest():
    # The header's sha256 comes from the lean builtin module: hashlib
    # would load OpenSSL's _hashlib, the largest cost of importing report.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hyperorlicz, hyperorlicz.cli\n"
        + HAAR_CALL +
        "print(code, *sorted({'hashlib', '_hashlib'} & (set(sys.modules) - before))"
        " or ['none'])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={"PYTHONPATH": SRC}, check=True)
    assert out.stdout.split() == ["0", "none"]


def test_header_digest_falls_back_to_hashlib(capsys):
    # Where neither lean module exists the digest comes from hashlib, and
    # the header reads the same digest as on the lean path.
    code = (
        "import sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "import hashlib, hyperorlicz, hyperorlicz.cli\n"
        + HAAR_CALL +
        "print(code, hyperorlicz.report.sha256 is hashlib.sha256, header['sha256'])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={"PYTHONPATH": SRC}, check=True)
    assert hz.cli.main(["--scenario", str(SCENARIO), "--command", "haar"]) == 0
    lean = json.loads(capsys.readouterr().out.split("\n")[0])["sha256"]
    assert out.stdout.split() == ["0", "True", lean]
