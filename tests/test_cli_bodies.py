"""CLI report bodies of every shipped scenario x command pair, pinned.

Each entry is the exit code and the sha256 of the report body (the lines
after the header) as produced before the convolution core became lazy, so
any change that moves a float bit or a record shows here.  Pairs that stop
at exit 2 print nothing on stdout.  ``doubling_shift axioms`` checks every
associativity triple of a 129-point window.
"""
import hashlib
import json
import pathlib

import pytest
import yaml

from hyperorlicz import cli, scenario

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

PINNED = {
    "doubling_shift/aperiodic": (0, "59d94cc25e71027870b6d0c8918b92ecd35c717f5471833ed568263b97aeb7fc"),
    "doubling_shift/axioms": (0, "3e53a6a59f6ed2412f38761d23666ddffd64975be40a91e27e3866f21389e0ea"),
    "doubling_shift/haar": (0, "b3bcd8ae7893274a3ac33e3ba448e419b3b5206e5d3eb37047664842f89a82c6"),
    "doubling_shift/norm": (0, "9360b4150eaff661c64c468d21674b9b96c2eaa044a80c808be084208b423a2b"),
    "doubling_shift/orbit": (0, "8c2348e314f93c73f81a51e63a88ec92e16946e748fac61d56d651cafec04dee"),
    "doubling_shift/probe:center": (0, "29dbec0e9610d9429f749c7b054b268379ba462876d03cf008bea741ab7faa60"),
    "doubling_shift/probe:hereditary": (0, "3172ecf10116cad1d6f1a3f217e63870ea813f5a6e4923231611dba96d7ed894"),
    "doubling_shift/probe:necessary-series": (0, "dc92e77dfd2afa8f32af2fd8c61793b108e2f020ba95845e342e834ac51a1172"),
    "doubling_shift/probe:necessary-sup": (0, "94d801020deb983fea4ee423b9eed5ce5b2ecc25467cb37fe192d516e1e33214"),
    "doubling_shift/witness": (0, "601de182dedbdc765a5f985b5ef4cd0dc8c8840cdb708bed8eddfcf3fbcd2b6f"),
    "dr_axioms/aperiodic": (2, None),
    "dr_axioms/axioms": (0, "3e53a6a59f6ed2412f38761d23666ddffd64975be40a91e27e3866f21389e0ea"),
    "dr_axioms/haar": (0, "228118ae85695b2083e69e16918e9be51f4ccf9c835c6a43e0be3e470416cc2a"),
    "dr_axioms/norm": (0, "c8daf346db3d6386a2c79135db4657e7527cd015cf9d150dcc42ebd8b3dde751"),
    "dr_axioms/orbit": (2, None),
    "dr_axioms/probe:center": (2, None),
    "dr_axioms/probe:hereditary": (2, None),
    "dr_axioms/probe:necessary-series": (2, None),
    "dr_axioms/probe:necessary-sup": (2, None),
    "dr_axioms/witness": (2, None),
    "su2_sequence/aperiodic": (0, "589b812768c9b75e5a99eec189d706495fb1affadf6d41cd8b3595da68109d89"),
    "su2_sequence/axioms": (0, "3e53a6a59f6ed2412f38761d23666ddffd64975be40a91e27e3866f21389e0ea"),
    "su2_sequence/haar": (0, "65917f3d1c0aaf5ab47a19af7e8ca683074126e0540798cc148dbbc5b9f67dcf"),
    "su2_sequence/norm": (0, "6440c11d4bb2acccd06d11f88692a16dff3cf8b1b473615efb2b2b58ea8823c0"),
    "su2_sequence/orbit": (2, None),
    "su2_sequence/probe:center": (2, None),
    "su2_sequence/probe:hereditary": (2, None),
    "su2_sequence/probe:necessary-series": (2, None),
    "su2_sequence/probe:necessary-sup": (0, "746300548d01693c5babf5ade249698d802308b1f56165cd1b8f7f5380fae011"),
    "su2_sequence/witness": (2, None),
}


def _assert_pinned(pair, capsys):
    scenario_name, _, command = pair.partition("/")
    command, _, probe_id = command.partition(":")
    argv = ["--scenario", str(SCENARIO_DIR / f"{scenario_name}.yaml"),
            "--command", command]
    if probe_id:
        argv += ["--args", f"id={probe_id}"]
    code = cli.main(argv)
    text = capsys.readouterr().out
    want_code, want_sha = PINNED[pair]
    assert code == want_code, pair
    if want_sha is None:
        assert text == "", pair
        return
    lines = text.split("\n")
    body = "\n".join(lines[1:-1])
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    assert digest == want_sha, pair
    # The header's digest and record count describe the body it heads.
    header = json.loads(lines[0])
    assert (header["sha256"], header["records"]) == (digest, len(lines) - 2), pair


@pytest.mark.parametrize("pair", sorted(PINNED))
def test_cli_body_matches_pin(pair, capsys):
    _assert_pinned(pair, capsys)


@pytest.mark.parametrize("name", sorted({p.partition("/")[0] for p in PINNED}))
def test_pure_python_parser_gives_the_pinned_bodies(name, monkeypatch, capsys):
    # a PyYAML build without libyaml: the same loader on the Python parser;
    # the scenario is loaded once and every pinned command runs on it
    monkeypatch.setattr(scenario, "_Loader", type(
        "PureLoader", (scenario._UniqueKeys, yaml.SafeLoader), {}))
    sc = scenario.load_scenario(str(SCENARIO_DIR / f"{name}.yaml"))
    monkeypatch.setattr(cli, "load_scenario", lambda path: sc)
    for pair in sorted(PINNED):
        if pair.startswith(f"{name}/"):
            _assert_pinned(pair, capsys)
