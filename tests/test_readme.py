"""The README names only commands, probes, flags and functions that exist."""
import pathlib
import re

import hyperorlicz as hz
from hyperorlicz import cli

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()

# Backticked math that reads like a call but names no code.
MATH_NOTATION = {"N", "m", "v_n", "math.prod"}


def _section(heading):
    """The README text under a level-2 heading, up to the next one."""
    start = README.index(f"\n## {heading}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else len(README)]


def _ticked(text):
    """The inline code spans of text, fenced blocks left out."""
    return re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))


def test_command_list_and_probe_ids_match_the_cli():
    listing = re.search(r"Commands: (.*?)Options:", README, re.S).group(1)
    probes = re.search(r"\((.*?)\)", listing, re.S).group(1)
    commands = re.sub(r"\(.*?\)", "", listing, flags=re.S)
    assert _ticked(commands) == list(cli.COMMANDS)
    assert [t for t in _ticked(probes) if not t.startswith("--")] == list(cli.PROBES)


def test_args_keys_match_the_cli():
    listing = re.search(r"`--args` keys each command reads:\n\n(.*?)\n\n",
                        _section("CLI"), re.S).group(1)
    shown = [(m.group(1), _ticked(m.group(2)))
             for m in re.finditer(r"^- `([^`]+)`: (.*)$", listing, re.M)]
    assert shown == [(c, list(keys)) for c, (_, keys) in cli.COMMANDS.items()]


def test_flags_are_cli_options():
    options = {s for action in cli._parser()._actions for s in action.option_strings}
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _section("CLI")))
    assert shown and shown <= options


def test_called_names_exist():
    called = {m.group(1) for t in _ticked(README)
              if (m := re.match(r"([A-Za-z_][\w.]*)\(", t))}
    assert called >= MATH_NOTATION
    missing = {name for name in called - MATH_NOTATION
               if name not in hz.__all__ and not hasattr(hz.HypergroupModel, name)}
    assert not missing
