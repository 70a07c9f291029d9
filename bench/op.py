"""Run one benchmark operation in this fresh interpreter.

Usage: python3 op.py SRC_DIR SPEC_JSON

SPEC_JSON holds ``kind`` ("cli": one ``hyperorlicz`` CLI call with ``argv``;
"session": ``load_scenario`` once, then ``run_command`` for each of
``commands``), ``op`` (the operation id), ``trace`` and ``spans`` (a path for
the span records, or null).  The last stdout line is one JSON object with the
outcome of each command (exit code, report-body sha256, whether the header
matches the body) and the operation's timings.  An unexpected exception
escapes with its traceback, which the benchmark counts as a failure.
"""
import sys
import time

perf = time.perf_counter
sys.path.insert(0, sys.argv[1])

# The package's imports are timed, so nothing they share (json, hashlib, ...)
# may be imported before them.  PyYAML is timed on its own: it is most of
# the CLI's import cost.
_t0 = perf()
import yaml
_t1 = perf()
import hyperorlicz
from hyperorlicz import cli
_t2 = perf()

import contextlib
import hashlib
import io
import json
import resource

from hyperorlicz.errors import (
    NotCentral, PreconditionFailed, ScenarioError, WindowOverflow)
from tracer import E2E_TARGETS, LAYER_TARGETS, Tracer

# The exit codes cli.main gives each library exception.
EXIT_CODES = ((ScenarioError, 2), (PreconditionFailed, 2), (NotCentral, 2),
              (WindowOverflow, 3), (ValueError, 2))


def checked_body(text: str, command: str):
    """(body sha256, header ok) of a rendered report."""
    lines = text.split("\n")
    header = json.loads(lines[0])
    body = lines[1:-1]
    digest = hashlib.sha256("\n".join(body).encode("utf-8")).hexdigest()
    ok = (lines[-1] == "" and header.get("sha256") == digest
          and header.get("records") == len(body)
          and header.get("command") == command)
    return digest, ok


def run_cli(argv, label):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue()
    if code in (0, 1):
        digest, ok = checked_body(text, argv[argv.index("--command") + 1])
    else:
        digest, ok = None, text == ""
    return [[label, code, digest, ok]]


def run_session(path, commands):
    sc = cli.load_scenario(path)
    results = []
    for command, opts in commands:
        label = command + (f":{opts['id']}" if "id" in opts else "")
        try:
            records, code = cli.run_command(sc, command, opts, 0)
        except tuple(exc for exc, _ in EXIT_CODES) as exc:
            code = next(c for e, c in EXIT_CODES if isinstance(exc, e))
            results.append([label, code, None, True])
            continue
        digest, ok = checked_body(
            cli.render_records(command, sc.scenario_id, records), command)
        results.append([label, code, digest, ok])
    return results


def main() -> None:
    spec = json.loads(sys.argv[2])
    tracer = Tracer(spec["op"])
    tracer.install(LAYER_TARGETS if spec["trace"] else E2E_TARGETS)
    if spec["kind"] == "cli":
        results = run_cli(spec["argv"], spec["label"])
    else:
        results = run_session(spec["scenario"], spec["commands"])
    st = tracer.stats
    out = {
        "results": results,
        "import_yaml_s": _t1 - _t0,
        "import_hyperorlicz_s": _t2 - _t1,
        "setup_s": st["scenario.load_scenario"][1],
        "command_s": st["cli.run_command"][1] + st["report.render_records"][1],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if spec["trace"]:
        out["stats"] = st
        out["counters"] = tracer.counters
        if spec.get("spans"):
            tracer.dump(spec["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
