"""Command-line front end over scenario files.

Exit codes: 0 when the requested check holds (or the command is purely
informational), 1 when it fails or stays inconclusive, 2 on scenario or
precondition errors, on a norm too large for a float and on an --out file
that cannot be written, 3 when a window overflow aborts the run.

Output is a header line (run metadata: timestamp and body hash) followed by
canonical JSON record lines; bodies are byte-identical across repeated runs.
The CSV format renders the body records only.  The seed feeds only the random
probe functions of the haar command.
"""
import argparse
import random
import sys
from contextlib import nullcontext

from .dynamics import (
    aperiodic_center_check,
    aperiodic_sequence_check,
    build_transitivity_witness,
    orbit_density_probe,
    probe_center_conditions,
    probe_hereditary,
    probe_series_necessary,
    probe_sup_necessary,
)
from .errors import (
    NonFiniteIntegrand,
    NotCentral,
    PreconditionFailed,
    ScenarioError,
    WindowOverflow,
)
from .errors import INVARIANCE_ULPS
from .functions import SparseFunction, indicator, integrate_haar, translate
from .hypergroups import AXIOMS
from .operators import CenterPowers
from .orlicz import delta2_check, l1_embedding_check, luxemburg_norm, orlicz_norm
from .report import render_csv, render_records
from .scenario import Scenario, load_scenario


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperorlicz",
        description="horizon-bounded checks for weighted translation dynamics")
    parser.add_argument("--scenario", required=True, help="scenario YAML file")
    parser.add_argument("--command", required=True, choices=tuple(COMMANDS))
    parser.add_argument("--args", action="append", default=[],
                        metavar="KEY=VALUE", help="command-specific options")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--format", default="records",
                        choices=("records", "csv"))
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the haar command's random probes")
    return parser


def _kv(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ScenarioError(f"--args entries must be KEY=VALUE, got {pair!r}")
        if key in out:
            raise ScenarioError(f"--args key {key!r} is given more than once")
        out[key] = value
    return out


def _named_set(sc: Scenario, opts: dict[str, str]) -> tuple[int, ...]:
    name = opts.get("set", "E")
    if name not in sc.sets:
        raise ScenarioError(f"scenario declares no set named {name!r}")
    return sc.sets[name]


def _named_function(sc: Scenario, name: str) -> SparseFunction:
    if name not in sc.functions:
        raise ScenarioError(f"scenario declares no function named {name!r}")
    return sc.functions[name]


def _require_eta(sc: Scenario):
    if sc.eta is None:
        raise PreconditionFailed("sequence-declared",
                                 "the command needs an eta section")
    return sc.eta


# -- command handlers: (scenario, options, seed) -> (records, exit_code) ----


def _cmd_axioms(sc: Scenario, opts, seed: int):
    bound = sc.run.triple_bound if sc.run.triple_bound is not None \
        else sc.model.window
    violations = sc.model.verify_axioms(bound)
    records = []
    for name in AXIOMS:
        hits = [v for v in violations if v.axiom == name]
        records.append({"record": "axiom", "axiom": name,
                        "violations": len(hits), "ok": not hits})
    for v in violations:
        records.append({"record": "violation", "axiom": v.axiom,
                        "witness": list(v.witness), "detail": v.detail})
    return records, (0 if not violations else 1)


def _cmd_haar(sc: Scenario, opts, seed: int):
    model = sc.model
    records = []
    show = [x for x in model.carrier if abs(x) <= min(model.window, 16)]
    for x in show:
        records.append({"record": "haar", "x": x, "weight": model.haar[x]})
    # The probe supports and the translations y are drawn from the first
    # reach + 1 nonnegative carrier labels: 0..reach on the built-in
    # families, any labels a table has.  Every preimage of such a translate
    # is a carrier label, so none leaves the window.  The cap keeps the
    # records the command has always written; the invariance bound scales
    # with the data, so it would hold on wider probes too.
    reach = min(model.window // 2, 8)
    labels = [x for x in model.carrier if x >= 0][:reach + 1]
    probes: list[tuple[str, SparseFunction]] = [
        ("singleton", indicator(labels[:1])),
        ("block", indicator(labels)),
        ("mixed", SparseFunction.from_dict(
            {x: 1.0 / (1 + abs(x)) for x in labels})),
    ]
    rng = random.Random(seed)
    for i in range(3):
        support = rng.sample(labels, k=min(3, len(labels)))
        values = {x: rng.uniform(-1.0, 1.0) for x in support}
        probes.append((f"random-{i}", SparseFunction.from_dict(values)))
    ok = True
    for name, f in probes:
        base = integrate_haar(model, f)
        for y in labels:
            t = translate(model, f, y)
            shifted = integrate_haar(model, t)
            dev = abs(shifted - base)
            good = dev <= _invariance_bound(model, f, t)
            ok = ok and good
            records.append({"record": "invariance", "probe": name, "y": y,
                            "integral": base, "translated": shifted,
                            "deviation": dev, "ok": good})
    return records, (0 if ok else 1)


def _invariance_bound(model, f: SparseFunction, t: SparseFunction) -> float:
    """The rounding the Haar integrals of f and of its translate t can carry
    (see ``errors.INVARIANCE_ULPS``)."""
    terms = len(f.values) + len(t.values)
    mass = sum(abs(v) * model.haar[x] for g in (f, t) for x, v in g.values)
    return INVARIANCE_ULPS * 2.0**-53 * terms * mass


def _cmd_norm(sc: Scenario, opts, seed: int):
    names = [opts["f"]] if "f" in opts else sorted(sc.functions)
    if not names:
        raise ScenarioError("scenario declares no functions to measure")
    records = []
    ok = True
    for name in names:
        f = _named_function(sc, name)
        gauge = luxemburg_norm(sc.model, f, sc.phi)
        infimum = orlicz_norm(sc.model, f, sc.phi)
        sandwich = (gauge.value <= infimum.value * (1 + 1e-9)
                    and infimum.value <= 2 * gauge.value * (1 + 1e-9))
        ok = ok and sandwich
        records.append({"record": "norm", "function": name,
                        "gauge": gauge.value, "infimum_form": infimum.value,
                        "gauge_iterations": gauge.iterations,
                        "sandwich_ok": sandwich})
    d2 = delta2_check(sc.phi)
    records.append({"record": "delta2", "state": d2.state,
                    "constant": d2.constant,
                    "grid_max_ratio": d2.grid_max_ratio})
    emb = l1_embedding_check(sc.model, sc.phi)
    records.append({"record": "embedding", "holds": emb.holds,
                    "right_derivative": emb.right_derivative,
                    "derivative_status": emb.derivative_status,
                    "constant_estimate": emb.constant_estimate,
                    "rigorous": emb.rigorous})
    return records, (0 if ok else 1)


def _verdict_records(check: str, verdict):
    records = [{"record": "verdict", "check": check,
                "holds": verdict.holds_at_horizon,
                "first_n": verdict.first_n, "horizon": verdict.horizon}]
    for n, overlap in verdict.counterexamples:
        records.append({"record": "counterexample", "check": check, "n": n,
                        "overlap": list(overlap)})
    for n in verdict.inconclusive:
        records.append({"record": "skipped", "check": check, "n": n})
    return records


def _cmd_aperiodic(sc: Scenario, opts, seed: int):
    eta = _require_eta(sc)
    e = _named_set(sc, opts)
    records = []
    if isinstance(eta, CenterPowers):
        rep = aperiodic_center_check(sc.model, eta.z, e, sc.run.horizon,
                                     sc.run.rs_bound)
        records += _verdict_records("direct", rep.direct)
        records += _verdict_records("pairwise", rep.pairwise)
        records.append({"record": "agreement", "agree": rep.agree})
        return records, (0 if rep.direct.holds_at_horizon else 1)
    verdict = aperiodic_sequence_check(sc.model, eta, e, sc.run.horizon)
    records += _verdict_records("sequence", verdict)
    return records, (0 if verdict.holds_at_horizon else 1)


def _probe_hereditary(sc: Scenario, e):
    eta = _require_eta(sc)
    if not isinstance(eta, CenterPowers):
        raise PreconditionFailed("central-element",
                                 "hereditary probe needs a center-powers sequence")
    return probe_hereditary(sc.model, eta.z, sc.weight, sc.phi, e,
                            sc.run.horizon)


# Probe id -> (scenario, set) -> CriterionReport.  The entries look the probe
# functions up by name when called, so patching a module attribute takes
# effect.
PROBES = {
    "necessary-sup": lambda sc, e: probe_sup_necessary(
        sc.model, sc.weight, _require_eta(sc), e, sc.run.horizon,
        convention=sc.run.convention),
    "necessary-series": lambda sc, e: probe_series_necessary(
        sc.model, sc.weight, _require_eta(sc), e, sc.run.horizon,
        sc.run.series_cutoff, rs_bound=sc.run.rs_bound,
        convention=sc.run.convention),
    "center": lambda sc, e: probe_center_conditions(
        sc.model, sc.weight, _require_eta(sc), sc.phi, e, sc.run.horizon,
        convention=sc.run.convention),
    "hereditary": _probe_hereditary,
}


def _cmd_probe(sc: Scenario, opts, seed: int):
    probe = PROBES.get(opts.get("id"))
    if probe is None:
        raise ScenarioError(f"probe id must be one of {tuple(PROBES)}, "
                            f"got {opts.get('id')!r}")
    report = probe(sc, _named_set(sc, opts))
    records = []
    for row in report.rows:
        rec = {"record": "row", "k": row.k, "n": row.n,
               "members": list(row.members), "ratio": row.measure_ratio,
               "flags": list(row.flags)}
        for key, value in row.metrics:
            rec[key] = value
        records.append(rec)
    records.append({"record": "verdict", "criterion": report.criterion,
                    "verdict": report.verdict, "horizon": report.horizon,
                    "convention": report.convention.value,
                    "certification": report.certification,
                    "notes": list(report.notes)})
    return records, (0 if report.verdict == "holds_empirically" else 1)


def _cmd_witness(sc: Scenario, opts, seed: int):
    eta = _require_eta(sc)
    f = _named_function(sc, opts.get("f", "f"))
    g = _named_function(sc, opts.get("g", "g"))
    report = build_transitivity_witness(sc.model, f, g, sc.weight, eta,
                                        sc.phi, sc.run.k_max, sc.run.horizon,
                                        sc.run.convention)
    records = []
    for row in report.rows:
        records.append({"record": "row", "k": row.k, "n": row.n,
                        "err_source": row.err_source,
                        "err_target": row.err_target,
                        "flags": list(row.flags)})
    records.append({"record": "verdict",
                    "eventually_decreasing": report.eventually_decreasing,
                    "convention": report.convention.value})
    records.append({"record": "witness",
                    "values": {str(k): v
                               for k, v in report.final_witness.values}})
    return records, (0 if report.eventually_decreasing else 1)


def _cmd_orbit(sc: Scenario, opts, seed: int):
    eta = _require_eta(sc)
    fname = opts.get("f", "f")
    f = _named_function(sc, fname)
    if "targets" in opts:
        target_names = [t for t in opts["targets"].split(",") if t]
    else:
        target_names = [n for n in sorted(sc.functions) if n != fname]
    if not target_names:
        raise ScenarioError("no orbit targets: give targets=name1,name2")
    targets = [_named_function(sc, n) for n in target_names]
    results = orbit_density_probe(sc.model, f, sc.weight, eta, targets,
                                  sc.run.horizon, sc.phi,
                                  convention=sc.run.convention)
    records = []
    for name, res in zip(target_names, results):
        records.append({"record": "orbit", "target": name,
                        "best_n": res.best_n, "best_error": res.best_error,
                        "skipped": list(res.skipped)})
    return records, 0


# Command -> (handler, the --args keys it reads).
COMMANDS = {"axioms": (_cmd_axioms, ()), "haar": (_cmd_haar, ()),
            "norm": (_cmd_norm, ("f",)), "aperiodic": (_cmd_aperiodic, ("set",)),
            "probe": (_cmd_probe, ("id", "set")),
            "witness": (_cmd_witness, ("f", "g")),
            "orbit": (_cmd_orbit, ("f", "targets"))}


def run_command(sc: Scenario, command: str, opts: dict[str, str],
                seed: int) -> tuple[list[dict], int]:
    if command not in COMMANDS:
        raise ScenarioError(f"unknown command {command!r}")
    handler, keys = COMMANDS[command]
    unknown = sorted(set(opts) - set(keys))
    if unknown:
        raise ScenarioError(f"unknown --args keys {unknown} for {command}, "
                            f"which reads {list(keys)}")
    return handler(sc, opts, seed)


def main(argv=None) -> int:
    ns = _parser().parse_args(argv if argv is not None else sys.argv[1:])
    try:
        opts = _kv(ns.args)
        sc = load_scenario(ns.scenario)
        records, code = run_command(sc, ns.command, opts, ns.seed)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionFailed, NotCentral) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except WindowOverflow as exc:
        print(f"window overflow: {exc}", file=sys.stderr)
        return 3
    except NonFiniteIntegrand as exc:
        print(f"non-finite norm: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return 2
    if ns.format == "csv":
        text = render_csv(records)
    else:
        text = render_records(ns.command, sc.scenario_id, records)
    try:
        sink = open(ns.out, "w", encoding="utf-8") if ns.out else nullcontext(sys.stdout)
        with sink as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
