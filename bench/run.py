"""hyperorlicz benchmark: cold CLI calls, long-horizon probe sessions and
axiom sweeps, each operation in a fresh interpreter (closed loop, one client).

Usage:
    python3 bench/run.py --workload cli-shipped --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --write-reference         # reference outputs, default seed

Run from the repository root or anywhere else: paths are resolved from this
file.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of ``BENCHMARK.json`` (alternating untraced and traced
passes, so the tracing overhead is measured in the same run).  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import workloads

perf = time.perf_counter

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 1
MIN_PASSES = 3            # untraced passes per run; a traced run needs 2 of each kind
KEPT_REPEATS = 2          # fastest repeats per operation behind the percentiles
MEASURE_LIMIT_S = 140.0   # no pass starts that would end later, whatever --seconds says
OP_TIMEOUT_S = 60.0
TAIL_LADDER = (99, 95, 90, 75, 50)


class Failure(Exception):
    """The benchmark cannot produce a result (no program, broken warm-up)."""


def tail_percentile(n: int) -> int:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100 - p) / 100.0 >= 10:
            return p
    return 50


def run_op(op: dict, traced: bool, spans: str | None) -> dict:
    """Run one operation in a fresh interpreter; return its record."""
    spec = dict(op["spec"], op=op["id"], trace=traced, spans=spans)
    argv = [sys.executable, str(BENCH_DIR / "op.py"), str(SRC_DIR), json.dumps(spec)]
    # Bytecode caches on, as after an install: the warm-up writes them.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONHASHSEED"] = "0"
    start = perf()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              env=env, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"id": op["id"], "wall_s": perf() - start,
                "error": f"timed out after {OP_TIMEOUT_S:.0f} s"}
    wall = perf() - start
    rec = {"id": op["id"], "wall_s": wall}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or "Traceback" in proc.stderr or not lines:
        rec["error"] = (f"exit {proc.returncode}: "
                        + (proc.stderr.strip().splitlines() or ["no output"])[-1])
        return rec
    rec.update(json.loads(lines[-1]))
    if not all(ok for *_, ok in rec["results"]):
        rec["error"] = "report header does not match its body"
    return rec


def digest(rec: dict) -> list:
    """What must repeat exactly: per command, its label, exit code, body sha256."""
    return [r[:3] for r in rec["results"]]


def load_reference(workload: str, seed: int) -> dict:
    """Reference digests that hold at this seed (cli-shipped: every seed)."""
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if workload != "cli-shipped" and seed != ref["seed"]:
        return {}
    return ref["workloads"].get(workload, {})


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 min_passes: int = MIN_PASSES, use_reference: bool = True) -> dict:
    if not (SRC_DIR / "hyperorlicz" / "__init__.py").is_file():
        raise Failure(f"no hyperorlicz package under {SRC_DIR}")
    workdir = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "spans").mkdir(parents=True)
    ops = workloads.build(workload, seed, workdir)
    reference = load_reference(workload, seed) if use_reference else {}

    # Warm-up, not measured: compiles the bytecode caches and proves the
    # program runs at all.
    warm = run_op(ops[0], False, None)
    if "error" in warm:
        raise Failure(f"warm-up operation {ops[0]['id']} failed: {warm['error']}")

    rng = random.Random(f"{workload}/order/{seed}")
    passes: list[dict] = []
    first_digest: dict[str, list] = {}
    failures: list[str] = []
    start = perf()
    while True:
        traced = trace and len(passes) % 2 == 1
        order = ops[:]
        rng.shuffle(order)
        t0 = perf()
        recs = []
        for op in order:
            spans = None
            if traced and not any(p["traced"] for p in passes):
                spans = str(workdir / "spans" / f"{op['id'].replace('/', '_')}.jsonl")
            rec = run_op(op, traced, spans)
            if "error" not in rec:
                d = digest(rec)
                want = first_digest.setdefault(op["id"], d)
                if d != want:
                    rec["error"] = "report bodies differ between passes"
                elif op["id"] in reference and d != reference[op["id"]]:
                    rec["error"] = f"outputs differ from {REFERENCE.name}"
            if "error" in rec:
                failures.append(f"{op['id']}: {rec['error']}")
            recs.append(rec)
        passes.append({"traced": traced, "wall_s": perf() - t0, "ops": recs})
        elapsed, last = perf() - start, passes[-1]["wall_s"]
        enough = all(sum(1 for p in passes if p["traced"] == t) >= min_passes
                     for t in ((False, True) if trace else (False,)))
        if elapsed + last > MEASURE_LIMIT_S or (
                enough and elapsed + 0.5 * last >= seconds):
            break
    return {"workload": workload, "seed": seed, "ops": ops, "passes": passes,
            "failures": failures, "measured_s": perf() - start, "workdir": workdir}


# -- metrics -----------------------------------------------------------------


def _repeats(passes) -> dict[str, list[dict]]:
    """The successful records of each operation over the given passes."""
    out: dict[str, list[dict]] = {}
    for p in passes:
        for r in p["ops"]:
            if "error" not in r:
                out.setdefault(r["id"], []).append(r)
    return out


def _best_sum(repeats: dict, key) -> float:
    """One pass at the best observed speed: each operation's fastest repeat."""
    return sum(min(key(r) for r in recs) for recs in repeats.values())


def _import_s(r: dict) -> float:
    return r["import_yaml_s"] + r["import_hyperorlicz_s"]


def end_to_end(run: dict) -> tuple[dict, dict]:
    """End-to-end values plus notes (tail percentile and sample count).

    The CPU of a small shared machine can run 1.6 times slower for 10-20 s
    at a time; the slower repeats of an operation measure that, not the
    program.  So sums take each operation's fastest repeat, and the
    percentiles take its KEPT_REPEATS fastest repeats, which keeps the sample
    count, and so the tail percentile, the same in every run.
    """
    plain = [p for p in run["passes"] if not p["traced"]]
    repeats = _repeats(plain)
    walls = [w for recs in repeats.values()
             for w in sorted(r["wall_s"] for r in recs)[:KEPT_REPEATS]]
    tail = tail_percentile(len(walls))
    values = {
        "run_s": _best_sum(repeats, lambda r: r["wall_s"]),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": statistics.quantiles(walls, n=100, method="inclusive")[tail - 1],
        "setup_s": _best_sum(repeats, lambda r: r["setup_s"]),
        "command_s": _best_sum(repeats, lambda r: r["command_s"]),
        "import_s": _best_sum(repeats, _import_s),
        "peak_rss_mb": max(r["maxrss_kb"] for recs in repeats.values()
                           for r in recs) / 1024.0,
    }
    notes = {"op_tail_s": f"p{tail} of N={len(walls)}: each operation's "
                          f"{KEPT_REPEATS} fastest of {len(plain)} repeats",
             "run_s": f"fastest of {len(plain)} repeats per operation, summed"}
    return values, notes


def _layer_totals(p: dict) -> tuple[dict, dict, dict]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    for r in p["ops"]:
        if "error" in r:
            continue
        for name, (n, _total, own) in r["stats"].items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        for name, v in r["counters"].items():
            counters[name] = counters.get(name, 0) + v
    return calls, self_s, counters


def per_layer(run: dict, names) -> dict:
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    totals = [_layer_totals(p) for p in traced]
    calls, _, counters = totals[0]
    for c, _, k in totals[1:]:
        if c != calls or k != counters:
            run["failures"].append("trace counts differ between traced passes")
    attempted = counters.get("hypergroups.assoc.triples_attempted", 0)
    checked = attempted - counters.get("hypergroups.assoc.triples_skipped", 0)
    points = counters.get("functions.translate.carrier_points", 0)
    derived = {
        "hypergroups.assoc.triples_checked": checked,
        "hypergroups.assoc.checked_ratio": checked / attempted if attempted else 0.0,
        "functions.translate.useful_ratio": (
            counters.get("functions.translate.atoms_out", 0) / points
            if points else 0.0),
        "import.yaml_s": _best_sum(_repeats(run["passes"]),
                                   lambda r: r["import_yaml_s"]),
        "import.hyperorlicz_s": _best_sum(_repeats(run["passes"]),
                                          lambda r: r["import_hyperorlicz_s"]),
        "trace.overhead_s": (_best_sum(_repeats(traced), lambda r: r["wall_s"])
                             - _best_sum(_repeats(plain), lambda r: r["wall_s"])),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name in counters:
            values[name] = counters[name]
        elif name.endswith(".calls"):
            values[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            layer = name[:-len(".self_s")]
            values[name] = statistics.median(t[1].get(layer, 0.0) for t in totals)
        else:
            values[name] = 0
    return values


def op_properties(run: dict) -> list[dict]:
    """Input properties per operation; the traced run adds the share of
    associativity triples that overflow the window."""
    traced = [p for p in run["passes"] if p["traced"]]
    by_id = {r["id"]: r for r in traced[0]["ops"] if "error" not in r} if traced else {}
    rows = []
    for op in run["ops"]:
        row = {"op": op["id"], **op["props"]}
        rec = by_id.get(op["id"])
        if rec is not None:
            attempted = rec["counters"].get("hypergroups.assoc.triples_attempted", 0)
            skipped = rec["counters"].get("hypergroups.assoc.triples_skipped", 0)
            row["overflow_share"] = round(skipped / attempted, 4) if attempted else None
        rows.append(row)
    return rows


def environment() -> dict:
    sha = ""
    if (ROOT / ".git").exists():   # a plain source tree has no sha
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha or "unknown", "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def report(run: dict, trace: bool, spec: dict) -> dict:
    """Print the human-readable block and return the metrics object."""
    if trace:
        listed = spec["per_layer"]
        values = per_layer(run, [m["name"] for m in listed])
        notes = {}
    else:
        listed = spec["end_to_end"]
        values, notes = end_to_end(run)
    attempted = sum(len(p["ops"]) for p in run["passes"])
    failed = sum(1 for p in run["passes"] for r in p["ops"] if "error" in r)
    print(f"== {run['workload']}  seed {run['seed']}  "
          f"{len(run['passes'])} passes in {run['measured_s']:.1f} s  "
          f"failed {failed}/{attempted} (failed_ratio {failed / attempted:.4f})")
    for line in run["failures"][:20]:
        print(f"   FAILED {line}")
    metrics = {}
    for m in listed:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"   {m['name']:<44} {v:>14.6g} {m['unit']}{note}")
    props = op_properties(run)
    for row in props:
        print("   input " + " ".join(f"{k}={v}" for k, v in row.items()))
    env = environment()
    print("   env " + " ".join(f"{k}={v}" for k, v in env.items()))
    result = {"workload": run["workload"], "seed": run["seed"], "trace": trace,
              "env": env, "metrics": metrics, "failures": run["failures"],
              "properties": props,
              "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                          "ops": [{k: r.get(k) for k in ("id", "wall_s", "setup_s", "import_yaml_s", "import_hyperorlicz_s",
                                                          "command_s", "error")}
                                  for r in p["ops"]]}
                         for p in run["passes"]]}
    (run["workdir"] / "result.json").write_text(json.dumps(result, indent=1),
                                                encoding="utf-8")
    return {"correct": not run["failures"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def write_reference() -> None:
    """Record each operation's exit codes and body sha256 at the default seed."""
    ref = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        run = run_workload(name, DEFAULT_SEED, 0.0, False, min_passes=2,
                           use_reference=False)
        if run["failures"]:
            raise Failure("; ".join(run["failures"]))
        ref["workloads"][name] = {r["id"]: digest(r) for r in run["passes"][0]["ops"]}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    ns = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if ns.write_reference:
            write_reference()
            return 0
        names = workloads.WORKLOADS if ns.workload == "all" else (ns.workload,)
        results = {}
        for name in names:
            run = run_workload(name, ns.seed, ns.seconds, bool(ns.trace),
                               min_passes=2 if ns.trace else MIN_PASSES)
            results[name] = report(run, bool(ns.trace), spec)
    except (Failure, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
