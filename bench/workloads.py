"""The benchmark's three workloads: operations and their seed-generated inputs.

Every operation is one fresh interpreter (see ``op.py``).  An operation is a
dict holding its id, the spec handed to ``op.py`` and the input properties
that a later performance claim may cite (carrier size, |E|, horizon, series
cutoff, triple bound).

Sizes are fixed per stratum, so that every seed costs about the same and the
run-to-run spread stays small; the seed draws everything that does not set
the amount of work: labels, weights, Young exponents, relabelings and the
order of operations within a pass.
"""
from __future__ import annotations

import pathlib
import random

import yaml

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SHIPPED_DIR = BENCH_DIR / "shipped"

WORKLOADS = ("cli-shipped", "probe-horizon", "axioms-sweep")

PROBE_IDS = ("necessary-sup", "necessary-series", "center", "hereditary")

# Command variants of one CLI pass: every command, the probe once per id.
CLI_COMMANDS = (("axioms", None), ("haar", None), ("norm", None),
                ("aperiodic", None), ("witness", None), ("orbit", None)) + tuple(
    ("probe", pid) for pid in PROBE_IDS)

# Its associativity sweep takes about 33 s, which would swamp the pass;
# axioms-sweep covers that layer.
CLI_EXCLUDED = {("doubling_shift", "axioms")}

# Commands of one probe-horizon library session, in order.
SESSION_COMMANDS = tuple(("probe", {"id": pid}) for pid in PROBE_IDS) + (
    ("witness", {}), ("orbit", {}), ("aperiodic", {}), ("norm", {}))


def carrier_size(doc: dict) -> int:
    hg = doc["hypergroup"]
    if hg["family"] == "integers":
        return 2 * hg["window"] + 1
    if hg["family"] == "table":
        return len(hg["involution"])
    return hg["window"] + 1


def properties(doc: dict) -> dict:
    """Input properties of one scenario that set how much work it costs."""
    run = doc.get("run") or {}
    return {
        "family": doc["hypergroup"]["family"],
        "carrier": carrier_size(doc),
        "set_size": len((doc.get("sets") or {}).get("E", ())),
        "horizon": run.get("horizon", 16),
        "series_cutoff": run.get("series_cutoff", 40),
        "triple_bound": run.get("triple_bound"),
    }


def _write(workdir: pathlib.Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
    return str(path)


# -- cli-shipped -------------------------------------------------------------


def cli_shipped(seed: int, workdir: pathlib.Path) -> list[dict]:
    """One CLI call per shipped scenario x command pair.

    The inputs are copies of the scenarios the repository ships, pinned here
    so that edits to them cannot change what the benchmark measures; the seed
    only orders the calls.  ``haar`` keeps its default ``--seed``, so every
    call's body is the same for every benchmark seed.
    """
    ops = []
    for src in sorted(SHIPPED_DIR.glob("*.yaml")):
        doc = yaml.safe_load(src.read_text(encoding="utf-8"))
        path = _write(workdir, src.stem, doc)
        for command, probe_id in CLI_COMMANDS:
            if (src.stem, command) in CLI_EXCLUDED:
                continue
            argv = ["--scenario", path, "--command", command]
            label = command
            if probe_id is not None:
                argv += ["--args", f"id={probe_id}"]
                label = f"probe:{probe_id}"
            ops.append({"id": f"{src.stem}/{label}",
                        "spec": {"kind": "cli", "argv": argv, "label": label},
                        "props": properties(doc)})
    return ops


# -- probe-horizon -----------------------------------------------------------

# (stratum, |E|, weight form); every integer stratum runs window 128,
# horizon 64 and series cutoff 2, so the series probe reaches the window edge.
PROBE_STRATA = (("int-step", 4, "step"), ("int-geometric", 6, "geometric"),
                ("int-table", 8, "table"))


def _int_session_doc(rng: random.Random, name: str, set_size: int,
                     form: str) -> dict:
    """Integers along powers of 1.  Weights stay at least 2.5 left of the
    threshold and at most 0.4 right of it, so the center and hereditary
    probes hold and the witness is built; E sits within 4 of the origin."""
    horizon = 64
    window = 2 * horizon
    labels = sorted(rng.sample(range(-4, 5), set_size))
    threshold = rng.randint(-1, 1)
    if form == "step":
        weight = {"form": "step", "threshold": threshold,
                  "low": round(rng.uniform(2.5, 4.0), 3),
                  "high": round(rng.uniform(0.25, 0.4), 3)}
    elif form == "geometric":
        weight = {"form": "geometric", "base": round(rng.uniform(0.8, 1.2), 3),
                  "ratio": round(rng.uniform(0.95, 0.97), 4)}
    else:
        weight = {"form": "table", "default": 1.0, "entries": {
            x: round(rng.uniform(2.5, 4.0) if x <= threshold
                     else rng.uniform(0.25, 0.4), 3)
            for x in range(-window, window + 1)}}
    f = {x: round(rng.uniform(0.5, 1.5), 3) for x in labels}
    g = {x: round(rng.uniform(0.25, 1.0), 3) for x in labels}
    target = {rng.randint(-16, 16): round(rng.uniform(0.25, 1.0), 3)}
    return {
        "id": name,
        "hypergroup": {"family": "integers", "window": window},
        "young": {"kind": "phi_p", "p": round(rng.uniform(1.5, 3.0), 3)},
        "weight": weight,
        "eta": {"generator": "center_powers", "z": 1},
        "sets": {"E": labels},
        "functions": {"f": f, "g": g, "target": target},
        "run": {"horizon": horizon, "k_max": 8, "series_cutoff": 2,
                "rs_bound": 3},
    }


def _su2_session_doc(rng: random.Random, name: str) -> dict:
    """SU(2) has a trivial center, so the sequence is a table: the n-th point
    is n or n + 1, drawn by the seed.  Only necessary-sup, orbit, aperiodic
    and norm run to the end; the other commands stop at a precondition
    (exit 2 in the reference)."""
    window, horizon = 64, 32
    entries = {n: min(window // 2, n + rng.randint(0, 1)) for n in range(1, horizon + 1)}
    labels = sorted(rng.sample(range(0, 6), 3))
    return {
        "id": name,
        "hypergroup": {"family": "su2", "window": window},
        "young": {"kind": "phi_p", "p": round(rng.uniform(1.5, 3.0), 3)},
        "weight": {"form": "geometric", "base": 1.0,
                   "ratio": round(rng.uniform(0.85, 0.95), 3)},
        "eta": {"generator": "table", "entries": entries},
        "sets": {"E": labels},
        "functions": {"f": {x: round(rng.uniform(0.5, 1.5), 3) for x in labels},
                      "g": {labels[0]: 0.5},
                      "target": {rng.randint(0, 8): 0.5}},
        "run": {"horizon": horizon, "k_max": 8, "series_cutoff": 2,
                "rs_bound": 3},
    }


def probe_horizon(seed: int, workdir: pathlib.Path) -> list[dict]:
    """One library session per generated scenario: load once, then every
    probe id, witness, orbit, aperiodic and norm."""
    rng = random.Random(f"probe-horizon/{seed}")
    docs = [_int_session_doc(rng, f"ph-{name}", size, form)
            for name, size, form in PROBE_STRATA]
    docs.append(_su2_session_doc(rng, "ph-su2-table"))
    ops = []
    for doc in docs:
        path = _write(workdir, doc["id"], doc)
        ops.append({"id": doc["id"],
                    "spec": {"kind": "session", "scenario": path,
                             "commands": [list(c) for c in SESSION_COMMANDS]},
                    "props": properties(doc)})
    return ops


# -- axioms-sweep ------------------------------------------------------------


def _filler(rng: random.Random) -> dict:
    """Young function and weight, required by the grammar, unused by axioms."""
    return {"young": {"kind": "phi_p", "p": round(rng.uniform(1.0, 3.0), 3)},
            "weight": {"form": "constant", "value": round(rng.uniform(0.5, 2.0), 3)}}


def _cyclic_table_doc(rng: random.Random, name: str, order: int) -> dict:
    """Cayley table of Z_order under a seed-drawn relabeling; its axioms are
    checked once at load and once more by the command."""
    labels = rng.sample(range(0, 2 * order), order)
    table = [[labels[i], labels[j], {labels[(i + j) % order]: 1.0}]
             for i in range(order) for j in range(order)]
    return {"id": name,
            "hypergroup": {"family": "table", "window": 2 * order,
                           "identity": labels[0],
                           "involution": {labels[i]: labels[-i % order]
                                          for i in range(order)},
                           "table": table},
            **_filler(rng)}


def axioms_sweep(seed: int, workdir: pathlib.Path) -> list[dict]:
    """One ``axioms`` run per generated scenario."""
    rng = random.Random(f"axioms-sweep/{seed}")
    docs = []
    # Integers on the full window: about half of the triples overflow.
    for window in (20, 24):
        docs.append({"id": f"ax-integers-w{window}",
                     "hypergroup": {"family": "integers", "window": window},
                     **_filler(rng)})
    docs.append({"id": "ax-su2-capped",
                 "hypergroup": {"family": "su2", "window": 40},
                 **_filler(rng), "run": {"triple_bound": 14}})
    docs.append({"id": "ax-dunkl-ramirez-capped",
                 "hypergroup": {"family": "dunkl_ramirez", "window": 32,
                                "a": round(rng.uniform(0.2, 0.5), 3)},
                 **_filler(rng), "run": {"triple_bound": 20}})
    docs.append(_cyclic_table_doc(rng, "ax-table-cyclic", 28))
    ops = []
    for doc in docs:
        path = _write(workdir, doc["id"], doc)
        ops.append({"id": doc["id"],
                    "spec": {"kind": "session", "scenario": path,
                             "commands": [["axioms", {}]]},
                    "props": properties(doc)})
    return ops


def build(workload: str, seed: int, workdir: pathlib.Path) -> list[dict]:
    """Write the workload's inputs for ``seed`` into ``workdir``; return its ops."""
    makers = {"cli-shipped": cli_shipped, "probe-horizon": probe_horizon,
              "axioms-sweep": axioms_sweep}
    return makers[workload](seed, workdir)
