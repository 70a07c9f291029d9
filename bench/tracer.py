"""Outside-in tracer for the hyperorlicz package.

It wraps public functions and methods from outside the package.  Modules use
``from .x import y``, so a wrapped function is re-bound under its name in
every loaded ``hyperorlicz`` module that holds the original object; methods
are replaced on their class.

Per metric name it keeps calls, inclusive time and self time (inclusive time
minus the time of wrapped calls made inside it).  Spans (id, name, start, end,
parent span, operation id) are kept in memory and written out by ``dump``.
Very hot names are timed without a span record, or only counted: the time of
a count-only call stays in its caller's self time.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

from hyperorlicz.errors import WindowOverflow

perf = time.perf_counter


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []         # [name, start, child_s, span, parent]
        self._next_span = 0

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def parent_name(self) -> str | None:
        """Name of the wrapped call enclosing the innermost one."""
        return self._stack[-2][0] if len(self._stack) >= 2 else None

    def wrap(self, name, fn, *, mode="span", on_return=None, on_raise=None):
        """Wrap ``fn``; ``mode`` is "span" (timed, recorded), "timed" (timed,
        no span record) or "count" (call count only)."""
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        if mode == "count":
            def counted(*args, **kwargs):
                st[0] += 1
                return fn(*args, **kwargs)
            return counted

        stack, spans, record = self._stack, self.spans, mode == "span"

        def timed(*args, **kwargs):
            if stack:
                top = stack[-1]
                parent = top[3] if top[3] is not None else top[4]
            else:
                parent = None
            span = None
            if record:
                span = self._next_span
                self._next_span += 1
            frame = [name, perf(), 0.0, span, parent]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(self, exc)
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[1]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if record:
                    spans.append((span, name, frame[1], end, parent, self.op_id))
            if on_return is not None:
                on_return(self, args, result)
            return result
        return timed

    def install(self, targets) -> None:
        """Wrap every (module, attribute, metric, options) target."""
        for module_name, attr, metric, opts in targets:
            module = importlib.import_module(module_name)
            owner, _, member = attr.partition(".")
            if member:
                cls = getattr(module, owner)
                setattr(cls, member, self.wrap(metric, cls.__dict__[member], **opts))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(metric, original, **opts)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("hyperorlicz")
                        and getattr(mod, attr, None) is original):
                    setattr(mod, attr, wrapped)

    def dump(self, path: str) -> None:
        keys = ("span", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- hooks computing sizes and outcomes at the layer boundaries ---------------


def _built(tr, args, model):
    tr.add("hypergroups.table_pairs", len(model.carrier) ** 2)


def _axioms(tr, args, result):
    model, bound = args[0], args[1]
    points = sum(1 for x in model.carrier if abs(x) <= bound)
    tr.add("hypergroups.assoc.triples_attempted", points ** 3)


def _overflow(tr, exc):
    if isinstance(exc, WindowOverflow):
        tr.add("hypergroups.window_overflow.raised", 1)
        # verify_axioms skips a triple on the first overflow it meets, so
        # one overflow under it is one unchecked triple.
        if tr.parent_name() == "hypergroups.verify_axioms":
            tr.add("hypergroups.assoc.triples_skipped", 1)


def _translated(tr, args, result):
    model, f = args[0], args[1]
    if not f.is_zero():
        tr.add("functions.translate.carrier_points", len(model.carrier))
        tr.add("functions.translate.atoms_out", len(result.values))


def _norm(name):
    def hook(tr, args, result):
        tr.add(f"{name}.iterations", result.iterations)
    return hook


def _rows(tr, args, report):
    tr.add("dynamics.rows", len(report.rows))
    tr.add("dynamics.rows_flagged", sum(1 for r in report.rows if r.flags))


def _rendered(tr, args, text):
    tr.add("report.body_bytes", len(text) - text.index("\n") - 1)


HG = "hyperorlicz.hypergroups"
BUILD = dict(on_return=_built)
OVERFLOW = dict(mode="timed", on_raise=_overflow)

# What every run wraps: the three calls that split a command into set-up,
# command and rendering.
E2E_TARGETS = (
    ("hyperorlicz.scenario", "load_scenario", "scenario.load_scenario", {}),
    ("hyperorlicz.cli", "run_command", "cli.run_command", {}),
    ("hyperorlicz.report", "render_records", "report.render_records",
     dict(on_return=_rendered)),
)

# What the traced run wraps in addition: the public entry points of each layer.
LAYER_TARGETS = E2E_TARGETS + (
    (HG, "integer_group", "hypergroups.build", BUILD),
    (HG, "su2", "hypergroups.build", BUILD),
    (HG, "dunkl_ramirez", "hypergroups.build", BUILD),
    (HG, "table_hypergroup", "hypergroups.build", BUILD),
    (HG, "HypergroupModel.verify_axioms", "hypergroups.verify_axioms",
     dict(on_return=_axioms)),
    (HG, "HypergroupModel.convolve_points", "hypergroups.convolve_points", OVERFLOW),
    (HG, "HypergroupModel.convolve_measures", "hypergroups.convolve_measures",
     OVERFLOW),
    (HG, "HypergroupModel.raw_convolve_points", "hypergroups.raw_convolve_points",
     dict(mode="count")),
    (HG, "HypergroupModel.set_convolve", "hypergroups.set_convolve",
     dict(on_raise=_overflow)),
    ("hyperorlicz.functions", "translate", "functions.translate",
     dict(on_return=_translated)),
    ("hyperorlicz.operators", "weight_product", "operators.weight_product",
     dict(mode="timed")),
    ("hyperorlicz.operators", "translated_weight", "operators.translated_weight",
     dict(mode="timed")),
    ("hyperorlicz.operators", "apply_weighted_translation",
     "operators.apply_weighted_translation", {}),
    ("hyperorlicz.operators", "apply_right_inverse",
     "operators.apply_right_inverse", {}),
    ("hyperorlicz.operators", "hereditary_weight_pair",
     "operators.hereditary_weight_pair", {}),
    ("hyperorlicz.orlicz", "luxemburg_norm", "orlicz.luxemburg_norm",
     dict(on_return=_norm("orlicz.luxemburg_norm"))),
    ("hyperorlicz.orlicz", "orlicz_norm", "orlicz.orlicz_norm",
     dict(on_return=_norm("orlicz.orlicz_norm"))),
    ("hyperorlicz.orlicz", "l1_embedding_check", "orlicz.l1_embedding_check", {}),
) + tuple(
    ("hyperorlicz.dynamics", entry, f"dynamics.{entry}",
     dict(on_return=_rows) if entry.startswith(("probe_", "build_")) else {})
    for entry in ("probe_sup_necessary", "probe_series_necessary",
                  "probe_center_conditions", "probe_hereditary",
                  "build_transitivity_witness", "orbit_density_probe",
                  "aperiodic_sequence_check", "strongly_aperiodic_check",
                  "aperiodic_center_check"))
