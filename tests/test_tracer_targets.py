"""Every name the benchmark tracer wraps exists in the package, so a renamed
or deleted entry point fails here instead of in a traced benchmark run."""
import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _tracer()
    missing = []
    for module_name, attr, _, _ in tracer.E2E_TARGETS + tracer.LAYER_TARGETS:
        module = importlib.import_module(module_name)
        owner, _, member = attr.partition(".")
        if member:
            found = member in getattr(getattr(module, owner, None), "__dict__", {})
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert not missing
