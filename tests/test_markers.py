"""CI reruns the tests marked ``seeded`` under more hypothesis seeds, so a
property test without the marker would run under one seed only."""
import importlib
import pathlib


def test_every_hypothesis_test_is_seeded():
    unmarked = []
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        module = importlib.import_module(path.stem)
        for name, fn in vars(module).items():
            if name.startswith("test_") and getattr(fn, "is_hypothesis_test", False):
                marks = [m.name for m in getattr(fn, "pytestmark", [])]
                if "seeded" not in marks:
                    unmarked.append(f"{path.name}::{name}")
    assert unmarked == []

