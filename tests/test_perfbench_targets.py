"""The traced benchmark run wraps package functions by name; each must exist."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = []
    for module, function, _ in tracing.TARGETS:
        mod = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        if not callable(getattr(mod, function, None)):
            missing.append(f"{module}.{function}")
    assert not missing
