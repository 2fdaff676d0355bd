"""The benchmark's span targets must resolve in the package, so that renaming
a traced function fails this suite and not only the benchmark's self-test."""

import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_span_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    missing = []
    for _, module_name, attr_path, _ in layers.TARGETS:
        owner = importlib.import_module(module_name)
        try:
            for part in attr_path.split("."):
                owner = inspect.getattr_static(owner, part)
        except AttributeError:
            missing.append(f"{module_name}.{attr_path}")
    assert missing == []
