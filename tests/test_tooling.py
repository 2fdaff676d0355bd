"""The benchmark must keep working against the package: its span targets
resolve, and its self-test passes, so that renaming a traced function or
dropping an argument the benchmark passes fails this suite and not only the
benchmark."""

import importlib
import inspect
import subprocess
import sys
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


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
