#!/usr/bin/env python3
"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

Runs every workload at the tiny scale, untraced and traced, and checks that
the result line carries exactly the metrics BENCHMARK.json lists, each with
its unit; that the report carries each workload's own end-to-end metrics by
name and unit; and that every correctness check passes. Then runs the
benchmark in a directory holding only BENCHMARK.json and the benchmark's
files, where it must fail without printing a result. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 170

# The workloads' own end-to-end metrics and their units.
_ALL = {"setup_s": "s", "peak_rss_mb": "MB"}
_INVESTIGATION = {"investigate_s": "s", "analyst_prep_p50_ms": "ms",
                  "analyst_prep_p95_ms": "ms", "llm_tokens_in": "tokens"}
_QUALITY = {"recall": "ratio", "precision": "ratio"}
REPORT_METRICS = {
    "reference": {**_ALL, "pipeline_s": "s", "model_build_s": "s",
                  **_INVESTIGATION, "alerts_untriaged": "count", **_QUALITY},
    "detect-stream": {**_ALL, "detect_events_per_s": "events/s",
                      "window_p50_ms": "ms", "window_p90_ms": "ms", **_QUALITY},
    "triage-flood": {**_ALL, **_INVESTIGATION},
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: not correct: {report.get('checks')}")
    listed = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(n for n in set(expected) & set(printed)
                       if expected[n] != printed[n])
        problems.append(f"{where}: missing {missing} extra {extra} "
                        f"wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    if not trace:
        own = {name: m["unit"] for name, m in report["end_to_end"].items()}
        for name, unit in REPORT_METRICS[workload].items():
            if own.get(name) != unit:
                problems.append(f"{where}: report lacks {name} [{unit}]")
            elif f"{workload} {name} = " not in proc.stdout:
                problems.append(f"{where}: {name} not printed")
    elif report.get("absent_metrics"):
        problems.append(f"{where}: absent {report['absent_metrics']}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "reference", 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            return ["bare directory: benchmark did not fail"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{'FAIL' if found else 'ok  '} {workload} trace={trace}")
            problems += found
    found = check_bare_directory()
    print(f"{'FAIL' if found else 'ok  '} bare directory fails")
    problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
