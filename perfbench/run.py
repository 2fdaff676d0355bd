#!/usr/bin/env python3
"""provlens benchmark: one workload per process, run from the repository root.

    python3 perfbench/run.py --workload reference|detect-stream|triage-flood \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

Inputs are generated from the seed before any timer starts. The workload is
set up SETUP_REPS times, then runs ops in a closed loop with one client until
about ``--seconds`` of op time is measured (at least one op, and at least
``min_ops`` of the workload). Every op is checked for correctness.

With ``--trace 0`` the last stdout line holds the end-to-end metrics that
every workload reports (``BENCHMARK.json`` ``end_to_end``): ``setup_s``
(median set-up time at the nominal speed of calibration.py), ``op_p50_kernels``
(median op cost in calibration kernels) and ``peak_rss_mb``. The line before
it is the full report, with the workload's own end-to-end metrics in raw
seconds, quality fields, run metadata and check results. With ``--trace 1``
ops alternate untraced and traced (spans around every call into a provlens
module, see layers.py), the last line holds the per-layer metrics per traced
op plus the tracing overhead, and the spans are written to
``.perfbench/out`` at exit.

The benchmark reads and writes only inside the checkout it runs from: inputs
are cached in ``.perfbench/cache``, reports and spans go to ``.perfbench/out``,
CLI artifacts to a ``.perfbench/work-<pid>`` directory removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("reference", "detect-stream", "triage-flood")
SETUP_REPS = 3
WALL_LIMIT_S = 150.0  # start no op after this, to exit well within 180 s
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (name, unit): the metrics every workload reports, BENCHMARK.json end_to_end
END_TO_END = [("setup_s", "s"), ("op_p50_kernels", "kernels"),
              ("peak_rss_mb", "MB")]


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, where it can be asked."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(wl, seconds: float, tracer, calibrator, started: float):
    """Closed loop: op i+1 starts when op i and its checks are done. Returns
    (records of ops that completed, failed op count, check results).

    With a tracer, odd ops are traced. Each record's ``seconds`` is on the
    workload's clock; with a calibrator, ``kernels`` is its cost in
    calibration kernels."""
    records, checks, failed = [], [], 0
    trace = tracer is not None
    min_ops = max(wl.min_ops, 2 if trace else 1)
    measured = 0.0
    for i in range(wl.max_ops):
        wl.before_op(i)
        traced = trace and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install(layers.TARGETS)
        start, work_start = time.perf_counter(), wl.clock()
        try:
            if traced:
                with tracer.span("op"):
                    record = wl.op(i, tracer)
            else:
                record = wl.op(i, None)
        except Exception:  # one failed op is counted, the loop goes on
            traceback.print_exc()
            record = None
        end, seconds_taken = time.perf_counter(), wl.clock() - work_start
        if traced:
            tracer.uninstall()
            tracer.op = None
        measured += seconds_taken
        if record is None:
            failed += 1
        else:
            record.update(index=i, seconds=seconds_taken, traced=traced,
                          span=(start, end))
            try:
                checks.extend(wl.after_op(i, record))
            except Exception:
                traceback.print_exc()
                checks.append(("checks ran", False, f"op {i}"))
            records.append(record)
        if i + 1 < min_ops:
            continue
        typical = statistics.median(r["seconds"] for r in records) \
            if records else seconds_taken
        if (measured + typical > seconds
                or time.perf_counter() - started + typical > WALL_LIMIT_S):
            break
    if calibrator:
        for record in records:
            record["kernels"] = calibrator.kernels(*record["span"],
                                                   record["seconds"])
    return records, failed, checks


def run_setups(wl, reps: int, tracer) -> list[dict]:
    """Set the workload up ``reps`` times, traced when a tracer is given.
    Returns one record per completed set-up; stops at the first failure."""
    setups = []
    if tracer is not None:
        tracer.install(layers.TARGETS)
    try:
        for rep in range(reps):
            start, work_start = time.perf_counter(), wl.clock()
            try:
                wl.setup(rep)
            except Exception:
                traceback.print_exc()
                break
            setups.append({"seconds": wl.clock() - work_start,
                           "span": (start, time.perf_counter())})
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.phase = "measure"
    return setups


def trace_report(tracer, records: list[dict]) -> dict:
    """Per-layer metrics per traced op, with the tracing overhead: the median
    traced op time minus the median untraced one."""
    traced = [r for r in records if r["traced"]]
    values = layers.layer_metrics(tracer, [r["index"] for r in traced])
    base = statistics.median(r["seconds"] for r in records if not r["traced"])
    overhead = statistics.median(r["seconds"] for r in traced) - base
    values["trace.overhead_ms"] = overhead * 1000.0
    values["trace.overhead_share"] = overhead / base
    return {"per_layer": {name: {"value": values[name], "unit": unit}
                          for name, unit in layers.METRICS},
            "absent_targets": tracer.absent,
            "absent_metrics": layers.absent_metrics(tracer.absent),
            "count_errors": tracer.count_errors,
            "setup_self_s": layers.setup_self_times(tracer)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    # Pin BLAS before numpy loads: one process, one compute thread.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "provlens" / "__init__.py").is_file():
        print(f"perfbench: provlens sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import provlens
    if Path(provlens.__file__).resolve().parent != (src / "provlens").resolve():
        print(f"perfbench: imported provlens from {provlens.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import workloads
    from calibration import NOMINAL_KERNEL_S, Calibrator

    state = ROOT / ".perfbench"
    cache, out = state / "cache", state / "out"
    for directory in (cache, out):
        directory.mkdir(parents=True, exist_ok=True)
    workdir = state / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    trace = bool(args.trace)
    tracer = Tracer() if trace else None
    try:
        scale = workloads.SCALES[args.scale][args.workload]
        calibrator = None if trace else Calibrator()
        clock = calibrator.clock if calibrator else time.perf_counter
        wl = workloads.WORKLOADS[args.workload](args.seed, scale, workdir,
                                                cache, clock)
        with calibrator or contextlib.nullcontext():
            setups = run_setups(wl, 1 if trace else SETUP_REPS, tracer)
            if len(setups) < (1 if trace else SETUP_REPS):
                print(json.dumps({"correct": False, "attempted": len(setups)
                                  + 1, "failed": 1, "metrics": {}}))
                return 1
            records, failed_ops, checks = run_ops(wl, args.seconds, tracer,
                                                  calibrator, started)
        failed_checks = [c for c in checks if not c[1]]
        for name, _, detail in failed_checks:
            print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)
        attempted = len(setups) + len(records) + failed_ops + len(checks)
        failed = failed_ops + len(failed_checks)
        if not records:
            print(json.dumps({"correct": False, "attempted": attempted,
                              "failed": failed, "metrics": {}}))
            return 1

        untraced = [r for r in records if not r["traced"]]
        own, quality, meta = wl.report(untraced)
        median = statistics.median
        e2e = {"setup_raw_s": workloads.metric(
                   median(r["seconds"] for r in setups), "s", n=len(setups)),
               "op_p50_ms": workloads.metric(
                   median(r["seconds"] for r in untraced) * 1000.0, "ms",
                   n=len(untraced))}
        if calibrator:
            for record in setups:
                record["kernels"] = calibrator.kernels(*record["span"],
                                                       record["seconds"])
            e2e["setup_s"] = workloads.metric(
                median(r["kernels"] for r in setups) * NOMINAL_KERNEL_S, "s",
                n=len(setups))
            e2e["op_p50_kernels"] = workloads.metric(
                median(r["kernels"] for r in untraced), "kernels",
                n=len(untraced))
        e2e.update(own)
        e2e["peak_rss_mb"] = workloads.metric(peak_rss_mb(), "MB")
        meta.update({
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace,
            "ops": len(records), "ops_failed": failed_ops,
            "setup_times_s": [r["seconds"] for r in setups],
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "blas_threads_env": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "provlens": provlens.__version__})
        passed = {}
        for name, ok, _ in checks:
            passed[name] = passed.get(name, 0) + ok
        report = {"meta": meta, "end_to_end": e2e, "quality": quality,
                  "checks_passed": passed,
                  "checks_failed": [{"name": n, "detail": d}
                                    for n, ok, d in checks if not ok]}
        if trace:
            report.update(trace_report(tracer, records))
            tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
            result = report["per_layer"]
        else:
            result = {name: e2e[name] for name, _ in END_TO_END}
        name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (out / name).write_text(json.dumps(report, indent=1) + "\n",
                                encoding="utf-8")

        for key, entry in e2e.items():
            extra = "".join(f" {k}={v}" for k, v in entry.items()
                            if k not in ("value", "unit"))
            print(f"{args.workload} {key} = {entry['value']:.6g} "
                  f"{entry['unit']}{extra}")
        print(json.dumps(report))
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed,
                          "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                      for k, v in result.items()}}))
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
