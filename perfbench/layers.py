"""Span targets in provlens and the per-layer metrics derived from them.

Layers are the program's modules: ingest, features, encoder, profiler,
detector, investigation and cli. Each span name starts with its layer, so a
layer's self time is the summed self time of its spans. Spans named ``cli.*``
and ``investigation.llm`` are recorded by the benchmark itself around its
``cli.main`` calls and its LLM backend.
"""

from __future__ import annotations

from collections import Counter

from tracing import self_times

LAYERS = ("ingest", "features", "encoder", "profiler", "detector",
          "investigation", "cli")
VIOLATIONS = ("deviation", "mismatch", "both", "unknown_identity")
ROLES = ("analyst", "investigator", "leader", "reporter")
JOURNAL_COUNTS = {"schema_retries": "llm_schema_retry",
                  "fallbacks": "llm_fallback",
                  "transport_retries": "llm_transport_retry"}


def _parse(args, result):
    return {"events": len(result.events), "skipped": result.skipped}


def _build(args, result):
    return {"edges": len(result.edges)}


def _skipgram(args, result):
    return {"centres": sum(len(s) for s in args["summaries"]) * args["epochs"]}


def _matrix(args, result):
    return {"rows": len(result[0])}


def _sample(args, result):
    return {"skipped": 0 if result.anchors else 1}


def _build_kb(args, result):
    return {"members": result.size()}


def _detect(args, result):
    counts = Counter(alert.violation for alert in result)
    return {"nodes": len(args["graph"].nodes), **counts}


def _investigation(args, result):
    actions = Counter(entry["action"] for entry in result.journal_entries)
    counts = {key: actions[action] for key, action in JOURNAL_COUNTS.items()}
    counts["tokens_out"] = result.tokens_out
    counts["budget_exhausted"] = int(result.budget_exhausted)
    return counts


_EMBEDDERS = ("provlens.features", "provlens.detector", "provlens.profiler",
              "provlens.investigation.graphstore")
_AGENTS = "provlens.investigation.orchestrator"

# (span name, module the caller resolves the name in, attribute, count hook)
TARGETS = [
    ("ingest.parse", "provlens.ingest", "parse_events", _parse),
    ("ingest.build", "provlens.ingest", "build_graph", _build),
    ("ingest.save", "provlens.ingest", "save_graph", None),
    ("ingest.load", "provlens.ingest", "load_graph", None),
    ("features.skipgram", "provlens.features", "train_semantic_vocab",
     _skipgram),
    *[("features.matrix", module, "feature_matrix", _matrix)
      for module in _EMBEDDERS],
    ("encoder.train", "provlens.encoder", "train", None),
    ("encoder.sample", "provlens.encoder", "sample_contrastive_batch", _sample),
    ("encoder.forward_pass", "provlens.encoder", "forward_pass", None),
    ("encoder.loss", "provlens.encoder", "batch_loss_grad", None),
    ("encoder.backward", "provlens.encoder", "backward_pass", None),
    *[("encoder.infer", module, "forward", None)
      for module in ("provlens.encoder",) + _EMBEDDERS[1:]],
    ("profiler.build_kb", "provlens.profiler", "build_knowledge_base",
     _build_kb),
    ("profiler.knn", "provlens.investigation.agents", "knn_query", None),
    ("profiler.attr", "provlens.investigation.agents", "attribute_query", None),
    ("profiler.save_kb", "provlens.profiler", "save_kb", None),
    ("profiler.load_kb", "provlens.profiler", "load_kb", None),
    ("detector.detect", "provlens.detector", "detect_graph", _detect),
    ("investigation.store_build", "provlens.investigation.graphstore",
     "GraphStore.build", None),
    ("investigation.run", "provlens.investigation", "run_investigation",
     _investigation),
    ("investigation.analyst", _AGENTS, "analyst_validate", None),
    ("investigation.investigator", _AGENTS, "investigator_expand", None),
    ("investigation.leader", _AGENTS, "leader_synthesize", None),
    ("investigation.reporter", _AGENTS, "reporter_compose", None),
]


# (metric name, unit) in report order: the names BENCHMARK.json lists
METRICS = [
    ("ingest.parse_s", "s"), ("ingest.events", "count"),
    ("ingest.skipped", "count"), ("ingest.build_s", "s"),
    ("ingest.edges_per_event", "ratio"), ("ingest.save_s", "s"),
    ("ingest.load_s", "s"),
    ("features.skipgram_s", "s"), ("features.skipgram_centres", "count"),
    ("features.matrix_s", "s"), ("features.rows", "count"),
    ("encoder.train_s", "s"), ("encoder.steps", "count"),
    ("encoder.skipped_steps", "count"), ("encoder.sample_s", "s"),
    ("encoder.forward_s", "s"), ("encoder.loss_s", "s"),
    ("encoder.backward_s", "s"), ("encoder.infer_s", "s"),
    ("profiler.build_kb_s", "s"), ("profiler.members", "count"),
    ("profiler.knn_s", "s"), ("profiler.knn_calls", "count"),
    ("profiler.attr_s", "s"), ("profiler.attr_calls", "count"),
    ("profiler.save_kb_s", "s"), ("profiler.load_kb_s", "s"),
    ("detector.detect_s", "s"), ("detector.nodes", "count"),
    *[(f"detector.alerts.{v}", "count") for v in VIOLATIONS],
    ("investigation.store_build_s", "s"),
    *[(f"investigation.calls.{r}", "count") for r in ROLES],
    *[(f"investigation.prep_s.{r}", "s") for r in ROLES],
    ("investigation.llm_s", "s"),
    *[(f"investigation.{key}", "count") for key in JOURNAL_COUNTS],
    ("investigation.tokens_out", "count"),
    ("investigation.budget_exhausted", "count"),
    ("cli.ingest_s", "s"), ("cli.detect_s", "s"),
    ("cli.exit_nonzero", "count"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
    ("op.self_s", "s"),
    ("trace.overhead_ms", "ms"), ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"), ("trace.absent", "count"),
]

# metric -> span name whose summed duration it is
_DURATIONS = {
    "ingest.parse_s": "ingest.parse", "ingest.build_s": "ingest.build",
    "ingest.save_s": "ingest.save", "ingest.load_s": "ingest.load",
    "features.skipgram_s": "features.skipgram",
    "features.matrix_s": "features.matrix",
    "encoder.train_s": "encoder.train", "encoder.sample_s": "encoder.sample",
    "encoder.loss_s": "encoder.loss", "encoder.backward_s": "encoder.backward",
    "encoder.infer_s": "encoder.infer",
    "profiler.build_kb_s": "profiler.build_kb", "profiler.knn_s": "profiler.knn",
    "profiler.attr_s": "profiler.attr", "profiler.save_kb_s": "profiler.save_kb",
    "profiler.load_kb_s": "profiler.load_kb",
    "detector.detect_s": "detector.detect",
    "investigation.store_build_s": "investigation.store_build",
    "investigation.llm_s": "investigation.llm",
    "cli.ingest_s": "cli.ingest", "cli.detect_s": "cli.detect",
}
# metric -> (span name, count key) summed over spans
_COUNTS = {
    "ingest.events": ("ingest.parse", "events"),
    "ingest.skipped": ("ingest.parse", "skipped"),
    "features.skipgram_centres": ("features.skipgram", "centres"),
    "features.rows": ("features.matrix", "rows"),
    "encoder.skipped_steps": ("encoder.sample", "skipped"),
    "profiler.members": ("profiler.build_kb", "members"),
    "detector.nodes": ("detector.detect", "nodes"),
    **{f"detector.alerts.{v}": ("detector.detect", v) for v in VIOLATIONS},
    **{f"investigation.{key}": ("investigation.run", key)
       for key in (*JOURNAL_COUNTS, "tokens_out", "budget_exhausted")},
}
# metric -> span name whose number of calls it is
_CALLS = {"encoder.steps": "encoder.backward",
          "profiler.knn_calls": "profiler.knn",
          "profiler.attr_calls": "profiler.attr"}
# metric -> the targets it needs; absent when none of them could be wrapped
_NEEDS = dict(_DURATIONS)
_NEEDS.update({metric: span for metric, (span, _) in _COUNTS.items()})
_NEEDS.update(_CALLS)
_NEEDS["ingest.edges_per_event"] = "ingest.build"
_NEEDS["encoder.forward_s"] = "encoder.forward_pass"


def absent_metrics(absent_targets: list[str]) -> list[str]:
    """Metrics none of whose span targets could be installed."""
    present = {name for name, module, attr, _ in TARGETS
               if f"{module}.{attr}" not in absent_targets}
    wrapped = {name for name, *_ in TARGETS}
    return sorted(metric for metric, span in _NEEDS.items()
                  if span in wrapped and span not in present)


def _self_by_layer(spans: list[dict]) -> Counter:
    times = self_times(spans)
    totals = Counter()
    for span in spans:
        totals[span["name"].split(".", 1)[0]] += times[span["id"]]
    return totals


def layer_metrics(tracer, traced_ops: list[int]) -> dict[str, float]:
    """Per-layer numbers per traced op: sums over the spans of the traced ops
    divided by their number. Each traced op has one root span named "op"."""
    wanted = set(traced_ops)
    spans = [s for s in tracer.spans
             if s["phase"] == "measure" and s["op"] in wanted]
    n_ops = max(1, len(wanted))
    by_id = {s["id"]: s for s in spans}

    def seconds(span_name, where=lambda span: True):
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == span_name and where(s)) / n_ops

    def count(span_name, key):
        return sum(s.get("n", {}).get(key, 0) for s in spans
                   if s["name"] == span_name) / n_ops

    def under_train(span):
        parent = span["parent"]
        while parent in by_id:
            if by_id[parent]["name"] == "encoder.train":
                return True
            parent = by_id[parent]["parent"]
        return False

    values = {metric: seconds(span) for metric, span in _DURATIONS.items()}
    values.update({metric: count(span, key)
                   for metric, (span, key) in _COUNTS.items()})
    values.update({metric: sum(1 for s in spans if s["name"] == span) / n_ops
                   for metric, span in _CALLS.items()})
    values["cli.exit_nonzero"] = (count("cli.ingest", "nonzero")
                                  + count("cli.detect", "nonzero"))
    events = values["ingest.events"]
    values["ingest.edges_per_event"] = (count("ingest.build", "edges") / events
                                        if events else 0.0)
    values["encoder.forward_s"] = seconds("encoder.forward_pass", under_train)
    for role in ROLES:
        mine = [s for s in spans
                if s["name"] == "investigation.llm" and s["role"] == role]
        values[f"investigation.calls.{role}"] = len(mine) / n_ops
        values[f"investigation.prep_s.{role}"] = sum(
            s["prep_s"] for s in mine) / n_ops
    layer_self = _self_by_layer(spans)
    for layer in (*LAYERS, "op"):
        values[f"{layer}.self_s"] = layer_self[layer] / n_ops
    values["trace.spans"] = sum(1 for s in spans if s["name"] != "op") / n_ops
    values["trace.absent"] = float(len(tracer.absent))
    return values


def setup_self_times(tracer) -> dict[str, float]:
    """Layer self times over the set-up phase, for the traced run's report."""
    totals = _self_by_layer([s for s in tracer.spans if s["phase"] == "setup"])
    return {layer: totals[layer] for layer in LAYERS if layer in totals}
