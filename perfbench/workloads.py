"""The three workloads: one per user-facing job of provlens.

All are closed loops with one client. Each builds its inputs from the seed
before any timer starts, then the runner calls ``setup`` a few times, then
``op`` repeatedly; ``before_op`` and ``after_op`` run outside the op timer
and hold input fetching and correctness checks.

The benchmark reaches provlens only through public module functions and
``provlens.cli.main``, and always through the module attribute (``ingest.
parse_events``, not an imported name), so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
from collections import Counter
from pathlib import Path

import numpy as np

import provlens.investigation as investigation
from provlens import cli, detector, encoder, features, ingest, profiler, synth
from provlens.config import PipelineConfig
from provlens.investigation.llm import heuristic_mock

SCALES = {
    "full": {
        "reference": {"identities": 5, "nodes": 200, "anomalies": 10,
                      "epochs": 50, "warmup": (3, 25, 2), "warmup_epochs": 5},
        "detect-stream": {"benign": (5, 60), "epochs": 20,
                          "window": (5, 20, 2), "min_windows": 100,
                          "pool": 256},
        "triage-flood": {"train": (5, 60), "epochs": 20, "kb": (5, 400),
                         "attack": (5, 40, 20), "decoys": 190},
    },
    # Smallest sizes that still exercise every call; used by selftest.py.
    "tiny": {
        "reference": {"identities": 2, "nodes": 12, "anomalies": 2,
                      "epochs": 3, "warmup": (2, 4, 1), "warmup_epochs": 1},
        "detect-stream": {"benign": (2, 8), "epochs": 2, "window": (2, 5, 1),
                          "min_windows": 3, "pool": 6},
        "triage-flood": {"train": (2, 8), "epochs": 2, "kb": (2, 16),
                         "attack": (2, 6, 2), "decoys": 4},
    },
}


def derive_seed(seed: int, stream: int) -> int:
    """Independent synth seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def event_lines(events: list[dict]) -> list[str]:
    # Same serialization as synth.write_scenario.
    return [json.dumps(event, sort_keys=True) for event in events]


def graph_from_lines(lines, cfg: PipelineConfig, name: str):
    parsed = ingest.parse_events(lines, cfg.features.op_vocab)
    return ingest.build_graph(parsed.events, cfg.features.window_ns, name=name)


def train_model(graph, cfg: PipelineConfig):
    """Skip-gram vocabulary plus encoder, the same calls as ``provlens train``."""
    summaries = [features.build_node_summary(graph.nodes[u], graph)
                 for u in sorted(graph.nodes)]
    vocab = features.train_semantic_vocab(
        summaries, cfg.features.semantic_dim, window=cfg.features.w2v_window,
        negatives=cfg.features.w2v_negatives, epochs=cfg.features.w2v_epochs,
        seed=cfg.seed)
    uuids, h0 = features.feature_matrix(graph, vocab, cfg.features.op_vocab)
    result = encoder.train(graph, dict(zip(uuids, h0)), cfg.encoder, cfg.seed)
    return vocab, result.params


def percentile(samples: list[float], q: float) -> dict:
    """Nearest-rank percentile with its sample count and how many samples lie
    beyond it; a tail percentile is trusted with at least 10 beyond."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return {"value": ordered[rank - 1], "n": len(ordered),
            "beyond": len(ordered) - rank}


def metric(value: float, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def timing_ms(samples: list[float], q: float) -> dict:
    stats = percentile([s * 1000.0 for s in samples], q)
    return metric(stats.pop("value"), "ms", **stats)


class TimedBackend:
    """The deterministic ``heuristic_mock`` LLM with a timestamp on every
    request. Prep is the program time from the previous reply (or from the
    backend's creation, just before the investigation starts) to the request:
    retrieval plus payload construction."""

    def __init__(self, clock, tracer=None):
        self.inner = heuristic_mock()
        self.clock = clock
        self.tracer = tracer
        self.calls: list[tuple[str, float]] = []
        self._last = clock()

    def invoke(self, role: str, system_prompt: str, payload: dict) -> str:
        prep = self.clock() - self._last
        if self.tracer is None:
            raw = self.inner.invoke(role, system_prompt, payload)
        else:
            with self.tracer.span("investigation.llm", role=role, prep_s=prep):
                raw = self.inner.invoke(role, system_prompt, payload)
        self.calls.append((role, prep))
        self._last = self.clock()
        return raw

    def prep(self, role: str) -> list[float]:
        return [prep for r, prep in self.calls if r == role]


def journal_count(repo, action: str) -> int:
    return sum(1 for entry in repo.journal_entries if entry["action"] == action)


def investigation_quality(repo, backend: TimedBackend) -> dict:
    return {"status": repo.status, "llm_calls": repo.llm_calls_used,
            "calls_by_role": dict(Counter(role for role, _ in backend.calls)),
            "budget_exhausted": repo.budget_exhausted,
            "tokens_in": repo.tokens_in, "tokens_out": repo.tokens_out,
            "validated": len(repo.validated_iocs()),
            "fallbacks": journal_count(repo, "llm_fallback")}


class Workload:
    min_ops = 1
    max_ops = 1_000_000

    def __init__(self, seed: int, scale: dict, workdir: Path, cache: Path,
                 clock):
        self.seed = seed
        self.p = scale
        self.workdir = workdir
        self.cache = cache
        self.clock = clock  # every timing; leaves calibration samples out

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def before_op(self, i: int) -> None:
        pass

    def op(self, i: int, tracer) -> dict:
        raise NotImplementedError

    def after_op(self, i: int, record: dict) -> list[tuple[str, bool, str]]:
        return []

    def report(self, records: list[dict]) -> tuple[dict, dict, dict]:
        """(end-to-end metrics, quality fields, metadata) over ``records``."""
        raise NotImplementedError


# --- reference ---------------------------------------------------------------

class Reference(Workload):
    """The ROADMAP scenario, in-process from JSONL lines to the report."""

    def __init__(self, *args):
        super().__init__(*args)
        p = self.p
        spec = synth.default_scenario(p["identities"], p["nodes"],
                                      p["anomalies"], seed=self.seed)
        benign, attack, labels = synth.generate_scenario(spec)
        self.inputs = (event_lines(benign), event_lines(attack))
        self.anomalous = set(labels["anomalous"])
        warm = synth.default_scenario(*p["warmup"],
                                      seed=derive_seed(self.seed, 1))
        benign, attack, _ = synth.generate_scenario(warm)
        self.warmup_inputs = (event_lines(benign), event_lines(attack))
        self.events = len(self.inputs[0]) + len(self.inputs[1])

    def config(self, epochs: int) -> PipelineConfig:
        cfg = PipelineConfig()
        cfg.encoder.epochs = epochs
        return cfg

    def pipeline(self, inputs, cfg: PipelineConfig, tracer) -> dict:
        benign_lines, attack_lines = inputs
        start = self.clock()
        train_graph = graph_from_lines(benign_lines, cfg, "benign")
        vocab, params = train_model(train_graph, cfg)
        kb = profiler.build_knowledge_base([train_graph], params, vocab,
                                           cfg.epsilon, cfg.features.op_vocab)
        built = self.clock()
        attack_graph = graph_from_lines(attack_lines, cfg, "attack")
        alerts = detector.detect_graph(attack_graph, params, vocab, kb,
                                       cfg.features.op_vocab)
        store = investigation.GraphStore.build([attack_graph], params, vocab,
                                               cfg.features.op_vocab)
        backend = TimedBackend(self.clock, tracer)
        investigate_start = self.clock()
        repo = investigation.run_investigation(
            alerts, store, kb, backend,
            investigation.InvestigationBudget.from_config(cfg.budget),
            knn_k=cfg.llm.knn_k)
        end = self.clock()
        return {"pipeline_s": end - start, "model_build_s": built - start,
                "investigate_s": end - investigate_start, "cfg": cfg,
                "train_graph": train_graph, "vocab": vocab, "params": params,
                "kb": kb, "alerts": alerts, "repo": repo, "backend": backend}

    def setup(self, rep: int) -> None:
        # A small pipeline through the same calls, so lazy imports and first
        # use costs are paid before the measured pipeline.
        self.pipeline(self.warmup_inputs, self.config(self.p["warmup_epochs"]),
                      None)

    def op(self, i: int, tracer) -> dict:
        return self.pipeline(self.inputs, self.config(self.p["epochs"]), tracer)

    def after_op(self, i: int, record: dict) -> list[tuple[str, bool, str]]:
        cfg, kb = record["cfg"], record["kb"]
        flagged = {a.node_uuid for a in record["alerts"]}
        hits = len(self.anomalous & flagged)
        record["recall"] = hits / len(self.anomalous)
        record["precision"] = hits / len(flagged) if flagged else 1.0
        # Acceptance oracle: on its own training data the detector may push
        # at most floor(epsilon * members) nodes of an identity outside.
        train_alerts = detector.detect_graph(
            record["train_graph"], record["params"], record["vocab"], kb,
            cfg.features.op_vocab)
        outside = Counter(a.claimed for a in train_alerts
                          if a.violation in ("deviation", "both"))
        over = {label: n for label, n in outside.items()
                if n > math.floor(cfg.epsilon * kb.profiles[label].count)}
        repo = record["repo"]
        triaged = {e["node_uuid"] for e in repo.journal_entries
                   if e["action"] == "analyst_verdict" and e["origin"] == "alert"}
        record["untriaged"] = len(flagged - triaged)
        record["kb_members"] = kb.size()
        # Drop the large objects; the report needs only the numbers.
        for key in ("train_graph", "vocab", "params", "kb", "cfg"):
            record.pop(key)
        return [("recall>=0.8", record["recall"] >= 0.8,
                 f"recall={record['recall']:.3f}"),
                ("training deviation within epsilon", not over, str(over)),
                ("investigation complete", repo.status == "complete",
                 repo.status)]

    def report(self, records):
        last = records[-1]
        prep = [s for r in records for s in r["backend"].prep("analyst")]
        repo = last["repo"]
        e2e = {
            "pipeline_s": metric(statistics.median(
                r["pipeline_s"] for r in records), "s", n=len(records)),
            "model_build_s": metric(statistics.median(
                r["model_build_s"] for r in records), "s", n=len(records)),
            "investigate_s": metric(statistics.median(
                r["investigate_s"] for r in records), "s", n=len(records)),
            "analyst_prep_p50_ms": timing_ms(prep, 0.50),
            "analyst_prep_p95_ms": timing_ms(prep, 0.95),
            "llm_tokens_in": metric(repo.tokens_in, "tokens"),
            "alerts_untriaged": metric(last["untriaged"], "count"),
            "recall": metric(last["recall"], "ratio"),
            "precision": metric(last["precision"], "ratio"),
        }
        quality = {
            "alerts": len(last["alerts"]),
            "alerts_by_violation": dict(Counter(
                a.violation for a in last["alerts"])),
            **investigation_quality(repo, last["backend"]),
        }
        p = self.p
        meta = {"identities": p["identities"], "nodes_per_identity": p["nodes"],
                "anomalies": p["anomalies"], "epochs": p["epochs"],
                "events": self.events, "kb_members": last["kb_members"],
                "budget_max_llm_calls": PipelineConfig().budget.max_llm_calls,
                "warmup_scenario": list(p["warmup"]),
                "warmup_epochs": p["warmup_epochs"]}
        return e2e, quality, meta


# --- detect-stream -----------------------------------------------------------

@contextlib.contextmanager
def captured_saves(into: dict):
    """Record the in-memory model objects the CLI hands to its save calls."""
    saves = [(features, "save_vocab", "vocab"),
             (encoder, "save_params", "params"),
             (profiler, "save_kb", "kb")]
    originals = [getattr(module, name) for module, name, _ in saves]

    def recorder(original, key):
        def save(obj, directory):
            into[key] = obj
            return original(obj, directory)
        return save

    for (module, name, key), original in zip(saves, originals):
        setattr(module, name, recorder(original, key))
    try:
        yield into
    finally:
        for (module, name, _), original in zip(saves, originals):
            setattr(module, name, original)


class DetectStream(Workload):
    """The operator path: ``provlens ingest`` then ``provlens detect`` per
    attack window, through ``cli.main`` in-process, on a model set up with
    ``ingest``/``train``/``profile``.

    Windows come from a pool of synth seeds shared by all workload seeds; the
    workload seed picks the order. Generated windows are cached on disk, so
    input generation (slower per event than the program) is paid about once
    per pool entry instead of once per run.
    """

    def __init__(self, *args):
        super().__init__(*args)
        p = self.p
        self.min_ops = p["min_windows"]
        self.max_ops = p["pool"]
        spec = synth.default_scenario(*p["benign"], 0,
                                      seed=derive_seed(self.seed, 0))
        benign, _, _ = synth.generate_scenario(spec)
        self.benign_path = self.workdir / "benign.jsonl"
        self.benign_path.write_text("\n".join(event_lines(benign)) + "\n",
                                    encoding="utf-8")
        rng = np.random.default_rng(self.seed)
        self.order = [int(k) for k in rng.permutation(p["pool"])]
        self.cfg = PipelineConfig()
        self.hits = self.anomalies = self.flagged = 0
        self.artifacts = None
        self.model: dict = {}
        self.current = None

    def cli(self, argv: list[str], tracer) -> int:
        argv = argv + ["--artifacts", str(self.artifacts)]
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                return cli.main(argv)
            with tracer.span(f"cli.{argv[0]}") as record:
                code = cli.main(argv)
                record["n"] = {"nonzero": int(code != 0)}
                return code

    def setup(self, rep: int) -> None:
        self.artifacts = self.workdir / f"setup{rep}"
        model: dict = {}
        with captured_saves(model):
            for argv in (["ingest", "--input", str(self.benign_path),
                          "--name", "benign"],
                         ["train", "--graphs", "benign",
                          "--epochs", str(self.p["epochs"])],
                         ["profile", "--graphs", "benign"]):
                code = self.cli(argv, None)
                if code != 0:
                    raise RuntimeError(f"provlens {argv[0]} exited {code}")
        self.model = model

    def window(self, i: int) -> tuple[Path, dict]:
        identities, nodes, anomalies = self.p["window"]
        window_seed = 1_000_000 + self.order[i]
        path = self.cache / (f"window-{identities}x{nodes}-{anomalies}a-"
                             f"{window_seed}.jsonl")
        labels_path = path.with_suffix(".labels.json")
        if not labels_path.exists():
            spec = synth.default_scenario(identities, nodes, anomalies,
                                          seed=window_seed)
            _, attack, labels = synth.generate_scenario(spec)
            for target, text in (
                    (path, "\n".join(event_lines(attack)) + "\n"),
                    (labels_path, json.dumps({"anomalous": labels["anomalous"],
                                              "events": len(attack)}))):
                tmp = target.with_name(target.name + f".{os.getpid()}.tmp")
                tmp.write_text(text, encoding="utf-8")
                os.replace(tmp, target)
        return path, json.loads(labels_path.read_text(encoding="utf-8"))

    def before_op(self, i: int) -> None:
        self.current = self.window(i)

    def op(self, i: int, tracer) -> dict:
        path, labels = self.current
        name = f"w{i:04d}"
        codes = [self.cli(["ingest", "--input", str(path), "--name", name],
                          tracer),
                 self.cli(["detect", "--graph", name], tracer)]
        return {"name": name, "codes": codes, "events": labels["events"],
                "anomalous": labels["anomalous"], "path": path}

    def after_op(self, i: int, record: dict) -> list[tuple[str, bool, str]]:
        name = record["name"]
        checks = [("cli exit 0", record["codes"] == [0, 0],
                   f"{name} exit codes {record['codes']}")]
        if record["codes"] != [0, 0]:
            return checks
        # The CLI's alert file: <artifacts>/alerts/<graph>.alerts.jsonl
        alerts_path = self.artifacts / "alerts" / f"{name}.alerts.jsonl"
        alerts = detector.load_alerts(alerts_path)
        anomalous = set(record["anomalous"])
        flagged = {a.node_uuid for a in alerts}
        self.hits += len(anomalous & flagged)
        self.anomalies += len(anomalous)
        self.flagged += len(flagged)
        record["violations"] = Counter(a.violation for a in alerts)
        if i == 0:
            # Serialization drift: the CLI's alerts must equal detection on
            # the in-memory graph with the model the CLI built in memory.
            lines = record["path"].read_text(encoding="utf-8").splitlines()
            graph = graph_from_lines(lines, self.cfg, name)
            expected = detector.detect_graph(
                graph, self.model["params"], self.model["vocab"],
                self.model["kb"], self.cfg.features.op_vocab)
            same = [a.to_json() for a in alerts] == [a.to_json() for a in expected]
            checks.append(("cli alerts equal in-memory detect_graph", same,
                           f"{len(alerts)} cli vs {len(expected)} in-memory"))
        for path in ingest.graph_paths(self.artifacts / "graphs", name).values():
            path.unlink(missing_ok=True)
        alerts_path.unlink()
        return checks

    def report(self, records):
        latencies = [r["seconds"] for r in records]
        events = sum(r["events"] for r in records)
        e2e = {
            "detect_events_per_s": metric(events / sum(latencies), "events/s",
                                          n=len(records)),
            "window_p50_ms": timing_ms(latencies, 0.50),
            "window_p90_ms": timing_ms(latencies, 0.90),
            "recall": metric(self.hits / self.anomalies
                             if self.anomalies else 1.0, "ratio"),
            "precision": metric(self.hits / self.flagged
                                if self.flagged else 1.0, "ratio"),
        }
        violations = Counter()
        for r in records:
            violations.update(r.get("violations", {}))
        quality = {"alerts": self.flagged, "injected": self.anomalies,
                   "alerts_by_violation": dict(violations)}
        kb = self.model.get("kb")
        meta = {"benign_scenario": list(self.p["benign"]),
                "epochs": self.p["epochs"],
                "window_scenario": list(self.p["window"]),
                "windows": len(records), "events": events,
                "window_pool": self.p["pool"],
                "kb_members": kb.size() if kb is not None else None}
        return e2e, quality, meta


# --- triage-flood ------------------------------------------------------------

def fixed_alerts(attack_events: list[dict], spec: dict, labels: dict,
                 decoys: int, seed: int) -> tuple[list, list[str], list[str]]:
    """Alerts for every injected anomaly (``declared X behaves like Y``) and
    for about ``decoys`` benign nodes (``declared X behaves like X``),
    shuffled.

    The list is fixed by the seed, so the investigation work does not depend
    on detector precision. Returns (alerts, anomaly uuids, decoy uuids).
    """
    identities: dict[str, str] = {}
    for event in attack_events:
        identities.setdefault(event["subject_uuid"], ingest.derive_identity(
            "subject", event["subject_attrs"]))
        identities.setdefault(event["object_uuid"], ingest.derive_identity(
            event["object_kind"], event["object_attrs"]))
    anomalous = list(labels["anomalous"])
    behaves_like = {uuid: ingest.derive_identity("subject",
                                                 {"name": a["behavior"]})
                    for uuid, a in zip(anomalous, spec["anomalies"])}
    groups: dict[str, list[str]] = {}
    for uuid in sorted(set(identities) - set(anomalous)):
        groups.setdefault(identities[uuid], []).append(uuid)
    benign = sum(len(members) for members in groups.values())
    rng = np.random.default_rng(seed)
    chosen = []
    # Decoys per identity in proportion to its benign nodes: every seed
    # triages the same identity mix, so the work per seed stays alike.
    for label in sorted(groups):
        members = groups[label]
        take = min(len(members), round(decoys * len(members) / benign))
        chosen += [members[int(k)] for k in
                   rng.choice(len(members), size=take, replace=False)]
    chosen.sort()
    alerts = []
    for uuid in anomalous + chosen:
        claimed = identities[uuid]
        matched = behaves_like.get(uuid, claimed)
        radius = float(rng.uniform(0.05, 0.5))
        if matched != claimed:
            violation, deviation = "mismatch", radius * float(rng.uniform(0.5, 1.0))
        else:
            violation, deviation = "deviation", radius * float(rng.uniform(1.05, 2.0))
        score = max(0.0, deviation - radius) / radius + (matched != claimed)
        alerts.append(detector.Alert(
            node_uuid=uuid, graph_name="attack", claimed=claimed,
            matched=matched, deviation=deviation, radius=radius,
            violation=violation,
            explanation=(f"declared {claimed} behaves like {matched}, "
                         f"d={deviation:.6g}, R={radius:.6g}"),
            score=score))
    order = rng.permutation(len(alerts))
    return [alerts[int(k)] for k in order], anomalous, chosen


class TriageFlood(Workload):
    """``run_investigation`` over a fixed alert list against a large benign
    knowledge base; retrieval dominates."""

    min_ops = 3  # fewer investigations give too noisy a median

    def __init__(self, *args):
        super().__init__(*args)
        p = self.p
        self.lines = {}
        for stream, key in enumerate(("train", "kb")):
            spec = synth.default_scenario(*p[key], 0,
                                          seed=derive_seed(self.seed, stream))
            benign, _, _ = synth.generate_scenario(spec)
            self.lines[key] = event_lines(benign)
        spec = synth.default_scenario(*p["attack"],
                                      seed=derive_seed(self.seed, 2))
        _, attack, labels = synth.generate_scenario(spec)
        self.lines["attack"] = event_lines(attack)
        self.alerts, self.anomalous, self.decoys = fixed_alerts(
            attack, spec, labels, p["decoys"], derive_seed(self.seed, 3))
        self.cfg = PipelineConfig()
        self.cfg.encoder.epochs = p["epochs"]
        budget = self.cfg.budget
        # Enough calls for every alert plus expansion, synthesis and report,
        # so all four agents run and nothing stays untriaged.
        self.budget = investigation.InvestigationBudget(
            max_iterations=budget.max_iterations,
            max_leads_per_ioc=budget.max_leads_per_ioc,
            max_hypotheses=budget.max_hypotheses,
            max_llm_calls=4 * len(self.alerts) + 16)

    def setup(self, rep: int) -> None:
        cfg = self.cfg
        train_graph = graph_from_lines(self.lines["train"], cfg, "benign")
        vocab, params = train_model(train_graph, cfg)
        corpus = graph_from_lines(self.lines["kb"], cfg, "corpus")
        self.kb = profiler.build_knowledge_base(
            [corpus], params, vocab, cfg.epsilon, cfg.features.op_vocab)
        attack_graph = graph_from_lines(self.lines["attack"], cfg, "attack")
        self.store = investigation.GraphStore.build(
            [attack_graph], params, vocab, cfg.features.op_vocab)

    def op(self, i: int, tracer) -> dict:
        backend = TimedBackend(self.clock, tracer)
        start = self.clock()
        repo = investigation.run_investigation(
            self.alerts, self.store, self.kb, backend, self.budget,
            knn_k=self.cfg.llm.knn_k)
        return {"investigate_s": self.clock() - start, "repo": repo,
                "backend": backend}

    def after_op(self, i: int, record: dict) -> list[tuple[str, bool, str]]:
        repo = record["repo"]
        missed = [u for u in self.anomalous
                  if repo.iocs.get(u) is None or repo.iocs[u].status != "validated"]
        wrong = [u for u in self.decoys
                 if repo.iocs.get(u) is not None
                 and repo.iocs[u].status == "validated"]
        fallbacks = journal_count(repo, "llm_fallback")
        return [
            ("every anomaly alert validated", not missed, f"missed {missed}"),
            ("no decoy validated", not wrong, f"validated {wrong}"),
            ("no llm_fallback", fallbacks == 0, f"{fallbacks} fallbacks"),
            ("budget not exhausted", not repo.budget_exhausted,
             f"llm_calls={repo.llm_calls_used}"),
            ("non-empty report", repo.status == "complete"
             and bool(repo.report_markdown.strip()), repo.status),
        ]

    def report(self, records):
        prep = [s for r in records for s in r["backend"].prep("analyst")]
        last = records[-1]
        e2e = {
            "investigate_s": metric(statistics.median(
                r["investigate_s"] for r in records), "s", n=len(records)),
            "analyst_prep_p50_ms": timing_ms(prep, 0.50),
            "analyst_prep_p95_ms": timing_ms(prep, 0.95),
            "llm_tokens_in": metric(last["repo"].tokens_in, "tokens"),
        }
        quality = {"alerts": len(self.alerts),
                   "alerts_by_violation": dict(Counter(
                       a.violation for a in self.alerts)),
                   **investigation_quality(last["repo"], last["backend"])}
        p = self.p
        meta = {"train_scenario": list(p["train"]), "epochs": p["epochs"],
                "kb_scenario": list(p["kb"]), "kb_members": self.kb.size(),
                "attack_scenario": list(p["attack"]),
                "alert_mix": {"anomalies": len(self.anomalous),
                              "decoys": len(self.decoys)},
                "analyst_requests": len(last["backend"].prep("analyst")),
                "max_llm_calls": self.budget.max_llm_calls}
        return e2e, quality, meta


WORKLOADS = {"reference": Reference, "detect-stream": DetectStream,
             "triage-flood": TriageFlood}
