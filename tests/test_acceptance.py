"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE <name>: PASS|FAIL`` line so the whole gate
can be read off a single run (``pytest -s tests/test_acceptance.py``).
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from provlens import detector, encoder, ingest, profiler, synth
from provlens.cli import main as cli_main
from provlens.config import (DEFAULT_OP_VOCAB, InvestigationBudget,
                             PipelineConfig)
from provlens.encoder import ContrastiveBatch, batch_loss_grad
from provlens.profiler import compute_centroid, compute_radius, euclidean_distance

from conftest import EMPTY_VOCAB, edge_objects, feature_blocks, manual_graph
from scripted_llm import RecordingLLM
from test_investigation import TRUTH, default_budget, run_chain


def check(name: str, condition: bool, detail: str = ""):
    status = "PASS" if condition else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert condition, f"{name}: {detail}"


def random_star_graph(rng):
    edges = []
    stamp = 0
    for i in range(int(rng.integers(1, 9))):
        stamp += int(rng.integers(1, 50))
        op = DEFAULT_OP_VOCAB[int(rng.integers(len(DEFAULT_OP_VOCAB)))]
        weight = int(rng.integers(1, 6))
        last = stamp + int(rng.integers(0, 30))
        edges.append((op, stamp, last, weight))
    nodes = [("c", "subject", {"name": "c"}, "subject::c")]
    graph_edges = []
    for i, (op, first, last, weight) in enumerate(edges):
        nodes.append((f"o{i}", "file", {"path": f"/f{i}"}, f"file::f{i}"))
        graph_edges.append(("c", f"o{i}", op, first, last, weight))
    return manual_graph(nodes, graph_edges)


# --- criterion: equation oracles ------------------------------------------------

def test_equation_oracles():
    rng = np.random.default_rng(123)
    worst = 0.0

    # operation-frequency normalization against a hand-rolled loop
    for _ in range(100):
        graph = random_star_graph(rng)
        got = feature_blocks(graph, EMPTY_VOCAB, DEFAULT_OP_VOCAB)[1]
        counts = [0.0] * len(DEFAULT_OP_VOCAB)
        for edge in edge_objects(graph):
            counts[DEFAULT_OP_VOCAB.index(edge.operation)] += edge.weight
        norm = math.sqrt(sum(c * c for c in counts))
        oracle = [c / norm if norm else 0.0 for c in counts]
        worst = max(worst, float(np.max(np.abs(got - np.array(oracle)))))

    # idle-period statistics against direct arithmetic
    for _ in range(100):
        graph = random_star_graph(rng)
        got = feature_blocks(graph, EMPTY_VOCAB, DEFAULT_OP_VOCAB)[2]
        stamps = []
        for edge in edge_objects(graph):
            stamps.append(edge.first_ts)
            if edge.last_ts != edge.first_ts:
                stamps.append(edge.last_ts)
        stamps.sort()
        if len(stamps) < 2:
            oracle = [0.0, 0.0, 0.0]
        else:
            idles = [b - a for a, b in zip(stamps, stamps[1:])]
            stats = [min(idles), max(idles), sum(idles) / len(idles)]
            span = max(stats) - min(stats)
            if span == 0:
                oracle = [0.0, 0.0, 0.0]
            else:
                oracle = [(s - min(stats)) / span for s in stats]
        worst = max(worst, float(np.max(np.abs(got - np.array(oracle)))))

    # centroid against an explicit summation loop
    for _ in range(100):
        members = [rng.normal(size=5) for _ in range(int(rng.integers(1, 30)))]
        acc = np.zeros(5)
        for member in members:
            acc = acc + member
        worst = max(worst, float(np.max(np.abs(
            compute_centroid(members) - acc / len(members)))))

    # radius against a minimal-covering-radius scan
    for _ in range(100):
        members = [rng.normal(size=4) for _ in range(int(rng.integers(1, 40)))]
        centroid = compute_centroid(members)
        epsilon = float(rng.uniform(0.0, 0.9))
        distances = sorted(euclidean_distance(m, centroid) for m in members)
        need = (1 - epsilon) * len(members)
        oracle = min(c for c in distances
                     if sum(1 for d in distances if d <= c) >= need)
        worst = max(worst, abs(compute_radius(members, centroid, epsilon)
                               - oracle))

    # nearest prototype against exhaustive scan
    for _ in range(100):
        profiles = {
            f"P{i:02d}": profiler.IdentityProfile(rng.normal(size=4), 1.0, 1)
            for i in range(int(rng.integers(1, 12)))
        }
        z = rng.normal(size=4)
        alert, = detector.detect_embedded(["q"], z[None], ["unseen"], profiles)
        oracle_dist, oracle_label = min(
            (euclidean_distance(z, p.centroid), name)
            for name, p in sorted(profiles.items()))
        assert oracle_label == alert.matched
        worst = max(worst, abs(alert.deviation - oracle_dist))

    check("equation-oracles", worst <= 1e-9, f"max abs deviation {worst:.2e}")


# --- criterion: contrastive loss hand value --------------------------------------

def test_infonce_hand_value():
    z = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]])  # a, p, n
    batch = ContrastiveBatch(anchors=[0], positives=[1], members=[0, 1, 2])
    loss, _ = batch_loss_grad(z, batch, 1.0)
    expected = math.log(1.0 + math.exp(-1.0))
    check("infonce-hand-value", abs(loss - expected) <= 1e-9,
          f"loss={loss!r} expected log(1+e^-1)={expected!r}")


# --- criterion: gradient check ---------------------------------------------------

def test_gradient_check():
    from test_encoder import finite_difference_check

    worst, checked, seed = 0.0, 0, 100
    while checked < 20:
        result = finite_difference_check(seed)
        seed += 1
        if result is None:
            continue
        checked += 1
        worst = max(worst, result)
    check("gradient-check", checked == 20 and worst <= 1e-4,
          f"{checked} instances, worst relative error {worst:.2e}")


# --- criterion: radius coverage property ------------------------------------------

def test_radius_coverage_property():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(200):
        count = int(rng.integers(1, 60))
        epsilon = float(rng.uniform(0.0, 0.9))
        members = [rng.normal(size=int(rng.integers(1, 6)),
                              scale=rng.uniform(0.1, 10.0))
                   for _ in range(count)]
        dim = len(members[0])
        members = [m[:dim] if len(m) >= dim else
                   np.pad(m, (0, dim - len(m))) for m in members]
        centroid = compute_centroid(members)
        radius = compute_radius(members, centroid, epsilon)
        outside = sum(1 for m in members
                      if euclidean_distance(m, centroid) > radius)
        if outside > math.floor(epsilon * count):
            violations += 1
    check("radius-coverage", violations == 0,
          f"{violations} of 200 cases violated the floor(eps*N) bound")


# --- criteria: synthetic detection experiment -------------------------------------

@pytest.fixture(scope="module")
def synthetic_experiment():
    started = time.monotonic()
    cfg = PipelineConfig()
    spec = synth.default_scenario(num_identities=5, nodes_per_identity=200,
                                  num_anomalies=10, seed=cfg.seed)
    benign_events, attack_events, labels = synth.generate_scenario(spec)

    def build(events, name):
        lines = [json.dumps(e) for e in events]
        parsed = ingest.parse_events(lines, cfg.features.op_vocab)
        return ingest.build_graph(parsed.events, cfg.features.window_ns,
                                  name=name)

    train_graph = build(benign_events, "benign")
    test_graph = build(attack_events, "attack")
    vocab, result = encoder.fit(train_graph, cfg)
    kb = profiler.build_knowledge_base([train_graph], result.params, vocab,
                                       cfg.epsilon, cfg.features.op_vocab)
    train_alerts = detector.detect_graph(train_graph, result.params, vocab,
                                         kb, cfg.features.op_vocab)
    test_alerts = detector.detect_graph(test_graph, result.params, vocab, kb,
                                        cfg.features.op_vocab)
    elapsed = time.monotonic() - started
    return {
        "cfg": cfg, "labels": labels, "kb": kb,
        "train_alerts": train_alerts, "test_alerts": test_alerts,
        "elapsed": elapsed, "epochs": cfg.encoder.epochs,
    }


def test_synthetic_detection_recall_and_soundness(synthetic_experiment):
    exp = synthetic_experiment
    cfg = exp["cfg"]
    anomalous = set(exp["labels"]["anomalous"])
    flagged = {a.node_uuid for a in exp["test_alerts"]}
    recall = len(anomalous & flagged) / len(anomalous)

    flagged_train = Counter(a.claimed for a in exp["train_alerts"]
                            if a.violation in ("deviation", "both"))
    overflow = {
        label: count for label, count in flagged_train.items()
        if count > math.floor(cfg.epsilon * exp["kb"].profiles[label].count)
    }
    ok = (recall >= 0.8 and not overflow and exp["elapsed"] <= 300
          and exp["epochs"] <= 200)
    check("synthetic-detection", ok,
          f"recall={recall:.2f}, criterion-1 overflow={overflow}, "
          f"elapsed={exp['elapsed']:.0f}s, epochs={exp['epochs']}")


def test_contrastive_separation(synthetic_experiment):
    kb = synthetic_experiment["kb"]
    class_sums, class_counts = [], []
    for rows in kb.rows.values():
        vecs = kb.embeddings[rows]
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        normalized = np.divide(vecs, norms, out=np.zeros_like(vecs),
                               where=norms > 0)
        class_sums.append(normalized.sum(axis=0))
        class_counts.append(len(vecs))
    intra_sum = intra_pairs = 0.0
    for s, n in zip(class_sums, class_counts):
        if n >= 2:
            intra_sum += (float(s @ s) - n) / 2.0
            intra_pairs += n * (n - 1) / 2.0
    total = np.sum(class_sums, axis=0)
    inter_sum = (float(total @ total)
                 - sum(float(s @ s) for s in class_sums)) / 2.0
    inter_pairs = (sum(class_counts) ** 2
                   - sum(n * n for n in class_counts)) / 2.0
    intra = intra_sum / intra_pairs
    inter = inter_sum / inter_pairs
    check("contrastive-separation", intra - inter >= 0.2,
          f"intra={intra:.3f}, inter={inter:.3f}, gap={intra - inter:.3f}")


# --- criterion: investigation closed loop ------------------------------------------

def test_mai_closed_loop_correctness():
    budget = default_budget()
    one = run_chain(budget=budget)
    two = run_chain(budget=budget)

    validated = {i.node_uuid for i in one.validated_iocs()}
    truth_ok = validated == set(TRUTH)
    within_budget = (one.status == "complete"
                     and one.llm_calls_used <= budget.max_llm_calls)
    dump = lambda repo: "\n".join(json.dumps(e, sort_keys=True)
                                  for e in repo.journal_entries)
    replay_ok = dump(one) == dump(two) \
        and one.report_markdown == two.report_markdown
    narrative = one.report_markdown.split("## Attack Narrative")[1] \
                                   .split("## Indicator Details")[0]
    report_ok = all(narrative.count(f"`{u}`") == 1 for u in validated)
    check("investigation-closed-loop",
          truth_ok and within_budget and replay_ok and report_ok,
          f"validated={sorted(validated)}, calls={one.llm_calls_used}, "
          f"replay={'identical' if replay_ok else 'diverged'}")


def test_mai_safety_under_adversarial_mock():
    def analyst(payload):
        return {"verdict": "ANOMALY", "confidence": 0.99,
                "cited_evidence": [], "rationale": "always anomalous"}

    def investigator(payload):
        return {"event": "expansion", "kill_chain_phase": "LM",
                "leads": [{"graph_name": payload["graph_name"],
                           "node_uuid": n["node_uuid"],
                           "reason": "adjacent"}
                          for n in payload["neighborhood"]]}

    def leader(payload):
        return {"phase_coverage": {},
                "hypotheses": [{"kind": "missing_stage",
                                "statement": "keep digging",
                                "target_refs": ["DE"]}],
                "false_positive_flags": [], "terminate": False}

    backend = RecordingLLM(handlers={
        "analyst": analyst, "investigator": investigator, "leader": leader,
        "reporter": lambda p: {"campaign_summary": "s", "remediation": []}})
    budget = InvestigationBudget(max_iterations=1000, max_leads_per_ioc=10,
                                 max_hypotheses=16, max_llm_calls=50)
    repo = run_chain(backend=backend, budget=budget)
    check("investigation-safety",
          repo.status == "complete" and repo.llm_calls_used <= 50
          and repo.budget_exhausted,
          f"status={repo.status}, calls={repo.llm_calls_used}/50")


# --- criterion: pipeline determinism -----------------------------------------------

def test_pipeline_determinism(tmp_path):
    scenario = tmp_path / "scenario"
    assert cli_main(["synth", "--seed", "13", "--out", str(scenario),
                     "--identities", "3", "--nodes-per-identity", "12",
                     "--anomalies", "3"]) == 0

    def run(sub):
        artifacts = tmp_path / sub
        base = ["--artifacts", str(artifacts), "--seed", "13"]
        assert cli_main(["ingest", *base, "--input",
                         str(scenario / "benign.jsonl"), "--name",
                         "benign"]) == 0
        assert cli_main(["ingest", *base, "--input",
                         str(scenario / "attack.jsonl"), "--name",
                         "attack"]) == 0
        assert cli_main(["train", *base, "--graphs", "benign",
                         "--epochs", "6"]) == 0
        assert cli_main(["profile", *base, "--graphs", "benign"]) == 0
        assert cli_main(["detect", *base, "--graph", "attack"]) == 0
        assert cli_main(["investigate", *base, "--graph", "attack",
                         "--llm", "mock"]) == 0
        assert cli_main(["report", *base, "--graph", "attack"]) == 0
        return artifacts

    one, two = run("one"), run("two")
    files_one = sorted(p.relative_to(one) for p in one.rglob("*")
                       if p.is_file())
    files_two = sorted(p.relative_to(two) for p in two.rglob("*")
                       if p.is_file())
    same_tree = files_one == files_two
    diverging = [str(rel) for rel in files_one
                 if (one / rel).read_bytes() != (two / rel).read_bytes()] \
        if same_tree else ["<different file trees>"]
    check("determinism", same_tree and not diverging,
          f"{len(files_one)} artifacts compared, diverging={diverging}")
