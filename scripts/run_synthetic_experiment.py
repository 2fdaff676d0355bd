#!/usr/bin/env python3
"""Synthetic detection experiment: train on a benign window, detect an
identity-swapped attack window, report recall / precision / separation.

Usage:
    python scripts/run_synthetic_experiment.py [--nodes 200] [--anomalies 10]
        [--epochs 50] [--seed 7]
"""

import argparse
import json
import math
import sys
import time
from collections import Counter

import numpy as np

from provlens import detector, encoder, features, ingest, profiler, synth
from provlens.config import PipelineConfig


def build_graph(events, cfg, name):
    lines = [json.dumps(e) for e in events]
    parsed = ingest.parse_events(lines, cfg.features.op_vocab)
    return ingest.build_graph(parsed.events, cfg.features.window_ns, name=name)


def separation(kb):
    sums, counts = [], []
    for rows in kb.rows.values():
        vecs = kb.embeddings[rows]
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        sums.append(np.divide(vecs, norms, out=np.zeros_like(vecs),
                              where=norms > 0).sum(axis=0))
        counts.append(len(vecs))
    intra_sum = sum((float(s @ s) - n) / 2 for s, n in zip(sums, counts) if n > 1)
    intra_pairs = sum(n * (n - 1) / 2 for n in counts if n > 1)
    total = np.sum(sums, axis=0)
    inter_sum = (float(total @ total) - sum(float(s @ s) for s in sums)) / 2
    inter_pairs = (sum(counts) ** 2 - sum(n * n for n in counts)) / 2
    return intra_sum / intra_pairs, inter_sum / inter_pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--identities", type=int, default=5)
    parser.add_argument("--nodes", type=int, default=200,
                        help="benign nodes per identity template")
    parser.add_argument("--anomalies", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    cfg = PipelineConfig()
    cfg.seed = args.seed
    if args.epochs is not None:
        cfg.encoder.epochs = args.epochs

    started = time.monotonic()
    spec = synth.default_scenario(num_identities=args.identities,
                                  nodes_per_identity=args.nodes,
                                  num_anomalies=args.anomalies, seed=cfg.seed)
    benign_events, attack_events, labels = synth.generate_scenario(spec)
    train_graph = build_graph(benign_events, cfg, "benign")
    test_graph = build_graph(attack_events, cfg, "attack")
    print(f"[graph] benign: {len(train_graph.nodes)} nodes "
          f"{len(train_graph.edges)} edges | attack: {len(test_graph.nodes)} "
          f"nodes ({len(labels['anomalous'])} injected)")

    summaries = [features.build_node_summary(train_graph.nodes[u], train_graph)
                 for u in sorted(train_graph.nodes)]
    vocab = features.train_semantic_vocab(
        summaries, cfg.features.semantic_dim, window=cfg.features.w2v_window,
        negatives=cfg.features.w2v_negatives, epochs=cfg.features.w2v_epochs,
        seed=cfg.seed)
    uuids, h0 = features.feature_matrix(train_graph, vocab,
                                        cfg.features.op_vocab)
    result = encoder.train(train_graph, dict(zip(uuids, h0)), cfg.encoder,
                           cfg.seed)
    print(f"[train] {cfg.encoder.epochs} epochs, canonical loss "
          f"{result.loss_trace[0]:.3f} -> {result.loss_trace[-1]:.3f}")

    kb = profiler.build_knowledge_base([train_graph], result.params, vocab,
                                       cfg.epsilon, cfg.features.op_vocab)
    intra, inter = separation(kb)
    print(f"[embed] identities={len(kb.profiles)} intra-cos={intra:.3f} "
          f"inter-cos={inter:.3f} gap={intra - inter:.3f}")

    train_alerts = detector.detect_graph(train_graph, result.params, vocab,
                                         kb, cfg.features.op_vocab)
    overflow = Counter(a.claimed for a in train_alerts
                       if a.violation in ("deviation", "both"))
    bad = {l: c for l, c in overflow.items()
           if c > math.floor(cfg.epsilon * kb.profiles[l].count)}
    print(f"[sound] training-set deviation flags within epsilon: "
          f"{'yes' if not bad else bad}")

    alerts = detector.detect_graph(test_graph, result.params, vocab, kb,
                                   cfg.features.op_vocab)
    anomalous = set(labels["anomalous"])
    flagged = {a.node_uuid for a in alerts}
    recall = len(anomalous & flagged) / len(anomalous) if anomalous else 1.0
    precision = len(anomalous & flagged) / len(flagged) if flagged else 1.0
    kinds = Counter(a.violation for a in alerts)
    print(f"[detect] alerts={len(alerts)} {dict(kinds)}")
    print(f"[result] recall={recall:.2f} precision={precision:.3f} "
          f"elapsed={time.monotonic() - started:.1f}s")
    return 0 if recall >= 0.8 else 1


if __name__ == "__main__":
    sys.exit(main())
