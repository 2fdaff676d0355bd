"""Identity-consistency violation detection over embedded test nodes.

A node is benign only if its embedding stays inside the hypersphere of its
claimed identity AND the nearest identity prototype is the claimed one.
Violating either criterion raises an alert that names the behaviorally closest
identity, which is what makes the alert explainable to an analyst.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .artifacts import read_jsonl, record, write_jsonl
from .encoder import EncoderParams, forward
from .errors import ConfigError
from .features import SemanticVocab, feature_dim, feature_matrix
from .ingest import ProvenanceGraph
from .profiler import BenignKnowledgeBase, IdentityProfile, euclidean_distance

SCORE_DELTA = 1e-9


@dataclass
class Alert:
    node_uuid: str
    graph_name: str
    claimed: str
    matched: str
    deviation: float
    radius: float | None
    violation: str
    explanation: str
    score: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def nearest_prototype(z: np.ndarray,
                      profiles: dict[str, IdentityProfile]) -> tuple[str, float]:
    """Identity whose centroid is closest to ``z``; ties go to the
    lexicographically smallest label."""
    if not profiles:
        raise ConfigError("nearest_prototype requires at least one profile")
    labels = sorted(profiles)
    distances = euclidean_distance(
        np.array([profiles[label].centroid for label in labels]), z)
    best = int(np.argmin(distances))
    return labels[best], float(distances[best])


def detect_node(z: np.ndarray, claimed: str,
                profiles: dict[str, IdentityProfile],
                node_uuid: str = "", graph_name: str = "") -> Alert | None:
    """Apply both violation criteria to one embedded node.

    Returns None for benign nodes. Identities never seen in benign data always
    alert (unknown_identity); the investigation stage adjudicates those.
    """
    matched, matched_dist = nearest_prototype(z, profiles)
    profile = profiles.get(claimed)
    if profile is None:
        return Alert(
            node_uuid=node_uuid, graph_name=graph_name, claimed=claimed,
            matched=matched, deviation=matched_dist, radius=None,
            violation="unknown_identity",
            explanation=(f"declared {claimed} has no benign profile; "
                         f"behaves like {matched}, d={matched_dist:.6g}"),
            score=1.0 + matched_dist)
    deviation = euclidean_distance(z, profile.centroid)
    outside = deviation > profile.radius
    mismatched = matched != claimed
    if not outside and not mismatched:
        return None
    if outside and mismatched:
        violation = "both"
    elif outside:
        violation = "deviation"
    else:
        violation = "mismatch"
    score = max(0.0, deviation - profile.radius) / (profile.radius + SCORE_DELTA)
    if mismatched:
        score += 1.0
    return Alert(
        node_uuid=node_uuid, graph_name=graph_name, claimed=claimed,
        matched=matched, deviation=deviation, radius=profile.radius,
        violation=violation,
        explanation=(f"declared {claimed} behaves like {matched}, "
                     f"d={deviation:.6g}, R={profile.radius:.6g}"),
        score=score)


def check_dimensions(params: EncoderParams, vocab: SemanticVocab,
                     kb: BenignKnowledgeBase, op_vocab) -> None:
    """Raise ConfigError unless the encoder takes the features ``vocab`` and
    ``op_vocab`` make and emits vectors of the knowledge base's dimension."""
    expected = feature_dim(vocab.dim, op_vocab)
    if params.dims[0] != expected:
        raise ConfigError(
            f"encoder input dimension {params.dims[0]} does not match the "
            f"feature dimension {expected} "
            f"(semantic={vocab.dim}, ops={len(op_vocab)}, temporal=3)")
    if kb.embedding_dim != params.dims[-1]:
        raise ConfigError(
            f"knowledge-base embedding dimension {kb.embedding_dim} does not "
            f"match encoder output dimension {params.dims[-1]}")


def detect_graph(graph: ProvenanceGraph, params: EncoderParams,
                 vocab: SemanticVocab, kb: BenignKnowledgeBase,
                 op_vocab) -> list[Alert]:
    """Embed every node of ``graph`` and run per-node detection.

    Alerts come back sorted by score descending, uuid ascending, so identical
    inputs always produce an identical alert list.
    """
    check_dimensions(params, vocab, kb, op_vocab)
    uuids, h0 = feature_matrix(graph, vocab, op_vocab)
    alerts = []
    for uuid, z in zip(uuids, forward(graph, uuids, h0, params)):
        alert = detect_node(z, graph.nodes[uuid].identity,
                            kb.profiles, node_uuid=uuid, graph_name=graph.name)
        if alert is not None:
            alerts.append(alert)
    alerts.sort(key=lambda a: (-a.score, a.node_uuid))
    return alerts


def save_alerts(alerts: list[Alert], path: str | Path) -> None:
    write_jsonl(path, map(vars, alerts))


def load_alerts(path: str | Path) -> list[Alert]:
    return list(read_jsonl(path, record(Alert)))


def format_alert_table(alerts: list[Alert]) -> str:
    """Fixed-width table for terminal output."""
    if not alerts:
        return "no identity-consistency violations detected"
    header = (f"{'score':>8}  {'violation':<16}  {'claimed':<24}  "
              f"{'behaves like':<24}  node")
    lines = [header, "-" * len(header)]
    for alert in alerts:
        lines.append(f"{alert.score:>8.3f}  {alert.violation:<16}  "
                     f"{alert.claimed:<24}  {alert.matched:<24}  "
                     f"{alert.node_uuid}")
    return "\n".join(lines)
