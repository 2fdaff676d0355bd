"""Identity-consistency violation detection over embedded test nodes.

A node is benign only if its embedding stays inside the hypersphere of its
claimed identity AND the nearest identity prototype is the claimed one.
Violating either criterion raises an alert that names the behaviorally closest
identity, which is what makes the alert explainable to an analyst.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .artifacts import (check_seal, encode, read_jsonl, reading, record,
                        seal, write_jsonl)
from .encoder import EncoderParams, forward
from .features import SemanticVocab, feature_matrix
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
        return encode(asdict(self))


# An alert, checked field by field: an ``--alerts`` file is made by hand.
_ALERT = record(Alert, {**dict.fromkeys(("node_uuid", "graph_name", "claimed",
                                         "matched", "violation",
                                         "explanation"), "string"),
                        "deviation": "number", "score": "number",
                        "radius": "number null"})


def detect_embedded(uuids: list[str], z: np.ndarray, claimed: list[str],
                    profiles: dict[str, IdentityProfile],
                    graph_name: str = "") -> list[Alert]:
    """Apply both violation criteria to every row of ``z``, where node
    ``uuids[i]`` claims identity ``claimed[i]``; alerts come back sorted by
    score descending, uuid ascending.

    The distances form one (n, k) matrix, a column per identity in sorted-label
    order. The matched identity is the first nearest column, so ties go to the
    smallest label. Identities never seen in benign data always alert
    (unknown_identity), with the distance to the matched identity as their
    deviation; the investigation stage adjudicates those. Every field of an
    alert comes from the arrays of this one pass.
    """
    labels = sorted(profiles)
    column = {label: i for i, label in enumerate(labels)}
    distances = np.column_stack([
        euclidean_distance(z, profiles[label].centroid) for label in labels])
    nearest = np.argmin(distances, axis=1)
    # the claimed identity's column; -1, which matches no column, if unknown
    own = np.array([column.get(label, -1) for label in claimed], dtype=np.intp)
    known = own >= 0
    deviation = distances[np.arange(len(own)), np.where(known, own, nearest)]
    radius = np.array([profiles[label].radius for label in labels])[own]
    mismatched = nearest != own
    outside = known & (deviation > radius)
    violation = np.select([~known, outside & mismatched, outside],
                          ["unknown_identity", "both", "deviation"], "mismatch")
    # fmax, unlike maximum, takes 0.0 over a NaN excess, as max(0.0, nan) does
    excess = np.fmax(0.0, deviation - radius) / (radius + SCORE_DELTA)
    score = np.where(known, excess, deviation) + mismatched
    alerts = []
    for i in np.flatnonzero(mismatched | outside):
        matched, d, r = labels[nearest[i]], float(deviation[i]), float(radius[i])
        alerts.append(Alert(
            node_uuid=uuids[i], graph_name=graph_name, claimed=claimed[i],
            matched=matched, deviation=d, radius=r if known[i] else None,
            violation=str(violation[i]), score=float(score[i]),
            explanation=(f"declared {claimed[i]} behaves like {matched}, "
                         f"d={d:.6g}, R={r:.6g}" if known[i] else
                         f"declared {claimed[i]} has no benign profile; "
                         f"behaves like {matched}, d={d:.6g}")))
    alerts.sort(key=lambda a: (-a.score, a.node_uuid))
    return alerts


def detect_graph(graph: ProvenanceGraph, params: EncoderParams,
                 vocab: SemanticVocab, kb: BenignKnowledgeBase,
                 op_vocab) -> list[Alert]:
    """Embed every node of ``graph`` and detect over the embedded rows, with
    a model that fits: ``params`` takes the features ``vocab`` and
    ``op_vocab`` make and emits vectors of ``kb``'s dimension.

    Alerts come back sorted by score descending, uuid ascending, so identical
    inputs always produce an identical alert list.
    """
    uuids, h0 = feature_matrix(graph, vocab, op_vocab)
    return detect_embedded(uuids, forward(graph, h0, params),
                           [node.identity for node in graph.nodes.values()],
                           kb.profiles, graph.name)


def alerts_paths(path: str | Path) -> dict[str, Path]:
    """The alerts file ``path`` and its seal ``<stem>.seal.json`` beside it."""
    path = Path(path)
    return {"alerts": path, "seal": path.with_name(f"{path.stem}.seal.json")}


def save_alerts(alerts: list[Alert], path: str | Path) -> None:
    """The alerts as JSONL at ``path``, then their seal."""
    seal(alerts_paths(path), {"alerts": write_jsonl(path, map(vars, alerts))})


def load_alerts(path: str | Path) -> list[Alert]:
    """The alerts of ``path`` as a user's file is read, such as one given to
    ``investigate --alerts``: once, and without a seal."""
    with reading(path):
        return read_jsonl(path, Path(path).read_bytes(), _ALERT)


def load_detected_alerts(path: str | Path) -> list[Alert]:
    """The alerts ``save_alerts`` wrote to ``path``, decoded from the bytes
    its seal check read."""
    return read_jsonl(path, check_seal(alerts_paths(path))["alerts"], _ALERT)


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
