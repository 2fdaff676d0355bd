"""Benign identity profiles and the retrieval-augmented knowledge base.

Each identity observed in benign graphs gets a hypersphere profile: the
centroid of its member embeddings and the smallest radius that still encloses
at least a (1 - epsilon) fraction of them. The knowledge base additionally
indexes every member embedding and its provenance metadata so detection and
the investigation agents can retrieve benign reference behavior.
"""

from __future__ import annotations

import csv
import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import (keys, read_blob, read_json, read_jsonl, write_blob,
                        write_json, write_jsonl)
from .encoder import EncoderParams, forward
from .errors import ConfigError
from .features import SemanticVocab, feature_matrix
from .ingest import ProvenanceGraph, incident_edges

log = logging.getLogger(__name__)

DIGEST_EDGE_LIMIT = 20


@dataclass
class IdentityProfile:
    label: str
    centroid: np.ndarray
    radius: float
    count: int


@dataclass
class BenignKnowledgeBase:
    """Identity profiles plus each benign member as a row of ``embeddings``,
    sorted by (label, uuid); ``rows[label]`` is the label's slice of rows."""
    epsilon: float
    profiles: dict[str, IdentityProfile]
    uuids: list[str]
    labels: list[str]
    embeddings: np.ndarray
    metadata: dict[str, dict] = field(default_factory=dict)
    rows: dict[str, slice] = field(init=False, repr=False)
    by_uuid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.labels != sorted(self.labels):
            raise ValueError("knowledge-base rows must be sorted by label")
        self.rows = {label: slice(bisect_left(self.labels, label),
                                  bisect_right(self.labels, label))
                     for label in dict.fromkeys(self.labels)}
        # rows in uuid order, so a stable sort by distance breaks ties by uuid
        self.by_uuid = np.argsort(np.array(self.uuids, dtype=str),
                                  kind="stable")

    @property
    def embedding_dim(self) -> int:
        return self.embeddings.shape[1]

    def size(self) -> int:
        return len(self.uuids)


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """The one distance routine: Euclidean distance over the last axis of
    ``a - b``. The C-order difference makes each value depend only on its own
    row, so profiling, detection and retrieval agree bitwise."""
    diff = np.subtract(np.asarray(a, dtype=np.float64),
                       np.asarray(b, dtype=np.float64), order="C")
    return np.sqrt(np.sum(diff * diff, axis=-1))


def compute_centroid(members) -> np.ndarray:
    members = np.asarray(members, dtype=np.float64)
    if len(members) == 0:
        raise ValueError("cannot compute the centroid of zero members")
    return np.mean(members, axis=0)


def compute_radius(members, centroid: np.ndarray, epsilon: float) -> float:
    """Smallest radius enclosing at least a (1 - epsilon) fraction of members:
    the ceil((1 - epsilon) * N)-th smallest distance to the centroid."""
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError("epsilon must lie in [0, 1)")
    members = np.asarray(members, dtype=np.float64)
    if len(members) == 0:
        raise ValueError("cannot compute a radius over zero members")
    distances = np.sort(euclidean_distance(members, centroid))
    m = math.ceil((1.0 - epsilon) * len(members))
    return float(distances[m - 1])


def edge_digest(graph: ProvenanceGraph, uuid: str,
                limit: int = DIGEST_EDGE_LIMIT) -> list[str]:
    """Readable one-line summaries of a node's incident edges, temporal order."""
    lines = []
    for edge in incident_edges(graph, uuid)[:limit]:
        if edge.src == uuid:
            other, arrow = edge.dst, "->"
        else:
            other, arrow = edge.src, "<-"
        other_id = graph.nodes[other].identity if other in graph.nodes else other
        lines.append(f"{arrow} {edge.operation} {other_id} "
                     f"w={edge.weight} t=[{edge.first_ts}..{edge.last_ts}]")
    return lines


def build_knowledge_base(graphs, params: EncoderParams, vocab: SemanticVocab,
                         epsilon: float, op_vocab) -> BenignKnowledgeBase:
    """Embed every node of the benign graphs and profile each identity."""
    graphs = list(graphs)
    if not graphs:
        raise ConfigError("knowledge base needs at least one benign graph")
    uuids: list[str] = []
    labels: list[str] = []
    embeddings: list[np.ndarray] = []
    metadata: dict[str, dict] = {}
    for graph in graphs:
        graph_uuids, h0 = feature_matrix(graph, vocab, op_vocab)
        embeddings.append(forward(graph, graph_uuids, h0, params))
        for uuid in graph_uuids:
            node = graph.nodes[uuid]
            if uuid in metadata:
                log.warning("duplicate node uuid %s across benign graphs", uuid)
            uuids.append(uuid)
            labels.append(node.identity)
            metadata[uuid] = {
                "identity": node.identity,
                "kind": node.kind,
                "attrs": node.attrs,
                "graph": graph.name,
                "edges": edge_digest(graph, uuid),
            }
    order = sorted(range(len(uuids)), key=lambda i: (labels[i], uuids[i]))
    kb = BenignKnowledgeBase(
        epsilon=epsilon, profiles={}, uuids=[uuids[i] for i in order],
        labels=[labels[i] for i in order],
        embeddings=np.concatenate(embeddings)[order], metadata=metadata)
    for label, rows in kb.rows.items():
        vectors = kb.embeddings[rows]
        centroid = compute_centroid(vectors)
        radius = compute_radius(vectors, centroid, epsilon)
        kb.profiles[label] = IdentityProfile(label=label, centroid=centroid,
                                             radius=radius, count=len(vectors))
    return kb


def knn_query(kb: BenignKnowledgeBase, query: np.ndarray,
              k: int) -> list[tuple[str, str, float]]:
    """Exact k nearest benign members by Euclidean distance, ties broken by
    uuid."""
    if k < 1:
        raise ValueError("k must be >= 1")
    distances = euclidean_distance(kb.embeddings, query)
    nearest = kb.by_uuid[np.argsort(distances[kb.by_uuid], kind="stable")[:k]]
    return [(kb.uuids[i], kb.labels[i], float(distances[i])) for i in nearest]


def attribute_query(kb: BenignKnowledgeBase, identity: str) -> list[str]:
    """Benign members whose identity is exactly ``identity``, each uuid once,
    in uuid order."""
    return list(dict.fromkeys(kb.uuids[kb.rows.get(identity, slice(0))]))


def export_embeddings(kb: BenignKnowledgeBase, path: str | Path) -> None:
    """CSV dump (uuid, identity, z components) for external visualization."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["uuid", "identity"]
                        + [f"z{i}" for i in range(kb.embedding_dim)])
        writer.writerows([uuid, label, *map(repr, vec)] for uuid, label, vec
                         in zip(kb.uuids, kb.labels, kb.embeddings.tolist()))


# --- serialization ---------------------------------------------------------

def kb_paths(directory: str | Path) -> dict[str, Path]:
    base = Path(directory)
    return {
        "profiles": base / "kb.profiles.json",
        "embeddings": base / "kb.embeddings.bin",
        "manifest": base / "kb.manifest.json",
        "metadata": base / "kb.metadata.jsonl",
    }


def save_kb(kb: BenignKnowledgeBase, directory: str | Path) -> None:
    paths = kb_paths(directory)
    profiles = {
        label: {"centroid": [float(x) for x in profile.centroid],
                "radius": profile.radius, "count": profile.count}
        for label, profile in kb.profiles.items()
    }
    write_json(paths["profiles"],
               {"epsilon": kb.epsilon, "profiles": profiles})
    write_json(paths["manifest"], list(zip(kb.uuids, kb.labels)))
    write_blob(paths["embeddings"], kb.embeddings, "<f8")
    write_jsonl(paths["metadata"], ({"uuid": uuid, **kb.metadata[uuid]}
                                    for uuid in sorted(kb.metadata)))


def _profiles_from_json(obj) -> tuple[float, dict[str, IdentityProfile]]:
    header = keys("epsilon profiles")(obj)
    entries = map(keys("centroid count radius"), header["profiles"].values())
    return header["epsilon"], {
        label: IdentityProfile(label=label, centroid=np.array(rec["centroid"]),
                               radius=rec["radius"], count=rec["count"])
        for label, rec in zip(header["profiles"], entries)}


def _manifest_from_json(pairs) -> tuple[list[str], list[str]]:
    if type(pairs) is not list or any(type(p) is not list or len(p) != 2
                                      for p in pairs):
        raise ValueError("manifest entries must be [uuid, label] pairs")
    return [p[0] for p in pairs], [p[1] for p in pairs]


def load_kb(directory: str | Path) -> BenignKnowledgeBase:
    paths = kb_paths(directory)
    epsilon, profiles = read_json(paths["profiles"], _profiles_from_json)
    uuids, labels = read_json(paths["manifest"], _manifest_from_json)
    dim = next(iter(profiles.values())).centroid.shape[0] if profiles else 0
    embeddings = read_blob(paths["embeddings"], "<f8", (len(uuids), dim))
    metadata = dict(read_jsonl(paths["metadata"],
                               lambda rec: (rec.pop("uuid"), rec)))
    return BenignKnowledgeBase(epsilon=epsilon, profiles=profiles,
                               uuids=uuids, labels=labels,
                               embeddings=embeddings, metadata=metadata)
