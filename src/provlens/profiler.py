"""Benign identity profiles and the retrieval-augmented knowledge base.

The knowledge base stores one row per benign member: its uuid, identity,
embedding and edge digest, sorted by (identity, uuid). Everything else is
derived from those rows when the knowledge base is built or loaded: each
identity's hypersphere profile is the centroid of its member embeddings and
the smallest radius that still encloses at least a (1 - epsilon) fraction of
them. Detection reads the profiles; the investigation agents retrieve member
rows as benign reference behavior.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .artifacts import (keys, read_blob, read_json, read_jsonl, reading,
                        write_blob, write_json, write_jsonl)
from .encoder import EncoderParams, forward
from .errors import ConfigError
from .features import SemanticVocab, feature_matrix
from .ingest import ProvenanceGraph

DIGEST_EDGE_LIMIT = 20
EPSILON = float(np.finfo(np.float64).eps)
SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)


@dataclass
class IdentityProfile:
    centroid: np.ndarray
    radius: float
    count: int


@dataclass
class BenignKnowledgeBase:
    """Each benign member as one row: ``uuids[i]``, ``labels[i]``,
    ``embeddings[i]`` and ``digests[i]``, its edge digest, sorted by
    (label, uuid). ``rows[label]`` is the label's slice of rows and
    ``profiles[label]`` the profile derived from that slice. It holds at
    least one row, so detection always has an identity to match. It is not
    changed once built, so the rows' squared norms, which only retrieval
    reads, are cached on first use."""
    epsilon: float
    uuids: list[str]
    labels: list[str]
    embeddings: np.ndarray
    digests: list[list[str]]
    rows: dict[str, slice] = field(init=False, repr=False)
    uuid_rank: np.ndarray = field(init=False, repr=False)
    profiles: dict[str, IdentityProfile] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.labels:
            raise ValueError("knowledge base holds no member rows")
        if self.labels != sorted(self.labels):
            raise ValueError("knowledge-base rows must be sorted by label")
        self.rows = {label: slice(bisect_left(self.labels, label),
                                  bisect_right(self.labels, label))
                     for label in dict.fromkeys(self.labels)}
        # each row's position in (uuid, row) order, the tie-break of kNN
        by_uuid = np.argsort(np.array(self.uuids, dtype=str), kind="stable")
        self.uuid_rank = np.empty_like(by_uuid)
        self.uuid_rank[by_uuid] = np.arange(len(by_uuid))
        self.profiles = {}
        for label, rows in self.rows.items():
            vectors = self.embeddings[rows]
            centroid = compute_centroid(vectors)
            self.profiles[label] = IdentityProfile(
                centroid=centroid,
                radius=compute_radius(vectors, centroid, self.epsilon),
                count=len(vectors))

    @cached_property
    def squared_norms(self) -> np.ndarray:
        """Read-only ``||x||^2`` of each embedding row, for the kNN
        prefilter."""
        norms = np.einsum("ij,ij->i", self.embeddings, self.embeddings)
        norms.flags.writeable = False
        return norms

    @property
    def embedding_dim(self) -> int:
        return self.embeddings.shape[1]

    def size(self) -> int:
        return len(self.uuids)


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """The one distance routine: Euclidean distance over the last axis of
    ``a - b``. The C-order difference makes each value depend only on its own
    row, so profiling, detection and retrieval agree bitwise. The difference
    is squared in place: one temporary of the broadcast shape per call."""
    diff = np.subtract(np.asarray(a, dtype=np.float64),
                       np.asarray(b, dtype=np.float64), order="C")
    np.multiply(diff, diff, out=diff)
    return np.sqrt(np.sum(diff, axis=-1))


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
    m = math.ceil((1.0 - epsilon) * len(members))
    distances = np.partition(euclidean_distance(members, centroid), m - 1)
    return float(distances[m - 1])


def edge_digest(graph: ProvenanceGraph, uuid: str,
                limit: int = DIGEST_EDGE_LIMIT) -> list[str]:
    """Readable one-line summaries of a node's incident edges, temporal order."""
    lines = []
    for edge in graph.incidence[uuid][:limit]:
        if edge.src == uuid:
            other, arrow = edge.dst, "->"
        else:
            other, arrow = edge.src, "<-"
        lines.append(f"{arrow} {edge.operation} {graph.nodes[other].identity} "
                     f"w={edge.weight} t=[{edge.first_ts}..{edge.last_ts}]")
    return lines


def build_knowledge_base(graphs, params: EncoderParams, vocab: SemanticVocab,
                         epsilon: float, op_vocab) -> BenignKnowledgeBase:
    """Embed every node of the benign graphs as one member row, which carries
    the edge digest of its own graph."""
    members: list[tuple[str, str, list[str]]] = []  # (label, uuid, digest)
    embeddings: list[np.ndarray] = []
    for graph in graphs:
        _, h0 = feature_matrix(graph, vocab, op_vocab)
        embeddings.append(forward(graph, h0, params))
        members += [(node.identity, uuid, edge_digest(graph, uuid))
                    for uuid, node in graph.nodes.items()]
    if not members:
        raise ConfigError("knowledge base needs at least one benign node")
    order = sorted(range(len(members)), key=lambda i: members[i][:2])
    return BenignKnowledgeBase(
        epsilon=epsilon, uuids=[members[i][1] for i in order],
        labels=[members[i][0] for i in order],
        embeddings=np.concatenate(embeddings)[order],
        digests=[members[i][2] for i in order])


def knn_query(kb: BenignKnowledgeBase, query: np.ndarray,
              k: int) -> list[tuple[int, float]]:
    """(row, distance) of the exact k nearest benign members by Euclidean
    distance, ties broken by uuid and then by row; NaN distances come last.

    A prefilter picks candidate rows and ``euclidean_distance`` ranks only
    those. It scores each row by ``||x||^2 - 2 x.q``, the squared distance
    less ``||q||^2``, with one matrix-vector product, and keeps every row
    scored at most ``2 delta`` above the k-th smallest score. ``delta``, 16
    (d + 2) ulps of ``max ||x||^2 + ||q||^2`` plus 4 (d + 2) subnormals for
    underflow, is several times the most that a score and the exact
    routine's squared distance can round apart, so every row no farther
    than the k-th distance is a candidate. Each distance depends only on its
    own row, so the rows, their tie order and the distance bits are those of
    a scan of every row. A non-finite input, or one whose squared distance
    could overflow, makes ``delta`` inf or NaN and every row a candidate, as
    does k >= n.

    Selection, not a full sort: only the candidates no farther than the
    k-th smallest distance are ordered. ``~(d > kth)`` also keeps every NaN
    row, so a NaN k-th distance keeps them all and the order matches a
    stable sort of every row."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = np.asarray(query, dtype=np.float64)
    n, dim = kb.embeddings.shape
    j = min(k, n) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        scores = kb.embeddings @ (-2.0 * query)
        scores += kb.squared_norms
        # 4 (max ||x||^2 + ||q||^2) is inf whenever a squared distance, at
        # most 2 (||x||^2 + ||q||^2), could overflow
        scale = 4.0 * (float(kb.squared_norms.max()) + float(query @ query))
        delta = 4.0 * (dim + 2) * (EPSILON * scale + SUBNORMAL)
        limit = np.partition(scores, j)[j] + 2.0 * delta
    rows = np.flatnonzero(~(scores > limit))
    distances = euclidean_distance(kb.embeddings[rows], query)
    if k < len(rows):
        kth = np.partition(distances, k - 1)[k - 1]
        keep = ~(distances > kth)
        rows, distances = rows[keep], distances[keep]
    order = np.lexsort((kb.uuid_rank[rows], distances))[:k]
    return [(int(row), float(distance))
            for row, distance in zip(rows[order], distances[order])]


def attribute_query(kb: BenignKnowledgeBase, identity: str) -> range:
    """Rows of the benign members whose identity is exactly ``identity``, in
    uuid order."""
    rows = kb.rows.get(identity, slice(0, 0))
    return range(rows.start, rows.stop)


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
        "header": base / "kb.json",
        "members": base / "kb.members.jsonl",
        "embeddings": base / "kb.embeddings.bin",
    }


def save_kb(kb: BenignKnowledgeBase, directory: str | Path) -> None:
    paths = kb_paths(directory)
    write_json(paths["header"], {"dim": kb.embedding_dim, "epsilon": kb.epsilon,
                                 "members": kb.size()})
    write_jsonl(paths["members"], (
        {"uuid": uuid, "label": label, "edges": digest}
        for uuid, label, digest in zip(kb.uuids, kb.labels, kb.digests)))
    write_blob(paths["embeddings"], kb.embeddings, "<f8")


def _header_from_json(obj) -> dict:
    header = keys("dim epsilon members", "dim members")(obj)
    epsilon = header["epsilon"]
    if type(epsilon) not in (int, float) or not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon {epsilon!r} is not a number in [0, 1)")
    return header


def load_kb(directory: str | Path) -> BenignKnowledgeBase:
    paths = kb_paths(directory)
    header = read_json(paths["header"], _header_from_json)
    members = read_jsonl(paths["members"], header["members"],
                         keys("edges label uuid"))
    embeddings = read_blob(paths["embeddings"], "<f8",
                           (len(members), header["dim"]))
    with reading(paths["members"]):
        return BenignKnowledgeBase(
            epsilon=header["epsilon"], uuids=[m["uuid"] for m in members],
            labels=[m["label"] for m in members], embeddings=embeddings,
            digests=[m["edges"] for m in members])
