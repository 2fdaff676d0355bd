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
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .artifacts import (LazyJsonl, check_seal, columns, keys, parent_made,
                        read_blob, read_json, reading, seal, write_blob,
                        write_json, write_jsonl)
from .encoder import EncoderParams, forward
from .errors import ConfigError
from .features import SemanticVocab, feature_matrix
from .ingest import ProvenanceGraph

DIGEST_EDGE_LIMIT = 20
EPSILON = float(np.finfo(np.float64).eps)
SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)
# The most float64 values a kNN block's (queries x members) score matrix
# holds, about 1 MB, so that it stays in cache.
SCORE_BUDGET = 2 ** 17


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
    least one row, so detection always has an identity to match. ``model``
    is the id of the trained model that embedded the rows, the sha256 of its
    seal (``encoder.load_model``). Only the investigation reads ``digests``,
    which a loaded KB decodes on that first read. It is not changed once
    built, so the rows' squared norms and uuid ranks, which only retrieval
    reads, are cached on first use."""
    epsilon: float
    uuids: list[str]
    labels: list[str]
    embeddings: np.ndarray
    digests: Sequence[list[str]]
    model: str = ""
    rows: dict[str, slice] = field(init=False, repr=False)
    profiles: dict[str, IdentityProfile] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.labels:
            raise ValueError("knowledge base holds no member rows")
        if self.labels != sorted(self.labels):
            raise ValueError("knowledge-base rows must be sorted by label")
        self.rows = {label: slice(bisect_left(self.labels, label),
                                  bisect_right(self.labels, label))
                     for label in dict.fromkeys(self.labels)}
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

    @cached_property
    def uuid_rank(self) -> np.ndarray:
        """Each row's position in (uuid, row) order, the kNN tie-break."""
        by_uuid = np.argsort(np.array(self.uuids, dtype=str), kind="stable")
        rank = np.empty_like(by_uuid)
        rank[by_uuid] = np.arange(len(by_uuid))
        return rank

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
    """The mean of one or more member rows."""
    return np.mean(np.asarray(members, dtype=np.float64), axis=0)


def compute_radius(members, centroid: np.ndarray, epsilon: float) -> float:
    """Smallest radius enclosing at least a (1 - epsilon) fraction of members:
    the ceil((1 - epsilon) * N)-th smallest distance to the centroid."""
    members = np.asarray(members, dtype=np.float64)
    m = math.ceil((1.0 - epsilon) * len(members))
    distances = np.partition(euclidean_distance(members, centroid), m - 1)
    return float(distances[m - 1])


def edge_digest(graph: ProvenanceGraph, uuid: str,
                limit: int = DIGEST_EDGE_LIMIT) -> list[str]:
    """Readable one-line summaries of a node's incident edges, temporal order."""
    incidence, lines = graph.incidence, []
    row, edges = incidence.row_of[uuid], incidence.of(uuid)[:limit].tolist()
    for src, dst, op, first, last, weight in edges:
        other, arrow = (dst, "->") if src == row else (src, "<-")
        lines.append(f"{arrow} {graph.operations[op]} "
                     f"{incidence.nodes[other].identity} w={weight} "
                     f"t=[{first}..{last}]")
    return lines


def build_knowledge_base(graphs, params: EncoderParams, vocab: SemanticVocab,
                         epsilon: float, op_vocab,
                         model: str = "") -> BenignKnowledgeBase:
    """Embed every node of the benign graphs as one member row, which carries
    the edge digest of its own graph. ``model`` is the id of the model that
    ``params`` and ``vocab`` were loaded from."""
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
        digests=[members[i][2] for i in order], model=model)


def knn_query(kb: BenignKnowledgeBase, queries: np.ndarray,
              k: int) -> list[list[tuple[int, float]]]:
    """For each row of the (m, d) ``queries``, the (row, distance) of its
    exact k nearest benign members by Euclidean distance, ties broken by uuid
    and then by row; NaN distances come last. One query is a 1-row matrix.

    Queries are taken in blocks of ``knn_block_rows(kb)``, so that a block's
    (block x n) score matrix stays within ``SCORE_BUDGET`` values and in
    cache. A prefilter picks each query's candidate rows and
    ``euclidean_distance`` ranks only those. It scores every (query, row)
    pair by ``||x||^2 - 2 x.q``, the squared distance less ``||q||^2``, with
    one matrix-matrix product per block, and keeps every row scored at most
    ``2 delta`` above the query's k-th smallest score. Each query has its own
    ``delta``, 16 (d + 2) ulps of ``max ||x||^2 + ||q||^2`` plus 4 (d + 2)
    subnormals for underflow: several times the most that a score and the
    exact routine's squared distance can round apart, so every row no
    farther than the k-th distance is a candidate. A non-finite query, or
    one whose squared distance could overflow, makes its own ``delta`` inf
    or NaN and every row its candidate, and leaves the other queries as they
    are; a non-finite member, or k >= n, does so for every query.

    One ``euclidean_distance`` call measures all of a block's candidate
    pairs and one ``lexsort`` orders them by (query, distance, uuid rank);
    each query keeps its first k. Each distance depends only on its own
    pair, so the rows, their tie order and the distance bits are those of a
    scan of every row for that query alone."""
    queries = np.asarray(queries, dtype=np.float64)
    step = knn_block_rows(kb)
    results = []
    for start in range(0, len(queries), step):
        results += _knn_block(kb, queries[start:start + step], k)
    return results


def knn_block_rows(kb: BenignKnowledgeBase) -> int:
    """Queries per ``knn_query`` block: as many as keep the block's score
    matrix within ``SCORE_BUDGET`` values, and at least one."""
    return max(1, SCORE_BUDGET // kb.size())


def _knn_block(kb: BenignKnowledgeBase, block: np.ndarray,
               k: int) -> list[list[tuple[int, float]]]:
    n, dim = kb.embeddings.shape
    j = min(k, n) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        scores = (-2.0 * block) @ kb.embeddings.T
        scores += kb.squared_norms
        # 4 (max ||x||^2 + ||q||^2) is inf whenever a squared distance, at
        # most 2 (||x||^2 + ||q||^2), could overflow
        scale = 4.0 * (float(kb.squared_norms.max())
                       + np.einsum("ij,ij->i", block, block))
        delta = 4.0 * (dim + 2) * (EPSILON * scale + SUBNORMAL)
        limit = np.partition(scores, j, axis=1)[:, j] + 2.0 * delta
    # (query, row) of each candidate in C order, as ``np.nonzero`` gives
    # them but without its slower 2-D walk
    query, rows = np.divmod(np.flatnonzero(~(scores > limit[:, None])), n)
    distances = euclidean_distance(kb.embeddings[rows], block[query])
    order = np.lexsort((kb.uuid_rank[rows], distances, query))
    pairs = list(zip(rows[order].tolist(), distances[order].tolist()))
    # ``query`` is ascending, so block row i's candidates are
    # pairs[bounds[i]:bounds[i + 1]], nearest first
    bounds = np.searchsorted(query, np.arange(len(block) + 1)).tolist()
    return [pairs[lo:min(lo + k, hi)] for lo, hi in zip(bounds, bounds[1:])]


def attribute_query(kb: BenignKnowledgeBase, identity: str) -> range:
    """Rows of the benign members whose identity is exactly ``identity``, in
    uuid order."""
    rows = kb.rows.get(identity, slice(0, 0))
    return range(rows.start, rows.stop)


def export_embeddings(kb: BenignKnowledgeBase, path: str | Path) -> None:
    """CSV dump (uuid, identity, z components) for external visualization."""
    with open(parent_made(path), "w", newline="", encoding="utf-8") as fh:
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
        "members": base / "kb.members.json",
        "digests": base / "kb.digests.jsonl",
        "embeddings": base / "kb.embeddings.bin",
        "seal": base / "kb.seal.json",
    }


def save_kb(kb: BenignKnowledgeBase, directory: str | Path) -> None:
    """Write the header, the members' uuid and label columns, their digests
    as JSONL, their embeddings as ``<f8``, and the seal."""
    paths = kb_paths(directory)
    seal(paths, {
        "header": write_json(paths["header"], {
            "dim": kb.embedding_dim, "epsilon": kb.epsilon,
            "model": kb.model}),
        "members": write_json(paths["members"], {"uuid": kb.uuids,
                                                 "label": kb.labels}),
        "digests": write_jsonl(paths["digests"], kb.digests),
        "embeddings": write_blob(paths["embeddings"], kb.embeddings, "<f8")})


def load_kb(directory: str | Path) -> BenignKnowledgeBase:
    """The saved KB, decoded from the bytes its seal check read; the digests
    when the first is read. A header ``epsilon`` outside [0, 1), which
    ``profile`` refuses as config, raises ArtifactError naming ``kb.json``."""
    paths = kb_paths(directory)
    checked = check_seal(paths)
    digests = LazyJsonl(paths["digests"], checked["digests"])
    header = read_json(paths["header"], checked["header"],
                       keys(dim="integer", epsilon="number", model="string"))
    with reading(paths["header"]):
        if not 0.0 <= header["epsilon"] < 1.0:
            raise ValueError(f"epsilon {header['epsilon']} is outside [0, 1)")
    uuids, labels = read_json(paths["members"], checked["members"],
                              columns("uuid", "label"))
    embeddings = read_blob(paths["embeddings"], checked["embeddings"], "<f8",
                           (len(uuids), header["dim"]))
    with reading(paths["members"]):
        return BenignKnowledgeBase(
            epsilon=header["epsilon"], uuids=uuids, labels=labels,
            embeddings=embeddings, digests=digests, model=header["model"])
