"""Initial node features: semantic, action-frequency and temporal encodings.

Every node gets a vector h0 = semantic || action || temporal. The semantic part
comes from a small skip-gram model (negative sampling) trained on per-node
summaries: the node's identity label followed by the operation tokens of its
incident edges in temporal order. The action part is the L2-normalized
operation histogram and the temporal part is a min-max-normalized summary of
inter-event idle periods.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import (keys, read_blob, read_json, write_blob, write_json,
                        write_jsonl)
from .errors import ConfigError
from .ingest import Entity, ProvenanceGraph, incident_edges

TEMPORAL_DIM = 3


@dataclass
class SemanticVocab:
    tokens: list[str]
    vectors: np.ndarray  # (V, dim) float32
    dim: int
    window: int
    negatives: int
    epochs: int
    seed: int

    def __post_init__(self):
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    def lookup(self, token: str) -> np.ndarray:
        """Vector for ``token``; out-of-vocabulary tokens map to zeros."""
        i = self.index.get(token)
        if i is None:
            return np.zeros(self.dim)
        return self.vectors[i].astype(np.float64)


@dataclass
class NodeFeatures:
    x_sem: np.ndarray
    x_act: np.ndarray
    x_tmp: np.ndarray
    h0: np.ndarray


def build_node_summary(node: Entity, graph: ProvenanceGraph) -> list[str]:
    """Token summary of a node: identity label, then incident operations in
    temporal order."""
    return [node.identity] + [e.operation for e in incident_edges(graph, node.uuid)]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def train_semantic_vocab(summaries: list[list[str]], dim: int, window: int = 5,
                         negatives: int = 5, epochs: int = 3,
                         seed: int = 7) -> SemanticVocab:
    """Train skip-gram token embeddings with negative sampling.

    Single-threaded and fully driven by one seeded generator, so a fixed seed
    reproduces the table bit for bit.
    """
    if dim < 1:
        raise ConfigError("semantic dimension must be >= 1")
    counts: Counter[str] = Counter()
    for summary in summaries:
        counts.update(summary)
    if not counts:
        raise ConfigError("cannot train semantic vocabulary on an empty corpus")

    tokens = sorted(counts, key=lambda t: (-counts[t], t))
    index = {tok: i for i, tok in enumerate(tokens)}
    vocab_size = len(tokens)

    freq = np.array([counts[t] for t in tokens], dtype=np.float64) ** 0.75
    cumulative = np.cumsum(freq / freq.sum())

    rng = np.random.default_rng(seed)
    w_in = (rng.random((vocab_size, dim)) - 0.5) / dim
    w_out = np.zeros((vocab_size, dim))

    lr_start, lr_min = 0.025, 1e-4
    total_centers = max(1, sum(len(s) for s in summaries) * epochs)
    processed = 0

    for _ in range(epochs):
        for summary in summaries:
            ids = [index[t] for t in summary]
            for pos, center in enumerate(ids):
                lr = max(lr_min, lr_start * (1.0 - processed / total_centers))
                processed += 1
                lo = max(0, pos - window)
                ctx = np.array([ids[j] for j in range(lo, min(len(ids), pos + window + 1))
                                if j != pos], dtype=np.intp)
                if ctx.size == 0:
                    continue
                neg = np.searchsorted(cumulative,
                                      rng.random((ctx.size, negatives)))
                v = w_in[center]
                ctx_vecs = w_out[ctx]
                g_pos = (_sigmoid(ctx_vecs @ v) - 1.0) * lr
                neg_vecs = w_out[neg]
                g_neg = _sigmoid(neg_vecs @ v) * lr
                dv = g_pos @ ctx_vecs + np.einsum("cn,cnd->d", g_neg, neg_vecs)
                np.add.at(w_out, ctx, -g_pos[:, None] * v)
                np.add.at(w_out, neg.ravel(),
                          (-g_neg[:, :, None] * v).reshape(-1, dim))
                w_in[center] = v - dv

    return SemanticVocab(tokens=tokens, vectors=w_in.astype(np.float32), dim=dim,
                         window=window, negatives=negatives, epochs=epochs,
                         seed=seed)


def semantic_encode(node: Entity, graph: ProvenanceGraph,
                    vocab: SemanticVocab) -> np.ndarray:
    summary = build_node_summary(node, graph)
    acc = np.zeros(vocab.dim)
    for token in summary:
        acc += vocab.lookup(token)
    return acc / len(summary)


def action_frequency_encode(node: Entity, graph: ProvenanceGraph,
                            op_vocab) -> np.ndarray:
    """L2-normalized operation histogram over the node's incident edges.

    Aggregated edge weights count as their original event multiplicity. A node
    with no incident events maps to the zero vector.
    """
    counts = np.zeros(len(op_vocab))
    positions = {op: i for i, op in enumerate(op_vocab)}
    for edge in incident_edges(graph, node.uuid):
        i = positions.get(edge.operation)
        if i is not None:
            counts[i] += edge.weight
    norm = np.linalg.norm(counts)
    if norm == 0.0:
        return counts
    return counts / norm


def node_event_timestamps(graph: ProvenanceGraph, uuid: str) -> list[int]:
    """Observable event timestamps for a node. Aggregated edges expose only
    their first and last timestamps."""
    stamps: list[int] = []
    for edge in incident_edges(graph, uuid):
        stamps.append(edge.first_ts)
        if edge.last_ts != edge.first_ts:
            stamps.append(edge.last_ts)
    stamps.sort()
    return stamps


def temporal_encode(node: Entity, graph: ProvenanceGraph) -> np.ndarray:
    """Min/max/mean of inter-event idle periods, min-max normalized to [0, 1].

    Degenerate nodes (fewer than two events, or all idle periods equal) map to
    zeros: there is no temporal signal to normalize.
    """
    stamps = node_event_timestamps(graph, node.uuid)
    if len(stamps) < 2:
        return np.zeros(TEMPORAL_DIM)
    idle = np.diff(np.asarray(stamps, dtype=np.float64))
    stats = np.array([idle.min(), idle.max(), idle.mean()])
    span = stats.max() - stats.min()
    if span == 0.0:
        return np.zeros(TEMPORAL_DIM)
    return (stats - stats.min()) / span


def initial_features(node: Entity, graph: ProvenanceGraph, vocab: SemanticVocab,
                     op_vocab) -> NodeFeatures:
    x_sem = semantic_encode(node, graph, vocab)
    x_act = action_frequency_encode(node, graph, op_vocab)
    x_tmp = temporal_encode(node, graph)
    return NodeFeatures(x_sem=x_sem, x_act=x_act, x_tmp=x_tmp,
                        h0=np.concatenate([x_sem, x_act, x_tmp]))


def feature_dim(semantic_dim: int, op_vocab) -> int:
    return semantic_dim + len(op_vocab) + TEMPORAL_DIM


def feature_matrix(graph: ProvenanceGraph, vocab: SemanticVocab,
                   op_vocab) -> tuple[list[str], np.ndarray]:
    """h0 rows for every node, in sorted-uuid order."""
    uuids = sorted(graph.nodes)
    h0 = np.zeros((len(uuids), feature_dim(vocab.dim, op_vocab)))
    for row, uuid in enumerate(uuids):
        h0[row] = initial_features(graph.nodes[uuid], graph, vocab, op_vocab).h0
    return uuids, h0


def export_features(graph: ProvenanceGraph, vocab: SemanticVocab, op_vocab,
                    path: str | Path) -> None:
    """Debug dump: one JSONL record per node with the three feature parts."""
    def record(uuid: str) -> dict:
        feats = initial_features(graph.nodes[uuid], graph, vocab, op_vocab)
        return {"uuid": uuid, "identity": graph.nodes[uuid].identity,
                "x_sem": feats.x_sem.tolist(), "x_act": feats.x_act.tolist(),
                "x_tmp": feats.x_tmp.tolist()}
    write_jsonl(path, map(record, sorted(graph.nodes)))


# --- serialization ---------------------------------------------------------

def vocab_paths(directory: str | Path) -> dict[str, Path]:
    base = Path(directory)
    return {"header": base / "vocab.json", "vectors": base / "vocab.vectors.bin"}


def save_vocab(vocab: SemanticVocab, directory: str | Path) -> None:
    paths = vocab_paths(directory)
    write_json(paths["header"], {
        "tokens": vocab.tokens,
        "dim": vocab.dim,
        "window": vocab.window,
        "negatives": vocab.negatives,
        "epochs": vocab.epochs,
        "seed": vocab.seed,
        "dtype": "<f4",
    })
    write_blob(paths["vectors"], vocab.vectors, "<f4")


def load_vocab(directory: str | Path) -> SemanticVocab:
    paths = vocab_paths(directory)
    header = read_json(paths["header"],
                       keys("dim dtype epochs negatives seed tokens window"))
    vectors = read_blob(paths["vectors"], "<f4",
                        (len(header["tokens"]), header["dim"]))
    return SemanticVocab(tokens=header["tokens"], vectors=vectors,
                         dim=header["dim"], window=header["window"],
                         negatives=header["negatives"], epochs=header["epochs"],
                         seed=header["seed"])
