"""Initial node features: semantic, action-frequency and temporal encodings.

``feature_matrix`` builds every node's row h0 = semantic || action || temporal
in one walk over the node's incident edges. The semantic block is the mean
token vector of the node's summary: its identity label followed by the
operation tokens of its incident edges in temporal order. Token vectors are an
SVD of the shifted positive PMI (SPPMI) of window co-occurrences, which
skip-gram with negative sampling factorises implicitly (Levy & Goldberg, NeurIPS
2014), in place of per-pair SGD. The action block is the L2-normalized
operation histogram and the temporal block is a min-max-normalized summary of
inter-event idle periods.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
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


def build_node_summary(node: Entity, graph: ProvenanceGraph) -> list[str]:
    """Token summary of a node: identity label, then incident operations in
    temporal order."""
    return [node.identity] + [e.operation for e in incident_edges(graph, node.uuid)]


def train_semantic_vocab(summaries: list[list[str]], dim: int, window: int = 5,
                         negatives: int = 5, epochs: int = 3,
                         seed: int = 7) -> SemanticVocab:
    """Token vectors: the rows of ``U * sqrt(S)`` from one SVD of the SPPMI.

    #(w,c) counts the pairs at distance 1..``window`` inside a summary, and
    SPPMI = max(log(#(w,c) / (#(w) * P(c))) - log(negatives), 0), where P is the
    token frequency raised to 0.75 and normalised: the law skip-gram draws its
    negatives from, so this is the matrix its objective is optimal at. Vectors
    are truncated or zero-padded to ``dim``; a token with no positive entry gets
    the zero vector, as an out-of-vocabulary token does. ``epochs`` and
    ``seed`` are recorded but no longer affect the vectors.
    """
    if dim < 1:
        raise ConfigError("semantic dimension must be >= 1")
    if window < 1 or negatives < 1:
        raise ConfigError("skip-gram window and negatives must be >= 1")
    counts = Counter(chain.from_iterable(summaries))
    if not counts:
        raise ConfigError("cannot train semantic vocabulary on an empty corpus")

    tokens = sorted(counts, key=lambda t: (-counts[t], t))
    index = {tok: i for i, tok in enumerate(tokens)}
    vocab_size = len(tokens)
    ids = np.fromiter(map(index.__getitem__, chain.from_iterable(summaries)),
                      dtype=np.intp)
    summary_of = np.repeat(np.arange(len(summaries)), list(map(len, summaries)))

    pairs = np.zeros((vocab_size, vocab_size))
    for distance in range(1, window + 1):
        same = summary_of[:-distance] == summary_of[distance:]
        np.add.at(pairs, (ids[:-distance][same], ids[distance:][same]), 1.0)
    pairs += pairs.T  # each pair is visited from both of its tokens

    centres = pairs.sum(axis=1)  # #(w)
    noise = np.array([counts[t] for t in tokens], dtype=np.float64) ** 0.75
    w, c = np.nonzero(pairs)
    sppmi = np.zeros_like(pairs)
    sppmi[w, c] = np.maximum(np.log(pairs[w, c] * noise.sum()
                                    / (centres[w] * noise[c]))
                             - np.log(negatives), 0.0)

    u, s, _ = np.linalg.svd(sppmi)
    vectors = np.zeros((vocab_size, dim))
    vectors[:, :vocab_size] = (u * np.sqrt(s))[:, :dim]
    vectors[~sppmi.any(axis=1)] = 0.0
    return SemanticVocab(tokens=tokens, vectors=vectors.astype(np.float32),
                         dim=dim, window=window, negatives=negatives,
                         epochs=epochs, seed=seed)


def feature_dim(semantic_dim: int, op_vocab) -> int:
    return semantic_dim + len(op_vocab) + TEMPORAL_DIM


def feature_matrix(graph: ProvenanceGraph, vocab: SemanticVocab,
                   op_vocab) -> tuple[list[str], np.ndarray]:
    """h0 rows for every node, in sorted-uuid order, from one walk over each
    node's incident edges. An out-of-vocabulary token counts as zeros. An
    aggregated edge adds its event multiplicity to the histogram and exposes
    only its first and last timestamps. A block with no signal (no events, or
    fewer than two events or equal idle periods) stays zero."""
    uuids = sorted(graph.nodes)
    positions = {op: i for i, op in enumerate(op_vocab)}
    act_end = vocab.dim + len(op_vocab)
    h0 = np.zeros((len(uuids), act_end + TEMPORAL_DIM))
    for row, uuid in enumerate(uuids):
        tokens = [graph.nodes[uuid].identity]
        counts = np.zeros(len(op_vocab))
        stamps: list[int] = []
        for edge in incident_edges(graph, uuid):
            tokens.append(edge.operation)
            i = positions.get(edge.operation)
            if i is not None:
                counts[i] += edge.weight
            stamps.append(edge.first_ts)
            if edge.last_ts != edge.first_ts:
                stamps.append(edge.last_ts)

        semantic = h0[row, :vocab.dim]
        for token in tokens:
            semantic += vocab.lookup(token)
        semantic /= len(tokens)
        norm = np.linalg.norm(counts)
        h0[row, vocab.dim:act_end] = counts / norm if norm != 0.0 else counts
        if len(stamps) < 2:
            continue
        stamps.sort()
        idle = np.diff(np.asarray(stamps, dtype=np.float64))
        stats = np.array([idle.min(), idle.max(), idle.mean()])
        span = stats.max() - stats.min()
        if span != 0.0:
            h0[row, act_end:] = (stats - stats.min()) / span
    return uuids, h0


def export_features(graph: ProvenanceGraph, uuids: list[str], h0: np.ndarray,
                    semantic_dim: int, path: str | Path) -> None:
    """Debug dump: one JSONL record per ``feature_matrix`` row, with its
    semantic, action and temporal column blocks."""
    blocks = np.split(h0, [semantic_dim, h0.shape[1] - TEMPORAL_DIM], axis=1)
    write_jsonl(path, ({"uuid": uuid, "identity": graph.nodes[uuid].identity,
                        "x_sem": x_sem, "x_act": x_act, "x_tmp": x_tmp}
                       for uuid, x_sem, x_act, x_tmp
                       in zip(uuids, *(block.tolist() for block in blocks))))


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
