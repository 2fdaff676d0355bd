"""Initial node features: semantic, action-frequency and temporal encodings.

``feature_matrix`` builds every node's row h0 = semantic || action || temporal
from the graph's incidence arrays, with no edge objects. The semantic block is
the mean token vector of the node's summary: its identity label followed by
the operations of its incident edges in temporal order. Token vectors are an
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
from .config import DEFAULT_OP_VOCAB
from .errors import ConfigError
from .ingest import Entity, ProvenanceGraph

TEMPORAL_DIM = 3
# Integer-valued float64 terms sum exactly, in any order, while the sum stays
# below 2**53. Past that the order decides the last bit, so such a row takes
# the reduction a per-node walk uses: the norm's dot product and the mean's sum.
EXACT_SUM = 2.0 ** 53


@dataclass
class SemanticVocab:
    tokens: list[str]
    vectors: np.ndarray  # (V, dim) float32
    op_vocab: tuple[str, ...] = DEFAULT_OP_VOCAB  # the action block's columns

    def __post_init__(self):
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def build_node_summary(node: Entity, graph: ProvenanceGraph) -> list[str]:
    """Token summary of a node: identity label, then incident operations in
    temporal order."""
    ops = graph.incidence.of(node.uuid)[:, 2].tolist()
    return [node.identity] + [graph.operations[op] for op in ops]


def train_semantic_vocab(summaries: list[list[str]], dim: int, window: int = 5,
                         negatives: int = 5, epochs: int = 3, seed: int = 7,
                         op_vocab=DEFAULT_OP_VOCAB) -> SemanticVocab:
    """Token vectors: the rows of ``U * sqrt(S)`` from one SVD of the SPPMI.

    #(w,c) counts the pairs at distance 1..``window`` inside a summary, and
    SPPMI = max(log(#(w,c) / (#(w) * P(c))) - log(negatives), 0), where P is the
    token frequency raised to 0.75 and normalised: the law skip-gram draws its
    negatives from, so this is the matrix its objective is optimal at. Vectors
    are truncated or zero-padded to ``dim``; a token with no positive entry gets
    the zero vector, as an out-of-vocabulary token does. ``epochs`` and
    ``seed`` are accepted and ignored. ``op_vocab`` is recorded as the column
    order of the action block the model is trained on.
    """
    counts = Counter(chain.from_iterable(summaries))
    if not counts:
        raise ConfigError("cannot train semantic vocabulary on an empty corpus")

    tokens = sorted(counts, key=lambda t: (-counts[t], t))
    index = {tok: i for i, tok in enumerate(tokens)}
    vocab_size = len(tokens)
    ids = np.fromiter(map(index.__getitem__, chain.from_iterable(summaries)),
                      dtype=np.intp)
    summary_of = np.repeat(np.arange(len(summaries)), list(map(len, summaries)))

    pairs = np.zeros(vocab_size * vocab_size)
    for distance in range(1, window + 1):
        same = summary_of[:-distance] == summary_of[distance:]
        pairs += np.bincount(ids[:-distance][same] * vocab_size
                             + ids[distance:][same],
                             minlength=vocab_size * vocab_size)
    pairs = pairs.reshape(vocab_size, vocab_size)
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
                         op_vocab=tuple(op_vocab))


def feature_matrix(graph: ProvenanceGraph, vocab: SemanticVocab,
                   op_vocab) -> tuple[list[str], np.ndarray]:
    """h0 rows for every node, in the graph's node order, accumulating each
    node's incident edges in the row order of ``graph.incidence``. An
    out-of-vocabulary token counts as zeros. An aggregated edge adds its
    event multiplicity to the histogram and exposes only its first and last
    timestamps. A block with no signal (no events, or fewer than two events
    or equal idle periods) stays zero."""
    uuids, incidence = list(graph.nodes), graph.incidence
    row = np.repeat(np.arange(len(uuids)), np.diff(incidence.offsets))
    incident = graph.edge_columns[incidence.edge_rows]
    # One block at a time, so each block's incidence temporaries are freed
    # before the next is built.
    return uuids, np.hstack([_semantic_block(graph, row, incident, vocab),
                             _action_block(graph, row, incident, op_vocab),
                             _temporal_block(graph, row, incident)])


def _semantic_block(graph, row, incident, vocab):
    """Per node, the running sum of its token vectors (identity first) over
    its token count. Each column is one ``bincount``, which adds a node's
    terms from 0.0 in incidence order."""
    n, dim = len(graph.nodes), vocab.dim
    tokens = [node.identity for node in graph.nodes.values()] + graph.operations
    tok = np.array([vocab.index.get(t, -1) for t in tokens], dtype=np.intp)
    # Column -1 of the table, an out-of-vocabulary token's, is zeros.
    table = np.hstack([vocab.vectors.T.astype(np.float64), np.zeros((dim, 1))])
    sem_row = np.r_[np.arange(n), row]
    sem_tok = np.r_[tok[:n], tok[n:][incident[:, 2]]]
    sums = np.array([np.bincount(sem_row, column[sem_tok], n)
                     for column in table], dtype=np.float64)
    return sums.T / np.bincount(sem_row, minlength=n)[:, None]


def _action_block(graph, row, incident, op_vocab):
    """Per node, the L2-normalised histogram of its operations' weights."""
    n, width = len(graph.nodes), len(op_vocab)
    positions = {op: i for i, op in enumerate(op_vocab)}
    op_col = np.array([positions.get(op, -1) for op in graph.operations],
                      dtype=np.intp)[incident[:, 2]]
    kept = op_col >= 0
    # An empty input gives int64 counts.
    counts = np.bincount(row[kept] * width + op_col[kept], incident[kept, 5],
                         n * width).astype(np.float64).reshape(n, width)
    squares = np.einsum("ij,ij->i", counts, counts)
    norm = np.sqrt(squares)
    for k in np.flatnonzero(squares >= EXACT_SUM):
        norm[k] = np.linalg.norm(counts[k])
    return np.divide(counts, norm[:, None], out=counts, where=norm[:, None] != 0.0)


def _temporal_block(graph, row, incident):
    """Per node, the min-max-normalised (min, max, mean) of its idle periods."""
    first, last = incident[:, 3:5].astype(np.float64).T
    spread = incident[:, 4] != incident[:, 3]
    stamp_row, stamps = np.r_[row, row[spread]], np.r_[first, last[spread]]
    order = np.lexsort((stamps, stamp_row))
    stamp_row, stamps = stamp_row[order], stamps[order]
    same = stamp_row[1:] == stamp_row[:-1]
    idle, idle_row = np.diff(stamps)[same], stamp_row[1:][same]
    starts = np.flatnonzero(np.diff(idle_row, prepend=-1))
    sizes = np.diff(np.r_[starts, idle.size])
    sums = np.add.reduceat(idle, starts)
    for k in np.flatnonzero(sums >= EXACT_SUM):
        sums[k] = idle[starts[k]:starts[k] + sizes[k]].sum()
    stats = np.stack([np.minimum.reduceat(idle, starts),
                      np.maximum.reduceat(idle, starts), sums / sizes], axis=1)
    low = stats.min(axis=1)
    span = stats.max(axis=1) - low
    varied = span != 0.0
    block = np.zeros((len(graph.nodes), TEMPORAL_DIM))
    block[idle_row[starts][varied]] = \
        (stats[varied] - low[varied, None]) / span[varied, None]
    return block


def export_features(graph: ProvenanceGraph, h0: np.ndarray, semantic_dim: int,
                    path: str | Path) -> None:
    """Debug dump: one JSONL record per ``feature_matrix`` row, with its
    semantic, action and temporal column blocks."""
    blocks = np.split(h0, [semantic_dim, h0.shape[1] - TEMPORAL_DIM], axis=1)
    write_jsonl(path, ({"uuid": node.uuid, "identity": node.identity,
                        "x_sem": x_sem, "x_act": x_act, "x_tmp": x_tmp}
                       for node, x_sem, x_act, x_tmp in zip(
                           graph.nodes.values(), *(b.tolist() for b in blocks))))


# --- serialization ---------------------------------------------------------

# one part of the model set that ``encoder.save_model`` seals
def vocab_paths(directory: str | Path) -> dict[str, Path]:
    base = Path(directory)
    return {"header": base / "vocab.json", "vectors": base / "vocab.vectors.bin"}


def save_vocab(vocab: SemanticVocab, directory: str | Path) -> dict[str, str]:
    """Write the vocabulary; the digest of each file written, by file name."""
    paths = vocab_paths(directory)
    return {
        paths["header"].name: write_json(paths["header"], {
            "tokens": vocab.tokens,
            "dim": vocab.dim,
            "op_vocab": list(vocab.op_vocab),
        }),
        paths["vectors"].name: write_blob(paths["vectors"], vocab.vectors,
                                          "<f4")}


def load_vocab(directory: str | Path, checked: dict) -> SemanticVocab:
    """The vocabulary from ``encoder.load_model``'s bytes by file name."""
    paths = vocab_paths(directory)
    header = read_json(paths["header"], checked[paths["header"].name],
                       keys(tokens="string[]", dim="integer",
                            op_vocab="string[]"))
    vectors = read_blob(paths["vectors"], checked[paths["vectors"].name],
                        "<f4", (len(header["tokens"]), header["dim"]))
    return SemanticVocab(tokens=header["tokens"], vectors=vectors,
                         op_vocab=tuple(header["op_vocab"]))
