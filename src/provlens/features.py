"""Initial node features: semantic, action-frequency and temporal encodings.

``feature_matrix`` builds every node's row h0 = semantic || action || temporal
from arrays of all node-edge incidences. The semantic block is the mean
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
SCATTER_CHUNK = 8192  # incidences per scatter, bounding its (chunk, dim) temporary
# Integer-valued float64 terms sum exactly, in any order, while the sum stays
# below 2**53. Past that the order decides the last bit, so such a row takes
# the reduction a per-node walk uses: the norm's dot product and the mean's sum.
EXACT_SUM = 2.0 ** 53


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
    """h0 rows for every node, in sorted-uuid order, accumulating each node's
    incident edges in the order of ``incident_edges``. An out-of-vocabulary
    token counts as zeros. An aggregated edge adds its event multiplicity to
    the histogram and exposes only its first and last timestamps. A block with
    no signal (no events, or fewer than two events or equal idle periods)
    stays zero."""
    uuids = sorted(graph.nodes)
    pos = {u: i for i, u in enumerate(uuids)}
    edges = sorted(graph.edges, key=lambda e: (e.first_ts, e.src, e.dst, e.operation))
    src = np.array([pos.get(e.src, -1) for e in edges], dtype=np.intp)
    dst = np.array([pos.get(e.dst, -1) for e in edges], dtype=np.intp)
    # Incidences in edge order: each edge at its source, then at its
    # destination unless that is the source; endpoints outside the graph's
    # nodes drop out. Per row this is the order of ``incident_edges``.
    row = np.stack([src, np.where(dst == src, -1, dst)], axis=1).ravel()
    edge = np.repeat(np.arange(len(edges)), 2)[row >= 0]
    row = row[row >= 0]
    identities = [graph.nodes[u].identity for u in uuids]
    # One block at a time, so each block's incidence temporaries are freed
    # before the next is built.
    return uuids, np.hstack([_semantic_block(identities, edges, row, edge, vocab),
                             _action_block(len(uuids), edges, row, edge, op_vocab),
                             _temporal_block(len(uuids), edges, row, edge)])


def _semantic_block(identities, edges, row, edge, vocab):
    """Per node, the running sum of its token vectors (identity first) over
    its token count."""
    n, dim = len(identities), vocab.dim
    tokens = identities + [e.operation for e in edges]
    tok = np.array([vocab.index.get(t, -1) for t in tokens], dtype=np.intp)
    # Row -1 of the table, an out-of-vocabulary token's, is zeros.
    table = np.vstack([vocab.vectors.astype(np.float64), np.zeros((1, dim))])
    sem_row, sem_tok = np.r_[np.arange(n), row], np.r_[tok[:n], tok[n:][edge]]
    semantic = np.zeros((n, dim))
    for start in range(0, len(sem_row), SCATTER_CHUNK):
        chunk = slice(start, start + SCATTER_CHUNK)
        cells = sem_row[chunk, None] * dim + np.arange(dim)
        np.add.at(semantic.ravel(), cells.ravel(), table[sem_tok[chunk]].ravel())
    return semantic / np.bincount(sem_row, minlength=n)[:, None]


def _action_block(n, edges, row, edge, op_vocab):
    """Per node, the L2-normalised histogram of its operations' weights."""
    width = len(op_vocab)
    positions = {op: i for i, op in enumerate(op_vocab)}
    op_col = np.array([positions.get(e.operation, -1) for e in edges],
                      dtype=np.intp)[edge]
    weight = np.array([e.weight for e in edges], dtype=np.float64)[edge]
    counts = np.zeros((n, width))
    np.add.at(counts.ravel(), (row * width + op_col)[op_col >= 0], weight[op_col >= 0])
    squares = np.einsum("ij,ij->i", counts, counts)
    norm = np.sqrt(squares)
    for k in np.flatnonzero(squares >= EXACT_SUM):
        norm[k] = np.linalg.norm(counts[k])
    return np.divide(counts, norm[:, None], out=counts, where=norm[:, None] != 0.0)


def _temporal_block(n, edges, row, edge):
    """Per node, the min-max-normalised (min, max, mean) of its idle periods."""
    first, last = np.array([(e.first_ts, e.last_ts) for e in edges],
                           dtype=np.float64).reshape(-1, 2)[edge].T
    spread = np.array([e.last_ts != e.first_ts for e in edges], dtype=bool)[edge]
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
    block = np.zeros((n, TEMPORAL_DIM))
    block[idle_row[starts][varied]] = \
        (stats[varied] - low[varied, None]) / span[varied, None]
    return block


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
