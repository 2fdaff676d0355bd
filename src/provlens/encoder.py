"""Message-passing node encoder trained with an identity-contrastive objective.

Each layer computes h_i' = ReLU(W @ agg({h_j : j in N(i) or j == i})) where
the neighborhood is the undirected 1-hop set. Embeddings of nodes that share an
identity label are pulled together (and every other batch member pushed
apart) by a temperature-scaled softmax over cosine similarities. Forward and
backward passes are written out explicitly so gradients can be audited against
finite differences.

The passes take one neighborhood operator per layer. Inference uses the
whole-graph operator at every layer; a training step uses its batch's
receptive field (``batch_field``): only the rows the batch's loss reads and,
layer by layer, the rows those read, as in GraphSAGE's minibatch algorithm
(Hamilton et al., arXiv:1706.02216). Each of those rows aggregates the same
entries in the same order as in the whole graph.

A batch is drawn in a few vectorized rounds on the training generator, and
its gradient rows are scattered through flat element indices; both give the
bytes of a per-member loop and of row-wise scatters, so a model depends only
on its inputs and seed.

``fit`` is the model ``provlens train`` saves: the semantic vocabulary of a
graph's node summaries, then the encoder trained on its feature rows.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from . import features
from .artifacts import (check_seal, keys, read_blob, read_json, seal,
                        write_blob, write_json)
from .config import EncoderConfig, PipelineConfig
from .errors import TrainingError
from .ingest import ProvenanceGraph

log = logging.getLogger(__name__)

EVAL_BATCH_CAP = 512


@dataclass
class EncoderParams:
    weights: list[np.ndarray]  # weights[l] has shape (dims[l+1], dims[l])

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def num_layers(self) -> int:
        return len(self.weights)


@dataclass
class ContrastiveBatch:
    """Row indices into the graph's node list: lists from the sampler and
    ``canonical_eval_batch``, since the benchmark's sample hook tests
    ``anchors`` for truth, and integer arrays from ``batch_field``.
    ``anchors[i]`` pairs with ``positives[i]``; every member other than those
    two is a negative. Members are distinct; anchors and positives may repeat,
    and a positive need not be a member."""
    anchors: list[int] | np.ndarray
    positives: list[int] | np.ndarray
    members: list[int] | np.ndarray

    def __len__(self) -> int:
        return len(self.anchors)


@dataclass
class TrainResult:
    params: EncoderParams
    loss_trace: list[float] = field(default_factory=list)


def init_params(dims: list[int], seed: int = 0) -> EncoderParams:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    rng = np.random.default_rng(seed)
    weights = []
    for l in range(len(dims) - 1):
        bound = 1.0 / math.sqrt(dims[l])
        weights.append(rng.uniform(-bound, bound, size=(dims[l + 1], dims[l])))
    return EncoderParams(weights)


def propagation_matrix(graph: ProvenanceGraph) -> sparse.csr_matrix:
    """Neighborhood operator: row i averages the undirected 1-hop neighbor set
    of node i plus the node itself. Parallel edges count once."""
    n = len(graph.nodes)
    src, dst = graph.edge_columns[:, :2].T
    loops = np.arange(n, dtype=np.intp)
    rows, cols = np.divmod(np.unique(np.concatenate([src * n + dst, dst * n + src,
                                                     loops * n + loops])), n)
    vals = 1.0 / np.bincount(rows, minlength=n)[rows]
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def batch_field(prop: sparse.csr_matrix, batch: ContrastiveBatch,
                num_layers: int) -> tuple[list[sparse.csr_matrix],
                                          ContrastiveBatch]:
    """The receptive field of a batch: per-layer operators that compute only
    the rows its loss reads, ``members ∪ positives`` in ascending order, and
    the batch renumbered to positions in those rows.

    ``ops[-1]`` is ``prop`` restricted to those rows; going back a layer, the
    next operator's rows are the columns the later one reads. Each operator's
    columns are renumbered in ascending order, except that ``ops[0]`` keeps
    the global columns and applies to the whole feature matrix. Every row
    keeps ``prop``'s entries in their order, so its sums are the whole
    graph's, and so is its embedding wherever BLAS computes a row of a dense
    product the same way whatever the number of rows."""
    n = prop.shape[0]
    marked = np.zeros(n, dtype=bool)
    marked[batch.members] = True
    marked[batch.positives] = True
    position = np.cumsum(marked) - 1
    local = ContrastiveBatch(anchors=position[batch.anchors],
                             positives=position[batch.positives],
                             members=position[batch.members])
    rows = np.flatnonzero(marked)
    ops = []
    for layer in reversed(range(num_layers)):
        starts = prop.indptr[rows]
        counts = prop.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=prop.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        entries = (np.arange(indptr[-1])
                   + np.repeat(starts - indptr[:-1], counts))
        cols, data = prop.indices[entries], prop.data[entries]
        if layer == 0:
            ops.append(sparse.csr_matrix((data, cols, indptr),
                                         shape=(len(rows), n)))
            break
        marked = np.zeros(n, dtype=bool)
        marked[cols] = True
        position = (np.cumsum(marked) - 1).astype(prop.indices.dtype)
        inputs = np.flatnonzero(marked)
        ops.append(sparse.csr_matrix((data, position[cols], indptr),
                                     shape=(len(rows), len(inputs))))
        rows = inputs
    return ops[::-1], local


def forward_pass(ops: list[sparse.csr_matrix], h0: np.ndarray,
                 params: EncoderParams):
    """Run all layers, layer ``l`` aggregating with ``ops[l]``, returning the
    final embeddings of ``ops[-1]``'s rows and the per-layer cache
    (aggregated inputs and pre-activations) needed for backpropagation."""
    h = h0
    agg_cache, pre_cache = [], []
    for op, w in zip(ops, params.weights):
        aggregated = op @ h
        pre = aggregated @ w.T
        agg_cache.append(aggregated)
        pre_cache.append(pre)
        h = np.maximum(pre, 0.0)
    return h, (agg_cache, pre_cache)


def backward_pass(ops: list[sparse.csr_matrix], params: EncoderParams, cache,
                  d_out: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. every layer weight matrix, given the
    operators and cache of ``forward_pass`` and the loss gradient w.r.t. the
    final embeddings."""
    agg_cache, pre_cache = cache
    grads: list[np.ndarray] = [np.zeros_like(w) for w in params.weights]
    g = d_out
    for l in reversed(range(params.num_layers)):
        d_pre = g * (pre_cache[l] > 0.0).astype(np.float64)
        grads[l] = d_pre.T @ agg_cache[l]
        if l > 0:
            g = ops[l].T @ (d_pre @ params.weights[l])
    return grads


def forward(graph: ProvenanceGraph, h0: np.ndarray,
            params: EncoderParams) -> np.ndarray:
    """Embed the graph's nodes from their feature rows ``h0``, in the graph's
    node order. Deterministic and read-only."""
    z, _ = forward_pass([propagation_matrix(graph)] * params.num_layers,
                        np.asarray(h0, dtype=np.float64), params)
    return z


# --- contrastive objective -------------------------------------------------

def _softmax_terms(z: np.ndarray, batch: ContrastiveBatch,
                   temperature: float):
    """The batch loss and what its gradient reuses: per part (anchors,
    members, positives) the row indices, unit rows and inverse norms (zero
    for a zero-norm row); the anchor-member and anchor-positive cosines; the
    positive's softmax weight; and the members' softmax numerators and
    denominators. An anchor's own column and its positive's column get logit
    -inf, so they drop out."""
    idx = [np.asarray(part, dtype=np.intp)
           for part in (batch.anchors, batch.members, batch.positives)]
    rows = [z[part] for part in idx]
    norms = [np.linalg.norm(part, axis=1) for part in rows]
    inv = [np.divide(1.0, v, out=np.zeros_like(v), where=v > 0) for v in norms]
    anchors, members, positives = unit = [r * i[:, None] for r, i in zip(rows, inv)]
    cos_members = anchors @ members.T                # (m, B)
    cos_pos = np.einsum("md,md->m", anchors, positives)

    column = np.full(len(z), -1, dtype=np.intp)
    column[idx[1]] = np.arange(len(idx[1]))
    own = column[np.stack([idx[0], idx[2]], axis=1)]  # (m, 2) member columns
    owner, which = np.nonzero(own >= 0)
    logit_pos = cos_pos / temperature
    exp_mem = cos_members / temperature
    exp_mem[owner, own[owner, which]] = -np.inf
    shift = np.maximum(logit_pos, np.max(exp_mem, axis=1, initial=-np.inf))
    exp_pos = np.exp(logit_pos - shift)
    np.subtract(exp_mem, shift[:, None], out=exp_mem)
    np.exp(exp_mem, out=exp_mem)
    denom = exp_pos + exp_mem.sum(axis=1)
    p_pos = exp_pos / denom
    return (float(-np.sum(np.log(p_pos))), idx, unit, inv, cos_members,
            cos_pos, p_pos, exp_mem, denom)


def batch_loss(z: np.ndarray, batch: ContrastiveBatch,
               temperature: float) -> float:
    """The loss of ``batch_loss_grad`` without its gradient."""
    return _softmax_terms(z, batch, temperature)[0] if len(batch) else 0.0


def batch_loss_grad(z: np.ndarray, batch: ContrastiveBatch,
                    temperature: float):
    """Loss and dLoss/dZ for one batch: the sum over anchors of
    -log softmax(anchor-positive) against every other batch member, with
    temperature-scaled cosine logits. A zero-norm row has cosine 0 with every
    other row and receives zero gradient.
    """
    if len(batch) == 0:
        return 0.0, np.zeros_like(z)
    (loss, idx, (anchors, members, positives), inv, cos_members, cos_pos,
     p_pos, g_mem, denom) = _softmax_terms(z, batch, temperature)
    g_mem /= denom[:, None]                                 # (m, B)
    g_mem /= temperature
    g_pos = (p_pos - 1.0) / temperature                     # (m,)
    g_cos = g_mem * cos_members

    row_dot = g_cos.sum(axis=1) + g_pos * cos_pos
    d_anchor = (g_mem @ members + g_pos[:, None] * positives
                - row_dot[:, None] * anchors)
    d_member = g_mem.T @ anchors - g_cos.sum(axis=0)[:, None] * members
    d_positive = g_pos[:, None] * anchors - (g_pos * cos_pos)[:, None] * positives

    # Members are distinct, so they take a direct indexed add; anchors and
    # positives may repeat, so they accumulate in order, element by element
    # through the flat view of a C-ordered dz (a reshape of any other layout
    # would be a copy), which adds in the order of a row-wise add.at.
    dz = np.zeros(z.shape, dtype=z.dtype)
    flat, width = dz.reshape(-1), np.arange(z.shape[1])
    np.add.at(flat, (idx[0][:, None] * len(width) + width).ravel(),
              (d_anchor * inv[0][:, None]).ravel())
    dz[idx[1]] += d_member * inv[1][:, None]
    np.add.at(flat, (idx[2][:, None] * len(width) + width).ravel(),
              (d_positive * inv[2][:, None]).ravel())
    return loss, dz


@dataclass(frozen=True)
class IdentityGroups:
    """Rows grouped by identity, as read-only arrays. ``flat`` holds every
    identity's rows, contiguous and ascending; row ``r``'s group is
    ``flat[start[r]:start[r] + size[r]]``, and ``r`` is at position
    ``rank[r]`` in it."""
    flat: np.ndarray
    start: np.ndarray
    size: np.ndarray
    rank: np.ndarray

    def __len__(self) -> int:
        return len(self.start)


def identity_groups(identities: list[str]) -> IdentityGroups:
    """The rows of each identity, for rows ``0 .. len(identities) - 1``."""
    ids: dict[str, int] = {}
    label = np.fromiter((ids.setdefault(identity, len(ids))
                         for identity in identities),
                        dtype=np.intp, count=len(identities))
    flat = np.argsort(label, kind="stable")
    counts = np.bincount(label, minlength=len(ids))
    start = (np.cumsum(counts) - counts)[label]
    rank = np.empty_like(flat)
    rank[flat] = np.arange(len(flat)) - start[flat]
    parts = (flat, start, counts[label], rank)
    for part in parts:
        part.flags.writeable = False
    return IdentityGroups(*parts)


def sample_contrastive_batch(groups: IdentityGroups, batch_size: int,
                             rng: np.random.Generator) -> ContrastiveBatch:
    """Draw a training batch over rows ``0 .. len(groups) - 1``.

    Batch members are a uniform sample of rows. In member order, each member
    not yet consumed whose identity has at least two rows anchors one pair:
    its positive is drawn from all same-identity peers, and both are
    consumed. Every other batch member acts as that anchor's negative.
    Singleton identities can only ever appear as negatives.

    The positives are drawn in rounds, one ``rng.integers`` call per round
    for every candidate from the round's first position on. The draws before
    the first candidate that an earlier draw consumes are final; they are
    drawn again from the round's saved generator state, which gives the same
    values and leaves the generator where one call per anchor would, so the
    batch and the stream are those of the per-member loop.
    """
    members = rng.permutation(len(groups))[:batch_size]
    n = len(members)
    position = np.full(len(groups), n)  # n: a row outside the batch
    position[members] = np.arange(n)
    high, rank = groups.size[members] - 1, groups.rank[members]
    base = groups.start[members]
    live = np.append(high > 0, False)  # eligible and not yet consumed
    taken = chosen = np.empty(0, dtype=np.intp)
    lo = 0
    while len(cand := lo + np.flatnonzero(live[lo:n])):
        state = rng.bit_generator.state
        k = rng.integers(high[cand])
        k += k >= rank[cand]  # step past the member itself
        positive = groups.flat[base[cand] + k]
        hit = position[positive]
        hit[hit <= cand] = n  # a positive on no later member clashes with none
        lo = hit.min()  # the first later member an earlier draw consumes
        final = np.searchsorted(cand, lo)  # the draws before it are final
        if final < len(cand):
            rng.bit_generator.state = state
            rng.integers(high[cand[:final]])
            cand, positive = cand[:final], positive[:final]
        live[position[positive]] = False
        taken = np.concatenate([taken, cand])
        chosen = np.concatenate([chosen, positive])
        lo += 1
    return ContrastiveBatch(anchors=members[taken].tolist(),
                            positives=chosen.tolist(),
                            members=members.tolist())


def canonical_eval_batch(groups: IdentityGroups,
                         cap: int = EVAL_BATCH_CAP) -> ContrastiveBatch:
    """Deterministic batch used to trace training progress: the first ``cap``
    rows, each eligible one anchored with its first peer."""
    members = np.arange(min(len(groups), cap))
    anchors = members[groups.size[members] >= 2]
    positives = groups.flat[groups.start[anchors]
                            + (groups.rank[anchors] == 0)]
    return ContrastiveBatch(anchors=anchors.tolist(),
                            positives=positives.tolist(),
                            members=members.tolist())


def train(graph: ProvenanceGraph, h0: dict[str, np.ndarray],
          config: EncoderConfig, seed: int) -> TrainResult:
    """SGD over sampled contrastive batches. ``h0`` maps every node of
    ``graph`` to its feature row. Each step computes embeddings, loss and
    gradients on its batch's receptive field only (``batch_field``), not on
    the whole graph.

    The loss trace holds one entry per epoch, evaluated on a fixed canonical
    batch so the trace is comparable across epochs. Weights are rounded to
    float32-representable values at the end so that serialization round-trips
    exactly.
    """
    matrix = np.stack([np.asarray(h0[u], dtype=np.float64) for u in graph.nodes])
    dims = [matrix.shape[1]] + [config.embedding_dim] * config.num_layers
    params = init_params(dims, seed=seed)
    prop = propagation_matrix(graph)
    groups = identity_groups([node.identity for node in graph.nodes.values()])
    rng = np.random.default_rng(seed)
    eval_ops, eval_batch = batch_field(prop, canonical_eval_batch(groups),
                                       params.num_layers)

    batches_per_epoch = max(1, math.ceil(len(matrix) / config.batch_size))
    trace: list[float] = []
    skipped = 0
    # a diverging run overflows on its way to a non-finite loss, which the
    # checks below report; numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            for step in range(batches_per_epoch):
                batch = sample_contrastive_batch(groups, config.batch_size, rng)
                if not batch.anchors:
                    skipped += 1
                    continue
                ops, batch = batch_field(prop, batch, params.num_layers)
                z, cache = forward_pass(ops, matrix, params)
                loss, dz = batch_loss_grad(z, batch, config.temperature)
                if not math.isfinite(loss):
                    raise TrainingError(
                        f"non-finite loss {loss} at epoch {epoch} step {step}")
                grads = backward_pass(ops, params, cache, dz)
                for w, dw in zip(params.weights, grads):
                    w -= config.learning_rate * dw
            z, _ = forward_pass(eval_ops, matrix, params)
            epoch_loss = batch_loss(z, eval_batch, config.temperature)
            if not math.isfinite(epoch_loss):
                raise TrainingError(
                    f"non-finite evaluation loss after epoch {epoch}")
            trace.append(epoch_loss)
    if skipped:
        log.warning("%d of %d steps skipped: no identity with >= 2 members in "
                    "the batch", skipped, config.epochs * batches_per_epoch)

    params.weights = [w.astype("<f4").astype(np.float64) for w in params.weights]
    return TrainResult(params=params, loss_trace=trace)


# --- serialization ---------------------------------------------------------

def encoder_paths(directory: str | Path) -> dict[str, Path]:
    base = Path(directory)
    return {"header": base / "encoder.json",
            "weights": base / "encoder.weights.bin"}


def save_params(params: EncoderParams, directory: str | Path
                ) -> dict[str, str]:
    """Write the encoder; the digest of each file written, by file name."""
    paths = encoder_paths(directory)
    return {
        paths["header"].name: write_json(paths["header"],
                                         {"dims": params.dims}),
        paths["weights"].name: write_blob(
            paths["weights"],
            np.concatenate([w.ravel() for w in params.weights]), "<f4")}


def load_params(directory: str | Path, checked: dict) -> EncoderParams:
    """The encoder from ``load_model``'s checked bytes by file name."""
    paths = encoder_paths(directory)
    header = read_json(paths["header"], checked[paths["header"].name],
                       keys(dims="integer[]"))
    dims = header["dims"]
    shapes = list(zip(dims[1:], dims[:-1]))
    sizes = [rows * cols for rows, cols in shapes]
    raw = read_blob(paths["weights"], checked[paths["weights"].name], "<f4",
                    (sum(sizes),))
    weights = [part.reshape(shape).astype(np.float64) for part, shape
               in zip(np.split(raw, np.cumsum(sizes)[:-1]), shapes)]
    return EncoderParams(weights)


def fit(graph: ProvenanceGraph, cfg: PipelineConfig
        ) -> tuple[features.SemanticVocab, TrainResult]:
    """``provlens train``'s vocabulary and encoder for ``graph``, unsaved."""
    summaries = [features.build_node_summary(node, graph)
                 for node in graph.nodes.values()]
    vocab = features.train_semantic_vocab(
        summaries, cfg.features.semantic_dim, window=cfg.features.w2v_window,
        negatives=cfg.features.w2v_negatives, op_vocab=cfg.features.op_vocab)
    uuids, h0 = features.feature_matrix(graph, vocab, cfg.features.op_vocab)
    return vocab, train(graph, dict(zip(uuids, h0)), cfg.encoder, cfg.seed)


def model_paths(directory: str | Path) -> dict[str, Path]:
    """The files of a trained model, the vocabulary's and the encoder's,
    keyed by name, and the one seal over them."""
    paths = {path.name: path for part in (features.vocab_paths, encoder_paths)
             for path in part(directory).values()}
    return {**paths, "seal": Path(directory) / "model.seal.json"}


def save_model(vocab: features.SemanticVocab, params: EncoderParams,
               directory: str | Path) -> None:
    """Write the vocabulary and the encoder, then seal them with the digests
    their writers return, so a save cut short leaves a set that fails its
    seal."""
    seal(model_paths(directory), {**features.save_vocab(vocab, directory),
                                  **save_params(params, directory)})


def load_model(directory: str | Path
               ) -> tuple[features.SemanticVocab, EncoderParams, str]:
    """The vocabulary and the encoder, decoded from the bytes the model's
    seal check read, and the model's id: the sha256 of the seal as checked."""
    checked = check_seal(model_paths(directory))
    return (features.load_vocab(directory, checked),
            load_params(directory, checked),
            hashlib.sha256(checked["seal"]).hexdigest())
