"""Message-passing node encoder trained with an identity-contrastive objective.

Each layer computes h_i' = act(W @ agg({h_j : j in N(i) or j == i})) where the
neighborhood is the undirected 1-hop set. Embeddings of nodes that share an
identity label are pulled together (and every other batch member pushed
apart) by a temperature-scaled softmax over cosine similarities. Forward and
backward passes are written out explicitly so gradients can be audited against
finite differences.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from .artifacts import keys, read_blob, read_json, write_blob, write_json
from .config import EncoderConfig
from .errors import ConfigError, TrainingError
from .ingest import ProvenanceGraph

log = logging.getLogger(__name__)

EVAL_BATCH_CAP = 512


@dataclass
class EncoderParams:
    dims: list[int]
    weights: list[np.ndarray]  # weights[l] has shape (dims[l+1], dims[l])
    activation: str = "relu"
    aggregation: str = "mean"
    seed: int = 0

    @property
    def num_layers(self) -> int:
        return len(self.weights)


@dataclass
class ContrastiveBatch:
    """Row indices into the uuid-sorted node list. ``anchors[i]`` pairs with
    ``positives[i]``; every member other than those two is a negative."""
    anchors: list[int]
    positives: list[int]
    members: list[int]

    def __len__(self) -> int:
        return len(self.anchors)


@dataclass
class TrainResult:
    params: EncoderParams
    loss_trace: list[float] = field(default_factory=list)


def init_params(dims: list[int], activation: str = "relu",
                aggregation: str = "mean", seed: int = 0) -> EncoderParams:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    if len(dims) < 2:
        raise ConfigError("dims must contain at least input and output sizes")
    rng = np.random.default_rng(seed)
    weights = []
    for l in range(len(dims) - 1):
        bound = 1.0 / math.sqrt(dims[l])
        weights.append(rng.uniform(-bound, bound, size=(dims[l + 1], dims[l])))
    return EncoderParams(dims=list(dims), weights=weights, activation=activation,
                         aggregation=aggregation, seed=seed)


def propagation_matrix(graph: ProvenanceGraph, uuids: list[str],
                       aggregation: str) -> sparse.csr_matrix:
    """Neighborhood operator: row i averages (or sums) the undirected 1-hop
    neighbor set of node i plus the node itself. Parallel edges count once."""
    pos = {u: i for i, u in enumerate(uuids)}
    neighbor_sets: list[set[int]] = [{i} for i in range(len(uuids))]
    for edge in graph.edges:
        i, j = pos.get(edge.src), pos.get(edge.dst)
        if i is None or j is None:
            continue
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)
    rows, cols, vals = [], [], []
    for i, nbrs in enumerate(neighbor_sets):
        ordered = sorted(nbrs)
        value = 1.0 / len(ordered) if aggregation == "mean" else 1.0
        for j in ordered:
            rows.append(i)
            cols.append(j)
            vals.append(value)
    n = len(uuids)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _activate(s: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(s, 0.0)
    if kind == "tanh":
        return np.tanh(s)
    if kind == "identity":
        return s
    raise ConfigError(f"unknown activation {kind!r}")


def _activate_prime(s: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (s > 0.0).astype(np.float64)
    if kind == "tanh":
        return 1.0 - np.tanh(s) ** 2
    if kind == "identity":
        return np.ones_like(s)
    raise ConfigError(f"unknown activation {kind!r}")


def forward_pass(prop: sparse.csr_matrix, h0: np.ndarray,
                 params: EncoderParams):
    """Run all layers, returning final embeddings and the per-layer cache
    (aggregated inputs and pre-activations) needed for backpropagation."""
    if h0.shape[1] != params.dims[0]:
        raise ConfigError(
            f"feature dimension {h0.shape[1]} does not match encoder input "
            f"dimension {params.dims[0]}")
    h = h0
    agg_cache, pre_cache = [], []
    for w in params.weights:
        aggregated = prop @ h
        pre = aggregated @ w.T
        agg_cache.append(aggregated)
        pre_cache.append(pre)
        h = _activate(pre, params.activation)
    return h, (agg_cache, pre_cache)


def backward_pass(prop: sparse.csr_matrix, params: EncoderParams, cache,
                  d_out: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. every layer weight matrix, given the
    loss gradient w.r.t. the final embeddings."""
    agg_cache, pre_cache = cache
    grads: list[np.ndarray] = [np.zeros_like(w) for w in params.weights]
    g = d_out
    for l in reversed(range(params.num_layers)):
        d_pre = g * _activate_prime(pre_cache[l], params.activation)
        grads[l] = d_pre.T @ agg_cache[l]
        if l > 0:
            g = prop.T @ (d_pre @ params.weights[l])
    return grads


def forward(graph: ProvenanceGraph, h0: dict[str, np.ndarray],
            params: EncoderParams) -> dict[str, np.ndarray]:
    """Embed every node of the graph; deterministic and read-only."""
    uuids = sorted(h0)
    if not uuids:
        return {}
    matrix = np.stack([np.asarray(h0[u], dtype=np.float64) for u in uuids])
    prop = propagation_matrix(graph, uuids, params.aggregation)
    z, _ = forward_pass(prop, matrix, params)
    return {u: z[i] for i, u in enumerate(uuids)}


# --- contrastive objective -------------------------------------------------

def batch_loss_grad(z: np.ndarray, batch: ContrastiveBatch,
                    temperature: float):
    """Loss and dLoss/dZ for one batch: the sum over anchors of
    -log softmax(anchor-positive) against every other batch member, with
    temperature-scaled cosine logits. A zero-norm row has cosine 0 with every
    other row and receives zero gradient.
    """
    anchor_idx = np.asarray(batch.anchors, dtype=np.intp)
    pos_idx = np.asarray(batch.positives, dtype=np.intp)
    member_idx = np.asarray(batch.members, dtype=np.intp)
    if anchor_idx.size == 0:
        return 0.0, np.zeros_like(z)
    norms = np.linalg.norm(z, axis=1)
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    z_hat = z * inv[:, None]
    anchors = z_hat[anchor_idx]                      # (m, d)
    members = z_hat[member_idx]                      # (B, d)
    positives = z_hat[pos_idx]                       # (m, d)
    cos_members = anchors @ members.T                # (m, B)
    cos_pos = np.einsum("md,md->m", anchors, positives)

    valid = (member_idx[None, :] != anchor_idx[:, None]) \
        & (member_idx[None, :] != pos_idx[:, None])
    logit_pos = cos_pos / temperature
    logit_mem = cos_members / temperature
    shift = np.maximum(logit_pos,
                       np.max(np.where(valid, logit_mem, -np.inf), axis=1,
                              initial=-np.inf))
    exp_pos = np.exp(logit_pos - shift)
    exp_mem = np.where(valid, np.exp(logit_mem - shift[:, None]), 0.0)
    denom = exp_pos + exp_mem.sum(axis=1)
    loss = float(-np.sum(np.log(exp_pos / denom)))

    g_mem = exp_mem / denom[:, None] / temperature          # (m, B)
    g_pos = (exp_pos / denom - 1.0) / temperature           # (m,)

    row_dot = (g_mem * cos_members).sum(axis=1) + g_pos * cos_pos
    d_anchor = (g_mem @ members + g_pos[:, None] * positives
                - row_dot[:, None] * anchors)
    d_member = g_mem.T @ anchors \
        - (g_mem * cos_members).sum(axis=0)[:, None] * members
    d_positive = g_pos[:, None] * anchors - (g_pos * cos_pos)[:, None] * positives

    dz = np.zeros_like(z)
    np.add.at(dz, anchor_idx, d_anchor * inv[anchor_idx][:, None])
    np.add.at(dz, member_idx, d_member * inv[member_idx][:, None])
    np.add.at(dz, pos_idx, d_positive * inv[pos_idx][:, None])
    return loss, dz


def identity_groups(identities: list[str]) -> list[list[int]]:
    """Row -> the ascending rows that share its identity. Rows of one identity
    share one list object."""
    by_identity: dict[str, list[int]] = {}
    for row, identity in enumerate(identities):
        by_identity.setdefault(identity, []).append(row)
    return [by_identity[identity] for identity in identities]


def sample_contrastive_batch(groups: list[list[int]], batch_size: int,
                             rng: np.random.Generator) -> ContrastiveBatch:
    """Draw a training batch over rows ``0 .. len(groups) - 1``.

    Batch members are a uniform sample of rows. Each member whose identity has
    at least two rows anchors one pair (its positive is drawn from all
    same-identity peers and both are consumed); every other batch member acts
    as that anchor's negative. Singleton identities can only ever appear as
    negatives.
    """
    if batch_size < 2:
        raise ConfigError("batch_size must be >= 2")
    members = rng.permutation(len(groups))[:batch_size].tolist()
    anchors, positives = [], []
    consumed: set[int] = set()
    for member in members:
        group = groups[member]
        if member in consumed or len(group) < 2:
            continue
        k = int(rng.integers(len(group) - 1))
        if k >= bisect_left(group, member):
            k += 1  # step past the member itself
        positive = group[k]
        consumed.add(member)
        consumed.add(positive)
        anchors.append(member)
        positives.append(positive)
    if not anchors:
        log.warning("no identity with >= 2 members in batch sample; step skipped")
    return ContrastiveBatch(anchors=anchors, positives=positives,
                            members=members)


def canonical_eval_batch(groups: list[list[int]],
                         cap: int = EVAL_BATCH_CAP) -> ContrastiveBatch:
    """Deterministic batch used to trace training progress: the first ``cap``
    rows, each eligible one anchored with its first peer."""
    members = list(range(min(len(groups), cap)))
    anchors, positives = [], []
    for member in members:
        group = groups[member]
        if len(group) < 2:
            continue
        anchors.append(member)
        positives.append(group[1] if group[0] == member else group[0])
    return ContrastiveBatch(anchors=anchors, positives=positives,
                            members=members)


def train(graph: ProvenanceGraph, h0: dict[str, np.ndarray],
          config: EncoderConfig, seed: int) -> TrainResult:
    """SGD over sampled contrastive batches; full-graph forward per step.

    The loss trace holds one entry per epoch, evaluated on a fixed canonical
    batch so the trace is comparable across epochs. Weights are rounded to
    float32-representable values at the end so that serialization round-trips
    exactly.
    """
    uuids = sorted(h0)
    if not uuids:
        raise ConfigError("cannot train an encoder on an empty graph")
    matrix = np.stack([np.asarray(h0[u], dtype=np.float64) for u in uuids])
    dims = [matrix.shape[1]] + [config.embedding_dim] * config.num_layers
    params = init_params(dims, activation=config.activation,
                         aggregation=config.aggregation, seed=seed)
    prop = propagation_matrix(graph, uuids, config.aggregation)
    groups = identity_groups([graph.nodes[u].identity for u in uuids])
    rng = np.random.default_rng(seed)
    eval_batch = canonical_eval_batch(groups)

    batches_per_epoch = max(1, math.ceil(len(uuids) / config.batch_size))
    trace: list[float] = []
    for epoch in range(config.epochs):
        for step in range(batches_per_epoch):
            batch = sample_contrastive_batch(groups, config.batch_size, rng)
            if not batch.anchors:
                continue
            z, cache = forward_pass(prop, matrix, params)
            loss, dz = batch_loss_grad(z, batch, config.temperature)
            if not math.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss {loss} at epoch {epoch} step {step}")
            grads = backward_pass(prop, params, cache, dz)
            for w, dw in zip(params.weights, grads):
                w -= config.learning_rate * dw
        z, _ = forward_pass(prop, matrix, params)
        epoch_loss, _ = batch_loss_grad(z, eval_batch, config.temperature)
        if not math.isfinite(epoch_loss):
            raise TrainingError(f"non-finite evaluation loss after epoch {epoch}")
        trace.append(epoch_loss)

    params.weights = [w.astype("<f4").astype(np.float64) for w in params.weights]
    return TrainResult(params=params, loss_trace=trace)


# --- serialization ---------------------------------------------------------

def encoder_paths(directory: str | Path) -> dict[str, Path]:
    base = Path(directory)
    return {"header": base / "encoder.json",
            "weights": base / "encoder.weights.bin"}


def save_params(params: EncoderParams, directory: str | Path) -> None:
    paths = encoder_paths(directory)
    write_json(paths["header"], {
        "dims": params.dims,
        "activation": params.activation,
        "aggregation": params.aggregation,
        "seed": params.seed,
        "dtype": "<f4",
    })
    write_blob(paths["weights"],
               np.concatenate([w.ravel() for w in params.weights]), "<f4")


def load_params(directory: str | Path) -> EncoderParams:
    paths = encoder_paths(directory)
    header = read_json(paths["header"],
                       keys("activation aggregation dims dtype seed"))
    dims = header["dims"]
    shapes = list(zip(dims[1:], dims[:-1]))
    sizes = [rows * cols for rows, cols in shapes]
    raw = read_blob(paths["weights"], "<f4", (sum(sizes),))
    weights = [part.reshape(shape).astype(np.float64) for part, shape
               in zip(np.split(raw, np.cumsum(sizes)[:-1]), shapes)]
    return EncoderParams(dims=dims, weights=weights,
                         activation=header["activation"],
                         aggregation=header["aggregation"], seed=header["seed"])
