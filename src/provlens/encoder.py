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
from .errors import ArtifactError, ConfigError, TrainingError
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
    ``positives[i]``; every member other than those two is a negative.
    Members are distinct; anchors and positives may repeat, and a positive
    need not be a member."""
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


def propagation_matrix(graph: ProvenanceGraph,
                       uuids: list[str]) -> sparse.csr_matrix:
    """Neighborhood operator: row i averages the undirected 1-hop neighbor set
    of node i plus the node itself. Parallel edges count once."""
    n = len(uuids)
    pos = {u: i for i, u in enumerate(uuids)}
    src = np.array([pos.get(e.src, -1) for e in graph.edges], dtype=np.int64)
    dst = np.array([pos.get(e.dst, -1) for e in graph.edges], dtype=np.int64)
    keep = (src >= 0) & (dst >= 0)
    src, dst, loops = src[keep], dst[keep], np.arange(n, dtype=np.int64)
    rows, cols = np.divmod(np.unique(np.concatenate([src * n + dst, dst * n + src,
                                                     loops * n + loops])), n)
    vals = 1.0 / np.bincount(rows, minlength=n)[rows]
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


def forward(graph: ProvenanceGraph, uuids: list[str], h0: np.ndarray,
            params: EncoderParams) -> np.ndarray:
    """Embed the nodes ``uuids`` of the graph from their feature rows ``h0``;
    row i of the result belongs to ``uuids[i]``. Deterministic and read-only."""
    z, _ = forward_pass(propagation_matrix(graph, uuids),
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
    np.exp(exp_mem - shift[:, None], out=exp_mem)
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
    # positives may repeat, so they accumulate in order.
    dz = np.zeros_like(z)
    np.add.at(dz, idx[0], d_anchor * inv[0][:, None])
    dz[idx[1]] += d_member * inv[1][:, None]
    np.add.at(dz, idx[2], d_positive * inv[2][:, None])
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
    prop = propagation_matrix(graph, uuids)
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
        epoch_loss = batch_loss(z, eval_batch, config.temperature)
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
    if header["aggregation"] != "mean":
        raise ArtifactError(f"unreadable artifact {paths['header']}: unknown "
                            f"aggregation {header['aggregation']!r}",
                            path=str(paths["header"]))
    dims = header["dims"]
    shapes = list(zip(dims[1:], dims[:-1]))
    sizes = [rows * cols for rows, cols in shapes]
    raw = read_blob(paths["weights"], "<f4", (sum(sizes),))
    weights = [part.reshape(shape).astype(np.float64) for part, shape
               in zip(np.split(raw, np.cumsum(sizes)[:-1]), shapes)]
    return EncoderParams(dims=dims, weights=weights,
                         activation=header["activation"],
                         aggregation=header["aggregation"], seed=header["seed"])
