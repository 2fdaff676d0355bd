"""Reference implementations the encoder and feature tests check the
production code against byte for byte: the neighborhood operator built from
per-node neighbor sets, and the node feature rows built by one walk over each
node's incident edges."""

import numpy as np
from scipy import sparse

from provlens.features import TEMPORAL_DIM
from provlens.ingest import incident_edges


def propagation_matrix(graph, uuids):
    """Row i averages the undirected 1-hop neighbor set of node i plus the
    node itself. Parallel edges count once."""
    pos = {u: i for i, u in enumerate(uuids)}
    neighbor_sets = [{i} for i in range(len(uuids))]
    for edge in graph.edges:
        i, j = pos.get(edge.src), pos.get(edge.dst)
        if i is None or j is None:
            continue
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)
    rows, cols, vals = [], [], []
    for i, nbrs in enumerate(neighbor_sets):
        ordered = sorted(nbrs)
        value = 1.0 / len(ordered)
        for j in ordered:
            rows.append(i)
            cols.append(j)
            vals.append(value)
    n = len(uuids)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def feature_matrix(graph, vocab, op_vocab):
    """h0 rows in sorted-uuid order: per node, the running sum of its token
    vectors (identity, then incident operations) over the token count, the
    L2-normalised operation histogram, and the min-max-normalised idle-period
    (min, max, mean)."""
    uuids = sorted(graph.nodes)
    positions = {op: i for i, op in enumerate(op_vocab)}
    act_end = vocab.dim + len(op_vocab)
    h0 = np.zeros((len(uuids), act_end + TEMPORAL_DIM))
    for row, uuid in enumerate(uuids):
        tokens = [graph.nodes[uuid].identity]
        counts = np.zeros(len(op_vocab))
        stamps = []
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
            i = vocab.index.get(token)
            semantic += (np.zeros(vocab.dim) if i is None
                         else vocab.vectors[i].astype(np.float64))
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
