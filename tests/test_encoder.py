import logging
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provlens.config import EncoderConfig
from provlens.encoder import (
    ContrastiveBatch,
    batch_field,
    batch_loss,
    batch_loss_grad,
    backward_pass,
    canonical_eval_batch,
    encoder_paths,
    forward,
    forward_pass,
    identity_groups,
    init_params,
    load_params,
    propagation_matrix,
    sample_contrastive_batch,
    save_params,
    train,
    EncoderParams,
)

import contrastive_oracle
import graph_oracle
from conftest import (assert_canonical_json_files, manual_graph, oracle_case,
                      oracle_graphs, shuffled_graph)
from contrastive_oracle import infonce_loss_grad, sample_uuid_batch


def path_graph_3(dim=2):
    """a - b - c with hand-set 2-dim features."""
    nodes = [("a", "subject", {"name": "a"}, "subject::a"),
             ("b", "subject", {"name": "b"}, "subject::a"),
             ("c", "subject", {"name": "c"}, "subject::c")]
    edges = [("a", "b", "READ", 0, 0, 1), ("b", "c", "READ", 1, 1, 1)]
    return manual_graph(nodes, edges)


def identity_params(dim, layers=1):
    return EncoderParams(weights=[np.eye(dim) for _ in range(layers)])


# --- forward -------------------------------------------------------------------

def embed(graph, h0, params):
    """``forward`` over the rows of a uuid -> feature dict, keyed back by
    uuid."""
    uuids = sorted(h0)
    z = forward(graph, np.stack([h0[u] for u in uuids]), params)
    return dict(zip(uuids, z))


def test_forward_isolated_node_identity_weights():
    """With identity weights an isolated node's row passes through ReLU
    only: its negative entry becomes zero."""
    graph = manual_graph([("x", "subject", {"name": "x"}, "subject::x")], [])
    h0 = np.array([[1.5, -2.0]])
    z = forward(graph, h0, identity_params(2))
    assert np.array_equal(z, [[1.5, 0.0]])


def test_forward_symmetric_nodes_equal():
    nodes = [("a", "subject", {}, "i"), ("b", "subject", {}, "i")]
    edges = [("a", "b", "READ", 0, 0, 1)]
    graph = manual_graph(nodes, edges)
    h0 = np.array([[1.0, 2.0], [1.0, 2.0]])
    params = init_params([2, 3, 3], seed=1)
    z = forward(graph, h0, params)
    assert np.array_equal(z[0], z[1])


def test_forward_matches_hand_matrix_arithmetic():
    graph = path_graph_3()
    matrix = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # rows a, b, c
    w0 = np.array([[1.0, -0.75], [0.75, 1.0]])
    w1 = np.array([[1.0, -2.0], [-0.5, 0.25]])
    params = EncoderParams(weights=[w0, w1])
    assert params.dims == [2, 2, 2] and params.num_layers == 2
    z = forward(graph, matrix, params)

    # independent straight-line recomputation of the two-layer recurrence
    agg1 = np.stack([(matrix[0] + matrix[1]) / 2,
                     (matrix[0] + matrix[1] + matrix[2]) / 3,
                     (matrix[1] + matrix[2]) / 2])
    h1 = np.maximum(agg1 @ w0.T, 0.0)
    agg2 = np.stack([(h1[0] + h1[1]) / 2,
                     (h1[0] + h1[1] + h1[2]) / 3,
                     (h1[1] + h1[2]) / 2])
    expected = np.maximum(agg2 @ w1.T, 0.0)
    # each layer has a unit that ReLU cuts to zero and one it passes
    assert 0.0 in h1 and 0.0 in expected and (h1 > 0).any() \
        and (expected > 0).any()
    assert np.allclose(z, expected, atol=1e-12)


def test_aggregation_invariant_to_edge_order():
    graph = path_graph_3()
    h0 = np.array([[1.0, 2.0], [-1.0, 0.5], [0.25, 0.75]])  # rows a, b, c
    params = init_params([2, 2], seed=3)
    z1 = forward(graph, h0, params)
    reversed_graph = manual_graph(
        [(u, n.kind, n.attrs, n.identity) for u, n in graph.nodes.items()],
        [("b", "c", "READ", 1, 1, 1), ("a", "b", "READ", 0, 0, 1)])
    z2 = forward(reversed_graph, h0, params)
    assert np.array_equal(z1, z2)


# --- batch receptive field -------------------------------------------------------

def field_graph(n, edges):
    """Graph of rows ``n00 ..`` in row order, from (row, row) edges."""
    return manual_graph([(f"n{i:02d}", "subject", {}, "i") for i in range(n)],
                        [(f"n{s:02d}", f"n{d:02d}", "READ", 0, 0, 1)
                         for s, d in edges])


def field_case(graph, dims, seed, batch):
    prop = propagation_matrix(graph)
    h0 = np.random.default_rng(seed).normal(size=(prop.shape[0], dims[0]))
    return prop, h0, init_params(dims, seed=seed), batch


@st.composite
def field_cases(draw):
    """(prop, h0, params, batch): a graph whose rows from ``linked`` on have
    no edges, 1 to 3 layers, and anchors drawn from the distinct members with
    repeats and positives from every row, so a positive may lie outside the
    members.

    Batches have two or more members, as every training batch has, and layer
    widths are at least two. numpy sends a product with one row or one output
    column to BLAS dot or gemv instead of gemm, and those give a row that
    depends on the other rows."""
    n = draw(st.integers(2, 14))
    linked = draw(st.integers(1, n))
    end = st.integers(0, linked - 1)
    edges = draw(st.lists(st.tuples(end, end), max_size=3 * n))
    dims = [draw(st.integers(1, 4))] + draw(
        st.lists(st.integers(2, 4), min_size=1, max_size=3))
    members = draw(st.lists(st.integers(0, n - 1), min_size=2, unique=True))
    anchors = draw(st.lists(st.sampled_from(members), max_size=6))
    positives = draw(st.lists(st.integers(0, n - 1), min_size=len(anchors),
                              max_size=len(anchors)))
    return field_case(field_graph(n, edges), dims,
                      draw(st.integers(0, 2 ** 16)),
                      ContrastiveBatch(anchors=anchors, positives=positives,
                                       members=members))


def named_field_case():
    """A path 0-1-2-3-4, a pair 5-6 and a row 7 without edges; positives 5
    and 1 lie outside the members, and rows 2, 4 and 6 are computed only by
    the first layer, for the last layer to read."""
    graph = field_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)])
    batch = ContrastiveBatch(anchors=[0, 3, 0], positives=[5, 1, 7],
                             members=[7, 0, 3])
    return field_case(graph, [3, 4, 2], 11, batch)


@settings(max_examples=200, deadline=None)
@given(field_cases())
@example(named_field_case())
def test_batch_field_matches_whole_graph(case):
    """The field's embeddings, loss and loss gradient are bitwise the whole
    graph's on the batch's rows; its weight gradients differ only by the
    order of their sums, by at most 1e-12 of the sum of the terms'
    magnitudes, which ``backward_pass`` gives on absolute values."""
    prop, h0, params, batch = case
    rows = sorted(set(batch.members) | set(batch.positives))
    ops, local = batch_field(prop, batch, params.num_layers)
    for part in ("anchors", "positives", "members"):
        assert np.array_equal(np.asarray(rows)[getattr(local, part)],
                              getattr(batch, part))
    whole = [prop] * params.num_layers
    z, cache = forward_pass(whole, h0, params)
    z_field, cache_field = forward_pass(ops, h0, params)
    assert z_field.tobytes() == z[rows].tobytes()
    loss, dz = batch_loss_grad(z, batch, 0.5)
    loss_field, dz_field = batch_loss_grad(z_field, local, 0.5)
    assert np.float64(loss_field).tobytes() == np.float64(loss).tobytes()
    assert dz_field.tobytes() == dz[rows].tobytes()
    grads = backward_pass(whole, params, cache, dz)
    magnitude = EncoderParams(weights=[np.abs(w) for w in params.weights])
    scales = backward_pass(whole, magnitude,
                           ([np.abs(a) for a in cache[0]], cache[1]),
                           np.abs(dz))
    for got, want, scale in zip(
            backward_pass(ops, params, cache_field, dz_field), grads, scales):
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


# --- contrastive loss ------------------------------------------------------------

def single_pair_loss(rows, temperature):
    """Loss of the one-pair batch: row 0 anchors row 1, the rest are negatives."""
    z = np.array(rows, dtype=np.float64)
    batch = ContrastiveBatch(anchors=[0], positives=[1],
                             members=list(range(len(z))))
    loss, _ = batch_loss_grad(z, batch, temperature)
    return loss


def test_infonce_single_pair_hand_value():
    loss = single_pair_loss([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]], 1.0)
    assert abs(loss - math.log(1.0 + math.exp(-1.0))) <= 1e-9


def test_infonce_no_negatives_is_zero():
    assert single_pair_loss([[1.0, 1.0], [1.0, 2.0]], 0.5) == 0.0


def test_infonce_scale_invariance():
    z = np.random.default_rng(4).normal(size=(4, 4))
    assert abs(single_pair_loss(z, 0.3)
               - single_pair_loss(2.0 * z, 0.3)) <= 1e-12


def test_infonce_zero_norm_embedding_counts_as_cosine_zero():
    # cos(a, p) -> 0, cos(a, n) = 1
    expected = -math.log(math.exp(0.0) / (math.exp(0.0) + math.exp(1.0)))
    loss = single_pair_loss([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], 1.0)
    assert abs(loss - expected) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 9), st.integers(2, 5), st.integers(0, 10_000))
def test_infonce_nonnegative(n, d, seed):
    z = np.random.default_rng(seed).normal(size=(n, d))
    assert single_pair_loss(z, 0.2) >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 12), st.integers(2, 5), st.integers(0, 10_000))
def test_vectorized_loss_matches_reference(n, d, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d))
    if seed % 4 == 0:
        z[int(rng.integers(n))] = 0.0
    member_idx = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
    m = int(rng.integers(1, 4))
    anchor_idx = rng.choice(member_idx, size=m)
    pos_idx = rng.choice(n, size=m)
    pairs = [(int(a), int(p),
              tuple(int(j) for j in member_idx if j != a and j != p))
             for a, p in zip(anchor_idx, pos_idx)]
    ref_loss, ref_grad = infonce_loss_grad(z, pairs, 0.4)
    batch = ContrastiveBatch(anchors=anchor_idx.tolist(),
                             positives=pos_idx.tolist(),
                             members=member_idx.tolist())
    fast_loss, fast_grad = batch_loss_grad(z, batch, 0.4)
    assert abs(ref_loss - fast_loss) <= 1e-9
    assert np.allclose(ref_grad, fast_grad, atol=1e-9)


@st.composite
def loss_cases(draw):
    """(z, batch, temperature) with distinct members, anchors drawn from the
    members with repeats, and positives drawn from every row with repeats, so
    a positive can equal its anchor or lie outside the members."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    z = rng.normal(size=(n, draw(st.integers(1, 5))))
    for row in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        z[row] = 0.0
    members = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    anchors = draw(st.lists(st.sampled_from(members), max_size=8))
    positives = draw(st.lists(st.integers(0, n - 1), min_size=len(anchors),
                              max_size=len(anchors)))
    batch = ContrastiveBatch(anchors=anchors, positives=positives,
                             members=members)
    return z, batch, draw(st.sampled_from([0.07, 0.5, 1.0]))


def named_loss_case():
    """Repeated anchors (0), repeated positives (2), a positive equal to its
    anchor (3), a positive outside the members (5) and a zero-norm row (1)."""
    z = np.random.default_rng(4).normal(size=(6, 3))
    z[1] = 0.0
    batch = ContrastiveBatch(anchors=[0, 0, 3, 4, 1], positives=[2, 2, 3, 5, 0],
                             members=[4, 0, 1, 3, 2])
    return z, batch, 0.5


def negative_zero_case():
    """Zero-norm rows of -0.0 as an anchor (2) and as a repeated positive
    (2, 4), so that their gradient rows take -0.0 terms, which a scatter
    starting from +0.0 adds to +0.0."""
    z = np.random.default_rng(6).normal(size=(5, 3))
    z[2] = z[4] = -0.0
    batch = ContrastiveBatch(anchors=[2, 0, 0, 3], positives=[3, 2, 2, 4],
                             members=[0, 1, 2, 3])
    return z, batch, 0.07


def fortran_case():
    """``named_loss_case`` with ``z`` in Fortran order, whose ``zeros_like``
    would be Fortran-ordered too, so that a flat view of it is a copy."""
    z, batch, temperature = named_loss_case()
    return np.asfortranarray(z), batch, temperature


@settings(max_examples=300, deadline=None)
@given(loss_cases())
@example(named_loss_case())
@example(negative_zero_case())
@example(fortran_case())
def test_batch_loss_grad_bytes_match_full_matrix_oracle(case):
    z, batch, temperature = case
    loss, dz = batch_loss_grad(z, batch, temperature)
    ref_loss, ref_dz = contrastive_oracle.batch_loss_grad(
        z, batch.anchors, batch.positives, batch.members, temperature)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert dz.tobytes() == ref_dz.tobytes()
    assert batch_loss(z, batch, temperature) == loss


@settings(max_examples=200, deadline=None)
@given(oracle_graphs(), st.randoms(use_true_random=False))
@example(oracle_case(), random.Random(0))
def test_propagation_matrix_bytes_match_neighbor_set_oracle(case, order):
    graph = case[0]
    prop = propagation_matrix(shuffled_graph(graph, order))
    ref = graph_oracle.propagation_matrix(graph)
    assert prop.shape == ref.shape
    for part in ("indptr", "indices", "data"):
        assert getattr(prop, part).dtype == getattr(ref, part).dtype
        assert getattr(prop, part).tobytes() == getattr(ref, part).tobytes()


# --- batch sampling -----------------------------------------------------------

def test_sampler_two_nodes_one_pair_no_negatives():
    rng = np.random.default_rng(0)
    batch = sample_contrastive_batch(identity_groups(["i", "i"]), 2, rng)
    assert len(batch) == 1
    assert set(batch.anchors + batch.positives) == {0, 1}
    # the members are exactly the pair, so the anchor has no negative
    assert sorted(batch.members) == [0, 1]


def test_sampler_singleton_identity_never_anchors():
    groups = identity_groups(["A", "A", "B"])  # rows a1, a2, b1
    for seed in range(10):
        rng = np.random.default_rng(seed)
        batch = sample_contrastive_batch(groups, 3, rng)
        assert 2 not in batch.anchors and 2 not in batch.positives
        assert 2 in batch.members  # so b1 is every anchor's negative
        assert all(anchor in batch.members for anchor in batch.anchors)


def test_sampler_pairs_share_identity():
    identities = [f"I{i % 4}" for i in range(20)]
    groups = identity_groups(identities)
    for seed in range(8):
        batch = sample_contrastive_batch(groups, 10,
                                         np.random.default_rng(seed))
        for anchor, positive in zip(batch.anchors, batch.positives):
            assert identities[anchor] == identities[positive]
            assert anchor != positive


def test_sampler_deterministic_under_seed():
    groups = identity_groups([f"I{i % 3}" for i in range(12)])
    one = sample_contrastive_batch(groups, 6, np.random.default_rng(42))
    two = sample_contrastive_batch(groups, 6, np.random.default_rng(42))
    assert (one.anchors, one.positives, one.members) \
        == (two.anchors, two.positives, two.members)


def test_sampler_matches_uuid_space_draw_sequence():
    """Row-index batches mapped back through the sorted uuids equal the
    uuid-space reference's batches drawn from the same seed."""
    cases = [(["A", "A", "B"], 3), (["A", "B"], 2), (["A", "A"], 5)]
    shape_rng = np.random.default_rng(0)
    for n in (7, 20, 45):
        for distinct in (2, 5, n):
            labels = [f"I{int(shape_rng.integers(distinct))}"
                      for _ in range(n)]
            for batch_size in (2, n // 2 + 1, n, n + 3):
                cases.append((labels, batch_size))
    for labels, batch_size in cases:
        # uuids whose sort order differs from their creation order
        nodes = [f"u{j:03d}" for j in shape_rng.permutation(len(labels))]
        identities = dict(zip(nodes, labels))
        uuids = sorted(nodes)
        groups = identity_groups([identities[u] for u in uuids])
        for seed in range(6):
            batch = sample_contrastive_batch(groups, batch_size,
                                             np.random.default_rng(seed))
            got = ([uuids[i] for i in batch.anchors],
                   [uuids[i] for i in batch.positives],
                   [uuids[i] for i in batch.members])
            want = sample_uuid_batch(nodes, identities, batch_size,
                                     np.random.default_rng(seed))
            assert got == want, (labels, batch_size, seed)


@st.composite
def clashing_samples(draw):
    """(labels, batch size, seed): one to three identities of one to twelve
    rows, some singleton identities, and batches of half the rows to three
    more than all of them, so that positives often land on later members."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    sizes += [1] * draw(st.integers(0, 3))
    labels = [f"I{i}" for i, size in enumerate(sizes) for _ in range(size)]
    labels = draw(st.permutations(labels))
    n = len(labels)
    batch_size = draw(st.integers(max(2, n // 2), n + 3))
    return labels, batch_size, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(clashing_samples())
@example((["A"] * 8, 8, 0))
@example((["A", "B", "A", "C", "A", "B"], 9, 3))
def test_sampler_matches_uuid_space_oracle_and_leaves_the_same_stream(case):
    """Three consecutive batches equal the per-member reference's, and the
    generator's next draw after them is the reference's next draw."""
    labels, batch_size, seed = case
    nodes = [f"u{j:03d}" for j in reversed(range(len(labels)))]
    identities = dict(zip(nodes, labels))
    uuids = sorted(nodes)
    groups = identity_groups([identities[u] for u in uuids])
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        batch = sample_contrastive_batch(groups, batch_size, rng)
        got = ([uuids[i] for i in batch.anchors],
               [uuids[i] for i in batch.positives],
               [uuids[i] for i in batch.members])
        assert got == sample_uuid_batch(nodes, identities, batch_size, ref_rng)
    assert rng.integers(2 ** 40) == ref_rng.integers(2 ** 40)


def test_identity_groups_hand_arrays():
    groups = identity_groups(["B", "A", "B", "C", "A", "B"])
    assert groups.flat.tolist() == [0, 2, 5, 1, 4, 3]
    assert groups.start.tolist() == [0, 3, 0, 5, 3, 0]
    assert groups.size.tolist() == [3, 2, 3, 1, 2, 3]
    assert groups.rank.tolist() == [0, 0, 1, 0, 1, 2]
    assert len(groups) == 6
    with pytest.raises(ValueError):
        groups.flat[0] = 1
    eval_batch = canonical_eval_batch(groups, cap=5)
    assert (eval_batch.anchors, eval_batch.positives, eval_batch.members) \
        == ([0, 1, 2, 4], [2, 4, 0, 1], [0, 1, 2, 3, 4])


def test_sampler_no_eligible_identity_gives_empty_batch():
    batch = sample_contrastive_batch(identity_groups(["A", "B"]), 2,
                                     np.random.default_rng(0))
    assert len(batch) == 0


# --- training -------------------------------------------------------------------

def two_cluster_graph(per_cluster=4):
    nodes, edges, h0 = [], [], {}
    for i in range(per_cluster):
        ua, ub = f"a{i}", f"b{i}"
        nodes.append((ua, "subject", {"name": "a"}, "subject::a"))
        nodes.append((ub, "subject", {"name": "b"}, "subject::b"))
        h0[ua] = np.array([1.0, 0.1 * i, 0.0])
        h0[ub] = np.array([0.0, 0.1 * i, 1.0])
        if i:
            edges.append((f"a{i-1}", ua, "READ", i, i, 1))
            edges.append((f"b{i-1}", ub, "WRITE", i, i, 1))
    return manual_graph(nodes, edges), h0


def test_train_zero_epochs_returns_initial_params():
    graph, h0 = two_cluster_graph()
    config = EncoderConfig(embedding_dim=3, num_layers=1, epochs=0)
    result = train(graph, h0, config, seed=5)
    reference = init_params([3, 3], seed=5)
    ref_weights = [w.astype("<f4").astype(np.float64)
                   for w in reference.weights]
    assert result.loss_trace == []
    for got, want in zip(result.params.weights, ref_weights):
        assert np.array_equal(got, want)


def test_train_zero_learning_rate_constant_trace():
    graph, h0 = two_cluster_graph()
    config = EncoderConfig(embedding_dim=3, num_layers=1, epochs=5,
                           learning_rate=0.0, batch_size=4)
    result = train(graph, h0, config, seed=5)
    assert len(result.loss_trace) == 5
    assert len(set(result.loss_trace)) == 1


def test_train_reduces_canonical_loss_and_separates_clusters():
    graph, h0 = two_cluster_graph(per_cluster=5)
    # default learning rate; at seed 5 no embedding of this tiny network is
    # cut to zero by ReLU, so every cosine is defined
    config = EncoderConfig(embedding_dim=4, num_layers=2, epochs=60,
                           batch_size=6, temperature=0.2)
    uuids = sorted(h0)
    eval_batch = canonical_eval_batch(
        identity_groups([graph.nodes[u].identity for u in uuids]))

    def canonical_loss(z):
        loss, _ = batch_loss_grad(np.stack([z[u] for u in uuids]),
                                  eval_batch, config.temperature)
        return loss

    initial = init_params([3, 4, 4], seed=5)
    initial_loss = canonical_loss(embed(graph, h0, initial))

    result = train(graph, h0, config, seed=5)
    z1 = embed(graph, h0, result.params)
    final_loss = canonical_loss(z1)
    assert final_loss < initial_loss

    def mean_cos(pairs):
        vals = []
        for x, y in pairs:
            vx, vy = z1[x], z1[y]
            vals.append(float(vx @ vy /
                              (np.linalg.norm(vx) * np.linalg.norm(vy))))
        return float(np.mean(vals))

    a_nodes = [u for u in uuids if u.startswith("a")]
    b_nodes = [u for u in uuids if u.startswith("b")]
    intra = mean_cos([(x, y) for i, x in enumerate(a_nodes)
                      for y in a_nodes[i + 1:]])
    inter = mean_cos([(x, y) for x in a_nodes for y in b_nodes])
    assert intra > inter


def mixed_identity_graph():
    """24 rows of identities of 9, 6, 4 and 2 rows and three singletons,
    on a chain with a few chords, and random 3-d features."""
    sizes = [9, 6, 4, 2, 1, 1, 1]
    labels = [f"I{i}" for i, size in enumerate(sizes) for _ in range(size)]
    order = np.random.default_rng(12).permutation(len(labels))
    nodes = [(f"n{j:02d}", "subject", {}, labels[i])
             for j, i in enumerate(order)]
    edges = [(f"n{j - 1:02d}", f"n{j:02d}", "READ", j, j, 1)
             for j in range(1, len(nodes))]
    edges += [(f"n{j:02d}", f"n{(5 * j) % len(nodes):02d}", "WRITE", j, j, 1)
              for j in range(0, len(nodes), 3)]
    h0 = np.random.default_rng(13).normal(size=(len(nodes), 3))
    return manual_graph(nodes, edges), dict(zip(sorted(n[0] for n in nodes),
                                                h0))


@pytest.mark.parametrize("seed,batch_size", [(0, 5), (1, 12), (2, 30)])
def test_train_bytes_match_per_member_loop(seed, batch_size):
    """The weights and loss trace of ``train`` are, byte for byte, those of
    the per-member sampler and the row-wise scatters; 30 is more than the
    graph's 24 rows."""
    graph, h0 = mixed_identity_graph()
    config = EncoderConfig(embedding_dim=4, num_layers=2, epochs=4,
                           batch_size=batch_size, temperature=0.2)
    result = train(graph, h0, config, seed=seed)
    weights, trace = contrastive_oracle.train_reference(graph, h0, config,
                                                        seed)
    assert [w.tobytes() for w in result.params.weights] \
        == [w.tobytes() for w in weights]
    assert np.array(result.loss_trace).tobytes() == np.array(trace).tobytes()


def test_train_steps_compute_only_the_batch_field(monkeypatch):
    """On a graph much larger than a batch, ``train`` reaches the four traced
    names through the module once per step, and each step's forward pass
    returns only the rows of ``members ∪ positives``."""
    import provlens.encoder as module
    graph, h0 = two_cluster_graph(per_cluster=30)
    config = EncoderConfig(embedding_dim=3, num_layers=2, epochs=2,
                           batch_size=4)
    calls = []

    def spy(name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((name, result))
            return result
        monkeypatch.setattr(module, name, wrapper)

    for name in ("sample_contrastive_batch", "forward_pass",
                 "batch_loss_grad", "backward_pass"):
        spy(name)
    train(graph, h0, config, seed=5)

    steps, i = 0, 0
    for _ in range(config.epochs):
        for _ in range(math.ceil(len(graph.nodes) / config.batch_size)):
            name, batch = calls[i]
            assert name == "sample_contrastive_batch"
            i += 1
            if not batch.anchors:
                continue
            assert [name for name, _ in calls[i:i + 3]] == [
                "forward_pass", "batch_loss_grad", "backward_pass"]
            z, _ = calls[i][1]
            assert len(z) == len(set(batch.members) | set(batch.positives))
            i += 3
            steps += 1
        assert calls[i][0] == "forward_pass"  # the epoch's evaluation
        i += 1
    assert i == len(calls) and steps > 0


def test_skipped_steps_log_one_warning_per_run(caplog):
    """On rows of singleton identities every step is skipped; ``train`` logs
    one warning with the count and the sampler logs nothing."""
    graph = manual_graph([(f"n{i}", "subject", {}, f"I{i}") for i in range(2)],
                         [])
    h0 = {uuid: np.ones(3) for uuid in graph.nodes}
    config = EncoderConfig(embedding_dim=3, num_layers=1, epochs=50,
                           batch_size=2)
    with caplog.at_level(logging.WARNING, logger="provlens.encoder"):
        result = train(graph, h0, config, seed=0)
    assert result.loss_trace == [0.0] * 50
    assert [record.getMessage() for record in caplog.records] == [
        "50 of 50 steps skipped: no identity with >= 2 members in the batch"]


def test_train_aborts_on_nonfinite_loss():
    graph, h0 = two_cluster_graph()
    h0 = {u: np.full(3, np.nan) for u in h0}
    config = EncoderConfig(embedding_dim=3, num_layers=1, epochs=1,
                           batch_size=4)
    from provlens.errors import TrainingError
    with pytest.raises(TrainingError):
        train(graph, h0, config, seed=5)


# --- gradient checking -----------------------------------------------------------

def relative_error(a, b):
    # the 1e-4 floor keeps finite-difference rounding noise on exactly-zero
    # gradients (dead relu units) from registering as relative error
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


def whole_graph(prop, groups, num_layers):
    """The canonical batch over every row, with ``prop`` at every layer."""
    return [prop] * num_layers, canonical_eval_batch(groups)


def first_rows_field(prop, groups, num_layers):
    """The receptive field of the canonical batch of the first two rows,
    whose last operator leaves out the rows that batch does not read."""
    return batch_field(prop, canonical_eval_batch(groups, cap=2), num_layers)


def finite_difference_check(seed, operators=whole_graph):
    """Analytic gradients of the batch loss against central differences,
    through the per-layer operators and batch that ``operators`` builds."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    dims = [int(rng.integers(2, 5)) for _ in range(3)]
    nodes = [(f"n{i}", "subject", {}, f"I{i % 2}") for i in range(n)]
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((f"n{j}", f"n{i}", "READ", i, i, 1))
    graph = manual_graph(nodes, edges)
    uuids = sorted(graph.nodes)
    h0 = rng.normal(size=(n, dims[0]))
    params = init_params(dims, seed=seed)
    ops, batch = operators(
        propagation_matrix(graph),
        identity_groups([graph.nodes[u].identity for u in uuids]),
        params.num_layers)
    if len(batch) == 0:
        return None

    def loss_fn():
        z, cache = forward_pass(ops, h0, params)
        loss, dz = batch_loss_grad(z, batch, 0.5)
        return loss, cache, dz

    loss, cache, dz = loss_fn()
    # keep clear of ReLU's kink, central differences are invalid across it
    for pre in cache[1]:
        if np.min(np.abs(pre)) < 1e-3:
            return None
    analytic = backward_pass(ops, params, cache, dz)

    step = 1e-5
    worst = 0.0
    for layer, w in enumerate(params.weights):
        for idx in np.ndindex(w.shape):
            original = w[idx]
            w[idx] = original + step
            up, _, _ = loss_fn()
            w[idx] = original - step
            down, _, _ = loss_fn()
            w[idx] = original
            numeric = (up - down) / (2 * step)
            worst = max(worst, relative_error(analytic[layer][idx], numeric))
    return worst


def test_gradients_match_finite_differences():
    for operators in (whole_graph, first_rows_field):
        checked = 0
        seed = 0
        while checked < 20:
            worst = finite_difference_check(seed, operators)
            seed += 1
            if worst is None:
                continue
            checked += 1
            assert worst <= 1e-4, (f"gradient mismatch {worst} at seed "
                                   f"{seed - 1} through {operators.__name__}")
        assert checked == 20


# --- serialization ---------------------------------------------------------------

def test_params_save_load_round_trip(tmp_path):
    graph, h0 = two_cluster_graph()
    config = EncoderConfig(embedding_dim=3, num_layers=2, epochs=2,
                           batch_size=4, learning_rate=0.01)
    result = train(graph, h0, config, seed=8)
    save_params(result.params, tmp_path)
    loaded = load_params(tmp_path, {path.name: path.read_bytes() for path
                                    in encoder_paths(tmp_path).values()})
    assert loaded.dims == result.params.dims
    assert len(loaded.weights) == len(result.params.weights)
    for got, want in zip(loaded.weights, result.params.weights):
        assert np.array_equal(got, want)
    assert_canonical_json_files(tmp_path)
