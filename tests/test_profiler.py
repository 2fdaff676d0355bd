import csv
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provlens import artifacts
from provlens.config import DEFAULT_OP_VOCAB
from provlens.detector import detect_graph
from provlens.encoder import init_params
from provlens.errors import ConfigError
from provlens.features import (TEMPORAL_DIM, build_node_summary,
                               train_semantic_vocab)
from provlens import profiler
from provlens.ingest import EventColumns, build_graph
from provlens.profiler import (
    BenignKnowledgeBase,
    attribute_query,
    build_knowledge_base,
    compute_centroid,
    compute_radius,
    edge_digest,
    euclidean_distance,
    export_embeddings,
    knn_query,
    load_kb,
    save_kb,
)

import profiler_oracle
from conftest import assert_canonical_json_files, graph_from_events, make_event


def brute_force_radius(members, centroid, epsilon):
    """Scan candidate radii over the member distances and pick the smallest
    one covering at least a (1 - epsilon) fraction."""
    distances = sorted(euclidean_distance(m, centroid) for m in members)
    need = (1.0 - epsilon) * len(members)
    best = None
    for candidate in distances:
        covered = sum(1 for d in distances if d <= candidate)
        if covered >= need and (best is None or candidate < best):
            best = candidate
    return best


def toy_kb():
    return BenignKnowledgeBase(
        epsilon=0.02, uuids=["c1", "c2", "d1"],
        labels=["subject::cat", "subject::cat", "subject::dog"],
        embeddings=np.array([[0.0, 0.5], [0.0, -0.5], [5.0, 0.0]]),
        digests=[[], [], []])


def found(kb, results):
    """(uuid, label, distance) of each (row, distance) knn result."""
    return [(kb.uuids[row], kb.labels[row], d) for row, d in results]


# --- centroid ------------------------------------------------------------------

def test_centroid_midpoint():
    assert np.allclose(compute_centroid([np.array([0.0, 0.0]),
                                         np.array([2.0, 2.0])]), [1.0, 1.0])


def test_centroid_single_member():
    vec = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(compute_centroid([vec]), vec)


def test_centroid_matches_summation_oracle():
    rng = np.random.default_rng(12)
    members = [rng.normal(size=4) for _ in range(5)]
    oracle = np.zeros(4)
    for m in members:
        oracle = oracle + m
    oracle = oracle / len(members)
    assert np.max(np.abs(compute_centroid(members) - oracle)) <= 1e-9


# --- radius ---------------------------------------------------------------------

def test_radius_quantile_example():
    # members on a line at distances 1..10 from the origin-centroid
    members = [np.array([float(d)]) for d in range(1, 11)]
    centroid = np.array([0.0])
    assert compute_radius(members, centroid, 0.2) == 8.0
    assert compute_radius(members, centroid, 0.2) \
        == brute_force_radius(members, centroid, 0.2)


def test_radius_zero_epsilon_is_max_distance():
    rng = np.random.default_rng(3)
    members = [rng.normal(size=3) for _ in range(9)]
    centroid = compute_centroid(members)
    expected = max(euclidean_distance(m, centroid) for m in members)
    assert compute_radius(members, centroid, 0.0) == expected


def test_radius_single_member_at_centroid():
    member = np.array([1.0, 2.0])
    assert compute_radius([member], member, 0.1) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 0.9), st.integers(0, 10_000))
def test_radius_matches_brute_force_and_coverage(count, epsilon, seed):
    rng = np.random.default_rng(seed)
    members = [rng.normal(size=3) for _ in range(count)]
    centroid = compute_centroid(members)
    radius = compute_radius(members, centroid, epsilon)
    assert abs(radius - brute_force_radius(members, centroid, epsilon)) <= 1e-9
    outside = sum(1 for m in members
                  if euclidean_distance(m, centroid) > radius)
    assert outside <= math.floor(epsilon * count)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 300), st.integers(1, 140), st.integers(-6, 6),
       st.sampled_from("CF"), st.integers(0, 2**32 - 1))
def test_batched_distance_bitwise_equals_per_row(n, d, exponent, layout,
                                                  seed):
    rng = np.random.default_rng(seed)
    matrix = np.asarray(rng.normal(scale=10.0 ** exponent, size=(n, d)),
                        order=layout)
    query = rng.normal(scale=10.0 ** exponent, size=d)
    per_row = np.array([euclidean_distance(row, query) for row in matrix])
    assert euclidean_distance(matrix, query).tobytes() == per_row.tobytes()
    assert euclidean_distance(matrix[None], query)[0].tobytes() \
        == per_row.tobytes()


# --- knowledge base -------------------------------------------------------------

def small_benign_setup(n_subjects=4):
    events = []
    for i in range(n_subjects):
        for j, op in enumerate(["READ", "WRITE"]):
            events.append(make_event(
                event_id=f"e{i}-{j}", subject_uuid=f"s{i}",
                object_uuid=f"f{i}", operation=op, timestamp=j * 5,
                subject_attrs={"name": "worker"},
                object_attrs={"path": f"/data/part{i}.dat"}))
    graph = graph_from_events(events, window_ns=2, name="benign")
    summaries = [build_node_summary(graph.nodes[u], graph)
                 for u in sorted(graph.nodes)]
    vocab = train_semantic_vocab(summaries, dim=6, epochs=1, seed=4)
    params = init_params([6 + len(DEFAULT_OP_VOCAB) + TEMPORAL_DIM, 5], seed=4)
    params.weights = [w.astype("<f4").astype(np.float64)
                      for w in params.weights]
    return graph, vocab, params


def test_build_kb_groups_by_identity():
    graph, vocab, params = small_benign_setup()
    kb = build_knowledge_base([graph], params, vocab, 0.02, DEFAULT_OP_VOCAB)
    assert kb.profiles["subject::worker"].count == 4
    assert len(kb.embeddings[kb.rows["subject::worker"]]) == 4
    assert set(kb.labels) == set(kb.profiles)
    for label, profile in kb.profiles.items():
        members = kb.embeddings[kb.rows[label]]
        outside = sum(1 for vec in members
                      if euclidean_distance(vec, profile.centroid)
                      > profile.radius)
        assert outside <= 0.02 * len(members)


def test_build_kb_duplicate_uuid_across_graphs(tmp_path):
    graphs = [
        graph_from_events([make_event(
            event_id=f"e{i}", subject_uuid="s0", object_uuid=f"f{i}",
            operation=op, timestamp=i, subject_attrs={"name": "worker"},
            object_attrs={"path": f"/data/part{i}.dat"})], name=f"day{i}")
        for i, op in enumerate(["READ", "WRITE"])]
    summaries = [build_node_summary(g.nodes[u], g)
                 for g in graphs for u in sorted(g.nodes)]
    vocab = train_semantic_vocab(summaries, dim=6, epochs=1, seed=4)
    params = init_params([6 + len(DEFAULT_OP_VOCAB) + TEMPORAL_DIM, 5], seed=4)
    kb = build_knowledge_base(graphs, params, vocab, 0.02, DEFAULT_OP_VOCAB)
    assert kb.uuids[kb.rows["subject::worker"]] == ["s0", "s0"]
    assert kb.profiles["subject::worker"].count == 2
    own = [edge_digest(graph, "s0") for graph in graphs]
    assert own[0] != own[1]
    rows = attribute_query(kb, "subject::worker")
    assert [kb.uuids[row] for row in rows] == ["s0", "s0"]
    assert [kb.digests[row] for row in rows] == own
    save_kb(kb, tmp_path)
    loaded = load_kb(tmp_path)
    assert loaded.uuids == kb.uuids
    assert loaded.labels == kb.labels
    assert loaded.embeddings.tobytes() == kb.embeddings.tobytes()
    assert [loaded.digests[row] for row in rows] == own


def test_build_kb_deterministic_serialization(tmp_path):
    graph, vocab, params = small_benign_setup()
    for sub in ("one", "two"):
        kb = build_knowledge_base([graph], params, vocab, 0.02,
                                  DEFAULT_OP_VOCAB)
        save_kb(kb, tmp_path / sub)
    for name in ("kb.json", "kb.members.json", "kb.digests.jsonl",
                 "kb.embeddings.bin"):
        assert (tmp_path / "one" / name).read_bytes() \
            == (tmp_path / "two" / name).read_bytes()


def test_build_kb_requires_graphs():
    graph, vocab, params = small_benign_setup()
    empty = build_graph(EventColumns(), window_ns=10, name="empty")
    for graphs in ([], [empty]):
        with pytest.raises(ConfigError):
            build_knowledge_base(graphs, params, vocab, 0.02, DEFAULT_OP_VOCAB)


def test_kb_save_load_round_trip(tmp_path):
    graph, vocab, params = small_benign_setup()
    kb = build_knowledge_base([graph], params, vocab, 0.02, DEFAULT_OP_VOCAB)
    save_kb(kb, tmp_path)
    loaded = load_kb(tmp_path)
    assert loaded.epsilon == kb.epsilon
    assert set(loaded.profiles) == set(kb.profiles)
    for label in kb.profiles:
        assert loaded.profiles[label].centroid.tobytes() \
            == kb.profiles[label].centroid.tobytes()
        assert loaded.profiles[label].radius == kb.profiles[label].radius
        assert loaded.profiles[label].count == kb.profiles[label].count
    assert loaded.uuids == kb.uuids
    assert loaded.labels == kb.labels
    assert loaded.rows == kb.rows
    assert np.array_equal(loaded.embeddings, kb.embeddings)
    assert loaded.digests[0] == kb.digests[0]  # the first read decodes all
    assert list(loaded.digests) == kb.digests
    assert_canonical_json_files(tmp_path)


def test_load_kb_and_detect_graph_decode_no_digest(tmp_path, monkeypatch):
    """Detection never reads a member's edge digest, so loading the KB and
    detecting decode none; the first digest read decodes every one."""
    graph, vocab, params = small_benign_setup()
    kb = build_knowledge_base([graph], params, vocab, 0.02, DEFAULT_OP_VOCAB)
    save_kb(kb, tmp_path)
    lines = {line for digest in kb.digests for line in digest}
    assert lines
    decoded, decode = [], artifacts.decode
    monkeypatch.setattr(artifacts, "decode",
                        lambda text: decoded.append(text) or decode(text))

    def digests_decoded():
        return sum(any(line in text for line in lines) for text in decoded)

    loaded = load_kb(tmp_path)
    detect_graph(graph, params, vocab, loaded, DEFAULT_OP_VOCAB)
    assert decoded and digests_decoded() == 0
    assert loaded.digests[0] == kb.digests[0]
    assert digests_decoded() == kb.size()


# --- queries --------------------------------------------------------------------

def test_knn_exact_hit_first():
    kb = toy_kb()
    [result] = knn_query(kb, np.array([[0.0, 0.5]]), k=2)
    assert found(kb, result)[0] == ("c1", "subject::cat", 0.0)


def test_knn_k_larger_than_kb():
    kb = toy_kb()
    assert [len(r) for r in knn_query(kb, np.zeros((2, 2)), k=10)] == [3, 3]


def test_knn_tie_broken_by_uuid():
    kb = toy_kb()
    [result] = knn_query(kb, np.array([[0.0, 0.0]]), k=2)
    assert [r[0] for r in found(kb, result)] == ["c1", "c2"]


def test_knn_takes_a_query_matrix():
    kb = toy_kb()
    assert knn_query(kb, np.zeros((0, 2)), k=1) == []


def test_knn_matches_exhaustive_oracle():
    rng = np.random.default_rng(77)
    members = [(f"m{i:02d}", rng.normal(size=3)) for i in range(20)]
    kb = BenignKnowledgeBase(
        epsilon=0.0, uuids=[u for u, _ in members],
        labels=["i"] * len(members),
        embeddings=np.array([vec for _, vec in members]),
        digests=[[] for _ in members])
    queries = rng.normal(size=(25, 3))
    for query, result in zip(queries, knn_query(kb, queries, k=3)):
        oracle = sorted(((euclidean_distance(vec, query), uuid)
                         for uuid, vec in members))[:3]
        assert [(u, d) for d, u in oracle] \
            == [(u, d) for u, _, d in found(kb, result)]


def test_knn_matches_oracle_at_scale():
    rng = np.random.default_rng(321)
    members = [(f"m{i:04d}", rng.normal(size=6)) for i in range(800)]
    kb = BenignKnowledgeBase(
        epsilon=0.0, uuids=[u for u, _ in members],
        labels=["i"] * len(members),
        embeddings=np.array([vec for _, vec in members]),
        digests=[[] for _ in members])
    queries = rng.normal(size=(5, 6))
    for query, result in zip(queries, knn_query(kb, queries, k=10)):
        oracle = sorted(((euclidean_distance(vec, query), uuid)
                         for uuid, vec in members))[:10]
        assert [(u, d) for d, u in oracle] \
            == [(u, d) for u, _, d in found(kb, result)]


HALVES = st.integers(-2, 2).map(lambda v: v / 2)
SPECIALS = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def query_blocks(draw, n):
    """A block size of 1 to 3 queries and a query count m from 0 to past
    two blocks: the ``SCORE_BUDGET`` that gives the block size on an n-row
    KB, and m."""
    block = draw(st.integers(1, 3))
    return block * n, draw(st.integers(0, 2 * block + 1))


def with_specials(draw, queries, dim):
    """The (m, dim) matrix of the m ``queries``, with one non-finite
    component in some of its rows."""
    queries = np.array(queries, dtype=np.float64).reshape(len(queries), dim)
    for row in queries:
        if draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(SPECIALS)
    return queries


def assert_rows_match_oracle(kb, queries, budget, k):
    """Each row's result, from one ``knn_query`` over the whole matrix in
    blocks of ``budget // n`` queries, equals the oracle on that row alone:
    the same rows, the same tie order and bitwise-equal distances. So no
    row, non-finite or not, changed another's result."""
    with patch.object(profiler, "SCORE_BUDGET", budget):
        got = knn_query(kb, queries, k)
    assert len(got) == len(queries)
    for query, result in zip(queries, got):
        want = profiler_oracle.knn_query(kb, query, k)
        assert [(r, d.hex()) for r, d in result] \
            == [(r, d.hex()) for r, d in want]


@st.composite
def tied_kbs(draw):
    """A KB built to tie, and a query matrix: rounded embeddings in runs of
    identical rows, one uuid held by two rows (as in overlapping windows),
    sometimes one non-finite component in the KB, and query rows with and
    without one."""
    dim = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        vec = draw(st.lists(HALVES, min_size=dim, max_size=dim))
        rows += [vec] * draw(st.integers(1, 3))
    n = len(rows)
    uuids = [f"u{i:02d}" for i in draw(st.permutations(range(n)))]
    if n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        uuids[j] = uuids[i]
    embeddings = np.array(rows, dtype=np.float64)
    if draw(st.booleans()):
        embeddings[draw(st.integers(0, n - 1)),
                   draw(st.integers(0, dim - 1))] = draw(SPECIALS)
    labels = sorted(draw(st.lists(st.sampled_from("ab"), min_size=n,
                                  max_size=n)))
    epsilon = draw(st.sampled_from([0.0, 0.02, 0.3, 0.5]))
    budget, m = draw(query_blocks(n))
    queries = with_specials(
        draw, [draw(st.lists(HALVES, min_size=dim, max_size=dim))
               for _ in range(m)], dim)
    return epsilon, uuids, labels, embeddings, queries, budget


@settings(max_examples=200, deadline=None)
@given(tied_kbs())
def test_knn_selection_matches_stable_sort_oracle(drawn):
    """Every k from 1 to n + 3, so each tie that spans the k-th row is a
    boundary: same rows, same tie order, bitwise-equal distances."""
    epsilon, uuids, labels, embeddings, queries, budget = drawn
    with np.errstate(invalid="ignore"):
        kb = BenignKnowledgeBase(epsilon=epsilon, uuids=uuids, labels=labels,
                                 embeddings=embeddings,
                                 digests=[[] for _ in uuids])
        for k in range(1, len(uuids) + 4):
            assert_rows_match_oracle(kb, queries, budget, k)
        for a, b in [*((embeddings, query) for query in queries),
                     (embeddings[:, None], embeddings)]:
            assert euclidean_distance(a, b).tobytes() \
                == profiler_oracle.euclidean_distance(a, b).tobytes()
        for label, rows in kb.rows.items():
            profile = kb.profiles[label]
            want = profiler_oracle.compute_radius(
                embeddings[rows], profile.centroid, epsilon)
            assert profile.radius.hex() == want.hex()


@st.composite
def cancelling_kbs(draw):
    """A KB and a query matrix near each other but far from the origin,
    where ``||x||^2 - 2 x.q`` cancels catastrophically: dim up to 64,
    offsets up to 1e8 (or 1e-160, where squares underflow), spreads down to
    1e-12 of the offset, rows that repeat or lie 1 ulp from an earlier row,
    and query rows among them, some with one non-finite component."""
    dim = draw(st.integers(1, 64))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = 10.0 ** draw(st.one_of(st.integers(-3, 8), st.just(-160)))
    spread = offset * 10.0 ** -draw(st.integers(0, 12))
    centre = rng.normal(size=dim) * offset
    rows = centre + rng.normal(size=(n, dim)) * spread
    for i in range(1, n):
        kind = draw(st.sampled_from(["own", "copy", "ulp"]))
        if kind != "own":
            rows[i] = rows[draw(st.integers(0, i - 1))]
        if kind == "ulp":
            col = draw(st.integers(0, dim - 1))
            rows[i, col] = np.nextafter(rows[i, col],
                                        draw(st.sampled_from([-np.inf, np.inf])))
    budget, m = draw(query_blocks(n))
    queries = []
    for _ in range(m):
        kind = draw(st.sampled_from(["own", "row", "ulp"]))
        if kind == "own":
            query = centre + rng.normal(size=dim) * spread
        else:
            query = rows[draw(st.integers(0, n - 1))].copy()
            if kind == "ulp":
                query = np.nextafter(query, np.inf)
        queries.append(query)
    uuids = [f"u{i:02d}" for i in draw(st.permutations(range(n)))]
    return uuids, rows, with_specials(draw, queries, dim), budget


@settings(max_examples=200, deadline=None)
@given(cancelling_kbs())
def test_knn_prefilter_matches_stable_sort_oracle(drawn):
    """Every k from 1 to n + 3: the same rows in the same order, with
    bitwise-equal distances, as a scan of every row."""
    uuids, embeddings, queries, budget = drawn
    kb = BenignKnowledgeBase(epsilon=0.0, uuids=uuids, labels=["i"] * len(uuids),
                             embeddings=embeddings, digests=[[] for _ in uuids])
    with np.errstate(invalid="ignore"):
        for k in range(1, len(uuids) + 4):
            assert_rows_match_oracle(kb, queries, budget, k)


def test_knn_ranks_only_the_candidate_rows(monkeypatch):
    """On a 4,000-row KB one call over 20 queries is one block, and the
    exact routine sees a handful of rows per query, not the whole KB."""
    rng = np.random.default_rng(2024)
    n = 4000
    kb = BenignKnowledgeBase(
        epsilon=0.0, uuids=[f"m{i:04d}" for i in range(n)], labels=["i"] * n,
        embeddings=rng.normal(size=(n, 32)), digests=[[] for _ in range(n)])
    calls = []

    def counted(a, b):
        # rows per query: each query's rows of ``b`` are copies of it
        calls.append(np.unique(b, axis=0, return_counts=True)[1])
        return euclidean_distance(a, b)

    monkeypatch.setattr(profiler, "euclidean_distance", counted)
    queries = rng.normal(size=(20, 32))
    for query, result in zip(queries, knn_query(kb, queries, 5)):
        assert result == profiler_oracle.knn_query(kb, query, 5)
    [per_query] = calls
    assert len(per_query) == 20 and max(per_query) <= 64


def test_attribute_query_exact_tier_first():
    kb = toy_kb()
    assert [kb.uuids[row] for row in attribute_query(kb, "subject::cat")] \
        == ["c1", "c2"]


def test_attribute_query_no_match():
    assert list(attribute_query(toy_kb(), "subject::mongoose")) == []


# --- export ---------------------------------------------------------------------

def test_export_embeddings_rows(tmp_path):
    kb = toy_kb()
    path = tmp_path / "emb.csv"
    export_embeddings(kb, path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["uuid", "identity"]
    assert len(rows) == 4


def test_export_round_trip_exact(tmp_path):
    kb = toy_kb()
    path = tmp_path / "emb.csv"
    export_embeddings(kb, path)
    stored = dict(zip(kb.uuids, kb.embeddings))
    with path.open() as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            parsed = np.array([float(x) for x in row[2:]])
            assert np.array_equal(parsed, stored[row[0]])


# --- order invariance -------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(2, 15), st.integers(0, 1000), st.randoms())
def test_profile_invariant_to_member_order(count, seed, rnd):
    rng = np.random.default_rng(seed)
    members = [rng.normal(size=3) for _ in range(count)]
    shuffled = list(members)
    rnd.shuffle(shuffled)
    c1, c2 = compute_centroid(members), compute_centroid(shuffled)
    assert np.allclose(c1, c2, atol=1e-12)
    assert abs(compute_radius(members, c1, 0.1)
               - compute_radius(shuffled, c1, 0.1)) == 0.0
