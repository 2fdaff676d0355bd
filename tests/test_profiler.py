import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provlens.config import DEFAULT_OP_VOCAB
from provlens.encoder import init_params
from provlens.errors import ConfigError
from provlens.features import feature_dim, train_semantic_vocab, build_node_summary
from provlens.profiler import (
    BenignKnowledgeBase,
    IdentityProfile,
    attribute_query,
    build_knowledge_base,
    compute_centroid,
    compute_radius,
    euclidean_distance,
    export_embeddings,
    knn_query,
    load_kb,
    save_kb,
)

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
    profiles = {
        "subject::cat": IdentityProfile("subject::cat", np.array([0.0, 0.0]),
                                        1.0, 2),
        "subject::dog": IdentityProfile("subject::dog", np.array([5.0, 0.0]),
                                        1.0, 1),
    }
    metadata = {
        "c1": {"identity": "subject::cat", "kind": "subject",
               "attrs": {"name": "cat"}, "graph": "g", "edges": []},
        "c2": {"identity": "subject::cat", "kind": "subject",
               "attrs": {"name": "cat"}, "graph": "g", "edges": []},
        "d1": {"identity": "subject::dog", "kind": "subject",
               "attrs": {"name": "dog", "cwd": "/var/catalog"}, "graph": "g",
               "edges": []},
    }
    return BenignKnowledgeBase(
        epsilon=0.02, profiles=profiles, uuids=["c1", "c2", "d1"],
        labels=["subject::cat", "subject::cat", "subject::dog"],
        embeddings=np.array([[0.0, 0.5], [0.0, -0.5], [5.0, 0.0]]),
        metadata=metadata)


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


def test_centroid_empty_rejected():
    with pytest.raises(ValueError):
        compute_centroid([])


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


def test_radius_rejects_bad_epsilon():
    with pytest.raises(ConfigError):
        compute_radius([np.zeros(2)], np.zeros(2), 1.0)
    with pytest.raises(ConfigError):
        compute_radius([np.zeros(2)], np.zeros(2), -0.1)


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
    params = init_params([feature_dim(6, DEFAULT_OP_VOCAB), 5], seed=4)
    params.weights = [w.astype("<f4").astype(np.float64)
                      for w in params.weights]
    return graph, vocab, params


def test_build_kb_groups_by_identity():
    graph, vocab, params = small_benign_setup()
    kb = build_knowledge_base([graph], params, vocab, 0.02, DEFAULT_OP_VOCAB)
    assert kb.profiles["subject::worker"].count == 4
    assert len(kb.embeddings[kb.rows["subject::worker"]]) == 4
    assert {meta["identity"] for meta in kb.metadata.values()} \
        == set(kb.profiles)
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
    params = init_params([feature_dim(6, DEFAULT_OP_VOCAB), 5], seed=4)
    kb = build_knowledge_base(graphs, params, vocab, 0.02, DEFAULT_OP_VOCAB)
    assert kb.uuids[kb.rows["subject::worker"]] == ["s0", "s0"]
    assert kb.profiles["subject::worker"].count == 2
    assert sorted(kb.metadata) == sorted(set(kb.uuids))
    assert kb.metadata["s0"]["graph"] == "day1"
    assert attribute_query(kb, "subject::worker") == ["s0"]
    save_kb(kb, tmp_path)
    loaded = load_kb(tmp_path)
    assert loaded.uuids == kb.uuids
    assert loaded.labels == kb.labels
    assert loaded.embeddings.tobytes() == kb.embeddings.tobytes()


def test_build_kb_deterministic_serialization(tmp_path):
    graph, vocab, params = small_benign_setup()
    for sub in ("one", "two"):
        kb = build_knowledge_base([graph], params, vocab, 0.02,
                                  DEFAULT_OP_VOCAB)
        save_kb(kb, tmp_path / sub)
    for name in ("kb.profiles.json", "kb.embeddings.bin", "kb.manifest.json",
                 "kb.metadata.jsonl"):
        assert (tmp_path / "one" / name).read_bytes() \
            == (tmp_path / "two" / name).read_bytes()


def test_build_kb_requires_graphs():
    graph, vocab, params = small_benign_setup()
    with pytest.raises(ConfigError):
        build_knowledge_base([], params, vocab, 0.02, DEFAULT_OP_VOCAB)


def test_kb_save_load_round_trip(tmp_path):
    graph, vocab, params = small_benign_setup()
    kb = build_knowledge_base([graph], params, vocab, 0.02, DEFAULT_OP_VOCAB)
    save_kb(kb, tmp_path)
    loaded = load_kb(tmp_path)
    assert loaded.epsilon == kb.epsilon
    assert set(loaded.profiles) == set(kb.profiles)
    for label in kb.profiles:
        assert np.array_equal(loaded.profiles[label].centroid,
                              kb.profiles[label].centroid)
        assert loaded.profiles[label].radius == kb.profiles[label].radius
        assert loaded.profiles[label].count == kb.profiles[label].count
    assert loaded.uuids == kb.uuids
    assert loaded.labels == kb.labels
    assert loaded.rows == kb.rows
    assert np.array_equal(loaded.embeddings, kb.embeddings)
    assert loaded.metadata == kb.metadata
    assert_canonical_json_files(tmp_path)


# --- queries --------------------------------------------------------------------

def test_knn_empty_kb_returns_empty():
    kb = BenignKnowledgeBase(epsilon=0.0, profiles={}, uuids=[], labels=[],
                             embeddings=np.zeros((0, 3)), metadata={})
    assert knn_query(kb, np.zeros(3), k=4) == []


def test_knn_exact_hit_first():
    kb = toy_kb()
    result = knn_query(kb, np.array([0.0, 0.5]), k=2)
    assert result[0] == ("c1", "subject::cat", 0.0)


def test_knn_k_larger_than_kb():
    kb = toy_kb()
    assert len(knn_query(kb, np.zeros(2), k=10)) == 3


def test_knn_tie_broken_by_uuid():
    kb = toy_kb()
    result = knn_query(kb, np.array([0.0, 0.0]), k=2)
    assert [r[0] for r in result] == ["c1", "c2"]


def test_knn_matches_exhaustive_oracle():
    rng = np.random.default_rng(77)
    members = [(f"m{i:02d}", rng.normal(size=3)) for i in range(20)]
    kb = BenignKnowledgeBase(
        epsilon=0.0,
        profiles={"i": IdentityProfile("i", np.zeros(3), 1.0, 20)},
        uuids=[u for u, _ in members], labels=["i"] * len(members),
        embeddings=np.array([vec for _, vec in members]),
        metadata={u: {"identity": "i", "kind": "subject", "attrs": {},
                      "graph": "g", "edges": []} for u, _ in members})
    for _ in range(25):
        query = rng.normal(size=3)
        got = knn_query(kb, query, k=3)
        oracle = sorted(((euclidean_distance(vec, query), uuid)
                         for uuid, vec in members))[:3]
        assert [(u, d) for d, u in oracle] == [(u, d) for u, _, d in got]


def test_knn_matches_oracle_at_scale():
    rng = np.random.default_rng(321)
    members = [(f"m{i:04d}", rng.normal(size=6)) for i in range(800)]
    kb = BenignKnowledgeBase(
        epsilon=0.0,
        profiles={"i": IdentityProfile("i", np.zeros(6), 1.0, len(members))},
        uuids=[u for u, _ in members], labels=["i"] * len(members),
        embeddings=np.array([vec for _, vec in members]),
        metadata={u: {"identity": "i", "kind": "subject", "attrs": {},
                      "graph": "g", "edges": []} for u, _ in members})
    for _ in range(5):
        query = rng.normal(size=6)
        got = knn_query(kb, query, k=10)
        oracle = sorted(((euclidean_distance(vec, query), uuid)
                         for uuid, vec in members))[:10]
        assert [(u, d) for d, u in oracle] == [(u, d) for u, _, d in got]


def test_attribute_query_exact_tier_first():
    kb = toy_kb()
    assert attribute_query(kb, "subject::cat") == ["c1", "c2"]


def test_attribute_query_no_match():
    assert attribute_query(toy_kb(), "subject::mongoose") == []


# --- export ---------------------------------------------------------------------

def test_export_embeddings_rows(tmp_path):
    kb = toy_kb()
    path = tmp_path / "emb.csv"
    export_embeddings(kb, path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["uuid", "identity"]
    assert len(rows) == 4


def test_export_embeddings_empty_kb(tmp_path):
    kb = BenignKnowledgeBase(epsilon=0.0, profiles={}, uuids=[], labels=[],
                             embeddings=np.zeros((0, 0)), metadata={})
    path = tmp_path / "emb.csv"
    export_embeddings(kb, path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows == [["uuid", "identity"]]


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
