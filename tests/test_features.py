import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provlens.config import DEFAULT_OP_VOCAB
from provlens.errors import ConfigError
from provlens.features import (
    SemanticVocab,
    build_node_summary,
    feature_dim,
    feature_matrix,
    load_vocab,
    save_vocab,
    train_semantic_vocab,
)

import graph_oracle
from conftest import (EMPTY_VOCAB, assert_canonical_json_files,
                      feature_blocks, graph_from_events, make_event,
                      manual_graph, oracle_case, oracle_graphs)


def vocab_from_table(table):
    tokens = sorted(table)
    vectors = np.array([table[t] for t in tokens], dtype=np.float32)
    return SemanticVocab(tokens=tokens, vectors=vectors, dim=vectors.shape[1],
                         window=2, negatives=2, epochs=1, seed=0)


def star_graph(ops_with_ts, identity="subject::cat"):
    """One subject 'c' with an edge per (op, first_ts, last_ts, weight)."""
    nodes = [("c", "subject", {"name": identity.split("::")[1]}, identity)]
    edges = []
    for i, (op, first, last, weight) in enumerate(ops_with_ts):
        nodes.append((f"o{i}", "file", {"path": f"/f{i}"}, f"file::f{i}"))
        edges.append(("c", f"o{i}", op, first, last, weight))
    return manual_graph(nodes, edges)


# --- summaries ---------------------------------------------------------------

def test_summary_isolated_node():
    graph = manual_graph([("c", "subject", {"name": "cat"}, "subject::cat")], [])
    assert build_node_summary(graph.nodes["c"], graph) == ["subject::cat"]


def test_summary_temporal_order():
    graph = star_graph([("READ", 5, 5, 1), ("WRITE", 1, 1, 1)])
    assert build_node_summary(graph.nodes["c"], graph) \
        == ["subject::cat", "WRITE", "READ"]


def test_summary_one_token_per_aggregated_edge():
    graph = star_graph([("READ", 1, 4, 7), ("READ", 10, 12, 2), ("READ", 20, 20, 1)])
    assert build_node_summary(graph.nodes["c"], graph) \
        == ["subject::cat", "READ", "READ", "READ"]


# --- SPPMI token vectors --------------------------------------------------------

def sppmi_oracle(summaries, tokens, window, negatives):
    """Shifted positive PMI by brute force: visit every (centre, context) pair
    position by position, as per-pair skip-gram does, then take scalar logs."""
    pairs = {}
    for summary in summaries:
        for pos, centre in enumerate(summary):
            for j in range(max(0, pos - window),
                           min(len(summary), pos + window + 1)):
                if j != pos:
                    key = (centre, summary[j])
                    pairs[key] = pairs.get(key, 0) + 1
    row = {t: sum(n for (w, _), n in pairs.items() if w == t) for t in tokens}
    freq = {t: sum(summary.count(t) for summary in summaries) for t in tokens}
    norm = sum(freq[t] ** 0.75 for t in tokens)
    matrix = np.zeros((len(tokens), len(tokens)))
    for (w, c), n in pairs.items():
        pmi = math.log(n / (row[w] * freq[c] ** 0.75 / norm))
        matrix[tokens.index(w), tokens.index(c)] = max(
            pmi - math.log(negatives), 0.0)
    return matrix


@pytest.mark.parametrize("dim", [3, 12])
def test_vocab_gram_matches_sppmi_oracle(dim):
    rng = np.random.default_rng(10)
    topics = ["abc", "de", "fg", "ah"]  # tokens of a topic share windows
    corpus = [list(rng.choice(list(topics[rng.integers(len(topics))]),
                              size=rng.integers(2, 9)))
              for _ in range(60)] + [["solo"]]
    vocab = train_semantic_vocab(corpus, dim=dim, window=2, negatives=2)
    matrix = sppmi_oracle(corpus, vocab.tokens, window=2, negatives=2)
    u, s, _ = np.linalg.svd(matrix)
    rank = min(dim, len(vocab.tokens))
    if rank < len(s):
        assert s[rank - 1] - s[rank] > 1e-3  # the truncation is unique
    expected = (u[:, :rank] * s[:rank]) @ u[:, :rank].T
    vectors = vocab.vectors.astype(np.float64)
    assert vocab.vectors.shape == (len(vocab.tokens), dim)
    assert np.allclose(vectors @ vectors.T, expected, atol=1e-5)
    assert np.array_equal(vocab.vectors[vocab.index["solo"]], np.zeros(dim))


def test_vocab_epochs_and_seed_only_recorded():
    corpus = [["a", "b", "c"], ["b", "c", "d"], ["a", "d"]] * 10
    one = train_semantic_vocab(corpus, dim=6, epochs=1, seed=1)
    two = train_semantic_vocab(corpus, dim=6, epochs=9, seed=2)
    assert np.array_equal(one.vectors, two.vectors)
    assert (two.epochs, two.seed) == (9, 2)


@pytest.mark.parametrize("bad", [{"dim": 0}, {"window": 0}, {"negatives": 0}])
def test_vocab_rejects_non_positive_sizes(bad):
    with pytest.raises(ConfigError):
        train_semantic_vocab([["a", "b"]], **{"dim": 4, **bad})


def test_vocab_cooccurrence_orders_similarity():
    # SPPMI makes tokens alike through shared contexts: alpha and beta share x.
    corpus = ([["alpha", "x"], ["beta", "x"]] * 60
              + [["gamma", "y"]] * 60)
    vocab = train_semantic_vocab(corpus, dim=16, window=2, negatives=2)
    a, b, c = (vocab.vectors[vocab.index[t]].astype(np.float64)
               for t in ("alpha", "beta", "gamma"))
    cos = lambda x, y: float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))
    assert cos(a, b) > cos(a, c)


def test_vocab_single_token_corpus():
    vocab = train_semantic_vocab([["solo"]], dim=8)
    assert vocab.tokens == ["solo"]
    assert np.all(np.isfinite(vocab.vectors[vocab.index["solo"]]))


def test_vocab_deterministic_under_seed():
    corpus = [["a", "b", "c"], ["b", "c", "d"], ["a", "d"]] * 10
    one = train_semantic_vocab(corpus, dim=12, seed=11)
    two = train_semantic_vocab(corpus, dim=12, seed=11)
    assert one.tokens == two.tokens
    assert np.array_equal(one.vectors, two.vectors)


def test_vocab_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        train_semantic_vocab([], dim=8)


# --- semantic encoding ---------------------------------------------------------

def semantic(graph, vocab):
    return feature_blocks(graph, vocab, DEFAULT_OP_VOCAB)[0]


def action(graph, op_vocab):
    return feature_blocks(graph, EMPTY_VOCAB, op_vocab)[1]


def temporal(graph):
    return feature_blocks(graph, EMPTY_VOCAB, DEFAULT_OP_VOCAB)[2]


def test_semantic_all_oov_is_zero():
    graph = star_graph([("READ", 0, 0, 1)])
    vocab = vocab_from_table({"unrelated": [1.0, 2.0]})
    assert np.array_equal(semantic(graph, vocab), np.zeros(2))


def test_semantic_single_token_is_its_vector():
    graph = manual_graph([("c", "subject", {"name": "cat"}, "subject::cat")], [])
    vocab = vocab_from_table({"subject::cat": [0.5, -1.5]})
    assert np.allclose(semantic(graph, vocab), [0.5, -1.5])


def test_semantic_mean_of_tokens():
    graph = star_graph([("READ", 0, 0, 1)])
    vocab = vocab_from_table({"subject::cat": [2.0, 0.0], "READ": [0.0, 4.0]})
    assert np.allclose(semantic(graph, vocab), [1.0, 2.0])


# --- action frequency ----------------------------------------------------------

def test_action_pythagorean_counts():
    graph = star_graph([("READ", 0, 0, 3), ("WRITE", 1, 1, 4)])
    vec = action(graph, ("READ", "WRITE"))
    assert np.allclose(vec, [0.6, 0.8])


def test_action_single_operation():
    graph = star_graph([("READ", 0, 0, 5)])
    vec = action(graph, ("READ", "WRITE", "OPEN"))
    assert np.allclose(vec, [1.0, 0.0, 0.0])


def test_action_zero_counts_degenerate():
    graph = manual_graph([("c", "subject", {"name": "cat"}, "subject::cat")], [])
    vec = action(graph, ("READ", "WRITE"))
    assert np.array_equal(vec, np.zeros(2))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(DEFAULT_OP_VOCAB),
                          st.integers(0, 50), st.integers(1, 9)),
                min_size=1, max_size=8))
def test_action_norm_is_one_with_any_event(edge_spec):
    graph = star_graph([(op, ts, ts, w) for op, ts, w in edge_spec])
    vec = action(graph, DEFAULT_OP_VOCAB)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9


# --- temporal statistics --------------------------------------------------------

def test_temporal_documented_example():
    graph = star_graph([("READ", 0, 0, 1), ("READ", 10, 10, 1),
                        ("WRITE", 30, 30, 1)])
    assert np.allclose(temporal(graph), [0, 1, 0.5])


def test_temporal_equal_idles_degenerate():
    graph = star_graph([("READ", 0, 0, 1), ("READ", 10, 10, 1),
                        ("WRITE", 20, 20, 1)])
    assert np.array_equal(temporal(graph), np.zeros(3))


def test_temporal_fewer_than_two_events():
    graph = star_graph([("READ", 5, 5, 1)])
    assert np.array_equal(temporal(graph), np.zeros(3))
    isolated = manual_graph([("c", "subject", {"name": "cat"}, "subject::cat")], [])
    assert np.array_equal(temporal(isolated),
                          np.zeros(3))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=12, unique=True))
def test_temporal_range_and_extremes(stamps):
    graph = star_graph([("READ", t, t, 1) for t in sorted(stamps)])
    vec = temporal(graph)
    assert np.all(vec >= 0.0) and np.all(vec <= 1.0)
    if np.any(vec != 0.0):
        assert vec[0] == 0.0 and vec[1] == 1.0


# --- concatenation ---------------------------------------------------------------

def test_initial_features_concatenation():
    graph = star_graph([("READ", 0, 0, 3), ("WRITE", 10, 10, 4),
                        ("READ", 30, 30, 1)])
    vocab = vocab_from_table({"subject::cat": [0.1, 0.2]})
    uuids, h0 = feature_matrix(graph, vocab, ("READ", "WRITE"))
    x_sem, x_act, x_tmp = feature_blocks(graph, vocab, ("READ", "WRITE"))
    assert np.array_equal(h0[uuids.index("c")],
                          np.concatenate([x_sem, x_act, x_tmp]))
    assert h0.shape == (len(graph.nodes), feature_dim(2, ("READ", "WRITE")))


def test_initial_features_isolated_node():
    graph = manual_graph([("c", "subject", {"name": "cat"}, "subject::cat")], [])
    vocab = vocab_from_table({"subject::cat": [1.0, 1.0]})
    x_sem, x_act, x_tmp = feature_blocks(graph, vocab, ("READ",))
    assert np.allclose(x_sem, [1.0, 1.0])
    assert np.array_equal(x_act, np.zeros(1))
    assert np.array_equal(x_tmp, np.zeros(3))


def test_features_invariant_to_event_order():
    events = [make_event(event_id=f"e{i}", subject_uuid="s1",
                         object_uuid=f"o{i % 3}", operation=op, timestamp=t)
              for i, (op, t) in enumerate(
                  [("READ", 0), ("WRITE", 7), ("READ", 30), ("CONNECT", 45)])]
    forward = graph_from_events(events, window_ns=10)
    backward = graph_from_events(list(reversed(events)), window_ns=10)
    summaries = [build_node_summary(forward.nodes[u], forward)
                 for u in sorted(forward.nodes)]
    vocab = train_semantic_vocab(summaries, dim=8, seed=5)
    _, h_fwd = feature_matrix(forward, vocab, DEFAULT_OP_VOCAB)
    _, h_bwd = feature_matrix(backward, vocab, DEFAULT_OP_VOCAB)
    assert np.array_equal(h_fwd, h_bwd)


@settings(max_examples=500, deadline=None)
@given(oracle_graphs())
@example(oracle_case())
def test_feature_matrix_bytes_match_per_node_oracle(case):
    graph, vocab, op_vocab = case
    uuids, h0 = feature_matrix(graph, vocab, op_vocab)
    ref_uuids, ref_h0 = graph_oracle.feature_matrix(graph, vocab, op_vocab)
    assert uuids == ref_uuids
    assert h0.shape == ref_h0.shape
    assert h0.tobytes() == ref_h0.tobytes()


def test_feature_pipeline_bit_reproducible():
    events = [make_event(event_id=f"e{i}", subject_uuid=f"s{i % 2}",
                         operation="READ", timestamp=i * 4) for i in range(10)]

    def run():
        graph = graph_from_events(events, window_ns=10)
        summaries = [build_node_summary(graph.nodes[u], graph)
                     for u in sorted(graph.nodes)]
        vocab = train_semantic_vocab(summaries, dim=8, seed=2)
        return feature_matrix(graph, vocab, DEFAULT_OP_VOCAB)[1]

    assert np.array_equal(run(), run())


def test_export_features_jsonl(tmp_path):
    import json as json_mod
    graph = star_graph([("READ", 0, 0, 3), ("WRITE", 10, 10, 4)])
    vocab = vocab_from_table({"subject::cat": [0.1, 0.2]})
    path = tmp_path / "features.jsonl"
    from provlens.features import export_features
    uuids, h0 = feature_matrix(graph, vocab, ("READ", "WRITE"))
    export_features(graph, uuids, h0, vocab.dim, path)
    records = [json_mod.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == len(graph.nodes)
    by_uuid = {r["uuid"]: r for r in records}
    assert np.allclose(by_uuid["c"]["x_act"], [0.6, 0.8])
    assert by_uuid["c"]["identity"] == "subject::cat"


def test_vocab_save_load_round_trip(tmp_path):
    corpus = [["a", "b"], ["b", "c"]] * 5
    vocab = train_semantic_vocab(corpus, dim=6, seed=9)
    save_vocab(vocab, tmp_path)
    loaded = load_vocab(tmp_path)
    assert loaded.tokens == vocab.tokens
    assert np.array_equal(loaded.vectors, vocab.vectors)
    assert (loaded.dim, loaded.window, loaded.negatives, loaded.epochs,
            loaded.seed) == (vocab.dim, vocab.window, vocab.negatives,
                             vocab.epochs, vocab.seed)
    assert_canonical_json_files(tmp_path)
