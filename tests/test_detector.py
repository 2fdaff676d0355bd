import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from provlens import detector
from provlens.config import (DEFAULT_OP_VOCAB, EncoderConfig, FeatureConfig,
                             PipelineConfig)
from provlens.detector import (
    Alert,
    detect_embedded,
    detect_graph,
    format_alert_table,
    load_alerts,
    save_alerts,
)
from provlens.encoder import fit
from provlens.ingest import EventColumns, build_graph
from provlens.profiler import (
    IdentityProfile,
    build_knowledge_base,
    euclidean_distance,
)

import graph_oracle
from conftest import assert_canonical_json_files, graph_from_events, make_event


def profiles_ab():
    return {
        "A": IdentityProfile(np.array([0.0, 0.0]), 1.0, 3),
        "B": IdentityProfile(np.array([10.0, 0.0]), 1.0, 3),
    }


def detect_node(z, claimed, profiles):
    """The alert of one node at ``z`` claiming ``claimed``, or None."""
    alerts = detect_embedded(["n"], np.array([z]), [claimed], profiles)
    return alerts[0] if alerts else None


def nearest_prototype(z, profiles):
    """(matched identity, its distance), read off the alert of a node whose
    claimed identity has no profile."""
    alert = detect_node(z, "unseen", profiles)
    return alert.matched, alert.deviation


# --- nearest prototype ----------------------------------------------------------

def test_nearest_prototype_basic():
    label, dist = nearest_prototype(np.array([1.0, 0.0]), profiles_ab())
    assert label == "A" and dist == 1.0


def test_nearest_prototype_tie_prefers_smallest_label():
    label, _ = nearest_prototype(np.array([5.0, 0.0]), profiles_ab())
    assert label == "A"


def test_nearest_prototype_matches_exhaustive_oracle():
    rng = np.random.default_rng(5)
    profiles = {f"P{i}": IdentityProfile(rng.normal(size=4), 1.0, 1)
                for i in range(10)}
    z = rng.normal(size=(50, 4))
    uuids = [f"n{i:02d}" for i in range(50)]
    alerts = detect_embedded(uuids, z, ["unseen"] * 50, profiles)
    found = {a.node_uuid: (a.matched, a.deviation) for a in alerts}
    for uuid, row in zip(uuids, z):
        oracle = min((euclidean_distance(row, p.centroid), name)
                     for name, p in sorted(profiles.items()))
        assert (oracle[1], oracle[0]) == found[uuid]


# --- the detection rule -----------------------------------------------------------

def test_detect_node_benign_inside_and_matched():
    assert detect_node(np.array([0.5, 0.0]), "A", profiles_ab()) is None
    assert detect_node(np.array([0.0, 1.0]), "A", profiles_ab()) is None


def test_detect_node_deviation_only():
    alert = detect_node(np.array([3.0, 0.0]), "A", profiles_ab())
    assert alert.violation == "deviation"
    assert alert.matched == "A"
    assert alert.deviation == 3.0
    assert alert.score == pytest.approx((3.0 - 1.0) / (1.0 + 1e-9))


def test_detect_node_mismatch_only():
    profiles = {
        "A": IdentityProfile(np.array([0.0, 0.0]), 2.0, 3),
        "B": IdentityProfile(np.array([2.0, 0.0]), 2.0, 3),
    }
    alert = detect_node(np.array([1.5, 0.0]), "A", profiles)
    assert alert.violation == "mismatch"
    assert alert.matched == "B"
    assert alert.score == pytest.approx(1.0)


def test_detect_node_both_criteria():
    alert = detect_node(np.array([8.0, 0.0]), "A", profiles_ab())
    assert alert.violation == "both"
    assert alert.matched == "B"
    assert alert.score == pytest.approx(1.0 + 7.0 / (1.0 + 1e-9))


def test_detect_node_unknown_identity_always_alerts():
    alert = detect_node(np.array([0.0, 0.0]), "C", profiles_ab())
    assert alert.violation == "unknown_identity"
    assert alert.radius is None
    assert alert.matched == "A"
    assert alert.score == pytest.approx(1.0)
    assert "no benign profile" in alert.explanation


def test_detect_embedded_one_distance_call_per_identity(monkeypatch):
    """k distance calls for n nodes, none of them over an (n, k, d) array."""
    shapes = []

    def counted(a, b):
        shapes.append((np.shape(a), np.shape(b)))
        return euclidean_distance(a, b)

    monkeypatch.setattr(detector, "euclidean_distance", counted)
    z = np.random.default_rng(0).normal(size=(7, 2))
    detect_embedded([f"n{i}" for i in range(7)], z, ["A", "B", "C"] * 2 + ["A"],
                    profiles_ab())
    assert shapes == [((7, 2), (2,))] * 2


# Labels, coordinates and radii come from small pools, so that equal
# centroids (ties), claims without a profile, points exactly on a radius and
# equal scores are common. A NaN coordinate makes NaN distances, scores and,
# through a point on a radius, radii. Rows are not in uuid order.
EMBEDDED_LABELS = ("A", "B", "C")


@st.composite
def embedded_cases(draw):
    """(uuids, z, claimed, profiles) for ``detect_embedded``."""
    dim = draw(st.integers(1, 3))
    coordinate = st.one_of(st.integers(-2, 2).map(float),
                           st.floats(-4.0, 4.0, allow_subnormal=False),
                           st.just(float("nan")))
    point = st.lists(coordinate, min_size=dim, max_size=dim).map(np.array)
    labels = draw(st.lists(st.sampled_from(EMBEDDED_LABELS), min_size=1,
                           unique=True))
    centroids = {label: draw(point) for label in labels}
    n = draw(st.integers(0, 8))
    z = np.array(draw(st.lists(point, min_size=n, max_size=n))).reshape(n, dim)
    claimed = draw(st.lists(st.sampled_from(EMBEDDED_LABELS + ("unseen",)),
                            min_size=n, max_size=n))
    profiles = {}
    for label in labels:
        on_radius = [float(euclidean_distance(row, centroids[label]))
                     for row in z]
        radius = draw(st.one_of(st.sampled_from([0.0, 1.0, *on_radius]),
                                st.floats(0.0, 6.0)))
        profiles[label] = IdentityProfile(centroids[label], radius, 1)
    uuids = draw(st.permutations([f"n{i}" for i in range(n)]))
    return uuids, z, claimed, profiles


@given(embedded_cases())
def test_detect_embedded_matches_per_node_oracle(case):
    uuids, z, claimed, profiles = case
    oracle = [graph_oracle.detect_node(row, label, profiles, uuid, "g")
              for uuid, row, label in zip(uuids, z, claimed)]
    oracle = sorted((a for a in oracle if a is not None),
                    key=lambda a: (-a.score, a.node_uuid))
    got = detect_embedded(uuids, z, claimed, profiles, "g")
    assert [a.to_json() for a in got] == [a.to_json() for a in oracle]


# --- graph-level detection --------------------------------------------------------

def synthetic_two_identity_setup(swap_one=False):
    """Readers read config; writers write the log and modify the state file.
    Optionally one claimed reader gets a writer's exact behavior."""
    events = []

    def writer_events(subject, name, offset):
        out = []
        for j in range(3):
            out.append(make_event(
                event_id=f"{subject}-w{j}", subject_uuid=subject,
                object_uuid="log", operation="WRITE",
                timestamp=j * 40 + offset, subject_attrs={"name": name},
                object_attrs={"path": "/var/log/app.log"}))
            out.append(make_event(
                event_id=f"{subject}-m{j}", subject_uuid=subject,
                object_uuid="state", operation="MODIFY",
                timestamp=j * 40 + offset + 7, subject_attrs={"name": name},
                object_attrs={"path": "/var/lib/app.state"}))
        return out

    for i in range(6):
        for j in range(3):
            events.append(make_event(
                event_id=f"r{i}-{j}", subject_uuid=f"r{i}", object_uuid="cfg",
                operation="READ", timestamp=j * 100 + i,
                subject_attrs={"name": "reader"},
                object_attrs={"path": "/etc/app.conf"}))
        events.extend(writer_events(f"w{i}", "writer", i))
    test_events = list(events)
    if swap_one:
        test_events.extend(writer_events("impostor", "reader", 3))
    train_graph = graph_from_events(events, window_ns=10, name="train")
    test_graph = graph_from_events(test_events, window_ns=10, name="test")
    vocab, result = fit(train_graph, PipelineConfig(
        seed=6, features=FeatureConfig(semantic_dim=8, w2v_epochs=2),
        encoder=EncoderConfig(embedding_dim=6, num_layers=2, epochs=5,
                              batch_size=8)))
    kb = build_knowledge_base([train_graph], result.params, vocab, 0.02,
                              DEFAULT_OP_VOCAB)
    return train_graph, test_graph, result.params, vocab, kb


def test_detect_graph_training_set_criterion1_within_epsilon():
    train_graph, _, params, vocab, kb = synthetic_two_identity_setup()
    alerts = detect_graph(train_graph, params, vocab, kb, DEFAULT_OP_VOCAB)
    flagged = Counter(a.claimed for a in alerts
                      if a.violation in ("deviation", "both"))
    for label, count in flagged.items():
        assert count <= math.floor(0.02 * kb.profiles[label].count)


def test_detect_graph_flags_identity_swapped_node():
    _, test_graph, params, vocab, kb = synthetic_two_identity_setup(swap_one=True)
    alerts = detect_graph(test_graph, params, vocab, kb, DEFAULT_OP_VOCAB)
    impostor = [a for a in alerts if a.node_uuid == "impostor"]
    assert impostor, "identity-swapped node must alert"
    assert impostor[0].violation in ("mismatch", "both")
    assert impostor[0].claimed == "subject::reader"
    # behaves like something from the writer side of the graph, not a reader
    assert impostor[0].matched != "subject::reader"
    assert impostor[0].matched in ("subject::writer", "file::app.log",
                                   "file::app.state")


def test_detect_graph_empty_graph():
    _, _, params, vocab, kb = synthetic_two_identity_setup()
    empty = build_graph(EventColumns(), window_ns=10, name="empty")
    assert detect_graph(empty, params, vocab, kb, DEFAULT_OP_VOCAB) == []


def test_detect_graph_deterministic_and_sorted():
    _, test_graph, params, vocab, kb = synthetic_two_identity_setup(swap_one=True)
    one = detect_graph(test_graph, params, vocab, kb, DEFAULT_OP_VOCAB)
    two = detect_graph(test_graph, params, vocab, kb, DEFAULT_OP_VOCAB)
    assert [a.to_json() for a in one] == [a.to_json() for a in two]
    keys = [(-a.score, a.node_uuid) for a in one]
    assert keys == sorted(keys)


def test_epsilon_monotonicity_on_training_set():
    train_graph, _, params, vocab, _ = synthetic_two_identity_setup()

    def deviation_count(eps):
        kb = build_knowledge_base([train_graph], params, vocab, eps,
                                  DEFAULT_OP_VOCAB)
        alerts = detect_graph(train_graph, params, vocab, kb, DEFAULT_OP_VOCAB)
        return sum(1 for a in alerts if a.violation in ("deviation", "both"))

    counts = [deviation_count(eps) for eps in (0.0, 0.1, 0.3)]
    assert counts[0] <= counts[1] or counts[0] == 0
    assert sorted(counts, reverse=True) == counts or counts == sorted(counts)
    # larger epsilon shrinks radii, so deviation flags can only grow
    assert counts == sorted(counts)


# --- serialization -----------------------------------------------------------------

def test_alert_save_load_round_trip(tmp_path):
    alerts = [
        Alert(node_uuid="n1", graph_name="g", claimed="A", matched="B",
              deviation=2.5, radius=1.0, violation="both",
              explanation="declared A behaves like B, d=2.5, R=1", score=2.5),
        Alert(node_uuid="n2", graph_name="g", claimed="C", matched="A",
              deviation=0.7, radius=None, violation="unknown_identity",
              explanation="declared C has no benign profile", score=1.7),
    ]
    path = tmp_path / "alerts.jsonl"
    save_alerts(alerts, path)
    loaded = load_alerts(path)
    assert [a.to_json() for a in loaded] == [a.to_json() for a in alerts]
    assert loaded == alerts
    assert_canonical_json_files(tmp_path)


def test_alert_table_renders():
    table = format_alert_table([
        Alert(node_uuid="n1", graph_name="g", claimed="A", matched="B",
              deviation=2.0, radius=1.0, violation="mismatch",
              explanation="", score=1.0)])
    assert "n1" in table and "mismatch" in table
    assert format_alert_table([]) == \
        "no identity-consistency violations detected"
