import json
import logging
import random
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provlens import synth
from provlens.config import DEFAULT_OP_VOCAB
from provlens.errors import ArtifactError, FormatError
from provlens.features import build_node_summary
from provlens.ingest import (
    EDGE_COLUMNS,
    ENTITY_KINDS,
    KEY_ATTRIBUTE,
    TIMESTAMP_END,
    Entity,
    EventColumns,
    ProvenanceGraph,
    build_graph,
    derive_identity,
    graph_paths,
    load_graph,
    parse_events,
    save_graph,
    union_graph,
)
from provlens.investigation.graphstore import GraphStore
from provlens.profiler import edge_digest

import graph_oracle
from conftest import (assert_canonical_json_files, edge_objects,
                      events_to_lines, from_edges, graph_from_events,
                      make_event, manual_graph,
                      oracle_case, oracle_graphs, shuffled_graph)


# --- parse_events ------------------------------------------------------------

def test_parse_single_line_round_trips_fields():
    event = make_event(event_id="abc", subject_uuid="s9", object_uuid="o9",
                       operation="WRITE", timestamp=123)
    result = parse_events(events_to_lines([event]))
    assert result.skipped == 0
    assert len(result.events) == 1
    parsed = result.events
    assert parsed.event_id == ["abc"]
    assert parsed.subject_uuid == ["s9"]
    assert parsed.object_uuid == ["o9"]
    assert parsed.operation == ["WRITE"]
    assert parsed.timestamp == [123]


def test_parse_empty_input():
    result = parse_events([])
    assert result.events == EventColumns() and result.skipped == 0


def test_parse_skips_malformed_lines():
    lines = events_to_lines([make_event(event_id=f"e{i}", timestamp=i)
                             for i in range(8)])
    lines.insert(3, "{not json")
    lines.append(json.dumps({"event_id": "x"}))  # missing required fields
    result = parse_events(lines)
    assert len(result.events) == 8
    assert result.skipped == 2


@pytest.mark.parametrize("bad", [
    {"timestamp": -5},
    {"timestamp": "soon"},
    {"subject_uuid": ""},
    {"operation": "TELEPORT"},
    {"object_kind": "moon"},
    {"object_uuid": None},
    {"object_uuid": ""},
    {"object_uuid": 7},
    {"timestamp": 2 ** 63},  # past int64 nanoseconds
])
def test_parse_rejects_invalid_field(bad):
    event = make_event()
    event.update(bad)
    result = parse_events(events_to_lines([event, make_event(event_id="ok2"),
                                           make_event(event_id="ok3")]))
    assert result.skipped == 1
    assert len(result.events) == 2


@pytest.mark.parametrize("path", [7, 0, True, False, ["/tmp/f"], {"p": 1}])
def test_parse_skips_a_file_whose_path_is_not_a_string(path):
    bad = make_event(object_attrs={"path": path})
    result = parse_events(events_to_lines([bad, make_event(event_id="ok2"),
                                           make_event(event_id="ok3")]))
    assert result.skipped == 1 and len(result.events) == 2


@pytest.mark.parametrize("value", [["nginx"], True, 7, 44.0, {"n": 1}])
@pytest.mark.parametrize("where", ["subject", "object"])
def test_parse_skips_a_subject_whose_name_is_not_a_string(where, value):
    if where == "subject":
        bad = make_event(subject_attrs={"name": value})
    else:
        bad = make_event(object_kind="subject", object_attrs={"name": value})
    result = parse_events(events_to_lines([bad, make_event(event_id="ok2"),
                                           make_event(event_id="ok3")]))
    assert result.skipped == 1 and len(result.events) == 2


@pytest.mark.parametrize("port", [44.0, True, False, "443", [443], {"n": 443}])
def test_parse_skips_a_netflow_whose_port_is_not_an_integer(port):
    bad = make_event(object_kind="netflow", object_attrs={"port": port})
    result = parse_events(events_to_lines([bad, make_event(event_id="ok2"),
                                           make_event(event_id="ok3")]))
    assert result.skipped == 1 and len(result.events) == 2


def test_parse_reads_a_null_or_missing_name_or_port_as_unknown():
    events = [make_event(event_id="a", subject_uuid="s1", object_uuid="n1",
                         subject_attrs={"name": None}, object_kind="netflow",
                         object_attrs={"port": None}),
              make_event(event_id="b", subject_uuid="s2", object_uuid="n2",
                         subject_attrs={"pid": 4}, object_kind="netflow",
                         object_attrs={"ip": "10.0.0.1"}),
              make_event(event_id="c", subject_uuid="s3", object_uuid="n3",
                         object_kind="netflow", object_attrs={"port": 0})]
    graph = graph_from_events(events)
    assert [graph.nodes[u].identity for u in ("s1", "s2", "n1", "n2", "n3")] \
        == ["subject::unknown", "subject::unknown", "net::unknown",
            "net::unknown", "net::0"]


def test_parse_reads_a_null_or_missing_path_as_unknown():
    events = [make_event(event_id="a", object_uuid="o1",
                         object_attrs={"path": None}),
              make_event(event_id="b", object_uuid="o2",
                         object_attrs={"mode": "r"})]
    graph = graph_from_events(events)
    assert [graph.nodes[u].identity for u in ("o1", "o2")] == [
        "file::unknown", "file::unknown"]


@pytest.mark.parametrize("attrs", [[], "", 0, False, [1], "x", 5, True])
@pytest.mark.parametrize("field", ["subject_attrs", "object_attrs"])
def test_parse_skips_an_attribute_map_that_is_not_an_object(field, attrs):
    bad = make_event()
    bad[field] = attrs
    result = parse_events(events_to_lines([bad, make_event(event_id="ok2"),
                                           make_event(event_id="ok3")]))
    assert result.skipped == 1 and len(result.events) == 2


@pytest.mark.parametrize("field", ["subject_attrs", "object_attrs"])
def test_parse_reads_a_null_or_missing_attribute_map_as_empty(field):
    null, missing = make_event(event_id="a"), make_event(event_id="b")
    null[field] = None
    del missing[field]
    result = parse_events(events_to_lines([null, missing]))
    assert result.skipped == 0
    assert getattr(result.events, field) == [{}, {}]


def test_parse_judges_each_line_on_its_own():
    """A JSON value split over two lines is two malformed lines, two events
    on one line are one, and so are a line nested past the decoder's depth
    and a value that is not an object."""
    good = events_to_lines([make_event(event_id=f"e{i}", timestamp=i)
                            for i in range(8)])
    joined = ", ".join(events_to_lines([make_event(event_id="x1"),
                                        make_event(event_id="x2")]))
    result = parse_events([*good, "[1", "2]", joined, "[" * 100_000,
                           "null", "[]", '"e"'])
    assert result.skipped == 7
    assert result.events.event_id == [f"e{i}" for i in range(8)]


def test_parse_mostly_malformed_is_a_format_error():
    lines = ["garbage"] * 6 + events_to_lines([make_event()])
    with pytest.raises(FormatError):
        parse_events(lines)


def test_parse_unreadable_path():
    with pytest.raises(ArtifactError):
        parse_events("/nonexistent/events.jsonl")


def _oracle_event(line: str) -> graph_oracle.Event:
    """The event of one line: ``json.loads`` and each check of the event
    format, with no object shared with another line's event."""
    record = json.loads(line)
    subject, obj = record["subject_uuid"], record["object_uuid"]
    if type(subject) is not str or type(obj) is not str or not subject \
            or not obj:
        raise ValueError("uuid")
    timestamp = record["timestamp"]
    if type(timestamp) is not int or not 0 <= timestamp < TIMESTAMP_END:
        raise ValueError("timestamp")
    kind = record["object_kind"]
    if kind not in ENTITY_KINDS:
        raise ValueError("kind")
    maps = []
    for field in ("subject_attrs", "object_attrs"):
        attrs = record.get(field)
        if attrs is not None and type(attrs) is not dict:
            raise ValueError(field)
        maps.append({} if attrs is None else attrs)
    for attrs, (key, required) in zip(maps, (KEY_ATTRIBUTE["subject"],
                                             KEY_ATTRIBUTE[kind])):
        if attrs.get(key) is not None and type(attrs[key]) is not required:
            raise ValueError(key)
    if str(record["operation"]) not in DEFAULT_OP_VOCAB:
        raise ValueError("operation")
    return graph_oracle.Event(str(record["event_id"]), subject, obj,
                              str(record["operation"]), timestamp, *maps, kind)


def _oracle_parse(lines):
    """(events, skipped) of ``lines`` one at a time, or FormatError when
    more than half of the non-blank lines are malformed."""
    events, skipped, total = [], 0, 0
    for line in filter(None, map(str.strip, lines)):
        total += 1
        try:
            events.append(_oracle_event(line))
        except (ValueError, KeyError, TypeError):
            skipped += 1
    return FormatError if skipped * 2 > total else (events, skipped)


def _as_json(events: EventColumns, window_ns=5):
    """Every field of every event of the columns ``events`` and the node
    attrs ``build_graph`` gives them, as JSON text, so that 1, 1.0 and True,
    and 0.0 and -0.0, differ."""
    graph = build_graph(events, window_ns)
    return (json.dumps(list(zip(*(getattr(events, f.name)
                                  for f in fields(EventColumns)))),
                       sort_keys=True),
            json.dumps([[uuid, node.kind, node.attrs, node.identity]
                        for uuid, node in graph.nodes.items()],
                       sort_keys=True))


# Groups of attribute values that are equal but not the same JSON text
EQUAL_VALUES = ([1, 1.0, True], [0, 0.0, -0.0, False], [[1], [1.0], [True]])
KEY_VALUES = {"subject": ("name", ["p", None]), "file": ("path", ["/a"]),
              "netflow": ("port", [80])}


@st.composite
def event_lines(draw):
    """Lines of events of few uuids, now and then a malformed one. Each
    attribute map is null, missing, a new draw, a copy of the last map of its
    role and uuid, or that copy with its value ``v`` swapped for an equal one
    of another JSON text."""
    lines, last = [], {}
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["{not json", "", "[]",
                                               '{"a": 1}'])))
            continue
        kind = draw(st.sampled_from(ENTITY_KINDS))
        event = make_event(draw(st.sampled_from(["e0", "e1", "e2"])),
                           draw(st.sampled_from(["a", "b"])),
                           draw(st.sampled_from(["a", "b", "c"])),
                           draw(st.sampled_from(["READ", "WRITE"])),
                           draw(st.integers(0, 12)), object_kind=kind)
        for field, role in (("subject", "subject"), ("object", kind)):
            slot = (field, event[f"{field}_uuid"], role)
            how = draw(st.sampled_from(["null", "missing", "new", "repeat",
                                        "swap"]))
            if how == "null":
                event[f"{field}_attrs"] = None
                continue
            if how == "missing":
                del event[f"{field}_attrs"]
                continue
            if how != "new" and slot in last:
                attrs = json.loads(json.dumps(last[slot]))
                if how == "swap" and "v" in attrs:
                    attrs["v"] = draw(st.sampled_from(next(
                        (group for group in EQUAL_VALUES
                         if attrs["v"] in group), [attrs["v"]])))
            else:
                key, values = KEY_VALUES[role]
                attrs = {key: draw(st.sampled_from(values))}
                if draw(st.booleans()):
                    attrs["v"] = draw(st.sampled_from(
                        [*sum(EQUAL_VALUES, []), "1", None]))
            event[f"{field}_attrs"] = last[slot] = attrs
        lines.append(json.dumps(event))
    return lines


def _first_naming_case(earlier, later):
    """Two lines of uuids ``s`` and ``o``, extra attribute ``v`` first
    ``earlier``, then ``later`` in the line whose event comes first, so
    that its maps are the nodes' first naming."""
    return [json.dumps(make_event(event_id=f"e{i}", subject_uuid="s",
                                  object_uuid="o", timestamp=1 - i,
                                  subject_attrs={"name": "p", "v": value},
                                  object_attrs={"path": "/a", "v": value}))
            for i, value in enumerate((earlier, later))]


# Whitespace that ``str.strip`` removes and JSON does not allow: a line is
# stripped before it is decoded, so padding of it still parses.
NON_JSON_SPACE = ("\x0c", "\x1c", "\x85", "\u2028")


@settings(max_examples=300, deadline=None)
@given(event_lines())
@example([pad + json.dumps(make_event(event_id=f"e{i}")) + pad
          for i, pad in enumerate(NON_JSON_SPACE)])
@example([json.dumps(make_event()) + "\r"])
@example(_first_naming_case(1, 1.0))
@example(_first_naming_case(1, True))
@example(_first_naming_case(0.0, -0.0))
@example(_first_naming_case([1], [1.0]))
def test_parse_equals_the_line_by_line_oracle(lines):
    """Every entry of every event column and every node's attrs are the
    JSON text of its own line's, though parsing shares repeated uuids,
    operations, kinds and attribute maps across lines."""
    try:
        result = parse_events(lines)
    except FormatError:
        result = FormatError
    want = _oracle_parse(lines)
    if want is FormatError or result is FormatError:
        assert result is want
        return
    assert result.skipped == want[1]
    assert _as_json(result.events) == _as_json(
        graph_oracle.event_columns(want[0]))


# Bytes ``parse_events`` retains per event of the 3x20-node synth scenario on
# CPython 3.11: 192 in columns with repeats shared, 231 as one object per
# event, against 1,037 with a copy of each per event.
RETAINED_BYTES_PER_EVENT = 400


def test_parse_shares_repeats_and_retains_few_bytes_per_event():
    """Two events of one uuid share their uuid string and their plain
    attribute map, and the parse of a fixed scenario retains at most
    ``RETAINED_BYTES_PER_EVENT`` per event."""
    benign = synth.generate_scenario(synth.default_scenario(
        num_identities=3, nodes_per_identity=20, seed=3))[0]
    lines = events_to_lines(benign)
    tracemalloc.start()
    try:
        events = parse_events(lines).events
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(events) == len(benign) > 1000
    assert retained <= RETAINED_BYTES_PER_EVENT * len(events)
    for role in ("subject", "object"):
        uuids = getattr(events, f"{role}_uuid")
        maps = getattr(events, f"{role}_attrs")
        first, second = [i for i, uuid in enumerate(uuids)
                         if uuid == uuids[0]][:2]
        assert uuids[first] is uuids[second]
        assert maps[first] is maps[second]


# --- build_graph -------------------------------------------------------------

def test_aggregation_merges_within_window():
    events = [make_event(event_id=f"e{i}", timestamp=i) for i in range(3)]
    graph = graph_from_events(events, window_ns=10)
    assert len(graph.edge_columns) == 1
    edge = edge_objects(graph)[0]
    assert (edge.weight, edge.first_ts, edge.last_ts) == (3, 0, 2)


def test_aggregation_partitions_by_operation():
    events = [make_event(event_id="e1", operation="READ"),
              make_event(event_id="e2", operation="WRITE")]
    graph = graph_from_events(events, window_ns=10)
    assert len(graph.edge_columns) == 2
    assert all(e.weight == 1 for e in edge_objects(graph))


def test_aggregation_window_gap_opens_new_edge():
    events = [make_event(event_id="e1", timestamp=0),
              make_event(event_id="e2", timestamp=15)]
    graph = graph_from_events(events, window_ns=10)
    assert len(graph.edge_columns) == 2
    assert all(e.weight == 1 for e in edge_objects(graph))


def test_window_anchored_at_first_event():
    # 0 and 8 merge; 14 is within 10 of 8 but not of the aggregate start
    events = [make_event(event_id=f"e{i}", timestamp=t)
              for i, t in enumerate([0, 8, 14])]
    graph = graph_from_events(events, window_ns=10)
    weights = sorted(e.weight for e in edge_objects(graph))
    assert weights == [1, 2]


def test_graph_invariants():
    events = [make_event(event_id=f"e{i}", subject_uuid=f"s{i % 2}",
                         timestamp=i * 5) for i in range(6)]
    graph = graph_from_events(events, window_ns=7)
    for edge in edge_objects(graph):
        assert edge.src in graph.nodes and edge.dst in graph.nodes
        assert edge.first_ts <= edge.last_ts
        assert edge.weight >= 1


event_strategy = st.builds(
    make_event,
    event_id=st.uuids().map(str),
    subject_uuid=st.sampled_from(["s1", "s2", "s3"]),
    object_uuid=st.sampled_from(["o1", "o2"]),
    operation=st.sampled_from(["READ", "WRITE", "CONNECT"]),
    timestamp=st.integers(min_value=0, max_value=100),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(event_strategy, max_size=40), st.randoms())
def test_weight_conservation_under_permutation(events, rnd):
    shuffled = list(events)
    rnd.shuffle(shuffled)
    graph = graph_from_events(events, window_ns=13)
    graph_shuffled = graph_from_events(shuffled, window_ns=13)
    assert sum(e.weight for e in edge_objects(graph)) == len(events)
    key = lambda e: (e.src, e.dst, e.operation, e.first_ts, e.last_ts, e.weight)
    assert sorted(map(key, edge_objects(graph))) \
        == sorted(map(key, edge_objects(graph_shuffled)))


@settings(max_examples=40, deadline=None)
@given(st.lists(event_strategy, max_size=30))
def test_aggregation_idempotent_on_expanded_edges(events):
    graph = graph_from_events(events, window_ns=13)
    expanded = []
    for i, edge in enumerate(edge_objects(graph)):
        for j in range(edge.weight):
            ts = edge.first_ts if j < edge.weight - 1 else edge.last_ts
            expanded.append(make_event(
                event_id=f"x{i}-{j}", subject_uuid=edge.src,
                object_uuid=edge.dst, operation=edge.operation, timestamp=ts))
    rebuilt = graph_from_events(expanded, window_ns=13)
    key = lambda e: (e.src, e.dst, e.operation, e.first_ts, e.last_ts, e.weight)
    assert sorted(map(key, edge_objects(rebuilt))) \
        == sorted(map(key, edge_objects(graph)))


def test_incidence_in_edge_order_and_read_only():
    events = [make_event(event_id="e1", timestamp=50, operation="WRITE"),
              make_event(event_id="e2", timestamp=10, operation="READ")]
    graph = graph_from_events(events, window_ns=1)
    rows = graph.incidence.of("s1")
    assert [graph.operations[op] for op in rows[:, 2]] == ["READ", "WRITE"]
    # no caller can reorder the index
    assert not graph.incidence.offsets.flags.writeable
    assert not graph.incidence.edge_rows.flags.writeable


@settings(max_examples=100, deadline=None)
@given(oracle_graphs())
@example(oracle_case())
def test_incidence_readers_equal_the_object_walks(case):
    """Each node's incident edge rows, its token summary, edge digest and
    1-hop neighborhood equal the walks over edge objects, at every limit or
    cap that matters: 0, 1, the node's degree and one more."""
    graph = case[0]
    store = GraphStore(graph, np.zeros((len(graph.nodes), 1)))
    walk, edges = graph_oracle.incidence(graph), edge_objects(graph)
    for uuid, node in graph.nodes.items():
        assert graph.incidence.of(uuid).tolist() == [
            graph.edge_columns[edges.index(edge)].tolist()
            for edge in walk[uuid]]
        assert build_node_summary(node, graph) \
            == graph_oracle.build_node_summary(node, graph)
        for limit in sorted({0, 1, len(walk[uuid]), len(walk[uuid]) + 1}):
            assert edge_digest(graph, uuid, limit) \
                == graph_oracle.edge_digest(graph, uuid, limit)
            assert store.neighborhood(uuid, limit) \
                == graph_oracle.neighborhood(graph, uuid, limit)


def _union_of_edges(graphs):
    """``union_graph`` built from edge objects: every node and edge copied
    with its uuids keyed by the graph's position."""
    nodes, edges = {}, []
    for position, graph in enumerate(graphs):
        prefix = f"{position}:"
        nodes.update((prefix + uuid, replace(node, uuid=prefix + uuid))
                     for uuid, node in graph.nodes.items())
        edges += [replace(edge, src=prefix + edge.src, dst=prefix + edge.dst)
                  for edge in edge_objects(graph)]
    return from_edges("+".join(g.name for g in graphs), nodes, edges)


def _window(position):
    """A small graph; odd and even positions use disjoint operations, and
    every window names s0 and o0 at equal stamps."""
    ops = ["READ", "WRITE"] if position % 2 else ["EXECUTE", "CONNECT"]
    events = [make_event(event_id=f"e{i}", subject_uuid=f"s{i % 3}",
                         object_uuid=f"o{i * (position + 1) % 4}",
                         operation=ops[i % 2], timestamp=i * 5 % 13)
              for i in range(2 + position)]
    return graph_from_events(events, window_ns=3, name=f"w{position}")


EDGELESS = manual_graph([("s9", "subject", {}, "subject::p")], [],
                        name="edgeless")


@pytest.mark.parametrize("graphs", [
    [_window(0)],
    [_window(0), _window(1)],
    [_window(p) for p in range(11)] + [EDGELESS],
], ids=["1", "2", "12"])
def test_union_graph_equals_the_union_of_edge_objects(graphs):
    union = union_graph(graphs)
    assert union == _union_of_edges(graphs)
    assert len(union.edge_columns) == sum(len(g.edge_columns) for g in graphs)


def test_graph_with_a_dangling_edge_endpoint_raises():
    nodes = [("s1", "subject", {}, "subject::a")]
    edges = [("s1", "s1", "READ", 1, 1, 1), ("s1", "o2", "READ", 2, 2, 1),
             ("o1", "s1", "READ", 3, 3, 1)]
    with pytest.raises(ValueError, match="'o1' is not a node"):
        manual_graph(nodes, edges)


# Small pools, so that one key's events often span more than the window,
# events often tie on everything but their event id and attributes, and
# self-loops and uuids named first as an object and later as a subject are
# common. Attribute values 1, 1.0 and True are equal but not the same bytes.
KEY_ATTRS = {"subject": ("name", ["p", "q"]), "file": ("path", ["/a", "/b/"]),
             "netflow": ("port", [80, 443])}
EXTRA_ATTR = st.dictionaries(st.just("v"), st.sampled_from([1, 1.0, True]),
                             max_size=1)


@st.composite
def raw_events(draw):
    kind = draw(st.sampled_from(ENTITY_KINDS))
    key, values = KEY_ATTRS[kind]
    return graph_oracle.Event(
        draw(st.sampled_from(["e0", "e1", "e2"])),
        draw(st.sampled_from(["a", "b", "c"])),
        draw(st.sampled_from(["a", "b", "c", "d"])),
        draw(st.sampled_from(["READ", "WRITE"])),
        draw(st.one_of(st.integers(0, 30),
                       st.integers(LAST_STAMP - 3, LAST_STAMP))),
        {"name": draw(st.sampled_from(KEY_ATTRS["subject"][1])),
         **draw(EXTRA_ATTR)},
        {key: draw(st.sampled_from(values)), **draw(EXTRA_ATTR)}, kind)


def _event(event_id, src, dst, timestamp, name="p", kind="file", **attrs):
    return graph_oracle.Event(event_id, src, dst, "READ", timestamp,
                              {"name": name},
                              {**attrs, "path": "/a"} if kind == "file"
                              else {**attrs, "name": name}, kind)


@settings(max_examples=300, deadline=None)
@given(st.lists(raw_events(), max_size=30),
       st.sampled_from([1, 3, 10, 2 ** 63, 2 ** 70]))
@example([_event("e1", "a", "b", 0), _event("e0", "a", "b", 4),  # spread key
          _event("e2", "a", "b", 9), _event("e0", "a", "b", 12)], 5)
@example([_event("e1", "a", "b", 7, v=True),  # ties up to event id and attrs
          _event("e0", "a", "b", 7, v=1.0), _event("e2", "a", "b", 7)], 3)
@example([_event("e0", "c", "c", 5, kind="subject", name="q"),  # self-loop
          _event("e1", "a", "c", 2), _event("e2", "c", "a", 3)], 1)
def test_build_graph_equals_the_event_walk(events, window_ns):
    """Node order, kind, attributes and identity, ``operations`` and
    ``edge_columns`` of the events' columns equal the event-by-event
    oracle's, compared by repr so that 1, 1.0 and True differ."""
    graph = build_graph(graph_oracle.event_columns(events), window_ns,
                        name="w")
    nodes, operations, rows = graph_oracle.build_graph(events, window_ns)
    assert repr(list(graph.nodes.items())) == repr(list(nodes.items()))
    assert graph.operations == operations
    assert graph.edge_columns.dtype == np.int64
    assert graph.edge_columns.tolist() == rows


def _two_nodes():
    return {u: Entity(u, "subject", {}, "subject::a") for u in ("a", "b")}


@pytest.mark.parametrize("nodes,operations,rows,message", [
    (dict(reversed(_two_nodes().items())), [], [], "ascending order"),
    (_two_nodes(), ["WRITE", "READ"], [], "sorted and distinct"),
    (_two_nodes(), ["READ", "READ"], [], "sorted and distinct"),
    (_two_nodes(), ["READ"], [[0, 2, 0, 1, 1, 1]], "endpoint row 2"),
    (_two_nodes(), ["READ"], [[-1, 0, 0, 1, 1, 1]], "endpoint row -1"),
    (_two_nodes(), ["READ"], [[0, 1, 1, 1, 1, 1]], "operation index 1"),
    (_two_nodes(), ["READ", "WRITE"],
     [[0, 1, 0, 5, 5, 1], [0, 1, 1, 4, 4, 1]], "canonical order"),  # first_ts
    (_two_nodes(), ["READ"],
     [[1, 0, 0, 5, 5, 1], [0, 1, 0, 5, 5, 1]], "canonical order"),  # src row
    (_two_nodes(), ["READ", "WRITE"],
     [[0, 1, 0, 5, 5, 1], [0, 0, 1, 5, 5, 1]], "canonical order"),  # dst row
    (_two_nodes(), ["READ", "WRITE"],
     [[0, 1, 1, 5, 5, 1], [0, 1, 0, 5, 5, 1]], "canonical order"),  # operation
    (_two_nodes(), ["READ", "WRITE"], [[0, 1, 0, 5, 5, 1]], "used by no edge"),
], ids=["uuids-descending", "operations-unsorted", "operations-repeated",
        "dst-row-past-nodes", "src-row-negative", "operation-past-operations",
        "first_ts-decreasing", "src-row-decreasing", "dst-row-decreasing",
        "operation-decreasing", "operation-unused"])
def test_graph_constructor_rejects_a_broken_stored_form(nodes, operations,
                                                        rows, message):
    columns = np.array(rows or np.empty((0, len(EDGE_COLUMNS))),
                       dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        ProvenanceGraph("g", nodes, operations, columns)


def test_graph_constructor_keeps_equal_keys_in_row_order():
    rows = [[0, 1, 0, 5, 6, 1], [0, 1, 0, 5, 5, 2], [1, 0, 0, 5, 5, 1]]
    graph = ProvenanceGraph("g", _two_nodes(), ["READ"], np.array(rows))
    assert graph.edge_columns.tolist() == rows
    assert not graph.edge_columns.flags.writeable


# --- derive_identity ---------------------------------------------------------

def test_identity_subject():
    assert derive_identity("subject", {"name": "nginx"}) == "subject::nginx"


def test_identity_netflow_uses_port():
    assert derive_identity("netflow", {"port": 80}) == "net::80"


def test_identity_file_uses_basename():
    assert derive_identity("file", {"path": "/etc/nginx/nginx.conf"}) \
        == "file::nginx.conf"


def test_identity_missing_key_attribute_is_total():
    assert derive_identity("file", {}) == "file::unknown"
    assert derive_identity("subject", {"name": ""}) == "subject::unknown"


def test_unlabelled_entities_log_one_warning_per_graph(caplog):
    """30 events whose 60 entities have no key attribute log one warning
    with the count, not one per entity; ``derive_identity`` logs nothing."""
    events = [make_event(event_id=f"e{i}", subject_uuid=f"s{i}",
                         object_uuid=f"o{i}", timestamp=i, subject_attrs={},
                         object_attrs={}) for i in range(30)]
    with caplog.at_level(logging.WARNING, logger="provlens.ingest"):
        graph = graph_from_events(events)
        assert len(graph.nodes) == 60
        assert [record.getMessage() for record in caplog.records] == [
            "60 entities have no key attribute; labelled unknown"]
        caplog.clear()
        assert derive_identity("file", {}) == "file::unknown"
        assert caplog.records == []


def test_identity_is_pure():
    results = {derive_identity("netflow", {"port": 443}) for _ in range(20)}
    assert results == {"net::443"}
    with pytest.raises(ValueError):
        derive_identity("socketoid", {})


# --- serialization -----------------------------------------------------------

def test_graph_save_load_round_trip(tmp_path):
    events = [make_event(event_id=f"e{i}", subject_uuid=f"s{i % 3}",
                         operation=op, timestamp=i * 3)
              for i, op in enumerate(["READ", "WRITE", "READ", "CONNECT"])]
    graph = graph_from_events(events, window_ns=5, name="win1")
    save_graph(graph, tmp_path)
    loaded = load_graph(tmp_path, "win1")
    assert loaded == graph
    assert_canonical_json_files(tmp_path)
    # the same graph built from its nodes and edges shuffled saves the same
    save_graph(shuffled_graph(graph, random.Random(0)), tmp_path / "shuffled")
    for path in graph_paths(tmp_path, "win1").values():
        assert (tmp_path / "shuffled" / path.name).read_bytes() \
            == path.read_bytes()
    assert loaded.name == graph.name
    assert set(loaded.nodes) == set(graph.nodes)
    for uuid in graph.nodes:
        assert loaded.nodes[uuid].identity == graph.nodes[uuid].identity
    key = lambda e: (e.src, e.dst, e.operation, e.first_ts, e.last_ts, e.weight)
    assert sorted(map(key, edge_objects(loaded))) \
        == sorted(map(key, edge_objects(graph)))


def test_load_graph_missing_artifact(tmp_path):
    with pytest.raises(ArtifactError):
        load_graph(tmp_path, "ghost")


LAST_STAMP = 2 ** 63 - 1
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=False, allow_infinity=False),
                         st.text(max_size=6))


@st.composite
def saved_graphs(draw):
    """Graphs over small pools of uuids and operations, so self-loops,
    parallel edges and nodes without edges are common, with any text in
    uuids, identities and attributes and stamps up to ``LAST_STAMP``."""
    uuids = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1,
                          max_size=5, unique=True))
    nodes = [(uuid, draw(st.sampled_from(ENTITY_KINDS)),
              draw(st.dictionaries(st.text(max_size=4), JSON_SCALARS,
                                   max_size=3)),
              draw(st.text(max_size=8))) for uuid in uuids]
    endpoint = st.sampled_from(uuids)
    stamp = st.integers(0, LAST_STAMP)
    # as in a graph built from events, no two edges share the key of edge
    # order, so a shuffle cannot reorder ties
    edges = draw(st.lists(st.tuples(endpoint, endpoint,
                                    st.sampled_from(["READ", "WRITE", "é"]),
                                    stamp, stamp, st.integers(1, LAST_STAMP)),
                          max_size=12,
                          unique_by=lambda e: (e[3], e[0], e[1], e[2])))
    return manual_graph(nodes, edges)


@settings(max_examples=60, deadline=None)
@given(saved_graphs(), st.randoms())
@example(manual_graph([("s", "subject", {"näme": "prøc 名"}, "subject::é")],
                      []), random.Random(0))
@example(manual_graph(
    [("s", "subject", {"name": "ß"}, "subject::ß"),
     ("f", "file", {"path": "/tmp/ü", "n": [1, {"x": None}]}, "file::ü")],
    [("s", "s", "READ", 0, LAST_STAMP, LAST_STAMP),
     ("s", "f", "READ", 5, 9, 2), ("s", "f", "WRITE", 5, 7, 1)]),
    random.Random(0))
def test_saved_graph_loads_equal_and_saves_the_same_bytes(graph, order):
    with tempfile.TemporaryDirectory() as tmp:
        first, again, shuffled = (Path(tmp, sub) for sub in "abc")
        save_graph(graph, first)
        loaded = load_graph(first, graph.name)
        assert loaded == graph
        columns = graph.edge_columns
        node_row = {uuid: i for i, uuid in enumerate(graph.nodes)}
        assert columns.dtype == np.int64 and not columns.flags.writeable
        assert columns.shape[1] == len(EDGE_COLUMNS)
        assert columns.tolist() == [
            [node_row[e.src], node_row[e.dst],
             graph.operations.index(e.operation), e.first_ts, e.last_ts,
             e.weight] for e in edge_objects(graph)]
        assert graph.operations \
            == sorted({e.operation for e in edge_objects(graph)})
        edges_file = graph_paths(first, graph.name)["edges"]
        assert edges_file.read_bytes() == columns.astype("<i8").tobytes()
        assert np.array_equal(loaded.edge_columns, columns)
        save_graph(loaded, again)
        save_graph(shuffled_graph(graph, order), shuffled)
        for path in graph_paths(first, graph.name).values():
            assert (again / path.name).read_bytes() == path.read_bytes()
            assert (shuffled / path.name).read_bytes() == path.read_bytes()


def test_the_last_int64_stamp_is_ingested_and_saved(tmp_path):
    graph = graph_from_events([make_event(timestamp=LAST_STAMP)])
    assert edge_objects(graph)[0].first_ts == LAST_STAMP
    save_graph(graph, tmp_path)
    assert load_graph(tmp_path, graph.name) == graph


def _saved_graph(directory):
    """The paths of a saved three-node graph with two operations."""
    graph = manual_graph(
        [(u, "subject", {}, "subject::a") for u in ("a", "b", "c")],
        [("a", "b", "READ", 1, 1, 1), ("b", "c", "WRITE", 2, 3, 2)])
    save_graph(graph, directory)
    return graph_paths(directory, graph.name)


@pytest.mark.parametrize("column,value", [
    ("src_row", -1), ("dst_row", 3), ("operation", -1), ("operation", 2)])
def test_load_graph_rejects_an_edge_cell_out_of_range(tmp_path, column,
                                                      value):
    paths = _saved_graph(tmp_path)
    rows = np.fromfile(paths["edges"], dtype="<i8").reshape(
        -1, len(EDGE_COLUMNS))
    rows[-1, EDGE_COLUMNS.index(column)] = value
    rows.tofile(paths["edges"])
    with pytest.raises(ArtifactError) as exc:
        load_graph(tmp_path, "g")
    assert exc.value.path == str(paths["edges"])


@pytest.mark.parametrize("operations", [
    "READ", ["READ", "READ"], ["READ", 7], [["READ"], "WRITE"], None])
def test_load_graph_rejects_operations_not_distinct_strings(tmp_path,
                                                            operations):
    paths = _saved_graph(tmp_path)
    header = json.loads(paths["header"].read_text())
    header["operations"] = operations
    paths["header"].write_text(json.dumps(header))
    with pytest.raises(ArtifactError) as exc:
        load_graph(tmp_path, "g")
    assert exc.value.path == str(paths["header"])
