"""Synthetic audit-log scenarios with ground-truth labels.

A scenario names identity templates (operation mix, object pool, temporal
rhythm) and a set of identity-swapped violations: nodes that claim one
template's identity while behaving like another. The generator emits a benign
event file, an attack file (benign background plus the injected nodes) and a
label file listing the anomalous node uuids. Everything is driven by one
seeded generator, so a fixed seed reproduces the files byte for byte.
"""

from __future__ import annotations

import copy
import math
from pathlib import Path

import numpy as np

from . import ingest
from .artifacts import write_json, write_jsonl
from .config import DEFAULT_OP_VOCAB
from .errors import ConfigError

DEFAULT_TEMPLATES = [
    {
        "name": "webserv",
        "gap_scale": 1.0,
        "objects": [
            {"kind": "netflow", "port": 443, "shared": True, "weight": 5,
             "ops": {"CONNECT": 2, "RECV": 3, "SEND": 3}},
            {"kind": "file", "path": "/etc/webserv/webserv.conf", "shared": True,
             "weight": 1, "ops": {"READ": 1, "OPEN": 1}},
            {"kind": "file", "path": "/var/log/webserv/access.log",
             "shared": False, "weight": 2, "ops": {"WRITE": 1}},
        ],
    },
    {
        "name": "backupd",
        "gap_scale": 6.0,
        "objects": [
            {"kind": "file", "path": "/etc/backupd/backupd.conf", "shared": True,
             "weight": 1, "ops": {"READ": 1}},
            {"kind": "file", "path": "/data/state/db.snap", "shared": False,
             "weight": 3, "ops": {"READ": 3, "OPEN": 1}},
            {"kind": "file", "path": "/backup/daily.tar", "shared": False,
             "weight": 3, "ops": {"WRITE": 3, "CLOSE": 1}},
        ],
    },
    {
        "name": "shellmgr",
        "gap_scale": 0.5,
        "objects": [
            {"kind": "file", "path": "/usr/bin/runner", "shared": True,
             "weight": 2, "ops": {"EXECUTE": 1}},
            {"kind": "subject", "name": "worker", "shared": False, "weight": 3,
             "ops": {"FORK": 3, "CLONE": 1}},
        ],
    },
    {
        "name": "logrotated",
        "gap_scale": 12.0,
        "objects": [
            {"kind": "file", "path": "/var/log/syslog", "shared": True,
             "weight": 2, "ops": {"MODIFY": 2, "OPEN": 1}},
            {"kind": "file", "path": "/var/log/app/rotated.log", "shared": False,
             "weight": 3, "ops": {"WRITE": 3}},
        ],
    },
    {
        "name": "updater",
        "gap_scale": 3.0,
        "objects": [
            {"kind": "netflow", "port": 8080, "shared": True, "weight": 3,
             "ops": {"CONNECT": 1, "RECV": 4}},
            {"kind": "file", "path": "/var/cache/pkg/index.db", "shared": False,
             "weight": 2, "ops": {"WRITE": 2, "MODIFY": 1}},
        ],
    },
]

DEFAULT_START_TS = 1_700_000_000_000_000_000
DEFAULT_BASE_GAP_NS = 1_000_000_000  # 1 s


def default_scenario(num_identities: int = 5, nodes_per_identity: int = 50,
                     num_anomalies: int = 5, seed: int = 7,
                     events_per_node: tuple[int, int] = (20, 40)) -> dict:
    """Scenario dict using the built-in templates and cyclic identity swaps."""
    if not 1 <= num_identities <= len(DEFAULT_TEMPLATES):
        raise ConfigError(
            f"num_identities must be in [1, {len(DEFAULT_TEMPLATES)}]")
    templates = copy.deepcopy(DEFAULT_TEMPLATES[:num_identities])
    anomalies = []
    for i in range(num_anomalies):
        claimed = templates[i % num_identities]["name"]
        behavior = templates[(i + 1) % num_identities]["name"]
        if behavior == claimed:  # single-template scenario: no swap possible
            raise ConfigError("identity swaps need at least two templates")
        anomalies.append({"claimed": claimed, "behavior": behavior})
    return {
        "seed": seed,
        "nodes_per_identity": nodes_per_identity,
        "events_per_node": list(events_per_node),
        "start_ts": DEFAULT_START_TS,
        "base_gap_ns": DEFAULT_BASE_GAP_NS,
        "identities": templates,
        "anomalies": anomalies,
    }


def _count(value) -> bool:
    """Whether ``value`` is a non-negative integer (a bool is not)."""
    return type(value) is int and value >= 0


def _positive(value) -> bool:
    """Whether ``value`` is a finite positive number (a bool is not)."""
    return type(value) in (int, float) and 0 < value < math.inf


def _check(ok, where: str, field: str, expected: str) -> None:
    if not ok:
        raise ConfigError(f"{where} field {field!r} must be {expected}")


def _validate_template(template: dict, op_vocab) -> None:
    """Each entry has the type the generator reads and ``ingest`` accepts,
    so no template can crash the generator or write a line ingest skips."""
    where = f"template {template['name']!r}"
    objects = template.get("objects")
    _check(objects and type(objects) is list
           and all(type(obj) is dict for obj in objects), where, "objects",
           "a non-empty list of objects")
    _check(_positive(template.get("gap_scale", 1)), where, "gap_scale",
           "a positive number")
    for index, obj in enumerate(objects):
        at, kind = f"{where} object {index}", obj.get("kind")
        _check(type(kind) is str and kind in ingest.KEY_ATTRIBUTE, at, "kind",
               f"one of {sorted(ingest.KEY_ATTRIBUTE)}")
        key, required = ingest.KEY_ATTRIBUTE[kind]
        _check(type(obj.get(key)) is required, at, key,
               f"of type {required.__name__}")
        _check(ingest.identity_key(kind, obj), at, key,
               "a value that names an identity, not empty")
        _check(kind != "netflow" or type(obj.get("ip", "")) is str, at, "ip",
               "of type str")
        _check(_positive(obj.get("weight", 1)), at, "weight",
               "a positive number")
        _check(type(obj.get("shared", False)) is bool, at, "shared",
               "a boolean")
        ops = obj.get("ops")
        _check(ops and type(ops) is dict and set(ops) <= set(op_vocab)
               and all(map(_positive, ops.values())), at, "ops",
               "a non-empty object mapping operations of features.op_vocab "
               "to positive numbers")


def _validate_scenario(spec: dict, op_vocab) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError("scenario spec must be a JSON object")
    spec = dict(spec)
    identities = spec.get("identities")
    if (not identities or type(identities) is not list
            or any(type(t) is not dict for t in identities)):
        raise ConfigError("scenario spec needs a non-empty 'identities' list "
                          "of objects")
    names = [t.get("name") for t in identities]
    if (not all(type(name) is str and name for name in names)
            or len(set(names)) != len(names)):
        raise ConfigError("identity template field 'name' must be a unique "
                          "non-empty string")
    for template in identities:
        _validate_template(template, op_vocab)
    anomalies = spec.get("anomalies", [])
    if type(anomalies) is not list:
        raise ConfigError("scenario spec field 'anomalies' must be a list")
    for anomaly in anomalies:
        if (type(anomaly) is not dict or anomaly.get("claimed") not in names
                or anomaly.get("behavior") not in names):
            raise ConfigError("anomaly 'claimed'/'behavior' must name templates")
        if anomaly["claimed"] == anomaly["behavior"]:
            raise ConfigError("anomaly must swap two different identities")
    spec.setdefault("seed", 7)
    spec.setdefault("nodes_per_identity", 50)
    spec.setdefault("events_per_node", [20, 40])
    spec.setdefault("start_ts", DEFAULT_START_TS)
    spec.setdefault("base_gap_ns", DEFAULT_BASE_GAP_NS)
    for name in ("seed", "nodes_per_identity", "start_ts", "base_gap_ns"):
        if not _count(spec[name]):
            raise ConfigError(f"scenario spec field {name!r} must be a "
                              "non-negative integer")
    pair = spec["events_per_node"]
    if not (type(pair) is list and len(pair) == 2 and all(map(_count, pair))
            and 1 <= pair[0] <= pair[1]):
        raise ConfigError("scenario spec field 'events_per_node' must be an "
                          "increasing pair of positive integers")
    return spec


def _object_ref(template: dict, obj_index: int, obj: dict,
                owner: str) -> tuple[str, dict, str]:
    """(uuid, attrs, kind) for an object spec; per-owner unless shared."""
    name = template["name"]
    if obj.get("shared", False):
        uuid = f"o-{name}-{obj_index}"
    else:
        uuid = f"o-{owner}-{obj_index}"
    kind = obj["kind"]
    key = ingest.KEY_ATTRIBUTE[kind][0]
    attrs = {key: obj[key]}
    if kind == "netflow":
        attrs["ip"] = obj.get("ip", "10.0.0.1")
    return uuid, attrs, kind


def _emit_node_events(rng: np.random.Generator, spec: dict, template: dict,
                      subject_uuid: str, claimed_name: str,
                      id_prefix: str) -> list[dict]:
    lo, hi = spec["events_per_node"]
    count = int(rng.integers(lo, hi + 1))
    objects = template["objects"]
    obj_weights = np.array([obj.get("weight", 1.0) for obj in objects],
                           dtype=np.float64)
    obj_weights /= obj_weights.sum()
    op_tables = []
    for obj in objects:
        ops = sorted(obj["ops"])
        weights = np.array([obj["ops"][op] for op in ops], dtype=np.float64)
        op_tables.append((ops, weights / weights.sum()))
    gap = spec["base_gap_ns"] * template.get("gap_scale", 1.0)
    ts = spec["start_ts"] + int(rng.integers(0, spec["base_gap_ns"]))
    events = []
    for i in range(count):
        obj_index = int(rng.choice(len(objects), p=obj_weights))
        ops, weights = op_tables[obj_index]
        op = ops[int(rng.choice(len(ops), p=weights))]
        obj_uuid, obj_attrs, obj_kind = _object_ref(
            template, obj_index, objects[obj_index], subject_uuid)
        events.append({
            "event_id": f"{id_prefix}-{i:05d}",
            "subject_uuid": subject_uuid,
            "object_uuid": obj_uuid,
            "operation": op,
            "timestamp": ts,
            "subject_attrs": {"name": claimed_name},
            "object_attrs": obj_attrs,
            "object_kind": obj_kind,
        })
        ts += int(gap * (0.5 + rng.random()))
    return events


def generate_scenario(spec: dict, op_vocab=DEFAULT_OP_VOCAB
                      ) -> tuple[list[dict], list[dict], dict]:
    """Build (benign events, attack events, labels) from a scenario spec.

    The attack event list is the benign background plus the events of the
    injected identity-swapped nodes.
    """
    spec = _validate_scenario(spec, op_vocab)
    rng = np.random.default_rng(spec["seed"])
    templates = {t["name"]: t for t in spec["identities"]}

    benign: list[dict] = []
    benign_subjects: list[str] = []
    for template in spec["identities"]:
        for i in range(spec["nodes_per_identity"]):
            uuid = f"b-{template['name']}-{i:04d}"
            benign_subjects.append(uuid)
            benign.extend(_emit_node_events(rng, spec, template, uuid,
                                            template["name"], uuid))

    injected: list[dict] = []
    anomalous: list[str] = []
    for idx, anomaly in enumerate(spec.get("anomalies", [])):
        uuid = f"a-{idx:03d}-{anomaly['claimed']}"
        anomalous.append(uuid)
        behavior = templates[anomaly["behavior"]]
        injected.extend(_emit_node_events(rng, spec, behavior, uuid,
                                          anomaly["claimed"], uuid))

    labels = {
        "anomalous": anomalous,
        "benign_subjects": benign_subjects,
        "total_labeled": len(benign_subjects) + len(anomalous),
    }
    return benign, benign + injected, labels


def write_scenario(spec: dict, directory: str | Path,
                   op_vocab=DEFAULT_OP_VOCAB) -> dict:
    """Write benign.jsonl, attack.jsonl and labels.json; return the labels."""
    benign, attack, labels = generate_scenario(spec, op_vocab)
    base = Path(directory)
    write_jsonl(base / "benign.jsonl", benign)
    write_jsonl(base / "attack.jsonl", attack)
    write_json(base / "labels.json", labels, indent=2)
    return labels
