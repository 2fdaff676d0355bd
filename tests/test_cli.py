import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from provlens import cli, encoder, ingest, profiler
from provlens.artifacts import check_seal, seal
from provlens.cli import main
from provlens.config import DEFAULT_OP_VOCAB, PipelineConfig, load_config
from provlens.detector import (alerts_paths, load_alerts, load_detected_alerts,
                               save_alerts)
from provlens.encoder import encoder_paths, load_model, model_paths
from provlens.errors import ArtifactError, LLMTransportError, TrainingError
from provlens.ingest import EDGE_COLUMNS, graph_paths, load_graph
from provlens.investigation.llm import HttpChatLLM, ScriptedLLM, heuristic_mock
from provlens.investigation.repository import (InvestigationRepository,
                                                repository_paths)
from provlens.profiler import kb_paths, load_kb
from provlens.synth import default_scenario, generate_scenario, write_scenario

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SUBCOMMANDS = ["ingest", "train", "profile", "detect", "investigate",
               "report", "synth"]


def test_default_configuration_values():
    cfg = PipelineConfig()
    assert cfg.encoder.embedding_dim == 32
    assert cfg.encoder.num_layers == 2
    assert cfg.encoder.learning_rate == 1e-5
    assert cfg.epsilon == 0.02
    assert cfg.features.semantic_dim == 32
    assert cfg.features.window_ns == 10_000_000_000
    assert cfg.budget.max_llm_calls == 200


@pytest.mark.parametrize("command", SUBCOMMANDS + [None])
def test_help_exits_zero(command, capsys):
    argv = ([command, "--help"] if command else ["--help"])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "usage" in out
    assert "--epsilon" not in out and "--budget" not in out


@pytest.mark.parametrize("argv", [
    ["detect"], ["detect", "--graph", "attack", "--bogus"],
    ["synth", "--out", "out", "--identities", "abc"], []],
    ids=["detect-without-graph", "unknown-flag", "synth-identities-abc",
         "no-command"])
def test_usage_error_is_one_config_line_with_exit_3(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error code=config detail=provlens")


def test_detect_without_model_exits_2_and_names_artifact(tmp_path, capsys):
    scenario = tmp_path / "scenario"
    write_scenario(default_scenario(num_identities=2, nodes_per_identity=3,
                                    num_anomalies=0), scenario)
    artifacts = str(tmp_path / "artifacts")
    assert main(["ingest", "--artifacts", artifacts, "--input",
                 str(scenario / "benign.jsonl"), "--name", "b"]) == 0
    code = main(["detect", "--artifacts", artifacts, "--graph", "b"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error code=missing_artifact" in captured.err
    assert "model.seal.json" in captured.err


def _config(text, names, case):
    """A synth run whose config file holds ``text``."""
    return pytest.param(["synth", "--out", "{dir}/out", "--config", "{file}"],
                        text, names, id=case)


INVALID_CONFIG = [
    _config('{"epsilon": 2.0}', "epsilon", "epsilon"),
    _config('{"features": {"w2v_window": 0}}', "w2v_window", "w2v_window"),
    _config('{"features": {"w2v_negatives": 0}}', "w2v_negatives",
            "w2v_negatives"),
    _config('{"encoder": 5}', "'encoder'", "section-not-object"),
    _config('{"features": {"op_vocab": "READ"}}', "'features.op_vocab'",
            "op_vocab-string"),
    _config('{"features": {"op_vocab": ["READ", 1]}}', "'features.op_vocab'",
            "op_vocab-non-string-item"),
    _config('{"features": {"op_vocab": ["READ", "WRITE", "READ"]}}',
            "features.op_vocab repeats an operation", "op_vocab-repeated"),
    _config('{"budget": {"max_llm_calls": 2.7}}', "'budget.max_llm_calls'",
            "float-for-int"),
    _config('{"seed": "abc"}', "'seed'", "string-for-int"),
    _config('{"seed": {"a": 1}}', "'seed'", "object-for-int"),
    _config('{"seed": true}', "'seed'", "bool-for-int"),
    _config('{"epsilon": false}', "'epsilon'", "bool-for-float"),
    _config('{"encoder": {"epochs": -3}}', "epochs", "negative-epochs"),
    _config('{"encoder": {"learning_rate": -1}}', "learning_rate",
            "negative-learning_rate"),
    _config('{"encoder": {"aggregation": "sum"}}', "aggregation",
            "sum-aggregation"),
    _config('{"encoder": {"activation": "relu"}}', "'encoder.activation'",
            "activation-unknown"),
    _config('{"encoder": {"temperature": NaN}}', "NaN", "temperature-NaN"),
    _config('{"encoder": {"learning_rate": Infinity}}', "Infinity",
            "learning_rate-Infinity"),
    _config('{"llm": {"timeout_s": NaN}}', "NaN", "timeout_s-NaN"),
    _config('{"llm": {"api_key_env": "MY_KEY"}}', "'llm.api_key_env'",
            "api_key_env-unknown"),
    _config('{"seed": -1}', "seed must be >= 0", "negative-seed"),
    _config('{"llm": {"knn_k": 0}}', "llm.knn_k", "knn_k-zero"),
    _config('{"llm": {"timeout_s": 0}}', "llm.timeout_s", "timeout_s-zero"),
    _config('{"epsilon": 1.0}', "epsilon", "epsilon-one"),
    _config('{"epsilon": -0.1}', "epsilon", "epsilon-negative"),
    _config('{"features": {"semantic_dim": 0}}', "semantic_dim",
            "semantic_dim-zero"),
    _config('{"features": {"window_ns": 0}}', "window_ns", "window_ns-zero"),
    _config('{"encoder": {"batch_size": 1}}', "batch_size", "batch_size-one"),
    _config('{"encoder": {"num_layers": 0}}', "num_layers",
            "num_layers-zero"),
    _config(b'{"seed": "caf\xe9"}', "input.json", "config-not-utf8"),
    _config("[" * 200000, "input.json", "config-nested-too-deep"),
    pytest.param(["synth", "--out", "{dir}/out", "--seed", "-1"], "",
                 "seed must be >= 0", id="seed-flag-negative"),
    pytest.param(["train", "--artifacts", "{dir}", "--epochs", "-1"], "",
                 "epochs", id="train-epochs-negative"),
    pytest.param(["synth", "--out", "{dir}/out", "--spec", "{file}"], "[1, 2]",
                 "JSON object", id="spec-not-object"),
    pytest.param(["synth", "--out", "{dir}/out", "--spec", "{file}"],
                 b'{"seed": "caf\xe9"}', "input.json", id="spec-not-utf8"),
    pytest.param(["synth", "--out", "{dir}/out", "--spec", "{file}"],
                 "[" * 200000, "input.json", id="spec-nested-too-deep"),
    pytest.param(["train", "--artifacts", "{dir}"], "", "--graphs",
                 id="train-without-graphs"),
    pytest.param(["profile", "--artifacts", "{dir}"], "", "--graphs",
                 id="profile-without-graphs"),
]


@pytest.mark.parametrize("argv,text,names", INVALID_CONFIG)
def test_invalid_config_exits_3(tmp_path, capsys, argv, text, names):
    path = tmp_path / "input.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    code = main([arg.format(dir=tmp_path, file=path) for arg in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert "error code=config" in err and names in err


def test_integer_config_values_load_as_numbers(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text('{"epsilon": 0, "llm": {"timeout_s": 30}}',
                      encoding="utf-8")
    cfg = load_config(str(config))
    assert (cfg.epsilon, cfg.llm.timeout_s) == (0.0, 30.0)
    assert type(cfg.epsilon) is type(cfg.llm.timeout_s) is float


def test_environment_sets_no_setting(monkeypatch):
    """Settings come from the file and the flags only: a PROVLENS_* variable
    left in the shell neither changes nor fails a loaded config."""
    monkeypatch.setenv("PROVLENS_SEED", "abc")
    monkeypatch.setenv("PROVLENS_EPSILON", "0.5")
    monkeypatch.setenv("PROVLENS_ARTIFACTS_DIR", "elsewhere")
    monkeypatch.setenv("PROVLENS_LLM_BACKEND", "http")
    assert load_config() == PipelineConfig()
    assert load_config(overrides={"seed": 3}).seed == 3


def test_http_backend_reads_the_api_key_variable(tmp_path, monkeypatch):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"llm": {
        "backend": "http", "endpoint": "https://llm.example/v1/",
        "model": "m-1", "timeout_s": 12}}), encoding="utf-8")
    monkeypatch.setenv("PROVLENS_API_KEY", "sekrit")
    backend = cli._build_backend(load_config(str(config)))
    assert isinstance(backend, HttpChatLLM)
    assert (backend.endpoint, backend.model, backend.api_key,
            backend.timeout_s) == ("https://llm.example/v1", "m-1", "sekrit",
                                   12.0)


def test_readme_configuration_block_is_the_defaults(tmp_path):
    """The JSON block in the README's Configuration section loads to the
    defaults, so a changed default fails here until the README follows."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "readme.json"
    config.write_text(block, encoding="utf-8")
    assert load_config(str(config)) == PipelineConfig()


def test_unknown_config_key_exits_3(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text('{"wizardry": true}', encoding="utf-8")
    code = main(["synth", "--config", str(config),
                 "--out", str(tmp_path / "out")])
    assert code == 3


# --- synth ----------------------------------------------------------------------

def test_synth_label_arithmetic(tmp_path, capsys):
    out = tmp_path / "scn"
    assert main(["synth", "--out", str(out), "--identities", "5",
                 "--nodes-per-identity", "50", "--anomalies", "5"]) == 0
    labels = json.loads((out / "labels.json").read_text())
    assert labels["total_labeled"] == 255
    assert len(labels["anomalous"]) == 5
    assert len(labels["benign_subjects"]) == 250


def test_synth_zero_injections(tmp_path):
    out = tmp_path / "scn"
    assert main(["synth", "--out", str(out), "--identities", "3",
                 "--nodes-per-identity", "4", "--anomalies", "0"]) == 0
    labels = json.loads((out / "labels.json").read_text())
    assert labels["anomalous"] == []
    benign = (out / "benign.jsonl").read_bytes()
    attack = (out / "attack.jsonl").read_bytes()
    assert benign == attack


def test_synth_deterministic_under_seed(tmp_path):
    for sub in ("one", "two"):
        assert main(["synth", "--seed", "11", "--out",
                     str(tmp_path / sub), "--identities", "3",
                     "--nodes-per-identity", "5", "--anomalies", "2"]) == 0
    for name in ("benign.jsonl", "attack.jsonl", "labels.json"):
        assert (tmp_path / "one" / name).read_bytes() \
            == (tmp_path / "two" / name).read_bytes()


def test_synth_invalid_spec_exits_3(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"identities": [
        {"name": "ghost", "objects": []}]}), encoding="utf-8")
    code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert code == 3


BAD_NAMES = {"a,b": "comma", "../escaped": "parent-path", "": "empty",
             ".": "dot", "..": "dot-dot", " a": "leading-space",
             "a ": "trailing-space", "x/y": "slash", "x\\y": "backslash"}
BAD_NAME_RUNS = [
    *[pytest.param(["ingest", "--input", "{events}", "--name", name],
                   "--name", id=f"ingest-{case}")
      for name, case in BAD_NAMES.items()],
    *[pytest.param([command, "--graph", name, *extra], "--graph",
                   id=f"{command}-{case}")
      for command, extra, name, case in [
          ("detect", [], "../escaped", "parent-path"),
          ("investigate", ["--llm", "mock"], "..", "dot-dot"),
          ("report", [], "a,b", "comma"), ("detect", [], "", "empty")]],
    *[pytest.param([command, "--graphs", spec], "--graphs",
                   id=f"{command}-{case}")
      for command, spec, case in [
          ("train", "benign,../escaped", "parent-path"),
          ("profile", "benign,", "empty-entry"), ("train", ".", "dot"),
          ("profile", "x\\y", "backslash")]],
    pytest.param(["synth", "--out", "{dir}/out", "--anomalies", "-3"],
                 "--anomalies", id="synth-negative-anomalies"),
]


@pytest.mark.parametrize("argv,flag", BAD_NAME_RUNS)
def test_a_name_that_cannot_name_a_graph_exits_3(tmp_path, capsys, argv,
                                                 flag):
    """Every ``--name``, ``--graph`` and ``--graphs`` entry must name files
    in ``graphs/`` that a ``--graphs`` list can name again, and
    ``--anomalies`` must not be negative; otherwise the command exits 3
    naming the flag and writes nothing, under ``graphs/`` or outside it."""
    events = tmp_path / "scenario" / "benign.jsonl"
    write_scenario(default_scenario(num_identities=2, nodes_per_identity=3,
                                    num_anomalies=0), events.parent)
    before = sorted(tmp_path.rglob("*"))
    code = main([arg.format(events=events, dir=tmp_path) for arg in argv]
                + ["--artifacts", str(tmp_path / "artifacts")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error code=config" in err and flag in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("field,value", [
    ("seed", "x"), ("nodes_per_identity", "3"), ("events_per_node", 5),
    ("identities", ["a"]), ("anomalies", 5)])
def test_synth_spec_field_of_the_wrong_type_exits_3(tmp_path, capsys, field,
                                                      value):
    spec = default_scenario(num_identities=2, nodes_per_identity=2,
                            num_anomalies=1)
    spec[field] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code = main(["synth", "--spec", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error code=config" in err and repr(field) in err


def _set(*path_and_value):
    """An edit of a template that sets the entry at ``path`` to ``value``."""
    *path, key, value = path_and_value

    def edit(template):
        for step in path:
            template = template[step]
        template[key] = value
    return edit


TEMPLATE_EDITS = {
    "objects-of-numbers": (_set("objects", [5]), "objects"),
    "objects-an-object": (_set("objects", {"kind": "file", "path": "/x"}),
                          "objects"),
    "ops-weight-negative": (_set("objects", 0, "ops", "RECV", -1), "ops"),
    "ops-a-list": (_set("objects", 0, "ops", ["READ"]), "ops"),
    "ops-weight-zero": (_set("objects", 0, "ops", {"READ": 0}), "ops"),
    "ops-weight-string": (_set("objects", 0, "ops", "RECV", "1"), "ops"),
    "ops-outside-vocabulary": (_set("objects", 0, "ops", "PTRACE", 1),
                               "ops"),
    "every-weight-zero": (lambda t: [obj.update(weight=0)
                                     for obj in t["objects"]], "weight"),
    "weight-string": (_set("objects", 0, "weight", "x"), "weight"),
    "weight-boolean": (_set("objects", 0, "weight", True), "weight"),
    "file-without-path": (lambda t: t["objects"][1].pop("path"), "path"),
    "gap-scale-string": (_set("gap_scale", "x"), "gap_scale"),
    "gap-scale-negative": (_set("gap_scale", -1), "gap_scale"),
    "port-string": (_set("objects", 0, "port", "443"), "port"),
    "ip-number": (_set("objects", 0, "ip", 5), "ip"),
    "kind-unknown": (_set("objects", 0, "kind", "pipe"), "kind"),
    "name-number": (_set("name", 5), "name"),
    "shared-string": (_set("objects", 0, "shared", "yes"), "shared"),
    "file-path-empty": (_set("objects", 1, "path", ""), "path"),
    "file-path-root": (_set("objects", 1, "path", "/"), "path"),
    "subject-name-empty": (_set("objects", 0, {
        "kind": "subject", "name": "", "ops": {"FORK": 1}}), "name"),
}


@pytest.mark.parametrize("edit,field", TEMPLATE_EDITS.values(),
                         ids=TEMPLATE_EDITS.keys())
def test_synth_template_entry_of_the_wrong_type_exits_3(tmp_path, capsys,
                                                        edit, field):
    """Every template entry must have the type the generator reads and
    ``ingest`` accepts, every weight must be positive and every key attribute
    must name an identity (a file path with a basename, a non-empty subject
    name), not ``::unknown``; otherwise synth exits 3 on one line naming the
    field, and writes no file."""
    spec = default_scenario(num_identities=2, nodes_per_identity=5,
                            num_anomalies=0)
    edit(spec["identities"][0])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code = main(["synth", "--spec", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1
    assert "error code=config" in err and repr(field) in err
    assert list(tmp_path.iterdir()) == [path]


def test_scenario_anomalies_swap_behavior():
    spec = default_scenario(num_identities=2, nodes_per_identity=2,
                            num_anomalies=1, seed=3)
    benign, attack, labels = generate_scenario(spec)
    assert len(attack) > len(benign)
    anomaly = labels["anomalous"][0]
    claimed = {e["subject_attrs"]["name"] for e in attack
               if e["subject_uuid"] == anomaly}
    assert claimed == {spec["anomalies"][0]["claimed"]}
    anomaly_ops = {e["operation"] for e in attack
                   if e["subject_uuid"] == anomaly}
    behavior_ops = set()
    for obj in spec["identities"][1]["objects"]:
        behavior_ops |= set(obj["ops"])
    assert anomaly_ops <= behavior_ops


def test_synth_rejects_a_template_op_outside_the_configured_op_vocab(
        tmp_path, capsys):
    """``ingest`` with the same configuration would skip each event of an
    operation outside ``features.op_vocab``, so synth exits 3 naming the
    field, and writes no file."""
    config = _op_vocab_config(tmp_path, ["READ", "WRITE"])
    out = tmp_path / "out"
    code = main(["synth", "--config", config, "--out", str(out),
                 "--identities", "2", "--nodes-per-identity", "5",
                 "--anomalies", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "error code=config" in err and "'ops'" in err
    assert not out.exists()


def test_synth_takes_a_template_op_of_the_configured_op_vocab(tmp_path,
                                                             capsys):
    """An operation the configuration adds to the list is one a template
    may use, and ``ingest`` with that configuration keeps its events."""
    ops = [*DEFAULT_OP_VOCAB, "RENAME"]
    config = _op_vocab_config(tmp_path, ops)
    spec = default_scenario(num_identities=2, nodes_per_identity=5,
                            num_anomalies=1)
    spec["identities"][0]["objects"][0]["ops"]["RENAME"] = 1
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--config", config, "--spec", str(path), "--out",
                 str(out)]) == 0
    events = (out / "benign.jsonl").read_text(encoding="utf-8").splitlines()
    assert any(json.loads(line)["operation"] == "RENAME" for line in events)
    capsys.readouterr()
    assert main(["ingest", "--config", config, "--input",
                 str(out / "benign.jsonl"), "--name", "benign",
                 "--artifacts", str(tmp_path / "artifacts")]) == 0
    assert f"events={len(events)} skipped=0 " in capsys.readouterr().out


# sha256 of the files of ``synth --identities 2 --nodes-per-identity 5
# --anomalies 1`` at seed 7
PINNED_SYNTH = {
    "benign.jsonl":
        "8b9580799bdc1cfb8f15c65712ec0ddd70aa2940dab8e9aa41bcb88590f116bf",
    "attack.jsonl":
        "b645652171b34196cbba2857f7019185cb4055bac9792b165f23733640008be4",
    "labels.json":
        "9d5ea1dfc79e23dafa5b45ba19e876e8d3fa2b406e3aa64bf8405f8065a2596b",
}


def test_default_synth_files_are_pinned(tmp_path):
    """The generator writes the same default scenario from one version to
    the next; two runs of one version, as ``test_pipeline_determinism``
    compares, would not notice a change."""
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--seed", "7", "--identities",
                 "2", "--nodes-per-identity", "5", "--anomalies", "1"]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()} == PINNED_SYNTH


# --- pipeline --------------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small end-to-end run shared by the pipeline assertions below."""
    base = tmp_path_factory.mktemp("pipeline")
    scenario = base / "scenario"
    artifacts = str(base / "artifacts")
    assert main(["synth", "--out", str(scenario), "--identities", "4",
                 "--nodes-per-identity", "8", "--anomalies", "3"]) == 0
    assert main(["ingest", "--artifacts", artifacts, "--input",
                 str(scenario / "benign.jsonl"), "--name", "benign"]) == 0
    assert main(["ingest", "--artifacts", artifacts, "--input",
                 str(scenario / "attack.jsonl"), "--name", "attack"]) == 0
    assert main(["train", "--artifacts", artifacts, "--graphs", "benign",
                 "--epochs", "4"]) == 0
    assert main(["profile", "--artifacts", artifacts, "--graphs",
                 "benign"]) == 0
    assert main(["detect", "--artifacts", artifacts, "--graph",
                 "attack"]) == 0
    assert main(["investigate", "--artifacts", artifacts, "--graph",
                 "attack", "--llm", "mock"]) == 0
    assert main(["report", "--artifacts", artifacts, "--graph",
                 "attack"]) == 0
    return Path(artifacts), scenario


def test_full_pipeline_produces_nonempty_report(pipeline):
    artifacts, _ = pipeline
    report = artifacts / "investigation" / "attack" / "report.md"
    assert report.exists()
    assert report.stat().st_size > 0
    assert (artifacts / "investigation" / "attack"
            / "attack_graph.dot").exists()


def test_pipeline_alert_artifacts_exist(pipeline):
    artifacts, scenario = pipeline
    alerts = (artifacts / "alerts" / "attack.alerts.jsonl") \
        .read_text().splitlines()
    assert alerts
    labels = json.loads((scenario / "labels.json").read_text())
    flagged = {json.loads(line)["node_uuid"] for line in alerts}
    assert set(labels["anomalous"]) <= flagged


REPORT_FILES = ("report.md", "attack_graph.dot")


def test_report_command_is_idempotent(pipeline):
    artifacts, _ = pipeline
    out_dir = artifacts / "investigation" / "attack"
    before = [(out_dir / name).read_bytes() for name in REPORT_FILES]
    assert main(["report", "--artifacts", str(artifacts), "--graph",
                 "attack"]) == 0
    assert [(out_dir / name).read_bytes() for name in REPORT_FILES] == before


def test_report_renders_what_investigate_wrote(pipeline, tmp_path):
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    out_dir = artifacts / "investigation" / "attack"
    common = ["--artifacts", str(artifacts), "--graph", "attack"]
    assert main(["investigate", *common, "--llm", "mock"]) == 0
    written = [(out_dir / name).read_bytes() for name in REPORT_FILES]
    for name in REPORT_FILES:
        (out_dir / name).unlink()
    assert main(["report", *common]) == 0
    assert [(out_dir / name).read_bytes() for name in REPORT_FILES] == written


def test_profile_exports_embeddings_into_a_new_directory(pipeline,
                                                        tmp_path):
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    path = tmp_path / "out" / "e.csv"
    assert main(["profile", "--artifacts", str(artifacts), "--graphs",
                 "benign", "--export-embeddings", str(path)]) == 0
    rows = path.read_text(encoding="utf-8").splitlines()
    kb = load_kb(artifacts / "kb")
    assert rows[0].startswith("uuid,identity,z0,")
    assert len(rows) == 1 + kb.size()


DETECT = ("detect", "--graph", "attack")
INVESTIGATE = ("investigate", "--graph", "attack", "--llm", "mock")
RESUME = (*INVESTIGATE, "--resume")
REPORT = ("report", "--graph", "attack")
PROFILE = ("profile", "--graphs", "benign")
EDGE_ROW_BYTES = len(EDGE_COLUMNS) * 8
BLOBS = [  # every blob the pipeline fixture writes
    ("kb/kb.embeddings.bin", load_kb, lambda kb: kb.embeddings[0].nbytes,
     DETECT),
    ("model/vocab.vectors.bin", lambda path: load_model(path)[0],
     lambda v: v.vectors[0].nbytes, DETECT),
    ("model/encoder.weights.bin", lambda path: load_model(path)[1],
     lambda params: params.weights[-1][0].astype("<f4").nbytes, DETECT),
    ("graphs/attack.edges.bin", lambda path: load_graph(path, "attack"),
     lambda graph: EDGE_ROW_BYTES, DETECT),
    ("graphs/benign.edges.bin", lambda path: load_graph(path, "benign"),
     lambda graph: EDGE_ROW_BYTES, PROFILE),
]


@pytest.mark.parametrize("blob,loader,row,argv", BLOBS,
                         ids=["kb", "vocab", "encoder", "attack-edges",
                              "benign-edges"])
def test_blob_one_row_short_exits_2(pipeline, tmp_path, capsys, blob, loader,
                                    row, argv):
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    path = artifacts / blob
    row_bytes = row(loader(path.parent))
    path.write_bytes(path.read_bytes()[:-row_bytes])
    with pytest.raises(ArtifactError):
        loader(path.parent)
    capsys.readouterr()
    code = main([*argv, "--artifacts", str(artifacts)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error code=missing_artifact" in err and path.name in err


def test_every_blob_has_a_one_row_short_case(pipeline):
    """A blob added to the pipeline without a case above fails here."""
    artifacts, _ = pipeline
    written = {path.relative_to(artifacts).as_posix()
               for path in artifacts.rglob("*.bin")}
    assert written == {blob for blob, *_ in BLOBS}


@pytest.fixture(scope="module")
def read_audit():
    """``recording["opens"]``, while it is a list, takes ``(path, written)``
    for each file opened, ``written`` false when it is opened for reading
    only, from an audit hook, which cannot be removed."""
    recording = {"opens": None}

    def record_open(event, args):
        if (event == "open" and recording["opens"] is not None
                and isinstance(args[0], (str, os.PathLike))):
            recording["opens"].append(
                (Path(os.fsdecode(args[0])),
                 args[2] & os.O_ACCMODE != os.O_RDONLY))
    sys.addaudithook(record_open)
    return recording


def _opened(read_audit, argv, artifacts):
    """``(path, written)`` for each file that ``argv`` opens, in order."""
    opens = read_audit["opens"] = []
    try:
        assert main([*argv, "--artifacts", str(artifacts)]) == 0
    finally:
        read_audit["opens"] = None
    return opens


@pytest.mark.parametrize("argv", [DETECT, INVESTIGATE, REPORT],
                         ids=lambda argv: argv[0])
def test_each_artifact_file_is_read_once(pipeline, tmp_path, read_audit,
                                         argv):
    """A loader decodes the bytes its seal check read, so no command opens
    an artifact file twice: not the seal check and then the decoding."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    opened = Counter(path.relative_to(artifacts).as_posix()
                     for path, written in _opened(read_audit, argv, artifacts)
                     if not written and path.is_relative_to(artifacts))
    assert {name for name, count in opened.items() if count > 1} == set()
    expected = ({"investigation/attack/journal.jsonl"} if argv is REPORT else
                {"graphs/attack.nodes.json", "graphs/attack.edges.bin",
                 "model/vocab.vectors.bin", "model/encoder.weights.bin",
                 "kb/kb.members.json", "kb/kb.embeddings.bin"})
    assert expected <= set(opened)


@pytest.mark.parametrize("argv", [
    ("ingest", "--input", "{scenario}/attack.jsonl", "--name", "attack"),
    ("train", "--graphs", "benign", "--epochs", "1"), PROFILE, DETECT,
    INVESTIGATE, REPORT], ids=lambda argv: argv[0])
def test_no_command_reads_back_a_file_it_wrote(pipeline, tmp_path,
                                               read_audit, argv):
    """Each writer hashes the bytes it writes for its seal, so no command
    opens a file it wrote for reading, not even to seal it."""
    source, scenario = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    argv = [arg.format(scenario=scenario) for arg in argv]
    written, read_back = set(), []
    for path, writing in _opened(read_audit, argv, artifacts):
        if writing:
            written.add(path)
        elif path in written:
            read_back.append(path.relative_to(artifacts).as_posix())
    assert any(path.name.endswith(".seal.json") for path in written) \
        or argv[0] == "report"
    assert read_back == []


def _replaced_after_check(monkeypatch, module, path, key, value):
    """Make ``module``'s seal check set ``key`` of the JSON file ``path`` to
    ``value`` once it has checked the set."""
    check = module.check_seal

    def check_then_replace(paths):
        checked = check(paths)
        obj = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**obj, key: value}), encoding="utf-8")
        return checked
    monkeypatch.setattr(module, "check_seal", check_then_replace)


def test_a_header_replaced_after_its_seal_check_is_not_decoded(
        pipeline, tmp_path, monkeypatch):
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    graph = load_graph(artifacts / "graphs", "attack")
    kb = load_kb(artifacts / "kb")
    _replaced_after_check(monkeypatch, ingest,
                          artifacts / "graphs" / "attack.header.json",
                          "name", "benign")
    _replaced_after_check(monkeypatch, profiler, artifacts / "kb" / "kb.json",
                          "epsilon", 0.5)
    assert load_graph(artifacts / "graphs", "attack") == graph
    loaded = load_kb(artifacts / "kb")
    assert loaded.epsilon == kb.epsilon
    assert ({label: p.radius for label, p in loaded.profiles.items()}
            == {label: p.radius for label, p in kb.profiles.items()})


def _graph_loader(name):
    return lambda path: load_graph(path.parent, name)


def _model_of(path):
    """The model in ``path``'s directory, as each command that reads it
    loads it: the seal first."""
    return load_model(path.parent)


RECORD_FILES = [  # every JSONL file the pipeline fixture writes
    # never decoded by detect, but checked against the seal at load
    ("kb/kb.digests.jsonl", lambda path: load_kb(path.parent), DETECT),
    ("alerts/attack.alerts.jsonl", load_detected_alerts, INVESTIGATE),
    ("investigation/attack/journal.jsonl",
     lambda path: InvestigationRepository.load(path.parent), REPORT),
]
TRUNCATED = [
    *RECORD_FILES,
    ("graphs/benign.nodes.json", _graph_loader("benign"), PROFILE),
    ("graphs/attack.nodes.json", _graph_loader("attack"), DETECT),
    ("kb/kb.members.json", lambda path: load_kb(path.parent), DETECT),
    ("graphs/attack.header.json", _graph_loader("attack"), DETECT),
    ("graphs/benign.edges.bin", _graph_loader("benign"), PROFILE),
    ("graphs/attack.edges.bin", _graph_loader("attack"), DETECT),
    ("model/encoder.json", _model_of, DETECT),
    ("model/vocab.json", _model_of, DETECT),
    ("kb/kb.json", lambda path: load_kb(path.parent), DETECT),
    ("investigation/attack/repository.json",
     lambda path: InvestigationRepository.load(path.parent), REPORT),
]


def _halve(path):
    data = path.read_bytes()
    cut = len(data) // 2
    if data[cut - 1:cut] == b"\n":  # cut inside a record, not between two
        cut += 1
    path.write_bytes(data[:cut])


def _as_earlier_jsonl(path):
    """Damage that turns the set into one of an earlier version: the rows of
    the columns file beside ``path`` as JSONL in ``path``, the columns file
    gone."""
    columns = path.with_suffix(".json")
    obj = json.loads(columns.read_text())
    path.write_text("".join(json.dumps(dict(zip(obj, row))) + "\n"
                            for row in zip(*obj.values())))
    columns.unlink()


def _halve_at_record(path):
    """Damage that keeps the first half of the records, each one whole."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:len(lines) // 2]))


def _first_record(field, value):
    """Damage that sets ``field`` of the file's first record to ``value``."""
    def damage(path):
        first, _, rest = path.read_text().partition("\n")
        rec = json.loads(first)
        rec[field] = value
        path.write_text(json.dumps(rec) + "\n" + rest)
    return damage


def _rows_edited(edit):
    """Damage that applies ``edit`` to the rows of a file of columns, each
    row a dict of its entries, and stores the rows as columns again."""
    def damage(path):
        obj = json.loads(path.read_text())
        rows = [dict(zip(obj, row)) for row in zip(*obj.values())]
        edit(rows)
        path.write_text(json.dumps({name: [row[name] for row in rows]
                                    for name in obj}))
    return damage


def _repeat_first_row(rows):
    """Overwrite the last row with a copy of the first, so the row count is
    kept and a uuid is repeated."""
    rows[-1] = rows[0]


def _swap_rows(first, second):
    """Swap rows ``first`` and ``second``."""
    def edit(rows):
        rows[first], rows[second] = rows[second], rows[first]
    return edit


def _first_row(column, value):
    """Set ``column`` of the first row to ``value``."""
    return lambda rows: rows[0].update({column: value})


def _last_of(column, change):
    """Edit that replaces the last entry of ``column`` by what ``change``
    gives for it."""
    def edit(obj):
        obj[column][-1] = change(obj[column][-1])
    return edit


def _nest_first(column):
    """Damage that makes the first entry of ``column`` a value nested past
    the decoder's depth."""
    def damage(path):
        _rows_edited(_first_row(column, "@nest@"))(path)
        path.write_text(path.read_text().replace(
            '"@nest@"', "[" * 100_000 + "]" * 100_000))
    return damage


def _first_edge(column, value):
    """Damage that sets ``column`` of the edge blob's first row to what
    ``value`` gives for the graph's header and its number of nodes."""
    def damage(path):
        stem = path.name.removesuffix(".edges.bin")
        header = json.loads(path.with_name(f"{stem}.header.json").read_text())
        nodes = json.loads(path.with_name(f"{stem}.nodes.json").read_text())
        values = np.fromfile(path, dtype="<i8")
        values[EDGE_COLUMNS.index(column)] = value(header, len(nodes["uuid"]))
        values.tofile(path)
    return damage


def _swap_first_edges(path):
    """Damage that swaps the edge blob's first two rows."""
    rows = np.fromfile(path, dtype="<i8").reshape(-1, len(EDGE_COLUMNS))
    rows[[0, 1]] = rows[[1, 0]]
    rows.tofile(path)


def _short_bytes(count):
    """Damage that cuts the file's last ``count`` bytes."""
    def damage(path):
        path.write_bytes(path.read_bytes()[:-count])
    return damage


def _edited(edit):
    """Damage that applies ``edit`` to the file's JSON object."""
    def damage(path):
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
    return damage


def _delete(path):
    path.unlink()


def _without(field):
    """Damage that deletes ``field`` from the first record of the file."""
    def damage(path):
        if path.suffix == ".jsonl":
            first, _, rest = path.read_text().partition("\n")
            rec = json.loads(first)
            del rec[field]
            path.write_text(json.dumps(rec) + "\n" + rest)
        else:
            obj = json.loads(path.read_text())
            del obj[field]
            path.write_text(json.dumps(obj))
    return damage


def _swap_first_and_last_labels(rows):
    """Swap the first and last rows, so the labels are out of order."""
    assert rows[0]["label"] != rows[-1]["label"]
    _swap_rows(0, -1)(rows)


def _setting(field, value):
    """Damage that sets the header's ``field`` to ``value``."""
    def damage(path):
        header = json.loads(path.read_text())
        header[field] = value
        path.write_text(json.dumps(header))
    return damage


def _resealed(damage, paths_of):
    """``damage``, then the set sealed again as its writer would, so the seal
    passes and a check past it must name the file."""
    def resealing(path):
        damage(path)
        paths = paths_of(path.parent)
        seal(paths, {key: hashlib.sha256(file.read_bytes()).hexdigest()
                     for key, file in paths.items() if key != "seal"})
    return resealing


def _paused_with_journal_length(path):
    """Damage that pauses the investigation and stores its journal's length,
    as ``repository.json`` did before ``journal_length`` was dropped."""
    length = len(path.with_name("journal.jsonl").read_text().splitlines())
    _edited(lambda repo: repo.update(status="paused",
                                     journal_length=length))(path)


def _renamed(field, earlier):
    """Damage that stores the header's ``field`` as an earlier version named
    it, ``earlier``."""
    def damage(path):
        header = json.loads(path.read_text())
        header[earlier] = header.pop(field)
        path.write_text(json.dumps(header))
    return damage


def _retyped(field, convert):
    """Damage that replaces the header's ``field`` by ``convert`` of it."""
    def damage(path):
        header = json.loads(path.read_text())
        header[field] = convert(header[field])
        path.write_text(json.dumps(header))
    return damage


def _spaced(path):
    """Damage that adds a space after the first colon, so every JSON value
    is unchanged."""
    path.write_bytes(path.read_bytes().replace(b":", b": ", 1))


def _zero_rows(path):
    """Damage that leaves the knowledge base without member rows."""
    _rows_edited(list.clear)(path)
    (path.parent / "kb.embeddings.bin").write_bytes(b"")


def _nan_first(dtype):
    """Damage that sets the blob's first ``dtype`` value to NaN."""
    def damage(path):
        values = np.fromfile(path, dtype=dtype)
        values[0] = np.nan
        values.tofile(path)
    return damage


def _bump_after(marker):
    """Damage that adds one to the byte after the first ``marker``: a letter
    or a digit inside a value that no check of its loader reads."""
    def damage(path):
        data = bytearray(path.read_bytes())
        at = data.index(marker) + len(marker)
        data[at] += 1
        path.write_bytes(bytes(data))
    return damage


def _flip_bit(offset):
    """Damage that flips bit 1 of the byte at ``offset``: the low mantissa
    byte of a blob's first float, or the low byte of an edge's weight."""
    def damage(path):
        data = bytearray(path.read_bytes())
        data[offset] ^= 2
        path.write_bytes(bytes(data))
    return damage


def _bump_last_operation(path):
    """Damage that raises the last letter of the header's last operation, so
    its operations stay sorted, distinct strings."""
    header = json.loads(path.read_text())
    last = header["operations"][-1]
    header["operations"][-1] = last[:-1] + chr(ord(last[-1]) + 1)
    path.write_text(json.dumps(header, indent=2))


def _in_directory(load):
    return lambda path: load(path.parent)


WEIGHT_BYTE = EDGE_COLUMNS.index("weight") * 8
_REPOSITORY = _in_directory(InvestigationRepository.load)
EDITED = [  # one edit per sealed file, that only its seal check sees
    ("graphs/benign.header.json", _bump_last_operation,
     _graph_loader("benign"), PROFILE),
    ("graphs/benign.nodes.json", _bump_after(b'"name": "'),
     _graph_loader("benign"), PROFILE),
    ("graphs/benign.edges.bin", _flip_bit(WEIGHT_BYTE),
     _graph_loader("benign"), PROFILE),
    ("graphs/attack.header.json", _bump_last_operation,
     _graph_loader("attack"), DETECT),
    ("graphs/attack.nodes.json", _bump_after(b'"name": "'),
     _graph_loader("attack"), DETECT),
    ("graphs/attack.edges.bin", _flip_bit(WEIGHT_BYTE),
     _graph_loader("attack"), DETECT),
    ("model/vocab.json", _bump_after(b'"tokens": ["'), _model_of, DETECT),
    ("model/vocab.vectors.bin", _flip_bit(0), _model_of, DETECT),
    ("model/encoder.json", _spaced, _model_of, DETECT),
    ("model/encoder.weights.bin", _flip_bit(0), _model_of, DETECT),
    ("kb/kb.json", _bump_after(b'"epsilon": 0.0'), _in_directory(load_kb),
     DETECT),
    ("kb/kb.members.json", _bump_after(b'"uuid": ["'),
     _in_directory(load_kb), DETECT),
    ("kb/kb.digests.jsonl", _bump_after(b'["'), _in_directory(load_kb),
     DETECT),
    ("kb/kb.embeddings.bin", _flip_bit(0), _in_directory(load_kb), DETECT),
    ("alerts/attack.alerts.jsonl", _bump_after(b'"explanation": "'),
     load_detected_alerts, INVESTIGATE),
    ("investigation/attack/repository.json", _bump_after(b'"event": "'),
     _REPOSITORY, REPORT),
    ("investigation/attack/journal.jsonl", _bump_after(b'"action": "'),
     _REPOSITORY, REPORT),
]


def _missing_field(artifact, field, loader, argv):
    return pytest.param(artifact, _without(field), loader, argv,
                        id=f"{Path(artifact).name}-without-{field}")


DAMAGED = [
    *[pytest.param(artifact, _halve, loader, argv, id=Path(artifact).name)
      for artifact, loader, argv in TRUNCATED],
    *[pytest.param(artifact, _halve_at_record, loader, argv,
                   id=f"{Path(artifact).name}-at-record-boundary")
      for artifact, loader, argv in RECORD_FILES],
    pytest.param("investigation/attack/journal.jsonl", _delete,
                 lambda path: InvestigationRepository.load(path.parent),
                 REPORT, id="journal.jsonl-deleted"),
    # the JSONL file an earlier version wrote in place of a columns file
    *[pytest.param(artifact, _as_earlier_jsonl, loader, argv,
                   id=Path(artifact).name)
      for artifact, loader, argv in [
          ("graphs/benign.nodes.jsonl", _graph_loader("benign"), PROFILE),
          ("graphs/attack.nodes.jsonl", _graph_loader("attack"), DETECT),
          ("kb/kb.members.jsonl", lambda path: load_kb(path.parent),
           DETECT)]],
    # a byte changed where the loader checks nothing fails through the seal
    *[pytest.param(*case, id=f"{Path(case[0]).name}-edited")
      for case in EDITED],
    pytest.param("graphs/attack.seal.json", _delete, _graph_loader("attack"),
                 DETECT, id="attack.seal.json-deleted-as-in-an-older-set"),
    pytest.param("model/model.seal.json", _delete, _model_of, PROFILE,
                 id="model.seal.json-deleted-as-in-an-older-set"),
    # sealed again after the damage: the shape its header gives names a blob
    *[pytest.param(blob, _resealed(_short_bytes(itemsize), paths_of), loader,
                   DETECT, id=f"{Path(blob).name}-one-value-short-resealed")
      for blob, itemsize, paths_of, loader in [
          ("kb/kb.embeddings.bin", 8, kb_paths, _in_directory(load_kb)),
          ("model/vocab.vectors.bin", 4, model_paths, _model_of),
          ("model/encoder.weights.bin", 4, model_paths, _model_of),
          ("graphs/attack.edges.bin", 8, lambda d: graph_paths(d, "attack"),
           _graph_loader("attack"))]],
    pytest.param("investigation/attack/repository.json",
                 _resealed(_paused_with_journal_length, repository_paths),
                 _REPOSITORY, RESUME,
                 id="repository.json-paused-with-journal_length-resealed"),
    pytest.param("kb/kb.json", _resealed(_without("model"), kb_paths),
                 _in_directory(load_kb), DETECT,
                 id="kb.json-without-model-resealed-as-in-an-older-set"),
    _missing_field("investigation/attack/journal.jsonl", "action",
                   lambda path: InvestigationRepository.load(path.parent),
                   REPORT),
    _missing_field("alerts/attack.alerts.jsonl", "score", load_alerts,
                   INVESTIGATE),
    _missing_field("model/encoder.json", "dims", _model_of, DETECT),
    _missing_field("investigation/attack/repository.json", "iteration",
                   lambda path: InvestigationRepository.load(path.parent),
                   REPORT),
    _missing_field("kb/kb.json", "epsilon",
                   lambda path: load_kb(path.parent), DETECT),
    _missing_field("model/vocab.json", "op_vocab", _model_of, DETECT),
    _missing_field("kb/kb.json", "dim",
                   lambda path: load_kb(path.parent), DETECT),
    _missing_field("kb/kb.members.json", "uuid",
                   lambda path: load_kb(path.parent), DETECT),
    _missing_field("kb/kb.members.json", "label",
                   lambda path: load_kb(path.parent), DETECT),
    pytest.param("investigation/attack/repository.json",
                 _setting("pending_leads", [{"graph_name": "attack",
                                             "reason": "r", "origin": "alert",
                                             "parent": None}]),
                 lambda path: InvestigationRepository.load(path.parent),
                 REPORT, id="repository.json-pending-lead-without-node_uuid"),
    pytest.param("investigation/attack/repository.json",
                 _renamed("pending_leads", "processed_alerts"),
                 lambda path: InvestigationRepository.load(path.parent),
                 REPORT, id="repository.json-earlier-processed_alerts"),
    *[pytest.param("investigation/attack/repository.json", _edited(edit),
                   lambda path: InvestigationRepository.load(path.parent),
                   RESUME, id=f"repository.json-{name}")
      for name, edit in [
          ("unknown-expansion_queue-uuid",
           lambda repo: repo.update(expansion_queue=["nope"])),
          ("expansion_queue-list-entry",
           lambda repo: repo.update(expansion_queue=[["nope"]])),
          ("unknown-target_ref", lambda repo: repo["hypotheses"].append(
              {"id": "H99", "kind": "missing_stage", "statement": "s",
               "target_refs": ["IC", "nope"], "status": "open",
               "spawned_leads": []})),
          ("unknown-related_ioc_ref",
           lambda repo: repo["iocs"][min(repo["iocs"])]["related_ioc_refs"]
           .append("nope")),
          ("unknown-parent", lambda repo: repo["pending_leads"].append(
              {"graph_name": "attack", "node_uuid": "x", "reason": "r",
               "origin": "lead", "parent": "nope"})),
          ("ioc-under-another-key", lambda repo: repo["iocs"].update(
              nope=repo["iocs"].pop(min(repo["iocs"])))),
          ("paused-expansion_queue-a-number",
           lambda repo: repo.update(status="paused", expansion_queue=5)),
          ("iocs-a-list",
           lambda repo: repo.update(iocs=list(repo["iocs"].values()))),
          ("hypotheses-an-object", lambda repo: repo.update(hypotheses={})),
          ("paused-evidence-entry-a-number",
           lambda repo: repo.update(status="paused", evidence={
               **repo["evidence"], min(repo["evidence"]): 5})),
      ]],
    pytest.param("kb/kb.members.json", _zero_rows,
                 lambda path: load_kb(path.parent), DETECT,
                 id="kb.members.json-zero-rows"),
    pytest.param("kb/kb.members.json",
                 _rows_edited(_swap_first_and_last_labels),
                 lambda path: load_kb(path.parent), DETECT,
                 id="kb.members.json-labels-out-of-order"),
    # sealed again after the damage: the columns' build step names the file
    *[pytest.param(artifact, _resealed(_edited(edit), paths_of),
                   loader, DETECT, id=f"{Path(artifact).name}-{name}-resealed")
      for artifact, paths_of, loader in [
          ("kb/kb.members.json", kb_paths, _in_directory(load_kb)),
          ("graphs/attack.nodes.json", lambda d: graph_paths(d, "attack"),
           _graph_loader("attack"))]
      for name, edit in [
          ("columns-of-unequal-length", lambda obj: obj["uuid"].pop()),
          ("an-unknown-column",
           lambda obj: obj.update(extra=[None] * len(obj["uuid"])))]],
    # sealed again after the edit: the nodes guard's type check names the file
    *[pytest.param("graphs/attack.nodes.json",
                   _resealed(_edited(_last_of(column, change)),
                             lambda d: graph_paths(d, "attack")),
                   _graph_loader("attack"), DETECT,
                   id=f"attack.nodes.json-last-{column}-{name}-resealed")
      for column, name, change in [
          ("uuid", "a-list", lambda uuid: [uuid]),
          ("uuid", "an-integer", lambda uuid: 7),
          ("identity", "a-list", lambda identity: [identity]),
          ("kind", "a-list", lambda kind: [kind]),
          ("kind", "unknown", lambda kind: "socket")]],
    # sealed again after the edit: the header's build step names the file
    *[pytest.param(artifact, _resealed(damage, paths_of), loader, DETECT,
                   id=f"{Path(artifact).name}-{name}-resealed")
      for artifact, paths_of, loader, damages in [
          ("graphs/attack.header.json", lambda d: graph_paths(d, "attack"),
           _graph_loader("attack"),
           [("without-edge_count", _without("edge_count")),
            ("without-operations", _without("operations")),
            ("edge_count-a-float", _retyped("edge_count", float)),
            ("operations-holding-an-integer",
             _retyped("operations", lambda ops: [*ops[:-1], 1]))]),
          ("kb/kb.json", kb_paths, _in_directory(load_kb),
           [("without-dim", _without("dim")),
            ("without-epsilon", _without("epsilon")),
            ("dim-a-string", _retyped("dim", str)),
            ("epsilon-1.5", _setting("epsilon", 1.5))]),
          ("model/vocab.json", model_paths, _model_of,
           [("without-tokens", _without("tokens")),
            ("dim-a-float", _retyped("dim", float)),
            ("of-an-earlier-version", _edited(lambda header: header.update(
                window=5, negatives=5, epochs=3, seed=7)))]),
          ("model/encoder.json", model_paths, _model_of,
           [("without-dims", _without("dims")),
            ("dims-a-string", _retyped("dims", str)),
            ("dims-holding-a-string",
             _retyped("dims", lambda dims: [str(dims[0]), *dims[1:]])),
            ("dims-holding-a-float",
             _retyped("dims", lambda dims: [float(dims[0]), *dims[1:]])),
            ("of-an-earlier-version", _edited(lambda header: header.update(
                activation="relu", seed=7)))])]
      for name, damage in damages],
    pytest.param("kb/kb.json", _setting("epsilon", 1.5),
                 lambda path: load_kb(path.parent), DETECT,
                 id="kb.json-epsilon-1.5"),
    pytest.param("model/encoder.json", _setting("aggregation", "sum"),
                 _model_of, DETECT, id="encoder.json-sum-aggregation"),
    pytest.param("model/encoder.json", _setting("activation", "gelu"),
                 _model_of, DETECT, id="encoder.json-unknown-activation"),
    pytest.param("model/vocab.json", _setting("op_vocab", 5), _model_of,
                 DETECT, id="vocab.json-op_vocab-not-a-list"),
    pytest.param("model/vocab.json", _retyped("dim", str), _model_of, DETECT,
                 id="vocab.json-dim-a-string"),
    pytest.param("graphs/attack.header.json", _retyped("edge_count", str),
                 _graph_loader("attack"), DETECT,
                 id="attack.header.json-edge_count-a-string"),
    pytest.param("kb/kb.json", _retyped("epsilon", str),
                 lambda path: load_kb(path.parent), DETECT,
                 id="kb.json-epsilon-a-string"),
    pytest.param("kb/kb.json", _setting("dim", True),
                 lambda path: load_kb(path.parent), DETECT,
                 id="kb.json-dim-true"),
    pytest.param("alerts/attack.alerts.seal.json", _delete,
                 lambda path: check_seal(alerts_paths(
                     path.with_name("attack.alerts.jsonl"))),
                 INVESTIGATE, id="attack.alerts.seal.json-deleted"),
    pytest.param("kb/kb.embeddings.bin", _nan_first("<f8"),
                 lambda path: load_kb(path.parent), DETECT,
                 id="kb.embeddings.bin-nan"),
    pytest.param("model/encoder.weights.bin", _nan_first("<f4"), _model_of,
                 DETECT, id="encoder.weights.bin-nan"),
    pytest.param("model/vocab.vectors.bin", _nan_first("<f4"), _model_of,
                 DETECT, id="vocab.vectors.bin-nan"),
    _missing_field("model/vocab.json", "dim", _model_of, DETECT),
    _missing_field("graphs/attack.header.json", "edge_count",
                   _graph_loader("attack"), DETECT),
    _missing_field("graphs/attack.nodes.json", "identity",
                   _graph_loader("attack"), DETECT),
    pytest.param("graphs/attack.nodes.json", _rows_edited(_repeat_first_row),
                 _graph_loader("attack"), DETECT,
                 id="attack.nodes.json-repeated-uuid"),
    pytest.param("graphs/attack.nodes.json",
                 _resealed(_rows_edited(_repeat_first_row),
                           lambda d: graph_paths(d, "attack")),
                 _graph_loader("attack"), DETECT,
                 id="attack.nodes.json-repeated-uuid-resealed"),
    pytest.param("graphs/attack.edges.bin", _short_bytes(3),
                 _graph_loader("attack"), DETECT,
                 id="attack.edges.bin-wrong-byte-length"),
    pytest.param("graphs/attack.nodes.json", _nest_first("attrs"),
                 _graph_loader("attack"), DETECT,
                 id="attack.nodes.json-nested-too-deep"),
    pytest.param("graphs/attack.edges.bin",
                 _first_edge("dst_row", lambda header, nodes: nodes),
                 _graph_loader("attack"), DETECT,
                 id="attack.edges.bin-endpoint-row-node_count"),
    pytest.param("graphs/attack.edges.bin",
                 _first_edge("operation",
                             lambda header, nodes: len(header["operations"])),
                 _graph_loader("attack"), DETECT,
                 id="attack.edges.bin-operation-past-operations"),
    pytest.param("graphs/attack.header.json",
                 _setting("operations", ["READ", 1]),
                 _graph_loader("attack"), DETECT,
                 id="attack.header.json-operations-not-strings"),
    pytest.param("graphs/attack.header.json", _setting("name", "other"),
                 _graph_loader("attack"), DETECT,
                 id="attack.header.json-name-of-another-graph"),
    pytest.param("graphs/attack.nodes.json",
                 _rows_edited(_first_row("attrs", [])),
                 _graph_loader("attack"), DETECT,
                 id="attack.nodes.json-attrs-a-list"),
    pytest.param("graphs/attack.nodes.json", _rows_edited(_swap_rows(0, 1)),
                 _graph_loader("attack"), DETECT,
                 id="attack.nodes.json-first-two-swapped"),
    pytest.param("graphs/attack.edges.bin", _swap_first_edges,
                 _graph_loader("attack"), DETECT,
                 id="attack.edges.bin-first-two-rows-swapped"),
]


@pytest.mark.parametrize("artifact,damage,loader,argv", DAMAGED)
def test_truncated_artifact_exits_2_and_names_file(pipeline, tmp_path, capsys,
                                                   artifact, damage, loader,
                                                   argv):
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    path = artifacts / artifact
    damage(path)
    with pytest.raises(ArtifactError) as exc:
        loader(path)
    assert exc.value.path == str(path)
    capsys.readouterr()
    code = main([*argv, "--artifacts", str(artifacts)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error code=missing_artifact" in err and path.name in err


def test_header_operation_that_no_edge_uses_exits_2(pipeline, tmp_path,
                                                     capsys):
    """A header listing one more operation than its edges use is an edit
    after the writer sealed the set, so the seal names the header before the
    constructor, whose "used by no edge" check ``test_ingest`` covers, could
    name the edges file."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    header = artifacts / "graphs" / "attack.header.json"
    operations = json.loads(header.read_text())["operations"]
    _setting("operations", [*operations, "~UNUSED"])(header)
    with pytest.raises(ArtifactError, match="differs from its seal") as exc:
        load_graph(header.parent, "attack")
    assert exc.value.path == str(header)
    capsys.readouterr()
    assert main([*DETECT, "--artifacts", str(artifacts)]) == 2
    assert "attack.header.json" in capsys.readouterr().err


def _sealed_sets(artifacts):
    """The ``*_paths`` dict of every sealed set the pipeline fixture writes."""
    return [graph_paths(artifacts / "graphs", "benign"),
            graph_paths(artifacts / "graphs", "attack"),
            model_paths(artifacts / "model"), kb_paths(artifacts / "kb"),
            alerts_paths(artifacts / "alerts" / "attack.alerts.jsonl"),
            repository_paths(artifacts / "investigation" / "attack")]


def test_every_sealed_file_has_an_edit_case(pipeline):
    """A sealed set or file added to the pipeline without a case above
    fails here."""
    artifacts, _ = pipeline
    sets = _sealed_sets(artifacts)
    assert set(artifacts.rglob("*.seal.json")) \
        == {paths["seal"] for paths in sets}
    sealed = {path.relative_to(artifacts).as_posix() for paths in sets
              for key, path in paths.items() if key != "seal"}
    assert sealed == {artifact for artifact, *_ in EDITED}


# the files a command writes for a person, which no later command reads
NAMED_OUTPUTS = {"model/loss_trace.csv", "investigation/attack/report.md",
                 "investigation/attack/attack_graph.dot"}


def test_every_pipeline_file_is_sealed_or_a_named_output(pipeline):
    """A file a later command reads must belong to a sealed set, so one added
    to the pipeline without a seal, as the alerts once were, fails here."""
    artifacts, _ = pipeline
    sealed = {path for paths in _sealed_sets(artifacts)
              for path in paths.values()}
    unsealed = {path.relative_to(artifacts).as_posix()
                for path in artifacts.rglob("*")
                if path.is_file() and path not in sealed}
    assert unsealed == NAMED_OUTPUTS


def test_every_record_file_has_an_at_record_boundary_case(pipeline):
    """A record file added to the pipeline without a case above fails
    here."""
    artifacts, _ = pipeline
    written = {path.relative_to(artifacts).as_posix()
               for path in artifacts.rglob("*.jsonl")}
    covered = {case.values[0] for case in DAMAGED
               if case.id.endswith("-at-record-boundary")}
    assert written == covered


def test_ingest_of_a_non_utf8_input_exits_2_and_names_it(tmp_path, capsys):
    events = tmp_path / "latin1.jsonl"
    events.write_bytes('{"event_id": "caf\u00e9"}\n'.encode("latin-1"))
    artifacts = tmp_path / "artifacts"
    code = main(["ingest", "--artifacts", str(artifacts), "--input",
                 str(events), "--name", "latin1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error code=missing_artifact" in err and events.name in err
    assert not artifacts.exists()


def test_investigate_rejects_alerts_of_another_graph(pipeline, tmp_path,
                                                    capsys):
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    common = ["--artifacts", str(artifacts)]
    assert main(["detect", *common, "--graph", "benign"]) == 0
    foreign = artifacts / "alerts" / "benign.alerts.jsonl"
    assert load_alerts(foreign)
    capsys.readouterr()
    code = main([*INVESTIGATE, *common, "--alerts", str(foreign)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error code=missing_artifact" in err and str(foreign) in err
    empty = tmp_path / "empty.alerts.jsonl"
    save_alerts([], empty)
    assert main([*INVESTIGATE, *common, "--alerts", str(empty)]) == 0


def test_investigate_reads_an_alerts_file_without_seal_or_header(
        pipeline, tmp_path):
    """An ``--alerts`` file is user input, so nothing beside it is read."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    path = tmp_path / "hand.alerts.jsonl"
    shutil.copy(artifacts / "alerts" / "attack.alerts.jsonl", path)
    assert list(tmp_path.glob("hand.*")) == [path]
    assert main([*INVESTIGATE, "--artifacts", str(artifacts), "--alerts",
                 str(path)]) == 0


@pytest.mark.parametrize("field,value", [
    ("score", "x"), ("explanation", None), ("graph_name", ["attack"]),
    ("node_uuid", 5), ("radius", "r"), ("deviation", True)])
def test_an_alerts_file_field_of_another_json_type_exits_2(
        pipeline, tmp_path, capsys, field, value):
    """An alerts file is unsealed user input (``--alerts``), so each field
    is checked: strings, numbers that are not booleans, and a radius that is
    a number or null."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    alert = load_alerts(artifacts / "alerts" / "attack.alerts.jsonl")[0]
    path = tmp_path / "hand.alerts.jsonl"
    save_alerts([alert], path)
    _first_record(field, value)(path)
    capsys.readouterr()
    code = main([*INVESTIGATE, "--artifacts", str(artifacts), "--alerts",
                 str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error code=missing_artifact" in err and str(path) in err
    assert field in err


@pytest.mark.parametrize("argv", [REPORT, RESUME], ids=["report", "resume"])
def test_an_investigation_of_another_graph_exits_2(pipeline, tmp_path,
                                                   capsys, argv):
    """A repository copied to another graph's directory passes its seal,
    which names no graph, but is not that graph's investigation."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    shutil.copytree(artifacts / "investigation" / "attack",
                    artifacts / "investigation" / "benign")
    capsys.readouterr()
    code = main([*argv, "--artifacts", str(artifacts)])
    assert code == 0  # the repository in its own directory is fine
    renamed = [arg.replace("attack", "benign") for arg in argv]
    code = main([*renamed, "--artifacts", str(artifacts)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error code=missing_artifact" in err
    assert str(artifacts / "investigation" / "benign" / "repository.json") \
        in err


class _FailingAfter:
    """A backend that answers like ``inner`` for ``calls`` requests and then
    fails every transport attempt."""

    def __init__(self, inner, calls):
        self.inner = inner
        self.calls = calls

    def invoke(self, role, system_prompt, payload):
        if self.calls == 0:
            raise LLMTransportError("backend unreachable")
        self.calls -= 1
        return self.inner.invoke(role, system_prompt, payload)


# what a pause and a resume add to the journal
RESUME_ACTIONS = {"llm_transport_retry", "llm_transport_failure",
                  "investigation_paused", "investigation_resumed"}


def _investigation(artifacts):
    """The stored repository without the counts a pause changes, and its
    journal without the entries a pause and a resume add.

    The alert in flight at the pause is received again on resume; with the
    entries between them dropped, the two receipts are adjacent and equal,
    and one is kept."""
    out_dir = artifacts / "investigation" / "attack"
    repo = InvestigationRepository.load(out_dir)
    journal = []
    for entry in repo.journal_entries:
        entry = {k: v for k, v in entry.items() if k != "seq"}
        if entry["action"] not in RESUME_ACTIONS and entry not in journal[-1:]:
            journal.append(entry)
    state = repo.to_dict()
    for key in ("llm_calls_used", "tokens_in"):
        del state[key]
    return state, journal


# pauses at the first Analyst call, mid-stage 1, at the Leader and at the
# Reporter of the fixture's 38 calls
@pytest.mark.parametrize("calls", [0, 3, 36, 37])
def test_investigate_resume_matches_an_uninterrupted_run(
        pipeline, tmp_path, capsys, monkeypatch, calls):
    source, _ = pipeline
    whole, resumed = tmp_path / "whole", tmp_path / "resumed"
    for artifacts in (whole, resumed):
        shutil.copytree(source, artifacts)
        shutil.rmtree(artifacts / "investigation")
    assert main([*INVESTIGATE, "--artifacts", str(whole)]) == 0
    monkeypatch.setattr(cli, "_build_backend",
                        lambda cfg: _FailingAfter(heuristic_mock(), calls))
    capsys.readouterr()
    assert main([*INVESTIGATE, "--artifacts", str(resumed)]) == 1
    assert "status=paused" in capsys.readouterr().out
    assert not (resumed / "investigation" / "attack" / "report.md").exists()
    monkeypatch.undo()
    assert main([*INVESTIGATE, "--artifacts", str(resumed), "--resume"]) == 0
    assert "status=complete" in capsys.readouterr().out
    actions = [entry["action"] for entry in InvestigationRepository.load(
        resumed / "investigation" / "attack").journal_entries]
    assert actions.count("investigation_paused") == 1
    assert actions.count("investigation_resumed") == 1
    state, entries = _investigation(resumed)
    assert state["iocs"]
    assert (state, entries) == _investigation(whole)


def test_a_reply_nested_too_deep_falls_back_and_keeps_the_investigation(
        pipeline, tmp_path, capsys, monkeypatch):
    """A reply nested past the decoder's depth is a schema failure like any
    other: each call is retried, then takes the role's fallback, and the run
    completes and writes its repository."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    shutil.rmtree(artifacts / "investigation")
    backend = ScriptedLLM({**heuristic_mock().handlers,
                           "investigator": lambda payload: "[" * 200000})
    monkeypatch.setattr(cli, "_build_backend", lambda cfg: backend)
    assert main([*INVESTIGATE, "--artifacts", str(artifacts)]) == 0
    assert "status=complete" in capsys.readouterr().out
    actions = [entry["action"] for entry in InvestigationRepository.load(
        artifacts / "investigation" / "attack").journal_entries
        if entry.get("role") == "investigator"]
    assert actions and actions == (["llm_schema_retry"] * 3
                                   + ["llm_fallback"]) * (len(actions) // 4)


def test_investigate_resume_of_a_complete_investigation_changes_nothing(
        pipeline, tmp_path, capsys, monkeypatch):
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    out_dir = artifacts / "investigation" / "attack"
    written = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    assert set(REPORT_FILES) <= set(written)
    (artifacts / "alerts" / "attack.alerts.jsonl").unlink()  # resume reads none
    backend = _FailingAfter(heuristic_mock(), 100)
    monkeypatch.setattr(cli, "_build_backend", lambda cfg: backend)
    capsys.readouterr()
    assert main([*INVESTIGATE, "--artifacts", str(artifacts), "--resume"]) == 0
    assert "status=complete" in capsys.readouterr().out
    assert backend.calls == 100  # no request reached the backend
    assert {path.name: path.read_bytes()
            for path in out_dir.iterdir()} == written


def test_report_of_a_paused_investigation_exits_1_and_writes_nothing(
        pipeline, tmp_path, capsys, monkeypatch):
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    shutil.rmtree(artifacts / "investigation")
    monkeypatch.setattr(cli, "_build_backend",
                        lambda cfg: _FailingAfter(heuristic_mock(), 0))
    assert main([*INVESTIGATE, "--artifacts", str(artifacts)]) == 1
    out_dir = artifacts / "investigation" / "attack"
    written = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    capsys.readouterr()
    assert main([*REPORT, "--artifacts", str(artifacts)]) == 1
    err = capsys.readouterr().err
    assert "error code=runtime" in err and "is paused, not complete" in err
    assert {path.name: path.read_bytes()
            for path in out_dir.iterdir()} == written
    assert not set(REPORT_FILES) & set(written)


def test_multi_graph_train_has_a_row_per_profile_member(pipeline, tmp_path,
                                                       capsys):
    """``attack`` repeats every uuid of ``benign``; training keeps each
    (graph, node) as its own row, as the knowledge base does."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    common = ["--artifacts", str(artifacts), "--graphs", "benign,attack"]
    capsys.readouterr()
    assert main(["train", *common, "--epochs", "1"]) == 0
    assert main(["profile", *common]) == 0
    out = capsys.readouterr().out
    rows = dict(field.split("=") for field in out.split() if "=" in field)
    benign = load_graph(artifacts / "graphs", "benign")
    attack = load_graph(artifacts / "graphs", "attack")
    assert set(benign.nodes) & set(attack.nodes)
    assert rows["nodes"] == rows["members"] \
        == str(len(benign.nodes) + len(attack.nodes))


@pytest.mark.parametrize("graphs", ["benign", "benign,attack"],
                         ids=["one-graph", "two-graphs"])
def test_exported_features_are_keyed_by_position_in_graphs(pipeline,
                                                           tmp_path, graphs):
    """``train --export-features`` keys every row ``<position in
    --graphs>:<uuid>``, one graph included, in the union's node order."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source / "graphs", artifacts / "graphs")
    dump = tmp_path / "features.jsonl"
    assert main(["train", "--artifacts", str(artifacts), "--graphs", graphs,
                 "--epochs", "0", "--export-features", str(dump)]) == 0
    keys = sorted(f"{position}:{uuid}"
                  for position, name in enumerate(graphs.split(","))
                  for uuid in load_graph(artifacts / "graphs", name).nodes)
    rows = dump.read_text(encoding="utf-8").splitlines()
    assert [json.loads(row)["uuid"] for row in rows] == keys


def test_train_writes_the_model_fit_returns(pipeline, tmp_path):
    """``train`` is ``encoder.fit`` on the union of ``--graphs`` plus its
    files: exactly the files ``save_model`` writes for fit's model, and
    fit's loss trace in ``loss_trace.csv``."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source / "graphs", artifacts / "graphs")
    assert main(["train", "--artifacts", str(artifacts), "--graphs",
                 "benign,attack", "--epochs", "2"]) == 0
    union = ingest.union_graph([load_graph(artifacts / "graphs", name)
                                for name in ("benign", "attack")])
    vocab, result = encoder.fit(union,
                                load_config(None, {"encoder": {"epochs": 2}}))
    encoder.save_model(vocab, result.params, tmp_path / "fit")
    trained = artifacts / "model"
    assert {path.name: path.read_bytes() for path in trained.iterdir()
            if path.name != "loss_trace.csv"} \
        == {path.name: path.read_bytes()
            for path in (tmp_path / "fit").iterdir()}
    assert (trained / "loss_trace.csv").read_text(encoding="utf-8") \
        == "epoch,loss\n" + "".join(
            f"{epoch},{loss!r}\n"
            for epoch, loss in enumerate(result.loss_trace, start=1))


@pytest.mark.parametrize("command", ["train", "profile"])
def test_graphs_naming_a_graph_twice_exits_3(pipeline, tmp_path, capsys,
                                             command):
    """A repeated name would put each of that graph's nodes into the
    training union and the knowledge base twice."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    capsys.readouterr()
    code = main([command, "--artifacts", str(artifacts), "--graphs",
                 "benign, attack,benign"])
    err = capsys.readouterr().err
    assert code == 3
    assert "error code=config" in err and "'benign' more than once" in err


def test_profile_of_graph_without_nodes_exits_3(pipeline, tmp_path, capsys):
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    events = tmp_path / "empty.jsonl"
    events.write_text("", encoding="utf-8")
    common = ["--artifacts", str(artifacts)]
    assert main(["ingest", *common, "--input", str(events),
                 "--name", "empty"]) == 0
    capsys.readouterr()
    code = main(["profile", *common, "--graphs", "empty"])
    err = capsys.readouterr().err
    assert code == 3
    assert "error code=config" in err and "at least one benign node" in err


def test_kb_encoder_dimension_mismatch_exits_3(pipeline, tmp_path, capsys):
    """A 16-d knowledge base with a 32-d encoder trained after it."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    config = tmp_path / "dim16.json"
    config.write_text('{"encoder": {"embedding_dim": 16}}', encoding="utf-8")
    common = ["--artifacts", str(artifacts)]
    train = ["train", "--graphs", "benign", "--epochs", "1", *common]
    assert main([*train, "--config", str(config)]) == 0
    assert main(["profile", "--graphs", "benign", "--config", str(config),
                 *common]) == 0
    assert main(train) == 0
    capsys.readouterr()
    for argv in (DETECT, INVESTIGATE):
        code = main([*argv, *common])
        err = capsys.readouterr().err
        assert code == 3
        assert err == _profiled_with_another_model(artifacts)


def _profiled_with_another_model(artifacts):
    return (f"error code=config detail=knowledge base in {artifacts / 'kb'} "
            f"was profiled with another model than the one in "
            f"{artifacts / 'model'}; rerun profile\n")


@pytest.mark.parametrize("argv", [DETECT, INVESTIGATE],
                         ids=lambda argv: argv[0])
def test_a_model_trained_again_after_profile_exits_3_and_writes_nothing(
        pipeline, tmp_path, capsys, argv):
    """A model trained again with another seed has the knowledge base's
    widths, but the knowledge base holds the embeddings of the model it
    replaced, so each command that reads both rejects them."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    common = ["--artifacts", str(artifacts)]
    assert main(["train", "--graphs", "benign", "--epochs", "1", "--seed",
                 "3", *common]) == 0
    before = _files(artifacts)
    capsys.readouterr()
    code = main([*argv, *common])
    assert code == 3
    assert capsys.readouterr().err == _profiled_with_another_model(artifacts)
    assert _files(artifacts) == before


def test_a_diverging_train_prints_one_line_and_keeps_the_model(pipeline,
                                                               tmp_path):
    """At a learning rate of 1e300 the first steps overflow. The loss check
    reports that on the one error line, with no numpy warning before it, and
    the model stays as it was."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    config = tmp_path / "diverge.json"
    config.write_text('{"encoder": {"learning_rate": 1e300}}',
                      encoding="utf-8")
    before = _files(artifacts / "model")
    done = _python(["-m", "provlens.cli", "train", "--graphs", "benign",
                    "--artifacts", str(artifacts), "--config", str(config)])
    assert done.returncode == 1
    assert re.fullmatch(r"error code=runtime detail=non-finite "
                        r"(evaluation )?loss [^\n]*\n", done.stderr)
    assert _files(artifacts / "model") == before


@pytest.mark.parametrize("argv", [PROFILE, DETECT, INVESTIGATE],
                         ids=lambda argv: argv[0])
def test_encoder_of_another_semantic_dim_exits_2(pipeline, tmp_path, capsys,
                                                 argv):
    """An encoder trained on 16-d semantic features copied beside the 32-d
    vocabulary: the model's one seal names the encoder's header, the first
    file that differs from it, in each command that loads the model, and
    the command writes nothing."""
    source, _ = pipeline
    artifacts, other = tmp_path / "artifacts", tmp_path / "other"
    shutil.copytree(source, artifacts)
    shutil.copytree(source, other)
    config = tmp_path / "semantic16.json"
    config.write_text('{"features": {"semantic_dim": 16}}', encoding="utf-8")
    assert main(["train", "--graphs", "benign", "--epochs", "1",
                 "--artifacts", str(other), "--config", str(config)]) == 0
    for path in encoder_paths(other / "model").values():
        shutil.copy(path, artifacts / "model" / path.name)
    before = _files(artifacts)
    capsys.readouterr()
    code = main([*argv, "--artifacts", str(artifacts)])
    err = capsys.readouterr().err
    assert code == 2
    assert (f"error code=missing_artifact detail=unreadable artifact "
            f"{artifacts / 'model' / 'encoder.json'}: differs from its seal"
            ) in err
    assert _files(artifacts) == before


def test_failed_train_leaves_the_model_it_would_replace(pipeline, tmp_path,
                                                       capsys, monkeypatch):
    """A train that fails writes no file of the model, so no new vocabulary
    is left beside the old encoder and knowledge base, and no
    ``--export-features`` dump."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    before = _files(artifacts / "model")

    def diverge(*args, **kwargs):
        raise TrainingError("non-finite evaluation loss after epoch 0")
    monkeypatch.setattr(encoder, "train", diverge)
    capsys.readouterr()
    dump = tmp_path / "features.jsonl"
    code = main(["train", "--graphs", "attack", "--artifacts", str(artifacts),
                 "--export-features", str(dump)])
    assert code == 1
    assert "non-finite evaluation loss" in capsys.readouterr().err
    assert _files(artifacts / "model") == before
    assert not dump.exists()


def _fail_disk_full(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [PROFILE, DETECT, INVESTIGATE],
                         ids=lambda argv: argv[0])
def test_a_train_cut_short_while_saving_leaves_a_model_each_command_rejects(
        pipeline, tmp_path, capsys, monkeypatch, argv):
    """A disk that fills once the new vocabulary is written leaves it beside
    the old encoder. The model's one seal still holds the old vocabulary's
    digests, so each command that loads the model exits 2 naming the
    vocabulary, and writes nothing."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    monkeypatch.setattr(encoder, "save_params", _fail_disk_full)
    common = ["--artifacts", str(artifacts)]
    assert main(["train", "--graphs", "attack", "--epochs", "1",
                 *common]) == 1
    monkeypatch.undo()
    vocab = artifacts / "model" / "vocab.json"
    assert vocab.read_bytes() != (source / "model" / "vocab.json").read_bytes()
    before = _files(artifacts)
    capsys.readouterr()
    code = main([*argv, *common])
    err = capsys.readouterr().err
    assert code == 2
    assert "error code=missing_artifact" in err and str(vocab) in err
    assert _files(artifacts) == before


def _files(directory):
    return {path: path.read_bytes() for path in directory.rglob("*")
            if path.is_file()}


def _op_vocab_config(tmp_path, ops):
    config = tmp_path / "op_vocab.json"
    config.write_text(json.dumps({"features": {"op_vocab": list(ops)}}),
                      encoding="utf-8")
    return str(config)


@pytest.mark.parametrize("argv", [PROFILE, DETECT, INVESTIGATE],
                         ids=lambda argv: argv[0])
def test_reordered_op_vocab_exits_3_and_writes_nothing(pipeline, tmp_path,
                                                       capsys, argv):
    """The model records the operation list it was trained on; the same
    operations in another order would move the action block's columns."""
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    assert load_model(artifacts / "model")[0].op_vocab == DEFAULT_OP_VOCAB
    before = _files(artifacts)
    config = _op_vocab_config(tmp_path, reversed(DEFAULT_OP_VOCAB))
    capsys.readouterr()
    code = main([*argv, "--artifacts", str(artifacts), "--config", config])
    err = capsys.readouterr().err
    assert code == 3
    assert "error code=config detail=features.op_vocab" in err
    assert _files(artifacts) == before


def test_model_trained_on_a_reordered_op_vocab_takes_that_order(pipeline,
                                                                tmp_path):
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    ops = tuple(reversed(DEFAULT_OP_VOCAB))
    common = ["--artifacts", str(artifacts),
              "--config", _op_vocab_config(tmp_path, ops)]
    assert main(["train", "--graphs", "benign", "--epochs", "1", *common]) == 0
    assert load_model(artifacts / "model")[0].op_vocab == ops
    assert main([*PROFILE, *common]) == 0
    assert main([*DETECT, *common]) == 0
    assert main([*DETECT, "--artifacts", str(artifacts)]) == 3


def test_train_zero_epochs_writes_header_only_trace(tmp_path):
    scenario = tmp_path / "scenario"
    write_scenario(default_scenario(num_identities=2, nodes_per_identity=3,
                                    num_anomalies=0), scenario)
    artifacts = str(tmp_path / "artifacts")
    assert main(["ingest", "--artifacts", artifacts, "--input",
                 str(scenario / "benign.jsonl"), "--name", "b"]) == 0
    assert main(["train", "--artifacts", artifacts, "--graphs", "b",
                 "--epochs", "0"]) == 0
    trace = Path(artifacts, "model", "loss_trace.csv").read_text()
    assert trace == "epoch,loss\n"
    assert Path(artifacts, "model", "encoder.json").exists()


def test_command_idempotence_identical_artifacts(tmp_path):
    scenario = tmp_path / "scenario"
    write_scenario(default_scenario(num_identities=2, nodes_per_identity=4,
                                    num_anomalies=1), scenario)

    def run(sub):
        artifacts = str(tmp_path / sub)
        assert main(["ingest", "--artifacts", artifacts, "--seed", "5",
                     "--input", str(scenario / "benign.jsonl"),
                     "--name", "b"]) == 0
        assert main(["train", "--artifacts", artifacts, "--seed", "5",
                     "--graphs", "b", "--epochs", "2"]) == 0
        return Path(artifacts)

    one, two = run("one"), run("two")
    for rel in ("graphs/b.nodes.json", "graphs/b.edges.bin",
                "model/vocab.vectors.bin", "model/encoder.weights.bin",
                "model/loss_trace.csv"):
        assert (one / rel).read_bytes() == (two / rel).read_bytes()


def test_the_pipeline_builds_no_edge_objects(pipeline, tmp_path, capsys):
    """From the events to the report a graph stays its edge columns:
    ``ingest`` (build, save and the printed edge count), ``detect`` (load,
    features, propagation and detection), ``train`` on a two-graph union
    (union, token summaries and features), ``profile`` (the knowledge base's
    edge digests), ``investigate`` (digests and neighborhoods) and ``report``
    all run, and the package defines no edge-object class to build (see
    ``test_only_the_ingest_module_constructs_graphs_and_edges``)."""
    source, scenario = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    alerts = (artifacts / "alerts" / "attack.alerts.jsonl").read_bytes()
    capsys.readouterr()
    assert main(["ingest", "--artifacts", str(artifacts), "--input",
                 str(scenario / "attack.jsonl"), "--name", "attack"]) == 0
    edges = len(load_graph(artifacts / "graphs", "attack").edge_columns)
    assert f" edges={edges}\n" in capsys.readouterr().out
    assert main([*DETECT, "--artifacts", str(artifacts)]) == 0
    assert (artifacts / "alerts" / "attack.alerts.jsonl").read_bytes() \
        == alerts
    assert main(["ingest", "--artifacts", str(artifacts), "--input",
                 str(scenario / "benign.jsonl"), "--name", "benign2"]) == 0
    assert main(["train", "--artifacts", str(artifacts), "--graphs",
                 "benign,benign2", "--epochs", "1"]) == 0
    for argv in (PROFILE, DETECT, INVESTIGATE, REPORT):
        assert main([*argv, "--artifacts", str(artifacts)]) == 0
    assert (artifacts / "investigation" / "attack" / "report.md").exists()


# --- BLAS thread count -------------------------------------------------------------

def _python(argv, **blas):
    """``python argv`` in a fresh process whose environment holds no BLAS
    thread variable but those in ``blas``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env={**env, **blas},
                          capture_output=True, text=True, timeout=600)


def test_training_does_not_depend_on_the_blas_thread_count(tmp_path):
    """With 5x100 nodes, one epoch at OpenBLAS's default of one thread per
    core writes another loss trace than at one thread, unless the package
    sets that default itself."""
    scenario = tmp_path / "scenario"
    write_scenario(default_scenario(num_identities=5, nodes_per_identity=100,
                                    num_anomalies=0), scenario)
    models = []
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        artifacts = tmp_path / f"artifacts{len(models)}"
        assert main(["ingest", "--artifacts", str(artifacts), "--input",
                     str(scenario / "benign.jsonl"), "--name", "benign"]) == 0
        proc = _python(["-m", "provlens.cli", "train", "--artifacts",
                        str(artifacts), "--graphs", "benign", "--epochs", "1"],
                       **blas)
        assert proc.returncode == 0, proc.stderr
        models.append({path.name: path.read_bytes()
                       for path in sorted((artifacts / "model").iterdir())})
    assert "encoder.weights.bin" in models[0]
    assert models[0] == models[1]


def test_blas_thread_count_set_by_the_caller_wins():
    proc = _python(["-c", "import os, provlens; print(*(os.environ[v] for v "
                          f"in {BLAS_ENV!r}))"],
                   OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "1", "1"]
