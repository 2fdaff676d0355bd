import json
import shutil
from pathlib import Path

import pytest

from provlens.cli import main
from provlens.detector import load_alerts
from provlens.encoder import load_params
from provlens.errors import ArtifactError
from provlens.features import load_vocab
from provlens.ingest import load_graph
from provlens.investigation import InvestigationRepository
from provlens.profiler import load_kb
from provlens.synth import default_scenario, generate_scenario, write_scenario

SUBCOMMANDS = ["ingest", "train", "profile", "detect", "investigate",
               "report", "synth"]


def test_default_configuration_values():
    from provlens.config import PipelineConfig

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
    assert "usage" in capsys.readouterr().out


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
    assert "vocab" in captured.err or "encoder" in captured.err


def test_invalid_config_exits_3(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text('{"epsilon": 2.0}', encoding="utf-8")
    code = main(["synth", "--config", str(config),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "error code=config" in capsys.readouterr().err


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


def test_report_command_is_idempotent(pipeline):
    artifacts, _ = pipeline
    report = artifacts / "investigation" / "attack" / "report.md"
    before = report.read_bytes()
    assert main(["report", "--artifacts", str(artifacts), "--graph",
                 "attack"]) == 0
    assert report.read_bytes() == before


@pytest.mark.parametrize("blob,loader,row", [
    ("kb/kb.embeddings.bin", load_kb, lambda kb: kb.embeddings[0].nbytes),
    ("model/vocab.vectors.bin", load_vocab, lambda v: v.vectors[0].nbytes),
    ("model/encoder.weights.bin", load_params,
     lambda params: params.weights[-1][0].astype("<f4").nbytes),
], ids=["kb", "vocab", "encoder"])
def test_blob_one_row_short_exits_2(pipeline, tmp_path, capsys, blob, loader,
                                    row):
    source, _ = pipeline
    artifacts = tmp_path / "artifacts"
    shutil.copytree(source, artifacts)
    path = artifacts / blob
    row_bytes = row(loader(path.parent))
    path.write_bytes(path.read_bytes()[:-row_bytes])
    with pytest.raises(ArtifactError):
        loader(path.parent)
    capsys.readouterr()
    code = main(["detect", "--artifacts", str(artifacts), "--graph", "attack"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error code=missing_artifact" in err and path.name in err


def _graph_loader(name):
    return lambda path: load_graph(path.parent, name)


DETECT = ("detect", "--graph", "attack")
INVESTIGATE = ("investigate", "--graph", "attack", "--llm", "mock")
REPORT = ("report", "--graph", "attack")
TRUNCATED = [
    ("graphs/benign.nodes.jsonl", _graph_loader("benign"),
     ("profile", "--graphs", "benign")),
    ("graphs/attack.edges.jsonl", _graph_loader("attack"), DETECT),
    ("graphs/attack.header.json", _graph_loader("attack"), DETECT),
    ("model/encoder.json", lambda path: load_params(path.parent), DETECT),
    ("model/vocab.json", lambda path: load_vocab(path.parent), DETECT),
    ("kb/kb.profiles.json", lambda path: load_kb(path.parent), DETECT),
    ("kb/kb.manifest.json", lambda path: load_kb(path.parent), DETECT),
    ("kb/kb.metadata.jsonl", lambda path: load_kb(path.parent), DETECT),
    ("alerts/attack.alerts.jsonl", load_alerts, INVESTIGATE),
    ("investigation/attack/repository.json",
     lambda path: InvestigationRepository.load(path.parent), REPORT),
]


def _halve(path):
    data = path.read_bytes()
    cut = len(data) // 2
    if data[cut - 1:cut] == b"\n":  # cut inside a record, not between two
        cut += 1
    path.write_bytes(data[:cut])


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


def _missing_field(artifact, field, loader, argv):
    return pytest.param(artifact, _without(field), loader, argv,
                        id=f"{Path(artifact).name}-without-{field}")


DAMAGED = [
    *[pytest.param(artifact, _halve, loader, argv, id=Path(artifact).name)
      for artifact, loader, argv in TRUNCATED],
    _missing_field("alerts/attack.alerts.jsonl", "score", load_alerts,
                   INVESTIGATE),
    _missing_field("model/encoder.json", "dims",
                   lambda path: load_params(path.parent), DETECT),
    _missing_field("investigation/attack/repository.json", "iteration",
                   lambda path: InvestigationRepository.load(path.parent),
                   REPORT),
    _missing_field("kb/kb.profiles.json", "epsilon",
                   lambda path: load_kb(path.parent), DETECT),
    _missing_field("kb/kb.metadata.jsonl", "uuid",
                   lambda path: load_kb(path.parent), DETECT),
    _missing_field("model/vocab.json", "dim",
                   lambda path: load_vocab(path.parent), DETECT),
    _missing_field("graphs/attack.header.json", "window_start",
                   _graph_loader("attack"), DETECT),
    _missing_field("graphs/attack.nodes.jsonl", "identity",
                   _graph_loader("attack"), DETECT),
    _missing_field("graphs/attack.edges.jsonl", "weight",
                   _graph_loader("attack"), DETECT),
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
    for rel in ("graphs/b.nodes.jsonl", "graphs/b.edges.jsonl",
                "model/vocab.vectors.bin", "model/encoder.weights.bin",
                "model/loss_trace.csv"):
        assert (one / rel).read_bytes() == (two / rel).read_bytes()
