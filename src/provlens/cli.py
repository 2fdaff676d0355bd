"""Command-line front end: ingest -> train -> profile -> detect -> investigate
-> report, plus a synthetic-scenario generator.

Exit codes: 0 ok, 1 runtime failure, 2 missing or unreadable artifact, 3 bad
configuration or usage. Errors print a single machine-parsable line to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from . import artifacts, detector, encoder, features, ingest, profiler, synth
from .config import PipelineConfig, load_config
from .errors import ArtifactError, ConfigError, ProvlensError
from .investigation.graphstore import GraphStore
from .investigation.llm import HttpChatLLM, heuristic_mock
from .investigation.orchestrator import run_investigation
from .investigation.repository import InvestigationRepository, repository_paths

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_MISSING_ARTIFACT = 2
EXIT_CONFIG = 3

API_KEY_ENV = "PROVLENS_API_KEY"  # the HTTP backend's bearer token


def _graphs_dir(cfg: PipelineConfig) -> Path:
    return Path(cfg.artifacts_dir) / "graphs"


def _model_dir(cfg: PipelineConfig) -> Path:
    return Path(cfg.artifacts_dir) / "model"


def _kb_dir(cfg: PipelineConfig) -> Path:
    return Path(cfg.artifacts_dir) / "kb"


def _alerts_path(cfg: PipelineConfig, graph_name: str) -> Path:
    return Path(cfg.artifacts_dir) / "alerts" / f"{graph_name}.alerts.jsonl"


def _investigation_dir(cfg: PipelineConfig, graph_name: str) -> Path:
    return Path(cfg.artifacts_dir) / "investigation" / graph_name


def _load_investigation(out_dir: Path, graph_name: str):
    """The investigation in ``out_dir``, which must be of ``graph_name``."""
    repo = InvestigationRepository.load(out_dir)
    with artifacts.reading(repository_paths(out_dir)["repository"]):
        if repo.graph_name != graph_name:
            raise ValueError(f"holds graph {repo.graph_name!r}, not "
                             f"{graph_name!r}")
    return repo


def _graph_name(flag: str, name: str) -> str:
    """``name`` if it can name a graph's files and a ``--graphs`` entry."""
    if (name in ("", ".", "..") or name != name.strip()
            or any(char in name for char in "/\\,")):
        raise ConfigError(f"{flag} {name!r} is not a graph name: non-empty, "
                          f"not '.' or '..', unpadded, no '/', '\\' or ','")
    return name


def _resolve_graph_names(spec: str | None) -> list[str]:
    """The benign graphs named by ``--graphs``, each once; there is no
    default, because an attack window among them would become benign
    reference behaviour."""
    if spec is None:
        raise ConfigError("--graphs must name the benign graphs, "
                          "comma-separated")
    names = [_graph_name("--graphs", n.strip()) for n in spec.split(",")]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"--graphs names {repeated[0]!r} more than once")
    return names


def _load_graphs(cfg: PipelineConfig, names: list[str]) -> list[ingest.ProvenanceGraph]:
    return [ingest.load_graph(_graphs_dir(cfg), name) for name in names]


def _load_model(cfg: PipelineConfig):
    """The trained vocabulary and encoder, which one seal binds, and the
    model's id. The configured operation list must be the one the model was
    trained on, order included, because it orders the action block."""
    vocab, params, model = encoder.load_model(_model_dir(cfg))
    ops = cfg.features.op_vocab
    if vocab.op_vocab != ops:
        raise ConfigError(f"features.op_vocab {list(ops)} is not the list "
                          f"{list(vocab.op_vocab)} the model in "
                          f"{_model_dir(cfg)} was trained on")
    return vocab, params, model


def _load_profiled_model(cfg: PipelineConfig):
    """The vocabulary, the encoder and the knowledge base, which must have
    been profiled with that model."""
    vocab, params, model = _load_model(cfg)
    kb = profiler.load_kb(_kb_dir(cfg))
    if kb.model != model:
        raise ConfigError(f"knowledge base in {_kb_dir(cfg)} was profiled "
                          f"with another model than the one in "
                          f"{_model_dir(cfg)}; rerun profile")
    return vocab, params, kb


def _build_backend(cfg: PipelineConfig):
    if cfg.llm.backend == "mock":
        return heuristic_mock()
    api_key = os.environ.get(API_KEY_ENV, "")
    return HttpChatLLM(endpoint=cfg.llm.endpoint, model=cfg.llm.model,
                       api_key=api_key, timeout_s=cfg.llm.timeout_s)


def _write_report(repo: InvestigationRepository, out_dir: Path) -> None:
    """Render the report and the attack graph from ``repo`` into ``out_dir``."""
    (out_dir / "report.md").write_text(repo.report_markdown, encoding="utf-8")
    (out_dir / "attack_graph.dot").write_text(repo.attack_graph_dot,
                                              encoding="utf-8")


# --- subcommands -------------------------------------------------------------

def cmd_ingest(cfg: PipelineConfig, args) -> int:
    result = ingest.parse_events(args.input, cfg.features.op_vocab)
    graph = ingest.build_graph(result.events, cfg.features.window_ns,
                               name=args.name)
    ingest.save_graph(graph, _graphs_dir(cfg))
    print(f"ingested graph={graph.name} events={len(result.events)} "
          f"skipped={result.skipped} nodes={len(graph.nodes)} "
          f"edges={len(graph.edge_columns)}")
    return EXIT_OK


def cmd_train(cfg: PipelineConfig, args) -> int:
    names = _resolve_graph_names(args.graphs)
    union = ingest.union_graph(_load_graphs(cfg, names))
    vocab, result = encoder.fit(union, cfg)
    # written once training has succeeded: a failed run writes no dump or model
    if args.export_features:
        _, h0 = features.feature_matrix(union, vocab, cfg.features.op_vocab)
        features.export_features(union, h0, vocab.dim, args.export_features)
    encoder.save_model(vocab, result.params, _model_dir(cfg))
    trace_path = _model_dir(cfg) / "loss_trace.csv"
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(result.loss_trace, start=1):
            fh.write(f"{epoch},{loss!r}\n")
    final = result.loss_trace[-1] if result.loss_trace else float("nan")
    print(f"trained graphs={','.join(names)} nodes={len(union.nodes)} "
          f"epochs={cfg.encoder.epochs} final_loss={final:.6g}")
    return EXIT_OK


def cmd_profile(cfg: PipelineConfig, args) -> int:
    names = _resolve_graph_names(args.graphs)
    graphs = _load_graphs(cfg, names)
    vocab, params, model = _load_model(cfg)
    kb = profiler.build_knowledge_base(graphs, params, vocab, cfg.epsilon,
                                       cfg.features.op_vocab, model=model)
    profiler.save_kb(kb, _kb_dir(cfg))
    if args.export_embeddings:
        profiler.export_embeddings(kb, args.export_embeddings)
    print(f"profiled graphs={','.join(names)} identities={len(kb.profiles)} "
          f"members={kb.size()} epsilon={cfg.epsilon}")
    return EXIT_OK


def cmd_detect(cfg: PipelineConfig, args) -> int:
    graph = ingest.load_graph(_graphs_dir(cfg), args.graph)
    vocab, params, kb = _load_profiled_model(cfg)
    alerts = detector.detect_graph(graph, params, vocab, kb,
                                   cfg.features.op_vocab)
    path = _alerts_path(cfg, args.graph)
    detector.save_alerts(alerts, path)
    print(detector.format_alert_table(alerts))
    print(f"detected graph={args.graph} alerts={len(alerts)} -> {path}")
    return EXIT_OK


def cmd_investigate(cfg: PipelineConfig, args) -> int:
    graph = ingest.load_graph(_graphs_dir(cfg), args.graph)
    vocab, params, kb = _load_profiled_model(cfg)
    out_dir = _investigation_dir(cfg, args.graph)
    # a resumed run takes its work from the repository, never the alerts
    repo, alerts = None, []
    if args.resume:
        repo = _load_investigation(out_dir, args.graph)
    else:
        alerts_path = Path(args.alerts or _alerts_path(cfg, args.graph))
        alerts = (detector.load_alerts(alerts_path) if args.alerts  # unsealed
                  else detector.load_detected_alerts(alerts_path))
        foreign = sorted({alert.graph_name for alert in alerts} - {args.graph})
        if foreign:
            raise ArtifactError(f"artifact {alerts_path} holds alerts of "
                                f"graph {foreign[0]!r}, not of {args.graph!r}",
                                path=str(alerts_path))

    store = GraphStore.build([graph], params, vocab, cfg.features.op_vocab)
    backend = _build_backend(cfg)
    repo = run_investigation(alerts, store, kb, backend, cfg.budget,
                             knn_k=cfg.llm.knn_k, repo=repo)
    repo.save(out_dir)
    if repo.status == "complete":
        _write_report(repo, out_dir)
    print(f"investigated graph={args.graph} status={repo.status} "
          f"validated={len(repo.validated_iocs())} "
          f"refuted={len(repo.refuted_iocs())} "
          f"llm_calls={repo.llm_calls_used}")
    return EXIT_OK if repo.status == "complete" else EXIT_RUNTIME


def cmd_report(cfg: PipelineConfig, args) -> int:
    out_dir = _investigation_dir(cfg, args.graph)
    repo = _load_investigation(out_dir, args.graph)
    if repo.status != "complete":
        raise ProvlensError(f"investigation of graph {args.graph!r} is "
                            f"{repo.status}, not complete; resume it with "
                            f"investigate --resume")
    _write_report(repo, out_dir)
    print(f"report graph={args.graph} -> {out_dir / 'report.md'}")
    return EXIT_OK


def cmd_synth(cfg: PipelineConfig, args) -> int:
    if args.spec:
        try:
            spec = artifacts.decode(Path(args.spec).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ArtifactError(f"cannot read scenario spec {args.spec}: {exc}",
                                path=args.spec) from exc
        except ValueError as exc:  # not UTF-8, not JSON, or nested too deep
            raise ConfigError(f"scenario spec {args.spec} is not valid JSON: "
                              f"{exc}") from exc
        if not isinstance(spec, dict):
            raise ConfigError(f"scenario spec {args.spec} must be a JSON object")
        spec.setdefault("seed", cfg.seed)
    elif args.anomalies < 0:
        raise ConfigError("--anomalies must be >= 0")
    else:
        spec = synth.default_scenario(
            num_identities=args.identities,
            nodes_per_identity=args.nodes_per_identity,
            num_anomalies=args.anomalies, seed=cfg.seed)
    labels = synth.write_scenario(spec, args.out,
                                  op_vocab=cfg.features.op_vocab)
    print(f"synthesized out={args.out} labeled={labels['total_labeled']} "
          f"anomalies={len(labels['anomalous'])}")
    return EXIT_OK


# --- argument parsing --------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a configuration error
        raise ConfigError(f"{self.prog}: {message}")


@cache  # built on first use, once per process
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--artifacts", help="artifact directory override")
    common.add_argument("--seed", type=int, help="global random seed")
    common.add_argument("--llm", choices=("http", "mock"),
                        help="LLM backend selection")

    parser = _Parser(
        prog="provlens",
        description="identity-behavior anomaly detection over provenance "
                    "graphs, with an agent-driven investigation loop")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="parse events and build a graph")
    p.add_argument("--input", required=True, help="JSONL event file")
    p.add_argument("--name", required=True, help="graph name")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", parents=[common],
                       help="train the semantic vocabulary and encoder")
    p.add_argument("--graphs", help="comma-separated benign graph names (required)")
    p.add_argument("--epochs", type=int, help="encoder training epochs")
    p.add_argument("--export-features", help="debug JSONL dump of node features")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("profile", parents=[common],
                       help="build the benign knowledge base")
    p.add_argument("--graphs", help="comma-separated benign graph names (required)")
    p.add_argument("--export-embeddings", help="also write an embeddings CSV")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("detect", parents=[common],
                       help="detect identity-consistency violations")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("investigate", parents=[common],
                       help="run the agent investigation loop")
    p.add_argument("--graph", required=True)
    p.add_argument("--alerts", help="alerts file (default: detect output); "
                                    "not read with --resume")
    p.add_argument("--resume", action="store_true",
                   help="resume a paused investigation; a complete one "
                        "is left as it is")
    p.set_defaults(func=cmd_investigate)

    p = sub.add_parser("report", parents=[common],
                       help="render the report for an investigation")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a labeled synthetic scenario")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--spec", help="scenario spec JSON file")
    p.add_argument("--identities", type=int, default=5)
    p.add_argument("--nodes-per-identity", type=int, default=50)
    p.add_argument("--anomalies", type=int, default=5)
    p.set_defaults(func=cmd_synth)

    return parser


def _config_from_args(args) -> PipelineConfig:
    overrides: dict = {}
    if args.artifacts is not None:
        overrides["artifacts_dir"] = args.artifacts
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.llm is not None:
        overrides["llm"] = {"backend": args.llm}
    if getattr(args, "epochs", None) is not None:
        overrides["encoder"] = {"epochs": args.epochs}
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        for flag in {"name", "graph"} & vars(args).keys():
            _graph_name(f"--{flag}", vars(args)[flag])
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"error code=config detail={exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArtifactError as exc:
        print(f"error code=missing_artifact detail={exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except ProvlensError as exc:
        print(f"error code=runtime detail={exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # anything else is still a one-line runtime error
        print(f"error code=runtime detail={type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
