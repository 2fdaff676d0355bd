"""The benchmark must keep working against the package: its span targets
resolve, and its self-test passes, so that renaming a traced function or
dropping an argument the benchmark passes fails this suite and not only the
benchmark. And every public name the package defines has a caller in the
package or the benchmark. And the modules that own a JSONL artifact leave
every JSON decode and encode to ``provlens.artifacts``. And the
investigation retrieves through the one name the benchmark traces. And
importing the CLI leaves ``requests`` unimported. And ``graph_paths`` names
every file ``save_graph`` writes, which the benchmark deletes by it, and
each writer's seal covers the other files of its ``*_paths`` dict with the
digests of the bytes written, and each key a writer stores in its JSON
header, and each column of its file of columns, is one its loader reads, and
each
field an agent's reply declares is one the agents or the orchestrator read.
And only ``ingest`` calls the graph constructor, and no module names an edge
object, so the benchmark's build hook counts edge columns. And only
``encoder`` trains the vocabulary and the encoder, in ``fit``. And the
investigation package binds exactly the names the benchmark reads through
it."""

import ast
import hashlib
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import tokenize
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

from provlens.detector import Alert, alerts_paths, save_alerts
from provlens.config import EncoderConfig, PipelineConfig
from provlens.encoder import fit, init_params, model_paths, save_model
from provlens.features import SemanticVocab
from provlens.ingest import graph_paths, save_graph
from provlens.investigation.llm import REPLIES
from provlens.investigation.repository import (InvestigationRepository,
                                                repository_paths)
from provlens.profiler import BenignKnowledgeBase, kb_paths, save_kb
from provlens.synth import default_scenario, generate_scenario

from conftest import graph_from_events, make_event, manual_graph

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "provlens"
PERFBENCH = ROOT / "perfbench"


def test_perfbench_span_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    missing = []
    for _, module_name, attr_path, _ in layers.TARGETS:
        owner = importlib.import_module(module_name)
        try:
            for part in attr_path.split("."):
                owner = inspect.getattr_static(owner, part)
        except AttributeError:
            missing.append(f"{module_name}.{attr_path}")
    assert missing == []


def _bound_names(tree):
    """The names a module's top-level statements bind."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(alias.asname or alias.name).partition(".")[0]
                      for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {target.id for target in node.targets
                      if isinstance(target, ast.Name)}
    return bound


def _imported_module(path, node):
    """The absolute module an ``ast.ImportFrom`` in ``path`` imports from."""
    package = path.relative_to(ROOT / "src").parent.parts
    base = package[:len(package) + 1 - node.level] if node.level else ()
    return ".".join([*base, *filter(None, [node.module])])


def test_investigation_package_binds_what_perfbench_reads_through_it(
        monkeypatch):
    """``provlens.investigation`` binds exactly the names perfbench reads
    through the package: each ``investigation.<name>`` in ``workloads.py``
    and each ``layers.TARGETS`` entry resolved in the package. Every module
    under ``src/`` imports a name from the module that defines it, so the
    package imports only its submodules."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    workloads = ast.parse(
        (PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    alias = next(alias.asname for node in ast.walk(workloads)
                 if isinstance(node, ast.Import) for alias in node.names
                 if alias.name == "provlens.investigation")
    read = {node.attr for node in ast.walk(workloads)
            if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == alias}
    read |= {attr.partition(".")[0] for _, module, attr, _ in layers.TARGETS
             if module == "provlens.investigation"}
    package = PACKAGE / "investigation"
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    assert _bound_names(init) == read
    through = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == package / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and _imported_module(path, node)
                    == "provlens.investigation"):
                through += [f"{path.name}: {alias.name}"
                            for alias in node.names
                            if not (package / f"{alias.name}.py").exists()]
    assert through == []


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_perfbench_train_model_is_encoder_fit(monkeypatch, tmp_path):
    """perfbench trains its models with its own copy of the fit sequence,
    which must give ``encoder.fit``'s vocabulary and weights, byte for
    byte."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    cfg = PipelineConfig(encoder=EncoderConfig(epochs=3))
    benign, _, _ = generate_scenario(default_scenario(
        num_identities=3, nodes_per_identity=10, num_anomalies=0, seed=3))
    graph = workloads.graph_from_lines(workloads.event_lines(benign), cfg,
                                       "benign")
    save_model(*workloads.train_model(graph, cfg), tmp_path / "bench")
    vocab, result = fit(graph, cfg)
    save_model(vocab, result.params, tmp_path / "fit")
    bench, fitted = ({path.name: path.read_bytes()
                      for path in (tmp_path / name).iterdir()}
                     for name in ("bench", "fit"))
    assert bench == fitted


def test_cli_import_leaves_requests_unloaded():
    """Only the HTTP backend needs ``requests``, so it imports it itself."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, provlens.cli; print('requests' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "False", proc.stdout + proc.stderr


def test_graph_paths_names_every_file_save_graph_writes(tmp_path):
    """perfbench's per-window clean-up deletes exactly ``graph_paths``, so a
    file it does not name would pile up."""
    graph = manual_graph([("s", "subject", {}, "subject::a")],
                         [("s", "s", "READ", 1, 1, 1)], name="w")
    save_graph(graph, tmp_path)
    assert set(tmp_path.iterdir()) == set(graph_paths(tmp_path, "w").values())


def _sealed_writers():
    """Each sealed writer, bound to a tiny object and taking a directory,
    with the ``*_paths`` function naming what it writes there."""
    graph = manual_graph([("s", "subject", {}, "subject::a")],
                         [("s", "s", "READ", 1, 1, 1)], name="w")
    kb = BenignKnowledgeBase(epsilon=0.1, uuids=["s"], labels=["subject::a"],
                             embeddings=np.zeros((1, 2)), digests=[[]])
    vocab = SemanticVocab(tokens=["READ"], vectors=np.zeros((1, 2), "<f4"))
    alert = Alert(node_uuid="s", graph_name="w", claimed="subject::a",
                  matched="subject::a", deviation=1.0, radius=0.5,
                  violation="deviation", explanation="e", score=1.0)
    repo = InvestigationRepository(graph_name="w")
    repo.journal("investigation_started")
    return [
        (lambda d: save_graph(graph, d), lambda d: graph_paths(d, "w")),
        (lambda d: save_kb(kb, d), kb_paths),
        (lambda d: save_model(vocab, init_params([3, 2]), d), model_paths),
        (lambda d: save_alerts([alert], d / "w.alerts.jsonl"),
         lambda d: alerts_paths(d / "w.alerts.jsonl")),
        (repo.save, repository_paths)]


def test_each_seal_lists_exactly_the_other_files_of_its_set(tmp_path):
    """A writer seals every file of its ``*_paths`` dict, the column files
    of a graph's nodes and a KB's members included, and writes no other, so
    a loader's ``check_seal`` covers all it reads. The digest sealed for a
    file, which its writer returned, is the sha256 of the file's bytes."""
    for i, (write, paths_of) in enumerate(_sealed_writers()):
        directory = tmp_path / str(i)
        write(directory)
        paths = paths_of(directory)
        assert set(directory.iterdir()) == set(paths.values())
        sealed = json.loads(paths["seal"].read_text(encoding="utf-8"))
        assert sealed == {
            key: hashlib.sha256(path.read_bytes()).hexdigest()
            for key, path in paths.items() if key != "seal"}
    assert {"nodes", "members"} <= {key for _, paths_of in _sealed_writers()
                                     for key in paths_of(tmp_path)}


# Each JSON file a writer stores as one object of named fields: its header,
# or its record file of columns, which the loader reads through ``columns``.
HEADER_IO = [("ingest.py", "save_graph", "load_graph", "header"),
             ("ingest.py", "save_graph", "load_graph", "nodes"),
             ("profiler.py", "save_kb", "load_kb", "header"),
             ("profiler.py", "save_kb", "load_kb", "members"),
             ("features.py", "save_vocab", "load_vocab", "header"),
             ("encoder.py", "save_params", "load_params", "header")]


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_each_header_key_a_writer_stores_is_read_by_its_loader():
    """The keys the writer puts in the dict it passes to ``write_json`` for
    ``paths["header"]`` are the keys its loader's ``keys(...)`` step names,
    and the loader reads each as ``header["key"]``; a column it writes to a
    file of columns is one its loader names in ``columns(...)``. A key that
    is stored but not read cannot change a result, so it is not stored."""
    unread = []
    for module, writer, loader, file in HEADER_IO:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        load = _function(tree, loader)
        written = {key.value for node in ast.walk(_function(tree, writer))
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "write_json"
                   and ast.unparse(node.args[0]) == f"paths['{file}']"
                   for key in node.args[1].keys}
        if file == "header":
            read = {keyword.arg for node in ast.walk(load)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "keys"
                    for keyword in node.keywords}
            used = {node.slice.value for node in ast.walk(load)
                    if isinstance(node, ast.Subscript)
                    and getattr(node.value, "id", None) == "header"
                    and isinstance(node.slice, ast.Constant)}
            unread += [f"{loader}: header {key} never used"
                       for key in sorted(read - used)]
        else:
            read = {arg.value for node in ast.walk(load)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "columns"
                    for arg in node.args}
        assert written and read, (writer, loader, file)
        unread += [f"{writer}: {file} {key}"
                   for key in sorted(written ^ read)]
    assert unread == []


def test_each_reply_field_an_agent_declares_is_read():
    """Every field ``REPLIES`` declares, the fields of a list's objects
    included, is read as ``reply["field"]`` in the agents or the
    orchestrator; a field that nothing reads only costs output tokens."""
    declared = set()
    for fields in REPLIES.values():
        declared |= set(fields)
        for sketch, _, _ in fields.values():
            declared |= set(re.findall(r'"(\w+)":', sketch))
    read = set()
    for module in ("agents.py", "orchestrator.py"):
        path = PACKAGE / "investigation" / module
        read |= {node.slice.value
                 for node in ast.walk(ast.parse(path.read_text("utf-8")))
                 if isinstance(node, ast.Subscript)
                 and isinstance(node.slice, ast.Constant)}
    assert "node_uuid" in declared and sorted(declared - read) == []


def test_every_public_definition_has_a_caller():
    """Every public function, class and method defined in the package is
    named in ``src/`` or ``perfbench/`` outside its own definition. Names
    count as code tokens, so a docstring or a comment is not a caller."""
    mentions = Counter()
    for path in [*(ROOT / "src").rglob("*.py"), *PERFBENCH.rglob("*.py")]:
        with tokenize.open(path) as fh:
            mentions.update(token.string
                            for token in tokenize.generate_tokens(fh.readline)
                            if token.type == tokenize.NAME)
    definitions = Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                definitions[node.name] += 1
    uncalled = sorted(name for name, count in definitions.items()
                      if mentions[name] <= count)
    assert definitions and uncalled == []


JSONL_OWNERS = ["ingest.py", "features.py", "profiler.py", "detector.py",
                "investigation/repository.py"]
JSON_CALLS = {"load", "loads", "dump", "dumps"}


def _json_calls(name: str, calls: set) -> list[str]:
    """Where module ``name`` of the package names a name of ``calls`` of
    ``json``: as ``json.<call>``, by ``from json import`` or, for a
    submodule, by ``import json.<call>`` or ``from json.<call> import``."""
    found = []
    submodules = {f"json.{call}" for call in calls}
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in calls
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"):
            found.append(f"{name}:{node.lineno} json.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend(f"{name}:{node.lineno} from json import "
                         f"{alias.name}" for alias in node.names
                         if alias.name in calls)
        elif isinstance(node, ast.ImportFrom) and node.module in submodules:
            found.append(f"{name}:{node.lineno} from {node.module} import")
        elif isinstance(node, ast.Import):
            found.extend(f"{name}:{node.lineno} import {alias.name}"
                         for alias in node.names
                         if alias.name in submodules)
    return found


def test_jsonl_owners_call_no_json_function():
    """Their records cross the JSONL boundary only through the one decoder
    and encoder of ``artifacts``."""
    assert [site for name in JSONL_OWNERS
            for site in _json_calls(name, JSON_CALLS)] == []


def test_only_artifacts_decodes_json():
    """Every JSON document the program reads, an agent reply, the config
    file, the synth spec and every event line included, is decoded by
    ``artifacts.decode``, so one rule holds for malformed and over-deep input
    everywhere. A decoder or scanner of ``json`` counts as decoding too."""
    found = [site for path in sorted(PACKAGE.rglob("*.py"))
             for site in _json_calls(path.relative_to(PACKAGE).as_posix(),
                                     {"load", "loads", "JSONDecoder",
                                      "decoder", "scanner"})]
    assert [site for site in found if not site.startswith("artifacts.py:")] \
        == []


def test_only_the_agents_module_names_knn_query():
    """perfbench's ``profiler.knn`` span wraps ``knn_query`` where
    ``investigation.agents`` resolves it, so that span sees every retrieval
    of the investigation only while no other investigation module names it.
    Names count as code tokens, so a docstring or a comment does not."""
    naming = []
    for path in sorted((PACKAGE / "investigation").rglob("*.py")):
        with tokenize.open(path) as fh:
            if any(token.type == tokenize.NAME and token.string == "knn_query"
                   for token in tokenize.generate_tokens(fh.readline)):
                naming.append(path.relative_to(PACKAGE).as_posix())
    assert naming == ["investigation/agents.py"]


def test_only_the_ingest_module_constructs_graphs_and_edges():
    """Only ``ingest`` calls the ``ProvenanceGraph`` constructor (in
    ``build_graph``, ``union_graph`` and ``load_graph``). A call through a
    module or class attribute counts, such as ``ingest.ProvenanceGraph(...)``.
    And no module names ``ProvEdge``: edge objects are the tests' own form."""
    calling, naming = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calling += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id",
                                getattr(node.func, "attr", None))
                    == "ProvenanceGraph"]
        with tokenize.open(path) as fh:
            if any(token.string == "ProvEdge"
                   for token in tokenize.generate_tokens(fh.readline)):
                naming.append(name)
    assert [site for site in calling
            if not site.startswith("ingest.py:")] == []
    assert calling  # the walk sees ingest's own calls
    assert naming == []


def test_only_the_encoder_module_fits_the_model():
    """The vocabulary → features → training sequence has one copy in the
    package, ``encoder.fit``: no other module calls ``train_semantic_vocab``
    or the encoder's ``train``, bare or through a module attribute such as
    ``encoder.train(...)``."""
    calling = []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calling += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id",
                                getattr(node.func, "attr", None))
                    in ("train_semantic_vocab", "train")]
    assert [site for site in calling
            if not site.startswith("encoder.py:")] == []
    assert len(calling) == 2  # the walk sees fit's own two calls


def test_perfbench_build_hook_counts_edge_columns(monkeypatch):
    """The ``ingest.build`` count hook, called on a built graph, reports its
    edge-column rows and allocates no per-edge objects: under a kilobyte
    for a graph of over a thousand edges."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    events = [make_event(event_id=f"e{i}", subject_uuid=f"s{i % 40}",
                         object_uuid=f"o{i % 70}", timestamp=i)
              for i in range(1500)]
    graph = graph_from_events(events, window_ns=1)
    assert len(graph.edge_columns) > 1000
    hook = {span: count for span, _, _, count in layers.TARGETS}
    tracemalloc.start()
    try:
        counts = hook["ingest.build"]({}, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == {"edges": len(graph.edge_columns)}
    assert peak < 1024


FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 0


def test_b_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PERFBENCH.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
