import json

import numpy as np
import pytest

from provlens.detector import Alert
from provlens.errors import LLMError, LLMTransportError
from provlens.investigation import (
    GraphStore,
    InvestigationBudget,
    InvestigationRepository,
    IOCRecord,
    ScriptedLLM,
    analyst_validate,
    canonical_digest,
    investigator_expand,
    leader_synthesize,
    run_investigation,
)
from provlens.investigation.llm import (
    FALLBACKS,
    MAX_ATTEMPTS,
    LLMSession,
    heuristic_mock,
    validate_response,
)
from provlens.profiler import BenignKnowledgeBase, edge_digest

from conftest import assert_canonical_json_files, graph_from_events, make_event

TRUTH = ("att-a", "att-b", "att-c")


def attack_graph():
    """Dropper writes a payload which a launcher executes, plus benign noise."""
    events = [
        make_event(event_id="a1", subject_uuid="att-a", object_uuid="att-b",
                   operation="WRITE", timestamp=10,
                   subject_attrs={"name": "dropper"},
                   object_attrs={"path": "/tmp/payload.bin"}),
        make_event(event_id="a2", subject_uuid="att-c", object_uuid="att-b",
                   operation="EXECUTE", timestamp=20,
                   subject_attrs={"name": "launcher"},
                   object_attrs={"path": "/tmp/payload.bin"}),
        make_event(event_id="b1", subject_uuid="ben-1", object_uuid="ben-2",
                   operation="WRITE", timestamp=5,
                   subject_attrs={"name": "editor"},
                   object_attrs={"path": "/home/u/notes.txt"}),
        make_event(event_id="b2", subject_uuid="ben-3", object_uuid="ben-4",
                   operation="WRITE", timestamp=5,
                   subject_attrs={"name": "editor"},
                   object_attrs={"path": "/home/v/notes.txt"}),
    ]
    return graph_from_events(events, name="day1")


def benign_kb(graph):
    metadata = {
        "ben-1": {"identity": "subject::editor", "kind": "subject",
                  "attrs": {"name": "editor"}, "graph": "day1",
                  "edges": edge_digest(graph, "ben-1")},
    }
    return BenignKnowledgeBase(epsilon=0.02, profiles={}, uuids=["ben-1"],
                               labels=["subject::editor"],
                               embeddings=np.zeros((1, 2)), metadata=metadata)


def make_alert(uuid, graph_name="day1", score=2.0):
    return Alert(node_uuid=uuid, graph_name=graph_name,
                 claimed="subject::dropper", matched="subject::editor",
                 deviation=2.0, radius=0.5, violation="both",
                 explanation=f"declared subject::dropper behaves like "
                             f"subject::editor, d=2, R=0.5", score=score)


def scripted_chain_backend():
    def analyst(payload):
        uuid = payload["node_uuid"]
        if uuid in TRUTH:
            return {"verdict": "ANOMALY", "confidence": 0.9,
                    "cited_evidence": payload["edges"][:2],
                    "rationale": f"{uuid} matches the dropper pattern"}
        return {"verdict": "BENIGN", "confidence": 0.8, "cited_evidence": [],
                "rationale": "consistent with benign references"}

    def investigator(payload):
        uuid = payload["node_uuid"]
        leads = [{"graph_name": "day1", "node_uuid": n["node_uuid"],
                  "reason": "direct contact with a confirmed indicator"}
                 for n in payload["neighborhood"] if n["node_uuid"] in TRUTH]
        phase = {"att-a": "IC", "att-b": "PE", "att-c": "MP"}.get(
            uuid, "UNASSIGNED")
        return {"event": f"{uuid} participated in the payload drop",
                "kill_chain_phase": phase, "leads": leads}

    def leader(payload):
        validated = {r["node_uuid"] for r in payload["ioc_table"]
                     if r["status"] == "validated"}
        return {"phase_coverage": {}, "hypotheses": [],
                "false_positive_flags": [],
                "terminate": set(TRUTH) <= validated}

    def reporter(payload):
        return {"campaign_summary": "A dropper staged a payload that a "
                                    "launcher executed.",
                "remediation": ["Quarantine the payload file."]}

    return ScriptedLLM(handlers={"analyst": analyst,
                                 "investigator": investigator,
                                 "leader": leader, "reporter": reporter})


def default_budget(**overrides):
    values = dict(max_iterations=3, max_leads_per_ioc=5, max_hypotheses=4,
                  max_llm_calls=60)
    values.update(overrides)
    return InvestigationBudget(**values)


def run_chain(backend=None, budget=None, alerts=None):
    graph = attack_graph()
    store = GraphStore.build([graph])
    kb = benign_kb(graph)
    return run_investigation(
        alerts if alerts is not None else [make_alert("att-a")],
        store, kb, backend or scripted_chain_backend(),
        budget or default_budget())


# --- llm layer -----------------------------------------------------------------

def invoke_once(backend, role, payload):
    """One ``LLMSession.invoke`` with room to spare in the call budget."""
    repo = InvestigationRepository("g")
    session = LLMSession(backend=backend, max_llm_calls=10, repo=repo)
    response, valid = session.invoke(role, payload)
    return response, valid, repo


def test_scripted_backend_exact_digest_keying():
    payload = {"node_uuid": "n1", "graph_name": "g"}
    backend = ScriptedLLM()
    backend.script("analyst", payload,
                   {"verdict": "BENIGN", "confidence": 0.9,
                    "cited_evidence": [], "rationale": "scripted"})
    response, valid, _ = invoke_once(backend, "analyst", payload)
    assert valid
    assert response["verdict"] == "BENIGN"
    assert response["confidence"] == 0.9
    assert backend.calls == [("analyst", canonical_digest(payload))]


def test_canonical_digest_is_order_insensitive():
    assert canonical_digest({"a": 1, "b": 2}) == canonical_digest({"b": 2, "a": 1})
    assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})


def test_session_repairs_schema_violation():
    payload = {"node_uuid": "n1"}
    backend = ScriptedLLM()
    backend.responses[("analyst", canonical_digest(payload))] = [
        {"verdict": "ANOMALY"},  # missing confidence
    ]
    fixed = {"verdict": "ANOMALY", "confidence": 0.7, "cited_evidence": [],
             "rationale": "r"}
    backend.handlers["analyst"] = lambda p: fixed
    response, valid, repo = invoke_once(backend, "analyst", payload)
    assert valid
    assert response["confidence"] == 0.7
    assert len(backend.calls) == 2  # one repair retry issued
    assert [e["action"] for e in repo.journal_entries] == ["llm_schema_retry"]


def test_llm_invoke_raises_after_persistent_schema_failure():
    """Every attempt's schema check raises; the invoke gives up after
    MAX_ATTEMPTS backend calls and journals each raised error."""
    bad = {"verdict": "MAYBE"}
    with pytest.raises(LLMError) as excinfo:
        validate_response("analyst", dict(bad))
    backend = ScriptedLLM(handlers={"analyst": lambda p: bad})
    response, valid, repo = invoke_once(backend, "analyst", {"node_uuid": "n"})
    assert not valid
    assert response == FALLBACKS["analyst"]
    assert len(backend.calls) == 3 == MAX_ATTEMPTS
    retries = [e for e in repo.journal_entries
               if e["action"] == "llm_schema_retry"]
    assert [e["error"] for e in retries] == [str(excinfo.value)] * 3


def test_session_falls_back_to_benign_and_journals():
    backend = ScriptedLLM(handlers={"analyst": lambda p: {"bogus": 1}})
    response, valid, repo = invoke_once(backend, "analyst", {"node_uuid": "n"})
    assert not valid
    assert response == FALLBACKS["analyst"]
    assert response["verdict"] == "BENIGN" and response["confidence"] == 0.0
    assert len(backend.calls) == MAX_ATTEMPTS
    actions = [e["action"] for e in repo.journal_entries]
    assert actions == ["llm_schema_retry"] * MAX_ATTEMPTS + ["llm_fallback"]


@pytest.mark.parametrize("role,bad", [
    ("analyst", {"verdict": "BENIGN", "confidence": 1.5}),
    ("analyst", {"verdict": "weird", "confidence": 0.5}),
    ("investigator", {"event": "e", "leads": [{"node_uuid": "x"}]}),
    ("investigator", {"event": "e", "kill_chain_phase": "XX", "leads": []}),
    ("leader", {"terminate": "yes"}),
    ("leader", {"terminate": True, "hypotheses": [{"kind": "wild"}]}),
    ("reporter", {"remediation": []}),
])
def test_validate_response_rejects_bad_payloads(role, bad):
    with pytest.raises(LLMError):
        validate_response(role, bad)


def test_validate_response_parses_fields():
    obj = validate_response("analyst", {"verdict": "ANOMALY",
                                        "confidence": 0.25,
                                        "cited_evidence": ["edge"],
                                        "rationale": "because"})
    assert obj["confidence"] == 0.25 and obj["cited_evidence"] == ["edge"]


# --- analyst ---------------------------------------------------------------------

def test_analyst_scripted_passthrough():
    graph = attack_graph()
    store = GraphStore.build([graph])
    repo = InvestigationRepository("day1")
    backend = ScriptedLLM(handlers={"analyst": lambda p: {
        "verdict": "BENIGN", "confidence": 0.9, "cited_evidence": [],
        "rationale": "fine"}})
    session = LLMSession(backend=backend, max_llm_calls=10, repo=repo)
    verdict = analyst_validate({"graph_name": "day1", "node_uuid": "ben-1",
                                "reason": "why not"}, benign_kb(graph), store,
                               session)
    assert verdict.verdict == "BENIGN" and verdict.confidence == 0.9


def test_analyst_benign_when_digest_matches_same_identity_member():
    graph = attack_graph()
    store = GraphStore.build([graph])
    kb = benign_kb(graph)

    def faithful(payload):
        for member in payload["same_identity"]:
            if member["edges"] == payload["edges"]:
                return {"verdict": "BENIGN", "confidence": 0.95,
                        "cited_evidence": member["edges"],
                        "rationale": "matches a same-identity benign member"}
        return {"verdict": "ANOMALY", "confidence": 0.9,
                "cited_evidence": payload["edges"],
                "rationale": "no benign analogue"}

    repo = InvestigationRepository("day1")
    session = LLMSession(backend=ScriptedLLM(handlers={"analyst": faithful}),
                         max_llm_calls=10, repo=repo)
    # ben-3 mirrors ben-1 exactly (same ops, timestamps, object identity)
    same = analyst_validate({"graph_name": "day1", "node_uuid": "ben-3",
                             "reason": "looks odd"}, kb, store, session)
    assert same.verdict == "BENIGN"
    diverging = analyst_validate({"graph_name": "day1", "node_uuid": "att-a",
                                  "reason": "alerted"}, kb, store, session)
    assert diverging.verdict == "ANOMALY"


def test_unknown_identity_lead_with_scripted_anomaly_creates_ioc():
    repo = run_chain(alerts=[make_alert("att-a")])
    assert repo.iocs["att-a"].status == "validated"
    assert repo.iocs["att-a"].origin == "alert"


# --- investigator ------------------------------------------------------------------

def make_validated_ioc(uuid, graph_name="day1", identity="subject::dropper"):
    return IOCRecord(node_uuid=uuid, graph_name=graph_name, identity=identity,
                     status="validated", confidence=0.9, event="seed event")


def test_investigator_returns_scripted_leads():
    graph = attack_graph()
    store = GraphStore.build([graph])
    repo = InvestigationRepository("day1")
    session = LLMSession(backend=scripted_chain_backend(), max_llm_calls=10,
                         repo=repo)
    event, phase, leads = investigator_expand(make_validated_ioc("att-b"),
                                              store, session, max_leads=5)
    assert phase == "PE"
    assert {lead["node_uuid"] for lead in leads} == {"att-a", "att-c"}
    for lead in leads:
        assert lead["graph_name"] and lead["reason"]


def test_investigator_isolated_ioc_keeps_phase():
    graph = graph_from_events(
        [make_event(event_id="z", subject_uuid="lonely", object_uuid="o",
                    operation="READ", timestamp=1,
                    subject_attrs={"name": "x"})], name="day1")
    # remove the only edge so the IOC truly has no neighborhood
    graph.edges.clear()
    graph._incident_cache = None
    store = GraphStore.build([graph])
    repo = InvestigationRepository("day1")
    backend = ScriptedLLM(handlers={"investigator": lambda p: {
        "event": "quiet", "kill_chain_phase": "IR", "leads": []}})
    session = LLMSession(backend=backend, max_llm_calls=10, repo=repo)
    event, phase, leads = investigator_expand(
        make_validated_ioc("lonely", identity="subject::x"), store, session,
        max_leads=5)
    assert (event, phase, leads) == ("quiet", "IR", [])


def test_investigator_requires_validated_status():
    graph = attack_graph()
    store = GraphStore.build([graph])
    repo = InvestigationRepository("day1")
    session = LLMSession(backend=scripted_chain_backend(), max_llm_calls=10,
                         repo=repo)
    ioc = make_validated_ioc("att-a")
    ioc.status = "candidate"
    with pytest.raises(ValueError):
        investigator_expand(ioc, store, session, max_leads=5)


def test_lead_already_validated_is_deduplicated():
    repo = run_chain()
    dedups = [e for e in repo.journal_entries
              if e["action"] == "lead_deduplicated"]
    assert dedups, "expanding the chain must re-surface known nodes"
    assert all(e["node_uuid"] in repo.iocs for e in dedups)


# --- leader ---------------------------------------------------------------------

def leader_session(repo, handler):
    return LLMSession(backend=ScriptedLLM(handlers={"leader": handler}),
                      max_llm_calls=10, repo=repo)


def test_leader_coherent_chain_terminates():
    repo = InvestigationRepository("day1")
    repo.iocs["att-a"] = make_validated_ioc("att-a")
    session = leader_session(repo, lambda p: {
        "phase_coverage": {"IC": ["att-a"]}, "hypotheses": [],
        "false_positive_flags": [], "terminate": True})
    result = leader_synthesize(repo, session, max_hypotheses=4)
    assert result["terminate"] is True
    assert result["hypotheses"] == []


def test_leader_missing_stage_hypothesis_stays_open():
    repo = InvestigationRepository("day1")
    repo.iocs["att-a"] = make_validated_ioc("att-a")
    repo.iocs["att-a"].kill_chain_phase = "LM"
    session = leader_session(repo, lambda p: {
        "phase_coverage": {"LM": ["att-a"]},
        "hypotheses": [{"kind": "missing_stage",
                        "statement": "lateral movement without command "
                                     "channel suggests an unseen C2 step",
                        "target_refs": ["CC"]}],
        "false_positive_flags": [], "terminate": False})
    result = leader_synthesize(repo, session, max_hypotheses=4)
    assert result["terminate"] is False
    assert len(result["hypotheses"]) == 1
    assert result["hypotheses"][0]["target_refs"] == ["CC"]


def test_leader_rejects_hypothesis_with_unknown_uuid():
    repo = InvestigationRepository("day1")
    repo.iocs["att-a"] = make_validated_ioc("att-a")
    session = leader_session(repo, lambda p: {
        "phase_coverage": {},
        "hypotheses": [{"kind": "missing_stage", "statement": "ghost",
                        "target_refs": ["no-such-node"]}],
        "false_positive_flags": ["also-missing"], "terminate": False})
    result = leader_synthesize(repo, session, max_hypotheses=4)
    assert result["hypotheses"] == []
    assert result["false_positive_flags"] == []
    actions = [e["action"] for e in repo.journal_entries]
    assert "hypothesis_rejected" in actions and "flag_rejected" in actions


# --- the loop --------------------------------------------------------------------

def test_zero_alerts_reports_no_incident():
    repo = run_chain(alerts=[])
    assert repo.status == "complete"
    assert repo.iocs == {}
    assert "No incident" in repo.report_markdown


def test_three_stage_chain_recovers_ground_truth():
    repo = run_chain()
    validated = {i.node_uuid for i in repo.validated_iocs()}
    assert validated == set(TRUTH)
    assert repo.status == "complete"
    phases = {i.node_uuid: i.kill_chain_phase for i in repo.validated_iocs()}
    assert phases == {"att-a": "IC", "att-b": "PE", "att-c": "MP"}


def test_all_benign_analyst_stops_after_stage_one():
    backend = scripted_chain_backend()
    backend.handlers["analyst"] = lambda p: {
        "verdict": "BENIGN", "confidence": 0.6, "cited_evidence": [],
        "rationale": "nothing to see"}
    repo = run_chain(backend=backend)
    assert repo.validated_iocs() == []
    roles = [r for r, _ in backend.calls]
    assert "investigator" not in roles and "leader" not in roles


def test_gatekeeping_every_validated_ioc_has_anomaly_verdict():
    repo = run_chain()
    for uuid in (i.node_uuid for i in repo.validated_iocs()):
        verdicts = [e for e in repo.journal_entries
                    if e["action"] == "analyst_verdict"
                    and e["node_uuid"] == uuid]
        admissions = [e for e in repo.journal_entries
                      if e["action"] == "ioc_validated"
                      and e["node_uuid"] == uuid]
        assert verdicts and admissions
        assert verdicts[0]["verdict"] == "ANOMALY"
        assert verdicts[0]["seq"] < admissions[0]["seq"]


def test_journal_replay_is_deterministic():
    one = run_chain()
    two = run_chain()
    dump = lambda repo: "\n".join(json.dumps(e, sort_keys=True)
                                  for e in repo.journal_entries)
    assert dump(one) == dump(two)
    assert one.report_markdown == two.report_markdown


def test_report_lists_each_validated_ioc_exactly_once():
    repo = run_chain()
    narrative = repo.report_markdown.split("## Attack Narrative")[1] \
                                    .split("## Indicator Details")[0]
    for uuid in TRUTH:
        assert narrative.count(f"`{uuid}`") == 1


def test_attack_graph_counts_match_repository():
    repo = run_chain()
    lines = repo.attack_graph_dot.splitlines()
    node_lines = [l for l in lines if "[label=" in l and "->" not in l]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == len(repo.validated_iocs())
    valid = {i.node_uuid for i in repo.validated_iocs()}
    expected_edges = {(s, d) for s, d, _ in repo.relations
                      if s in valid and d in valid}
    for ioc in repo.validated_iocs():
        for ref in ioc.related_ioc_refs:
            if ref in valid:
                expected_edges.add((ref, ioc.node_uuid))
    assert len(edge_lines) == len(expected_edges)


def test_false_positive_flag_demotes_to_appendix():
    backend = scripted_chain_backend()
    state = {"called": False}

    def leader(payload):
        if not state["called"]:
            state["called"] = True
            return {"phase_coverage": {}, "hypotheses": [],
                    "false_positive_flags": ["att-c"], "terminate": True}
        return {"phase_coverage": {}, "hypotheses": [],
                "false_positive_flags": [], "terminate": True}

    backend.handlers["leader"] = leader
    repo = run_chain(backend=backend)
    assert repo.iocs["att-c"].status == "refuted"
    assert "Dismissed Findings" in repo.report_markdown
    narrative = repo.report_markdown.split("## Attack Narrative")[1] \
                                    .split("## Indicator Details")[0]
    assert "att-c" not in narrative
    appendix = repo.report_markdown.split("Dismissed Findings")[1]
    assert "att-c" in appendix


def test_false_positive_hypothesis_revalidation_demotes():
    backend = scripted_chain_backend()
    state = {"leader_calls": 0}

    def leader(payload):
        state["leader_calls"] += 1
        if state["leader_calls"] == 1:
            return {"phase_coverage": {}, "hypotheses": [
                {"kind": "false_positive",
                 "statement": "the launcher looks like normal tooling",
                 "target_refs": ["att-c"]}],
                "false_positive_flags": [], "terminate": False}
        return {"phase_coverage": {}, "hypotheses": [],
                "false_positive_flags": [], "terminate": True}

    original_analyst = backend.handlers["analyst"]

    def analyst(payload):
        if "normal tooling" in payload.get("investigator_reason", ""):
            return {"verdict": "BENIGN", "confidence": 0.8,
                    "cited_evidence": [], "rationale": "re-checked; benign"}
        return original_analyst(payload)

    backend.handlers["leader"] = leader
    backend.handlers["analyst"] = analyst
    repo = run_chain(backend=backend)
    assert repo.iocs["att-c"].status == "refuted"
    hypothesis = repo.hypotheses[0]
    assert hypothesis.kind == "false_positive"
    assert hypothesis.status == "confirmed"


def test_adversarial_always_anomaly_respects_llm_budget():
    def analyst(payload):
        return {"verdict": "ANOMALY", "confidence": 0.99,
                "cited_evidence": [], "rationale": "everything is evil"}

    def investigator(payload):
        leads = [{"graph_name": payload["graph_name"],
                  "node_uuid": n["node_uuid"], "reason": "suspicious"}
                 for n in payload["neighborhood"]]
        return {"event": "expansion", "kill_chain_phase": "LM",
                "leads": leads}

    def leader(payload):
        return {"phase_coverage": {},
                "hypotheses": [{"kind": "missing_stage",
                                "statement": "there must be more",
                                "target_refs": ["DE"]}],
                "false_positive_flags": [], "terminate": False}

    backend = ScriptedLLM(handlers={
        "analyst": analyst, "investigator": investigator, "leader": leader,
        "reporter": lambda p: {"campaign_summary": "s", "remediation": []}})
    budget = default_budget(max_llm_calls=25, max_iterations=50)
    repo = run_chain(backend=backend, budget=budget)
    assert repo.status == "complete"
    assert repo.budget_exhausted
    assert repo.llm_calls_used <= 25
    assert all(h.status != "open" for h in repo.hypotheses)
    assert "budget" in repo.report_markdown
    # growth bound, assertable from the journal: every IOC admission needs its
    # own ANOMALY verdict, so IOCs can never outgrow the analyst call count
    verdicts = [e for e in repo.journal_entries
                if e["action"] == "analyst_verdict"]
    admissions = [e for e in repo.journal_entries
                  if e["action"] == "ioc_validated"]
    assert len(admissions) <= len(verdicts) <= repo.llm_calls_used


def never_satisfied_leader(payload):
    return {"phase_coverage": {},
            "hypotheses": [{"kind": "missing_stage", "statement": "dig again",
                            "target_refs": ["CC"]}],
            "false_positive_flags": [], "terminate": False}


def test_max_iterations_bounds_the_synthesis_loop():
    backend = scripted_chain_backend()
    backend.handlers["leader"] = never_satisfied_leader
    budget = default_budget(max_iterations=2, max_llm_calls=200)
    repo = run_chain(backend=backend, budget=budget)
    assert repo.status == "complete"
    assert repo.iteration == 2
    assert repo.budget_exhausted


class FlakyBackend:
    """Fails transport until ``fail_calls`` requests have been attempted."""

    def __init__(self, inner, fail_calls):
        self.inner = inner
        self.remaining = fail_calls

    def invoke(self, role, system_prompt, payload):
        if self.remaining > 0:
            self.remaining -= 1
            raise LLMTransportError("backend unreachable")
        return self.inner.invoke(role, system_prompt, payload)


def test_transport_failure_pauses_then_resumes(tmp_path):
    graph = attack_graph()
    store = GraphStore.build([graph])
    kb = benign_kb(graph)
    backend = FlakyBackend(scripted_chain_backend(), fail_calls=10)
    repo = run_investigation([make_alert("att-a")], store, kb, backend,
                             default_budget())
    assert repo.status == "paused"
    retries = [e for e in repo.journal_entries
               if e["action"] == "llm_transport_retry"]
    assert len(retries) == 3  # transport failures retried before pausing
    repo.save(tmp_path)

    resumed = InvestigationRepository.load(tmp_path)
    backend.remaining = 0
    final = run_investigation([make_alert("att-a")], store, kb, backend,
                              default_budget(), repo=resumed)
    assert final.status == "complete"
    assert {i.node_uuid for i in final.validated_iocs()} == set(TRUTH)
    actions = [e["action"] for e in final.journal_entries]
    assert "investigation_paused" in actions
    assert "investigation_resumed" in actions


def test_resume_keeps_spent_call_budget(tmp_path):
    graph = attack_graph()
    store = GraphStore.build([graph])
    kb = benign_kb(graph)
    backend = FlakyBackend(scripted_chain_backend(), fail_calls=10)
    repo = run_investigation([make_alert("att-a")], store, kb, backend,
                             default_budget())
    assert repo.status == "paused"
    spent = repo.llm_calls_used
    repo.save(tmp_path)

    resumed = InvestigationRepository.load(tmp_path)
    backend.remaining = 0
    final = run_investigation([make_alert("att-a")], store, kb, backend,
                              default_budget(max_llm_calls=spent),
                              repo=resumed)
    assert final.llm_calls_used == spent
    assert final.budget_exhausted
    exhausted = [e for e in final.journal_entries
                 if e["action"] == "llm_budget_exhausted"]
    assert len(exhausted) == 1
    assert backend.inner.calls == []  # no call beyond the spent budget


def test_repository_round_trip(tmp_path):
    synthesising = scripted_chain_backend()
    synthesising.handlers["leader"] = never_satisfied_leader
    for name, backend in (("chain", None), ("hypotheses", synthesising)):
        repo = run_chain(backend=backend)
        directory = tmp_path / name
        repo.save(directory)
        loaded = InvestigationRepository.load(directory)
        assert loaded == repo
        assert loaded.to_dict() == repo.to_dict()
        journal_file = (directory / "journal.jsonl").read_text().splitlines()
        assert len(journal_file) == len(repo.journal_entries)
        assert ([json.loads(line) for line in journal_file]
                == repo.journal_entries)
        assert_canonical_json_files(directory)
    assert repo.hypotheses  # the second run holds hypotheses


def test_repository_invariants_after_run():
    repo = run_chain()
    seqs = [e["seq"] for e in repo.journal_entries]
    assert seqs == list(range(len(seqs)))  # journal totally ordered
    known = set(repo.iocs)
    for hyp in repo.hypotheses:
        for ref in hyp.target_refs:
            assert ref in known or ref in ("IC", "IR", "CC", "PE", "LM", "MP",
                                           "DE", "CT")
    for ioc in repo.validated_iocs():
        assert ioc.event and ioc.confidence > 0


class FakeHttpSession:
    """Captures chat-completion requests and replays canned responses."""

    def __init__(self, content):
        self.content = content
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers,
                              "timeout": timeout})

        class Response:
            @staticmethod
            def raise_for_status():
                pass

            @staticmethod
            def json():
                return {"choices": [{"message": {"content": self.content}}]}

        return Response()


def test_http_backend_chat_completion_contract():
    from provlens.investigation.llm import HttpChatLLM

    content = json.dumps({"verdict": "BENIGN", "confidence": 0.5,
                          "cited_evidence": [], "rationale": "r"})
    session = FakeHttpSession(content)
    backend = HttpChatLLM(endpoint="https://llm.example/v1", model="m-1",
                          api_key="sekrit", session=session)
    response, valid, _ = invoke_once(backend, "analyst", {"node_uuid": "n"})
    assert valid and response["verdict"] == "BENIGN"

    request = session.requests[0]
    assert request["url"] == "https://llm.example/v1/chat/completions"
    assert request["headers"]["Authorization"] == "Bearer sekrit"
    body = request["json"]
    assert body["model"] == "m-1"
    assert body["response_format"] == {"type": "json_object"}
    roles = [m["role"] for m in body["messages"]]
    assert roles == ["system", "user"]
    assert json.loads(body["messages"][1]["content"]) == {"node_uuid": "n"}


def test_http_backend_wraps_transport_errors():
    from provlens.investigation.llm import HttpChatLLM

    class DeadSession:
        def post(self, *args, **kwargs):
            import requests
            raise requests.ConnectionError("refused")

    backend = HttpChatLLM(endpoint="https://llm.example/v1", model="m",
                          session=DeadSession())
    with pytest.raises(LLMTransportError):
        backend.invoke("analyst", "sys", {"node_uuid": "n"})


def test_heuristic_mock_validates_mismatch_alert_only():
    mock = heuristic_mock()
    anomaly = json.loads(mock.invoke("analyst", "", {
        "identity": "subject::a", "edges": [],
        "investigator_reason": "declared subject::a behaves like "
                               "subject::b, d=2, R=0.5"}))
    benign = json.loads(mock.invoke("analyst", "", {
        "identity": "subject::a", "edges": [],
        "investigator_reason": "declared subject::a behaves like "
                               "subject::a, d=2, R=0.5"}))
    assert anomaly["verdict"] == "ANOMALY"
    assert benign["verdict"] == "BENIGN"
