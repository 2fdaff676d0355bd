import copy
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provlens import profiler
from provlens.config import InvestigationBudget
from provlens.detector import Alert
from provlens.encoder import forward, init_params
from provlens.errors import LLMError, LLMTransportError
from provlens.features import TEMPORAL_DIM, feature_matrix
from provlens.investigation import agents
from provlens.investigation.agents import (
    analyst_validate,
    investigator_expand,
    leader_synthesize,
    similar_behavior,
)
from provlens.investigation.graphstore import GraphStore
from provlens.investigation.llm import (
    FALLBACKS,
    MAX_ATTEMPTS,
    ROLE_PROMPTS,
    LLMSession,
    heuristic_mock,
    validate_response,
)
from provlens.investigation.orchestrator import run_investigation
from provlens.investigation.repository import (
    FALLBACK_SUMMARY,
    KILL_CHAIN_PHASES,
    UNASSIGNED,
    InvestigationRepository,
    IOCRecord,
)
from provlens.profiler import BenignKnowledgeBase, edge_digest

from conftest import (EMPTY_VOCAB, assert_canonical_json_files,
                      graph_from_events, make_event, manual_graph)
from scripted_llm import RecordingLLM, canonical_digest

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
    return BenignKnowledgeBase(epsilon=0.02, uuids=["ben-1"],
                               labels=["subject::editor"],
                               embeddings=np.zeros((1, 2)),
                               digests=[edge_digest(graph, "ben-1")])


def zero_store(graph):
    """The store of ``graph`` with every node embedded at the origin, in the
    width of the tests' KBs."""
    return GraphStore(graph, np.zeros((len(graph.nodes), 2)))


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

    return RecordingLLM(handlers={"analyst": analyst,
                                  "investigator": investigator,
                                  "leader": leader, "reporter": reporter})


def default_budget(**overrides):
    values = dict(max_iterations=3, max_leads_per_ioc=5, max_hypotheses=4,
                  max_llm_calls=60)
    values.update(overrides)
    return InvestigationBudget(**values)


def run_chain(backend=None, budget=None, alerts=None, repo=None):
    graph = attack_graph()
    store = zero_store(graph)
    kb = benign_kb(graph)
    return run_investigation(
        alerts if alerts is not None else [make_alert("att-a")],
        store, kb, backend or scripted_chain_backend(),
        budget or default_budget(), repo=repo)


# --- llm layer -----------------------------------------------------------------

def invoke_once(backend, role, payload):
    """One ``LLMSession.invoke`` with room to spare in the call budget."""
    repo = InvestigationRepository("g")
    session = LLMSession(backend=backend, max_llm_calls=10, repo=repo)
    return session.invoke(role, payload), repo


def fell_back(repo):
    return any(e["action"] == "llm_fallback" for e in repo.journal_entries)


def test_scripted_backend_exact_digest_keying():
    payload = {"node_uuid": "n1", "graph_name": "g"}
    backend = RecordingLLM()
    backend.script("analyst", payload,
                   {"verdict": "BENIGN", "confidence": 0.9,
                    "cited_evidence": [], "rationale": "scripted"})
    response, repo = invoke_once(backend, "analyst", payload)
    assert not fell_back(repo)
    assert response["verdict"] == "BENIGN"
    assert response["confidence"] == 0.9
    assert backend.calls == [("analyst", canonical_digest(payload))]


def test_canonical_digest_is_order_insensitive():
    assert canonical_digest({"a": 1, "b": 2}) == canonical_digest({"b": 2, "a": 1})
    assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})


def test_session_repairs_schema_violation():
    payload = {"node_uuid": "n1"}
    backend = RecordingLLM()
    backend.responses[("analyst", canonical_digest(payload))] = [
        {"verdict": "ANOMALY"},  # missing confidence
    ]
    fixed = {"verdict": "ANOMALY", "confidence": 0.7, "cited_evidence": [],
             "rationale": "r"}
    backend.handlers["analyst"] = lambda p: fixed
    response, repo = invoke_once(backend, "analyst", payload)
    assert not fell_back(repo)
    assert response["confidence"] == 0.7
    assert len(backend.calls) == 2  # one repair retry issued
    assert [e["action"] for e in repo.journal_entries] == ["llm_schema_retry"]


def test_llm_invoke_raises_after_persistent_schema_failure():
    """Every attempt's schema check raises; the invoke gives up after
    MAX_ATTEMPTS backend calls and journals each raised error."""
    bad = {"verdict": "MAYBE"}
    with pytest.raises(LLMError) as excinfo:
        validate_response("analyst", dict(bad))
    backend = RecordingLLM(handlers={"analyst": lambda p: bad})
    response, repo = invoke_once(backend, "analyst", {"node_uuid": "n"})
    assert fell_back(repo)
    assert response == FALLBACKS["analyst"]
    assert len(backend.calls) == 3 == MAX_ATTEMPTS
    retries = [e for e in repo.journal_entries
               if e["action"] == "llm_schema_retry"]
    assert [e["error"] for e in retries] == [str(excinfo.value)] * 3


def test_session_falls_back_to_benign_and_journals():
    backend = RecordingLLM(handlers={"analyst": lambda p: {"bogus": 1}})
    response, repo = invoke_once(backend, "analyst", {"node_uuid": "n"})
    assert fell_back(repo)
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
    ("analyst", {"verdict": "ANOMALY", "confidence": True}),
    ("leader", {"terminate": False, "false_positive_flags": [["att-a"]]}),
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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
TEXT = st.text(max_size=4) | JSON_VALUES
ANY_LIST = st.lists(TEXT, max_size=4) | JSON_VALUES
ROLE_REPLIES = st.one_of(
    st.tuples(st.just("analyst"), st.fixed_dictionaries(
        {"verdict": st.sampled_from(["ANOMALY", "BENIGN"]),
         "confidence": st.floats(0.0, 1.0) | st.integers(0, 1) | JSON_VALUES},
        optional={"cited_evidence": ANY_LIST, "rationale": TEXT})),
    st.tuples(st.just("leader"), st.fixed_dictionaries(
        {"terminate": st.booleans(),
         "hypotheses": st.lists(st.fixed_dictionaries(
             {"kind": st.sampled_from(["missing_stage", "false_positive"]),
              "statement": st.text(max_size=4), "target_refs": ANY_LIST}),
             max_size=3)})),
    st.tuples(st.just("reporter"), st.fixed_dictionaries(
        {"campaign_summary": st.text(max_size=4)},
        optional={"remediation": ANY_LIST})))


def _texts(role, reply):
    """The lists of text a ``reply`` of ``role`` carries: the Analyst's
    ``cited_evidence`` and its ``rationale`` as a one-item list, each
    hypothesis's ``target_refs``, or the Reporter's ``remediation``."""
    if role == "analyst":
        return [reply.get("cited_evidence", []), [reply.get("rationale", "")]]
    if role == "leader":
        return [hyp["target_refs"] for hyp in reply["hypotheses"]]
    return [reply.get("remediation", [])]


@settings(max_examples=300, deadline=None)
@given(ROLE_REPLIES)
@example(("analyst", {"verdict": "ANOMALY", "confidence": 1,
                      "cited_evidence": ["e", ""], "rationale": "r"}))
@example(("leader", {"terminate": False, "hypotheses": [
    {"kind": "missing_stage", "statement": "s", "target_refs": ["x", "CC"]}]}))
@example(("reporter", {"campaign_summary": "s", "remediation": ["step"]}))
def test_an_accepted_reply_comes_back_in_the_types_its_consumers_read(reply):
    """Each reply ``validate_response`` accepts comes back with a float
    confidence, and its rationale and lists of strings as they were sent."""
    role, sent = reply
    original = copy.deepcopy(sent)
    try:
        obj = validate_response(role, sent)
    except LLMError:
        return
    if role == "analyst":
        assert type(obj["confidence"]) is float
        assert obj["confidence"] == original["confidence"]
    for got in _texts(role, obj):
        assert type(got) is list and all(type(item) is str for item in got)
    assert _texts(role, obj) == _texts(role, original)


@settings(max_examples=300, deadline=None)
@given(ROLE_REPLIES)
@example(("analyst", {"verdict": "ANOMALY", "confidence": 1,
                      "cited_evidence": [1, None, ["e"]], "rationale": "r"}))
@example(("analyst", {"verdict": "BENIGN", "confidence": 0.5,
                      "rationale": {"a": 1}}))
@example(("leader", {"terminate": False, "hypotheses": [
    {"kind": "missing_stage", "statement": "s", "target_refs": [7, "CC"]}]}))
@example(("reporter", {"campaign_summary": "s", "remediation": [True, {}]}))
def test_a_reply_whose_text_is_not_strings_is_rejected(reply):
    """A rationale or an item of a list of text that is not a string is
    never coerced: the reply is rejected, so the repair retry asks again."""
    role, sent = reply
    if all(type(texts) is list and all(type(item) is str for item in texts)
           for texts in _texts(role, sent)):
        return
    with pytest.raises(LLMError):
        validate_response(role, sent)


CONTRACT_LINES = {
    "analyst": 'Respond with JSON only: {"verdict": "ANOMALY"|"BENIGN", '
               '"confidence": number, "cited_evidence": [string], '
               '"rationale": string}',
    "investigator": 'Respond with JSON only: {"event": string, '
                    '"kill_chain_phase": string, "leads": [{"graph_name": '
                    'string, "node_uuid": string, "reason": string}]}',
    "leader": 'Respond with JSON only: {"phase_coverage": {phase: '
              '[node_uuid]}, "hypotheses": [{"kind": "missing_stage"|'
              '"false_positive", "statement": string, "target_refs": '
              '[string]}], "false_positive_flags": [node_uuid], '
              '"terminate": bool}',
    "reporter": 'Respond with JSON only: {"campaign_summary": string, '
                '"remediation": [string]}',
}


@pytest.mark.parametrize("role", CONTRACT_LINES)
def test_each_prompt_ends_with_its_reply_contract(role):
    assert ROLE_PROMPTS[role].splitlines()[-1] == CONTRACT_LINES[role]


@pytest.mark.parametrize("role", sorted(FALLBACKS))
def test_each_fallback_passes_its_reply_contract_unchanged(role):
    fallback = json.dumps(FALLBACKS[role])
    assert json.dumps(validate_response(role, json.loads(fallback))) == fallback


LEAD = {"graph_name": "g", "node_uuid": "n", "reason": "r"}


@pytest.mark.parametrize("reply,echo", [
    ({"kill_chain_phase": "XX"}, 'field "kill_chain_phase" must be '
     + "|".join(f'"{code}"' for code in (*KILL_CHAIN_PHASES, UNASSIGNED))),
    *[({"leads": [LEAD, {**LEAD, field: ""}]},
       'field "leads" must be [{"graph_name": non-empty string, "node_uuid": '
       'non-empty string, "reason": non-empty string}]') for field in LEAD],
], ids=["phase", *[f"empty-{field}" for field in LEAD]])
def test_a_check_stricter_than_its_sketch_echoes_what_it_wants(reply, echo):
    """The prompt shows these fields as plain strings, so the repair echo
    names the phase codes, or that a lead's strings must not be empty."""
    with pytest.raises(LLMError) as raised:
        validate_response("investigator", {"event": "e", **reply})
    assert str(raised.value) == echo


def test_a_citation_that_is_not_a_string_takes_a_schema_retry():
    """An Analyst that cites ``[7, null]`` is asked again with an echo that
    names ``cited_evidence``, and its valid second reply is taken."""
    requests = []
    replies = [{"verdict": "ANOMALY", "confidence": 0.9,
                "cited_evidence": [7, None], "rationale": "r"},
               {"verdict": "ANOMALY", "confidence": 0.9,
                "cited_evidence": ["7"], "rationale": "r"}]

    def analyst(payload):
        requests.append(payload)
        return replies[len(requests) - 1]

    backend = RecordingLLM(handlers={"analyst": analyst})
    response, repo = invoke_once(backend, "analyst", {"node_uuid": "n"})
    assert response["cited_evidence"] == ["7"] and not fell_back(repo)
    retries = [e for e in repo.journal_entries
               if e["action"] == "llm_schema_retry"]
    assert len(retries) == 1 and len(requests) == 2
    assert requests[1]["previous_error"] == retries[0]["error"] \
        == 'field "cited_evidence" must be [string]'


# --- analyst ---------------------------------------------------------------------

def test_analyst_scripted_passthrough():
    graph = attack_graph()
    store = zero_store(graph)
    repo = InvestigationRepository("day1")
    backend = RecordingLLM(handlers={"analyst": lambda p: {
        "verdict": "BENIGN", "confidence": 0.9, "cited_evidence": [],
        "rationale": "fine"}})
    session = LLMSession(backend=backend, max_llm_calls=10, repo=repo)
    reply, edges = analyst_validate(graph.nodes["ben-1"], "why not", [],
                                    benign_kb(graph), store, session)
    assert reply["verdict"] == "BENIGN" and reply["confidence"] == 0.9
    assert edges == edge_digest(graph, "ben-1", 10)


def test_analyst_digest_is_cut_as_the_reference_digests_are():
    """With 30 leads per IOC, a node of 31 edges shows the Analyst as many
    digest lines as a stored benign digest holds, not 30."""
    events = [make_event(event_id=f"{uuid}{i}", subject_uuid=uuid,
                         object_uuid=f"{uuid}-f{i}", operation="WRITE",
                         timestamp=i, subject_attrs={"name": "editor"},
                         object_attrs={"path": f"/tmp/{uuid}{i}"})
              for uuid, count in (("hub", 31), ("peer", 25))
              for i in range(count)]
    graph = graph_from_events(events, name="day1")
    kb = BenignKnowledgeBase(epsilon=0.02, uuids=["peer"],
                             labels=["subject::editor"],
                             embeddings=np.zeros((1, 2)),
                             digests=[edge_digest(graph, "peer")])
    payloads = []
    run_investigation([make_alert("hub")], zero_store(graph), kb,
                      capturing_backend(payloads),
                      default_budget(max_leads_per_ioc=30))
    shown = payloads[0]
    assert shown["edges"] == edge_digest(graph, "hub", profiler.DIGEST_EDGE_LIMIT)
    assert len(shown["edges"]) \
        == len(shown["same_identity"][0]["edges"]) == profiler.DIGEST_EDGE_LIMIT


def test_analyst_benign_when_digest_matches_same_identity_member():
    graph = attack_graph()
    store = zero_store(graph)
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
    session = LLMSession(backend=RecordingLLM(handlers={"analyst": faithful}),
                         max_llm_calls=10, repo=repo)
    # ben-3 mirrors ben-1 exactly (same ops, timestamps, object identity)
    same, _ = analyst_validate(graph.nodes["ben-3"], "looks odd", [], kb,
                               store, session)
    assert same["verdict"] == "BENIGN"
    diverging, _ = analyst_validate(graph.nodes["att-a"], "alerted", [], kb,
                                    store, session)
    assert diverging["verdict"] == "ANOMALY"


def test_unknown_identity_lead_with_scripted_anomaly_creates_ioc():
    repo = run_chain(alerts=[make_alert("att-a")])
    assert repo.iocs["att-a"].status == "validated"
    assert repo.iocs["att-a"].origin == "alert"


# --- investigator ------------------------------------------------------------------

def make_validated_ioc(uuid, identity="subject::dropper"):
    return IOCRecord(node_uuid=uuid, identity=identity, status="validated",
                     confidence=0.9, event="seed event")


def test_investigator_returns_scripted_leads():
    graph = attack_graph()
    store = zero_store(graph)
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
    graph = manual_graph([("lonely", "subject", {"name": "x"}, "subject::x")],
                         [], name="day1")
    store = zero_store(graph)
    repo = InvestigationRepository("day1")
    backend = RecordingLLM(handlers={"investigator": lambda p: {
        "event": "quiet", "kill_chain_phase": "IR", "leads": []}})
    session = LLMSession(backend=backend, max_llm_calls=10, repo=repo)
    event, phase, leads = investigator_expand(
        make_validated_ioc("lonely", identity="subject::x"), store, session,
        max_leads=5)
    assert (event, phase, leads) == ("quiet", "IR", [])


def test_investigator_requires_validated_status():
    graph = attack_graph()
    store = zero_store(graph)
    repo = InvestigationRepository("day1")
    session = LLMSession(backend=scripted_chain_backend(), max_llm_calls=10,
                         repo=repo)
    ioc = make_validated_ioc("att-a")
    ioc.status = "candidate"
    with pytest.raises(ValueError):
        investigator_expand(ioc, store, session, max_leads=5)


def tiny_model():
    """Encoder parameters, a token vocabulary and an operation vocabulary
    that embed any graph into two dimensions; at seed 0 ReLU cuts no row of
    ``attack_graph`` to zero."""
    op_vocab = ("READ", "WRITE", "EXECUTE")
    width = EMPTY_VOCAB.dim + len(op_vocab) + TEMPORAL_DIM
    params = init_params([width, 3, 2], seed=0)
    return params, EMPTY_VOCAB, op_vocab


@pytest.mark.parametrize("count", [0, 2])
def test_graph_store_holds_exactly_one_graph(count):
    with pytest.raises(ValueError, match="one graph"):
        GraphStore.build([attack_graph()] * count, *tiny_model())


def test_graph_store_embeds_node_row_i_in_row_i():
    """The store's matrix is ``forward`` of the graph's feature matrix, bit
    for bit, and row i embeds node row i: a node's similar behavior in a KB
    of the store's own rows holds the node's row at distance 0."""
    graph = attack_graph()
    params, vocab, op_vocab = tiny_model()
    store = GraphStore.build([graph], params, vocab, op_vocab)
    uuids, h0 = feature_matrix(graph, vocab, op_vocab)
    expected = forward(graph, h0, params)
    assert store.graph is graph
    assert store.embeddings.shape == expected.shape == (len(uuids), 2)
    assert store.embeddings.dtype == expected.dtype
    assert store.embeddings.tobytes() == expected.tobytes()
    assert uuids == list(graph.nodes) == list(graph.incidence.row_of)
    kb = BenignKnowledgeBase(epsilon=0.02, uuids=uuids,
                             labels=["subject::x"] * len(uuids),
                             embeddings=store.embeddings,
                             digests=[[] for _ in uuids])
    assert len(np.unique(kb.embeddings, axis=0)) > 2  # rows tell nodes apart
    similar = similar_behavior(uuids, kb, store, len(uuids))
    for row, uuid in enumerate(uuids):
        assert (row, 0.0) in similar[uuid]


def test_lead_outside_the_graph_is_journaled_invalid():
    """A lead naming a uuid the graph does not hold, or another graph, is
    journaled with the graph it names, reaches no Analyst and is no IOC."""
    backend = scripted_chain_backend()
    leads = [{"graph_name": "day1", "node_uuid": "no-such-node",
              "reason": "unknown uuid"},
             {"graph_name": "day2", "node_uuid": "ben-1",
              "reason": "another graph"}]
    backend.handlers["investigator"] = lambda p: {
        "event": "drop", "kill_chain_phase": "IC", "leads": leads}
    repo = run_chain(backend=backend)
    invalid = [(e["node_uuid"], e["graph_name"]) for e in repo.journal_entries
               if e["action"] == "lead_invalid"]
    assert invalid == [("no-such-node", "day1"), ("ben-1", "day2")]
    analysed = [e["node_uuid"] for e in repo.journal_entries
                if e["action"] == "analyst_verdict"]
    assert analysed == ["att-a"]
    assert [role for role, _ in backend.calls].count("analyst") == 1
    assert set(repo.iocs) == {"att-a"}


def test_lead_already_validated_is_deduplicated():
    repo = run_chain()
    dedups = [e for e in repo.journal_entries
              if e["action"] == "lead_deduplicated"]
    assert dedups, "expanding the chain must re-surface known nodes"
    assert all(e["node_uuid"] in repo.iocs for e in dedups)


# --- leader ---------------------------------------------------------------------

def leader_session(repo, handler):
    return LLMSession(backend=RecordingLLM(handlers={"leader": handler}),
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


def _anomaly_on_alert(confidence, cited_evidence=(), seen=None):
    """An Analyst that answers ANOMALY at ``confidence`` for att-a and BENIGN
    otherwise, keeping the edges of every payload in ``seen``."""
    def analyst(payload):
        if seen is not None:
            seen[payload["node_uuid"]] = payload["edges"]
        if payload["node_uuid"] != "att-a":
            return {"verdict": "BENIGN", "confidence": 0.8,
                    "cited_evidence": [], "rationale": "benign"}
        return {"verdict": "ANOMALY", "confidence": confidence,
                "cited_evidence": list(cited_evidence), "rationale": "odd"}
    backend = scripted_chain_backend()
    backend.handlers["analyst"] = analyst
    return backend


def test_zero_confidence_anomaly_leaves_a_candidate_and_queues_nothing():
    backend = _anomaly_on_alert(0)
    repo = run_chain(backend=backend)
    assert repo.iocs["att-a"].status == "candidate"
    assert [e["node_uuid"] for e in repo.journal_entries
            if e["action"] == "ioc_rejected_zero_confidence"] == ["att-a"]
    assert [r for r, _ in backend.calls] == ["analyst"]
    assert repo.expansion_queue == []


def test_integer_confidence_is_journaled_and_stored_as_a_float():
    repo = run_chain(backend=_anomaly_on_alert(1))
    confidences = [e["confidence"] for e in repo.journal_entries
                   if e["action"] in ("analyst_verdict", "ioc_validated")
                   and e["node_uuid"] == "att-a"]
    assert confidences == [1.0, 1.0]
    assert all(type(c) is float for c in confidences)
    assert type(repo.iocs["att-a"].confidence) is float
    assert '"confidence": 1.0' in json.dumps(repo.to_dict())


def test_validated_ioc_evidence_is_the_analyst_digest_then_its_citations():
    seen = {}
    repo = run_chain(backend=_anomaly_on_alert(0.9, ["7", "cited line"], seen))
    assert seen["att-a"]
    assert repo.evidence["att-a"] == seen["att-a"] + ["7", "cited line"]


def test_journal_replay_is_deterministic():
    one = run_chain()
    two = run_chain()
    dump = lambda repo: "\n".join(json.dumps(e, sort_keys=True)
                                  for e in repo.journal_entries)
    assert dump(one) == dump(two)
    assert one.report_markdown == two.report_markdown


def test_reporter_prose_is_stored_as_given():
    backend = scripted_chain_backend()
    backend.handlers["reporter"] = lambda p: {"campaign_summary": "",
                                              "remediation": []}
    repo = run_chain(backend=backend)
    assert repo.campaign_summary == ""
    summary = repo.report_markdown.split("## Campaign Summary")[1] \
                                  .split("## Attack Narrative")[0]
    assert summary.strip() == ""


def test_budget_spent_before_reporter_keeps_fallback_summary():
    calls = run_chain().llm_calls_used  # the Reporter's call is the last
    repo = run_chain(budget=default_budget(max_llm_calls=calls - 1))
    assert repo.status == "complete" and not repo.budget_exhausted
    assert repo.campaign_summary == FALLBACK_SUMMARY
    assert repo.remediation == []
    assert FALLBACK_SUMMARY in repo.report_markdown


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
    expected_edges = {(ref, ioc.node_uuid) for ioc in repo.validated_iocs()
                      for ref in ioc.related_ioc_refs if ref in valid}
    assert expected_edges
    assert len(edge_lines) == len(expected_edges)


def test_attack_graph_dot_escapes_quotes_and_backslashes():
    """Uuids and identities may hold ``"`` and ``\\``: every quoted DOT
    string escapes both, and the label keeps its line break between identity
    and phase."""
    repo = InvestigationRepository("g")
    uuids = ['a"b', "c\\d"]
    for i, uuid in enumerate(uuids):
        repo.iocs[uuid] = IOCRecord(
            node_uuid=uuid, identity=f'file::x"{i}\\', kill_chain_phase="CC",
            status="validated", related_ioc_refs=uuids[:i])
    lines = repo.attack_graph_dot.splitlines()
    assert lines[2:] == ['  "a\\"b" [label="file::x\\"0\\\\\\nCC"];',
                         '  "c\\\\d" [label="file::x\\"1\\\\\\nCC"];',
                         '  "a\\"b" -> "c\\\\d" [label="expanded"];',
                         "}"]
    quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
    for line in lines[2:-1]:
        assert not set('"\\') & set(quoted.sub("", line))


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


def test_malformed_false_positive_flag_takes_a_schema_retry():
    """A flag that is not a uuid string is repaired like any other malformed
    field instead of ending the investigation."""
    backend = scripted_chain_backend()
    valid = backend.handlers["leader"]
    state = {"called": False}

    def leader(payload):
        if not state["called"]:
            state["called"] = True
            return {"phase_coverage": {}, "hypotheses": [],
                    "false_positive_flags": [["att-a"]], "terminate": False}
        return valid(payload)

    backend.handlers["leader"] = leader
    repo = run_chain(backend=backend)
    assert repo.status == "complete"
    retries = [e["role"] for e in repo.journal_entries
               if e["action"] == "llm_schema_retry"]
    assert retries == ["leader"]


FP_STATEMENT = "the launcher looks like normal tooling"


def false_positive_backend(target_refs=("att-c",)):
    """The chain backend whose Leader first opens a false-positive
    hypothesis on ``target_refs``, and whose Analyst re-checks them BENIGN."""
    backend = scripted_chain_backend()
    state = {"leader_calls": 0}

    def leader(payload):
        state["leader_calls"] += 1
        if state["leader_calls"] == 1:
            return {"phase_coverage": {}, "hypotheses": [
                {"kind": "false_positive", "statement": FP_STATEMENT,
                 "target_refs": list(target_refs)}],
                "false_positive_flags": [], "terminate": False}
        return {"phase_coverage": {}, "hypotheses": [],
                "false_positive_flags": [], "terminate": True}

    original_analyst = backend.handlers["analyst"]

    def analyst(payload):
        if payload["investigator_reason"] == FP_STATEMENT:
            return {"verdict": "BENIGN", "confidence": 0.8,
                    "cited_evidence": [], "rationale": "re-checked; benign"}
        return original_analyst(payload)

    backend.handlers["leader"] = leader
    backend.handlers["analyst"] = analyst
    return backend


def test_false_positive_hypothesis_revalidation_demotes():
    repo = run_chain(backend=false_positive_backend())
    assert repo.iocs["att-c"].status == "refuted"
    hypothesis = repo.hypotheses[0]
    assert hypothesis.kind == "false_positive"
    assert hypothesis.status == "confirmed"


MISSING_STATEMENT = "the payload is part of the chain after all"


def revalidating_backend():
    """The chain backend whose Leader first flags att-b a false positive and
    opens a missing-stage hypothesis on it."""
    backend = scripted_chain_backend()
    state = {"leader_calls": 0}

    def leader(payload):
        state["leader_calls"] += 1
        if state["leader_calls"] == 1:
            return {"phase_coverage": {}, "hypotheses": [
                {"kind": "missing_stage", "statement": MISSING_STATEMENT,
                 "target_refs": ["att-b"]}],
                "false_positive_flags": ["att-b"], "terminate": False}
        return {"phase_coverage": {}, "hypotheses": [],
                "false_positive_flags": [], "terminate": True}

    backend.handlers["leader"] = leader
    return backend


def test_revalidated_ioc_keeps_its_expansion_link():
    repo = run_chain(backend=revalidating_backend())
    assert any(e["action"] == "ioc_refuted" and e["node_uuid"] == "att-b"
               for e in repo.journal_entries)
    ioc = repo.iocs["att-b"]
    assert (ioc.status, ioc.origin) == ("validated", "hypothesis")
    assert ioc.related_ioc_refs == ["att-a"]
    assert '"att-a" -> "att-b"' in repo.attack_graph_dot
    assert repo.hypotheses[0].status == "confirmed"


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

    backend = RecordingLLM(handlers={
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
    store = zero_store(graph)
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
    store = zero_store(graph)
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
    # one call validates att-a, and the budget leaves ben-1 and att-c queued
    queued = {"alerts": [make_alert(u) for u in ("att-a", "ben-1", "att-c")],
              "budget": default_budget(max_llm_calls=1)}
    for name, kwargs in (("chain", {}), ("queued", queued),
                         ("hypotheses", {"backend": synthesising})):
        repo = run_chain(**kwargs)
        if name == "queued":
            assert [lead["node_uuid"] for lead in repo.pending_leads] \
                == ["ben-1", "att-c"]
        directory = tmp_path / name
        repo.save(directory)
        loaded = InvestigationRepository.load(directory)
        assert loaded == repo
        assert loaded.to_dict() == repo.to_dict()
        journal_file = (directory / "journal.jsonl").read_text().splitlines()
        assert len(journal_file) == len(repo.journal_entries)
        assert ([json.loads(line) for line in journal_file]
                == repo.journal_entries)
        stored = json.loads((directory / "repository.json").read_text())
        assert not {"journal", "journal_entries", "narrative",
                    "report_markdown", "attack_graph_dot"} & set(stored)
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
        self.reply = {"choices": [{"message": {"content": content}}]}
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
                return self.reply

        return Response()


def test_http_backend_chat_completion_contract():
    from provlens.investigation.llm import HttpChatLLM

    content = json.dumps({"verdict": "BENIGN", "confidence": 0.5,
                          "cited_evidence": [], "rationale": "r"})
    session = FakeHttpSession(content)
    backend = HttpChatLLM(endpoint="https://llm.example/v1", model="m-1",
                          api_key="sekrit", session=session)
    response, repo = invoke_once(backend, "analyst", {"node_uuid": "n"})
    assert not fell_back(repo) and response["verdict"] == "BENIGN"

    request = session.requests[0]
    assert request["url"] == "https://llm.example/v1/chat/completions"
    assert request["headers"]["Authorization"] == "Bearer sekrit"
    body = request["json"]
    assert body["model"] == "m-1"
    assert body["response_format"] == {"type": "json_object"}
    roles = [m["role"] for m in body["messages"]]
    assert roles == ["system", "user"]
    assert json.loads(body["messages"][1]["content"]) == {"node_uuid": "n"}


def test_http_backend_null_content_falls_back():
    """A reply whose message content is null is a schema failure: it is
    retried with the error echoed, then ends in the role's fallback."""
    from provlens.investigation.llm import HttpChatLLM

    session = FakeHttpSession(None)
    backend = HttpChatLLM(endpoint="https://llm.example/v1", model="m",
                          session=session)
    response, repo = invoke_once(backend, "analyst", {"node_uuid": "n"})
    assert fell_back(repo) and response == FALLBACKS["analyst"]
    retries = [e for e in repo.journal_entries
               if e["action"] == "llm_schema_retry"]
    assert len(retries) == len(session.requests) == MAX_ATTEMPTS
    assert repo.tokens_out == 0
    echoed = json.loads(session.requests[-1]["json"]["messages"][1]["content"])
    assert echoed["previous_response"] == ""
    assert "must be a string" in echoed["previous_error"]


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


def test_http_backend_wraps_a_body_nested_too_deep():
    """``requests``' decoder raises RecursionError, not ValueError, on a body
    nested past its depth; that is a transport failure too."""
    import requests
    from provlens.investigation.llm import HttpChatLLM

    class DeepSession:
        def post(self, *args, **kwargs):
            response = requests.Response()
            response.status_code, response._content = 200, b"[" * 200000
            return response

    backend = HttpChatLLM(endpoint="https://llm.example/v1", model="m",
                          session=DeepSession())
    with pytest.raises(LLMTransportError):
        backend.invoke("analyst", "sys", {"node_uuid": "n"})


@pytest.mark.parametrize("envelope", [
    {"choices": None}, "not an object", {"choices": [{"message": None}]},
    {"choices": []}], ids=["null-choices", "string", "null-message",
                           "no-choice"])
def test_http_backend_malformed_envelope_is_a_transport_error(envelope):
    """A reply without a message is the server's fault, not the model's: it
    raises LLMTransportError, which pauses a run instead of ending it."""
    from provlens.investigation.llm import HttpChatLLM

    session = FakeHttpSession(None)
    session.reply = envelope
    backend = HttpChatLLM(endpoint="https://llm.example/v1", model="m",
                          session=session)
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


# --- stage-1 retrieval in blocks ---------------------------------------------

FLOOD_BLOCK = 4


def flood(monkeypatch):
    """A store of 13 embedded nodes, a 50-row KB whose kNN blocks hold
    ``FLOOD_BLOCK`` queries, and 13 alerts: the first 11 nodes in order with
    an unknown uuid and a repeat among them, so three blocks. Every
    ``knn_query`` call's query count is kept in the returned list."""
    rng = np.random.default_rng(5)
    uuids = [f"n{i:02d}" for i in range(13)]
    graph = manual_graph([(u, "subject", {"name": "x"}, "subject::x")
                          for u in uuids], [], name="day1")
    store = GraphStore(graph, rng.normal(size=(len(uuids), 4)))
    members = [f"m{i:03d}" for i in range(50)]
    kb = BenignKnowledgeBase(epsilon=0.0, uuids=members,
                             labels=["subject::x"] * 50,
                             embeddings=rng.normal(size=(50, 4)),
                             digests=[[f"-> READ {m}"] for m in members])
    monkeypatch.setattr(profiler, "SCORE_BUDGET", FLOOD_BLOCK * 50)
    fetched = []
    knn = agents.knn_query

    def counted(kb, queries, k):
        fetched.append(len(queries))
        return knn(kb, queries, k)

    monkeypatch.setattr(agents, "knn_query", counted)
    alerts = [make_alert(u) for u in uuids[:11]]
    alerts[3:3] = [make_alert("ghost")]
    alerts[7:7] = [make_alert("n01")]
    return store, kb, alerts, fetched


def capturing_backend(payloads):
    """ANOMALY on n03, whose expansion leads to n12; BENIGN elsewhere. Each
    Analyst payload is kept in ``payloads``."""
    def analyst(payload):
        payloads.append(payload)
        if payload["node_uuid"] == "n03":
            return {"verdict": "ANOMALY", "confidence": 0.9,
                    "cited_evidence": [], "rationale": "odd"}
        return {"verdict": "BENIGN", "confidence": 0.8, "cited_evidence": [],
                "rationale": "benign"}

    def investigator(payload):
        leads = []
        if payload["node_uuid"] == "n03":
            leads = [{"graph_name": "day1", "node_uuid": "n12",
                      "reason": "contact"}]
        return {"event": "drop", "kill_chain_phase": "IC", "leads": leads}

    return RecordingLLM(handlers={
        "analyst": analyst, "investigator": investigator,
        "leader": lambda p: {"phase_coverage": {}, "hypotheses": [],
                             "false_positive_flags": [], "terminate": True},
        "reporter": lambda p: {"campaign_summary": "s", "remediation": []}})


def assert_one_node_fetches(payloads, store, kb, budget):
    """Each payload's similar behavior is that of a one-node fetch, rendered
    with digests cut at the budget's leads per IOC."""
    assert payloads
    limit = budget.max_leads_per_ioc
    for payload in payloads:
        uuid = payload["node_uuid"]
        one = similar_behavior([uuid], kb, store, 5)
        assert len(one[uuid]) == 5
        assert payload["similar_behavior"] == [
            {"node_uuid": kb.uuids[row], "identity": kb.labels[row],
             "distance": round(distance, 6),
             "edges": kb.digests[row][:limit]}
            for row, distance in one[uuid]]


def test_stage_one_fetches_pending_alerts_in_blocks(monkeypatch):
    store, kb, alerts, fetched = flood(monkeypatch)
    payloads = []
    budget = default_budget()
    repo = run_investigation(alerts, store, kb, capturing_backend(payloads),
                             budget)
    assert repo.status == "complete" and not repo.budget_exhausted
    # three blocks of the 11 pending alerts, then the lead on its own
    assert fetched == [4, 4, 3, 1]
    assert [p["node_uuid"] for p in payloads] \
        == [f"n{i:02d}" for i in range(11)] + ["n12"]
    assert repo.pending_leads == []
    fetched.clear()
    assert_one_node_fetches(payloads, store, kb, budget)


def test_budget_that_stops_stage_one_mid_block(monkeypatch):
    store, kb, alerts, fetched = flood(monkeypatch)
    payloads = []
    budget = default_budget(max_llm_calls=6)
    repo = run_investigation(alerts, store, kb, capturing_backend(payloads),
                             budget)
    assert repo.budget_exhausted
    assert [p["node_uuid"] for p in payloads] \
        == [f"n{i:02d}" for i in range(6)]
    assert fetched == [4, 4]  # the stop wastes the rest of one block
    assert_one_node_fetches(payloads, store, kb, budget)


class PausingBackend:
    """Fails transport on the Analyst request for ``node`` while ``down``,
    or only on the one given ``reason`` when that is named."""

    def __init__(self, inner, node, reason=None):
        self.inner, self.node, self.reason = inner, node, reason
        self.down = True

    def invoke(self, role, system_prompt, payload):
        if self.down and role == "analyst" \
                and payload["node_uuid"] == self.node \
                and self.reason in (None, payload["investigator_reason"]):
            raise LLMTransportError("backend unreachable")
        return self.inner.invoke(role, system_prompt, payload)


PAUSE_ACTIONS = {"llm_transport_retry", "llm_transport_failure",
                 "investigation_paused", "investigation_resumed"}


def unsequenced(repo, drop=frozenset()):
    """The journal without sequence numbers or the ``drop`` actions."""
    return [{k: v for k, v in e.items() if k != "seq"}
            for e in repo.journal_entries if e["action"] not in drop]


def resume_after_pause(tmp_path, backend, run):
    """``run(backend, repo)`` paused by ``backend``, a PausingBackend, then
    saved, loaded and resumed with the backend up."""
    paused = run(backend, None)
    assert paused.status == "paused"
    paused.save(tmp_path)
    backend.down = False
    resumed = run(backend, InvestigationRepository.load(tmp_path))
    assert resumed.status == "complete"
    return resumed


def test_pause_mid_block_resumes_to_the_uninterrupted_journal(monkeypatch,
                                                              tmp_path):
    store, kb, alerts, fetched = flood(monkeypatch)
    budget = default_budget()
    whole = run_investigation(alerts, store, kb,
                              capturing_backend([]), budget)
    payloads = []
    backend = PausingBackend(capturing_backend(payloads), node="n06")
    paused = run_investigation(alerts, store, kb, backend, budget)
    assert paused.status == "paused"
    assert [p["node_uuid"] for p in payloads] \
        == [f"n{i:02d}" for i in range(6)]
    paused.save(tmp_path)
    fetched.clear()
    backend.down = False
    resumed = run_investigation(alerts, store, kb, backend, budget,
                                repo=InvestigationRepository.load(tmp_path))
    assert resumed.status == "complete"
    # the five pending alerts from n06 on in two blocks, then the lead
    assert fetched == [4, 1, 1]
    assert [p["node_uuid"] for p in payloads] \
        == [f"n{i:02d}" for i in range(11)] + ["n12"]
    fetched.clear()
    assert_one_node_fetches(payloads, store, kb, budget)

    got, want = unsequenced(resumed), unsequenced(whole)
    first = next(i for i, e in enumerate(got)
                 if e["action"] == "llm_transport_retry")
    last = next(i for i, e in enumerate(got)
                if e["action"] == "investigation_resumed")
    # every alert was received when the run began; n06 is validated once
    assert [e["action"] for e in got[first:last + 1]] == [
        *["llm_transport_retry"] * MAX_ATTEMPTS,
        "llm_transport_failure", "investigation_paused",
        "investigation_resumed"]
    assert got[:first] + got[last + 1:] == want


def test_pause_at_a_lead_resumes_to_the_uninterrupted_iocs(monkeypatch,
                                                           tmp_path):
    """n12 is n03's lead; the pause at its Analyst call keeps it queued."""
    store, kb, alerts, _ = flood(monkeypatch)
    budget = default_budget()
    whole = run_investigation(alerts, store, kb, capturing_backend([]),
                              budget)
    assert "n12" in whole.iocs

    def run(backend, repo):
        return run_investigation(alerts, store, kb, backend, budget,
                                 repo=repo)

    resumed = resume_after_pause(
        tmp_path, PausingBackend(capturing_backend([]), node="n12"), run)
    assert resumed.iocs == whole.iocs
    assert unsequenced(resumed, PAUSE_ACTIONS) == unsequenced(whole)


def chain_run(backend, repo):
    return run_chain(backend=backend, repo=repo)


def test_pause_at_a_false_positive_recheck_resumes_to_its_demotion(tmp_path):
    whole = run_chain(backend=false_positive_backend())
    backend = PausingBackend(false_positive_backend(), node="att-c",
                             reason=FP_STATEMENT)
    resumed = resume_after_pause(tmp_path, backend, chain_run)
    assert resumed.iocs["att-c"].status == "refuted"
    assert resumed.iocs == whole.iocs
    assert resumed.hypotheses == whole.hypotheses
    assert unsequenced(resumed, PAUSE_ACTIONS) == unsequenced(whole)


def test_pause_at_a_missing_stage_target_resumes_to_its_validation(tmp_path):
    """att-b, demoted by the Leader's flag, waits as a hypothesis lead."""
    whole = run_chain(backend=revalidating_backend())
    backend = PausingBackend(revalidating_backend(), node="att-b",
                             reason=MISSING_STATEMENT)
    resumed = resume_after_pause(tmp_path, backend, chain_run)
    assert resumed.iocs["att-b"].status == "validated"
    assert resumed.iocs == whole.iocs
    assert resumed.hypotheses == whole.hypotheses
    assert unsequenced(resumed, PAUSE_ACTIONS) == unsequenced(whole)


def test_resumed_hypothesis_handles_no_more_targets(tmp_path):
    """A phase target names every validated IOC, of which a hypothesis
    handles two; a pause at the second one's re-check keeps it at two."""
    budget = default_budget(max_leads_per_ioc=2)

    def run(backend, repo):
        return run_chain(backend=backend, budget=budget, repo=repo)

    whole = run(false_positive_backend(["IC"]), None)
    assert whole.hypotheses[0].spawned_leads == ["att-a", "att-b"]
    backend = PausingBackend(false_positive_backend(["IC"]), node="att-b",
                             reason=FP_STATEMENT)
    resumed = resume_after_pause(tmp_path, backend, run)
    assert resumed.hypotheses == whole.hypotheses
    assert resumed.iocs == whole.iocs
    assert unsequenced(resumed, PAUSE_ACTIONS) == unsequenced(whole)
