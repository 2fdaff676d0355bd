"""LLM access layer: role prompts, response schemas, backends, call session.

Two interchangeable backends sit behind one interface: an HTTP chat-completion
client for live runs and a deterministic scripted mock keyed on the role plus
a canonical digest of the request payload, which is what the offline test
suite drives. Schema violations trigger a bounded number of repair retries in
which the previous error is echoed back to the model; persistent failures fall
back to the role's fail-closed default (never a fabricated anomaly).
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import re
from dataclasses import dataclass

import requests

from ..errors import LLMError, LLMTransportError
from .repository import KILL_CHAIN_PHASES, UNASSIGNED

log = logging.getLogger(__name__)

MAX_ATTEMPTS = 3

ROLE_PROMPTS = {
    "analyst": (
        "You are the security Analyst, the validation gatekeeper of the "
        "investigation. The input describes exactly one suspicious node "
        "together with trusted reference context: the most behaviorally "
        "similar benign nodes and benign peers that share the node's "
        "identity. Decide whether the node is ANOMALY or BENIGN.\n"
        "Rules:\n"
        "1. Compare against both reference sets. Differing from a similar "
        "node is not by itself anomalous; flag ANOMALY only when the "
        "divergent behavior is itself suspicious.\n"
        "2. The provided reason is a hint from another agent; stay "
        "objective.\n"
        "3. Cite concrete neighbor edges, operations, or temporal behavior "
        "in cited_evidence.\n"
        "4. Always include a confidence between 0 and 1, even for BENIGN.\n"
        'Respond with JSON only: {"verdict": "ANOMALY"|"BENIGN", '
        '"confidence": number, "cited_evidence": [string], '
        '"rationale": string}'
    ),
    "investigator": (
        "You are the Investigator performing event-level forensics on one "
        "confirmed indicator of compromise. Using its neighborhood edges in "
        "temporal order, reconstruct the concrete malicious action as a "
        "short `event` narrative, assign the matching kill-chain phase code, "
        "and propose follow-up clues worth validating. Every clue must "
        "carry graph_name, node_uuid and reason so the Analyst can query "
        "the right graph; describe only why the clue looks risky.\n"
        f"Phase codes: {', '.join(KILL_CHAIN_PHASES)} or {UNASSIGNED}.\n"
        'Respond with JSON only: {"event": string, "kill_chain_phase": '
        'string, "leads": [{"graph_name": string, "node_uuid": string, '
        '"reason": string}]}'
    ),
    "leader": (
        "You are the Leader coordinating the investigation of a single "
        "graph window. Read the IOC table, connect the indicators into one "
        "attack story using each IOC's event description and related "
        "references, and judge the campaign from the attacker's "
        "perspective.\n"
        "Tasks:\n"
        "1. Map each validated IOC onto the kill-chain phases and report "
        "which phases are covered.\n"
        "2. Where the chain has gaps, state missing_stage hypotheses; where "
        "an IOC cannot fit any plausible chain, state false_positive "
        "hypotheses. Hypothesis targets must reference listed node_uuid "
        "values or phase codes.\n"
        "3. List IOCs to drop outright in false_positive_flags.\n"
        "4. Set terminate to true once the chain is coherent or nothing "
        "testable remains.\n"
        'Respond with JSON only: {"phase_coverage": {phase: [node_uuid]}, '
        '"hypotheses": [{"kind": "missing_stage"|"false_positive", '
        '"statement": string, "target_refs": [string]}], '
        '"false_positive_flags": [node_uuid], "terminate": bool}'
    ),
    "reporter": (
        "You are the Reporter. From the structured investigation results, "
        "write a concise campaign summary for human security analysts and "
        "actionable remediation steps. Ground every claim in the supplied "
        "IOC data.\n"
        'Respond with JSON only: {"campaign_summary": string, '
        '"remediation": [string]}'
    ),
}

FALLBACKS = {
    "analyst": {"verdict": "BENIGN", "confidence": 0.0, "cited_evidence": [],
                "rationale": "response unusable; failing closed"},
    "investigator": {"event": "", "kill_chain_phase": UNASSIGNED, "leads": []},
    "leader": {"phase_coverage": {}, "hypotheses": [],
               "false_positive_flags": [], "terminate": False},
    "reporter": {"campaign_summary": "(campaign summary unavailable)",
                 "remediation": []},
}


def canonical_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --- schema validation ------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise LLMError(message)


def validate_response(role: str, obj) -> dict:
    """Check the minimal structural contract of a role response; raises
    LLMError describing the violation (used as the repair echo)."""
    _require(isinstance(obj, dict), "response must be a JSON object")
    if role == "analyst":
        _require(obj.get("verdict") in ("ANOMALY", "BENIGN"),
                 'field "verdict" must be "ANOMALY" or "BENIGN"')
        conf = obj.get("confidence")
        _require(isinstance(conf, (int, float)) and 0.0 <= conf <= 1.0,
                 'field "confidence" must be a number in [0, 1]')
        _require(isinstance(obj.get("cited_evidence", []), list),
                 'field "cited_evidence" must be a list')
        obj.setdefault("cited_evidence", [])
        obj.setdefault("rationale", "")
    elif role == "investigator":
        _require(isinstance(obj.get("event"), str), 'field "event" must be a string')
        phase = obj.get("kill_chain_phase", UNASSIGNED)
        _require(phase in KILL_CHAIN_PHASES + (UNASSIGNED,),
                 f'field "kill_chain_phase" must be one of '
                 f'{KILL_CHAIN_PHASES + (UNASSIGNED,)}')
        leads = obj.get("leads", [])
        _require(isinstance(leads, list), 'field "leads" must be a list')
        for lead in leads:
            _require(isinstance(lead, dict)
                     and all(isinstance(lead.get(k), str) and lead.get(k)
                             for k in ("graph_name", "node_uuid", "reason")),
                     'every lead needs string fields "graph_name", '
                     '"node_uuid" and "reason"')
        obj.setdefault("kill_chain_phase", UNASSIGNED)
        obj.setdefault("leads", [])
    elif role == "leader":
        _require(isinstance(obj.get("terminate"), bool),
                 'field "terminate" must be a boolean')
        coverage = obj.get("phase_coverage", {})
        _require(isinstance(coverage, dict), 'field "phase_coverage" must be an object')
        hypotheses = obj.get("hypotheses", [])
        _require(isinstance(hypotheses, list), 'field "hypotheses" must be a list')
        for hyp in hypotheses:
            _require(isinstance(hyp, dict)
                     and hyp.get("kind") in ("missing_stage", "false_positive")
                     and isinstance(hyp.get("statement"), str)
                     and isinstance(hyp.get("target_refs"), list),
                     'every hypothesis needs "kind" in '
                     '{missing_stage,false_positive}, a "statement" string '
                     'and a "target_refs" list')
        flags = obj.get("false_positive_flags", [])
        _require(isinstance(flags, list),
                 'field "false_positive_flags" must be a list')
        obj.setdefault("phase_coverage", {})
        obj.setdefault("hypotheses", [])
        obj.setdefault("false_positive_flags", [])
    elif role == "reporter":
        _require(isinstance(obj.get("campaign_summary"), str),
                 'field "campaign_summary" must be a string')
        remediation = obj.get("remediation", [])
        _require(isinstance(remediation, list),
                 'field "remediation" must be a list')
        obj.setdefault("remediation", [])
    else:
        raise LLMError(f"unknown agent role {role!r}")
    return obj


# --- backends ---------------------------------------------------------------

class ScriptedLLM:
    """Deterministic offline backend.

    Responses resolve in order: an exact (role, payload digest) script entry,
    then a per-role handler function of the payload. Everything is a pure
    function of the request, so replaying a run reproduces it exactly.
    """

    def __init__(self, responses: dict | None = None,
                 handlers: dict | None = None):
        self.responses = dict(responses or {})
        self.handlers = dict(handlers or {})
        self.calls: list[tuple[str, str]] = []

    def script(self, role: str, payload: dict, response: dict) -> None:
        self.responses[(role, canonical_digest(payload))] = response

    def invoke(self, role: str, system_prompt: str, payload: dict) -> str:
        digest = canonical_digest(payload)
        self.calls.append((role, digest))
        if (role, digest) in self.responses:
            response = self.responses[(role, digest)]
        elif role in self.handlers:
            response = self.handlers[role](payload)
        else:
            raise LLMError(f"no scripted response for role {role!r} "
                           f"digest {digest[:12]}")
        return response if isinstance(response, str) else json.dumps(response)


class HttpChatLLM:
    """Chat-completion client for OpenAI-compatible endpoints."""

    def __init__(self, endpoint: str, model: str, api_key: str = "",
                 timeout_s: float = 60.0, session=None):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout_s = timeout_s
        self.session = session or requests.Session()

    def invoke(self, role: str, system_prompt: str, payload: dict) -> str:
        body = {
            "model": self.model,
            "temperature": 0,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": json.dumps(payload, sort_keys=True)},
            ],
            "response_format": {"type": "json_object"},
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = self.session.post(f"{self.endpoint}/chat/completions",
                                     json=body, headers=headers,
                                     timeout=self.timeout_s)
            resp.raise_for_status()
            data = resp.json()
            return data["choices"][0]["message"]["content"]
        except (requests.RequestException, KeyError, IndexError,
                ValueError) as exc:
            raise LLMTransportError(f"chat completion request failed: {exc}") from exc


# --- invocation with retries -------------------------------------------------

@dataclass
class LLMSession:
    """Budgeted, journaled access to one backend for a whole investigation."""

    backend: object
    max_llm_calls: int
    repo: object  # InvestigationRepository, which holds the call count

    def invoke(self, role: str, payload: dict) -> tuple[dict, bool]:
        """Returns (response, valid). Persistent schema failure yields the
        role's fail-closed fallback with valid=False (journaled); a transport
        failure that survives all retries propagates so the investigation can
        pause with resumable state."""
        request = dict(payload)
        last_raw = ""
        last_transport: LLMTransportError | None = None
        for _ in range(MAX_ATTEMPTS):
            self._charge(request)
            try:
                raw = self.backend.invoke(role, ROLE_PROMPTS[role], request)
            except LLMTransportError as exc:
                last_transport = exc
                self.repo.journal("llm_transport_retry", role=role,
                                  error=str(exc))
                continue
            last_transport = None
            self.repo.tokens_out += len(raw) // 4
            last_raw = raw
            try:
                return validate_response(role, json.loads(raw)), True
            except (json.JSONDecodeError, LLMError) as exc:
                self.repo.journal("llm_schema_retry", role=role, error=str(exc))
                request = dict(payload)
                request["previous_error"] = str(exc)
                request["previous_response"] = raw[:2000]
        if last_transport is not None:
            self.repo.journal("llm_transport_failure", role=role)
            raise last_transport
        self.repo.journal("llm_fallback", role=role, raw=last_raw[:2000])
        return copy.deepcopy(FALLBACKS[role]), False

    def _charge(self, request: dict) -> None:
        if self.repo.llm_calls_used >= self.max_llm_calls:
            raise BudgetExhausted(
                f"llm call budget of {self.max_llm_calls} exhausted")
        self.repo.llm_calls_used += 1
        self.repo.tokens_in += len(json.dumps(request)) // 4


class BudgetExhausted(Exception):
    """Investigation budget ran out; a normal, flagged termination path."""


# --- offline heuristic mock ---------------------------------------------------

_DECLARED_RE = re.compile(r"declared (\S+) behaves like (\S+),")


def _mock_analyst(payload: dict) -> dict:
    reason = payload.get("investigator_reason", "")
    edges = payload.get("edges", [])
    match = _DECLARED_RE.search(reason)
    mismatch = match is not None and match.group(1) != match.group(2)
    if mismatch or "no benign profile" in reason:
        return {"verdict": "ANOMALY", "confidence": 0.9,
                "cited_evidence": edges[:3],
                "rationale": f"{payload.get('identity', '?')} diverges from "
                             "its benign reference behavior"}
    return {"verdict": "BENIGN", "confidence": 0.7,
            "cited_evidence": edges[:2],
            "rationale": "behavior is reconcilable with benign references"}


_MOCK_PHASE_RULES = (
    ({"CONNECT", "SEND", "RECV"}, "CC"),
    ({"FORK", "EXECUTE", "CLONE"}, "PE"),
    ({"WRITE", "MODIFY"}, "MP"),
    ({"READ", "OPEN", "CLOSE"}, "IR"),
)


def _mock_investigator(payload: dict) -> dict:
    neighborhood = payload.get("neighborhood", [])
    ops = sorted({entry["operation"] for entry in neighborhood})
    phase = UNASSIGNED
    for op_set, candidate in _MOCK_PHASE_RULES:
        if op_set & set(ops):
            phase = candidate
            break
    targets = sorted({entry["identity"] for entry in neighborhood})[:3]
    event = (f"{payload.get('identity', '?')} performed "
             f"{'/'.join(ops) if ops else 'no'} operations"
             + (f" against {', '.join(targets)}" if targets else ""))
    return {"event": event, "kill_chain_phase": phase, "leads": []}


def _mock_leader(payload: dict) -> dict:
    coverage: dict[str, list[str]] = {}
    for row in payload.get("ioc_table", []):
        if row["status"] == "validated":
            coverage.setdefault(row["kill_chain_phase"], []).append(
                row["node_uuid"])
    return {"phase_coverage": coverage, "hypotheses": [],
            "false_positive_flags": [], "terminate": True}


def _mock_reporter(payload: dict) -> dict:
    iocs = payload.get("iocs", [])
    identities = sorted({ioc["identity"] for ioc in iocs})
    summary = (f"{len(iocs)} validated indicator(s) involving "
               f"{', '.join(identities)}; see the narrative for the "
               "per-phase breakdown.")
    return {"campaign_summary": summary,
            "remediation": ["Isolate the affected hosts.",
                            "Rotate credentials reachable from the listed "
                            "entities.",
                            "Re-image or audit the flagged processes and "
                            "files."]}


def heuristic_mock() -> ScriptedLLM:
    """Deterministic offline backend with conservative triage rules: alerts
    from the detector are trusted, everything else fails closed to BENIGN."""
    return ScriptedLLM(handlers={
        "analyst": _mock_analyst,
        "investigator": _mock_investigator,
        "leader": _mock_leader,
        "reporter": _mock_reporter,
    })
