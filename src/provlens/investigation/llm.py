"""LLM access layer: reply contracts, role prompts, backends, call session.

Two interchangeable backends sit behind one interface: an HTTP chat-completion
client for live runs and a deterministic scripted mock whose per-role handler
functions answer from the request payload alone. ``REPLIES`` declares each
role's reply once; a reply that breaks it triggers a bounded number of repair
retries in which the previous error is echoed back to the model; persistent
failures fall back to the role's fail-closed default (never a fabricated
anomaly).
"""

from __future__ import annotations

import copy
import json
import re
from dataclasses import dataclass

from ..artifacts import decode
from ..errors import LLMError, LLMTransportError
from .repository import KILL_CHAIN_PHASES, UNASSIGNED

MAX_ATTEMPTS = 3


# --- reply contracts ----------------------------------------------------------

def _is_text(value) -> bool:
    return isinstance(value, str)


def _strings(value) -> bool:
    return isinstance(value, list) and all(map(_is_text, value))


def _one_of(*choices) -> tuple:
    return "|".join(map(json.dumps, choices)), choices.__contains__


def _object_line(fields: dict) -> str:
    """The JSON shape of an object of ``fields``, as the prompt shows it."""
    return "{" + ", ".join(f'"{name}": {spec[0]}'
                           for name, spec in fields.items()) + "}"


def _records(**fields) -> tuple:
    """A list of objects, each holding every one of ``fields``."""
    def check(value) -> bool:
        return isinstance(value, list) and all(
            isinstance(item, dict)
            and all(test(item.get(name)) for name, (_, test) in fields.items())
            for item in value)
    return f"[{_object_line(fields)}]", check


_NAME = ("string", lambda value: _is_text(value) and value != "")
_LEAD = dict.fromkeys(("graph_name", "node_uuid", "reason"), _NAME)
_PHASES = (*KILL_CHAIN_PHASES, UNASSIGNED)

# Each role's reply fields in prompt order, as name: (sketch, check,
# default). The sketch is the JSON shape the prompt shows and the repair echo
# names, and a value must pass the check. A field whose default is None is
# required, since no check passes None.
REPLIES = {
    "analyst": {
        "verdict": (*_one_of("ANOMALY", "BENIGN"), None),
        "confidence": ("number", lambda value: type(value) in (int, float)
                       and 0.0 <= value <= 1.0, None),
        "cited_evidence": ("[string]", _strings, []),
        "rationale": ("string", _is_text, ""),
    },
    "investigator": {
        "event": ("string", _is_text, None),
        "kill_chain_phase": ("string", _PHASES.__contains__, UNASSIGNED),
        "leads": (*_records(**_LEAD), []),
    },
    "leader": {
        "phase_coverage": ("{phase: [node_uuid]}",
                           lambda value: isinstance(value, dict), {}),
        "hypotheses": (*_records(kind=_one_of("missing_stage",
                                              "false_positive"),
                                 statement=("string", _is_text),
                                 target_refs=("[string]", _strings)), []),
        "false_positive_flags": ("[node_uuid]", _strings, []),
        "terminate": ("bool", lambda value: isinstance(value, bool), None),
    },
    "reporter": {
        "campaign_summary": ("string", _is_text, None),
        "remediation": ("[string]", _strings, []),
    },
}

_INSTRUCTIONS = {
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
    ),
    "reporter": (
        "You are the Reporter. From the structured investigation results, "
        "write a concise campaign summary for human security analysts and "
        "actionable remediation steps. Ground every claim in the supplied "
        "IOC data.\n"
    ),
}

# The shape the repair echo names for a field whose check is stricter than
# the sketch the prompt shows.
_ECHOES = {
    ("investigator", "kill_chain_phase"): _one_of(*_PHASES)[0],
    ("investigator", "leads"):
        f"[{_object_line(dict.fromkeys(_LEAD, ('non-empty string',)))}]",
}

ROLE_PROMPTS = {role: f"{text}Respond with JSON only: "
                      f"{_object_line(REPLIES[role])}"
                for role, text in _INSTRUCTIONS.items()}


def validate_response(role: str, obj) -> dict:
    """The reply ``obj`` of agent ``role`` as ``REPLIES`` declares it: each
    field in prompt order, an absent one as its default, and the Analyst's
    ``confidence`` as a float. Raises LLMError naming the first field that
    fails its check and the shape it must have, its sketch or its
    ``_ECHOES`` entry (used as the repair echo)."""
    if not isinstance(obj, dict):
        raise LLMError("response must be a JSON object")
    reply = {}
    for name, (sketch, check, default) in REPLIES[role].items():
        reply[name] = obj[name] if name in obj else copy.deepcopy(default)
        if not check(reply[name]):
            raise LLMError(f'field "{name}" must be '
                           f'{_ECHOES.get((role, name), sketch)}')
    if role == "analyst":
        reply["confidence"] = float(reply["confidence"])
    return reply


# each role's fail-closed required values, and the Analyst's reason
FALLBACKS = {role: validate_response(role, values) for role, values in {
    "analyst": {"verdict": "BENIGN", "confidence": 0.0,
                "rationale": "response unusable; failing closed"},
    "investigator": {"event": ""},
    "leader": {"terminate": False},
    "reporter": {"campaign_summary": "(campaign summary unavailable)"},
}.items()}


# --- backends ---------------------------------------------------------------

class ScriptedLLM:
    """Deterministic offline backend: each role's response is its handler
    function of the payload, so replaying a run reproduces it exactly."""

    def __init__(self, handlers: dict):
        self.handlers = dict(handlers)

    def invoke(self, role: str, system_prompt: str, payload: dict) -> str:
        if role not in self.handlers:
            raise LLMError(f"no scripted response for role {role!r}")
        response = self.handlers[role](payload)
        return response if isinstance(response, str) else json.dumps(response)


class HttpChatLLM:
    """Chat-completion client for OpenAI-compatible endpoints. It imports
    ``requests`` on first use, so that only ``--llm http`` pays for it."""

    def __init__(self, endpoint: str, model: str, api_key: str = "",
                 timeout_s: float = 60.0, session=None):
        import requests
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout_s = timeout_s
        self.session = session or requests.Session()

    def invoke(self, role: str, system_prompt: str, payload: dict) -> str:
        import requests
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
        except (requests.RequestException, KeyError, IndexError, TypeError,
                ValueError, RecursionError) as exc:  # a body nested too deep
            raise LLMTransportError(f"chat completion request failed: {exc}") from exc


# --- invocation with retries -------------------------------------------------

@dataclass
class LLMSession:
    """Budgeted, journaled access to one backend for a whole investigation."""

    backend: object
    max_llm_calls: int
    repo: object  # InvestigationRepository, which holds the call count

    def invoke(self, role: str, payload: dict) -> dict:
        """The role's validated response. Persistent schema failure yields the
        role's fail-closed fallback, journaled as ``llm_fallback``; a transport
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
            last_raw = raw if isinstance(raw, str) else ""
            self.repo.tokens_out += len(last_raw) // 4
            try:
                if not isinstance(raw, str):  # e.g. a null message content
                    raise LLMError("response content must be a string")
                return validate_response(role, decode(raw))
            except (ValueError, LLMError) as exc:
                self.repo.journal("llm_schema_retry", role=role, error=str(exc))
                request = dict(payload)
                request["previous_error"] = str(exc)
                request["previous_response"] = last_raw[:2000]
        if last_transport is not None:
            self.repo.journal("llm_transport_failure", role=role)
            raise last_transport
        self.repo.journal("llm_fallback", role=role, raw=last_raw[:2000])
        return copy.deepcopy(FALLBACKS[role])

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
