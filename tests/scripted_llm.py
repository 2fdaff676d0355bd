"""A test double for the LLM backend: canned responses keyed on the role and
a canonical digest of the request payload, then the per-role handlers of the
library's ``ScriptedLLM``, with every call logged as (role, digest)."""

import hashlib
import json

from provlens.investigation.llm import ScriptedLLM


def canonical_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RecordingLLM(ScriptedLLM):
    """Responses resolve in order: an exact (role, payload digest) script
    entry, then the role's handler."""

    def __init__(self, responses: dict | None = None,
                 handlers: dict | None = None):
        super().__init__(handlers or {})
        self.responses = dict(responses or {})
        self.calls: list[tuple[str, str]] = []

    def script(self, role: str, payload: dict, response: dict) -> None:
        self.responses[(role, canonical_digest(payload))] = response

    def invoke(self, role: str, system_prompt: str, payload: dict) -> str:
        digest = canonical_digest(payload)
        self.calls.append((role, digest))
        if (role, digest) not in self.responses:
            return super().invoke(role, system_prompt, payload)
        response = self.responses[(role, digest)]
        return response if isinstance(response, str) else json.dumps(response)
