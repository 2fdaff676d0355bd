"""Shared investigation state: IOC records, hypotheses, evidence, journal.

The repository is the single source of truth that keeps the agents aligned.
All mutations go through one writer, the orchestrator, whose Analyst gate
alone admits a validated IOC, and are recorded in an append-only journal
with monotonically increasing sequence numbers (no wall-clock timestamps, so
two identical runs journal byte for byte the same). It stores each fact once:
the report and the attack graph are rendered from the stored state, and the
journal is saved only to ``journal.jsonl``, whose length ``repository.json``
records; ``repository_paths`` names both and the seal that covers them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..artifacts import (check_seal, read_json, read_jsonl, record, seal,
                         write_json, write_jsonl)

KILL_CHAIN_PHASES = ("IC", "IR", "CC", "PE", "LM", "MP", "DE", "CT")
PHASE_NAMES = {
    "IC": "Initial Compromise",
    "IR": "Internal Reconnaissance",
    "CC": "Command & Control",
    "PE": "Privilege Escalation",
    "LM": "Lateral Movement",
    "MP": "Maintain Persistence",
    "DE": "Data Exfiltration",
    "CT": "Covering Tracks",
}
UNASSIGNED = "UNASSIGNED"
FALLBACK_SUMMARY = ("Validated indicators are listed below; no model-written "
                    "summary is available for this run.")


@dataclass
class IOCRecord:
    node_uuid: str
    identity: str
    kill_chain_phase: str = UNASSIGNED
    event: str = ""
    confidence: float = 0.0
    related_ioc_refs: list[str] = field(default_factory=list)
    origin: str = "alert"
    status: str = "candidate"


@dataclass
class Hypothesis:
    id: str
    kind: str  # missing_stage or false_positive
    statement: str
    target_refs: list[str] = field(default_factory=list)
    status: str = "open"
    spawned_leads: list[str] = field(default_factory=list)


@dataclass
class InvestigationRepository:
    graph_name: str = ""
    iocs: dict[str, IOCRecord] = field(default_factory=dict)
    hypotheses: list[Hypothesis] = field(default_factory=list)
    evidence: dict[str, list[str]] = field(default_factory=dict)
    journal_entries: list[dict] = field(default_factory=list)
    expansion_queue: list[str] = field(default_factory=list)
    # nodes waiting for the Analyst, in order; a lead's ``parent`` is the
    # IOC whose expansion named it
    pending_leads: list[dict] = field(default_factory=list)
    iteration: int = 0
    llm_calls_used: int = 0
    tokens_in: int = 0
    tokens_out: int = 0
    status: str = "new"
    budget_exhausted: bool = False
    campaign_summary: str = FALLBACK_SUMMARY  # the Reporter's prose
    remediation: list[str] = field(default_factory=list)

    @property
    def report_markdown(self) -> str:
        return render_report(self)

    @property
    def attack_graph_dot(self) -> str:
        return attack_graph_dot(self)

    # --- journal -------------------------------------------------------

    def journal(self, action: str, **details) -> None:
        self.journal_entries.append(
            {"seq": len(self.journal_entries), "action": action, **details})

    # --- IOC lifecycle ---------------------------------------------------

    def queue_lead(self, graph_name: str, node_uuid: str, reason: str,
                   origin: str, parent: str | None = None) -> None:
        """Append the node to ``pending_leads``."""
        self.pending_leads.append({"graph_name": graph_name,
                                   "node_uuid": node_uuid, "reason": reason,
                                   "origin": origin, "parent": parent})

    def demote_ioc(self, node_uuid: str, reason: str) -> None:
        ioc = self.iocs.get(node_uuid)
        if ioc is None or ioc.status != "validated":
            return
        ioc.status = "refuted"
        self.journal("ioc_refuted", node_uuid=node_uuid, reason=reason)

    def validated_iocs(self) -> list[IOCRecord]:
        return [self.iocs[u] for u in sorted(self.iocs)
                if self.iocs[u].status == "validated"]

    def refuted_iocs(self) -> list[IOCRecord]:
        return [self.iocs[u] for u in sorted(self.iocs)
                if self.iocs[u].status == "refuted"]

    def add_evidence(self, node_uuid: str, lines: list[str]) -> None:
        bucket = self.evidence.setdefault(node_uuid, [])
        for line in lines:
            if line not in bucket:
                bucket.append(line)

    def open_hypotheses(self) -> list[Hypothesis]:
        return [h for h in self.hypotheses if h.status == "open"]

    def narrative(self) -> dict[str, list[str]]:
        """Phase -> ordered validated IOC uuids."""
        mapping: dict[str, list[str]] = {}
        for ioc in self.validated_iocs():
            mapping.setdefault(ioc.kill_chain_phase, []).append(ioc.node_uuid)
        return mapping

    # --- persistence -----------------------------------------------------

    def to_dict(self) -> dict:
        """The stored state: everything but the journal, which
        ``journal.jsonl`` holds."""
        data = asdict(self)
        del data["journal_entries"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "InvestigationRepository":
        """The repository ``to_dict`` gave, still without its journal."""
        repo = record(cls)(dict(data, journal_entries=[]))
        repo.iocs = {u: record(IOCRecord)(r) for u, r in repo.iocs.items()}
        repo.hypotheses = list(map(record(Hypothesis), repo.hypotheses))
        return repo

    def save(self, directory: str | Path) -> None:
        paths = repository_paths(directory)
        seal(paths, {
            "repository": write_json(paths["repository"], self.to_dict(),
                                     indent=2),
            "journal": write_jsonl(paths["journal"], self.journal_entries)})

    @classmethod
    def load(cls, directory: str | Path) -> "InvestigationRepository":
        paths = repository_paths(directory)
        checked = check_seal(paths)
        repo = read_json(paths["repository"], checked["repository"],
                         cls.from_dict)
        repo.journal_entries = read_jsonl(paths["journal"], checked["journal"])
        return repo


def repository_paths(directory: str | Path) -> dict[str, Path]:
    base = Path(directory)
    return {"repository": base / "repository.json",
            "journal": base / "journal.jsonl",
            "seal": base / "repository.seal.json"}


# --- reporting ---------------------------------------------------------------

def _phase_order(phase: str) -> int:
    try:
        return KILL_CHAIN_PHASES.index(phase)
    except ValueError:
        return len(KILL_CHAIN_PHASES)


def _dot(text: str) -> str:
    """``text`` for a quoted DOT string: its backslashes and quotes escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def attack_graph_dot(repo: InvestigationRepository) -> str:
    """Directed attack graph: validated IOCs as nodes, and an edge from each
    validated IOC whose expansion led to another to that one. Plain DOT,
    renderable with graphviz."""
    validated = repo.validated_iocs()
    valid_ids = {ioc.node_uuid for ioc in validated}
    lines = ["digraph attack {", "  rankdir=LR;"]
    for ioc in validated:
        label = f"{_dot(ioc.identity)}\\n{_dot(ioc.kill_chain_phase)}"
        lines.append(f'  "{_dot(ioc.node_uuid)}" [label="{label}"];')
    edges = {(ref, ioc.node_uuid) for ioc in validated
             for ref in ioc.related_ioc_refs if ref in valid_ids}
    for src, dst in sorted(edges):
        lines.append(f'  "{_dot(src)}" -> "{_dot(dst)}" [label="expanded"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_report(repo: InvestigationRepository) -> str:
    """The Markdown report. Its sections, ordering and per-IOC lines come
    from the stored state; only the campaign summary and the remediation
    steps are the Reporter's prose."""
    validated = repo.validated_iocs()
    refuted = repo.refuted_iocs()
    lines = [f"# Incident Report: {repo.graph_name}", ""]
    if repo.budget_exhausted:
        lines += ["> **Note:** the investigation stopped on budget "
                  "exhaustion; open hypotheses were treated as false "
                  "positives.", ""]
    lines += [
        f"Validated IOCs: {len(validated)} | Dismissed: {len(refuted)} | "
        f"Hypotheses examined: {len(repo.hypotheses)} | "
        f"LLM calls: {repo.llm_calls_used}",
        "",
        "## Campaign Summary",
        "",
    ]
    if validated:
        lines += [repo.campaign_summary, ""]
    else:
        lines += ["No incident: no alert survived validation against benign "
                  "reference behavior.", ""]
    lines += ["## Attack Narrative", ""]
    if not validated:
        lines += ["(empty)", ""]
    else:
        ordered = sorted(validated,
                         key=lambda i: (_phase_order(i.kill_chain_phase),
                                        i.node_uuid))
        for ioc in ordered:
            phase = PHASE_NAMES.get(ioc.kill_chain_phase, ioc.kill_chain_phase)
            lines.append(f"- **{phase}** — `{ioc.node_uuid}` ({ioc.identity}): "
                         f"{ioc.event}")
        lines.append("")
    lines += ["## Indicator Details", ""]
    for ioc in validated:
        lines += [
            f"### {ioc.identity} [{ioc.node_uuid}]",
            "",
            f"- verdict: malicious (confidence {ioc.confidence:.2f}, "
            f"origin {ioc.origin})",
            f"- kill-chain phase: {ioc.kill_chain_phase}",
            f"- related indicators: "
            f"{', '.join(ioc.related_ioc_refs) if ioc.related_ioc_refs else 'none'}",
        ]
        for line in repo.evidence.get(ioc.node_uuid, [])[:10]:
            lines.append(f"  - evidence: {line}")
        lines.append("")
    lines += ["## Remediation", ""]
    if repo.remediation:
        lines += [f"- {step}" for step in repo.remediation]
    else:
        lines.append("- No remediation required.")
    lines.append("")
    if refuted:
        lines += ["## Appendix: Dismissed Findings", ""]
        for ioc in refuted:
            lines.append(f"- `{ioc.node_uuid}` ({ioc.identity}): dismissed "
                         f"as false positive")
        lines.append("")
    return "\n".join(lines)

