"""Shared investigation state: IOC records, hypotheses, evidence, journal.

The repository is the single source of truth that keeps the agents aligned.
All mutations go through one writer and are recorded in an append-only journal
with monotonically increasing sequence numbers (no wall-clock timestamps, so
two identical runs journal byte for byte the same).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..artifacts import read_json, write_json, write_jsonl

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


@dataclass
class AgentVerdict:
    verdict: str  # ANOMALY or BENIGN
    confidence: float
    cited_evidence: list[str] = field(default_factory=list)
    rationale: str = ""


@dataclass
class IOCRecord:
    node_uuid: str
    graph_name: str
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


class InvestigationRepository:
    def __init__(self, graph_name: str = ""):
        self.graph_name = graph_name
        self.iocs: dict[str, IOCRecord] = {}
        self.hypotheses: list[Hypothesis] = []
        self.evidence: dict[str, list[str]] = {}
        self.relations: list[list[str]] = []  # [src_uuid, dst_uuid, label]
        self.journal_entries: list[dict] = []
        self.expansion_queue: list[str] = []
        self.processed_alerts: list[str] = []
        self.iteration = 0
        self.llm_calls_used = 0
        self.tokens_in = 0
        self.tokens_out = 0
        self.status = "new"
        self.budget_exhausted = False
        self.report_markdown = ""
        self.attack_graph_dot = ""

    # --- journal -------------------------------------------------------

    def journal(self, action: str, **details) -> None:
        self.journal_entries.append(
            {"seq": len(self.journal_entries), "action": action, **details})

    # --- IOC lifecycle ---------------------------------------------------

    def admit_ioc(self, record: IOCRecord, verdict: AgentVerdict) -> IOCRecord:
        """Admit a validated IOC. Only callable with an ANOMALY verdict of
        positive confidence; that gate is what keeps the IOC set trustworthy."""
        if verdict.verdict != "ANOMALY" or verdict.confidence <= 0.0:
            raise ValueError("IOC admission requires an ANOMALY verdict with "
                             "positive confidence")
        record.status = "validated"
        record.confidence = verdict.confidence
        if not record.event:
            record.event = verdict.rationale or "validated anomaly"
        self.iocs[record.node_uuid] = record
        self.journal("ioc_validated", node_uuid=record.node_uuid,
                     origin=record.origin, confidence=record.confidence)
        return record

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

    def add_relation(self, src: str, dst: str, label: str) -> None:
        entry = [src, dst, label]
        if entry not in self.relations:
            self.relations.append(entry)

    def add_evidence(self, node_uuid: str, lines: list[str]) -> None:
        bucket = self.evidence.setdefault(node_uuid, [])
        for line in lines:
            if line not in bucket:
                bucket.append(line)

    def open_hypotheses(self) -> list[Hypothesis]:
        return [h for h in self.hypotheses if h.status == "open"]

    def next_hypothesis_id(self) -> str:
        return f"H{len(self.hypotheses) + 1}"

    def narrative(self) -> dict[str, list[str]]:
        """Phase -> ordered validated IOC uuids."""
        mapping: dict[str, list[str]] = {}
        for ioc in self.validated_iocs():
            mapping.setdefault(ioc.kill_chain_phase, []).append(ioc.node_uuid)
        return mapping

    # --- persistence -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "graph_name": self.graph_name,
            "iocs": {u: asdict(r) for u, r in self.iocs.items()},
            "hypotheses": [asdict(h) for h in self.hypotheses],
            "evidence": self.evidence,
            "relations": self.relations,
            "narrative": self.narrative(),
            "journal": self.journal_entries,
            "expansion_queue": self.expansion_queue,
            "processed_alerts": self.processed_alerts,
            "iteration": self.iteration,
            "llm_calls_used": self.llm_calls_used,
            "tokens_in": self.tokens_in,
            "tokens_out": self.tokens_out,
            "status": self.status,
            "budget_exhausted": self.budget_exhausted,
            "report_markdown": self.report_markdown,
            "attack_graph_dot": self.attack_graph_dot,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InvestigationRepository":
        repo = cls(graph_name=data["graph_name"])
        repo.iocs = {u: IOCRecord(**r) for u, r in data["iocs"].items()}
        repo.hypotheses = [Hypothesis(**h) for h in data["hypotheses"]]
        repo.evidence = {u: list(v) for u, v in data["evidence"].items()}
        repo.relations = [list(r) for r in data["relations"]]
        repo.journal_entries = list(data["journal"])
        repo.expansion_queue = list(data["expansion_queue"])
        repo.processed_alerts = list(data["processed_alerts"])
        repo.iteration = data["iteration"]
        repo.llm_calls_used = data["llm_calls_used"]
        repo.tokens_in = data["tokens_in"]
        repo.tokens_out = data["tokens_out"]
        repo.status = data["status"]
        repo.budget_exhausted = data["budget_exhausted"]
        repo.report_markdown = data["report_markdown"]
        repo.attack_graph_dot = data["attack_graph_dot"]
        return repo

    def save(self, directory: str | Path) -> None:
        base = Path(directory)
        write_json(base / "repository.json", self.to_dict(), indent=2)
        write_jsonl(base / "journal.jsonl", self.journal_entries)

    @classmethod
    def load(cls, directory: str | Path) -> "InvestigationRepository":
        return cls.from_dict(read_json(Path(directory) / "repository.json"))
