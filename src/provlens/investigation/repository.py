"""Shared investigation state: IOC records, hypotheses, evidence, journal.

The repository is the single source of truth that keeps the agents aligned.
All mutations go through one writer and are recorded in an append-only journal
with monotonically increasing sequence numbers (no wall-clock timestamps, so
two identical runs journal byte for byte the same).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..artifacts import read_json, record, write_json, write_jsonl

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


@dataclass
class InvestigationRepository:
    graph_name: str = ""
    iocs: dict[str, IOCRecord] = field(default_factory=dict)
    hypotheses: list[Hypothesis] = field(default_factory=list)
    evidence: dict[str, list[str]] = field(default_factory=dict)
    relations: list[list[str]] = field(default_factory=list)  # [src, dst, label]
    journal_entries: list[dict] = field(default_factory=list)
    expansion_queue: list[str] = field(default_factory=list)
    processed_alerts: list[str] = field(default_factory=list)
    iteration: int = 0
    llm_calls_used: int = 0
    tokens_in: int = 0
    tokens_out: int = 0
    status: str = "new"
    budget_exhausted: bool = False
    report_markdown: str = ""
    attack_graph_dot: str = ""

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
        data = asdict(self)
        data["journal"] = data.pop("journal_entries")
        data["narrative"] = self.narrative()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "InvestigationRepository":
        """The repository ``to_dict`` gave; a missing or unknown key raises."""
        data = dict(data)
        del data["narrative"]  # derived from the IOCs
        data["journal_entries"] = data.pop("journal")
        repo = record(cls)(data)
        ioc = record(IOCRecord)
        repo.iocs = {u: ioc(r) for u, r in repo.iocs.items()}
        repo.hypotheses = list(map(record(Hypothesis), repo.hypotheses))
        return repo

    def save(self, directory: str | Path) -> None:
        base = Path(directory)
        write_json(base / "repository.json", self.to_dict(), indent=2)
        write_jsonl(base / "journal.jsonl", self.journal_entries)

    @classmethod
    def load(cls, directory: str | Path) -> "InvestigationRepository":
        return read_json(Path(directory) / "repository.json", cls.from_dict)
