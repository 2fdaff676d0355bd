"""Hypothesis-driven orchestration over the four agents.

Stage 1 validates every alert through the Analyst; confirmed ones become
validated IOCs. Stage 2 drains a FIFO expansion queue: the Investigator
reconstructs each IOC's attack event and proposes leads, each of which must
again pass the Analyst before it can enter the queue. Stage 3 asks the Leader
for a global synthesis; accepted hypotheses spawn targeted leads back through
the stage-2 machinery until the Leader declares the chain coherent, no
testable hypotheses remain, or a budget runs out. Stage 4 asks the Reporter
for the campaign summary and remediation; the report is rendered from the
repository.

Every path that can grow the investigation is gated by the call budget, so
the loop terminates under any model behavior, including one that answers
ANOMALY to everything.
"""

from __future__ import annotations

import contextlib
import logging

from ..config import InvestigationBudget
from ..detector import Alert
from ..errors import LLMTransportError
from ..ingest import Entity
from ..profiler import BenignKnowledgeBase, knn_block_rows
from .agents import (
    analyst_validate,
    investigator_expand,
    leader_synthesize,
    reporter_compose,
    similar_behavior,
)
from .graphstore import GraphStore
from .llm import BudgetExhausted, LLMSession
from .repository import (
    FALLBACK_SUMMARY,
    KILL_CHAIN_PHASES,
    UNASSIGNED,
    Hypothesis,
    InvestigationRepository,
    IOCRecord,
)

log = logging.getLogger(__name__)


class _Orchestrator:
    def __init__(self, store: GraphStore, kb: BenignKnowledgeBase, backend,
                 budget: InvestigationBudget, knn_k: int,
                 repo: InvestigationRepository):
        self.store = store
        self.kb = kb
        self.budget = budget
        self.knn_k = knn_k
        self.repo = repo
        self.session = LLMSession(backend=backend,
                                  max_llm_calls=budget.max_llm_calls,
                                  repo=repo)
        # membership in the persisted ``processed_alerts`` list
        self.processed = set(repo.processed_alerts)
        # similar behavior fetched ahead for stage 1's pending alerts
        self.similar: dict[str, list[dict]] = {}

    # --- stage 1 and 2 building blocks ----------------------------------

    def fetch_similar(self, uuids: list[str]) -> dict[str, list[dict]]:
        return similar_behavior(uuids, self.kb, self.store, self.knn_k,
                                self.budget.max_leads_per_ioc)

    def ask_analyst(self, node: Entity, reason: str,
                    origin: str) -> tuple[dict, list[str]]:
        """One journaled Analyst reply on ``node``, its confidence made a
        float, and the edge digest the Analyst was shown. The node's similar
        behavior is the one fetched ahead for it, else fetched now."""
        similar = self.similar.pop(node.uuid, None)
        if similar is None:
            similar = self.fetch_similar([node.uuid])[node.uuid]
        reply, edges = analyst_validate(
            node, reason, similar, self.kb, self.store, self.session,
            digest_limit=self.budget.max_leads_per_ioc)
        reply["confidence"] = float(reply["confidence"])
        self.repo.journal("analyst_verdict", node_uuid=node.uuid,
                          origin=origin, verdict=reply["verdict"],
                          confidence=round(reply["confidence"], 6))
        return reply, edges

    def validate_lead(self, lead: dict, origin: str,
                      parent: str | None = None) -> None:
        """The admission gate for one alert or clue: an ANOMALY verdict of
        positive confidence admits a validated IOC, whose evidence is the
        edge digest the Analyst saw and then the evidence it cited; any other
        verdict records a dismissed candidate. A lead that names another
        graph or an unknown node is journaled and dropped."""
        repo = self.repo
        uuid = lead["node_uuid"]
        node = self.store.target(lead)
        if node is None:
            repo.journal("lead_invalid", node_uuid=uuid,
                         graph_name=lead["graph_name"])
            return
        reply, edges = self.ask_analyst(node, lead.get("reason", ""), origin)
        # a re-validated IOC keeps the links to the IOCs that led to it
        known = repo.iocs.get(uuid)
        record = IOCRecord(node_uuid=uuid, identity=node.identity,
                           origin=origin, confidence=reply["confidence"],
                           related_ioc_refs=list(known.related_ioc_refs)
                           if known else [])
        if reply["verdict"] == "ANOMALY" and record.confidence > 0.0:
            if parent is not None:
                record.related_ioc_refs.append(parent)
            record.status = "validated"
            record.event = str(reply["rationale"]) or "validated anomaly"
            repo.iocs[uuid] = record
            repo.journal("ioc_validated", node_uuid=uuid, origin=origin,
                         confidence=record.confidence)
            cited = [str(e) for e in reply["cited_evidence"]]
            repo.add_evidence(uuid, edges + cited)
            repo.expansion_queue.append(uuid)
            return
        if reply["verdict"] == "ANOMALY":
            repo.journal("ioc_rejected_zero_confidence", node_uuid=uuid)
        repo.iocs.setdefault(uuid, record)

    def drain_expansion_queue(self) -> None:
        repo = self.repo
        while repo.expansion_queue:
            uuid = repo.expansion_queue[0]
            ioc = repo.iocs.get(uuid)
            if ioc is None or ioc.status != "validated":
                repo.expansion_queue.pop(0)
                continue
            event, phase, leads = investigator_expand(
                ioc, self.store, self.session, self.budget.max_leads_per_ioc)
            if event:
                ioc.event = event
            if phase != UNASSIGNED:
                ioc.kill_chain_phase = phase
            repo.journal("ioc_expanded", node_uuid=uuid,
                         phase=ioc.kill_chain_phase,
                         leads=[lead["node_uuid"] for lead in leads])
            repo.expansion_queue.pop(0)
            seen: set[str] = set()
            for lead in leads:
                target = lead["node_uuid"]
                if target == uuid or target in seen or target in repo.iocs:
                    repo.journal("lead_deduplicated", node_uuid=target)
                    continue
                seen.add(target)
                self.validate_lead(lead, origin="lead", parent=uuid)

    # --- stage 3 ----------------------------------------------------------

    def process_hypothesis(self, hyp: Hypothesis) -> None:
        repo = self.repo
        validated_before = {i.node_uuid for i in repo.validated_iocs()}
        demoted = False
        targets: list[str] = []
        for ref in hyp.target_refs:
            if ref in KILL_CHAIN_PHASES:
                targets.extend(i.node_uuid for i in repo.validated_iocs())
            else:
                targets.append(ref)
        deduped = []
        for target in targets:
            if target not in deduped and target not in hyp.spawned_leads:
                deduped.append(target)
        for target in deduped[:self.budget.max_leads_per_ioc]:
            hyp.spawned_leads.append(target)
            ioc = repo.iocs.get(target)
            if ioc is None:
                continue
            if hyp.kind == "false_positive":
                if ioc.status != "validated":
                    continue
                reply, _ = self.ask_analyst(self.store.graph.nodes[target],
                                            hyp.statement, origin="hypothesis")
                if reply["verdict"] == "BENIGN":
                    repo.demote_ioc(target, hyp.statement)
                    demoted = True
            else:  # missing_stage: dig deeper around or re-validate targets
                if ioc.status == "validated":
                    repo.expansion_queue.append(target)
                    repo.journal("ioc_reexpansion", node_uuid=target,
                                 hypothesis=hyp.id)
                else:
                    self.validate_lead({"graph_name": self.store.graph.name,
                                        "node_uuid": target,
                                        "reason": hyp.statement},
                                       origin="hypothesis")
        self.drain_expansion_queue()
        validated_after = {i.node_uuid for i in repo.validated_iocs()}
        if hyp.kind == "false_positive":
            confirmed = demoted
        else:
            confirmed = bool(validated_after - validated_before)
        hyp.status = "confirmed" if confirmed else "refuted"
        repo.journal("hypothesis_resolved", id=hyp.id, status=hyp.status)

    def synthesis_loop(self) -> str:
        repo = self.repo
        for hyp in repo.open_hypotheses():  # resume interrupted iteration
            self.process_hypothesis(hyp)
        while repo.iteration < self.budget.max_iterations:
            # counted once answered, so a pause at the Leader resumes to it
            result = leader_synthesize(repo, self.session,
                                       self.budget.max_hypotheses)
            repo.iteration += 1
            repo.journal("leader_synthesis", iteration=repo.iteration,
                         phase_coverage=result["phase_coverage"],
                         hypotheses=len(result["hypotheses"]),
                         false_positive_flags=result["false_positive_flags"],
                         terminate=result["terminate"])
            for uuid in result["false_positive_flags"]:
                repo.demote_ioc(uuid, "flagged by leader synthesis")
            if result["terminate"]:
                return "coherent"
            opened = []
            for spec in result["hypotheses"]:
                hyp = Hypothesis(id=repo.next_hypothesis_id(),
                                 kind=spec["kind"],
                                 statement=spec["statement"],
                                 target_refs=spec["target_refs"])
                repo.hypotheses.append(hyp)
                repo.journal("hypothesis_opened", id=hyp.id, kind=hyp.kind,
                             statement=hyp.statement,
                             target_refs=hyp.target_refs)
                opened.append(hyp)
            if not opened:
                return "exhausted_hypotheses"
            for hyp in opened:
                self.process_hypothesis(hyp)
        return "max_iterations"

    # --- whole run ---------------------------------------------------------

    def validate_alerts(self, alerts: list[Alert]) -> None:
        """Stage 1: each alert not yet processed through the Analyst, in
        order. Before an alert whose similar behavior is not fetched yet,
        fetch it for the next block of pending alerts (those in the store
        and not yet processed) in one retrieval, so that a budget that stops
        the stage wastes at most one block."""
        repo = self.repo
        leads = [{"graph_name": alert.graph_name, "node_uuid": alert.node_uuid,
                  "reason": alert.explanation} for alert in alerts]
        pending = list(dict.fromkeys(
            lead["node_uuid"] for lead in leads
            if lead["node_uuid"] not in self.processed
            and self.store.target(lead) is not None))
        position = {uuid: i for i, uuid in enumerate(pending)}
        block = knn_block_rows(self.kb)
        for alert, lead in zip(alerts, leads):
            uuid = alert.node_uuid
            if uuid in self.processed:
                continue
            if uuid in position and uuid not in self.similar:
                start = position[uuid]
                self.similar.update(
                    self.fetch_similar(pending[start:start + block]))
            repo.journal("alert_received", node_uuid=uuid,
                         violation=alert.violation,
                         score=round(alert.score, 6))
            self.validate_lead(lead, origin="alert")
            repo.processed_alerts.append(uuid)
            self.processed.add(uuid)

    def investigate(self, alerts: list[Alert]) -> None:
        """Stages 1 to 3; a budget that runs out stops them, flagged."""
        repo = self.repo
        try:
            self.validate_alerts(alerts)
            self.drain_expansion_queue()
            if repo.validated_iocs():
                outcome = self.synthesis_loop()
            else:
                outcome = "no_validated_iocs"
            repo.journal("investigation_terminated", outcome=outcome)
            repo.budget_exhausted = outcome == "max_iterations"
        except BudgetExhausted as exc:
            repo.budget_exhausted = True
            repo.journal("llm_budget_exhausted", detail=str(exc))
            for hyp in repo.open_hypotheses():
                hyp.status = "refuted"
                repo.journal("hypothesis_resolved", id=hyp.id,
                             status="refuted", reason="budget exhausted")

    def run(self, alerts: list[Alert]) -> InvestigationRepository:
        """The whole run; a failed LLM transport pauses it at any stage."""
        repo = self.repo
        try:
            # a run paused at the Reporter resumes to it
            if not any(entry["action"] == "investigation_terminated"
                       for entry in repo.journal_entries):
                self.investigate(alerts)
            # Stage 4: the Reporter's prose. Without it (no validated IOC, or
            # the budget ran out) the report keeps the fallback summary.
            prose = FALLBACK_SUMMARY, []
            if repo.validated_iocs() and not repo.budget_exhausted:
                with contextlib.suppress(BudgetExhausted):
                    prose = reporter_compose(repo, self.session)
            repo.campaign_summary, repo.remediation = prose
            repo.status = "complete"
            repo.journal("report_composed",
                         validated=len(repo.validated_iocs()),
                         refuted=len(repo.refuted_iocs()))
        except LLMTransportError as exc:
            repo.status = "paused"
            repo.journal("investigation_paused", detail=str(exc))
            log.warning("investigation paused: %s", exc)
        return repo


def run_investigation(alerts: list[Alert], store: GraphStore,
                      kb: BenignKnowledgeBase, backend,
                      budget: InvestigationBudget, knn_k: int = 5,
                      repo: InvestigationRepository | None = None
                      ) -> InvestigationRepository:
    """Run (or resume) the full four-stage investigation of the store's graph
    over ``alerts``; a new repository takes the graph's name.

    Returns the repository in status "complete", or "paused" when the LLM
    transport failed; a paused repository can be passed back in to resume,
    and a complete one comes back untouched.
    """
    if repo is None:
        repo = InvestigationRepository(graph_name=store.graph.name)
        repo.journal("investigation_started", alerts=len(alerts))
    elif repo.status == "complete":
        return repo
    else:
        repo.journal("investigation_resumed")
    repo.status = "running"
    orchestrator = _Orchestrator(store=store, kb=kb, backend=backend,
                                 budget=budget, knn_k=knn_k, repo=repo)
    return orchestrator.run(alerts)
