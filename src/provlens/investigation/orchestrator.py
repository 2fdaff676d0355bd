"""Hypothesis-driven orchestration over the four agents.

One persisted FIFO, the repository's ``pending_leads``, holds every node
waiting for the Analyst: the alerts, queued when the repository is created,
the Investigator's leads and the Leader's hypothesis targets. One loop
validates its head, or else has the Investigator expand the head of the
expansion queue, which an ANOMALY verdict joins. An entry leaves its queue
only once its work is journaled, so a paused run resumes to the same result.
The Leader's global synthesis sends accepted hypotheses' targets back through
that loop until it declares the chain coherent, no testable hypotheses
remain, or a budget runs out. The Reporter writes the campaign summary and
remediation; the report is rendered from the repository.

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
        # similar behavior fetched ahead for pending leads
        self.similar: dict[str, list[tuple[int, float]]] = {}

    def ask_analyst(self, node: Entity, reason: str,
                    origin: str) -> tuple[dict, list[str]]:
        """One journaled Analyst reply on ``node`` and the edge digest the
        Analyst was shown. A node's similar behavior is fetched with that of
        the next distinct pending leads in the store, one ``knn_query`` block
        in all, so a budget that runs out wastes at most one block's
        retrieval."""
        if node.uuid not in self.similar:
            block, size = {node.uuid: None}, knn_block_rows(self.kb)
            for lead in self.repo.pending_leads:
                if len(block) == size:
                    break
                if self.store.target(lead) is not None:
                    block[lead["node_uuid"]] = None
            self.similar.update(similar_behavior(
                list(block), self.kb, self.store, self.knn_k))
        reply, edges = analyst_validate(
            node, reason, self.similar.pop(node.uuid), self.kb, self.store,
            self.session, digest_limit=self.budget.max_leads_per_ioc)
        self.repo.journal("analyst_verdict", node_uuid=node.uuid,
                          origin=origin, verdict=reply["verdict"],
                          confidence=round(reply["confidence"], 6))
        return reply, edges

    def validate_lead(self, lead: dict) -> None:
        """The admission gate for one pending lead: an ANOMALY verdict of
        positive confidence admits a validated IOC, whose evidence is the
        edge digest the Analyst saw and then the evidence it cited; any other
        verdict records a dismissed candidate. A lead that names another
        graph or an unknown node is journaled and dropped."""
        repo = self.repo
        uuid, origin = lead["node_uuid"], lead["origin"]
        node = self.store.target(lead)
        if node is None:
            repo.journal("lead_invalid", node_uuid=uuid,
                         graph_name=lead["graph_name"])
            return
        reply, edges = self.ask_analyst(node, lead["reason"], origin)
        # a re-validated IOC keeps the links to the IOCs that led to it
        known = repo.iocs.get(uuid)
        record = IOCRecord(node_uuid=uuid, identity=node.identity,
                           origin=origin, confidence=reply["confidence"],
                           related_ioc_refs=list(known.related_ioc_refs)
                           if known else [])
        if reply["verdict"] == "ANOMALY" and record.confidence > 0.0:
            if lead["parent"] is not None:
                record.related_ioc_refs.append(lead["parent"])
            record.status = "validated"
            record.event = reply["rationale"] or "validated anomaly"
            repo.iocs[uuid] = record
            repo.journal("ioc_validated", node_uuid=uuid, origin=origin,
                         confidence=record.confidence)
            repo.add_evidence(uuid, edges + reply["cited_evidence"])
            repo.expansion_queue.append(uuid)
            return
        if reply["verdict"] == "ANOMALY":
            repo.journal("ioc_rejected_zero_confidence", node_uuid=uuid)
        repo.iocs.setdefault(uuid, record)

    def drain(self) -> None:
        """Validate the head pending lead, or else have the Investigator
        expand the head IOC and queue each lead it names that is new to the
        repository, until both queues are empty. An entry leaves its queue
        only after its work is journaled, so a paused run resumes at it."""
        repo = self.repo
        while repo.pending_leads or repo.expansion_queue:
            if repo.pending_leads:
                self.validate_lead(repo.pending_leads[0])
                repo.pending_leads.pop(0)
                continue
            uuid = repo.expansion_queue[0]
            ioc = repo.iocs[uuid]
            event, phase, leads = investigator_expand(
                ioc, self.store, self.session, self.budget.max_leads_per_ioc)
            if event:
                ioc.event = event
            if phase != UNASSIGNED:
                ioc.kill_chain_phase = phase
            repo.journal("ioc_expanded", node_uuid=uuid,
                         phase=ioc.kill_chain_phase,
                         leads=[lead["node_uuid"] for lead in leads])
            seen: set[str] = set()
            for lead in leads:
                target = lead["node_uuid"]
                if target == uuid or target in seen or target in repo.iocs:
                    repo.journal("lead_deduplicated", node_uuid=target)
                    continue
                seen.add(target)
                repo.queue_lead(lead["graph_name"], target, lead["reason"],
                                "lead", parent=uuid)
            repo.expansion_queue.pop(0)

    # --- synthesis --------------------------------------------------------

    def process_hypothesis(self, hyp: Hypothesis) -> None:
        """Send the hypothesis's targets through the Analyst or the
        Investigator. A false-positive hypothesis is confirmed by a demotion,
        a missing stage by a new validated IOC, journaled since its work
        began: after the last hypothesis entry, so also across a pause."""
        repo = self.repo
        start = max(i for i, entry in enumerate(repo.journal_entries)
                    if entry["action"] in ("hypothesis_opened",
                                           "hypothesis_resolved"))
        targets: list[str] = []
        for ref in hyp.target_refs:
            if ref in KILL_CHAIN_PHASES:
                targets.extend(i.node_uuid for i in repo.validated_iocs())
            else:
                targets.append(ref)
        targets = [t for t in dict.fromkeys(targets)
                   if t not in hyp.spawned_leads]
        # a target counts as spawned once handled, so a resumed hypothesis
        # handles what an uninterrupted one would, and no more
        for target in targets[:self.budget.max_leads_per_ioc
                              - len(hyp.spawned_leads)]:
            ioc = repo.iocs[target]
            if hyp.kind == "false_positive":
                if ioc.status == "validated":
                    reply, _ = self.ask_analyst(
                        self.store.graph.nodes[target], hyp.statement,
                        origin="hypothesis")
                    if reply["verdict"] == "BENIGN":
                        repo.demote_ioc(target, hyp.statement)
            # missing_stage: dig deeper around or re-validate targets
            elif ioc.status == "validated":
                repo.expansion_queue.append(target)
                repo.journal("ioc_reexpansion", node_uuid=target,
                             hypothesis=hyp.id)
            else:
                repo.queue_lead(self.store.graph.name, target, hyp.statement,
                                "hypothesis")
            hyp.spawned_leads.append(target)
        self.drain()
        sign = ("ioc_refuted" if hyp.kind == "false_positive"
                else "ioc_validated")
        confirmed = any(entry["action"] == sign
                        for entry in repo.journal_entries[start:])
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
                hyp = Hypothesis(id=f"H{len(repo.hypotheses) + 1}",
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

    def investigate(self) -> None:
        """Validation, expansion and synthesis; a budget that runs out stops
        them, flagged."""
        repo = self.repo
        try:
            self.drain()
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

    def run(self) -> InvestigationRepository:
        """The whole run; a failed LLM transport pauses it at any stage."""
        repo = self.repo
        try:
            # a run paused at the Reporter resumes to it
            if not any(entry["action"] == "investigation_terminated"
                       for entry in repo.journal_entries):
                self.investigate()
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
    over ``alerts``. A new repository takes the graph's name and queues each
    distinct alerted node once, in alert order; a resumed one takes its work
    from its queues, and ``alerts`` is not read.

    Returns the repository in status "complete", or "paused" when the LLM
    transport failed; a paused repository can be passed back in to resume,
    and a complete one comes back untouched.
    """
    if repo is None:
        repo = InvestigationRepository(graph_name=store.graph.name)
        repo.journal("investigation_started", alerts=len(alerts))
        queued = set()
        for alert in alerts:
            if alert.node_uuid not in queued:
                queued.add(alert.node_uuid)
                repo.journal("alert_received", node_uuid=alert.node_uuid,
                             violation=alert.violation,
                             score=round(alert.score, 6))
                repo.queue_lead(alert.graph_name, alert.node_uuid,
                                alert.explanation, "alert")
    elif repo.status == "complete":
        return repo
    else:
        repo.journal("investigation_resumed")
    repo.status = "running"
    orchestrator = _Orchestrator(store=store, kb=kb, backend=backend,
                                 budget=budget, knn_k=knn_k, repo=repo)
    return orchestrator.run()
