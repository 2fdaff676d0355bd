"""Hypothesis-driven orchestration over the four agents.

Stage 1 validates every alert through the Analyst; confirmed ones become
validated IOCs. Stage 2 drains a FIFO expansion queue: the Investigator
reconstructs each IOC's attack event and proposes leads, each of which must
again pass the Analyst before it can enter the queue. Stage 3 asks the Leader
for a global synthesis; accepted hypotheses spawn targeted leads back through
the stage-2 machinery until the Leader declares the chain coherent, no
testable hypotheses remain, or a budget runs out. Stage 4 renders the report.

Every path that can grow the investigation is gated by the call budget, so
the loop terminates under any model behavior, including one that answers
ANOMALY to everything.
"""

from __future__ import annotations

import logging

from ..config import InvestigationBudget
from ..detector import Alert
from ..errors import LLMTransportError
from ..profiler import BenignKnowledgeBase
from .agents import (
    analyst_validate,
    investigator_expand,
    leader_synthesize,
    reporter_compose,
)
from .graphstore import GraphStore
from .llm import BudgetExhausted, LLMSession
from .repository import (
    KILL_CHAIN_PHASES,
    UNASSIGNED,
    AgentVerdict,
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

    # --- stage 1 and 2 building blocks ----------------------------------

    def ask_analyst(self, lead: dict, origin: str) -> AgentVerdict:
        """One journaled Analyst verdict on ``lead``."""
        verdict = analyst_validate(lead, self.kb, self.store, self.session,
                                   knn_k=self.knn_k,
                                   digest_limit=self.budget.max_leads_per_ioc)
        self.repo.journal("analyst_verdict", node_uuid=lead["node_uuid"],
                          origin=origin, verdict=verdict.verdict,
                          confidence=round(verdict.confidence, 6))
        return verdict

    def validate_lead(self, lead: dict, origin: str,
                      parent: str | None = None) -> bool:
        """Analyst gate for one alert or clue; admits a validated IOC on an
        ANOMALY verdict, records a dismissed candidate otherwise."""
        repo = self.repo
        uuid = lead["node_uuid"]
        node = self.store.get_node(lead["graph_name"], uuid)
        if node is None:
            repo.journal("lead_invalid", node_uuid=uuid,
                         graph_name=lead["graph_name"])
            return False
        verdict = self.ask_analyst(lead, origin)
        record = IOCRecord(node_uuid=uuid, graph_name=lead["graph_name"],
                           identity=node.identity, origin=origin,
                           confidence=verdict.confidence)
        if verdict.verdict == "ANOMALY" and verdict.confidence > 0.0:
            if parent is not None:
                record.related_ioc_refs.append(parent)
            repo.admit_ioc(record, verdict)
            repo.add_evidence(uuid, self.store.node_digest(
                lead["graph_name"], uuid, self.budget.max_leads_per_ioc))
            repo.add_evidence(uuid, [str(e) for e in verdict.cited_evidence])
            if parent is not None:
                repo.add_relation(parent, uuid, "expanded")
            repo.expansion_queue.append(uuid)
            return True
        if verdict.verdict == "ANOMALY":
            repo.journal("ioc_rejected_zero_confidence", node_uuid=uuid)
        record.status = "candidate"
        repo.iocs.setdefault(uuid, record)
        return False

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
            lead = {"graph_name": ioc.graph_name, "node_uuid": target,
                    "reason": hyp.statement}
            if hyp.kind == "false_positive":
                if ioc.status != "validated":
                    continue
                verdict = self.ask_analyst(lead, origin="hypothesis")
                if verdict.verdict == "BENIGN":
                    repo.demote_ioc(target, hyp.statement)
                    demoted = True
            else:  # missing_stage: dig deeper around or re-validate targets
                if ioc.status == "validated":
                    repo.expansion_queue.append(target)
                    repo.journal("ioc_reexpansion", node_uuid=target,
                                 hypothesis=hyp.id)
                else:
                    self.validate_lead(lead, origin="hypothesis")
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
            repo.iteration += 1
            result = leader_synthesize(repo, self.session,
                                       self.budget.max_hypotheses)
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

    def run(self, alerts: list[Alert]) -> InvestigationRepository:
        repo = self.repo
        try:
            for alert in alerts:
                if alert.node_uuid in repo.processed_alerts:
                    continue
                lead = {"graph_name": alert.graph_name,
                        "node_uuid": alert.node_uuid,
                        "reason": alert.explanation}
                repo.journal("alert_received", node_uuid=alert.node_uuid,
                             violation=alert.violation,
                             score=round(alert.score, 6))
                self.validate_lead(lead, origin="alert")
                repo.processed_alerts.append(alert.node_uuid)
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
        except LLMTransportError as exc:
            repo.status = "paused"
            repo.journal("investigation_paused", detail=str(exc))
            log.warning("investigation paused: %s", exc)
            return repo

        try:
            session = None if repo.budget_exhausted else self.session
            markdown, dot = reporter_compose(repo, session)
        except BudgetExhausted:
            markdown, dot = reporter_compose(repo, None)
        except LLMTransportError as exc:
            repo.status = "paused"
            repo.journal("investigation_paused", detail=str(exc))
            return repo
        repo.report_markdown = markdown
        repo.attack_graph_dot = dot
        repo.status = "complete"
        repo.journal("report_composed",
                     validated=len(repo.validated_iocs()),
                     refuted=len(repo.refuted_iocs()))
        return repo


def run_investigation(alerts: list[Alert], store: GraphStore,
                      kb: BenignKnowledgeBase, backend,
                      budget: InvestigationBudget, knn_k: int = 5,
                      repo: InvestigationRepository | None = None
                      ) -> InvestigationRepository:
    """Run (or resume) the full four-stage investigation over ``alerts``.

    Returns the repository in status "complete", or "paused" when the LLM
    transport failed; a paused repository can be passed back in to resume.
    """
    if repo is None:
        if alerts:
            graph_name = alerts[0].graph_name
        elif store.graphs:
            graph_name = sorted(store.graphs)[0]
        else:
            graph_name = ""
        repo = InvestigationRepository(graph_name=graph_name)
        repo.journal("investigation_started", alerts=len(alerts))
    else:
        repo.journal("investigation_resumed")
    repo.status = "running"
    orchestrator = _Orchestrator(store=store, kb=kb, backend=backend,
                                 budget=budget, knn_k=knn_k, repo=repo)
    return orchestrator.run(alerts)
