"""The four agents: Analyst (validation gatekeeper), Investigator (event-level
expansion), Leader (strategic synthesis) and Reporter (analyst-facing output).

Each agent assembles a bounded context from the knowledge base and graph
store, issues exactly one structured LLM request through the shared session,
and returns its validated reply, or the parts of it the orchestrator uses.
The orchestrator decides admission on the Analyst's reply and mutates the
repository, except that ``leader_synthesize`` journals the hypotheses and
flags it rejects.
"""

from __future__ import annotations

from dataclasses import asdict

from ..ingest import Entity
from ..profiler import (DIGEST_EDGE_LIMIT, BenignKnowledgeBase,
                        attribute_query, edge_digest, knn_query)
from .graphstore import GraphStore
from .llm import LLMSession
from .repository import KILL_CHAIN_PHASES, InvestigationRepository

SAME_IDENTITY_CAP = 5


def similar_behavior(uuids: list[str], kb: BenignKnowledgeBase,
                     store: GraphStore, knn_k: int
                     ) -> dict[str, list[tuple[int, float]]]:
    """Each of the store's nodes ``uuids`` mapped to its nearest benign
    members by embedding distance, as ``(row, distance)`` pairs, fetched for
    all of them through one ``knn_query``."""
    row_of = store.graph.incidence.row_of
    queries = store.embeddings[[row_of[uuid] for uuid in uuids]]
    return dict(zip(uuids, knn_query(kb, queries, knn_k)))


def analyst_validate(node: Entity, reason: str,
                     similar: list[tuple[int, float]],
                     kb: BenignKnowledgeBase, store: GraphStore,
                     session: LLMSession,
                     digest_limit: int = 10) -> tuple[dict, list[str]]:
    """Validate one alert or clue, the store's ``node``, against benign
    reference behavior; returns the validated reply and the node's edge
    digest the Analyst was shown, cut as the references' stored digests are.

    Context pairs two retrieval modes: ``similar``, the ``(row, distance)``
    pairs of the node's nearest benign members by embedding distance
    (``similar_behavior``), and benign members sharing the node's identity
    (expected behavior), each shown with its edge digest cut at
    ``digest_limit`` lines. Malformed model output falls back to BENIGN with
    zero confidence.
    """
    same_identity = []
    for row in attribute_query(kb, node.identity):
        if kb.uuids[row] == node.uuid:
            continue
        same_identity.append({"node_uuid": kb.uuids[row],
                              "edges": kb.digests[row][:digest_limit]})
        if len(same_identity) >= SAME_IDENTITY_CAP:
            break
    similar = [{"node_uuid": kb.uuids[row], "identity": kb.labels[row],
                "distance": round(distance, 6),
                "edges": kb.digests[row][:digest_limit]}
               for row, distance in similar]

    edges = edge_digest(store.graph, node.uuid,
                        min(digest_limit, DIGEST_EDGE_LIMIT))
    payload = {
        "node_uuid": node.uuid,
        "graph_name": store.graph.name,
        "identity": node.identity,
        "kind": node.kind,
        "attrs": node.attrs,
        "investigator_reason": reason,
        "edges": edges,
        "similar_behavior": similar,
        "same_identity": same_identity,
    }
    return session.invoke("analyst", payload), edges


def investigator_expand(ioc, store: GraphStore, session: LLMSession,
                        max_leads: int) -> tuple[str, str, list[dict]]:
    """Reconstruct the IOC's atomic attack action and surface new leads.

    Returns (event narrative, kill-chain phase, leads); each lead carries
    graph_name, node_uuid and reason. The neighborhood context and the number
    of returned leads are both capped at ``max_leads``.
    """
    if ioc.status != "validated":
        raise ValueError(f"cannot expand IOC {ioc.node_uuid} with status "
                         f"{ioc.status!r}; only validated IOCs are expanded")
    payload = {
        "node_uuid": ioc.node_uuid,
        "graph_name": store.graph.name,
        "identity": ioc.identity,
        "current_event": ioc.event,
        "reason": "",
        "neighborhood": store.neighborhood(ioc.node_uuid, max_leads),
    }
    response = session.invoke("investigator", payload)
    return (response["event"], response["kill_chain_phase"],
            response["leads"][:max_leads])


def leader_synthesize(repo: InvestigationRepository, session: LLMSession,
                      max_hypotheses: int) -> dict:
    """Global pass over the IOC table: phase coverage, strategic hypotheses,
    false-positive flags and the termination decision.

    Hypotheses must reference node uuids already in the repository or
    kill-chain phase codes; anything else is rejected and journaled, which is
    what keeps the hypothesis space bounded. The payload carries the
    iteration the call is for; the orchestrator counts it once answered.
    """
    payload = {
        "graph_name": repo.graph_name,
        "iteration": repo.iteration + 1,
        "phases": list(KILL_CHAIN_PHASES),
        "ioc_table": [asdict(repo.iocs[uuid]) for uuid in sorted(repo.iocs)],
        "open_hypotheses": [h.statement for h in repo.open_hypotheses()],
    }
    response = session.invoke("leader", payload)

    known = set(repo.iocs)
    valid_refs = known | set(KILL_CHAIN_PHASES)
    hypotheses = []
    for hyp in response["hypotheses"]:
        refs = hyp["target_refs"]
        if not refs or any(r not in valid_refs for r in refs):
            repo.journal("hypothesis_rejected", statement=hyp["statement"],
                         target_refs=refs,
                         reason="targets must be repository node uuids or "
                                "kill-chain phases")
            continue
        if len(hypotheses) >= max_hypotheses:
            repo.journal("hypothesis_rejected", statement=hyp["statement"],
                         target_refs=refs, reason="hypothesis budget reached")
            continue
        hypotheses.append({"kind": hyp["kind"], "statement": hyp["statement"],
                           "target_refs": refs})
    flags = []
    for uuid in response["false_positive_flags"]:
        if uuid in known:
            flags.append(uuid)
        else:
            repo.journal("flag_rejected", node_uuid=uuid,
                         reason="unknown node uuid")
    return {
        "phase_coverage": response["phase_coverage"],
        "hypotheses": hypotheses,
        "false_positive_flags": flags,
        "terminate": response["terminate"],
    }


# --- reporting ---------------------------------------------------------------

def reporter_compose(repo: InvestigationRepository,
                     session: LLMSession) -> tuple[str, list[str]]:
    """The Reporter's campaign summary and remediation steps for the
    validated IOCs. The report around them is rendered from the repository
    (``render_report``)."""
    payload = {
        "graph_name": repo.graph_name,
        "iocs": [
            {"node_uuid": i.node_uuid, "identity": i.identity,
             "kill_chain_phase": i.kill_chain_phase, "event": i.event}
            for i in repo.validated_iocs()
        ],
        "narrative": repo.narrative(),
    }
    response = session.invoke("reporter", payload)
    return response["campaign_summary"], response["remediation"]
