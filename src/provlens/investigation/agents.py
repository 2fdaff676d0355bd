"""The four agents: Analyst (validation gatekeeper), Investigator (event-level
expansion), Leader (strategic synthesis) and Reporter (analyst-facing output).

Each agent assembles a bounded context from the knowledge base and graph
store, issues exactly one structured LLM request through the shared session,
and returns typed results; all repository mutations stay in the orchestrator.
"""

from __future__ import annotations

from ..profiler import BenignKnowledgeBase, attribute_query, knn_query
from .graphstore import GraphStore
from .llm import LLMSession
from .repository import (
    KILL_CHAIN_PHASES,
    PHASE_NAMES,
    AgentVerdict,
    InvestigationRepository,
)

SAME_IDENTITY_CAP = 5


def analyst_validate(lead: dict, kb: BenignKnowledgeBase, store: GraphStore,
                     session: LLMSession, knn_k: int = 5,
                     digest_limit: int = 10) -> AgentVerdict:
    """Validate one alert or clue against benign reference behavior.

    Context pairs two retrieval modes: nearest benign members by embedding
    distance (similar behavior) and benign members sharing the node's identity
    (expected behavior), each with their edge digests. Malformed model output
    falls back to BENIGN with zero confidence.
    """
    graph_name, node_uuid = lead["graph_name"], lead["node_uuid"]
    node = store.get_node(graph_name, node_uuid)
    if node is None:
        raise KeyError(f"lead target {node_uuid} not found in graph {graph_name}")

    similar = []
    query = store.embedding(graph_name, node_uuid)
    if query is not None and kb.profiles:
        for uuid, label, distance in knn_query(kb, query, knn_k):
            meta = kb.metadata.get(uuid, {})
            similar.append({"node_uuid": uuid, "identity": label,
                            "distance": round(distance, 6),
                            "edges": meta.get("edges", [])[:digest_limit]})
    same_identity = []
    for uuid in attribute_query(kb, node.identity):
        if uuid == node_uuid:
            continue
        meta = kb.metadata.get(uuid, {})
        same_identity.append({"node_uuid": uuid,
                              "edges": meta.get("edges", [])[:digest_limit]})
        if len(same_identity) >= SAME_IDENTITY_CAP:
            break

    payload = {
        "node_uuid": node_uuid,
        "graph_name": graph_name,
        "identity": node.identity,
        "kind": node.kind,
        "attrs": node.attrs,
        "investigator_reason": lead.get("reason", ""),
        "edges": store.node_digest(graph_name, node_uuid, digest_limit),
        "similar_behavior": similar,
        "same_identity": same_identity,
    }
    response, _ = session.invoke("analyst", payload)
    return AgentVerdict(verdict=response["verdict"],
                        confidence=float(response["confidence"]),
                        cited_evidence=list(response["cited_evidence"]),
                        rationale=str(response.get("rationale", "")))


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
        "graph_name": ioc.graph_name,
        "identity": ioc.identity,
        "current_event": ioc.event,
        "reason": "",
        "neighborhood": store.neighborhood(ioc.graph_name, ioc.node_uuid,
                                           max_leads),
    }
    response, _ = session.invoke("investigator", payload)
    leads = list(response["leads"])[:max_leads]
    return str(response["event"]), response["kill_chain_phase"], leads


def leader_synthesize(repo: InvestigationRepository, session: LLMSession,
                      max_hypotheses: int) -> dict:
    """Global pass over the IOC table: phase coverage, strategic hypotheses,
    false-positive flags and the termination decision.

    Hypotheses must reference node uuids already in the repository or
    kill-chain phase codes; anything else is rejected and journaled, which is
    what keeps the hypothesis space bounded.
    """
    table = []
    for uuid in sorted(repo.iocs):
        ioc = repo.iocs[uuid]
        table.append({
            "node_uuid": ioc.node_uuid,
            "identity": ioc.identity,
            "status": ioc.status,
            "kill_chain_phase": ioc.kill_chain_phase,
            "event": ioc.event,
            "confidence": ioc.confidence,
            "related_ioc_refs": ioc.related_ioc_refs,
            "origin": ioc.origin,
        })
    payload = {
        "graph_name": repo.graph_name,
        "iteration": repo.iteration,
        "phases": list(KILL_CHAIN_PHASES),
        "ioc_table": table,
        "open_hypotheses": [h.statement for h in repo.open_hypotheses()],
    }
    response, _ = session.invoke("leader", payload)

    known = set(repo.iocs)
    valid_refs = known | set(KILL_CHAIN_PHASES)
    hypotheses = []
    for hyp in response["hypotheses"]:
        refs = [str(r) for r in hyp["target_refs"]]
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
        "terminate": bool(response["terminate"]),
    }


# --- reporting ---------------------------------------------------------------

def _phase_order(phase: str) -> int:
    try:
        return KILL_CHAIN_PHASES.index(phase)
    except ValueError:
        return len(KILL_CHAIN_PHASES)


def attack_graph_dot(repo: InvestigationRepository) -> str:
    """Directed attack graph: validated IOCs as nodes, related-IOC references
    and expansion relations as edges. Plain DOT, renderable with graphviz."""
    validated = repo.validated_iocs()
    valid_ids = {ioc.node_uuid for ioc in validated}
    lines = ["digraph attack {", "  rankdir=LR;"]
    for ioc in validated:
        label = f"{ioc.identity}\\n{ioc.kill_chain_phase}"
        lines.append(f'  "{ioc.node_uuid}" [label="{label}"];')
    edges: dict[tuple[str, str], str] = {}
    for ioc in validated:
        for ref in ioc.related_ioc_refs:
            if ref in valid_ids:
                edges.setdefault((ref, ioc.node_uuid), "related")
    for src, dst, label in repo.relations:
        if src in valid_ids and dst in valid_ids:
            edges[(src, dst)] = label
    for (src, dst), label in sorted(edges.items()):
        lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_report(repo: InvestigationRepository, summary: str,
                  remediation: list[str]) -> str:
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
        lines += [summary, ""]
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
    if remediation:
        lines += [f"- {step}" for step in remediation]
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


def reporter_compose(repo: InvestigationRepository,
                     session: LLMSession | None = None) -> tuple[str, str]:
    """Final report: Markdown narrative plus the attack graph in DOT form.

    The section skeleton, ordering and per-IOC lines are assembled
    deterministically from the repository; the model only contributes the
    campaign summary and remediation prose (skipped when no session is given,
    e.g. after budget exhaustion).
    """
    summary = FALLBACK_SUMMARY
    remediation: list[str] = []
    if session is not None and repo.validated_iocs():
        payload = {
            "graph_name": repo.graph_name,
            "iocs": [
                {"node_uuid": i.node_uuid, "identity": i.identity,
                 "kill_chain_phase": i.kill_chain_phase, "event": i.event}
                for i in repo.validated_iocs()
            ],
            "narrative": repo.narrative(),
        }
        response, _ = session.invoke("reporter", payload)
        summary = str(response["campaign_summary"])
        remediation = [str(step) for step in response["remediation"]]
    markdown = render_report(repo, summary, remediation)
    dot = attack_graph_dot(repo)
    return markdown, dot


FALLBACK_SUMMARY = ("Validated indicators are listed below; no model-written "
                    "summary is available for this run.")
