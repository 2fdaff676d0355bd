"""Closed-loop alert investigation driven by four specialized LLM agents."""

from ..config import InvestigationBudget
from .graphstore import GraphStore
from .llm import HttpChatLLM, LLMSession, ScriptedLLM
from .orchestrator import run_investigation
from .repository import (
    Hypothesis,
    InvestigationRepository,
    IOCRecord,
    KILL_CHAIN_PHASES,
)
from .agents import (
    analyst_validate,
    investigator_expand,
    leader_synthesize,
    reporter_compose,
    similar_behavior,
)

__all__ = [
    "GraphStore",
    "Hypothesis",
    "HttpChatLLM",
    "InvestigationBudget",
    "InvestigationRepository",
    "IOCRecord",
    "KILL_CHAIN_PHASES",
    "LLMSession",
    "ScriptedLLM",
    "analyst_validate",
    "investigator_expand",
    "leader_synthesize",
    "reporter_compose",
    "run_investigation",
    "similar_behavior",
]
