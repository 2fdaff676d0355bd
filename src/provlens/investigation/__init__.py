"""Closed-loop alert investigation driven by four specialized LLM agents."""

from ..config import InvestigationBudget
from .graphstore import GraphStore
from .orchestrator import run_investigation
