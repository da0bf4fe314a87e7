"""Monte Carlo laboratory for the Kolkata Paise Restaurant game."""

from .model import (
    AgentState,
    EnsembleSummary,
    RunResult,
    RunSummary,
    SimulationConfig,
    Strategy,
)

__all__ = [
    "AgentState",
    "EnsembleSummary",
    "RunResult",
    "RunSummary",
    "SimulationConfig",
    "Strategy",
]
