"""Monte Carlo laboratory for the Kolkata Paise Restaurant game."""

from .model import (
    EnsembleSummary,
    RunResult,
    RunSummary,
    SimulationConfig,
    Strategy,
)

__all__ = [
    "EnsembleSummary",
    "RunResult",
    "RunSummary",
    "SimulationConfig",
    "Strategy",
]
