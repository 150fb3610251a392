"""Self-supervised amortized tertiary voltage control on synthetic grids."""

from .h2mg import (
    CONTROLLER_CLASSES,
    Decision,
    H2MGContext,
    H2MGError,
    HyperEdge,
    SCHEMA,
    SurrogateDecision,
    deserialize,
    serialize,
    validate_context,
)
from .powerflow import (
    ObjectiveBreakdown,
    PowerFlowSolution,
    SolverOptions,
    apply_decision,
    evaluate_objective,
    solve_ac,
)

__all__ = [
    "CONTROLLER_CLASSES",
    "Decision",
    "H2MGContext",
    "H2MGError",
    "HyperEdge",
    "SCHEMA",
    "SurrogateDecision",
    "deserialize",
    "serialize",
    "validate_context",
    "ObjectiveBreakdown",
    "PowerFlowSolution",
    "SolverOptions",
    "apply_decision",
    "evaluate_objective",
    "solve_ac",
]

__version__ = "0.1.0"
