"""Coded power control: optimal coordination through observed actions.

The package computes the best expected payoff two decision makers can reach
when one of them knows the random system state in advance and can only
signal through its own actions, observed by the other through a noisy
channel.  It also instantiates the two-pair interference channel with
binary power control and validates achievability with a block-coding
simulator.
"""

from .probability import (
    CANONICAL_AXES,
    AlphabetError,
    DistributionError,
    JointDistribution,
    ObservationChannel,
    StatePrior,
    compose,
    conditional_mutual_information,
    total_variation,
)
from .constraint import (
    FEASIBILITY_TOL,
    ImplementabilityResult,
    info_constraint_gap,
    is_implementable,
)
from .optimizer import (
    ConvergenceError,
    OptimizationResult,
    PayoffTable,
    SolverOptions,
    best_actions,
    costless_bound,
    expected_payoff,
    solve,
)
from .coding import (
    CodingConfig,
    CodingConfigError,
    SimResult,
    run,
)
from . import icmodel

__all__ = [
    "CANONICAL_AXES",
    "FEASIBILITY_TOL",
    "AlphabetError",
    "CodingConfig",
    "CodingConfigError",
    "ConvergenceError",
    "DistributionError",
    "ImplementabilityResult",
    "JointDistribution",
    "ObservationChannel",
    "OptimizationResult",
    "PayoffTable",
    "SimResult",
    "SolverOptions",
    "StatePrior",
    "best_actions",
    "compose",
    "conditional_mutual_information",
    "costless_bound",
    "expected_payoff",
    "icmodel",
    "info_constraint_gap",
    "is_implementable",
    "run",
    "solve",
    "total_variation",
]

__version__ = "0.1.0"
