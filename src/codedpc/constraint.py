"""Feasibility functional for coordination through noisy action observation.

A target joint behaviour of (state, action 1, action 2) is sustainable as a
long-run average exactly when the coordination information it demands,
I(X0; X2), does not exceed the information I(X1; Y | X0, X2) that the
observing decision maker can extract about the informed one's actions.
``info_constraint_gap`` returns the difference of the two terms (bits);
nonpositive values are achievable, and the functional is convex in the joint
distribution when the state marginal and the observation channel are held
fixed.

For a state that stays constant over blocks of ``stages`` steps, the
coordination term is paid once per block, which scales it by 1/stages and
makes the constraint arbitrarily mild as the block length grows.
"""

from __future__ import annotations

from typing import NamedTuple

from .probability import (
    JointDistribution,
    ObservationChannel,
    StatePrior,
    _is_integer,
    _require_agreement,
    compose,
    conditional_mutual_information,
)

#: Boundary tolerance (bits) for feasibility decisions.  Optimizer
#: iterates approach the boundary from inside, so exact zero is too strict.
FEASIBILITY_TOL = 1e-9


def _check_stages(stages: int) -> None:
    if not _is_integer(stages) or stages < 1:
        raise ValueError(f"stages must be a positive integer, got {stages!r}")


def info_constraint_gap(q: JointDistribution, stages: int = 1) -> float:
    """I(X0; X2) / stages - I(X1; Y | X0, X2), in bits.

    ``q`` must span all four variables; the information function checks
    its axes.  A value <= 0 means the behaviour is achievable; ``stages`` > 1
    gives the relaxed block-constant-state form.
    """
    _check_stages(stages)
    i_coord = conditional_mutual_information(q, "x0", "x2")
    i_channel = conditional_mutual_information(q, "x1", "y", ("x0", "x2"))
    return i_coord / stages - i_channel


class ImplementabilityResult(NamedTuple):
    implementable: bool
    slack: float


def is_implementable(
    qbar: JointDistribution,
    channel: ObservationChannel,
    prior: StatePrior,
) -> ImplementabilityResult:
    """Decide achievability of ``qbar`` under ``channel`` and ``prior``.

    Requires the X0-marginal of ``qbar`` to match ``prior`` within 1e-9, the
    constructors' normalization tolerance; ``FEASIBILITY_TOL`` is the
    tolerance of the verdict.  The channel is checked against ``qbar`` (by
    ``compose``) before the states.
    Returns the boolean verdict together with the slack (minus the gap);
    slack >= 0 means implementable.
    """
    q = compose(qbar, channel)
    _require_agreement(qbar.pmf, prior=prior)
    gap = info_constraint_gap(q)
    return ImplementabilityResult(bool(gap <= FEASIBILITY_TOL), float(-gap + 0.0))
