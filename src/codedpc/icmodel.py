"""Two-pair interference channel with on/off power control.

Each of two transmitter-receiver pairs sees a direct gain and a cross gain;
all four gains take one of two values and flip independently from stage to
stage, giving 16 channel states.  Transmit powers are binary (off or full),
the second transmitter observes the first one's power level perfectly, and
the stage payoff is a sum of per-receiver SINR utilities.

Reference power-control policies:

* full power (FPC): both transmitters always on, no state knowledge needed;
* semi-coordinated (SPC): transmitter 2 always on, transmitter 1 plays the
  per-state best response against full power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .optimizer import PayoffTable
from .probability import JointDistribution, ObservationChannel, StatePrior

N_STATES = 16

#: Probabilities that each of (g11, g12, g21, g22) takes its low value, for
#: the low- and high-interference regimes.
REGIME_PROBS = {
    "lir": (0.5, 0.9, 0.9, 0.5),
    "hir": (0.5, 0.1, 0.1, 0.5),
}


class ChannelGainState(NamedTuple):
    g11: float
    g12: float
    g21: float
    g22: float


@dataclass(frozen=True)
class ICConfig:
    """Interference-channel experiment parameters.

    ``p_gmin`` holds (p11, p12, p21, p22), the probabilities that each gain
    sits at ``g_min``.  Full power is ``sigma2 * 10**(snr_db / 10)``.
    ``payoff_form`` selects the per-receiver utility: "log" for
    log2(1 + SINR), "linear" for the raw SINR.
    """

    snr_db: float
    p_gmin: tuple[float, float, float, float]
    g_min: float = 0.1
    g_max: float = 1.9
    sigma2: float = 1.0
    payoff_form: Literal["log", "linear"] = "log"

    def __post_init__(self):
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db!r}")
        if len(self.p_gmin) != 4:
            raise ValueError(f"p_gmin needs 4 entries, got {self.p_gmin!r}")
        if any(not 0.0 <= p <= 1.0 for p in self.p_gmin):
            raise ValueError(f"p_gmin entries must lie in [0, 1]: {self.p_gmin!r}")
        if not (0.0 <= self.g_min < self.g_max and math.isfinite(self.g_max)):
            raise ValueError(
                f"need finite 0 <= g_min < g_max, got {self.g_min!r} and {self.g_max!r}"
            )
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError(f"sigma2 must be finite and positive, got {self.sigma2!r}")
        if self.payoff_form not in ("log", "linear"):
            raise ValueError(f"payoff_form must be 'log' or 'linear', got {self.payoff_form!r}")
        # Every SINR is at most peak / sigma2 with a denominator of at most
        # sigma2 + peak, and the linear payoff adds two SINRs.
        try:
            peak = self.g_max * self.p_max
        except OverflowError:
            peak = math.inf
        if not (math.isfinite(self.sigma2 + peak) and math.isfinite(2.0 * (peak / self.sigma2))):
            raise ValueError(f"snr_db {self.snr_db!r} overflows the received power or the SINR")

    @property
    def p_max(self) -> float:
        return self.sigma2 * 10.0 ** (self.snr_db / 10.0)

    @property
    def power_levels(self) -> tuple[float, float]:
        return (0.0, self.p_max)

    @classmethod
    def for_regime(cls, regime: str, snr_db: float, **kwargs) -> "ICConfig":
        key = regime.lower()
        if key not in REGIME_PROBS:
            raise ValueError(f"unknown regime {regime!r}; expected one of {sorted(REGIME_PROBS)}")
        return cls(snr_db=snr_db, p_gmin=REGIME_PROBS[key], **kwargs)


def gain_states(cfg: ICConfig) -> list[ChannelGainState]:
    """The 16 gain tuples, ordered lexicographically with g_min < g_max."""
    out = []
    for s in range(N_STATES):
        bits = ((s >> 3) & 1, (s >> 2) & 1, (s >> 1) & 1, s & 1)
        out.append(
            ChannelGainState(*(cfg.g_max if b else cfg.g_min for b in bits))
        )
    return out


def build_state_prior(cfg: ICConfig) -> StatePrior:
    """Product of the four independent two-point gain distributions."""
    probs = np.ones(N_STATES)
    for s in range(N_STATES):
        bits = ((s >> 3) & 1, (s >> 2) & 1, (s >> 1) & 1, s & 1)
        for b, p in zip(bits, cfg.p_gmin):
            probs[s] *= (1.0 - p) if b else p
    return StatePrior(probs)


def _utility(cfg: ICConfig, a: np.ndarray) -> np.ndarray:
    if cfg.payoff_form == "log":
        return np.log2(1.0 + a)
    return a


def build_payoff_table(cfg: ICConfig) -> PayoffTable:
    """Sum of the two receivers' utilities, on the 16 x 2 x 2 alphabet.

    Action index 0 is power off, index 1 is full power.
    """
    gains = np.array(gain_states(cfg))
    g11, g12, g21, g22 = gains.T
    x = np.array(cfg.power_levels)
    sinr1 = g11[:, None, None] * x[None, :, None] / (
        cfg.sigma2 + g21[:, None, None] * x[None, None, :]
    )
    sinr2 = g22[:, None, None] * x[None, None, :] / (
        cfg.sigma2 + g12[:, None, None] * x[None, :, None]
    )
    return PayoffTable(_utility(cfg, sinr1) + _utility(cfg, sinr2))


def identity_observation_channel() -> ObservationChannel:
    """Perfect monitoring of the binary power level of transmitter 1."""
    return ObservationChannel.identity(2)


def partner_full_power(prior: StatePrior, x1) -> JointDistribution:
    """Transmitter 2 at full power and transmitter 1 at action index ``x1``
    (one index, or one per state) in every state."""
    qbar = np.zeros((N_STATES, 2, 2))
    qbar[np.arange(N_STATES), x1, 1] = prior.probs
    return JointDistribution(qbar, ("x0", "x1", "x2"))


def fpc_distribution(cfg: ICConfig) -> JointDistribution:
    """Both transmitters at full power in every state."""
    return partner_full_power(build_state_prior(cfg), 1)


def spc_best_x1(payoff: PayoffTable) -> np.ndarray:
    """Transmitter 1's per-state best response to full power, as action indices.

    Ties go to full power, which keeps runs reproducible.
    """
    w = payoff.values
    return np.where(w[:, 1, 1] >= w[:, 0, 1], 1, 0)


def spc_distribution(cfg: ICConfig) -> JointDistribution:
    """Transmitter 2 at full power, transmitter 1 best-responding per state."""
    return partner_full_power(build_state_prior(cfg), spc_best_x1(build_payoff_table(cfg)))
