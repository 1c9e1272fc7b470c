"""Finite-alphabet probability toolkit for coordination-through-actions models.

Everything here operates on distributions over a prefix of the product
alphabet X0 x X1 x X2 x Y, where X0 indexes a random system state, X1 and X2
are the action alphabets of the informed and the observing decision maker,
and Y is the noisy observation of X1 available to the latter.  In practice
that is the policy over (x0, x1, x2) and its extension by the observation
channel to (x0, x1, x2, y).

All entropies and mutual informations are in bits (base-2 logarithms), with
the usual continuity convention 0 * log 0 = 0.  Objects are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Canonical variable names, in storage order.
CANONICAL_AXES = ("x0", "x1", "x2", "y")

# Constructors renormalize inputs whose total is off by less than _SUM_SLACK
# and reject anything worse; tiny negative entries (rounding noise) are
# clipped, genuinely negative ones rejected.  A policy's state marginal may
# differ from the prior by _SUM_SLACK too.
_SUM_SLACK = 1e-9
_NEG_SLACK = 1e-12


class AlphabetError(ValueError):
    """Axis or dimension mismatch between probability objects."""


class DistributionError(ValueError):
    """Input violates a distribution invariant (negativity, normalization)."""


def _is_integer(value) -> bool:
    """True for Python and numpy integers, False for bool and everything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for Python and numpy integers and floats, False for bool and
    everything else."""
    return _is_integer(value) or isinstance(value, (float, np.floating))


def _clean_probs(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.size == 0:
        raise DistributionError(f"{what} is empty")
    low = float(arr.min())
    if not np.isfinite(arr).all():
        raise DistributionError(f"{what} contains non-finite entries")
    if low < -_NEG_SLACK:
        raise DistributionError(f"{what} has negative entry {low:.3e}")
    if low < 0.0:
        arr = np.clip(arr, 0.0, None)
    return arr


def _normalized(arr: np.ndarray, what: str, rows: bool = False) -> np.ndarray:
    """``arr`` divided by its sum, or each row by its own when ``rows``, and
    made read-only.  A sum off 1 by ``_SUM_SLACK`` or more is rejected."""
    if rows:
        total = arr.sum(axis=1, keepdims=True)
        bad = int(np.abs(total - 1.0).argmax())
        what, worst = f"{what} {bad}", float(total[bad, 0])
    else:
        total = worst = float(arr.sum())
    if abs(worst - 1.0) >= _SUM_SLACK:
        raise DistributionError(f"{what} sums to {worst!r}, expected 1 within {_SUM_SLACK}")
    arr = arr / total
    arr.flags.writeable = False
    return arr


def _require_agreement(q, payoff=None, channel=None, prior=None) -> None:
    """Check that a policy array ``q`` over (x0, x1, x2), a payoff table, a
    channel and a prior fit together; each may be ``None``, ``q`` only when
    ``payoff`` is given.  In this order: ``q`` has the payoff's shape, the
    channel has |X1| input rows, the prior has |X0| states (``AlphabetError``
    for each), and ``q``'s state marginal is the prior within ``_SUM_SLACK``
    (``DistributionError``)."""
    shape = payoff.shape if q is None else q.shape
    if q is not None and payoff is not None and q.shape != payoff.shape:
        raise AlphabetError(f"policy shape {q.shape} does not match payoff shape {payoff.shape}")
    if channel is not None and channel.n_inputs != shape[1]:
        raise AlphabetError(f"channel has {channel.n_inputs} input rows but |X1| = {shape[1]}")
    if prior is not None and prior.n_states != shape[0]:
        raise AlphabetError(f"prior has {prior.n_states} states but |X0| = {shape[0]}")
    if q is None or prior is None:
        return
    marginal = q.sum(axis=(1, 2))
    bad = np.nonzero(np.abs(marginal - prior.probs) > _SUM_SLACK)[0]
    if bad.size:
        i = int(bad[0])
        raise DistributionError(
            f"state marginal mismatch at x0={i}: the policy gives "
            f"{float(marginal[i])!r} but the prior says {float(prior.probs[i])!r}"
        )


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability mass function over a prefix of the canonical axes.

    ``pmf`` has one array dimension per entry of ``axes``, and ``axes`` must
    be the first ``pmf.ndim`` names of ``CANONICAL_AXES``: (x0), (x0, x1),
    (x0, x1, x2) or (x0, x1, x2, y); ``None`` names all four.  The
    constructor validates nonnegativity, requires the total mass to be 1
    within 1e-9, and renormalizes the stored array so downstream identities
    hold to machine precision.
    """

    pmf: np.ndarray
    axes: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _clean_probs(self.pmf, "probability array")
        axes = CANONICAL_AXES if self.axes is None else self.axes
        axes = (axes,) if isinstance(axes, str) else tuple(axes)
        if not 0 < len(axes) == arr.ndim or axes != CANONICAL_AXES[: arr.ndim]:
            raise AlphabetError(
                f"axes {axes} are not the prefix of {CANONICAL_AXES} of length {arr.ndim}"
            )
        object.__setattr__(self, "pmf", _normalized(arr, "probability array"))
        object.__setattr__(self, "axes", axes)


@dataclass(frozen=True, eq=False)
class ObservationChannel:
    """Row-stochastic monitoring channel: matrix[x1, y] = P(y | x1)."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _clean_probs(self.matrix, "channel matrix")
        if arr.ndim != 2:
            raise AlphabetError(f"channel matrix must be 2-D, got shape {arr.shape}")
        object.__setattr__(self, "matrix", _normalized(arr, "channel row", rows=True))

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[1]

    @staticmethod
    def identity(n: int) -> "ObservationChannel":
        return ObservationChannel(np.eye(n))


@dataclass(frozen=True, eq=False)
class StatePrior:
    """Distribution of the i.i.d. system state over X0."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _clean_probs(self.probs, "state prior")
        if arr.ndim != 1:
            raise AlphabetError(f"state prior must be 1-D, got shape {arr.shape}")
        object.__setattr__(self, "probs", _normalized(arr, "state prior"))

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]


def compose(qbar: JointDistribution, channel: ObservationChannel) -> JointDistribution:
    """Extend a (state, action, action) distribution with the observation.

    Returns the four-variable distribution
    q(x0, x1, x2, y) = qbar(x0, x1, x2) * P(y | x1); summing the result over
    y recovers ``qbar`` exactly.
    """
    if qbar.pmf.ndim != 3:
        raise AlphabetError(f"compose needs axes {CANONICAL_AXES[:3]}, got {qbar.axes}")
    _require_agreement(qbar.pmf, channel=channel)
    q = qbar.pmf[:, :, :, None] * channel.matrix[None, :, None, :]
    return JointDistribution(q, CANONICAL_AXES)


def _entropy(dist: JointDistribution, axes: tuple[str, ...]) -> float:
    """Shannon entropy (bits) of ``dist``'s marginal on ``axes``.  A marginal
    that drops an axis is divided by its own sum, as the ``JointDistribution``
    constructor would; one that keeps every axis is ``dist.pmf`` itself."""
    drop = tuple(i for i, name in enumerate(dist.axes) if name not in axes)
    p = dist.pmf
    if drop:
        p = p.sum(axis=drop)
        p = p / float(p.sum())
    p = p.ravel()
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def conditional_mutual_information(
    dist: JointDistribution, a, b, given=()
) -> float:
    """I(A; B | C) = H(A|C) + H(B|C) - H(A,B|C), in bits.

    Each conditional entropy is H(., C) - H(C) over the marginals of
    ``dist``.  A group is one axis name or an iterable of names.  The groups
    ``a`` and ``b`` must be nonempty, and no axis of ``dist`` may appear
    twice across the three groups; an empty or ``None`` ``given`` means no
    conditioning, in which case this is the plain mutual information.
    Values that round to a tiny negative number are clamped to zero.
    """
    a, b, given = ((g,) if isinstance(g, str) else tuple(g) for g in (a, b, given or ()))
    if not a or not b:
        raise ValueError("conditional_mutual_information needs nonempty groups a and b")
    names = a + b + given
    for name in names:
        if name not in dist.axes:
            raise AlphabetError(f"distribution has no axis {name!r}")
    if len(set(names)) < len(names):
        raise AlphabetError(f"variable groups repeat an axis: {a}, {b}, {given}")
    h_c = _entropy(dist, given) if given else 0.0
    value = (_entropy(dist, a + given) - h_c) + (_entropy(dist, b + given) - h_c)
    value -= _entropy(dist, a + b + given) - h_c
    if -1e-9 < value < 0.0:
        return 0.0
    return value


def total_variation(q1: JointDistribution, q2: JointDistribution) -> float:
    """Total-variation distance (1/2) sum |q1 - q2|, in [0, 1]."""
    if q1.pmf.shape != q2.pmf.shape:
        raise AlphabetError(
            f"distributions disagree on alphabet: {q1.pmf.shape} vs {q2.pmf.shape}"
        )
    return float(0.5 * np.abs(q1.pmf - q2.pmf).sum())
