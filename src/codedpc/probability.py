"""Finite-alphabet probability toolkit for coordination-through-actions models.

Everything here operates on distributions over (subsets of) the product
alphabet X0 x X1 x X2 x Y, where X0 indexes a random system state, X1 and X2
are the action alphabets of the informed and the observing decision maker,
and Y is the noisy observation of X1 available to the latter.

All entropies and mutual informations are in bits (base-2 logarithms), with
the usual continuity convention 0 * log 0 = 0.  Objects are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: Canonical variable names, in storage order.
CANONICAL_AXES = ("x0", "x1", "x2", "y")

# Constructors renormalize inputs whose total is off by less than _SUM_SLACK
# and reject anything worse; tiny negative entries (rounding noise) are
# clipped, genuinely negative ones rejected.
_SUM_SLACK = 1e-9
_NEG_SLACK = 1e-12


class AlphabetError(ValueError):
    """Axis or dimension mismatch between probability objects."""


class DistributionError(ValueError):
    """Input violates a distribution invariant (negativity, normalization)."""


def _as_axes(axes) -> tuple[str, ...]:
    if isinstance(axes, str):
        axes = (axes,)
    out = tuple(axes)
    for name in out:
        if name not in CANONICAL_AXES:
            raise AlphabetError(
                f"unknown axis {name!r}; expected one of {CANONICAL_AXES}"
            )
    if len(set(out)) != len(out):
        raise AlphabetError(f"duplicate axes in {out}")
    return out


def _is_integer(value) -> bool:
    """True for Python and numpy integers, False for bool and everything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for Python and numpy integers and floats, False for bool and
    everything else."""
    return _is_integer(value) or isinstance(value, (float, np.floating))


def _canonical_order(axes: Iterable[str]) -> tuple[str, ...]:
    present = set(axes)
    return tuple(a for a in CANONICAL_AXES if a in present)


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


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability mass function over a subset of the canonical axes.

    ``pmf`` has one array dimension per entry of ``axes`` (which must appear
    in canonical order).  The constructor validates nonnegativity, requires
    the total mass to be 1 within 1e-9, and renormalizes the stored array so
    downstream identities hold to machine precision.
    """

    pmf: np.ndarray
    axes: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _clean_probs(self.pmf, "probability array")
        axes = self.axes
        if axes is None:
            if arr.ndim != len(CANONICAL_AXES):
                raise AlphabetError(
                    "axes must be given unless the array spans all of "
                    f"{CANONICAL_AXES}"
                )
            axes = CANONICAL_AXES
        axes = _as_axes(axes)
        if axes != _canonical_order(axes):
            raise AlphabetError(
                f"axes must appear in canonical order {CANONICAL_AXES}, got {axes}"
            )
        if arr.ndim != len(axes):
            raise AlphabetError(
                f"array has {arr.ndim} dimensions but {len(axes)} axes were named"
            )
        total = float(arr.sum())
        if abs(total - 1.0) >= _SUM_SLACK:
            raise DistributionError(
                f"probabilities sum to {total!r}, expected 1 within {_SUM_SLACK}"
            )
        arr = arr / total
        arr.flags.writeable = False
        object.__setattr__(self, "pmf", arr)
        object.__setattr__(self, "axes", axes)

    def axis_size(self, axis: str) -> int:
        name = _as_axes(axis)[0]
        if name not in self.axes:
            raise AlphabetError(f"distribution has no axis {name!r}")
        return self.pmf.shape[self.axes.index(name)]


@dataclass(frozen=True, eq=False)
class ObservationChannel:
    """Row-stochastic monitoring channel: matrix[x1, y] = P(y | x1)."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _clean_probs(self.matrix, "channel matrix")
        if arr.ndim != 2:
            raise AlphabetError(f"channel matrix must be 2-D, got shape {arr.shape}")
        rows = arr.sum(axis=1)
        off = np.abs(rows - 1.0)
        if off.max() >= _SUM_SLACK:
            bad = int(off.argmax())
            raise DistributionError(
                f"channel row {bad} sums to {rows[bad]!r}, expected 1 within {_SUM_SLACK}"
            )
        arr = arr / rows[:, None]
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

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
        total = float(arr.sum())
        if abs(total - 1.0) >= _SUM_SLACK:
            raise DistributionError(
                f"state prior sums to {total!r}, expected 1 within {_SUM_SLACK}"
            )
        arr = arr / total
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]


def compose(qbar: JointDistribution, channel: ObservationChannel) -> JointDistribution:
    """Extend a (state, action, action) distribution with the observation.

    Returns the four-variable distribution
    q(x0, x1, x2, y) = qbar(x0, x1, x2) * P(y | x1); summing the result over
    y recovers ``qbar`` exactly.
    """
    if qbar.axes != ("x0", "x1", "x2"):
        raise AlphabetError(
            f"compose expects axes ('x0', 'x1', 'x2'), got {qbar.axes}"
        )
    if channel.n_inputs != qbar.axis_size("x1"):
        raise AlphabetError(
            f"channel has {channel.n_inputs} input rows but |X1| = "
            f"{qbar.axis_size('x1')}"
        )
    q = qbar.pmf[:, :, :, None] * channel.matrix[None, :, None, :]
    return JointDistribution(q, CANONICAL_AXES)


def marginal(dist: JointDistribution, axes) -> JointDistribution:
    """Marginal of ``dist`` on the requested (nonempty) subset of its axes."""
    if isinstance(axes, str):
        axes = (axes,)
    axes = tuple(axes)
    if not axes:
        raise ValueError("marginal requires at least one axis")
    axes = _as_axes(axes)
    for name in axes:
        if name not in dist.axes:
            raise AlphabetError(f"distribution has no axis {name!r}")
    keep = _canonical_order(axes)
    if keep == dist.axes:
        return dist
    drop = tuple(i for i, a in enumerate(dist.axes) if a not in keep)
    return JointDistribution(dist.pmf.sum(axis=drop), keep)


def entropy(dist: JointDistribution, axes=None) -> float:
    """Shannon entropy (bits) of ``dist`` or of one of its marginals."""
    if axes is not None:
        dist = marginal(dist, axes)
    p = dist.pmf.ravel()
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def conditional_entropy(dist: JointDistribution, axes, given=()) -> float:
    """H(A | C) = H(A, C) - H(C), in bits; empty ``given`` means plain H(A)."""
    axes = _as_axes(axes)
    given = _as_axes(given) if given else ()
    if set(axes) & set(given):
        raise AlphabetError("target and conditioning axes must be disjoint")
    if not given:
        return entropy(dist, axes)
    return entropy(dist, axes + given) - entropy(dist, given)


def conditional_mutual_information(
    dist: JointDistribution, a, b, given=()
) -> float:
    """I(A; B | C) = H(A|C) + H(B|C) - H(A,B|C), in bits.

    The three variable groups must be disjoint; ``given`` may be empty, in
    which case this is the plain mutual information.  Values that round to a
    tiny negative number are clamped to zero.
    """
    a = _as_axes(a)
    b = _as_axes(b)
    given = _as_axes(given) if given else ()
    if set(a) & set(b) or set(a) & set(given) or set(b) & set(given):
        raise AlphabetError("variable groups must be disjoint")
    value = (
        conditional_entropy(dist, a, given)
        + conditional_entropy(dist, b, given)
        - conditional_entropy(dist, a + b, given)
    )
    if -1e-9 < value < 0.0:
        return 0.0
    return value


def total_variation(q1: JointDistribution, q2: JointDistribution) -> float:
    """Total-variation distance (1/2) sum |q1 - q2|, in [0, 1]."""
    if q1.axes != q2.axes or q1.pmf.shape != q2.pmf.shape:
        raise AlphabetError(
            f"distributions disagree on alphabet: {q1.axes}{q1.pmf.shape} vs "
            f"{q2.axes}{q2.pmf.shape}"
        )
    return float(0.5 * np.abs(q1.pmf - q2.pmf).sum())
