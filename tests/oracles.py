"""Independent reference computations the tests check the package against.

They are deliberately written along a different path than the code under
test, so that agreement between the two is evidence for both.
"""

from __future__ import annotations

import numpy as np

from codedpc import JointDistribution, conditional_entropy, entropy


def uniform_distribution(shape: tuple[int, ...], axes) -> JointDistribution:
    """The uniform distribution on an alphabet of the given shape."""
    return JointDistribution(np.full(shape, 1.0 / int(np.prod(shape))), axes)


def info_constraint_gap_entropy_path(q: JointDistribution) -> float:
    """The constraint gap via H(X0) - H(Y, X0 | X2) + H(Y | X0, X1, X2).

    Algebraically identical to ``info_constraint_gap`` at stages = 1, but
    built from entropies instead of two conditional mutual informations.
    """
    assert q.axes == ("x0", "x1", "x2", "y"), q.axes
    return (
        entropy(q, "x0")
        - conditional_entropy(q, ("x0", "y"), ("x2",))
        + conditional_entropy(q, ("y",), ("x0", "x1", "x2"))
    )


def sinr(cfg, state, power_tx1: float, power_tx2: float, receiver: int) -> float:
    """SINR at one receiver of the interference channel, for scalar powers.

    Own gain times own power over noise plus the cross gain times the
    interferer's power; ``cfg`` is an ``ICConfig`` and ``state`` a
    ``ChannelGainState``.
    """
    if receiver == 1:
        return state.g11 * power_tx1 / (cfg.sigma2 + state.g21 * power_tx2)
    if receiver == 2:
        return state.g22 * power_tx2 / (cfg.sigma2 + state.g12 * power_tx1)
    raise ValueError(f"receiver must be 1 or 2, got {receiver!r}")


def quantize_rows(cdf_rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Map uniforms through per-position inverse CDFs.

    The simulator's original quantizer: ``cdf_rows`` is (n, K) with each row
    a cumulative distribution (or (K,), one row for every position);
    ``uniforms`` is (..., n).  Builds the full (..., n, K) comparison and
    clips the count to K - 1.
    """
    idx = (uniforms[..., None] >= cdf_rows).sum(axis=-1)
    return np.minimum(idx, cdf_rows.shape[-1] - 1)


def row_counts(cells: np.ndarray, n_cells: int) -> np.ndarray:
    """Occupancy counts per row of an (M, n) integer cell array.

    The simulator's original counter: one bincount over offset cells.
    """
    m, _ = cells.shape
    out = np.empty((m, n_cells), dtype=np.int64)
    chunk = max(1, (1 << 22) // max(n_cells, 1))
    for lo in range(0, m, chunk):
        part = cells[lo : lo + chunk]
        offsets = np.arange(part.shape[0], dtype=np.int64)[:, None] * n_cells
        flat = np.bincount(
            (part + offsets).ravel(), minlength=part.shape[0] * n_cells
        )
        out[lo : lo + part.shape[0]] = flat.reshape(part.shape[0], n_cells)
    return out
