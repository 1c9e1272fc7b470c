"""Independent reference computations the tests check the package against.

They are deliberately written along a different path than the code under
test, so that agreement between the two is evidence for both.
"""

from __future__ import annotations

import numpy as np

from codedpc import JointDistribution, StatePrior
from codedpc.coding import (
    _absent_cells_typical,
    _chunk_rows,
    _indicator,
    _symbols,
    _typical_rows,
)
from codedpc.icmodel import N_STATES, ChannelGainState


def uniform_distribution(shape: tuple[int, ...], axes) -> JointDistribution:
    """The uniform distribution on an alphabet of the given shape."""
    return JointDistribution(np.full(shape, 1.0 / int(np.prod(shape))), axes)


def info_constraint_gap_entropy_path(q: JointDistribution) -> float:
    """The constraint gap via H(X0) - H(Y, X0 | X2) + H(Y | X0, X1, X2).

    Algebraically identical to ``info_constraint_gap`` at stages = 1, but
    built from entropies, each a natural-log sum over a marginal of the 4-D
    array, instead of two conditional mutual informations.
    """
    assert q.axes == ("x0", "x1", "x2", "y"), q.axes

    def h(*dropped: int) -> float:
        return float(-_xlogx(q.pmf.sum(axis=dropped)).sum()) / _LN2

    # H(X0) - [H(X0, X2, Y) - H(X2)] + [H(X0, X1, X2, Y) - H(X0, X1, X2)]
    return h(1, 2, 3) - (h(1) - h(0, 1, 3)) + (h() - h(3))


_LN2 = float(np.log(2.0))


def _log_pos(a: np.ndarray) -> np.ndarray:
    return np.log(np.where(a > 0.0, a, 1.0))


def _xlogx(a: np.ndarray) -> np.ndarray:
    return a * _log_pos(a)


class InfoKernel:
    """The solver's information kernel as it was before its buffer was fused.

    Same interface as ``optimizer._InfoKernel``: ``gap`` returns the gap in
    bits.  Each of q(x0, x2), q(x0), q(x2) and q(x0, x2, y) is its own array
    with its own guarded log, so the fused kernel must give these bits
    exactly.
    """

    def __init__(self, gamma: np.ndarray, inv_stages: float):
        self.gamma = gamma
        self.inv_stages = inv_stages
        self.perfect = np.array_equal(gamma, np.eye(gamma.shape[0]))
        self.row_entropy = -_xlogx(gamma).sum(axis=1)

    def gap(self, qbar: np.ndarray) -> float:
        m02 = qbar.sum(axis=1)
        m0 = m02.sum(axis=1)
        m2 = m02.sum(axis=0)
        plogp02 = float(_xlogx(m02).sum())
        i_coord = plogp02 - float(_xlogx(m0).sum()) - float(_xlogx(m2).sum())
        if self.perfect:
            s = np.ascontiguousarray(qbar.transpose(0, 2, 1))
            i_channel = -(float(_xlogx(s).sum()) - plogp02)
        else:
            s = np.einsum("abc,by->acy", qbar, self.gamma)
            h_y_given_02 = -(float(_xlogx(s).sum()) - plogp02)
            i_channel = h_y_given_02 - float(qbar.sum(axis=(0, 2)) @ self.row_entropy)
        return (self.inv_stages * i_coord - i_channel) / _LN2


def sinr(cfg, state, power_tx1: float, power_tx2: float, receiver: int) -> float:
    """SINR at one receiver of the interference channel, for scalar powers.

    Own gain times own power over unit noise plus the cross gain times
    the interferer's power; ``cfg`` is an ``ICConfig`` and ``state`` a
    ``ChannelGainState``.
    """
    if receiver == 1:
        return state.g11 * power_tx1 / (1.0 + state.g21 * power_tx2)
    if receiver == 2:
        return state.g22 * power_tx2 / (1.0 + state.g12 * power_tx1)
    raise ValueError(f"receiver must be 1 or 2, got {receiver!r}")


def gain_states(cfg) -> list:
    """The interference model's 16 gain tuples, one state at a time.

    Bit k of the state index, most significant first, puts gain k of
    (g11, g12, g21, g22) at ``cfg.g_max``, and a clear bit at ``cfg.g_min``.
    """
    out = []
    for s in range(N_STATES):
        bits = ((s >> 3) & 1, (s >> 2) & 1, (s >> 1) & 1, s & 1)
        out.append(
            ChannelGainState(*(cfg.g_max if b else cfg.g_min for b in bits))
        )
    return out


def state_prior(cfg):
    """The interference model's state prior, one state and one gain at a
    time: the product over the four gains of ``cfg.p_gmin[k]`` when gain k
    sits at ``g_min`` and of 1 - ``cfg.p_gmin[k]`` when it sits at ``g_max``.
    """
    probs = np.ones(N_STATES)
    for s in range(N_STATES):
        bits = ((s >> 3) & 1, (s >> 2) & 1, (s >> 1) & 1, s & 1)
        for b, p in zip(bits, cfg.p_gmin):
            probs[s] *= (1.0 - p) if b else p
    return StatePrior(probs)


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


def cell_counts(symbols: np.ndarray, indicator: np.ndarray, k: int) -> np.ndarray:
    """(rows, groups * k) counts of each (group, symbol) cell of each row.

    The simulator's counter before it counted from threshold masks: one
    ``(symbols == v) @ indicator`` per symbol.
    """
    out = np.empty((symbols.shape[0], indicator.shape[1], k))
    for v in range(k):
        out[:, :, v] = (symbols == v) @ indicator
    return out.reshape(symbols.shape[0], -1)


def encode_block(
    codebook: np.ndarray, states: np.ndarray, pair_ref: np.ndarray, n: int, eps: float
) -> int | None:
    """The simulator's encoder before it served every block in one pass.

    Index of the typical source codeword whose (state, action) statistics
    deviate least from ``pair_ref``, the first on ties; None when no
    codeword is typical with the block's ``states``.  It reads the codebook
    in chunks of ``_chunk_rows(max(n, |cells|))`` rows.
    """
    if not _absent_cells_typical(states, pair_ref, n, eps):
        return None
    indicator = _indicator(states, pair_ref.shape[0])
    n0, n2 = pair_ref.shape
    pair_flat = pair_ref.ravel()
    best, best_deviation = None, np.inf
    step = _chunk_rows(max(n, n0 * n2))
    for lo in range(0, codebook.shape[0], step):
        counts = cell_counts(codebook[lo : lo + step], indicator, n2)
        typical = np.flatnonzero(_typical_rows(counts, pair_flat, n, eps))
        if typical.size:
            deviation = np.abs(counts[typical] / n - pair_flat).sum(axis=1)
            i = int(np.argmin(deviation))
            if deviation[i] < best_deviation:
                best, best_deviation = lo + int(typical[i]), deviation[i]
    return best


def scan_decode(key, thresholds, groups, ref, size: int, eps: float, chunk) -> tuple[int, int]:
    """The simulator's decoder before it read rows by random access, for one
    block: all ``size`` rows of stream ``key`` drawn as played rows are, with
    ``_symbols``, and their (group, symbol) cells counted by ``row_counts``
    against the positions' ``groups``.  Returns the number of typical rows
    and the first one (0 when none)."""
    n = chunk.shape[1]
    if not _absent_cells_typical(groups, ref, n, eps):
        return 0, 0
    hits = []
    step = 4096
    for lo in range(0, size, step):
        symbols = _symbols(thresholds, key, (min(step, size - lo), n), lo * n)
        counts = row_counts(groups * ref.shape[1] + symbols, ref.size)
        hits.extend(lo + np.flatnonzero(_typical_rows(counts, ref.ravel(), n, eps)))
    return len(hits), int(hits[0]) if hits else 0


def _h2(p: np.ndarray) -> np.ndarray:
    """Binary entropy in bits, 0 at 0 and 1."""
    return -(_xlogx(p) + _xlogx(1 - p)) / _LN2


def bsc_block_state_oracle(stages, delta: float):
    """Exact optimum of the tiny instance (x0 uniform on {0, 1}, payoff 1
    when x0 = x1 = x2) with S-stage block-constant states, when x1 is
    observed through a binary symmetric channel that flips it w.p. ``delta``.

    The problem is: maximize P(x1 = x2 = x0) subject to
    I(X0; X2) / S <= I(X1; Y | X0, X2).  Let a = P(x2 != x0) and b the
    probability that x1 != x0 where x2 = x0, so the payoff is
    (1 - a)(1 - b).  Fano's inequality gives I(X0; X2) >= 1 - h2(a).  With
    b * d = b(1 - d) + (1 - b)d, the map b -> h2(b * delta) is concave, so
    I(X1; Y | X0, X2) <= (1 - a)(h2(b * delta) - h2(delta)) + a(1 - h2(delta)):
    the cells with x2 = x0 carry the first term at most and the others at
    most the channel's capacity.  x2 = x0 flipped w.p. a, and x1 = x0
    flipped w.p. b where x2 = x0 and uniform elsewhere, meet both bounds.
    Hence OPT = max_a (1 - a)(1 - b*(a)), where b*(a) is the least b in
    [0, 1/2] with

        h2(b * delta) >= h2(delta) + ((1 - h2(a)) / S - a (1 - h2(delta))) / (1 - a),

    and an a with no such b is excluded.  At delta = 0 this is the perfect
    channel's optimum.  a > 1/2 cannot beat the 1/2 reached at a = 1/2, so
    a grid over [0, 1/2] is refined around its best point three times.  b*
    is taken by bisection and rounded up, so every value scanned is attained
    and the result never exceeds the optimum.  ``stages`` is one S or an
    array of them, answered at once.  Plain numpy, independent of the
    solver.
    """
    s = np.asarray(stages, dtype=float)[..., None]
    h_delta = float(_h2(np.array(delta)))

    def least_b(target):
        # h2(b * delta) increases in b on [0, 1/2], from h2(delta) to 1
        lo = np.zeros_like(target)
        hi = np.full_like(target, 0.5)
        for _ in range(54):
            mid = 0.5 * (lo + hi)
            short = _h2(mid * (1 - delta) + (1 - mid) * delta) < target
            lo = np.where(short, mid, lo)
            hi = np.where(short, hi, mid)
        return np.where(target > h_delta, hi, 0.0)

    lo, hi = np.zeros(s.shape), np.full(s.shape, 0.5)
    for _ in range(4):
        a = lo + (hi - lo) * np.linspace(0.0, 1.0, 1001)
        target = h_delta + ((1 - _h2(a)) / s - a * (1 - h_delta)) / (1 - a)
        v = np.where(target <= 1.0, (1 - a) * (1 - least_b(target)), -np.inf)
        k = v.argmax(axis=-1)[..., None]
        lo = np.take_along_axis(a, np.maximum(k - 1, 0), axis=-1)
        hi = np.take_along_axis(a, np.minimum(k + 1, a.shape[-1] - 1), axis=-1)
    best = np.take_along_axis(v, k, axis=-1)[..., 0]
    return float(best) if best.ndim == 0 else best
