"""Block-coding simulator for coordination through observed actions.

Validates achievability empirically: given a target joint distribution of
(state, action 1, action 2), the informed side embeds the observing side's
next-block action sequence into its own current-block actions, and the
observing side recovers it from noisy observations.  Concretely, with block
length n and B blocks:

* a source codebook of action sequences for the observing side is drawn
  i.i.d. from the target's X2 marginal;
* per block, the informed side picks the source codeword the observing side
  should play next (the jointly typical one, with the coming block's states,
  whose empirical statistics match the target best), and transmits the
  channel codeword of that index, drawn i.i.d. from the target's conditional
  of X1 given the current block's (state, X2) pair;
* the observing side decodes the index by joint typicality of the four
  sequences (its own actions and past states are known to it, the
  observations arrive through the monitoring channel), then plays the
  corresponding source codeword on the next block;
* block 0 uses the fixed index 0, known to both sides.

Both sides derive their codebooks from shared counter-based randomness:
identical per-block uniforms are pushed through each side's own conditional
quantizer, so the codebooks agree exactly whenever the two sides agree on
the conditioning sequences.  Encoding failures fall back to index 0 and
decoding failures to the smallest typical index (or 0), so an action is
produced at every stage.

The empirical distribution of (state, action 1, action 2, observation) is
counted over all n*B stages, block 0 included.

Memory and time do not grow with M x n x |alphabet|:

* The source codebook is drawn in chunks of ``_CHUNK_BYTES`` worth of
  uniforms and stored as uint8, M*n bytes in all.  The decoder streams the
  block's M candidate codewords in chunks of the same size, in the order of
  one (M, n) draw.  The encoder needs only row m of that draw; it advances
  the Philox counter past the m*n uniforms before it.
* Every cell of the typicality test splits into a part fixed by the block
  (the state for the encoder; state, partner action and observation for the
  decoder) and a symbol that varies with the codeword.  Each block builds an
  (n, fixed parts) one-hot matrix once, and the counts of symbol v are the
  product of the codewords' ``== v`` mask with it.
* A cell whose fixed part does not occur in the block counts 0 in every
  codeword, so its verdict, |0 - n p| <= eps n p, is the same for all of
  them.  It is evaluated once; when it fails (p > 0 and eps < 1), no
  codeword is typical and the block's codebook is not generated at all.
  This changes no outcome: it skips only work whose result is known.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .optimizer import PayoffTable
from .probability import (
    JointDistribution,
    ObservationChannel,
    StatePrior,
    compose,
    conditional_mutual_information,
    total_variation,
)

#: Hard cap on the codebook size ceil(2**(n * rate)); larger requests are a
#: configuration error so memory stays desk-scale.
MAX_CODEBOOK = 2**20

_DEGENERATE_INFO = 1e-12

_STREAM_STATE = 0
_STREAM_SOURCE = 1
_STREAM_CODEBOOK = 2
_STREAM_OBSERVATION = 3

#: Codewords are drawn and tested in chunks of about this many bytes of
#: float64 uniforms, so memory does not grow with the codebook.
_CHUNK_BYTES = 1 << 19


class CodingConfigError(ValueError):
    """Simulation parameters violate a construction requirement."""


def _stream(seed: int, tag: int, block: int = 0) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (tag << 32) | block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _quantize(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Map uniforms through inverse CDFs: symbol ``#{j < K-1 : u >= cdf[..., j]}``.

    ``cdf`` is (..., K), each row nondecreasing, and broadcasts against
    ``uniforms`` after dropping its last axis.  Because the rows are
    nondecreasing, counting only the first K-1 thresholds equals
    ``min(#{j : u >= cdf[..., j]}, K - 1)``, so a row whose last entry falls
    short of 1.0 still yields a valid symbol.  Returns the smallest unsigned
    dtype that holds K - 1.
    """
    k = cdf.shape[-1]
    shape = np.broadcast_shapes(uniforms.shape, cdf.shape[:-1])
    idx = np.zeros(shape, dtype=np.min_scalar_type(k - 1))
    for j in range(k - 1):
        idx += uniforms >= cdf[..., j]
    return idx


def _chunk_rows(width: int) -> int:
    """Codebook rows per chunk when a row's widest temporary is ``width`` floats."""
    return max(1, _CHUNK_BYTES // (8 * width))


def _codebook_row(seed: int, block: int, m: int, n: int) -> np.ndarray:
    """Row ``m`` of the (M, n) uniforms of a block's channel stream.

    Philox emits four 64-bit words per counter step and ``random`` uses one
    word per double, so advancing the counter by m*n // 4 steps and
    discarding m*n % 4 doubles skips exactly the rows before ``m``.
    """
    gen = _stream(seed, _STREAM_CODEBOOK, block)
    skip = m * n
    gen.bit_generator.advance(skip // 4)
    gen.random(skip % 4)
    return gen.random(n)


def _typical_rows(counts: np.ndarray, ref: np.ndarray, n: int, eps: float) -> np.ndarray:
    """Robust typicality per row: every cell count within eps * n * p of n * p.

    Cells with zero reference probability must be unoccupied.
    """
    target = n * ref
    return (np.abs(counts - target) <= eps * target).all(axis=-1)


def _indicator(groups: np.ndarray, n_groups: int) -> np.ndarray:
    """A block's (n, n_groups) one-hot matrix of each position's group.

    A cell is (group, symbol): the group (state, partner action, observation
    for the decoder; the state for the encoder) is fixed by the block, the
    symbol varies with the codebook row.
    """
    out = np.zeros((groups.size, n_groups))
    out[np.arange(groups.size), groups] = 1.0
    return out


def _cell_counts(symbols: np.ndarray, indicator: np.ndarray, k: int) -> np.ndarray:
    """(rows, groups * k) counts of each (group, symbol) cell of each row.

    One ``(symbols == v) @ indicator`` per symbol.  The sums are of 0s and
    1s, so float64 holds them exactly up to 2**53 positions.
    """
    out = np.empty((symbols.shape[0], indicator.shape[1], k))
    for v in range(k):
        out[:, :, v] = (symbols == v) @ indicator
    return out.reshape(symbols.shape[0], -1)


def _absent_cells_typical(indicator: np.ndarray, ref: np.ndarray, n: int, eps: float) -> bool:
    """Typicality of the cells whose group does not occur in the block.

    ``ref`` is (groups, K).  Those cells count 0 in every row, so their
    verdict, computed with ``_typical_rows``'s own expression, is the same
    for all rows; when it fails, no row is typical.
    """
    absent = ~indicator.any(axis=0)
    zeros = np.zeros((1, int(absent.sum()) * ref.shape[1]))
    return bool(_typical_rows(zeros, ref[absent].ravel(), n, eps)[0])


@dataclass(frozen=True, eq=False)
class CodingConfig:
    """Parameters of one coding-simulation run.

    ``rate`` (bits per stage) defaults to the midpoint of the admissible
    interval (I(X0;X2), I(X1;Y|X0,X2)) computed under ``target``; an explicit
    value must lie strictly inside that interval.  When the coordination
    information is zero there is nothing to convey and any finite positive
    rate is accepted.  The codebook holds ceil(2**(n*rate)) sequences,
    capped at ``MAX_CODEBOOK``.
    """

    target: JointDistribution
    channel: ObservationChannel
    prior: StatePrior
    payoff: PayoffTable
    block_length: int
    num_blocks: int
    rate: float | None = None
    epsilon: float = 0.2
    seed: int = 0

    info_coordination: float = field(init=False)
    info_channel: float = field(init=False)
    resolved_rate: float = field(init=False)
    codebook_size: int = field(init=False)

    def __post_init__(self):
        if self.target.axes != ("x0", "x1", "x2"):
            raise CodingConfigError(
                f"target must span ('x0', 'x1', 'x2'), got {self.target.axes}"
            )
        if self.channel.n_inputs != self.target.axis_size("x1"):
            raise CodingConfigError("channel input alphabet does not match target")
        if self.payoff.shape != self.target.pmf.shape:
            raise CodingConfigError("payoff table shape does not match target")
        if self.prior.n_states != self.target.axis_size("x0"):
            raise CodingConfigError("prior length does not match target states")
        state_marginal = self.target.pmf.sum(axis=(1, 2))
        if np.abs(state_marginal - self.prior.probs).max() > 1e-9:
            raise CodingConfigError("target's state marginal disagrees with the prior")
        if self.block_length < 1:
            raise CodingConfigError(f"block_length must be >= 1, got {self.block_length}")
        if self.num_blocks < 2:
            raise CodingConfigError(f"num_blocks must be >= 2, got {self.num_blocks}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise CodingConfigError(f"epsilon must be finite and positive, got {self.epsilon!r}")
        if self.rate is not None and not (math.isfinite(self.rate) and self.rate > 0.0):
            raise CodingConfigError(f"rate must be finite and positive, got {self.rate!r}")

        reference = compose(self.target, self.channel)
        i_coord = conditional_mutual_information(reference, "x0", "x2")
        i_chan = conditional_mutual_information(reference, "x1", "y", ("x0", "x2"))
        if i_coord <= _DEGENERATE_INFO:
            rate = self.rate if self.rate is not None else 1.0 / self.block_length
        else:
            if i_coord >= i_chan:
                raise CodingConfigError(
                    "target admits no rate: coordination information "
                    f"{i_coord:.6f} bits is not below the channel information "
                    f"{i_chan:.6f} bits"
                )
            rate = self.rate if self.rate is not None else 0.5 * (i_coord + i_chan)
            if not i_coord < rate < i_chan:
                raise CodingConfigError(
                    f"rate {rate!r} outside the admissible interval "
                    f"({i_coord:.6f}, {i_chan:.6f}) bits"
                )
        bits = self.block_length * rate
        # 2.0**bits overflows a float long before it matters: past 64 bits
        # the codebook is over the cap anyway.
        size = math.ceil(2.0**bits) if bits < 64 else None
        if size is None or size > MAX_CODEBOOK:
            raise CodingConfigError(
                f"codebook of ceil(2**{bits:.6g}) sequences exceeds the cap "
                f"{MAX_CODEBOOK}; lower the rate or the block length"
            )
        object.__setattr__(self, "info_coordination", float(i_coord))
        object.__setattr__(self, "info_channel", float(i_chan))
        object.__setattr__(self, "resolved_rate", float(rate))
        object.__setattr__(self, "codebook_size", int(size))

    def reference(self) -> JointDistribution:
        """The four-variable distribution the empirical counts should approach."""
        return compose(self.target, self.channel)


@dataclass(frozen=True)
class BlockDiagnostics:
    block: int
    encoded_index: int | None
    decoded_index: int | None
    encoder_failed: bool
    typical_candidates: int | None
    decode_error: bool | None
    payoff_only: bool


@dataclass(frozen=True, eq=False)
class SimResult:
    """Outcome of one simulated run."""

    empirical: JointDistribution
    tv_to_target: float
    encoder_failures: int
    decoder_errors: int
    average_payoff: float
    blocks: tuple[BlockDiagnostics, ...]

    def to_dict(self) -> dict:
        return {
            "tv_to_target": self.tv_to_target,
            "encoder_failures": self.encoder_failures,
            "decoder_errors": self.decoder_errors,
            "average_payoff": self.average_payoff,
            "blocks": [asdict(d) for d in self.blocks],
        }


def _encode(
    codebook: np.ndarray, indicator: np.ndarray, pair_ref: np.ndarray, n: int, eps: float
) -> int | None:
    """Index of the typical source codeword whose (state, action) statistics
    deviate least from ``pair_ref``, the first on ties; None when no
    codeword is typical with the coming block's states."""
    if not _absent_cells_typical(indicator, pair_ref, n, eps):
        return None
    n0, n2 = pair_ref.shape
    pair_flat = pair_ref.ravel()
    best, best_deviation = None, np.inf
    step = _chunk_rows(max(n, n0 * n2))
    for lo in range(0, codebook.shape[0], step):
        counts = _cell_counts(codebook[lo : lo + step], indicator, n2)
        typical = np.flatnonzero(_typical_rows(counts, pair_flat, n, eps))
        if typical.size:
            deviation = np.abs(counts[typical] / n - pair_flat).sum(axis=1)
            i = int(np.argmin(deviation))
            if deviation[i] < best_deviation:
                best, best_deviation = lo + int(typical[i]), deviation[i]
    return best


def _decode(
    gen: np.random.Generator,
    cdf: np.ndarray,
    indicator: np.ndarray,
    ref: np.ndarray,
    size: int,
    eps: float,
    chunk: np.ndarray,
) -> tuple[int, int]:
    """Count the typical candidate codewords and find the first one.

    Candidates are drawn from ``gen`` into ``chunk``, a reused (rows, n)
    buffer, in the order of one (size, n) draw, and mapped through ``cdf``;
    ``ref`` is (groups, |X1|).  Returns the number of typical rows and the
    smallest typical index (0 when there is none).
    """
    step, n = chunk.shape
    if not _absent_cells_typical(indicator, ref, n, eps):
        return 0, 0
    k = ref.shape[1]
    ref_flat = ref.ravel()
    n_typical, first = 0, None
    for lo in range(0, size, step):
        rows = min(step, size - lo)
        uniforms = gen.random(out=chunk[:rows])
        counts = _cell_counts(_quantize(cdf, uniforms), indicator, k)
        typical = _typical_rows(counts, ref_flat, n, eps)
        hits = int(typical.sum())
        if hits and first is None:
            first = lo + int(np.argmax(typical))
        n_typical += hits
    return n_typical, first or 0


def run(cfg: CodingConfig) -> SimResult:
    """Simulate ``cfg.num_blocks`` blocks and return the empirical outcome."""
    n = cfg.block_length
    blocks = cfg.num_blocks
    eps = cfg.epsilon
    size = cfg.codebook_size
    n0, n1, n2 = cfg.target.pmf.shape
    ny = cfg.channel.n_outputs
    reference = cfg.reference()
    pair_ref = reference.pmf.sum(axis=(1, 3))  # (n0, n2)
    # cells (x0, x1, x2, y) grouped by what the decoder knows, (x0, x2, y)
    decoder_ref = np.transpose(reference.pmf, (0, 2, 3, 1)).reshape(-1, n1)

    # Conditional of the informed side's action given (state, partner action);
    # unsupported (state, partner) pairs get a uniform placeholder that the
    # dynamics never visit with matching statistics.
    m02 = cfg.target.pmf.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond_x1 = np.where(
            m02[:, None, :] > 0.0,
            cfg.target.pmf / np.where(m02[:, None, :] > 0.0, m02[:, None, :], 1.0),
            1.0 / n1,
        )
    cond_cdf = np.cumsum(np.transpose(cond_x1, (0, 2, 1)), axis=-1)  # (n0, n2, n1)
    gamma_cdf = np.cumsum(cfg.channel.matrix, axis=-1)  # (n1, ny)
    x2_cdf = np.cumsum(cfg.target.pmf.sum(axis=(0, 1)))

    # wide integers: the cell indices computed from the states must not wrap
    states = _quantize(
        np.cumsum(cfg.prior.probs), _stream(cfg.seed, _STREAM_STATE).random((blocks, n))
    ).astype(np.intp)
    # One buffer for every chunk of uniforms.  Allocating each chunk afresh
    # let the allocator return the memory to the system and fault it back in:
    # on a 2-core Xeon VM that was up to a third of a binary n=400 run.
    chunk = np.empty((min(size, _chunk_rows(max(n, decoder_ref.size))), n))
    source_gen = _stream(cfg.seed, _STREAM_SOURCE)
    source_codebook = np.empty((size, n), dtype=np.min_scalar_type(n2 - 1))
    for lo in range(0, size, chunk.shape[0]):
        part = source_codebook[lo : lo + chunk.shape[0]]
        part[...] = _quantize(x2_cdf, source_gen.random(out=chunk[: part.shape[0]]))

    quad_counts = np.zeros(n0 * n1 * n2 * ny, dtype=np.int64)
    diagnostics: list[BlockDiagnostics] = []
    encoder_failures = 0
    decoder_errors = 0

    play_x2 = source_codebook[0]
    belief_x2 = source_codebook[0]

    for b in range(blocks):
        last = b == blocks - 1
        x0 = states[b]

        if last:
            # no index to convey; the channel codeword is row 0
            m_next = 0
            enc_failed = False
        else:
            # encoder looks at the coming block's states; among the typical
            # source codewords it keeps the one whose empirical pair
            # statistics sit closest to the target (larger codebooks then
            # cover the target ever more finely)
            m_next = _encode(source_codebook, _indicator(states[b + 1], n0), pair_ref, n, eps)
            enc_failed = m_next is None
            if enc_failed:
                m_next = 0
                encoder_failures += 1
        x1 = _quantize(cond_cdf[x0, belief_x2], _codebook_row(cfg.seed, b, m_next, n))

        obs_gen = _stream(cfg.seed, _STREAM_OBSERVATION, b)
        y = _quantize(gamma_cdf[x1], obs_gen.random(n))

        if last:
            diagnostics.append(
                BlockDiagnostics(
                    block=b,
                    encoded_index=None,
                    decoded_index=None,
                    encoder_failed=False,
                    typical_candidates=None,
                    decode_error=None,
                    payoff_only=True,
                )
            )
        else:
            n_typical, m_hat = _decode(
                _stream(cfg.seed, _STREAM_CODEBOOK, b),
                cond_cdf[x0, play_x2],
                _indicator((x0 * n2 + play_x2) * ny + y, decoder_ref.shape[0]),
                decoder_ref,
                size,
                eps,
                chunk,
            )
            error = m_hat != m_next
            if error:
                decoder_errors += 1
            diagnostics.append(
                BlockDiagnostics(
                    block=b,
                    encoded_index=m_next,
                    decoded_index=m_hat,
                    encoder_failed=enc_failed,
                    typical_candidates=n_typical,
                    decode_error=error,
                    payoff_only=False,
                )
            )

        played = ((x0 * n1 + x1) * n2 + play_x2) * ny + y
        quad_counts += np.bincount(played, minlength=quad_counts.shape[0])

        if not last:
            play_x2 = source_codebook[m_hat]
            belief_x2 = source_codebook[m_next]

    total = n * blocks
    empirical = JointDistribution(
        quad_counts.reshape(n0, n1, n2, ny) / total, ("x0", "x1", "x2", "y")
    )
    action_marginal = empirical.pmf.sum(axis=3)
    average_payoff = float((action_marginal * cfg.payoff.values).sum())
    return SimResult(
        empirical=empirical,
        tv_to_target=total_variation(empirical, reference),
        encoder_failures=encoder_failures,
        decoder_errors=decoder_errors,
        average_payoff=average_payoff,
        blocks=tuple(diagnostics),
    )
