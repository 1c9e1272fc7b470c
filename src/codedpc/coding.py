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

* No codebook is stored.  Both are Philox streams read in the order of one
  (M, n) draw: the encoder scans the source codebook and the decoder the
  block's channel codebook, through one loop that draws ``_CHUNK_BYTES``
  worth of raw 64-bit words at a time.  A codeword that is played (a source
  row, the encoder's channel row) is fetched alone, by advancing the Philox
  counter past the m*n words before it.
* Each stream is keyed by (seed, stream tag, block) through a seed object
  that hands Philox its key, so opening one reads no OS entropy.
* Every cell of the typicality test splits into a part fixed by the block
  (the state for the encoder; state, partner action and observation for the
  decoder) and a symbol that varies with the codeword.  Each block builds an
  (n, fixed parts) one-hot matrix once; its product with the codewords'
  ``symbol >= v`` mask counts symbol >= v, and count(v) is the difference of
  two such counts.  The masks compare the words with the CDF, so neither
  side forms the symbols of the codewords it scans, nor even their uniforms:
  the uniform of word w is (w >> 11) * 2**-53, which reaches a level exactly
  when w >> 11 reaches ceil(level * 2**53).
* The encoder reads only the coming block's states, so all blocks' indices
  are found up front, in one scan of the source codebook whose masks serve
  every block.
* A cell whose fixed part does not occur in the block counts 0 in every
  codeword, so its verdict, |0 - n p| <= eps n p, is the same for all of
  them.  It is evaluated once; when it fails (p > 0 and eps < 1), no
  codeword is typical and the block's codebook is not generated at all.
  This changes no outcome: it skips only work whose result is known.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .optimizer import PayoffTable
from .probability import (
    JointDistribution,
    ObservationChannel,
    StatePrior,
    _is_integer,
    _is_real,
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
#: float64 masks, so memory does not grow with the codebook.
_CHUNK_BYTES = 1 << 19

#: A uniform is its word's top 53 bits, (w >> 11) * 2**-53.
_WORD_SHIFT = 11
_UNIFORM_STEPS = 2.0**53


class CodingConfigError(ValueError):
    """Simulation parameters violate a construction requirement."""


@functools.cache
def _key_seed() -> type:
    """The seed class whose ``generate_state`` is a given Philox key.

    ``Philox(key=...)`` builds an entropy-seeded ``SeedSequence`` and then
    ignores it; this seed hands over the key with no OS read.  The class is
    defined on first use because numpy loads ``numpy.random`` lazily, and
    loading it costs more than a short run.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeySeed(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            # Philox asks for its key: two uint64 words
            return self.key

    return KeySeed


def _stream(seed: int, tag: int, block: int = 0) -> np.random.Generator:
    """The stream ``Philox(key=[seed, tag << 32 | block])``, a new object per call."""
    key = np.array([seed, (tag << 32) | block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_seed()(key)))


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


def _codebook_row(seed: int, tag: int, block: int, m: int, n: int) -> np.ndarray:
    """Row ``m`` of the (M, n) uniforms of stream ``tag`` of ``block``.

    Philox emits four 64-bit words per counter step and ``random`` uses one
    word per double, so advancing the counter by m*n // 4 steps and
    discarding m*n % 4 doubles skips exactly the rows before ``m``.
    """
    gen = _stream(seed, tag, block)
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


def _count_cells(masks, indicator: np.ndarray, sizes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(rows, K, groups) counts of each (symbol, group) cell of each row, from
    ``masks``, the rows' (K-1, rows, n) 0/1 masks of symbol >= 1, ..., K-1,
    and ``sizes = indicator.sum(0)``, the count of symbol >= 0.  The sums of
    0s and 1s are exact in float64 below 2**53."""
    out[:, 0] = sizes
    for v, mask in enumerate(masks, 1):
        np.matmul(mask, indicator, out=out[:, v])
        out[:, v - 1] -= out[:, v]
    return out


def _scan(bits, size: int, levels: np.ndarray, chunk: np.ndarray, groups: int):
    """Draw ``size`` codewords from the bit generator ``bits`` in the order of
    one (size, n) draw and yield ``lo, masks, counts`` per chunk of them, rows
    lo, lo+1, ...: their (K-1, rows, n) masks of symbol >= 1, ..., K-1 of
    ``_quantize(cdf, uniforms)``, and a (rows, K, groups) buffer for their
    cell counts.  ``levels`` is ``cdf[..., :-1]`` with its last axis first:
    the rows of cdf are nondecreasing, so symbol >= v exactly when
    u >= levels[v - 1].  A uniform is (w >> 11) * 2**-53 of a raw word w, and
    the level is compared as the integer ceil(level * 2**53), clipped to
    [0, 2**53] so that levels outside [0, 1] keep their verdict.  The masks
    split ``chunk``, (rows, n), in K-1 slots.  With K = 1 there is no mask,
    and nothing is drawn."""
    k = len(levels) + 1
    n = chunk.shape[1]
    step = chunk.shape[0] // max(k - 1, 1)
    slots = chunk[: max(k - 1, 1) * step].reshape(-1, step, n)
    counts = np.empty((step, k, groups))
    thresholds = np.ceil(np.clip(levels, 0.0, 1.0) * _UNIFORM_STEPS).astype(np.uint64)
    for lo in range(0, size, step):
        rows = min(step, size - lo)
        masks = slots[: k - 1, :rows]
        if k > 1:
            words = bits.random_raw(rows * n).reshape(rows, n)
            np.right_shift(words, _WORD_SHIFT, out=words)
            for mask, threshold in zip(masks, thresholds):
                np.greater_equal(words, threshold, out=mask, casting="unsafe")
            # freed before the next draw, so that draw reuses its pages
            # instead of faulting in fresh ones
            del words
        yield lo, masks, counts[:rows]


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
    #: The four-variable distribution the empirical counts should approach.
    reference: JointDistribution = field(init=False)

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
        for name, least in (("block_length", 1), ("num_blocks", 2), ("seed", 0)):
            value = getattr(self, name)
            if not _is_integer(value):
                raise CodingConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise CodingConfigError(f"{name} must be >= {least}, got {value!r}")
            # numpy integers overflow the Philox key and counter arithmetic
            object.__setattr__(self, name, int(value))
        # the seed is one 64-bit word of the Philox key; a wider one would alias
        if self.seed >= 2**64:
            raise CodingConfigError(f"seed must be < 2**64, got {self.seed!r}")
        # bool is an int subclass: True used to run as 1.0
        for name in ("epsilon", "rate") if self.rate is not None else ("epsilon",):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value) and value > 0.0):
                raise CodingConfigError(f"{name} must be finite and positive, got {value!r}")

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
        object.__setattr__(self, "reference", reference)


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
            "blocks": [dict(vars(d)) for d in self.blocks],
        }


def _encode_all(bits, x2_cdf, size: int, states, pair_ref, eps: float, chunk) -> list[int | None]:
    """Per row of ``states``, the typical source codeword whose (state, action)
    statistics deviate least from ``pair_ref``, the first on ties; None when
    none is typical.  The ``size`` codewords are drawn from ``bits`` and
    quantized with ``x2_cdf``; each chunk's masks serve every block whose
    absent cells pass."""
    n = chunk.shape[1]
    n0 = pair_ref.shape[0]
    pair_flat, ref_flat = pair_ref.ravel(), pair_ref.T.ravel()
    best, best_deviation = [None] * len(states), [np.inf] * len(states)
    indicators = [(b, _indicator(x0, n0)) for b, x0 in enumerate(states)]
    live = [(b, i, i.sum(0)) for b, i in indicators if _absent_cells_typical(i, pair_ref, n, eps)]
    if not live:
        return best
    for lo, masks, counts in _scan(bits, size, x2_cdf[:-1], chunk, n0):
        for b, indicator, sizes in live:
            cells = _count_cells(masks, indicator, sizes, counts)
            verdicts = _typical_rows(cells.reshape(len(cells), -1), ref_flat, n, eps)
            typical = np.flatnonzero(verdicts)
            if typical.size:
                # summed in (group, symbol) order: a float sum's bits follow its order
                by_group = cells[typical].transpose(0, 2, 1).reshape(typical.size, -1)
                deviation = np.abs(by_group / n - pair_flat).sum(axis=1)
                i = int(np.argmin(deviation))
                if deviation[i] < best_deviation[b]:
                    best[b], best_deviation[b] = lo + int(typical[i]), deviation[i]
    return best


def _decode(open_bits, cdf, indicator, ref, size: int, eps: float, chunk) -> tuple[int, int]:
    """Count the typical candidate codewords and find the first one.

    The ``size`` candidates are drawn from the bit generator that
    ``open_bits()`` returns, called only when a candidate can be typical, and
    counted from their threshold masks against ``cdf`` (n, |X1|); ``ref`` is
    (groups, |X1|).  Returns the number of typical rows and the first one
    (0 when none)."""
    n = chunk.shape[1]
    if not _absent_cells_typical(indicator, ref, n, eps):
        return 0, 0
    ref_flat, sizes = ref.T.ravel(), indicator.sum(axis=0)
    levels = np.ascontiguousarray(cdf[:, :-1].T)
    n_typical, first = 0, None
    for lo, masks, counts in _scan(open_bits(), size, levels, chunk, indicator.shape[1]):
        cells = _count_cells(masks, indicator, sizes, counts)
        typical = _typical_rows(cells.reshape(len(cells), -1), ref_flat, n, eps)
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
    pair_ref = cfg.reference.pmf.sum(axis=(1, 3))  # (n0, n2)
    # cells (x0, x1, x2, y) grouped by what the decoder knows, (x0, x2, y)
    decoder_ref = np.transpose(cfg.reference.pmf, (0, 2, 3, 1)).reshape(-1, n1)

    # Conditional of the informed side's action given (state, partner action);
    # unsupported (state, partner) pairs get a uniform placeholder that the
    # dynamics never visit with matching statistics.
    m02 = cfg.target.pmf.sum(axis=1)
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
    # One buffer for every chunk's masks, a row per mask at least.  Allocating
    # each chunk afresh let the allocator return the memory to the system and
    # fault it back in: on a 2-core Xeon VM that was up to a third of a binary
    # n=400 run.
    slots = max(n1, n2, 2) - 1
    rows = min(_chunk_rows(max(n, decoder_ref.size)), size * slots)
    chunk = np.empty((max(rows, slots), n))

    def source_row(m: int) -> np.ndarray:
        return _quantize(x2_cdf, _codebook_row(cfg.seed, _STREAM_SOURCE, 0, m, n))

    # The encoder reads the coming block's states, nothing the decoder outputs;
    # among the typical source codewords it keeps the one whose pair
    # statistics sit closest to the target (larger codebooks then cover the
    # target ever more finely).  The last block conveys no index: row 0.
    source = _stream(cfg.seed, _STREAM_SOURCE).bit_generator
    encoded = [*_encode_all(source, x2_cdf, size, states[1:], pair_ref, eps, chunk), 0]

    quad_counts = np.zeros(n0 * n1 * n2 * ny, dtype=np.int64)
    diagnostics: list[BlockDiagnostics] = []

    play_x2 = belief_x2 = source_row(0)

    for b in range(blocks):
        last = b == blocks - 1
        x0 = states[b]

        m_next = encoded[b]
        enc_failed = m_next is None
        if enc_failed:
            m_next = 0
        row = _codebook_row(cfg.seed, _STREAM_CODEBOOK, b, m_next, n)
        x1 = _quantize(cond_cdf[x0, belief_x2], row)

        obs_gen = _stream(cfg.seed, _STREAM_OBSERVATION, b)
        y = _quantize(gamma_cdf[x1], obs_gen.random(n))

        played = ((x0 * n1 + x1) * n2 + play_x2) * ny + y
        quad_counts += np.bincount(played, minlength=quad_counts.shape[0])

        n_typical = m_hat = error = None
        if not last:
            groups = _indicator((x0 * n2 + play_x2) * ny + y, decoder_ref.shape[0])
            n_typical, m_hat = _decode(
                lambda: _stream(cfg.seed, _STREAM_CODEBOOK, b).bit_generator,
                cond_cdf[x0, play_x2], groups, decoder_ref, size, eps, chunk,
            )
            error = m_hat != m_next
            belief_x2 = source_row(m_next)
            play_x2 = belief_x2 if m_hat == m_next else source_row(m_hat)
        diagnostics.append(
            BlockDiagnostics(
                block=b,
                encoded_index=None if last else m_next,
                decoded_index=m_hat,
                encoder_failed=enc_failed,
                typical_candidates=n_typical,
                decode_error=error,
                payoff_only=last,
            )
        )

    total = n * blocks
    empirical = JointDistribution(
        quad_counts.reshape(n0, n1, n2, ny) / total, ("x0", "x1", "x2", "y")
    )
    action_marginal = empirical.pmf.sum(axis=3)
    average_payoff = float((action_marginal * cfg.payoff.values).sum())
    return SimResult(
        empirical=empirical,
        tv_to_target=total_variation(empirical, cfg.reference),
        encoder_failures=sum(d.encoder_failed for d in diagnostics),
        decoder_errors=sum(bool(d.decode_error) for d in diagnostics),
        average_payoff=average_payoff,
        blocks=tuple(diagnostics),
    )
