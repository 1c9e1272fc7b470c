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

Both sides derive their codebooks from shared counter-based randomness.
Every random value is a raw 64-bit word of a Philox stream keyed by (seed,
stream tag, block), and each side maps the same words to symbols through
its own conditional CDF, so the codebooks agree exactly whenever the two
sides agree on the conditioning sequences.  Encoding failures fall back to
index 0 and decoding failures to the smallest typical index (or 0), so an
action is produced at every stage.

The empirical distribution of (state, action 1, action 2, observation) is
counted over all n*B stages, block 0 included.

One rule maps a word to a symbol.  Word w stands for the uniform
(w >> 11) * 2**-53, and its symbol is the number of the CDF's inner levels
that this uniform reaches.  It reaches a level exactly when w >> 11 reaches
ceil(level * 2**53), so each CDF becomes integer thresholds once per run,
and no side ever forms a uniform.  The states, the observations and every
codeword, whether played or scanned, go through these thresholds.

Memory and time do not grow with M x n x |alphabet|:

* No codebook is stored.  Both are streams read in the order of one (M, n)
  draw: the encoder scans the source codebook and the decoder the block's
  channel codebook, through one loop that draws ``_CHUNK_BYTES`` worth of
  words at a time.  A codeword that is played (a source row, the encoder's
  channel row) is fetched alone, by advancing the Philox counter past the
  m*n words before it.
* A stream is opened through a seed object that hands Philox its key, so
  opening one reads no OS entropy.
* Every cell of the typicality test splits into a part fixed by the block
  (the state for the encoder; state, partner action and observation for the
  decoder) and a symbol that varies with the codeword.  Each block builds an
  (n, fixed parts) one-hot matrix once; its product with the codewords'
  ``symbol >= v`` mask counts symbol >= v, and count(v) is the difference of
  two such counts.  A mask compares the words with one threshold, so a scan
  never forms the symbols of the codewords it reads.
* The encoder and the decoder share this scan.  The encoder reads only the
  coming block's states, so all blocks' indices are found up front, in one
  scan of the source codebook whose masks serve every block.
* A cell whose fixed part does not occur in the block counts 0 in every
  codeword, so its verdict, |0 - n p| <= eps n p, is the same for all of
  them.  It is evaluated once; when it fails (p > 0 and eps < 1), no
  codeword is typical and the block's codebook is not generated at all.
  This changes no outcome: it skips only work whose result is known.
* A codeword with a symbol x1 at position t whose cell (g_t, x1) has
  reference probability 0 counts more than 0 where the target is 0, so it
  is not typical.  On perfect monitoring the observation fixes x1, and
  only codewords that equal the observed sequence can be typical.  Philox
  is counter-based: word j of a stream is one function of the key and the
  counter j // 4 + 1.  So the decoder evaluates that function in numpy for
  the positions that can draw a disallowed symbol, a counter block of four
  at a time, drops each codeword at its first disallowed symbol, and draws
  and counts only the few left, through the same scan.  A necessary
  condition drops only codewords the count would reject, so the verdicts
  stay the same.  Where no symbol is disallowed (a channel with
  full-support rows), the decoder scans the whole codebook as above.
  What the informed side sends depends on the encoder's indices alone, so
  once they are known, so is every block's channel codeword and
  observation; the decoder's own action differs from the one the encoder
  assumes only after a decoding error.  Every coded block is therefore
  decoded at once with the assumed action, and a block that follows a
  decoding error once more, alone, with the action played.  Decoding the
  blocks together lets each round of random access evaluate Philox for all
  of them in a few calls, so the fixed cost of a call, about 200 small
  numpy operations, is paid per round rather than per block.
"""

from __future__ import annotations

import functools
import itertools
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

#: Philox4x64's round multipliers and key increments (Salmon et al., SC 2011).
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_WORD_MASK = (1 << 64) - 1
_LOW32 = 0xFFFFFFFF
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> 32

#: Random access reads rows in chunks of ``_chunk_rows(_PHILOX_WIDTH)`` (1,024
#: at the default chunk size).
_PHILOX_WIDTH = 64
#: One Philox evaluation covers the live rows of whole groups, up to this many:
#: a call's fixed cost, about 200 small numpy operations, is that of some 1,000
#: rows, and its temporaries take about 16 words per row.
_PHILOX_LANES = 4096
#: Random access stops testing positions once at most this many rows of a
#: group (a block's rows of one m*n mod 4 in one chunk) are left, and draws
#: them whole.
_FEW_ROWS = 16


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


def _stream(seed: int, tag: int, block: int = 0, counter: int = 0) -> np.random.Philox:
    """The stream ``Philox(key=[seed, tag << 32 | block])``, a new object per
    call, advanced by ``counter`` steps of four words."""
    key = np.array([seed, (tag << 32) | block], dtype=np.uint64)
    return np.random.Philox(_key_seed()(key), counter=counter)


def _thresholds(cdf: np.ndarray) -> np.ndarray:
    """The (..., K-1) ``uint64`` thresholds of the CDFs ``cdf``, (..., K).

    A word's uniform (w >> 11) * 2**-53 reaches ``cdf[..., j]`` exactly when
    w >> 11 reaches its threshold ceil(level * 2**53).  The level is clipped
    to [0, 1] first, so that levels outside it from cumsum rounding keep
    their verdict.  The last entry is dropped: see ``_quantize``.
    """
    return np.ceil(np.clip(cdf[..., :-1], 0.0, 1.0) * _UNIFORM_STEPS).astype(np.uint64)


def _quantize(thresholds: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Map words to symbols: ``#{j : w >> 11 >= thresholds[..., j]}``.

    ``thresholds`` is ``_thresholds(cdf)`` and broadcasts against ``words``
    after dropping its last axis.  Because the CDF rows are nondecreasing,
    counting only their first K-1 levels equals ``min(#{j : u >= cdf[..., j]},
    K - 1)`` for the word's uniform u, so a row whose last entry falls short
    of 1.0 still yields a valid symbol.  Returns the smallest unsigned dtype
    that holds K - 1.
    """
    k = thresholds.shape[-1] + 1
    top = words >> _WORD_SHIFT
    idx = np.zeros(np.broadcast_shapes(words.shape, thresholds.shape[:-1]),
                   dtype=np.min_scalar_type(k - 1))
    for j in range(k - 1):
        idx += top >= thresholds[..., j]
    return idx


def _words(key: tuple, shape, skip: int = 0) -> np.ndarray:
    """``shape`` words of stream ``key``, (seed, tag, block), from word
    ``skip`` on; row m of an (M, n) draw starts at skip = m*n.

    Philox emits four words per counter step, so starting the counter at
    skip // 4 and discarding skip % 4 words skips exactly ``skip``.
    """
    bits = _stream(*key, counter=skip // 4)
    bits.random_raw(skip % 4)
    return bits.random_raw(shape)


def _symbols(thresholds: np.ndarray, key: tuple, shape, skip: int = 0) -> np.ndarray:
    """The symbols of the words ``_words(key, shape, skip)``."""
    return _quantize(thresholds, _words(key, shape, skip))


def _mulhilo(a: np.ndarray):
    """The high and low words of the 128-bit products a * ``_PHILOX_M``,
    from 32-bit halves; every partial sum fits in 64 bits, and uint64 arrays
    wrap.  The high words overwrite ``a``, so that fewer arrays of its size
    are alive at once."""
    lo = a * _PHILOX_M
    a_lo = a & _LOW32
    a >>= 32
    mid = a * _PHILOX_M_LO + ((a_lo * _PHILOX_M_LO) >> 32)
    mid2 = a_lo * _PHILOX_M_HI + (mid & _LOW32)
    a *= _PHILOX_M_HI
    a += (mid >> 32) + (mid2 >> 32)
    return a, lo


def _round_keys(keys: list) -> np.ndarray:
    """The (10, 2, streams) Philox4x64-10 round keys of the streams ``keys``,
    (seed, tag, block) each, the key of ``_stream`` bumped once per round."""
    # bumped in Python ints: a numpy uint64 scalar warns when it wraps
    words = [(seed, tag << 32 | block) for seed, tag, block in keys]
    return np.array([[[(k[i] + r * w) & _WORD_MASK for k in words] for i, w in enumerate(_PHILOX_W)]
                     for r in range(10)], dtype=np.uint64)


def _philox_block(round_keys: np.ndarray, stream: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """The (4, lanes) words 4c - 4, ..., 4c - 1 at each lane's uint64 counter
    c >= 1 of stream ``stream`` of ``round_keys``, a ``_round_keys`` table,
    without drawing the words before them.  Philox4x64-10 maps the counter
    (c, 0, 0, 0) and the key to four words; numpy steps the counter before
    it draws, so word j of a stream is word j % 4 of counter j // 4 + 1."""
    # (x0, x2), which the multipliers act on, and (x1, x3); a round maps them
    # to (hi(x2) ^ x1 ^ k0, hi(x0) ^ x3 ^ k1) and (lo(x2), lo(x0))
    even = np.zeros((2, counter.size), dtype=np.uint64)
    even[0] = counter
    odd = np.zeros_like(even)
    for keys in round_keys:
        hi, lo = _mulhilo(even)
        odd ^= hi[::-1]
        odd ^= keys[:, stream]
        even, odd = odd, lo[::-1]
    # interleaved back to x0, x1, x2, x3
    return np.stack((even, odd), axis=1).reshape(4, -1)


def _chunk_rows(width: int) -> int:
    """Codebook rows per chunk when a row's widest temporary is ``width`` floats."""
    return max(1, _CHUNK_BYTES // (8 * width))


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


def _scan(draw, size: int, thresholds: np.ndarray, chunk: np.ndarray, groups: int):
    """Draw ``size`` codewords and yield ``lo, masks, counts`` per chunk of
    them, rows lo, lo+1, ...: their (K-1, rows, n) masks of symbol >= 1, ...,
    K-1 of ``_quantize(thresholds, words)``, and a (rows, K, groups) buffer
    for their cell counts.  ``draw(count)`` returns the words of the next
    count // n codewords; a bit generator's ``random_raw`` reads them in the
    order of one (size, n) draw.  ``thresholds`` is (K-1,) or (n, K-1); the
    CDF rows are nondecreasing, so symbol >= v exactly when w >> 11 reaches
    threshold v - 1.  The masks split ``chunk``, (rows, n), in K-1 slots.
    With K = 1 there is no mask, and nothing is drawn."""
    k = thresholds.shape[-1] + 1
    n = chunk.shape[1]
    step = chunk.shape[0] // max(k - 1, 1)
    slots = chunk[: max(k - 1, 1) * step].reshape(-1, step, n)
    counts = np.empty((step, k, groups))
    thresholds = np.ascontiguousarray(np.moveaxis(thresholds, -1, 0))
    for lo in range(0, size, step):
        rows = min(step, size - lo)
        masks = slots[: k - 1, :rows]
        if k > 1:
            words = draw(rows * n).reshape(rows, n)
            np.right_shift(words, _WORD_SHIFT, out=words)
            for mask, threshold in zip(masks, thresholds):
                np.greater_equal(words, threshold, out=mask, casting="unsafe")
            # freed before the next draw, so that draw reuses its pages
            # instead of faulting in fresh ones
            del words
        yield lo, masks, counts[:rows]


def _absent_cells_typical(groups: np.ndarray, ref: np.ndarray, n: int, eps: float) -> bool:
    """Typicality of the cells whose group does not occur in the block, whose
    positions are in ``groups``.

    ``ref`` is (groups, K).  Those cells count 0 in every row, so their
    verdict, computed with ``_typical_rows``'s own expression, is the same
    for all rows; when it fails, no row is typical.
    """
    absent = np.bincount(groups, minlength=ref.shape[0]) == 0
    zeros = np.zeros((1, int(absent.sum()) * ref.shape[1]))
    return bool(_typical_rows(zeros, ref[absent].ravel(), n, eps)[0])


def _typical_chunks(draw, size: int, thresholds, chunk, indicators: dict, ref, eps: float):
    """Scan ``size`` codewords, drawn by ``draw`` as in ``_scan``, for each
    block's typicality and yield ``b, lo, cells, typical`` per chunk and
    block b of ``indicators``: the chunk's first row ``lo``, its rows'
    (rows, K, groups) cell counts against block b's (n, groups) one-hot
    matrix ``indicators[b]``, and each row's verdict against ``ref``,
    (groups, K).  The caller keeps out the blocks whose absent cells fail
    (``_absent_cells_typical``): no row of theirs is typical."""
    n = chunk.shape[1]
    live = [(b, i, i.sum(0)) for b, i in indicators.items()]
    ref_flat = ref.T.ravel()
    for lo, masks, counts in _scan(draw, size, thresholds, chunk, ref.shape[0]):
        for b, indicator, sizes in live:
            cells = _count_cells(masks, indicator, sizes, counts)
            yield b, lo, cells, _typical_rows(cells.reshape(len(cells), -1), ref_flat, n, eps)


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
        if self.channel.n_inputs != self.target.pmf.shape[1]:
            raise CodingConfigError("channel input alphabet does not match target")
        if self.payoff.shape != self.target.pmf.shape:
            raise CodingConfigError("payoff table shape does not match target")
        if self.prior.n_states != self.target.pmf.shape[0]:
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


def _encode_all(key, thresholds, size: int, states, pair_ref, eps: float, chunk) -> list[int | None]:
    """Per row of ``states``, the typical source codeword whose (state, action)
    statistics deviate least from ``pair_ref``, the first on ties; None when
    none is typical.  The ``size`` codewords are read from stream ``key``
    with the action's ``thresholds``; each chunk serves every block."""
    n = chunk.shape[1]
    pair_flat = pair_ref.ravel()
    best, best_deviation = [None] * len(states), [np.inf] * len(states)
    live = {b: _indicator(x0, pair_ref.shape[0])
            for b, x0 in enumerate(states) if _absent_cells_typical(x0, pair_ref, n, eps)}
    if not live:
        return best
    scan = _typical_chunks(_stream(*key).random_raw, size, thresholds, chunk, live, pair_ref, eps)
    for b, lo, cells, verdicts in scan:
        typical = np.flatnonzero(verdicts)
        if typical.size:
            # summed in (group, symbol) order: a float sum's bits follow its order
            by_group = cells[typical].transpose(0, 2, 1).reshape(typical.size, -1)
            deviation = np.abs(by_group / n - pair_flat).sum(axis=1)
            i = int(np.argmin(deviation))
            if deviation[i] < best_deviation[b]:
                best[b], best_deviation[b] = lo + int(typical[i]), deviation[i]
    return best


def _test_groups(call: list, blocks: list, keys: np.ndarray, n: int):
    """Test the groups ``call`` of ``_allowed_rows`` in their next counter
    block, with one Philox evaluation, and keep in each the rows that pass."""
    sizes = [g[2].size for g in call]
    counters = np.concatenate([rows * n // 4 + (blocks[j][3][i] + phase) // 4 + 1
                               for j, phase, rows, i in call], dtype=np.uint64, casting="unsafe")
    words = _philox_block(keys, np.repeat([g[0] for g in call], sizes), counters)
    for g, group_words in zip(call, np.split(words, np.cumsum(sizes)[:-1], axis=1)):
        j, phase, rows, i = g
        _, thresholds, allowed, positions = blocks[j]
        block = (positions[i] + phase) // 4
        ok = np.ones(rows.size, dtype=bool)
        while i < len(positions) and (positions[i] + phase) // 4 == block:
            t = int(positions[i])
            ok &= allowed[t, _quantize(thresholds[t], group_words[(t + phase) % 4])]
            i += 1
        g[2], g[3] = rows[ok], i


def _allowed_rows(blocks: list, size: int, n: int) -> list[np.ndarray]:
    """Per block ``(key, thresholds, allowed, positions)``, the rows m <
    ``size`` of the (size, n) draw of stream ``key``, ascending, that include
    every row whose symbol, ``_quantize(thresholds[t], word)``, is allowed,
    ``allowed[t, symbol]``, at each of the ascending ``positions`` t.

    Rows are read by random access, one Philox counter block at a time: row
    m's position t is word m*n + t, so the rows whose m*n leaves the same
    remainder mod 4 share the block and lane of every position.  A group is
    such rows of one block in one chunk of rows.  Each round tests every
    group at all of its positions in its next counter block, and only the
    rows that pass go on, until at most ``_FEW_ROWS`` of a group are left.
    The chunk's rounds evaluate Philox for whole groups of every block
    together, up to ``_PHILOX_LANES`` rows a call, so a call's fixed cost is
    paid per round, not per block.
    """
    keys = _round_keys([key for key, *_ in blocks])
    step = _chunk_rows(_PHILOX_WIDTH)
    kept = [[] for _ in blocks]
    for lo in range(0, size, step):
        rows = np.arange(lo, min(lo + step, size))
        phases = [rows[rows * n % 4 == phase] for phase in range(4)]
        # [block, m*n mod 4, live rows, index of the next position]
        groups = [[j, phase, phases[phase], 0] for j in range(len(blocks)) for phase in range(4)]
        todo = groups
        while todo := [g for g in todo if g[2].size > _FEW_ROWS and g[3] < len(blocks[g[0]][3])]:
            call, lanes = [], 0
            for g in todo:
                if call and lanes + g[2].size > _PHILOX_LANES:
                    _test_groups(call, blocks, keys, n)
                    call, lanes = [], 0
                call.append(g)
                lanes += g[2].size
            _test_groups(call, blocks, keys, n)
        for j, _, live, _ in groups:
            kept[j].append(live)
    return [np.sort(np.concatenate(rows)) for rows in kept]


def _row_words(key, rows: np.ndarray, n: int):
    """A ``draw`` for ``_scan`` that reads the ascending ``rows`` of the
    (M, n) draw of stream ``key``, each alone, as a played row is read."""
    order = iter(rows.tolist())
    return lambda count: np.concatenate(
        [_words(key, n, m * n) for m in itertools.islice(order, count // n)]
    )


def _count_typical(block, ref, size: int, eps: float, chunk, rows=None) -> tuple[int, int]:
    """The number of typical rows of the decoder block ``block`` (see
    ``_decode``) and the first one (0 when none), counted over its ascending
    ``rows``, drawn one at a time, or over all ``size`` rows."""
    key, thresholds, groups = block
    n = chunk.shape[1]
    draw = _stream(*key).random_raw if rows is None else _row_words(key, rows, n)
    count = size if rows is None else rows.size
    indicator = {0: _indicator(groups, ref.shape[0])}
    n_typical, first = 0, 0
    for _, lo, _, typical in _typical_chunks(draw, count, thresholds, chunk, indicator, ref, eps):
        hits = lo + np.flatnonzero(typical)
        if hits.size and not n_typical:
            first = int(hits[0] if rows is None else rows[hits[0]])
        n_typical += hits.size
    return n_typical, first


def _decode(blocks: list, ref, size: int, eps: float, chunk) -> list[tuple[int, int]]:
    """Count each block's typical candidate codewords and find the first one.

    A block is ``(key, thresholds, groups)``: its ``size`` candidates are
    read from stream ``key`` with the (n, |X1| - 1) ``thresholds``, and
    ``groups`` holds each position's group, a row of ``ref``, (groups,
    |X1|).  Returns per block the number of typical rows and the first one
    (0 when none).

    A symbol x1 is allowed at position t when ref(g_t, x1) > 0.  A row with
    a disallowed symbol anywhere counts more than 0 in a cell whose target
    is 0, so it is not typical.  When some position of a block can draw a
    disallowed symbol and the codebook has more than ``_FEW_ROWS`` rows, the
    rows that pass every such position are found by random access
    (``_allowed_rows``), and only they are drawn and counted; otherwise every
    row is, from one stream: random access would keep every row of a
    codebook that small, and read each from a stream of its own.  Both give
    the verdicts of the scan of every row.
    Random access serves as many blocks at once as have ``_chunk_rows(1)``
    rows between them (one at least), so the rows a pass keeps take at most
    a chunk's bytes more than one block's.
    """
    n = chunk.shape[1]
    found, access = [(0, 0)] * len(blocks), []
    for j, (key, thresholds, groups) in enumerate(blocks):
        if not _absent_cells_typical(groups, ref, n, eps):
            continue
        allowed = ref[groups] > 0.0  # (n, |X1|)
        # per position, how many of the 2**53 word steps fall on an allowed symbol
        widths = np.diff(thresholds, axis=1, prepend=np.uint64(0), append=np.uint64(2**53))
        restricted = np.flatnonzero((widths * allowed).sum(axis=1) < 2**53)
        if restricted.size and size > _FEW_ROWS:
            access.append((j, (key, thresholds, allowed, restricted)))
        else:
            found[j] = _count_typical(blocks[j], ref, size, eps, chunk)
    per_pass = max(1, _chunk_rows(1) // size)
    for lo in range(0, len(access), per_pass):
        batch = access[lo : lo + per_pass]
        for (j, _), rows in zip(batch, _allowed_rows([b for _, b in batch], size, n)):
            found[j] = _count_typical(blocks[j], ref, size, eps, chunk, rows)
    return found


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
    cond_thr = _thresholds(np.cumsum(np.transpose(cond_x1, (0, 2, 1)), axis=-1))  # (n0, n2, n1-1)
    gamma_thr = _thresholds(np.cumsum(cfg.channel.matrix, axis=-1))  # (n1, ny-1)
    x2_thr = _thresholds(np.cumsum(cfg.target.pmf.sum(axis=(0, 1))))
    state_thr = _thresholds(np.cumsum(cfg.prior.probs))

    # wide integers: the cell indices computed from the states must not wrap
    states = _symbols(state_thr, (cfg.seed, _STREAM_STATE, 0), (blocks, n)).astype(np.intp)
    # One buffer for every chunk's masks, a row per mask at least.  Allocating
    # each chunk afresh let the allocator return the memory to the system and
    # fault it back in: on a 2-core Xeon VM that was up to a third of a binary
    # n=400 run.
    slots = max(n1, n2, 2) - 1
    rows = min(_chunk_rows(max(n, decoder_ref.size)), size * slots)
    chunk = np.empty((max(rows, slots), n))

    # The encoder reads the coming block's states, nothing the decoder outputs;
    # among the typical source codewords it keeps the one whose pair
    # statistics sit closest to the target (larger codebooks then cover the
    # target ever more finely).  The last block conveys no index: row 0.
    source = (cfg.seed, _STREAM_SOURCE, 0)
    encoded = [*_encode_all(source, x2_thr, size, states[1:], pair_ref, eps, chunk), 0]
    sent = [0 if m is None else m for m in encoded]

    # What the informed side plays follows from the sent indices alone: block
    # b's channel codeword is drawn given the source row of block b-1's index
    # (row 0 in block 0), the partner action the encoder believes in.
    belief = [_symbols(x2_thr, source, n, m * n) for m in [0, *sent[:-1]]]
    codebooks = [(cfg.seed, _STREAM_CODEBOOK, b) for b in range(blocks)]
    x1 = [_symbols(cond_thr[x0, x2], key, n, m * n)
          for x0, x2, key, m in zip(states, belief, codebooks, sent)]
    y = [_symbols(gamma_thr[a], (cfg.seed, _STREAM_OBSERVATION, b), n) for b, a in enumerate(x1)]

    def decoder_block(b, x2):
        """Block b as the decoder sees it while it plays ``x2``."""
        return codebooks[b], cond_thr[states[b], x2], (states[b] * n2 + x2) * ny + y[b]

    # The decoder plays the belief row unless it misdecoded the block before,
    # so every coded block is decoded at once with that row, and a block that
    # follows a decoding error again, with the row the decoder played.
    decoded = _decode([decoder_block(b, belief[b]) for b in range(blocks - 1)],
                      decoder_ref, size, eps, chunk)
    quad_counts = np.zeros(n0 * n1 * n2 * ny, dtype=np.int64)
    diagnostics: list[BlockDiagnostics] = []
    play_x2, error = belief[0], None
    for b in range(blocks):
        last = b == blocks - 1
        played = ((states[b] * n1 + x1[b]) * n2 + play_x2) * ny + y[b]
        quad_counts += np.bincount(played, minlength=quad_counts.shape[0])

        if last:
            n_typical = m_hat = error = None
        else:
            if error:
                decoded[b] = _decode([decoder_block(b, play_x2)], decoder_ref, size, eps, chunk)[0]
            n_typical, m_hat = decoded[b]
            error = m_hat != sent[b]
            play_x2 = _symbols(x2_thr, source, n, m_hat * n) if error else belief[b + 1]
        diagnostics.append(
            BlockDiagnostics(
                block=b,
                encoded_index=None if last else sent[b],
                decoded_index=m_hat,
                encoder_failed=encoded[b] is None,
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
