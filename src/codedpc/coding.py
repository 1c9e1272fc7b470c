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
  decoder) and a symbol that varies with the codeword.  The blocks of a scan
  share one (fixed parts x blocks, n) one-hot matrix, written in that layout;
  its product with the codewords' transposed ``symbol >= v`` mask counts
  symbol >= v in every block at once, into one slab of the cell-first
  (cells, blocks, rows) counts, and count(v) is the difference of two such
  slabs.  The typicality test and the encoder's deviation are then ufuncs
  over whole slabs, along the long axes (blocks and rows), not the few
  cells.  A mask compares the words with one threshold, so a scan never
  forms the symbols of the codewords it reads.
* The encoder and the decoder share this scan.  The encoder reads only the
  coming block's states, so all blocks' indices are found up front, in one
  scan of the source codebook: a chunk's counts, verdicts and deviations are
  each one array over every block, and the blocks go in groups only where
  those arrays would outgrow a chunk's bytes.
* A cell whose fixed part does not occur in the block counts 0 in every
  codeword, so its verdict, |0 - n p| <= eps n p, is the same for all of
  them.  It is evaluated once per fixed part, and one bincount finds the
  fixed parts absent from every block; when the verdict fails (p > 0 and
  eps < 1), no codeword is typical and the block's codebook is not
  generated at all.  This changes no outcome: it skips only work whose
  result is known.
* A codeword with a symbol x1 at position t whose cell (g_t, x1) has
  reference probability 0 counts more than 0 where the target is 0, so it
  is not typical.  On perfect monitoring the observation fixes x1, and
  only codewords that equal the observed sequence can be typical.  Philox
  is counter-based: word j of a stream is one function of the key and the
  counter j // 4 + 1.  So the decoder evaluates that function in numpy for
  the positions that can draw a disallowed symbol, a counter block of four
  at a time (each lane's key is gathered once per evaluation and bumped in
  place), drops each codeword at its first disallowed symbol, and draws
  only the few left, each alone as a played row is.  A block's rows left
  are counted a chunk at a time: one bincount over their (row, cell) codes
  and one typicality test give every verdict.  A necessary condition drops
  only codewords the count would reject, so the verdicts stay the same.
  Where no symbol is disallowed (a channel with full-support rows), the
  decoder scans the whole codebook as above.  A decoder cell's fixed part
  (state, partner action, observation) fixes x1's CDF, so one table of
  thresholds per fixed part serves every block, and so does one verdict per
  fixed part on whether a disallowed symbol can be drawn.
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

#: Hard cap on the stages ``block_length * num_blocks`` of one run: ``run``
#: holds a few arrays of one word per stage, about 32 MB each at the cap.
MAX_STAGES = 2**22

_DEGENERATE_INFO = 1e-12

_STREAM_STATE = 0
_STREAM_SOURCE = 1
_STREAM_CODEBOOK = 2
_STREAM_OBSERVATION = 3

#: Codewords are drawn and tested in chunks of about this many bytes of
#: float64 masks, so memory does not grow with the codebook.  A chunk's cell
#: counts over all the blocks of a scan, with their scratch copy, take at most
#: as much again, so it does not grow with the blocks either; so do a chunk of
#: one block's rows that the decoder keeps.
_CHUNK_BYTES = 1 << 19

#: A uniform is its word's top 53 bits, (w >> 11) * 2**-53.
_WORD_SHIFT = 11
_UNIFORM_STEPS = 2.0**53

#: Philox4x64's round multipliers and key increments (Salmon et al., SC 2011).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = 0xFFFFFFFF

#: Random access reads rows in chunks of ``_chunk_rows(_PHILOX_WIDTH)`` (1,024
#: at the default chunk size).
_PHILOX_WIDTH = 64
#: One Philox evaluation covers the live rows of whole groups, up to this many:
#: a call's fixed cost, about 200 small numpy operations, is that of some 1,000
#: rows, and its temporaries take about 9 words per row.
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


def _mulhilo(a: np.ndarray, m: int):
    """The high and low words of the 128-bit products a * m, from 32-bit
    halves; every partial sum fits in 64 bits, and uint64 arrays wrap.  The
    high words overwrite ``a``, and the partial sums are formed in place, so
    that few arrays of its size are alive at once."""
    m_lo, m_hi = np.uint64(m & _LOW32), np.uint64(m >> 32)
    lo = a * np.uint64(m)
    a_lo = a & _LOW32
    a >>= 32
    mid = (a_lo * m_lo) >> 32
    mid += a * m_lo
    # a_lo * hi(m) + lo(mid), whose high half carries into the high word
    a_lo *= m_hi
    a_lo += mid & _LOW32
    a *= m_hi
    a += mid >> 32
    a += a_lo >> 32
    return a, lo


def _round_keys(keys: list) -> np.ndarray:
    """The (2, streams) Philox4x64-10 keys (k0, k1) of the streams ``keys``,
    (seed, tag, block) each, as ``_stream`` keys them."""
    return np.array([(seed, tag << 32 | block) for seed, tag, block in keys], dtype=np.uint64).T


def _philox_block(keys: np.ndarray, stream: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """The (4, lanes) words 4c - 4, ..., 4c - 1 at each lane's uint64 counter
    c >= 1 of stream ``stream`` of ``keys``, ``_round_keys``' (2, streams),
    without drawing the words before them.  Philox4x64-10 maps the counter
    (c, 0, 0, 0) and the key to four words; numpy steps the counter before
    it draws, so word j of a stream is word j % 4 of counter j // 4 + 1."""
    # a round maps (x0, x1, x2, x3) to (hi(x2) ^ x1 ^ k0, lo(x2), hi(x0) ^ x3
    # ^ k1, lo(x0)), and the key is bumped by _PHILOX_W between rounds; one
    # array per word, since a multiplier of one row per word would be
    # broadcast through a buffer.  Each lane's key is gathered once and
    # bumped in place.
    k0, k1 = (row[stream] for row in keys)
    x0 = counter.astype(np.uint64)
    x1, x2, x3 = (np.zeros_like(x0) for _ in range(3))
    for r in range(10):
        if r:
            k0 += _PHILOX_W[0]
            k1 += _PHILOX_W[1]
        hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
        # x3 is freed before the second product's temporaries are made
        hi0 ^= x3 ^ k1
        x3 = lo0
        x0, lo2 = _mulhilo(x2, _PHILOX_M[1])
        x0 ^= x1 ^ k0
        x1, x2 = lo2, hi0
    del k0, k1  # freed before the words are stacked
    return np.stack((x0, x1, x2, x3))


def _chunk_rows(width: int) -> int:
    """Codebook rows per chunk when a row's widest temporary is ``width`` floats."""
    return max(1, _CHUNK_BYTES // (8 * width))


def _typical_rows(counts: np.ndarray, ref: np.ndarray, n: int, eps: float) -> np.ndarray:
    """Robust typicality per row: every cell count within eps * n * p of n * p.

    ``counts`` is cell-first, (cells, ...), and ``ref`` broadcasts against
    it; the verdicts are (...).  Cells with zero reference probability must
    be unoccupied.  The deviation is formed in one scratch copy of
    ``counts``, and each step runs over a whole slab of one cell.
    """
    target = n * ref
    deviation = counts - target
    np.abs(deviation, out=deviation)
    return (deviation <= eps * target).all(axis=0)


def _indicator(groups: np.ndarray, n_groups: int) -> np.ndarray:
    """The one-hot matrix of ``groups``, one more leading axis of size
    ``n_groups``: (n_groups, n) for one block's positions, (n_groups, blocks,
    n) for the (blocks, n) positions of several, whose rows are then (group,
    block) pairs of one 2-D matrix.  It is written in place, in that layout.

    A cell is (group, symbol): the group (state, partner action, observation
    for the decoder; the state for the encoder) is fixed by the block, the
    symbol varies with the codebook row.
    """
    return np.equal(np.arange(n_groups).reshape(-1, *[1] * groups.ndim), groups,
                    out=np.empty((n_groups, *groups.shape)), casting="unsafe")


def _scan(draw, size: int, thresholds: np.ndarray, chunk: np.ndarray):
    """Draw ``size`` codewords and yield ``lo, masks`` per chunk of them,
    rows lo, lo+1, ...: their (K-1, rows, n) masks of symbol >= 1, ..., K-1
    of ``_quantize(thresholds, words)``.  ``draw(count)`` returns the words
    of the next count // n codewords; a bit generator's ``random_raw`` reads
    them in the order of one (size, n) draw.  ``thresholds`` is (K-1,) or
    (n, K-1); the CDF rows are nondecreasing, so symbol >= v exactly when
    w >> 11 reaches threshold v - 1.  The masks split ``chunk``, (rows, n),
    in K-1 slots.  With K = 1 there is no mask, and nothing is drawn."""
    k = thresholds.shape[-1] + 1
    n = chunk.shape[1]
    step = chunk.shape[0] // max(k - 1, 1)
    slots = chunk[: max(k - 1, 1) * step].reshape(-1, step, n)
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
        yield lo, masks


def _absent_cells_typical(groups, ref: np.ndarray, n: int, eps: float) -> np.ndarray:
    """Per block, the typicality of the cells whose group does not occur in
    it: ``groups`` holds each block's positions' groups, (blocks, n), a list
    of (n,) arrays, or one (n,) array for one block.

    ``ref`` is (groups, K).  Those cells count 0 in every row, so their
    verdict, computed with ``_typical_rows``'s own expression, is the same
    for all rows; when it fails, no row is typical.  Each group's verdict on
    zero counts is computed once, and one bincount over (block, group) codes
    finds the groups absent from every block.
    """
    codes = np.array(groups, dtype=np.intp, ndmin=2)
    codes += ref.shape[0] * np.arange(len(codes))[:, None]
    counts = np.bincount(codes.ravel(), minlength=len(codes) * ref.shape[0]).reshape(len(codes), -1)
    return ((counts > 0) | _typical_rows(np.zeros(ref.T.shape), ref.T, n, eps)).all(axis=1)


def _typical_chunks(draw, size: int, thresholds, chunk, groups: np.ndarray, ref, eps: float):
    """Scan ``size`` codewords, drawn by ``draw`` as in ``_scan``, for their
    typicality in every block of ``groups``, the (blocks, n) groups of the
    blocks' positions, against ``ref``, (groups, K).  Yields ``lo, first,
    counts, typical`` per chunk and group of blocks first, first + 1, ...:
    the chunk's first row ``lo``, the cell-first (K * groups, blocks, rows)
    counts, cell v * groups + g for symbol v of group g, which the caller may
    overwrite, and the (blocks, rows) verdicts.  The caller keeps out the
    blocks whose absent cells fail (``_absent_cells_typical``): no row of
    theirs is typical.

    The product of the (groups x blocks, n) one-hot matrix with the rows'
    transposed symbol >= v mask counts symbol >= v into one slab of cells,
    and count(v) is the difference of two such slabs; the sums of 0s and 1s
    are exact in float64 below 2**53.  A group holds as many blocks as keep
    its counts and their scratch copy within ``_CHUNK_BYTES``.
    """
    n_groups, k = ref.shape
    blocks, n = groups.shape
    step = chunk.shape[0] // max(k - 1, 1)
    per = max(1, _CHUNK_BYTES // (16 * step * n_groups * k))
    parts = [(b, _indicator(groups[b : b + per], n_groups).reshape(-1, n)) for b in range(0, blocks, per)]
    parts = [(b, one_hot, one_hot.sum(axis=1)[:, None]) for b, one_hot in parts]
    ref_cells = ref.T.reshape(-1, 1, 1)
    for lo, masks in _scan(draw, size, thresholds, chunk):
        rows = masks.shape[1]
        for first, one_hot, present in parts:
            by_level = np.empty((k, one_hot.shape[0], rows))
            by_level[0] = present
            for v, mask in enumerate(masks, 1):
                np.matmul(one_hot, mask.T, out=by_level[v])
                by_level[v - 1] -= by_level[v]
            cells = by_level.reshape(k * n_groups, -1, rows)
            yield lo, first, cells, _typical_rows(cells, ref_cells, n, eps)
            # freed before the next group's counts and the next chunk's words
            del cells, by_level


@dataclass(frozen=True, eq=False)
class CodingConfig:
    """Parameters of one coding-simulation run.

    ``rate`` (bits per stage) defaults to the midpoint of the admissible
    interval (I(X0;X2), I(X1;Y|X0,X2)) computed under ``target``; an explicit
    value must lie strictly inside that interval.  When the coordination
    information is zero there is nothing to convey and any finite positive
    rate is accepted.  The codebook holds ceil(2**(n*rate)) sequences,
    capped at ``MAX_CODEBOOK``, and a run's ``block_length * num_blocks``
    stages are capped at ``MAX_STAGES``.
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
        # the payoff table is 3-D, so this also rejects a target of other rank
        if self.payoff.shape != self.target.pmf.shape:
            raise CodingConfigError("payoff table shape does not match target")
        if self.channel.n_inputs != self.target.pmf.shape[1]:
            raise CodingConfigError("channel input alphabet does not match target")
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
        if self.block_length * self.num_blocks > MAX_STAGES:
            raise CodingConfigError(f"block_length * num_blocks exceeds the cap {MAX_STAGES}")
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
    n_groups, k = pair_ref.shape
    best, best_deviation = [None] * len(states), [np.inf] * len(states)
    live = np.flatnonzero(_absent_cells_typical(states, pair_ref, n, eps)).tolist()
    if not live:
        return best
    # usually every block is live, and then the states are read in place
    # rather than copied
    groups = states if len(live) == len(states) else states[live]
    scan = _typical_chunks(_stream(*key).random_raw, size, thresholds, chunk, groups, pair_ref, eps)
    for lo, first, cells, typical in scan:
        cells /= n
        cells -= pair_ref.T.reshape(-1, 1, 1)
        np.abs(cells, out=cells)
        # summed in the (group, symbol) order of a contiguous cell axis, since
        # a float sum's bits follow its order: numpy adds fewer than 8 entries
        # one by one, and more pairwise
        if cells.shape[0] < 8:
            deviation = sum(cells[v * n_groups + g] for g in range(n_groups) for v in range(k))
        else:
            deviation = cells.reshape(k, n_groups, -1).T.copy().reshape(*typical.shape, -1).sum(axis=-1)
        deviation[~typical] = np.inf
        # argmin takes the first row on ties, and the strict < the first chunk
        rows, least = deviation.argmin(axis=1).tolist(), deviation.min(axis=1).tolist()
        for b, row, value in zip(live[first:], rows, least):
            if value < best_deviation[b]:
                best[b], best_deviation[b] = lo + row, value
        del cells, typical, deviation  # freed before the scan draws again
    return best


def _restricted(table: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Per group, whether a word can fall on a symbol that ``allowed``, (groups,
    K), does not allow under the group's thresholds, a row of ``table``."""
    # how many of the 2**53 word steps fall on an allowed symbol
    widths = np.diff(table, axis=1, prepend=np.uint64(0), append=np.uint64(2**53))
    return (widths * allowed).sum(axis=1) < 2**53


def _test_groups(call: list, blocks: list, table: np.ndarray, allowed: np.ndarray, keys, n: int):
    """Test the groups ``call`` of ``_allowed_rows`` in their next counter
    block, with one Philox evaluation, and keep in each the rows that pass.

    A group's positions in the block are tested at once: position t reads
    lane (t + phase) % 4, and one comparison of the lanes' top bits with its
    cell group's thresholds gives every (position, row) symbol, as
    ``_quantize`` would; one flat lookup of (cell group, symbol) in
    ``allowed`` tells which are allowed."""
    sizes = [g[2].size for g in call]
    counters = np.concatenate([rows * n // 4 + (blocks[j][2][i] + phase) // 4 + 1
                               for j, phase, rows, i in call], dtype=np.uint64, casting="unsafe")
    words = _philox_block(keys, np.repeat([g[0] for g in call], sizes), counters)
    for g, group_words in zip(call, np.split(words, np.cumsum(sizes)[:-1], axis=1)):
        j, phase, rows, i = g
        _, cell_groups, positions = blocks[j]
        # the positions before the next counter block's first word
        end = int(np.searchsorted(positions, ((positions[i] + phase) // 4 + 1) * 4 - phase))
        t = positions[i:end]
        cells = cell_groups[t]
        top = group_words[(t + phase) % 4] >> _WORD_SHIFT
        # summed over a leading axis, a slice at a time: summing the last
        # axis, of K-1 entries, took twice as long at 1,024 rows and K = 3
        symbols = (top >= table[cells].T[:, :, None]).sum(axis=0)
        g[2], g[3] = rows[allowed.take(symbols + (cells * allowed.shape[1])[:, None]).all(axis=0)], end


def _allowed_rows(blocks: list, table: np.ndarray, allowed: np.ndarray, size: int, n: int) -> list[np.ndarray]:
    """Per block ``(key, cell_groups, positions)``, the rows m < ``size`` of
    the (size, n) draw of stream ``key``, ascending, that include every row
    whose symbol at each of the ascending ``positions`` t, ``_quantize(
    table[cell_groups[t]], word)``, is allowed, ``allowed[cell_groups[t],
    symbol]``.

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
        while todo := [g for g in todo if g[2].size > _FEW_ROWS and g[3] < len(blocks[g[0]][2])]:
            call, lanes = [], 0
            for g in todo:
                if call and lanes + g[2].size > _PHILOX_LANES:
                    _test_groups(call, blocks, table, allowed, keys, n)
                    call, lanes = [], 0
                call.append(g)
                lanes += g[2].size
            _test_groups(call, blocks, table, allowed, keys, n)
        for j, _, live, _ in groups:
            kept[j].append(live)
    return [np.sort(np.concatenate(rows)) for rows in kept]


def _count_typical(block, table, ref, size: int, eps: float, chunk) -> tuple[int, int]:
    """The number of typical rows among all ``size`` rows of the decoder block
    ``block`` (see ``_decode``) and the first one (0 when none)."""
    key, groups = block
    scan = _typical_chunks(_stream(*key).random_raw, size, table[groups], chunk, groups[None], ref, eps)
    n_typical, first = 0, 0
    for lo, _, _, typical in scan:
        hits = lo + np.flatnonzero(typical)
        if hits.size and not n_typical:
            first = int(hits[0])
        n_typical += hits.size
    return n_typical, first


def _count_kept(block, rows: np.ndarray, table, ref, eps: float) -> tuple[int, int]:
    """The number of typical rows among the ascending ``rows`` of the decoder
    block ``block`` (see ``_decode``) and the first one (0 when none).

    Each row is read alone, as a played row is, and ``_chunk_rows(2 * n)``
    rows are counted at a time: a row's cells are group * K + symbol, offset
    by the row's place in the chunk, so that one bincount counts every row's
    cells.  The chunk's words and its cells take half a chunk's bytes each.
    """
    key, groups = block
    n = groups.size
    hits = []
    step = _chunk_rows(2 * n)
    for lo in range(0, rows.size, step):
        part = rows[lo : lo + step]
        words = np.array([_words(key, n, m * n) for m in part.tolist()])
        cells = groups * ref.shape[1] + _quantize(table[groups], words)
        cells += (np.arange(part.size) * ref.size)[:, None]
        counts = np.bincount(cells.ravel(), minlength=part.size * ref.size)
        hits += part[_typical_rows(counts.reshape(part.size, -1).T, ref.reshape(-1, 1), n, eps)].tolist()
    return len(hits), hits[0] if hits else 0


def _decode(blocks: list, table, ref, size: int, eps: float, chunk) -> list[tuple[int, int]]:
    """Count each block's typical candidate codewords and find the first one.

    A block is ``(key, groups)``: its ``size`` candidates are read from
    stream ``key``, and ``groups`` holds each position's group, a row of
    ``ref``, (groups, |X1|), and of ``table``, the (groups, |X1| - 1)
    thresholds of x1 that the group fixes.  Returns per block the number of
    typical rows and the first one (0 when none).

    A symbol x1 is allowed at position t when ref(g_t, x1) > 0.  A row with
    a disallowed symbol anywhere counts more than 0 in a cell whose target
    is 0, so it is not typical.  Whether a position can draw a disallowed
    symbol depends on its group alone, and so does the verdict of a group
    that does not occur in a block, so both are found once for every block.
    When some position of a block can draw a disallowed symbol and the
    codebook has more than ``_FEW_ROWS`` rows, the rows that pass every such
    position are found by random access (``_allowed_rows``), and only they
    are drawn and counted, one block at a time (``_count_kept``); otherwise
    every row is scanned, from one stream: random access would keep every
    row of a codebook that small, and read each from a stream of its own.
    Both give the verdicts of the scan of every row.
    Random access serves as many blocks at once as have ``_chunk_rows(1)``
    rows between them (one at least), so the rows a pass keeps take at most
    a chunk's bytes more than one block's.
    """
    n = chunk.shape[1]
    found, access = [(0, 0)] * len(blocks), []
    allowed = ref > 0.0
    restricted = _restricted(table, allowed)
    live = _absent_cells_typical([groups for _, groups in blocks], ref, n, eps)
    for j in np.flatnonzero(live).tolist():
        positions = np.flatnonzero(restricted[blocks[j][1]])
        if positions.size and size > _FEW_ROWS:
            access.append((j, positions))
        else:
            found[j] = _count_typical(blocks[j], table, ref, size, eps, chunk)
    per_pass = max(1, _chunk_rows(1) // size)
    for lo in range(0, len(access), per_pass):
        batch = access[lo : lo + per_pass]
        kept = _allowed_rows([(*blocks[j], positions) for j, positions in batch], table, allowed, size, n)
        for (j, _), rows in zip(batch, kept):
            found[j] = _count_kept(blocks[j], rows, table, ref, eps)
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

    # x1's thresholds per decoder group (x0, x2, y): (x0, x2) fix them
    group_thr = np.repeat(cond_thr.reshape(n0 * n2, n1 - 1), ny, axis=0)

    def decoder_block(b, x2):
        """Block b as the decoder sees it while it plays ``x2``."""
        return codebooks[b], (states[b] * n2 + x2) * ny + y[b]

    # The decoder plays the belief row unless it misdecoded the block before,
    # so every coded block is decoded at once with that row, and a block that
    # follows a decoding error again, with the row the decoder played.
    decoded = _decode([decoder_block(b, belief[b]) for b in range(blocks - 1)],
                      group_thr, decoder_ref, size, eps, chunk)
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
                decoded[b] = _decode([decoder_block(b, play_x2)], group_thr, decoder_ref, size, eps, chunk)[0]
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
