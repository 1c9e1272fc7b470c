"""The simulator's block kernels against the code they replaced.

``tests/oracles.py`` keeps the original quantizer (an (..., n, K)
comparison), the original per-row bincount and the per-block encoder over a
stored codebook; the kernels in ``codedpc.coding`` must agree with them
exactly, because the seeded reports depend on every symbol and every
typicality verdict.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codedpc import (
    CodingConfig,
    JointDistribution,
    ObservationChannel,
    PayoffTable,
    StatePrior,
    coding,
    run,
)
from codedpc.coding import (
    _STREAM_CODEBOOK,
    _STREAM_OBSERVATION,
    _STREAM_SOURCE,
    _STREAM_STATE,
    _absent_cells_typical,
    _decode,
    _encode_all,
    _indicator,
    _philox_block,
    _quantize,
    _round_keys,
    _scan,
    _stream,
    _symbols,
    _thresholds,
    _typical_chunks,
    _typical_rows,
)
from oracles import cell_counts, encode_block, quantize_rows, row_counts, scan_decode
from test_golden import SIM_RUNS, _BSC, _binary_config, _ternary_config, sim_report

unit = st.floats(0.0, 1.0, exclude_max=True)
# a slow shared machine must not turn a correct example into a failure
slow_ok = settings(deadline=None)
word = st.integers(0, 2**64 - 1)


def uniforms_of(words: np.ndarray) -> np.ndarray:
    """The doubles a Generator makes of 64-bit words: their top 53 bits * 2**-53."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def edge_words(levels: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per level, the first word whose uniform reaches it, moved by ``offsets``
    words (-1 is the last word below it) and kept to 64 bits."""
    first = [math.ceil(Fraction(min(max(x, 0.0), 1.0)) * 2**53) << 11 for x in levels.flat]
    moved = [min(max(w + int(o), 0), 2**64 - 1) for w, o in zip(first, offsets.flat)]
    return np.array(moved, dtype=np.uint64).reshape(levels.shape)


@st.composite
def cdfs_and_words(draw, per_position: bool):
    """CDF rows for K in 2..5 and 64-bit words, some the first word whose
    uniform reaches a CDF value or the last one below it."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 4))
    weights = draw(hnp.arrays(np.float64, (n if per_position else 1, k), elements=unit))
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    # a last entry below 1.0, as cumsum rounding can leave it
    cdf *= draw(st.sampled_from([1.0, 1.0 - 2.0**-52, 0.9]))
    if not per_position:
        cdf = cdf[0]
    words = draw(hnp.arrays(np.uint64, (rows, n), elements=word))
    on_edge = draw(hnp.arrays(np.int64, (rows, n), elements=st.integers(-1, k - 1)))
    offsets = draw(hnp.arrays(np.int64, (rows, n), elements=st.integers(-1, 0)))
    edge_values = cdf[np.arange(n), on_edge] if per_position else cdf[on_edge]
    words = np.where(on_edge >= 0, edge_words(edge_values, offsets), words)
    return cdf, words


@slow_ok
@given(cdfs_and_words(per_position=True))
def test_quantize_matches_oracle_per_position(case):
    cdf, words = case
    thresholds = _thresholds(cdf)
    assert np.array_equal(_quantize(thresholds, words), quantize_rows(cdf, uniforms_of(words)))
    assert np.array_equal(
        _quantize(thresholds, words[0]), quantize_rows(cdf, uniforms_of(words[0]))
    )


@slow_ok
@given(cdfs_and_words(per_position=False))
def test_quantize_matches_oracle_one_cdf(case):
    cdf, words = case
    expected = quantize_rows(cdf, uniforms_of(words))
    assert np.array_equal(_quantize(_thresholds(cdf), words), expected)


@st.composite
def grouped_blocks(draw):
    """Groups per position, symbols per (row, position), a reference over
    (group, symbol) cells, and an epsilon."""
    n_groups = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    rows = draw(st.integers(1, 5))
    groups = draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_groups - 1)))
    symbols = draw(hnp.arrays(np.uint8, (rows, n), elements=st.integers(0, k - 1)))
    own = row_counts(groups[None, :] * k + symbols[:1], n_groups * k)[0] / n
    kind = draw(st.sampled_from(["own", "own_plus_absent", "random"]))
    if kind == "own":
        # the first row's own frequencies: that row is typical at any epsilon
        ref = own
    elif kind == "own_plus_absent":
        # nearly the first row's frequencies plus some mass on the cells of
        # absent groups, which then decide the verdict unless epsilon >= 1
        absent = ~np.isin(np.arange(n_groups), groups).repeat(k)
        ref = own
        if absent.any():
            ref = 0.95 * own
            ref[absent] += 0.05 / absent.sum()
    else:
        ref = draw(hnp.arrays(np.float64, n_groups * k, elements=unit))
        ref = ref / ref.sum() if ref.sum() > 0 else np.full(ref.shape, 1.0 / ref.size)
    eps = draw(st.sampled_from([0.2, 0.5, 1.0, 1.5]) | st.floats(0.01, 3.0))
    return groups, symbols, ref.reshape(n_groups, k), eps


class WordSource:
    """Hands out ``words`` in order through ``random_raw(size)``, as a Philox
    bit generator hands out its 64-bit words, so a scan can be fed repeated
    rows.  ``drawn`` counts the words handed out."""

    def __init__(self, words: np.ndarray):
        self.words, self.drawn = words.ravel(), 0

    def random_raw(self, size: int) -> np.ndarray:
        out = self.words[self.drawn : self.drawn + size].copy()
        self.drawn += size
        return out


def by_row(cells: np.ndarray, n_groups: int) -> np.ndarray:
    """The first block's counts of ``_typical_chunks``, cell-first (K *
    groups, blocks, rows) with cell v * groups + g, as (rows, groups * K)
    with cell g * K + v, the layout of ``row_counts``."""
    k = cells.shape[0] // n_groups
    return cells[:, 0].reshape(k, n_groups, -1).transpose(2, 1, 0).reshape(cells.shape[2], -1)


def level_counts(symbols: np.ndarray, groups: np.ndarray, k: int, n_groups: int) -> np.ndarray:
    """(rows, groups * K) cell counts the way the scan forms them: from
    words whose top 53 bits are the symbols, so that a word reaches exactly
    the levels 1, ..., symbol, in one chunk of float masks."""
    words = symbols.astype(np.uint64) << np.uint64(11)
    chunk = np.empty((max(k - 1, 1) * symbols.shape[0], symbols.shape[1]))
    ref = np.full((n_groups, k), 1.0 / (n_groups * k))
    [(_, _, cells, _)] = _typical_chunks(
        WordSource(words).random_raw, symbols.shape[0], np.arange(1, k, dtype=np.uint64), chunk,
        groups[None, :], ref, 1.0,
    )
    return by_row(cells, n_groups)


@slow_ok
@given(grouped_blocks())
def test_grouped_counts_match_oracle(block):
    groups, symbols, ref, _ = block
    n_groups, k = ref.shape
    oracle = row_counts(groups[None, :] * k + symbols, n_groups * k)
    assert np.array_equal(level_counts(symbols, groups, k, n_groups), oracle)
    # the one-hot matrix is (groups, n): the oracle multiplies by its transpose
    assert np.array_equal(cell_counts(symbols, _indicator(groups, n_groups).T, k), oracle)


@st.composite
def threshold_blocks(draw):
    """Per-position CDF rows with zero-probability symbols and trailing
    entries at 1.0 or one ulp above it, 64-bit words (some the first word
    whose uniform reaches a CDF value, or the last one below it), each
    position's group, and the rows of the scan's buffer."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 20))
    rows = draw(st.integers(1, 5))
    n_groups = draw(st.integers(1, 4))
    weights = draw(hnp.arrays(np.float64, (n, k), elements=unit | st.just(0.0)))
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    # past a row's last positive weight the CDF is flat; pin that tail
    # to 1.0 or to the next float above it, as cumsum rounding can leave it
    tail = np.cumsum(weights[:, ::-1], axis=1)[:, ::-1] == 0.0
    tail[:, -1] = True
    top = draw(st.sampled_from([1.0, np.nextafter(1.0, 2.0)]))
    cdf[tail] = top
    words = draw(hnp.arrays(np.uint64, (rows, n), elements=word))
    on_edge = draw(hnp.arrays(np.int64, (rows, n), elements=st.integers(-1, k - 1)))
    offsets = draw(hnp.arrays(np.int64, (rows, n), elements=st.integers(-1, 0)))
    edges = edge_words(cdf[np.arange(n), on_edge], offsets)
    words = np.where(on_edge >= 0, edges, words)
    groups = draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_groups - 1)))
    # one to three codewords per chunk, and sometimes a row the masks leave over
    chunk_rows = max(k - 1, 1) * draw(st.integers(1, 3)) + draw(st.integers(0, 1))
    return cdf, words, groups, n_groups, chunk_rows


@slow_ok
@given(threshold_blocks())
def test_threshold_counts_match_oracle(block):
    cdf, words, groups, n_groups, chunk_rows = block
    k = cdf.shape[1]
    u = uniforms_of(words)
    oracle = row_counts(groups[None, :] * k + quantize_rows(cdf, u), n_groups * k)
    source = WordSource(words)
    chunk = np.full((chunk_rows, u.shape[1]), np.nan)
    parts = []
    ref = np.full((n_groups, k), 1.0 / (n_groups * k))
    scan = _typical_chunks(source.random_raw, len(u), _thresholds(cdf), chunk, groups[None, :],
                           ref, 1.0)
    for lo, first, cells, _ in scan:
        assert lo == sum(map(len, parts)) and first == 0
        parts.append(by_row(cells, n_groups))
    # with one symbol no mask reads a word, so none is drawn
    assert source.drawn == (u.size if k > 1 else 0)
    assert np.array_equal(np.concatenate(parts), oracle)
    # each chunk's masks: K - 1 of them, over the chunk's rows
    scan = _scan(WordSource(words).random_raw, len(u), _thresholds(cdf), chunk)
    shapes = [masks.shape for _, masks in scan]
    assert [rows for _, rows, _ in shapes] == list(map(len, parts))
    assert {(levels, n) for levels, _, n in shapes} == {(k - 1, u.shape[1])}


_GRID = [0.5, 0.75, 3 * 2.0**-53]


@pytest.mark.parametrize(
    "level",
    [-1.0, -2.0**-60, 0.0, 1 - 2.0**-53, 1.0, 1 + 2.0**-52, 4096.0, 0.3, 2.0**-60,
     *(np.nextafter(g, to) for g in _GRID for to in (0.0, g, 2.0))],
)
def test_threshold_masks_at_level_edges(level):
    # the first word whose uniform reaches the level, and the one before it
    c = math.ceil(Fraction(float(level)) * 2**53)
    words = [0, 2**64 - 1, *(w for w in (c << 11, (c << 11) - 1) if 0 <= w < 2**64)]
    words = np.array(words, dtype=np.uint64)
    expected = uniforms_of(words) >= level
    # one CDF for every position, as the encoder has it, and one per position
    for cdf in (np.array([level, 1.0]), np.tile([level, 1.0], (words.size, 1))):
        thresholds = _thresholds(cdf)
        chunk = np.full((1, words.size), np.nan)
        [(_, masks)] = _scan(WordSource(words).random_raw, 1, thresholds, chunk)
        assert np.array_equal(masks[0, 0], expected)
        assert np.array_equal(_quantize(thresholds, words), expected)


@slow_ok
@given(grouped_blocks())
def test_absent_cell_shortcut_keeps_the_verdict(block):
    groups, symbols, ref, eps = block
    n_groups, k = ref.shape
    n = groups.size
    # _typical_rows takes cell-first counts: (cells, rows)
    oracle = _typical_rows(
        row_counts(groups[None, :] * k + symbols, n_groups * k).T, ref.reshape(-1, 1), n, eps
    )
    [absent_ok] = _absent_cells_typical(groups, ref, n, eps)
    # one bincount serves several blocks: each gets its own verdict
    other = np.zeros_like(groups)
    assert list(_absent_cells_typical(np.stack([groups, other]), ref, n, eps)) == [
        absent_ok, *_absent_cells_typical(other, ref, n, eps)]
    if absent_ok:
        verdict = _typical_rows(level_counts(symbols, groups, k, n_groups).T, ref.reshape(-1, 1),
                                n, eps)
    else:
        verdict = np.zeros(symbols.shape[0], dtype=bool)
    assert np.array_equal(verdict, oracle)


@st.composite
def encoder_blocks(draw):
    """The words of a source codebook with repeated rows (so deviations tie),
    some the first word whose uniform reaches a value of the action CDF or
    the last one below it, that CDF, the states of several blocks, a
    (state, action) reference, an epsilon, rows per chunk for the
    all-blocks encoder and for the per-block oracle, with the codebook at
    least three chunks long for both, and the blocks per group of the
    all-blocks encoder."""
    k = draw(st.integers(2, 4))
    n0 = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    new_rows, oracle_rows = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size = draw(st.integers(3 * max(new_rows, oracle_rows), 40))
    weights = draw(hnp.arrays(np.float64, k, elements=unit | st.just(0.0)))
    if weights.sum() == 0.0:
        weights[0] = 1.0
    x2_cdf = np.cumsum(weights / weights.sum())
    distinct = draw(hnp.arrays(np.uint64, (draw(st.integers(1, 4)), n), elements=word))
    on_edge = draw(hnp.arrays(np.int64, distinct.shape, elements=st.integers(-1, k - 1)))
    offsets = draw(hnp.arrays(np.int64, distinct.shape, elements=st.integers(-1, 0)))
    distinct = np.where(on_edge >= 0, edge_words(x2_cdf[on_edge], offsets), distinct)
    pick = draw(hnp.arrays(np.int64, size, elements=st.integers(0, distinct.shape[0] - 1)))
    words = distinct[pick]
    codebook = quantize_rows(x2_cdf, uniforms_of(words))
    states = draw(hnp.arrays(np.int64, (draw(st.integers(1, 40)), n),
                             elements=st.integers(0, n0 - 1)))
    own = row_counts(states[:1] * k + codebook[:1], n0 * k)[0] / n
    kind = draw(st.sampled_from(["own", "own_plus_absent", "random"]))
    if kind == "random":
        ref = draw(hnp.arrays(np.float64, n0 * k, elements=unit))
        ref = ref / ref.sum() if ref.sum() > 0 else np.full(ref.shape, 1.0 / ref.size)
    else:
        ref = own
        if kind == "own_plus_absent":
            # mass on every cell, so a block missing a state fails at eps < 1
            ref = 0.9 * own + 0.1 / own.size
    eps = draw(st.sampled_from([0.2, 0.5, 1.0, 1.5]) | st.floats(0.05, 2.0))
    per_group = draw(st.integers(1, 3))
    return words, x2_cdf, codebook, states, ref.reshape(n0, k), eps, new_rows, oracle_rows, per_group


@settings(max_examples=200, deadline=None)
@given(encoder_blocks())
def test_encode_all_matches_per_block_oracle(block):
    words, x2_cdf, codebook, states, ref, eps, new_rows, oracle_rows, per_group = block
    n0, k = ref.shape
    size, n = codebook.shape
    chunk = np.full((new_rows * (k - 1), n), np.nan)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coding, "_CHUNK_BYTES", 8 * max(n, n0 * k) * oracle_rows)
        assert coding._chunk_rows(max(n, n0 * k)) == oracle_rows
        oracle = [encode_block(codebook, x0, ref, n, eps) for x0 in states]
    source, opened, firsts = WordSource(words), [], []
    scan = coding._typical_chunks

    def grouped(*args):
        for lo, first, *rest in scan(*args):
            firsts.append((lo, first))
            yield lo, first, *rest

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coding, "_stream", lambda *key: opened.append(key) or source)
        patch.setattr(coding, "_typical_chunks", grouped)
        # a group's counts and their scratch copy take 16 bytes a cell
        patch.setattr(coding, "_CHUNK_BYTES", 16 * new_rows * n0 * k * per_group)
        assert _encode_all((7, _STREAM_SOURCE, 0), _thresholds(x2_cdf), size, states, ref,
                           eps, chunk) == oracle
    # the codebook is drawn once, and its stream not even opened when every
    # block fails early; each chunk serves every group of live blocks
    live = sum(bool(_absent_cells_typical(x0, ref, n, eps)[0]) for x0 in states)
    assert opened == ([(7, _STREAM_SOURCE, 0)] if live else [])
    assert source.drawn == (words.size if live else 0)
    chunks = range(0, size, new_rows)
    assert firsts == [(lo, first) for lo in chunks for first in range(0, live, per_group)]


# Two codewords whose deviations tie when summed in (state, action) order
# and differ in the last bit when summed in another order: one case below 8
# cells, where numpy adds a row's cells one by one, one from 8 on, where it
# adds them pairwise.  Each is (states, pair reference, the counts of the
# first codeword, of the second).
ORDER_CASES = [
    ([0, 0, 1, 1, 1, 1, 1, 1],
     [[0.3242520552416313, 0.13659378409903464, 0.19472165588599297],
      [0.07117587737458361, 0.17523591035394603, 0.09802071704481152]],
     [[0, 0, 2], [0, 5, 1]], [[0, 0, 2], [0, 2, 4]]),
    ([0, 0, 1, 2, 2, 2, 2],
     [[0.07830831652534363, 0.10243829600774244, 0.18995422357593866],
      [0.09938083358745349, 0.12976531481718545, 0.016785504840765377],
      [0.1738979806668277, 0.12728720092720106, 0.08218232905154205]],
     [[0, 0, 2], [0, 0, 1], [0, 3, 1]], [[0, 0, 2], [0, 0, 1], [0, 1, 3]]),
]


@pytest.mark.parametrize("states, pair, first, second", ORDER_CASES, ids=["6-cells", "9-cells"])
def test_encoder_sums_deviations_in_cell_order(states, pair, first, second):
    # the parent's deviation summed a contiguous (state, action) axis, so the
    # cell-first encoder must add in that order for argmin ties to fall the
    # same way: here the two codewords tie, and the first one is kept
    states, pair = np.array([states]), np.array(pair)
    n0, k = pair.shape
    n = states.shape[1]
    cdf = np.arange(1, k + 1) / k
    thresholds = _thresholds(cdf)
    first_word = np.array([0, *(int(t) << 11 for t in thresholds)], dtype=np.uint64)
    rows = []
    for counts in (first, second):
        # each state's positions take its symbols in order, counts[x0][v] of v
        symbols = np.empty(n, dtype=np.int64)
        for x0 in range(n0):
            symbols[states[0] == x0] = np.repeat(np.arange(k), counts[x0])
        rows.append(first_word[symbols])
    words = np.array(rows)
    codebook = quantize_rows(cdf, uniforms_of(words))
    deviations = [np.abs(row_counts(states * k + row, n0 * k)[0] / n - pair.ravel())
                  for row in codebook]
    assert deviations[0].sum() == deviations[1].sum()
    # summed one symbol after another, the second codeword would win
    by_symbol = [sum(d.reshape(n0, k).T.ravel()) for d in deviations]
    assert by_symbol[1] < by_symbol[0]
    eps = 2.0 / pair.min()
    assert encode_block(codebook, states[0], pair, n, eps) == 0
    chunk = np.full((2 * (k - 1), n), np.nan)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coding, "_stream", lambda *key: WordSource(words))
        assert _encode_all((7, _STREAM_SOURCE, 0), thresholds, 2, states, pair, eps, chunk) == [0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    tag=st.sampled_from([_STREAM_STATE, _STREAM_SOURCE, _STREAM_CODEBOOK, _STREAM_OBSERVATION]),
    block=st.integers(0, 2**32 - 1),
)
def test_stream_matches_keyed_philox(seed, tag, block):
    key = np.array([seed, tag << 32 | block], dtype=np.uint64)
    expected = np.random.Philox(key=key).random_raw(9)
    stream, twin = _stream(seed, tag, block), _stream(seed, tag, block)
    assert np.array_equal(stream.random_raw(9), expected)
    # a second stream of the same key shares no state with the first
    assert np.array_equal(twin.random_raw(9), expected)
    # a Generator's doubles are these words' uniforms, the values that the
    # thresholds stand for
    doubles = np.random.Generator(np.random.Philox(key=key)).random(9)
    assert np.array_equal(uniforms_of(expected), doubles)


@st.composite
def philox_lanes(draw):
    """1 to 4 streams, each with the words start, start + 1, ... after
    ``counter`` steps, and the lanes that read them: (stream, counter block,
    word in the block), shuffled across the streams."""
    streams = draw(st.lists(st.tuples(
        word,
        st.sampled_from([_STREAM_STATE, _STREAM_SOURCE, _STREAM_CODEBOOK, _STREAM_OBSERVATION]),
        st.integers(0, 2**32 - 1),
        st.integers(0, 64) | st.integers(2**32 - 3, 2**32 + 3) | st.integers(0, 2**64 - 8),
        st.integers(0, 3),
        st.integers(1, 13),
    ), min_size=1, max_size=4))
    lanes = [(k, counter + 1 + j // 4, j % 4)
             for k, (*_, counter, start, size) in enumerate(streams)
             for j in range(start, start + size)]
    return streams, draw(st.permutations(lanes))


@settings(max_examples=80, deadline=None)
@given(philox_lanes())
def test_philox_block_matches_stream(case):
    # words read by random access from a word in mid-step, the lanes of
    # every stream in one call; at counters of 2**32 and more the products'
    # 32-bit halves carry
    streams, lanes = case
    stream = np.array([k for k, _, _ in lanes])
    counter = np.array([c for _, c, _ in lanes], dtype=np.uint64)
    lane = np.array([j for _, _, j in lanes])
    words = _philox_block(_round_keys([s[:3] for s in streams]), stream, counter)
    assert words.shape == (4, len(lanes)) and words.dtype == np.uint64
    for k, (seed, tag, block, steps, start, size) in enumerate(streams):
        key = np.array([seed, tag << 32 | block], dtype=np.uint64)
        expected = np.random.Philox(key=key, counter=steps).random_raw(start + size)[start:]
        # the stream's lanes in word order
        mine = np.flatnonzero(stream == k)
        mine = mine[np.lexsort((lane[mine], counter[mine]))]
        assert np.array_equal(words[lane[mine], mine], expected)


def test_streams_read_no_os_entropy(monkeypatch):
    from numpy.random import bit_generator

    def refuse(*args):
        raise AssertionError("a stream read OS entropy")

    # Philox(key=...) seeds a SeedSequence from randbits before using the key
    monkeypatch.setattr(bit_generator, "randbits", refuse)
    _stream(3, _STREAM_CODEBOOK, 7).random_raw(4)
    run(_binary_config(16, 4, 6, 0.4, 1.5))


def test_import_loads_no_random_module():
    code = (
        "import sys, codedpc.cli, codedpc.coding; "
        "print(sorted({'numpy.random', 'secrets'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(coding.__file__).parents[1])},
    )
    assert out.stdout == "[]\n"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    block=st.integers(0, 2**32 - 1),
    n=st.integers(1, 41),
    m=st.integers(1, 60),
)
def test_codebook_row_matches_full_draw(seed, block, n, m):
    assume(m * n % 4)
    # 256 equal steps: a word's symbol is its top 8 bits, so a row read from
    # the wrong words shows
    cdf = np.arange(1, 257) / 256
    for tag in (_STREAM_SOURCE, _STREAM_CODEBOOK):
        full = _stream(seed, tag, block).random_raw((m + 1, n))
        row = _symbols(_thresholds(cdf), (seed, tag, block), n, m * n)
        assert np.array_equal(row, quantize_rows(cdf, uniforms_of(full[m])))
        assert np.array_equal(row, full[m] >> np.uint64(56))


@st.composite
def played_rows(draw):
    """A key, a row m of an (M, n) draw, a CDF for K in 1..4 (one for every
    position or one per position) and the codewords per scan chunk."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 13))
    weights = draw(hnp.arrays(np.float64, draw(st.sampled_from([(k,), (n, k)])),
                              elements=unit | st.just(0.0)))
    cdf = np.cumsum(weights + 1e-3, axis=-1)
    cdf /= cdf[..., -1:]
    key = (draw(st.integers(0, 2**64 - 1)), _STREAM_CODEBOOK, draw(st.integers(0, 2**32 - 1)))
    return key, n, draw(st.integers(0, 30)), cdf, draw(st.integers(1, 7))


@slow_ok
@given(played_rows())
def test_played_row_matches_scanned_row(case):
    # the row that _symbols plays and the row that _scan reads from the same
    # stream give the same masks, also when the chunks before row m drew a
    # number of words that leaves the Philox counter in mid-step, so that
    # row m straddles a counter step
    key, n, m, cdf, per_chunk = case
    thresholds, k = _thresholds(cdf), cdf.shape[-1]
    played = _symbols(thresholds, key, n, m * n)
    chunk = np.full((per_chunk * max(k - 1, 1), n), np.nan)
    scanned = None
    for lo, masks in _scan(_stream(*key).random_raw, m + 1 + per_chunk, thresholds, chunk):
        if lo <= m < lo + masks.shape[1]:
            scanned = masks[:, m - lo].copy()
    assert scanned is not None and len(scanned) == k - 1
    for v in range(1, k):
        assert np.array_equal(scanned[v - 1], played >= v)


def test_chunked_draws_match_one_draw():
    bits = _stream(5, _STREAM_CODEBOOK, 3)
    chunks = np.concatenate([bits.random_raw((r, 7)) for r in (1, 3, 5, 2)])
    assert np.array_equal(chunks, _stream(5, _STREAM_CODEBOOK, 3).random_raw((11, 7)))


def _wide_x2_config() -> CodingConfig:
    """|X2| = 4, independent of the state, so any rate is admissible: the
    codebook has 2 rows, fewer than the encoder's 3 masks of a chunk."""
    return CodingConfig(
        target=JointDistribution(np.full((2, 2, 4), 1 / 16), ("x0", "x1", "x2")),
        channel=ObservationChannel.identity(2),
        prior=StatePrior(np.array([0.5, 0.5])),
        payoff=PayoffTable(np.zeros((2, 2, 4))),
        block_length=8, num_blocks=6, epsilon=4.0, seed=3,
    )


_NOISY3 = ObservationChannel(np.full((3, 3), 0.1) + 0.7 * np.eye(3))


def _single_symbol_config(shape) -> CodingConfig:
    """A uniform target of ``shape`` with |X1| or |X2| equal to 1, so a scan
    runs with no masks; x2 is independent of the state, so any rate is
    admissible.  At epsilon 4 no block fails on an absent cell."""
    return CodingConfig(
        target=JointDistribution(np.full(shape, 1 / np.prod(shape)), ("x0", "x1", "x2")),
        channel=ObservationChannel.identity(shape[1]),
        prior=StatePrior(np.full(shape[0], 1 / shape[0])),
        payoff=PayoffTable(np.zeros(shape)),
        block_length=8, num_blocks=6, rate=0.5, epsilon=4.0, seed=5,
    )


SINGLE_SYMBOL_SHAPES = [(2, 1, 2), (2, 2, 1), (2, 1, 1)]


@pytest.mark.parametrize("rows_per_chunk", [1, 3, 4])
@pytest.mark.parametrize(
    "make_config",
    [
        # every source codeword is typical in most blocks: the encoder's
        # argmin must carry across chunk boundaries
        lambda: _binary_config(16, 4, 30, 0.4, 1.5),
        # two or three typical candidates per block: the decoder's first
        # typical index and its count must carry across them too
        lambda: _binary_config(24, 2, 12, 0.15, 2.0, _BSC),
        _wide_x2_config,
        # |X1| = 3: the decoder's two masks split the chunk, and up to four
        # candidates per block are typical, the first not always row 0
        lambda: _ternary_config(24, 3, 10, 0.15, 8.0, _NOISY3),
        *(lambda shape=shape: _single_symbol_config(shape) for shape in SINGLE_SYMBOL_SHAPES),
    ],
    ids=[
        "encoder-ties", "decoder-several", "x2-wider-than-chunk", "x1-ternary-several",
        *("single-symbol-" + "x".join(map(str, shape)) for shape in SINGLE_SYMBOL_SHAPES),
    ],
)
def test_report_independent_of_chunk_size(monkeypatch, make_config, rows_per_chunk):
    cfg = make_config()
    width = max(cfg.block_length, cfg.reference.pmf.size)
    assert coding._chunk_rows(width) >= cfg.codebook_size
    whole = sim_report(cfg)
    monkeypatch.setattr(coding, "_CHUNK_BYTES", 8 * width * rows_per_chunk)
    assert coding._chunk_rows(width) == rows_per_chunk
    assert sim_report(cfg) == whole


@pytest.mark.parametrize("shape", SINGLE_SYMBOL_SHAPES, ids=str)
def test_single_symbol_alphabet_outcomes(shape):
    cfg = _single_symbol_config(shape)
    blocks = run(cfg).blocks[:-1]
    # with |X1| = 1 every candidate is the same codeword; with |X2| = 1 every
    # source codeword is the same, so the encoder sends the first, index 0,
    # whose channel codeword the identity channel's observations match exactly
    assert [d.decoded_index for d in blocks] == [0] * len(blocks)
    if shape[1] == 1:
        assert {d.typical_candidates for d in blocks} <= {0, cfg.codebook_size}
    else:
        assert [d.encoded_index for d in blocks] == [0] * len(blocks)


@st.composite
def decoder_batches(draw):
    """A batch of 1 to 4 decoder blocks that share n (any remainder mod 4),
    the codebook size, a (groups, K) reference and the (groups, K - 1)
    thresholds of the CDF that each group fixes, for K in 1..4, and the
    rows of the scan's buffer, of a random-access chunk and of a Philox
    call.  The CDFs have zero-probability symbols.  A block is a keyed
    channel codebook and each position's group; a later block repeats the
    first, shares its groups under another key, or draws its own.  The
    reference has zero cells around one row of each block (so that some rows
    of each pass the allowed symbols, and at epsilon >= 1 those rows are
    typical when the reference is their own)."""
    k, n_groups = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n, size = draw(st.integers(1, 13) | st.integers(33, 64)), draw(st.integers(1, 40))
    weights = draw(hnp.arrays(np.float64, (n_groups, k), elements=unit | st.just(0.0)))
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    table = _thresholds(np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1))

    def new_key():
        return draw(word), _STREAM_CODEBOOK, draw(st.integers(0, 2**32 - 1))

    def new_block():
        return new_key(), draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_groups - 1)))

    first = key, groups = new_block()
    blocks = [first]
    for _ in range(draw(st.integers(0, 3))):
        later = draw(st.sampled_from(["repeat", "rekeyed", "new"]))
        if later == "repeat":
            blocks.append(first)
        elif later == "rekeyed":
            blocks.append((new_key(), groups))
        else:
            blocks.append(new_block())
    ref = np.zeros(n_groups * k)
    anchors = {b[0]: b for b in blocks}.values()
    for anchor_key, anchor_groups in anchors:
        row = _symbols(table[anchor_groups], anchor_key, n, draw(st.integers(0, size - 1)) * n)
        ref += row_counts((anchor_groups * k + row)[None, :], n_groups * k)[0] / n / len(anchors)
    # noise on a group that does not occur decides the block at epsilon < 1
    kind = draw(st.sampled_from(["own", "own_plus_noise", "noise"]))
    small = st.floats(1e-4, 0.05)
    noise = draw(hnp.arrays(np.float64, n_groups * k, elements=unit | st.just(0.0) | small))
    noise[~np.isin(np.arange(n_groups), groups).repeat(k)] *= draw(st.sampled_from([0.0, 1.0]))
    if kind != "own" and noise.sum() > 0:
        ref = (0.5 * ref if kind == "own_plus_noise" else 0.0) + noise / noise.sum() / 2
    eps = draw(st.sampled_from([0.2, 0.5, 1.0, 1.5]) | st.floats(0.01, 3.0))
    chunk_rows = max(k - 1, 1) * draw(st.integers(1, 3)) + draw(st.integers(0, 1))
    return (draw(st.permutations(blocks)), table, ref.reshape(n_groups, k), size, eps, chunk_rows,
            draw(st.integers(1, 8)), draw(st.integers(1, 64)))


@settings(max_examples=200, deadline=None)
@given(decoder_batches())
def test_decode_matches_scan(batch):
    blocks, table, ref, size, eps, chunk_rows, access_rows, lanes = batch
    chunk = np.full((chunk_rows, blocks[0][1].shape[0]), np.nan)
    expected = [scan_decode(key, table[groups], groups, ref, size, eps, chunk)
                for key, groups in blocks]
    count, allowed_rows, words = coding._count_typical, coding._allowed_rows, coding._words
    handed, drawn = [], []

    def whole(block, *args):
        handed.append((block[0], "all"))
        return count(block, *args)

    def kept(access, table, allowed, size, n):
        rows = allowed_rows(access, table, allowed, size, n)
        handed.extend((key, r.tolist()) for (key, *_), r in zip(access, rows))
        return rows

    def row_words(key, n, skip=0):
        drawn.append((key, skip // n))
        return words(key, n, skip)

    with pytest.MonkeyPatch.context() as patch:
        # random access in chunks of access_rows rows and Philox calls of at
        # most `lanes` rows, so that a codebook spans several chunks, a round
        # several calls, and a batch of long codebooks several passes
        patch.setattr(coding, "_CHUNK_BYTES", 8 * coding._PHILOX_WIDTH * access_rows)
        patch.setattr(coding, "_PHILOX_LANES", lanes)
        patch.setattr(coding, "_count_typical", whole)
        patch.setattr(coding, "_allowed_rows", kept)
        patch.setattr(coding, "_words", row_words)
        assert coding._chunk_rows(coding._PHILOX_WIDTH) == access_rows
        # at _FEW_ROWS = 0, groups are tested down to the last live row
        for few_rows in (coding._FEW_ROWS, 0):
            patch.setattr(coding, "_FEW_ROWS", few_rows)
            handed.clear()
            drawn.clear()
            assert _decode(blocks, table, ref, size, eps, chunk) == expected
            # every row that random access keeps is drawn, and no other
            assert sorted(drawn) == sorted((key, m) for key, rows in handed if rows != "all"
                                           for m in rows)
            # the batch hands each block the rows that it would read alone
            batch_rows = sorted(handed, key=repr)
            handed.clear()
            for block in blocks:
                _decode([block], table, ref, size, eps, chunk)
            assert sorted(handed, key=repr) == batch_rows


@st.composite
def restricted_tables(draw):
    """Per group, the thresholds of a CDF over K in 1..5 symbols, some of
    zero width, whose last entry reaches 1.0 or falls short of it; which
    (group, symbol) cells are allowed; and each position's group."""
    k, n_groups, n = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 30))
    weights = draw(hnp.arrays(np.float64, (n_groups, k), elements=unit | st.just(0.0)))
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    cdf *= draw(hnp.arrays(np.float64, (n_groups, 1),
                           elements=st.sampled_from([1.0, 1.0 - 2.0**-52, 0.9])))
    allowed = draw(hnp.arrays(np.bool_, (n_groups, k)))
    groups = draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_groups - 1)))
    return _thresholds(cdf), allowed, groups


@slow_ok
@given(restricted_tables())
def test_restricted_groups_match_per_position_rule(case):
    table, allowed, groups = case
    restricted = np.flatnonzero(coding._restricted(table, allowed)[groups])
    # the rule per position that one table per group replaced: how many of
    # the 2**53 word steps fall on an allowed symbol at that position
    thresholds = table[groups]
    widths = np.diff(thresholds, axis=1, prepend=np.uint64(0), append=np.uint64(2**53))
    assert np.array_equal(restricted, np.flatnonzero((widths * allowed[groups]).sum(axis=1) < 2**53))
    # and what it means: the first word of some disallowed symbol's steps
    # maps to that symbol
    starts = np.concatenate([np.zeros((len(table), 1), np.uint64), table], axis=1)
    reach = [[s < 2**53 and _quantize(row, np.uint64(int(s) << 11)) == x for x, s in enumerate(starts[g])]
             for g, row in enumerate(table)]
    can_miss = [any(r and not a for r, a in zip(reach[g], allowed[g])) for g in range(len(table))]
    assert restricted.tolist() == [t for t, g in enumerate(groups) if can_miss[g]]


@pytest.mark.parametrize(
    "make_config",
    [*SIM_RUNS.values(), *(lambda shape=shape: _single_symbol_config(shape)
                           for shape in SINGLE_SYMBOL_SHAPES)],
    ids=[*SIM_RUNS, *("single-symbol-" + "x".join(map(str, s)) for s in SINGLE_SYMBOL_SHAPES)],
)
def test_decoder_matches_scan_on_every_block(monkeypatch, make_config):
    decode, calls = coding._decode, []

    def checked(blocks, table, ref, size, eps, chunk):
        found = decode(blocks, table, ref, size, eps, chunk)
        assert found == [scan_decode(key, table[groups], groups, ref, size, eps, chunk)
                         for key, groups in blocks]
        calls.append([(key[2], groups, result) for (key, groups), result in zip(blocks, found)])
        return found

    monkeypatch.setattr(coding, "_decode", checked)
    cfg = make_config()
    report = run(cfg).blocks
    coded = range(cfg.num_blocks - 1)
    # every coded block at once, then alone each block that follows a
    # decoder error, in order
    assert [b for b, _, _ in calls[0]] == list(coded)
    errors = [b for b in coded if b and report[b - 1].decode_error]
    assert [[b for b, _, _ in call] for call in calls[1:]] == [[b] for b in errors]
    # a block's last decode is its reported outcome, at the x2 the decoder
    # played: the source row of the index it decoded in the block before
    # (row 0 in block 0)
    last = {b: (groups, result) for call in calls for b, groups, result in call}
    n, n2, ny = cfg.block_length, cfg.target.pmf.shape[2], cfg.channel.n_outputs
    x2_thr = _thresholds(np.cumsum(cfg.target.pmf.sum(axis=(0, 1))))
    for b in coded:
        groups, result = last[b]
        assert result == (report[b].typical_candidates, report[b].decoded_index)
        previous = report[b - 1].decoded_index if b else 0
        played = _symbols(x2_thr, (cfg.seed, _STREAM_SOURCE, 0), n, previous * n)
        assert np.array_equal(groups // ny % n2, played)


def test_identity_channel_decoder_reads_few_words(monkeypatch):
    # the observations equal the channel codeword, so a candidate is typical
    # only if it matches them at every position: random access drops almost
    # every row within a few positions, the few rows left are drawn alone
    # and counted together, and no count scan reads the codebook.  Every
    # coded block is decoded in one pass, whose rounds share Philox calls:
    # one block at a time took 78 calls, two per block, over the same 42,495
    # rows
    cfg = _binary_config(400, 1, 40, 0.025, 0.5)
    decode, scan = coding._decode, coding._scan
    philox, raw = coding._philox_block, coding._words
    inside, words, scanned, lanes = [False], [0], [], []

    def counted_decode(*args):
        inside[0] = True
        try:
            return decode(*args)
        finally:
            inside[0] = False

    def counted_scan(draw, size, *args):
        if inside[0]:
            scanned.append(size)
        return scan(draw, size, *args)

    def counted_philox(round_keys, stream, counter):
        if inside[0]:
            words[0] += 4 * counter.size
            lanes.append(counter.size)
        return philox(round_keys, stream, counter)

    def counted_words(key, shape, skip=0):
        if inside[0]:
            words[0] += int(np.prod(shape)) + skip % 4
        return raw(key, shape, skip)

    for name, wrapper in [("_decode", counted_decode), ("_scan", counted_scan),
                          ("_philox_block", counted_philox), ("_words", counted_words)]:
        monkeypatch.setattr(coding, name, wrapper)
    result = run(cfg)
    coded = cfg.num_blocks - 1
    # no count scan
    assert scanned == []
    assert words[0] < coded * cfg.codebook_size * cfg.block_length / 16
    assert len(lanes) <= 12 and sum(lanes) == 42_495
    assert max(lanes) <= coding._PHILOX_LANES
    # the played codeword matches, and is the one decoded
    assert all(d.typical_candidates >= 1 for d in result.blocks[:-1])
    assert result.decoder_errors == 0


def test_small_codebook_decoder_reads_one_stream(monkeypatch):
    # random access keeps every row of a codebook of at most _FEW_ROWS rows,
    # since no group of it is ever larger, and then reads each kept row from
    # a stream of its own: such blocks are counted from one stream instead.
    # Through random access this run opened 931 streams
    cfg = SIM_RUNS["sim_binary_encoder_fail_n40.json"]()
    assert cfg.codebook_size <= coding._FEW_ROWS
    allowed_rows, stream, calls, opened = coding._allowed_rows, coding._stream, [], []

    def counted(*args):
        calls.append(args)
        return allowed_rows(*args)

    monkeypatch.setattr(coding, "_allowed_rows", counted)
    monkeypatch.setattr(coding, "_stream", lambda *args, **kw: opened.append(args) or stream(*args, **kw))
    assert run(cfg).decoder_errors > 0
    assert calls == []
    assert len(opened) == 166
