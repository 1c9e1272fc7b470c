import tracemalloc

import numpy as np
import pytest

from codedpc import (
    CodingConfig,
    CodingConfigError,
    JointDistribution,
    ObservationChannel,
    PayoffTable,
    StatePrior,
    coding,
    expected_payoff,
    run,
    solve,
    total_variation,
)
from codedpc.coding import MAX_STAGES, _typical_chunks
from test_golden import _binary_config
from codedpc.icmodel import (
    ICConfig,
    build_payoff_table,
    build_state_prior,
    fpc_distribution,
    identity_observation_channel,
)


def weakly_coordinated_target(beta=0.05):
    """Binary everything: x1 uniform independent, P(x2 = x0) = 0.5 + beta."""
    cond = np.zeros((2, 2, 2))
    for x0 in range(2):
        for x2 in range(2):
            p2 = 0.5 + beta if x2 == x0 else 0.5 - beta
            cond[x0, :, x2] = 0.5 * p2
    target = JointDistribution(0.5 * cond, ("x0", "x1", "x2"))
    prior = StatePrior(np.array([0.5, 0.5]))
    channel = ObservationChannel.identity(2)
    w = np.zeros((2, 2, 2))
    w[0, 0, 0] = 1.0
    w[1, 1, 1] = 1.0
    return target, channel, prior, PayoffTable(w)


def weak_config(n, seed, blocks=40, eps=0.5, rate=0.025):
    target, channel, prior, payoff = weakly_coordinated_target()
    return CodingConfig(
        target=target,
        channel=channel,
        prior=prior,
        payoff=payoff,
        block_length=n,
        num_blocks=blocks,
        rate=rate,
        epsilon=eps,
        seed=seed,
    )


def typical(groups, symbols, ref, eps):
    """The simulator's typicality verdict on one sequence of (group, symbol)
    cells; ``ref`` is (groups, symbols).  The word whose top 53 bits are the
    symbol reaches exactly the levels 1, ..., symbol."""
    n_groups, k = ref.shape
    words = symbols.astype(np.uint64) << np.uint64(11)
    scan = _typical_chunks(lambda count: words.copy(), 1, np.arange(1, k, dtype=np.uint64),
                           np.empty((max(k - 1, 1), groups.size)), groups[None, :], ref, eps)
    [(_, _, _, verdict)] = scan
    return bool(verdict[0, 0])


class TestTypicalSetTest:
    def test_exact_frequencies_pass_any_epsilon(self):
        ref = np.array([[0.25, 0.25], [0.25, 0.25]])
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        assert typical(a, b, ref, 1e-9)

    def test_zero_probability_cell_fails(self):
        ref = np.array([[0.5, 0.0], [0.0, 0.5]])
        a = np.array([0, 1, 0, 1])
        b = np.array([0, 1, 1, 0])  # visits the forbidden (0, 1) cell
        assert not typical(a, b, ref, 10.0)

    def test_iid_samples_typical_with_high_frequency(self):
        # Monte-Carlo estimate: 1000-symbol i.i.d. draws, tolerance 0.2
        pmf = np.array([0.3, 0.45, 0.25])
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            seq = rng.choice(3, size=1000, p=pmf)
            hits += typical(np.zeros(1000, dtype=int), seq, pmf[None, :], 0.2)
        assert hits >= 95


class TestCodingConfig:
    def test_rate_interval_enforced(self):
        target, channel, prior, payoff = weakly_coordinated_target()
        with pytest.raises(CodingConfigError, match="interval"):
            CodingConfig(
                target=target, channel=channel, prior=prior, payoff=payoff,
                block_length=100, num_blocks=5, rate=1.5,
            )

    def test_infeasible_target_names_informations(self):
        # x2 copies the state while x1 stays constant: nothing decodable
        rho = np.array([0.5, 0.5])
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 0.5
        arr[1, 0, 1] = 0.5
        target = JointDistribution(arr, ("x0", "x1", "x2"))
        with pytest.raises(CodingConfigError, match="coordination information"):
            CodingConfig(
                target=target,
                channel=ObservationChannel.identity(2),
                prior=StatePrior(rho),
                payoff=PayoffTable(np.zeros((2, 2, 2))),
                block_length=50,
                num_blocks=5,
            )

    def test_codebook_cap(self):
        with pytest.raises(CodingConfigError, match="cap"):
            weak_config(n=100, seed=0, rate=0.5)

    def test_default_rate_is_midpoint(self):
        target, channel, prior, payoff = weakly_coordinated_target()
        cfg = CodingConfig(
            target=target, channel=channel, prior=prior, payoff=payoff,
            block_length=8, num_blocks=5,
        )
        mid = 0.5 * (cfg.info_coordination + cfg.info_channel)
        assert cfg.resolved_rate == pytest.approx(mid)

    def test_prior_mismatch_rejected(self):
        target, channel, _, payoff = weakly_coordinated_target()
        with pytest.raises(CodingConfigError, match="prior"):
            CodingConfig(
                target=target, channel=channel,
                prior=StatePrior(np.array([0.3, 0.7])), payoff=payoff,
                block_length=10, num_blocks=5, rate=0.1,
            )

    # bool is an int subclass: rate=True used to run as 1.0; a string used to
    # raise TypeError from math.isfinite
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), True, "0.1"])
    def test_nonfinite_rate_rejected(self, rate):
        # a zero-coordination target accepts any finite positive rate
        cfg_ic = ICConfig.for_regime("hir", 10.0)
        with pytest.raises(CodingConfigError, match="finite"):
            CodingConfig(
                target=fpc_distribution(cfg_ic),
                channel=identity_observation_channel(),
                prior=build_state_prior(cfg_ic),
                payoff=build_payoff_table(cfg_ic),
                block_length=10, num_blocks=5, rate=rate,
            )

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), True, "0.5"])
    def test_nonfinite_epsilon_rejected(self, eps):
        # inf * 0 is NaN, so an infinite tolerance used to fail every
        # zero-probability cell instead of accepting everything
        with pytest.raises(CodingConfigError, match="finite"):
            weak_config(n=10, seed=0, eps=eps)

    def test_huge_rate_hits_cap(self):
        # 2**(n * rate) overflows a float here; the cap must still apply
        with pytest.raises(CodingConfigError, match="cap"):
            weak_config(n=2000, seed=0, rate=0.6)

    def test_block_count_minimum(self):
        with pytest.raises(CodingConfigError):
            weak_config(n=10, seed=0, blocks=1)

    @pytest.mark.parametrize(
        "shape, axes",
        [((2,), ("x0",)), ((2, 2), ("x0", "x1")), ((2, 2, 2, 2), None)],
        ids=["1-D", "2-D", "4-D"],
    )
    def test_target_needs_three_axes(self, shape, axes):
        _, channel, prior, payoff = weakly_coordinated_target()
        target = JointDistribution(np.full(shape, 1.0 / np.prod(shape)), axes)
        with pytest.raises(CodingConfigError):
            CodingConfig(
                target=target, channel=channel, prior=prior, payoff=payoff,
                block_length=10, num_blocks=5, rate=0.1,
            )

    # built only, never run: a run over the cap would allocate its words
    @pytest.mark.parametrize(
        "n, blocks, accepted",
        [(2**10, 2**12, True), (2**10, 2**12 + 1, False), (200, 10**8, False)],
        ids=["at-cap", "one-block-over", "1e8-blocks"],
    )
    def test_stage_cap(self, n, blocks, accepted):
        # a zero-coordination target: M = 2 whatever the block length
        cfg_ic = ICConfig.for_regime("hir", 10.0)
        kwargs = dict(
            target=fpc_distribution(cfg_ic),
            channel=identity_observation_channel(),
            prior=build_state_prior(cfg_ic),
            payoff=build_payoff_table(cfg_ic),
            block_length=n, num_blocks=blocks,
        )
        if accepted:
            assert CodingConfig(**kwargs).codebook_size == 2
        else:
            with pytest.raises(CodingConfigError, match=f"cap {MAX_STAGES}"):
                CodingConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("block_length", True), ("block_length", 40.5), ("num_blocks", 2.5), ("seed", 1.5)],
    )
    def test_non_integer_rejected(self, field, value):
        target, channel, prior, payoff = weakly_coordinated_target()
        sizes = {"block_length": 40, "num_blocks": 5, "seed": 0, field: value}
        with pytest.raises(CodingConfigError, match=f"{field} must be an integer"):
            CodingConfig(
                target=target, channel=channel, prior=prior, payoff=payoff,
                rate=0.025, **sizes,
            )

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_philox_key_rejected(self, seed):
        # the seed is one 64-bit Philox key word: -1 used to run as
        # 2**64 - 1 and 2**64 as 0
        with pytest.raises(CodingConfigError, match="seed must be"):
            weak_config(n=10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        cfg = weak_config(n=10, seed=seed, blocks=2)
        assert cfg.seed == seed
        assert run(cfg).blocks

    def test_numpy_integers_accepted(self):
        plain = run(weak_config(n=40, seed=3, blocks=5))
        numpy_ints = run(weak_config(n=np.int64(40), seed=np.int64(3), blocks=np.int32(5)))
        assert numpy_ints.to_dict() == plain.to_dict()
        assert np.array_equal(numpy_ints.empirical.pmf, plain.empirical.pmf)


class TestRunDegenerate:
    def test_single_state_nothing_to_communicate(self):
        prior = StatePrior(np.array([1.0]))
        arr = np.zeros((1, 2, 2))
        arr[0] = [[0.15, 0.35], [0.15, 0.35]]
        target = JointDistribution(arr, ("x0", "x1", "x2"))
        cfg = CodingConfig(
            target=target,
            channel=ObservationChannel.identity(2),
            prior=prior,
            payoff=PayoffTable(np.ones((1, 2, 2))),
            block_length=200,
            num_blocks=20,
            epsilon=0.5,
            seed=11,
        )
        assert cfg.info_coordination == 0.0
        result = run(cfg)
        assert result.decoder_errors == 0
        x2_emp = result.empirical.pmf.sum(axis=(0, 1, 3))
        assert np.abs(x2_emp - [0.3, 0.7]).max() < 0.05

    def test_constant_action_target(self):
        cfg_ic = ICConfig.for_regime("hir", 10.0)
        target = fpc_distribution(cfg_ic)
        cfg = CodingConfig(
            target=target,
            channel=identity_observation_channel(),
            prior=build_state_prior(cfg_ic),
            payoff=build_payoff_table(cfg_ic),
            block_length=100,
            num_blocks=25,
            seed=5,
        )
        result = run(cfg)
        assert result.decoder_errors == 0
        # all action mass at full power
        actions = result.empirical.pmf.sum(axis=(0, 3))
        assert actions[1, 1] == pytest.approx(1.0, abs=1e-12)
        # deviation from the target comes from state sampling alone
        state_tv = total_variation(
            JointDistribution(result.empirical.pmf.sum(axis=(1, 2, 3)), ("x0",)),
            JointDistribution(target.pmf.sum(axis=(1, 2)), ("x0",)),
        )
        assert result.tv_to_target == pytest.approx(state_tv, abs=1e-12)


class TestRunStatistics:
    def test_determinism(self):
        a = run(weak_config(n=100, seed=42))
        b = run(weak_config(n=100, seed=42))
        assert np.array_equal(a.empirical.pmf, b.empirical.pmf)
        assert a.tv_to_target == b.tv_to_target
        assert a.blocks == b.blocks

    def test_counts_bounded_and_distribution_valid(self):
        result = run(weak_config(n=100, seed=1, blocks=30))
        assert 0 <= result.encoder_failures <= 30
        assert 0 <= result.decoder_errors <= 30
        assert result.empirical.pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(result.blocks) == 30
        assert result.blocks[-1].payoff_only
        assert not any(d.payoff_only for d in result.blocks[:-1])

    def test_payoff_matches_empirical_distribution(self):
        cfg = weak_config(n=200, seed=2)
        result = run(cfg)
        emp3 = JointDistribution(result.empirical.pmf.sum(axis=3), ("x0", "x1", "x2"))
        assert result.average_payoff == pytest.approx(
            expected_payoff(emp3, cfg.payoff), abs=1e-12
        )

    def test_payoff_deviation_bound(self):
        # |average - target| <= 2 * TV * max |w|, an exact triangle bound
        for seed in (0, 3, 9):
            cfg = weak_config(n=100, seed=seed)
            result = run(cfg)
            target_payoff = expected_payoff(cfg.target, cfg.payoff)
            bound = 2.0 * result.tv_to_target * np.abs(cfg.payoff.values).max()
            assert abs(result.average_payoff - target_payoff) <= bound + 1e-12

    def test_tv_improves_with_block_length(self):
        # medians over a small seed set; the acceptance suite runs the
        # full-size campaign
        tv100 = np.median([run(weak_config(100, s)).tv_to_target for s in range(8)])
        tv400 = np.median([run(weak_config(400, s)).tv_to_target for s in range(8)])
        assert tv400 < tv100

    def test_decoder_errors_trend_down_with_block_length(self):
        means = []
        for n in (50, 100, 200, 400):
            errs = [run(weak_config(n, s, blocks=30)).decoder_errors for s in range(6)]
            means.append(np.mean(errs))
        assert means[-1] <= means[0]
        assert means[-1] <= 1.0

    def test_empirical_approaches_target(self):
        cfg = weak_config(n=400, seed=17, blocks=60)
        result = run(cfg)
        assert result.tv_to_target < 0.05


def _ic_point_config(n) -> CodingConfig:
    """The README's 16-state point: the solver's target at 10 dB with 0.1
    bits of slack, 50 blocks."""
    cfg_ic = ICConfig.for_regime("hir", 10.0)
    prior, channel = build_state_prior(cfg_ic), identity_observation_channel()
    payoff = build_payoff_table(cfg_ic)
    return CodingConfig(
        target=solve(prior, channel, payoff, min_slack=0.1).qbar,
        channel=channel, prior=prior, payoff=payoff, block_length=n, num_blocks=50,
    )


class TestRunMemory:
    @pytest.mark.parametrize(
        "make_config",
        [
            # 65,536 codewords, every block live: both scans read the whole codebook
            lambda: _binary_config(128, 0, 3, 0.125, 0.5),
            # 568,051 codewords that no block reads: every block fails on an absent cell
            lambda: _ic_point_config(50),
        ],
        ids=["binary-n128", "ic-16-state-n50"],
    )
    def test_traced_peak_below_a_quarter_of_the_codebook(self, make_config):
        # a stored codebook takes M*n bytes, even at one uint8 per symbol
        cfg = make_config()
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cfg.codebook_size * cfg.block_length / 4

    def test_all_block_passes_take_at_most_a_chunk_more_than_one_block(self, monkeypatch):
        # the encoder's all-block counts and the decoder's pass over every
        # block's kept rows grow with the blocks they serve: over the binary
        # benchmark run's 39 coded blocks each may take at most one chunk's
        # bytes more than over one block
        cfg = _binary_config(400, 1, 40, 0.025, 0.5)
        calls = {}
        for name in ("_encode_all", "_decode"):
            def first_call(*args, f=getattr(coding, name), name=name):
                calls.setdefault(name, args)
                return f(*args)

            monkeypatch.setattr(coding, name, first_call)
        run(cfg)
        monkeypatch.undo()
        key, thresholds, size, states, pair_ref, eps, chunk = calls["_encode_all"]
        blocks, *decoder_args = calls["_decode"]
        assert len(states) == len(blocks) == 39
        assert all(coding._absent_cells_typical(x0, pair_ref, cfg.block_length, eps)
                   for x0 in states)

        def traced_peak(f, *args):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                f(*args)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        one, every = (traced_peak(coding._encode_all, key, thresholds, size, x0, pair_ref, eps,
                                  chunk) for x0 in (states[:1], states))
        assert every <= one + coding._CHUNK_BYTES
        one, every = (traced_peak(coding._decode, b, *decoder_args) for b in (blocks[:1], blocks))
        assert every <= one + coding._CHUNK_BYTES
