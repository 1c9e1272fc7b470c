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
    expected_payoff,
    marginal,
    run,
    solve,
    total_variation,
)
from codedpc.coding import _count_cells, _indicator, _typical_rows
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
    cells; ``ref`` is (groups, symbols)."""
    n_groups, k = ref.shape
    indicator = _indicator(groups, n_groups)
    masks = [(symbols[None, :] >= v).astype(float) for v in range(1, k)]
    counts = _count_cells(masks, indicator, indicator.sum(axis=0), np.empty((1, k, n_groups)))
    return bool(_typical_rows(counts.reshape(1, -1), ref.T.ravel(), groups.size, eps)[0])


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
        x2_emp = marginal(result.empirical, ("x2",)).pmf
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
            marginal(result.empirical, ("x0",)), marginal(target, ("x0",))
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
        emp3 = marginal(result.empirical, ("x0", "x1", "x2"))
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
            # 567,824 codewords that no block reads: every block fails on an absent cell
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
