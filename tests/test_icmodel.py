import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedpc import costless_bound, expected_payoff, is_implementable
from codedpc.icmodel import (
    ChannelGainState,
    ICConfig,
    N_STATES,
    build_payoff_table,
    build_state_prior,
    fpc_distribution,
    gain_states,
    identity_observation_channel,
    spc_distribution,
)
from oracles import sinr


def swap_state_index(s):
    # swap transmitter roles: g11<->g22 and g12<->g21
    b11, b12, b21, b22 = (s >> 3) & 1, (s >> 2) & 1, (s >> 1) & 1, s & 1
    return (b22 << 3) | (b21 << 2) | (b12 << 1) | b11


class TestConfig:
    def test_p_max(self):
        assert ICConfig.for_regime("hir", 10.0).p_max == pytest.approx(10.0)
        assert ICConfig.for_regime("hir", 0.0).p_max == pytest.approx(1.0)
        assert ICConfig(snr_db=20.0, p_gmin=(0.5,) * 4, sigma2=2.0).p_max == pytest.approx(200.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ICConfig(snr_db=10.0, p_gmin=(0.5, 0.5, 0.5, 1.5))
        with pytest.raises(ValueError):
            ICConfig(snr_db=10.0, p_gmin=(0.5,) * 4, g_min=2.0)
        with pytest.raises(ValueError):
            ICConfig(snr_db=10.0, p_gmin=(0.5,) * 4, sigma2=0.0)
        with pytest.raises(ValueError):
            ICConfig(snr_db=10.0, p_gmin=(0.5,) * 4, payoff_form="cubic")
        with pytest.raises(ValueError):
            ICConfig.for_regime("mid", 10.0)

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db must be finite"):
            ICConfig(snr_db=snr_db, p_gmin=(0.5,) * 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma2": math.nan},
            {"sigma2": math.inf},
            {"g_max": math.inf},
            {"g_min": -1.0},
            {"snr_db": 4000.0},
            {"snr_db": 3079.0},
            {"snr_db": 3000.0, "sigma2": 1e300},
        ],
        ids=repr,
    )
    def test_unusable_physics_rejected(self, kwargs):
        # each of these used to build an infinite or NaN payoff table, or
        # overflow computing the full power
        fields = {"snr_db": 10.0, "p_gmin": (0.5,) * 4, **kwargs}
        with pytest.raises(ValueError):
            ICConfig(**fields)

    @settings(deadline=None)
    @given(
        snr_db=st.floats(-4000.0, 4000.0),
        sigma2_exp=st.floats(-320.0, 308.0),
        g_min=st.floats(0.0, 10.0),
        g_span=st.floats(0.0, 1e6, exclude_min=True),
    )
    def test_accepted_config_has_finite_payoffs(self, snr_db, sigma2_exp, g_min, g_span):
        try:
            cfg = ICConfig(
                snr_db=snr_db, p_gmin=(0.5,) * 4, sigma2=10.0**sigma2_exp,
                g_min=g_min, g_max=g_min + g_span,
            )
        except ValueError:
            return
        for form in ("log", "linear"):
            table = build_payoff_table(dataclasses.replace(cfg, payoff_form=form))
            assert np.isfinite(table.values).all()

    def test_state_ordering_lexicographic(self):
        cfg = ICConfig.for_regime("lir", 10.0)
        states = gain_states(cfg)
        assert len(states) == N_STATES
        assert states[0] == ChannelGainState(0.1, 0.1, 0.1, 0.1)
        assert states[15] == ChannelGainState(1.9, 1.9, 1.9, 1.9)
        assert states[8] == ChannelGainState(1.9, 0.1, 0.1, 0.1)
        as_tuples = [tuple(s) for s in states]
        assert as_tuples == sorted(as_tuples)


class TestStatePrior:
    def test_uniform_when_half(self):
        cfg = ICConfig(snr_db=10.0, p_gmin=(0.5,) * 4)
        prior = build_state_prior(cfg)
        assert np.array_equal(prior.probs, np.full(16, 1.0 / 16))

    def test_lir_all_low_state(self):
        # product arithmetic: 0.5 * 0.9 * 0.9 * 0.5
        prior = build_state_prior(ICConfig.for_regime("lir", 10.0))
        assert prior.probs[0] == pytest.approx(0.2025, abs=1e-15)

    def test_forced_link_removes_states(self):
        cfg = ICConfig(snr_db=10.0, p_gmin=(0.5, 1.0, 0.5, 0.5))
        prior = build_state_prior(cfg)
        for s, state in enumerate(gain_states(cfg)):
            if state.g12 != cfg.g_min:
                assert prior.probs[s] == 0.0
        assert prior.probs.sum() == pytest.approx(1.0, abs=1e-15)


class TestSinr:
    def test_zero_power_zero_sinr(self):
        cfg = ICConfig.for_regime("hir", 10.0)
        state = gain_states(cfg)[5]
        assert sinr(cfg, state, 0.0, cfg.p_max, receiver=1) == 0.0

    def test_worked_example(self):
        # g11 = 1.9, g21 = 0.1, both at P_max = 10: 19 / (1 + 1) = 9.5
        cfg = ICConfig.for_regime("hir", 10.0)
        state = ChannelGainState(1.9, 0.1, 0.1, 1.9)
        assert sinr(cfg, state, 10.0, 10.0, receiver=1) == pytest.approx(9.5, abs=1e-15)

    def test_silent_interferer(self):
        cfg = ICConfig.for_regime("hir", 10.0)
        state = ChannelGainState(1.9, 1.9, 1.9, 1.9)
        assert sinr(cfg, state, cfg.p_max, 0.0, receiver=1) == pytest.approx(
            1.9 * cfg.p_max / cfg.sigma2
        )

    def test_monotone_in_powers(self):
        cfg = ICConfig.for_regime("lir", 10.0)
        for state in gain_states(cfg):
            # own power raises a receiver's SINR, interference lowers it
            assert sinr(cfg, state, cfg.p_max, 5.0, 1) >= sinr(cfg, state, 1.0, 5.0, 1)
            assert sinr(cfg, state, 5.0, 1.0, 1) >= sinr(cfg, state, 5.0, 4.0, 1)
            assert sinr(cfg, state, 5.0, 4.0, 2) >= sinr(cfg, state, 5.0, 1.0, 2)
            assert sinr(cfg, state, 1.0, 5.0, 2) >= sinr(cfg, state, 4.0, 5.0, 2)

    def test_bad_receiver(self):
        cfg = ICConfig.for_regime("lir", 10.0)
        with pytest.raises(ValueError):
            sinr(cfg, gain_states(cfg)[0], 1.0, 1.0, receiver=3)


class TestPayoffTable:
    def test_both_off_is_zero(self):
        for form in ("log", "linear"):
            cfg = ICConfig.for_regime("hir", 10.0, payoff_form=form)
            w = build_payoff_table(cfg).values
            assert np.array_equal(w[:, 0, 0], np.zeros(16))

    def test_symmetric_state_full_power_value(self):
        # symmetric strong-direct weak-cross state: both SINRs equal 9.5
        cfg = ICConfig.for_regime("hir", 10.0)
        w = build_payoff_table(cfg).values
        s = (1 << 3) | (0 << 2) | (0 << 1) | 1  # (1.9, 0.1, 0.1, 1.9)
        assert w[s, 1, 1] == pytest.approx(6.7846348455575205, abs=1e-12)

    def test_linear_form_is_sinr_sum(self):
        cfg = ICConfig.for_regime("lir", 7.0, payoff_form="linear")
        w = build_payoff_table(cfg).values
        levels = cfg.power_levels
        for s, state in enumerate(gain_states(cfg)):
            for i, x1 in enumerate(levels):
                for j, x2 in enumerate(levels):
                    expect = sinr(cfg, state, x1, x2, 1) + sinr(cfg, state, x1, x2, 2)
                    assert w[s, i, j] == pytest.approx(expect, abs=1e-12)

    def test_swap_symmetry(self):
        # swapping transmitters and relabeling gains must transpose actions
        for form in ("log", "linear"):
            cfg = ICConfig.for_regime("hir", 12.0, payoff_form=form)
            w = build_payoff_table(cfg).values
            for s in range(16):
                t = swap_state_index(s)
                assert np.allclose(w[s], w[t].T, atol=1e-12)


class TestChannel:
    def test_identity_rows(self):
        gamma = identity_observation_channel()
        assert np.array_equal(gamma.matrix, np.eye(2))
        assert gamma.matrix.sum(axis=1) == pytest.approx(1.0)


class TestPolicies:
    def test_fpc_point_mass_on_full_power(self):
        cfg = ICConfig.for_regime("lir", 10.0)
        qbar = fpc_distribution(cfg)
        pair = qbar.pmf.sum(axis=0)
        assert pair[1, 1] == pytest.approx(1.0, abs=1e-15)

    def test_fpc_and_spc_always_implementable(self):
        for regime in ("lir", "hir"):
            for snr in (0.0, 10.0, 25.0):
                cfg = ICConfig.for_regime(regime, snr)
                prior = build_state_prior(cfg)
                gamma = identity_observation_channel()
                for policy in (fpc_distribution(cfg), spc_distribution(cfg)):
                    verdict = is_implementable(policy, gamma, prior)
                    assert verdict.implementable
                    assert verdict.slack >= -1e-12

    def test_spc_dominates_fpc_pointwise(self):
        for regime in ("lir", "hir"):
            cfg = ICConfig.for_regime(regime, 10.0)
            w = build_payoff_table(cfg)
            assert expected_payoff(spc_distribution(cfg), w) >= expected_payoff(
                fpc_distribution(cfg), w
            )

    def test_spc_argmax_matches_bruteforce(self):
        cfg = ICConfig.for_regime("hir", 10.0)
        w = build_payoff_table(cfg).values
        qbar = spc_distribution(cfg).pmf
        for s in range(16):
            chosen = int(np.argmax(qbar[s].sum(axis=1)))
            brute = max((w[s, x1, 1], x1) for x1 in (0, 1))[1]
            assert chosen == brute

    def test_policy_payoffs_below_costless(self):
        cfg = ICConfig.for_regime("hir", 18.0, payoff_form="linear")
        w = build_payoff_table(cfg)
        bound = costless_bound(build_state_prior(cfg), w)
        assert expected_payoff(spc_distribution(cfg), w) <= bound
