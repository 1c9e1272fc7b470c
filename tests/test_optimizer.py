import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codedpc import (
    AlphabetError,
    ConvergenceError,
    JointDistribution,
    ObservationChannel,
    PayoffTable,
    SolverOptions,
    StatePrior,
    best_actions,
    compose,
    costless_bound,
    expected_payoff,
    info_constraint_gap,
    solve,
)
from codedpc.optimizer import _gap_bits, _gap_grad_bits
from codedpc.icmodel import (
    ICConfig,
    build_payoff_table,
    build_state_prior,
    fpc_distribution,
    identity_observation_channel,
    spc_distribution,
)
from oracles import uniform_distribution


def tiny_instance():
    prior = StatePrior(np.array([0.5, 0.5]))
    channel = ObservationChannel.identity(2)
    w = np.zeros((2, 2, 2))
    w[0, 0, 0] = 1.0
    w[1, 1, 1] = 1.0
    return prior, channel, PayoffTable(w)


class TestExpectedPayoff:
    def test_constant_payoff(self):
        rng = np.random.default_rng(0)
        d = JointDistribution(
            rng.dirichlet(np.ones(8)).reshape(2, 2, 2), ("x0", "x1", "x2")
        )
        assert expected_payoff(d, PayoffTable(np.full((2, 2, 2), 3.25))) == pytest.approx(3.25)

    def test_point_mass(self):
        arr = np.zeros((2, 2, 2))
        arr[1, 0, 1] = 1.0
        w = np.arange(8, dtype=float).reshape(2, 2, 2)
        d = JointDistribution(arr, ("x0", "x1", "x2"))
        assert expected_payoff(d, PayoffTable(w)) == w[1, 0, 1]

    def test_fpc_matches_enumeration_oracle(self):
        # oracle: 16-term weighted sum with product two-point weights
        cfg = ICConfig.for_regime("lir", 10.0)
        value = expected_payoff(fpc_distribution(cfg), build_payoff_table(cfg))
        assert value == pytest.approx(3.6829382763365532, abs=1e-12)

    def test_shape_mismatch(self):
        d = uniform_distribution((2, 2, 2), ("x0", "x1", "x2"))
        with pytest.raises(AlphabetError):
            expected_payoff(d, PayoffTable(np.zeros((2, 2, 3))))


class TestCostlessBound:
    def test_constant_payoff(self):
        prior = StatePrior(np.array([0.2, 0.8]))
        assert costless_bound(prior, PayoffTable(np.full((2, 2, 2), 1.5))) == pytest.approx(1.5)

    def test_single_state_is_max(self):
        prior = StatePrior(np.array([1.0]))
        w = np.array([[[0.0, 2.0], [1.0, 0.5]]])
        assert costless_bound(prior, PayoffTable(w)) == 2.0

    def test_lir_10db_matches_enumeration_oracle(self):
        cfg = ICConfig.for_regime("lir", 10.0)
        bound = costless_bound(build_state_prior(cfg), build_payoff_table(cfg))
        assert bound == pytest.approx(4.02607785630228, abs=1e-12)

    def test_best_actions_tie_break_lowest_index(self):
        w = np.zeros((1, 2, 2))
        w[0, 0, 1] = 5.0
        w[0, 1, 0] = 5.0
        assert best_actions(PayoffTable(w)) == [(0, 1)]


class TestGapGradient:
    def test_matches_finite_differences(self):
        # directional finite differences along slice-preserving directions
        rng = np.random.default_rng(1)
        gamma = rng.dirichlet(np.ones(3), size=2)
        rho = rng.dirichlet(np.ones(4))
        cond = rng.dirichlet(np.ones(4), size=4).reshape(4, 2, 2)
        qbar = rho[:, None, None] * cond
        for inv_stages in (1.0, 0.25):
            grad = _gap_grad_bits(qbar, gamma, inv_stages)
            for _ in range(10):
                direction = rng.normal(size=qbar.shape)
                direction -= direction.mean(axis=(1, 2), keepdims=True)
                eps = 1e-6
                hi = _gap_bits(qbar + eps * direction, gamma, inv_stages)
                lo = _gap_bits(qbar - eps * direction, gamma, inv_stages)
                numeric = (hi - lo) / (2 * eps)
                analytic = float((grad * direction).sum())
                assert analytic == pytest.approx(numeric, abs=1e-6, rel=1e-5)


@st.composite
def sparse_problems(draw):
    """A joint qbar and a channel matrix, both with some zero entries, and S."""
    n0, n1, n2, ny = (draw(st.integers(1, 4)) for _ in range(4))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    q = draw(hnp.arrays(np.float64, (n0, n1, n2), elements=weight))
    if q.sum() == 0.0:
        q[0, 0, 0] = 1.0
    gamma = draw(hnp.arrays(np.float64, (n1, ny), elements=weight))
    gamma[gamma.sum(axis=1) == 0.0, 0] = 1.0
    qbar = JointDistribution(q / q.sum(), ("x0", "x1", "x2"))
    channel = ObservationChannel(gamma / gamma.sum(axis=1, keepdims=True))
    return qbar, channel, draw(st.integers(1, 64))


@settings(deadline=None)
@given(sparse_problems())
def test_gap_kernel_matches_generic_path(problem):
    # zero cells in qbar, its marginals and the channel all take 0 ln 0 = 0
    qbar, channel, stages = problem
    fast = _gap_bits(qbar.pmf, channel.matrix, 1.0 / stages)
    generic = info_constraint_gap(compose(qbar, channel), stages=stages)
    assert fast == pytest.approx(generic, abs=1e-12, rel=0.0)


class TestSolve:
    def test_partner_irrelevant_payoff_hits_costless_bound(self):
        # w does not depend on x2: the per-state argmax with a constant
        # partner action is feasible, so the constraint never binds
        rng = np.random.default_rng(2)
        prior = StatePrior(rng.dirichlet(np.ones(4)))
        w = np.repeat(rng.normal(size=(4, 3, 1)), 2, axis=2)
        payoff = PayoffTable(w)
        channel = ObservationChannel.identity(3)
        res = solve(prior, channel, payoff)
        assert res.converged
        assert res.multiplier == 0.0
        assert res.payoff == pytest.approx(costless_bound(prior, payoff), abs=1e-9)

    def test_tiny_instance_invariants(self):
        prior, channel, payoff = tiny_instance()
        res = solve(prior, channel, payoff)
        # state marginal preserved
        assert np.abs(res.qbar.pmf.sum(axis=(1, 2)) - prior.probs).max() < 1e-8
        # feasibility at the returned point
        gap = info_constraint_gap(compose(res.qbar, channel))
        assert gap <= 1e-6
        assert res.slack == pytest.approx(-gap, abs=1e-9)
        # reported payoff consistent with the distribution
        assert res.payoff == pytest.approx(expected_payoff(res.qbar, payoff), abs=1e-10)
        # certified dual gap within tolerance
        assert res.dual_bound - res.payoff <= SolverOptions().tol_payoff
        assert res.converged

    def test_tiny_instance_value_region(self):
        # bracketed by the always-on baseline and the costless bound
        prior, channel, payoff = tiny_instance()
        res = solve(prior, channel, payoff)
        assert 0.75 <= res.payoff <= costless_bound(prior, payoff)

    def test_determinism(self):
        prior, channel, payoff = tiny_instance()
        a = solve(prior, channel, payoff)
        b = solve(prior, channel, payoff)
        assert a.payoff == b.payoff
        assert np.array_equal(a.qbar.pmf, b.qbar.pmf)

    def test_sandwich_on_interference_instance(self):
        cfg = ICConfig.for_regime("hir", 10.0)
        prior = build_state_prior(cfg)
        payoff = build_payoff_table(cfg)
        channel = identity_observation_channel()
        res = solve(prior, channel, payoff)
        spc = expected_payoff(spc_distribution(cfg), payoff)
        fpc = expected_payoff(fpc_distribution(cfg), payoff)
        bound = costless_bound(prior, payoff)
        assert fpc <= spc + 1e-9
        assert spc <= res.payoff + 1e-6
        assert res.payoff <= bound + 1e-9

    def test_dual_certificate_upper_bounds_feasible_points(self):
        # the dual bound must dominate every feasible policy we can name
        cfg = ICConfig.for_regime("lir", 15.0)
        prior = build_state_prior(cfg)
        payoff = build_payoff_table(cfg)
        res = solve(prior, identity_observation_channel(), payoff)
        spc = expected_payoff(spc_distribution(cfg), payoff)
        assert res.dual_bound >= spc - 1e-9
        assert res.dual_bound >= res.payoff - 1e-12

    def test_zero_probability_states_are_ignored(self):
        # forcing every gain to its low value leaves a single live state
        cfg = ICConfig(snr_db=10.0, p_gmin=(1.0, 1.0, 1.0, 1.0), payoff_form="linear")
        prior = build_state_prior(cfg)
        payoff = build_payoff_table(cfg)
        res = solve(prior, identity_observation_channel(), payoff)
        assert res.converged
        assert res.payoff == pytest.approx(costless_bound(prior, payoff), abs=1e-9)

    def test_min_slack_reduces_payoff_and_keeps_margin(self):
        prior, channel, payoff = tiny_instance()
        plain = solve(prior, channel, payoff)
        padded = solve(prior, channel, payoff, min_slack=0.3)
        assert padded.slack >= 0.3 - 1e-6
        assert padded.payoff <= plain.payoff + 1e-9

    def test_dimension_mismatches_rejected(self):
        prior, channel, payoff = tiny_instance()
        with pytest.raises(AlphabetError):
            solve(StatePrior(np.array([1.0])), channel, payoff)
        with pytest.raises(AlphabetError):
            solve(prior, ObservationChannel.identity(3), payoff)

    @pytest.mark.parametrize("min_slack", [float("nan"), float("inf"), -0.1])
    def test_bad_min_slack_rejected(self, min_slack):
        prior, channel, payoff = tiny_instance()
        with pytest.raises(ValueError, match="min_slack"):
            solve(prior, channel, payoff, min_slack=min_slack)

    def test_no_feasible_point_raises_without_result(self):
        # equal channel rows carry no information, so no point has slack 0.1
        prior, _, payoff = tiny_instance()
        blind = ObservationChannel(np.full((2, 2), 0.5))
        with pytest.raises(ConvergenceError, match="no feasible point") as err:
            solve(prior, blind, payoff, min_slack=0.1,
                  options=SolverOptions(max_inner_iter=50))
        assert err.value.result is None

    def test_non_convergence_raises_with_best_iterate(self):
        prior, channel, payoff = tiny_instance()
        opts = SolverOptions(tol_payoff=1e-13, outer_steps=2, max_inner_iter=40)
        with pytest.raises(ConvergenceError) as err:
            solve(prior, channel, payoff, options=opts)
        res = err.value.result
        assert res is not None and not res.converged
        gap = info_constraint_gap(compose(res.qbar, channel))
        assert gap <= 1e-6


class TestSolveStages:
    def test_one_stage_matches_plain_solve(self):
        prior, channel, payoff = tiny_instance()
        assert solve(prior, channel, payoff, stages=1).payoff == solve(
            prior, channel, payoff
        ).payoff

    def test_monotone_in_stages(self):
        cfg = ICConfig.for_regime("hir", 10.0)
        prior = build_state_prior(cfg)
        payoff = build_payoff_table(cfg)
        channel = identity_observation_channel()
        p1 = solve(prior, channel, payoff, stages=1).payoff
        p4 = solve(prior, channel, payoff, stages=4).payoff
        assert p4 >= p1 - 1e-6

    def test_large_stages_approach_costless(self):
        prior, channel, payoff = tiny_instance()
        res = solve(prior, channel, payoff, stages=64)
        bound = costless_bound(prior, payoff)
        assert res.payoff <= bound + 1e-12
        assert res.payoff >= 0.997

    def test_bad_stages(self):
        prior, channel, payoff = tiny_instance()
        with pytest.raises(ValueError):
            solve(prior, channel, payoff, stages=0)


class TestSolverOptions:
    def test_three_fields(self):
        assert [f.name for f in dataclasses.fields(SolverOptions)] == [
            "tol_payoff", "max_inner_iter", "outer_steps",
        ]

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-5])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol_payoff"):
            SolverOptions(tol_payoff=tol)

    @pytest.mark.parametrize("field", ["max_inner_iter", "outer_steps"])
    @pytest.mark.parametrize("value", [0, -3, 2.5])
    def test_bad_budget_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverOptions(**{field: value})
