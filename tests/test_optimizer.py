import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codedpc import (
    FEASIBILITY_TOL,
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
from codedpc import optimizer
from codedpc.optimizer import _InfoKernel
from codedpc.icmodel import (
    ICConfig,
    build_payoff_table,
    build_state_prior,
    fpc_distribution,
    identity_observation_channel,
    spc_distribution,
)

import test_solver_bits
from oracles import InfoKernel, bsc_block_state_oracle, uniform_distribution


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

    @pytest.mark.parametrize(
        "shape, axes", [((2, 2), ("x0", "x1")), ((2, 2, 2, 2), None)], ids=["2-D", "4-D"]
    )
    def test_needs_three_axes(self, shape, axes):
        d = uniform_distribution(shape, axes)
        with pytest.raises(AlphabetError):
            expected_payoff(d, PayoffTable(np.zeros((2, 2, 2))))


@pytest.mark.parametrize(
    "values, error, message",
    [
        (np.zeros((2, 4)), AlphabetError, "3-D"),
        (np.full((2, 2, 2), np.nan), ValueError, "non-finite"),
        (np.full((2, 2, 2), np.inf), ValueError, "non-finite"),
    ],
    ids=["2-D", "nan", "inf"],
)
def test_malformed_payoff_table_rejected(values, error, message):
    with pytest.raises(error, match=message):
        PayoffTable(values)


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


def gap_bits(qbar, gamma, inv_stages):
    return _InfoKernel(gamma, inv_stages).gap(qbar)


class TestInfoKernel:
    def test_identity_channel_takes_the_perfect_monitoring_path(self):
        assert _InfoKernel(np.eye(3), 1.0).perfect
        assert _InfoKernel(ObservationChannel.identity(2).matrix, 0.5).perfect
        assert not _InfoKernel(np.eye(2, 3), 1.0).perfect
        assert not _InfoKernel(np.eye(2)[::-1], 1.0).perfect
        assert not _InfoKernel(np.array([[0.9, 0.1], [0.1, 0.9]]), 1.0).perfect


@settings(deadline=None)
@given(
    st.tuples(*(st.integers(1, 4) for _ in range(3))).flatmap(
        lambda shape: hnp.arrays(
            np.float64, shape, elements=st.floats(1e-6, 1.0)
        )
    ),
    st.integers(1, 64),
)
def test_perfect_monitoring_path_is_bit_identical(q, stages):
    # on strictly positive qbar the identity channel's shortcut (no sum over
    # y) gives the general einsum path's gap bit for bit
    qbar = q / q.sum()
    fast = _InfoKernel(np.eye(q.shape[1]), 1.0 / stages)
    general = _InfoKernel(np.eye(q.shape[1]), 1.0 / stages)
    general.perfect = False
    assert fast.perfect
    assert fast.gap(qbar).hex() == general.gap(qbar).hex()


@st.composite
def sparse_problems(draw):
    """A joint qbar and a channel matrix, both with some zero entries, and S.

    Some draws use the identity channel, which takes the perfect-monitoring
    path."""
    n0, n1, n2, ny = (draw(st.integers(1, 4)) for _ in range(4))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    q = draw(hnp.arrays(np.float64, (n0, n1, n2), elements=weight))
    if q.sum() == 0.0:
        q[0, 0, 0] = 1.0
    if draw(st.booleans()):
        gamma = np.eye(n1)
    else:
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
    fast = gap_bits(qbar.pmf, channel.matrix, 1.0 / stages)
    generic = info_constraint_gap(compose(qbar, channel), stages=stages)
    assert fast == pytest.approx(generic, abs=1e-12, rel=0.0)


@st.composite
def kernel_inputs(draw):
    """qbar (strictly positive or with zero cells), an identity or a noisy
    channel matrix (possibly with zero entries and all-zero columns) and S."""
    n0, n1, n2, ny = (draw(st.integers(1, 5)) for _ in range(4))
    positive = draw(st.booleans())
    weight = st.floats(1e-6, 1.0) if positive else st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    q = draw(hnp.arrays(np.float64, (n0, n1, n2), elements=weight))
    if q.sum() == 0.0:
        q[0, 0, 0] = 1.0
    if draw(st.booleans()):
        gamma = np.eye(n1)
    else:
        entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
        gamma = draw(hnp.arrays(np.float64, (n1, ny), elements=entry))
        gamma[gamma.sum(axis=1) == 0.0, 0] = 1.0
        gamma /= gamma.sum(axis=1, keepdims=True)
    return q / q.sum(), gamma, 1.0 / draw(st.integers(1, 64))


@settings(deadline=None, max_examples=300)
@given(kernel_inputs())
def test_fused_kernel_matches_oracle_bit_for_bit(inputs):
    # the one-buffer kernel against the separate-array formulas it replaced
    qbar, gamma, inv_stages = inputs
    gap = _InfoKernel(gamma, inv_stages).gap(qbar)
    assert gap.hex() == InfoKernel(gamma, inv_stages).gap(qbar).hex()


@st.composite
def straddling_pairs(draw, identity):
    """Two qbar arrays with the same state marginal (cells possibly zero),
    the identity channel or a noisy one (possibly with zero entries) and
    1/S."""
    n0, n1, n2, ny = (draw(st.integers(1, 4)) for _ in range(4))
    rho = draw(hnp.arrays(np.float64, n0, elements=st.floats(1e-3, 1.0)))
    pair = []
    for _ in range(2):
        q = draw(hnp.arrays(np.float64, (n0, n1 * n2), elements=st.one_of(
            st.just(0.0), st.floats(1e-6, 1.0))))
        q[q.sum(axis=1) == 0.0, 0] = 1.0
        q *= (rho / rho.sum() / q.sum(axis=1))[:, None]
        pair.append(q.reshape(n0, n1, n2))
    if identity:
        gamma = np.eye(n1)
    else:
        entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
        gamma = draw(hnp.arrays(np.float64, (n1, ny), elements=entry))
        gamma[gamma.sum(axis=1) == 0.0, 0] = 1.0
        gamma /= gamma.sum(axis=1, keepdims=True)
    return pair, gamma, 1.0 / draw(st.integers(1, 64))


@pytest.mark.parametrize("identity", [True, False], ids=["identity", "noisy"])
@settings(deadline=None, max_examples=200)
@given(data=st.data(), level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_boundary_mix_of_a_straddling_pair_is_feasible(identity, data, level):
    # solve's blend offers the one mix that the linear interpolation of the
    # excesses puts on the boundary, with no fallback: the gap is convex in
    # qbar at a fixed state marginal, so that mix is feasible up to
    # rounding, which stays within FEASIBILITY_TOL; a mix that rounds outside
    # does not enter solve's pool
    pair, gamma, inv_stages = data.draw(straddling_pairs(identity))
    kernel = _InfoKernel(gamma, inv_stages)
    assume(kernel.perfect == identity)
    (g_in, inside), (g_out, outside) = sorted(
        ((kernel.gap(q), q) for q in pair), key=lambda gq: gq[0])
    offset = -(g_in + level * (g_out - g_in))
    inside_excess, outside_excess = g_in + offset, g_out + offset
    assume(inside_excess < 0.0 < outside_excess)
    t = -inside_excess / (outside_excess - inside_excess)
    mix = (1.0 - t) * inside + t * outside
    assert kernel.gap(mix) + offset <= FEASIBILITY_TOL


def coordination_payoff():
    """Four states, three actions each: state x0 pays 1 + x0/10 for the pair
    (a, a) with a = 0, 1, 2, 1, so the partner must learn the state."""
    w = np.zeros((4, 3, 3))
    for x0, a in enumerate((0, 1, 2, 1)):
        w[x0, a, a] = 1.0 + 0.1 * x0
    return PayoffTable(w)


class TestLogGuard:
    """Solves where q(x0, x2, y) has exact zeros or the iterates are tiny.

    ``np.log`` without the guard warns on these, and RuntimeWarning is an
    error; each solve must certify with the slack the generic path gives."""

    @staticmethod
    def certified_slack_matches(prior, channel):
        res = solve(prior, channel, coordination_payoff())
        assert res.converged and res.multiplier > 0.0
        gap = info_constraint_gap(compose(res.qbar, channel))
        assert res.slack == pytest.approx(-gap, abs=1e-9)

    def test_noisy_channel_with_all_zero_output_column(self):
        # no input produces y = 2, so q(x0, x2, 2) = 0 at every iterate
        gamma = np.array([[0.8, 0.2, 0.0], [0.1, 0.9, 0.0], [0.5, 0.5, 0.0]])
        prior = StatePrior(np.array([0.1, 0.2, 0.3, 0.4]))
        self.certified_slack_matches(prior, ObservationChannel(gamma))

    @pytest.mark.parametrize("monitoring", ["perfect", "noisy"])
    def test_states_of_mass_1e300_and_1e310(self, monitoring):
        # the 1e-310 state's iterates are subnormal, so the perfect path
        # keeps the guard as well; on the noisy channel y = 2 has probability
        # 1e-20 from every input, so q(x0, x2, 2) underflows to exactly 0
        # in the two tiny states
        prior = StatePrior(np.array([0.45, 1e-300, 1e-310, 0.55]))
        if monitoring == "perfect":
            channel = ObservationChannel.identity(3)
        else:
            gamma = np.array([[0.8, 0.2, 1e-20], [0.2, 0.8, 1e-20], [0.5, 0.5, 1e-20]])
            gamma[:, 1] -= 1e-20
            channel = ObservationChannel(gamma)
        self.certified_slack_matches(prior, channel)

    @pytest.mark.parametrize("monitoring", ["perfect", "noisy"])
    def test_state_whose_start_underflows_to_zero(self, monitoring):
        # 5e-324 times a probability below 1 can round to 0, so that
        # state's slice of q(x0, x2) is 0 and the gap's logs meet exact zeros
        prior = StatePrior(np.array([0.45, 1e-300, 5e-324, 0.55]))
        if monitoring == "perfect":
            channel = ObservationChannel.identity(3)
        else:
            channel = ObservationChannel(
                np.array([[0.8, 0.15, 0.05], [0.15, 0.8, 0.05], [0.3, 0.3, 0.4]])
            )
        self.certified_slack_matches(prior, channel)


def ic_instance(regime: str, snr_db: float):
    cfg = ICConfig.for_regime(regime, snr_db)
    return build_state_prior(cfg), identity_observation_channel(), build_payoff_table(cfg)


def tiny_state_problem():
    # the other states drive r toward the partner action this 1e-300 state
    # is alone in wanting, while 2^(C / mu) of its other action underflows;
    # unfloored, r underflows too and its normalizer is 0 (solve at 256 stages)
    w = np.array([
        [[-459, -276, 515, 445], [884, -1164, -270, -285]],
        [[118, -311, -353, 538], [122, -802, 918, 685]],
        [[-395, 572, -506, 774], [-150, -552, -257, -527]],
        [[132, 120, 25, -383], [-2517, 64, -1304, 168]],
    ], dtype=float)
    prior = StatePrior(np.array([1e-300, 0.41, 0.46, 0.13]))
    return prior, ObservationChannel.identity(2), PayoffTable(w)


def huge_payoff_problem():
    # at payoffs near 1e11 the multiplier reaches 1e9, where grad's rounding
    # outweighs Cover's target
    prior, channel, payoff = ic_instance("lir", 40.0)
    return prior, channel, PayoffTable(1e10 * payoff.values)


class TestClosedForm:
    """The identity channel's inner step: softmax cells and Cover's update."""

    @pytest.mark.parametrize("instance", ["tiny", "ic"])
    def test_payoff_scaled_1e3_at_256_stages_certifies(self, instance):
        # w / lam and C / mu reach the thousands here; without the shifts
        # 2^(w / lam) overflows, and RuntimeWarning is an error
        prior, channel, payoff = tiny_instance() if instance == "tiny" else ic_instance("hir", 10.0)
        plain = solve(prior, channel, payoff, stages=256)
        scaled = solve(prior, channel, PayoffTable(1e3 * payoff.values), stages=256)
        assert scaled.converged and scaled.slack >= -FEASIBILITY_TOL
        tol = SolverOptions().tol_payoff
        assert scaled.payoff / 1e3 == pytest.approx(plain.payoff, abs=2 * tol)

    def test_tiny_state_keeps_its_partner_action(self):
        res = solve(*tiny_state_problem(), stages=256)
        assert res.converged and res.slack >= -FEASIBILITY_TOL

    def test_abandoned_partner_action_is_revived(self):
        # one x1 action, so any information about x0 in x2 is infeasible:
        # small multipliers drive r(x2 = 0) to the floor, large ones need it
        # back, and Cover's update alone, with grad within 1% of 1, stalled
        # there and left the bisection an uncertified "feasible" point
        w = np.array([[[0.0, 0.0, 3.738, -9.347]], [[4.44, 3.003, 0.757, 9.494]]])
        prior = StatePrior(np.array([0.5, 0.5]))
        res = solve(prior, ObservationChannel.identity(1), PayoffTable(w), stages=203)
        assert res.converged and res.slack >= -FEASIBILITY_TOL
        assert res.payoff == pytest.approx(0.5 * (3.738 + 0.757), abs=1e-6)

    def test_rounding_ends_the_update_at_huge_multipliers(self):
        # no multiplier may spend the whole inner budget on the rounding
        res = solve(*huge_payoff_problem())
        assert res.converged
        assert res.iterations < optimizer._MAX_INNER_STEPS

    def test_cover_budget_raises_with_feasible_result(self, monkeypatch):
        # one x2 step per multiplier leaves the dual bound 2.2e-3 above the
        # payoff at LIR 3 dB with the log payoff; the default budget
        # certifies
        prior, channel, payoff = test_solver_bits.ic_problem("lir", "log", 3.0)
        assert solve(prior, channel, payoff).converged
        monkeypatch.setattr(optimizer, "_MAX_INNER_STEPS", 1)
        with pytest.raises(ConvergenceError, match="no certificate") as err:
            solve(prior, channel, payoff)
        res = err.value.result
        assert res is not None and not res.converged
        assert res.dual_bound - res.payoff > SolverOptions().tol_payoff
        gap = info_constraint_gap(compose(res.qbar, channel))
        assert gap <= FEASIBILITY_TOL and res.slack == pytest.approx(-gap, abs=1e-9)


class TestNoisyChannel:
    """The interference model observed through a binary symmetric channel,
    at flips and SNRs where entropic mirror ascent failed to certify."""

    @pytest.mark.parametrize("flip, snr_db, budget", [
        (0.15, 10.0, optimizer._MAX_INNER_STEPS),
        (0.3, 20.0, 5000),
        (0.4, 40.0, 5000),
    ])
    def test_bsc_observation_certifies(self, monkeypatch, flip, snr_db, budget):
        prior, _, payoff = ic_instance("hir", snr_db)
        channel = ObservationChannel(np.array([[1.0 - flip, flip], [flip, 1.0 - flip]]))
        monkeypatch.setattr(optimizer, "_MAX_INNER_STEPS", budget)
        res = solve(prior, channel, payoff)
        assert res.converged and res.slack >= -FEASIBILITY_TOL

    def test_x2_step_leaves_the_flat_optimum(self):
        # near the optimal multiplier the x2 problem is nearly flat, and
        # Cover's update alone spent its 50,000-step budget at two
        # multipliers here (143,422 inner steps in all)
        problem = list(test_solver_bits.noisy_problems(3, 19))[18]
        res = solve(*problem)
        assert res.converged and res.iterations < 10_000

    def test_excess_jump_at_the_optimal_multiplier(self):
        # the maximizer's excess jumps from +0.047 to -0.003 near lam =
        # 0.22376, where no interpolated multiplier lands on the boundary;
        # 6,030 inner steps is what bisection took
        problem = list(test_solver_bits.noisy_problems(2, 200))[103]
        res = solve(*problem)
        assert res.converged and res.iterations <= 6_030

    def test_floored_cell_input_leaves_the_newton_support(self):
        # near lam = 0.378 cell 0 holds two inputs on the floor: the one
        # with the top score belongs on the support; the other one's Newton
        # direction is about -1.6, and kept on the support it spoiled every
        # Newton step, so Blahut-Arimoto crawled on: 2,161 inner steps,
        # 2,129 of them cell steps at that multiplier
        problem = list(test_solver_bits.noisy_problems(3, 43))[42]
        res = solve(*problem)
        assert res.converged and res.iterations <= 100

    def test_fallback_cells_move_to_the_better_candidate(self):
        # Blahut-Arimoto in place of the Newton step wherever that step did
        # not raise low or was cut at the simplex boundary took 149 inner
        # steps here, and 317 with its exponent held at 1
        problem = list(test_solver_bits.noisy_problems(3, 200))[146]
        res = solve(*problem)
        assert res.converged and res.iterations <= 100

    def test_fallback_exponent_grows(self):
        # the halving rule with the Blahut-Arimoto exponent held at 1 ran
        # 50,059 inner steps here, its budget at one multiplier; that step in
        # place of Newton wherever Newton did not raise low or was cut, also
        # with exponent 1, took 446
        problem = list(test_solver_bits.noisy_problems(5, 200))[63]
        res = solve(*problem)
        assert res.converged and res.iterations <= 150


def bsc(flip: float) -> ObservationChannel:
    return ObservationChannel(np.array([[1.0 - flip, flip], [flip, 1.0 - flip]]))


BSC_FLIPS = (0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45)
BSC_STAGES = (1, 2, 4, 16, 64, 256)


class TestBscBlockStateOptimum:
    """The tiny instance observed through BSC(flip) has a closed-form optimum
    (``oracles.bsc_block_state_oracle``), so the noisy path (the cells, the
    noisy gap and the x2 step) is checked against an exact value."""

    def test_certified_at_the_exact_optimum(self):
        prior, _, payoff = tiny_instance()
        tol = SolverOptions().tol_payoff
        points, misses = 0, []
        for flip in BSC_FLIPS:
            for stages, opt in zip(BSC_STAGES, bsc_block_state_oracle(BSC_STAGES, flip)):
                res = solve(prior, bsc(flip), payoff, stages=stages)
                points += 1
                if not (res.converged and abs(res.payoff - opt) <= tol
                        and res.dual_bound >= opt - 1e-9):
                    misses.append((flip, stages, res.converged, res.payoff - opt,
                                   res.dual_bound - opt))
        assert points == 42 and misses == []

    @pytest.mark.parametrize("flip, stages", [(0.1, 1), (0.3, 4), (0.45, 16)])
    def test_relabelled_actions_keep_the_optimum(self, flip, stages):
        # swapping the labels of x1 (the payoff's axis 1 and the channel's
        # rows) and of x2 maps every feasible point to one of equal payoff
        # and equal information terms; the channel is no longer symmetric
        prior, _, payoff = tiny_instance()
        swapped = PayoffTable(payoff.values[:, ::-1, ::-1].copy())
        channel = ObservationChannel(bsc(flip).matrix[::-1].copy())
        opt = bsc_block_state_oracle(stages, flip)
        res = solve(prior, channel, swapped, stages=stages)
        assert res.converged and abs(res.payoff - opt) <= SolverOptions().tol_payoff
        assert res.dual_bound >= opt - 1e-9


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 6).flatmap(lambda n0: st.tuples(
        hnp.arrays(np.float64, (n0, 2), elements=st.floats(-10.0, 10.0)),
        hnp.arrays(np.float64, n0, elements=st.floats(1e-3, 1.0)),
    )),
    st.floats(1e-2, 1e3),
    st.floats(0.0, 1.0),
)
def test_x2_step_reaches_the_grid_maximum(cap_rho, lam, start):
    # two partner actions: F(r) = sum_a rho(a) lam log2 sum_c r(c)
    # 2^(cap(a, c) / lam) on a grid of 10^4 points of r (open at both ends,
    # where F can be -inf), against the step's bound and its returned r
    cap, rho = cap_rho
    rho = rho / rho.sum()
    target = 0.25 * SolverOptions().tol_payoff
    r = np.maximum(np.array([start, 1.0 - start]), optimizer._R_FLOOR)
    kernel = _InfoKernel(np.eye(1), 1.0)
    _, _, bound, _, r = optimizer._x2_step(
        r / r.sum(), rho, kernel, cap, np.ones((len(rho), 1, 2)), np.zeros_like(cap), lam, 0.0,
        optimizer._MAX_INNER_STEPS, target,
    )
    top = cap.max(axis=1)
    tilt = np.exp2((cap - top[:, None]) / lam)
    x = (np.arange(10_000) + 0.5) / 10_000
    grid = np.stack([x, 1.0 - x], axis=1)
    f_grid = rho @ top + lam * (np.log2(grid @ tilt.T) @ rho)
    f_r = rho @ top + lam * (np.log2(tilt @ r) @ rho)
    assert bound >= f_grid.max() - 1e-9
    assert f_r >= f_grid.max() - target


@st.composite
def identity_problems(draw):
    """A prior (possibly with zero states), a payoff table and S on the
    identity channel."""
    n0, n1, n2 = (draw(st.integers(1, 4)) for _ in range(3))
    probs = draw(hnp.arrays(np.float64, n0, elements=st.one_of(
        st.just(0.0), st.floats(1e-3, 1.0))))
    if probs.sum() == 0.0:
        probs[0] = 1.0
    w = draw(hnp.arrays(np.float64, (n0, n1, n2), elements=st.floats(-10.0, 10.0)))
    prior = StatePrior(probs / probs.sum())
    return prior, ObservationChannel.identity(n1), PayoffTable(w), draw(st.integers(1, 256))


@settings(deadline=None, max_examples=100)
@given(identity_problems())
def test_identity_channel_solves_certify(problem):
    # a constant partner carries no state information, so each one's best
    # response is feasible and the dual bound must cover its payoff
    prior, channel, payoff, stages = problem
    res = solve(prior, channel, payoff, stages=stages)
    assert res.converged and res.slack >= -FEASIBILITY_TOL
    partners = prior.probs @ payoff.values.max(axis=1)
    assert res.dual_bound >= partners.max() - 1e-9


@st.composite
def noisy_problems(draw):
    """A prior (possibly with zero states), a noisy channel with exact zeros
    and possibly equal rows, a payoff table and S."""
    n0, n1, n2, ny = (draw(st.integers(1, 4)) for _ in range(4))
    probs = draw(hnp.arrays(np.float64, n0, elements=st.one_of(
        st.just(0.0), st.floats(1e-3, 1.0))))
    if probs.sum() == 0.0:
        probs[0] = 1.0
    gamma = draw(hnp.arrays(np.float64, (n1, ny), elements=st.one_of(
        st.just(0.0), st.floats(0.0, 1.0))))
    gamma[gamma.sum(axis=1) == 0.0, 0] = 1.0
    gamma[draw(hnp.arrays(np.bool_, n1))] = gamma[0]
    w = draw(hnp.arrays(np.float64, (n0, n1, n2), elements=st.floats(-10.0, 10.0)))
    channel = ObservationChannel(gamma / gamma.sum(axis=1, keepdims=True))
    return StatePrior(probs / probs.sum()), channel, PayoffTable(w), draw(st.integers(1, 256))


@settings(deadline=None, max_examples=100)
@given(noisy_problems())
def test_noisy_channel_solves_certify(problem):
    prior, channel, payoff, stages = problem
    res = solve(prior, channel, payoff, stages=stages)
    assert res.converged and res.slack >= -FEASIBILITY_TOL
    partners = prior.probs @ payoff.values.max(axis=1)
    assert res.dual_bound >= partners.max() - 1e-9


def test_noisy_cell_step_takes_newton_unless_short_then_the_larger_low():
    # one step from the uniform cells of a noisy-corpus problem at lam = 0.5,
    # in which some cells halve their gap with Newton's step and some do not
    prior, channel, payoff = next(test_solver_bits.noisy_problems(test_solver_bits.NOISY_SEED, 1))
    n0, n1, n2 = payoff.shape
    gamma, lam, target = channel.matrix, 0.5, 0.25 * SolverOptions().tol_payoff
    kernel = _InfoKernel(gamma, 1.0)
    w = payoff.values.transpose(0, 2, 1).reshape(-1, n1)
    p = np.full((n0 * n2, n1), 1.0 / n1)

    def score(p):
        out = p @ gamma
        s = w + lam * (kernel.row_plogp / optimizer._LN2 - np.log2(np.maximum(out, 5e-324)) @ gamma.T)
        return s, (p * s).sum(axis=-1), s.max(axis=-1), out

    s, low, up, out = score(p)
    diff = s - up[:, None]
    k = (gamma / np.maximum(out, 1e-300)[:, None, :]) @ gamma.T
    newton = optimizer._newton_step(p, k, diff * (optimizer._LN2 / lam),
                                    1e-12 * np.einsum("cbb->cb", k))
    ba = np.maximum(p * np.exp2(diff / lam), optimizer._R_FLOOR)  # exponent 1 on the first step
    ba /= ba.sum(axis=1, keepdims=True)
    _, newton_low, newton_up, _ = score(newton)
    _, ba_low, _, _ = score(ba)
    short = (newton_up - newton_low > 0.5 * (up - low)) & (up - low > target)
    assert short.any() and not short.all()
    # each candidate is the larger among the short cells, and Blahut-Arimoto
    # in a cell that is not short, which keeps Newton's step all the same
    assert 0 < (short & (newton_low > ba_low)).sum() < short.sum()
    assert (~short & ~(newton_low > ba_low)).any()

    *_, iters, stepped = optimizer._cell_step(p, kernel, payoff.values, lam, 1, target)
    assert iters == 1
    assert np.array_equal(stepped[~short], newton[~short])
    larger = np.where((newton_low > ba_low)[:, None], newton, ba)
    assert np.array_equal(stepped[short], larger[short])


def agreement_problems():
    """(problem, kwargs) of the noisy corpus, the sweep and the stages points
    of ``solver_corpus.py``, the 1e-300 state and the payoff scaled by 1e10."""
    from solver_corpus import corpus

    for label, problem, kwargs in corpus():
        if not label.startswith("min-slack"):
            yield problem, kwargs
    yield tiny_state_problem(), {"stages": 256}
    yield huge_payoff_problem(), {}


def test_closed_form_gaps_match_the_kernel(monkeypatch):
    # every gap but a blend's is read from the solve's own quantities: the
    # maximizers' within 1e-12 bits of the kernel, the constant-partner
    # candidates' exactly 0, the vertex's H(X2) / stages and the uniform
    # point's -I(uniform X1; Y); RuntimeWarning is an error
    maximizers = []
    x2_step = optimizer._x2_step

    def captured(*args):
        out = x2_step(*args)
        maximizers.append((args[2], out[0], out[1]))  # kernel, q, gap
        return out

    monkeypatch.setattr(optimizer, "_x2_step", captured)
    for (prior, channel, payoff), kwargs in agreement_problems():
        solve(prior, channel, payoff, **kwargs)
        kernel = _InfoKernel(channel.matrix, 1.0 / kwargs.get("stages", 1))
        rho = prior.probs[prior.probs > 0.0]
        w = payoff.values[prior.probs > 0.0]
        n0, n1, n2 = w.shape
        states = np.arange(n0)
        for c in range(n2):
            cand = np.zeros_like(w)
            cand[states, w[:, :, c].argmax(axis=1), c] = rho
            assert abs(kernel.gap(cand)) <= 1e-15
        x1, x2 = np.divmod(w.reshape(n0, -1).argmax(axis=1), n2)
        vertex = np.zeros_like(w)
        vertex[states, x1, x2] = rho
        q2 = np.bincount(x2, weights=rho, minlength=n2)
        entropy = -sum(m * np.log2(m) for m in q2 if m > 0.0)
        assert abs(kernel.gap(vertex) - kernel.inv_stages * entropy) <= 1e-12
        gamma, mean_row = channel.matrix, channel.matrix.mean(axis=0)
        uniform_info = np.mean([sum(g * np.log2(g / m) for g, m in zip(row, mean_row) if g > 0.0)
                                for row in gamma])
        interior = rho[:, None, None] * np.full((1, n1, n2), 1.0 / (n1 * n2))
        assert abs(kernel.gap(interior) + uniform_info) <= 1e-12
    assert len(maximizers) > 1000
    for kernel, q, gap in maximizers:
        assert abs(gap - kernel.gap(q)) <= 1e-12


def test_constant_partner_slack_is_positive_zero():
    # the blind channel's optimum is a constant-partner candidate, whose gap
    # is exactly 0: its slack is 0.0, not -0.0
    res = solve(*test_solver_bits.binary_problem(ObservationChannel(np.full((2, 2), 0.5))))
    assert res.converged and res.slack == 0.0
    assert math.copysign(1.0, res.slack) == 1.0


PROPERTY_SETTINGS = ((1, 0.0), (2, 0.1))  # (stages, min_slack)


def test_dual_bound_bounds_every_strictly_feasible_point():
    # random points with the prior's state marginal, half of them mixed with
    # the result's qbar at weights down to 1e-6 so that some sit within the
    # tolerance of the optimum; every point the generic gap finds strictly
    # feasible has at most the optimal payoff, which the dual bound bounds
    problems = [*test_solver_bits.noisy_problems(test_solver_bits.NOISY_SEED,
                                                 test_solver_bits.NOISY_COUNT),
                *(test_solver_bits.ic_problem(regime, "log", 10.0) for regime in ("hir", "lir"))]
    rng = np.random.default_rng(0)
    counted, worst = 0, -np.inf
    for prior, channel, payoff in problems:
        n0, n1, n2 = payoff.shape
        for stages, min_slack in PROPERTY_SETTINGS:
            res = solve(prior, channel, payoff, stages=stages, min_slack=min_slack)
            cond = rng.dirichlet(np.ones(n1 * n2), size=(100, n0)).reshape(100, n0, n1, n2)
            points = prior.probs[:, None, None] * cond
            weight = 10.0 ** rng.uniform(-6.0, 0.0, size=(50, 1, 1, 1))
            points[:50] = weight * points[:50] + (1.0 - weight) * res.qbar.pmf
            for pmf in points:
                q = JointDistribution(pmf, ("x0", "x1", "x2"))
                if info_constraint_gap(compose(q, channel), stages) + min_slack <= -1e-9:
                    counted += 1
                    worst = max(worst, expected_payoff(q, payoff) - res.dual_bound)
    assert counted > 1000
    assert worst <= 1e-9


def test_relabelled_alphabets_keep_each_others_bounds():
    # relabelling x1 (the channel's rows and the payoff's axis 1), x2 and y
    # (the channel's columns) maps feasible points to feasible points of
    # equal payoff, so each solve's dual bound bounds the other's payoff.  A
    # relabelled y turns 7 of the 12 identity channels into permutation
    # matrices, which take the noisy path
    problems = [*test_solver_bits.noisy_problems(test_solver_bits.NOISY_SEED,
                                                 test_solver_bits.NOISY_COUNT),
                *(test_solver_bits.ic_problem(regime, form, snr) for regime in ("hir", "lir")
                  for form in ("log", "linear") for snr in (0.0, 10.0, 40.0))]
    rng = np.random.default_rng(0)
    misses = []
    for i, (prior, channel, payoff) in enumerate(problems):
        _, n1, n2 = payoff.shape
        p1, p2, py = (rng.permutation(k) for k in (n1, n2, channel.n_outputs))
        relabelled = (ObservationChannel(channel.matrix[p1][:, py]),
                      PayoffTable(payoff.values[:, p1][:, :, p2]))
        for stages, min_slack in PROPERTY_SETTINGS:
            a, b = (solve(prior, c, w, stages=stages, min_slack=min_slack)
                    for c, w in ((channel, payoff), relabelled))
            if a.payoff > b.dual_bound + 1e-9 or b.payoff > a.dual_bound + 1e-9:
                misses.append((i, stages, a.payoff, a.dual_bound, b.payoff, b.dual_bound))
    assert misses == []


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

    # bool is an int subclass: min_slack=False used to run as 0.0; a string
    # used to raise TypeError from math.isfinite
    @pytest.mark.parametrize("min_slack", [float("nan"), float("inf"), -0.1, False, "0.1"])
    def test_bad_min_slack_rejected(self, min_slack):
        prior, channel, payoff = tiny_instance()
        with pytest.raises(ValueError, match="min_slack"):
            solve(prior, channel, payoff, min_slack=min_slack)

    def test_no_feasible_point_raises_without_result(self):
        # equal channel rows carry no information, so no point has slack 0.1
        prior, _, payoff = tiny_instance()
        blind = ObservationChannel(np.full((2, 2), 0.5))
        with pytest.raises(ConvergenceError, match="no feasible point") as err:
            solve(prior, blind, payoff, min_slack=0.1)
        assert err.value.result is None

    def test_empty_pool_at_the_bracket_raises_without_result(self, monkeypatch):
        # No candidate is feasible: min_slack exceeds the uniform input's
        # information, and constant-x2 points have gap 0.  Each maximizer
        # that is feasible within FEASIBILITY_TOL is reported 5e-10 bits
        # outside: that ends the doubling, which classifies by the tolerance,
        # but the pool takes exactly feasible points only.  The bracket then
        # collapses with the pool still empty.
        gamma = np.array([[0.999, 0.001], [0.5, 0.5]])
        mean_row = gamma.mean(axis=0)
        uniform_info = (gamma * np.log2(gamma)).sum(axis=1).mean() - mean_row @ np.log2(mean_row)
        min_slack = uniform_info + 0.005
        x2_step = optimizer._x2_step

        def just_outside(*args):
            q, gap, *rest = x2_step(*args)
            if gap + min_slack <= FEASIBILITY_TOL:
                gap = 5e-10 - min_slack
            return (q, gap, *rest)

        monkeypatch.setattr(optimizer, "_x2_step", just_outside)
        prior = StatePrior(np.array([0.5, 0.5]))
        payoff = PayoffTable(np.random.default_rng(0).normal(size=(2, 2, 2)))
        with pytest.raises(ConvergenceError, match="no feasible point") as err:
            solve(prior, ObservationChannel(gamma), payoff, min_slack=min_slack)
        assert err.value.result is None

    def test_non_convergence_raises_with_best_iterate(self, monkeypatch):
        prior, channel, payoff = tiny_instance()
        monkeypatch.setattr(optimizer, "_MAX_INNER_STEPS", 40)
        monkeypatch.setattr(optimizer, "_OUTER_STEPS", 2)
        with pytest.raises(ConvergenceError, match="no certificate after 2 multiplier steps") as err:
            solve(prior, channel, payoff, options=SolverOptions(tol_payoff=1e-13))
        res = err.value.result
        assert res is not None and not res.converged
        gap = info_constraint_gap(compose(res.qbar, channel))
        assert gap <= 1e-6

    @staticmethod
    def flip_045_scaled():
        # every multiplier up to the cap leaves the inner maximizer infeasible
        prior, _, payoff = tiny_instance()
        flip = ObservationChannel(np.array([[0.55, 0.45], [0.45, 0.55]]))
        return prior, flip, PayoffTable(1e12 * payoff.values)

    def test_multiplier_cap_message_names_the_cap(self):
        # the cap is reached by doubling, before any multiplier step
        cap = "no certificate at the multiplier cap 2[*][*]40:"
        with pytest.raises(ConvergenceError, match=cap) as err:
            solve(*self.flip_045_scaled())
        assert err.value.result.multiplier == 2.0**40

    def test_collapsed_bracket_message_counts_its_steps(self):
        # noisy corpus problem 14 collapses its bracket; at this tolerance
        # the blend there does not certify, 11 steps short of the budget
        problem = list(test_solver_bits.noisy_problems(1, 15))[14]
        with pytest.raises(ConvergenceError, match="no certificate at a collapsed "
                           "multiplier bracket after 49 steps:"):
            solve(*problem, options=SolverOptions(tol_payoff=1e-15))

    def test_uniform_candidate_is_the_cap_exit_feasible_point(self):
        # with min_slack > 0 no other pool point is feasible, yet the channel
        # carries 0.0072 bits: without the uniform candidate this raised "no
        # feasible point" with no result
        with pytest.raises(ConvergenceError, match="multiplier cap") as err:
            solve(*self.flip_045_scaled(), min_slack=0.001)
        res = err.value.result
        assert res is not None and not res.converged
        assert np.array_equal(res.qbar.pmf, np.full((2, 2, 2), 0.125))
        assert res.payoff == 2.5e11
        assert res.slack == pytest.approx(0.0072255, abs=1e-7)


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

    @pytest.mark.parametrize("stages", [True, False])
    def test_boolean_stages_rejected(self, stages):
        # bool is an int subclass; stages=True used to run as stages=1
        prior, channel, payoff = tiny_instance()
        with pytest.raises(ValueError, match="stages"):
            solve(prior, channel, payoff, stages=stages)


class TestSolverOptions:
    def test_one_field(self):
        assert [f.name for f in dataclasses.fields(SolverOptions)] == ["tol_payoff"]

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-5, True, "1e-5"])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol_payoff"):
            SolverOptions(tol_payoff=tol)
