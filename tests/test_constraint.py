import numpy as np
import pytest

from codedpc import (
    AlphabetError,
    DistributionError,
    JointDistribution,
    ObservationChannel,
    StatePrior,
    compose,
    conditional_mutual_information,
    info_constraint_gap,
    is_implementable,
)
from codedpc.icmodel import ICConfig, fpc_distribution, spc_distribution
from oracles import info_constraint_gap_entropy_path, uniform_distribution


def random_composed(rng, shape3, gamma):
    qbar = JointDistribution(
        rng.dirichlet(np.ones(int(np.prod(shape3)))).reshape(shape3), ("x0", "x1", "x2")
    )
    return compose(qbar, gamma)


def test_independent_actions_identity_channel():
    # independence kills the coordination term, perfect observation of a
    # uniform binary action contributes a full bit
    qbar = uniform_distribution((2, 2, 2), ("x0", "x1", "x2"))
    q = compose(qbar, ObservationChannel.identity(2))
    assert info_constraint_gap(q) == pytest.approx(-1.0, abs=1e-12)


def test_state_copy_with_constant_action():
    # x2 == x0, x1 constant: gap equals the state entropy (infeasible)
    rho = np.array([0.25, 0.75])
    qbar = np.zeros((2, 2, 2))
    qbar[0, 0, 0] = rho[0]
    qbar[1, 0, 1] = rho[1]
    q = compose(JointDistribution(qbar, ("x0", "x1", "x2")), ObservationChannel.identity(2))
    assert info_constraint_gap(q) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_gap_matches_bruteforce_information_terms():
    rng = np.random.default_rng(10)
    gamma = ObservationChannel(rng.dirichlet(np.ones(2), size=2))
    for _ in range(50):
        q = random_composed(rng, (3, 2, 2), gamma)
        i_coord = conditional_mutual_information(q, "x0", "x2")
        i_chan = conditional_mutual_information(q, "x1", "y", ("x0", "x2"))
        assert info_constraint_gap(q) == pytest.approx(i_coord - i_chan, abs=1e-12)


def test_entropy_path_agrees_with_direct_path():
    rng = np.random.default_rng(11)
    for _ in range(300):
        gamma = ObservationChannel(rng.dirichlet(np.ones(3), size=2))
        q = random_composed(rng, (2, 2, 2), gamma)
        assert info_constraint_gap(q) == pytest.approx(
            info_constraint_gap_entropy_path(q), abs=1e-9
        )


def test_convexity_on_matching_slices():
    # random pairs with common state marginal and common channel
    rng = np.random.default_rng(12)
    for _ in range(300):
        rho = rng.dirichlet(np.ones(3))
        gamma = ObservationChannel(rng.dirichlet(np.ones(2), size=2))
        pair = []
        for _ in range(2):
            cond = rng.dirichlet(np.ones(4), size=3).reshape(3, 2, 2)
            pair.append(
                compose(
                    JointDistribution(rho[:, None, None] * cond, ("x0", "x1", "x2")),
                    gamma,
                )
            )
        lam = rng.uniform()
        mix = JointDistribution(
            lam * pair[0].pmf + (1 - lam) * pair[1].pmf, pair[0].axes
        )
        lhs = info_constraint_gap(mix)
        rhs = lam * info_constraint_gap(pair[0]) + (1 - lam) * info_constraint_gap(pair[1])
        assert lhs <= rhs + 1e-9


def test_degenerate_partner_action_always_feasible():
    # constant x2 carries no state information, so the gap cannot be positive
    rng = np.random.default_rng(13)
    for _ in range(100):
        rho = rng.dirichlet(np.ones(4))
        cond1 = rng.dirichlet(np.ones(2), size=4)
        qbar = np.zeros((4, 2, 2))
        qbar[:, :, 0] = rho[:, None] * cond1
        gamma = ObservationChannel(rng.dirichlet(np.ones(2), size=2))
        q = compose(JointDistribution(qbar, ("x0", "x1", "x2")), gamma)
        assert info_constraint_gap(q) <= 1e-12


class TestStages:
    def test_one_stage_identical(self):
        rng = np.random.default_rng(14)
        q = random_composed(rng, (2, 2, 2), ObservationChannel.identity(2))
        assert info_constraint_gap(q, stages=1) == info_constraint_gap(q)

    def test_strictly_decreasing_when_coordination_positive(self):
        rho = np.array([0.5, 0.5])
        qbar = np.zeros((2, 2, 2))
        # x2 copies the state, x1 uniform
        qbar[0, :, 0] = rho[0] / 2
        qbar[1, :, 1] = rho[1] / 2
        q = compose(JointDistribution(qbar, ("x0", "x1", "x2")), ObservationChannel.identity(2))
        values = [info_constraint_gap(q, stages=s) for s in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_large_stages_approach_channel_term(self):
        rng = np.random.default_rng(15)
        q = random_composed(rng, (2, 2, 2), ObservationChannel.identity(2))
        i_chan = conditional_mutual_information(q, "x1", "y", ("x0", "x2"))
        assert info_constraint_gap(q, stages=10**9) == pytest.approx(-i_chan, abs=1e-9)

    def test_zero_stages_rejected(self):
        q = compose(
            uniform_distribution((2, 2, 2), ("x0", "x1", "x2")),
            ObservationChannel.identity(2),
        )
        with pytest.raises(ValueError):
            info_constraint_gap(q, stages=0)

    def test_boolean_stages_rejected(self):
        q = compose(
            uniform_distribution((2, 2, 2), ("x0", "x1", "x2")),
            ObservationChannel.identity(2),
        )
        with pytest.raises(ValueError, match="stages"):
            info_constraint_gap(q, stages=True)


def test_gap_needs_four_axes():
    # a qbar has no y: the information function rejects it
    with pytest.raises(AlphabetError, match="'y'"):
        info_constraint_gap(uniform_distribution((2, 2, 2), ("x0", "x1", "x2")))


class TestIsImplementable:
    def test_fpc_feasible_with_zero_slack(self):
        cfg = ICConfig.for_regime("lir", 10.0)
        from codedpc.icmodel import build_state_prior, identity_observation_channel

        verdict = is_implementable(
            fpc_distribution(cfg), identity_observation_channel(), build_state_prior(cfg)
        )
        assert verdict.implementable
        assert verdict.slack == pytest.approx(0.0, abs=1e-12)

    def test_state_copy_exceeds_binary_channel(self):
        # 16 equally likely states copied into x2 but only one observed bit
        rho = np.full(16, 1.0 / 16)
        qbar = np.zeros((16, 2, 16))
        qbar[np.arange(16), :, np.arange(16)] = rho[:, None] / 2  # x1 uniform
        verdict = is_implementable(
            JointDistribution(qbar, ("x0", "x1", "x2")),
            ObservationChannel.identity(2),
            StatePrior(rho),
        )
        assert not verdict.implementable
        assert verdict.slack == pytest.approx(-(4.0 - 1.0), abs=1e-9)

    def test_spc_feasible(self):
        from codedpc.icmodel import build_state_prior, identity_observation_channel

        cfg = ICConfig.for_regime("lir", 10.0)
        verdict = is_implementable(
            spc_distribution(cfg), identity_observation_channel(), build_state_prior(cfg)
        )
        assert verdict.implementable
        # deterministic actions: both information terms vanish
        assert verdict.slack == pytest.approx(0.0, abs=1e-12)

    def test_marginal_mismatch_names_state(self):
        qbar = uniform_distribution((2, 2, 2), ("x0", "x1", "x2"))
        prior = StatePrior(np.array([0.25, 0.75]))
        with pytest.raises(DistributionError, match="x0=0"):
            is_implementable(qbar, ObservationChannel.identity(2), prior)

    @pytest.mark.parametrize(
        "shape, axes", [((2, 2), ("x0", "x1")), ((2, 2, 2, 2), None)], ids=["2-D", "4-D"]
    )
    def test_needs_three_axes(self, shape, axes):
        qbar = uniform_distribution(shape, axes)
        with pytest.raises(AlphabetError):
            is_implementable(qbar, ObservationChannel.identity(2), StatePrior(np.full(2, 0.5)))

    @pytest.mark.parametrize("n_qbar, n_prior", [(3, 2), (2, 3)])
    def test_state_count_mismatch(self, n_qbar, n_prior):
        qbar = uniform_distribution((n_qbar, 2, 2), ("x0", "x1", "x2"))
        with pytest.raises(AlphabetError, match="states"):
            is_implementable(
                qbar, ObservationChannel.identity(2), StatePrior(np.full(n_prior, 1 / n_prior))
            )

    def test_channel_checked_before_states(self):
        # three states against a two-state prior, and a 3-row channel for
        # |X1| = 2: the channel is reported
        qbar = uniform_distribution((3, 2, 2), ("x0", "x1", "x2"))
        with pytest.raises(AlphabetError, match="input rows"):
            is_implementable(qbar, ObservationChannel.identity(3), StatePrior(np.full(2, 0.5)))
