import numpy as np
import pytest

from codedpc import (
    AlphabetError,
    DistributionError,
    JointDistribution,
    ObservationChannel,
    StatePrior,
    compose,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    marginal,
    total_variation,
)
from codedpc.icmodel import ICConfig, spc_distribution
from oracles import uniform_distribution


def dirichlet_joint(rng, shape, axes):
    return JointDistribution(rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape), axes)


def cmi_bruteforce(dist, a_axes, b_axes, c_axes):
    """Definitional sum over cells of p * log2(p * p_C / (p_AC * p_BC))."""
    joint = marginal(dist, a_axes + b_axes + c_axes)
    axes = joint.axes

    def project(sub):
        if not sub:
            return None
        drop = tuple(i for i, name in enumerate(axes) if name not in sub)
        return joint.pmf.sum(axis=drop) if drop else joint.pmf

    p_ac = project(tuple(a_axes) + tuple(c_axes))
    p_bc = project(tuple(b_axes) + tuple(c_axes))
    p_c = project(tuple(c_axes))
    total = 0.0
    for idx in np.ndindex(joint.pmf.shape):
        p = joint.pmf[idx]
        if p <= 0.0:
            continue
        coord = dict(zip(axes, idx))
        ac = p_ac[tuple(coord[n] for n in axes if n in a_axes + c_axes)]
        bc = p_bc[tuple(coord[n] for n in axes if n in b_axes + c_axes)]
        cc = p_c[tuple(coord[n] for n in axes if n in c_axes)] if c_axes else 1.0
        total += p * np.log2(p * cc / (ac * bc))
    return total


class TestJointDistribution:
    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            JointDistribution(np.array([0.6, 0.5, -0.1]), ("x0",))

    def test_rejects_bad_total(self):
        with pytest.raises(DistributionError):
            JointDistribution(np.array([0.5, 0.5 + 1e-6]), ("x0",))

    def test_renormalizes_small_drift(self):
        d = JointDistribution(np.array([0.5, 0.5 + 1e-10]), ("x0",))
        assert d.pmf.sum() == 1.0

    def test_immutable(self):
        d = uniform_distribution((2, 2), ("x0", "x1"))
        with pytest.raises(ValueError):
            d.pmf[0, 0] = 1.0

    def test_axes_must_be_canonical_order(self):
        with pytest.raises(AlphabetError):
            JointDistribution(np.full((2, 2), 0.25), ("x1", "x0"))


class TestCompose:
    def test_identity_channel_uniform(self):
        qbar = uniform_distribution((2, 2, 2), ("x0", "x1", "x2"))
        q = compose(qbar, ObservationChannel.identity(2))
        for x0 in range(2):
            for x1 in range(2):
                for x2 in range(2):
                    for y in range(2):
                        expect = 0.125 if y == x1 else 0.0
                        assert q.pmf[x0, x1, x2, y] == expect

    def test_uniform_row_splits_mass(self):
        rng = np.random.default_rng(1)
        qbar = dirichlet_joint(rng, (3, 2, 2), ("x0", "x1", "x2"))
        gamma = ObservationChannel(np.array([[0.5, 0.5], [0.2, 0.8]]))
        q = compose(qbar, gamma)
        assert np.allclose(q.pmf[:, 0, :, 0], q.pmf[:, 0, :, 1])

    def test_spc_composition_matches_hand_enumeration(self):
        # oracle: direct multiplication over all 128 quadruplets
        cfg = ICConfig.for_regime("lir", 10.0)
        qbar = spc_distribution(cfg)
        q = compose(qbar, ObservationChannel.identity(2))
        eye = np.eye(2)
        for x0 in range(16):
            for x1 in range(2):
                for x2 in range(2):
                    for y in range(2):
                        expect = qbar.pmf[x0, x1, x2] * eye[x1, y]
                        assert q.pmf[x0, x1, x2, y] == pytest.approx(expect, abs=1e-15)

    def test_marginalizing_y_recovers_qbar(self):
        rng = np.random.default_rng(2)
        qbar = dirichlet_joint(rng, (4, 2, 3), ("x0", "x1", "x2"))
        gamma = ObservationChannel(rng.dirichlet(np.ones(5), size=2))
        q = compose(qbar, gamma)
        back = marginal(q, ("x0", "x1", "x2"))
        assert np.abs(back.pmf - qbar.pmf).max() < 1e-15

    def test_dimension_mismatch(self):
        qbar = uniform_distribution((2, 3, 2), ("x0", "x1", "x2"))
        with pytest.raises(AlphabetError):
            compose(qbar, ObservationChannel.identity(2))


class TestMarginal:
    def test_uniform_stays_uniform(self):
        d = uniform_distribution((2, 2, 2, 2), None)
        m = marginal(d, ("x1",))
        assert np.allclose(m.pmf, [0.5, 0.5])

    def test_point_mass_projects(self):
        arr = np.zeros((2, 2, 2, 2))
        arr[1, 0, 1, 1] = 1.0
        m = marginal(JointDistribution(arr), ("x0", "x2"))
        expect = np.zeros((2, 2))
        expect[1, 1] = 1.0
        assert np.array_equal(m.pmf, expect)

    def test_empty_subset_rejected(self):
        d = uniform_distribution((2, 2), ("x0", "x1"))
        with pytest.raises(ValueError):
            marginal(d, ())

    def test_unknown_axis_rejected(self):
        d = uniform_distribution((2, 2), ("x0", "x1"))
        with pytest.raises(AlphabetError):
            marginal(d, ("y",))


class TestEntropy:
    def test_uniform_binary_is_one_bit(self):
        d = JointDistribution(np.array([0.5, 0.5]), ("x0",))
        assert entropy(d) == 1.0

    def test_point_mass_is_zero(self):
        d = JointDistribution(np.array([0.0, 1.0]), ("x0",))
        assert entropy(d) == 0.0

    def test_quarter_three_quarter(self):
        # frozen from direct evaluation of -sum p log2 p
        d = JointDistribution(np.array([0.25, 0.75]), ("x0",))
        assert entropy(d) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_bounded_by_log_alphabet(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = dirichlet_joint(rng, (5,), ("x0",))
            h = entropy(d)
            assert -1e-12 <= h <= np.log2(5) + 1e-9

    def test_conditioning_reduces_entropy(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = dirichlet_joint(rng, (3, 2, 2), ("x0", "x1", "x2"))
            assert conditional_entropy(d, ("x0",), ("x2",)) <= entropy(d, ("x0",)) + 1e-9

    def test_chain_rule(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = dirichlet_joint(rng, (3, 4), ("x0", "x1"))
            lhs = entropy(d, ("x0", "x1"))
            rhs = entropy(d, ("x0",)) + conditional_entropy(d, ("x1",), ("x0",))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestConditionalMutualInformation:
    def test_independent_variables_zero(self):
        a = np.array([0.3, 0.7])
        b = np.array([0.6, 0.4])
        d = JointDistribution(np.outer(a, b), ("x0", "x1"))
        assert conditional_mutual_information(d, "x0", "x1") == pytest.approx(0.0, abs=1e-12)

    def test_identity_observation_gives_action_entropy(self):
        # uniform independent binary X1 observed perfectly: I = H(X1) = 1
        qbar = uniform_distribution((2, 2, 2), ("x0", "x1", "x2"))
        q = compose(qbar, ObservationChannel.identity(2))
        value = conditional_mutual_information(q, "x1", "y", ("x0", "x2"))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_matches_bruteforce_definition(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            d = dirichlet_joint(rng, (2, 2, 2, 2), None)
            fast = conditional_mutual_information(d, "x1", "y", ("x0", "x2"))
            slow = cmi_bruteforce(d, ("x1",), ("y",), ("x0", "x2"))
            assert fast == pytest.approx(slow, abs=1e-9)
            fast2 = conditional_mutual_information(d, "x0", "x2")
            slow2 = cmi_bruteforce(d, ("x0",), ("x2",), ())
            assert fast2 == pytest.approx(slow2, abs=1e-9)

    def test_nonnegative_on_random_distributions(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = dirichlet_joint(rng, (2, 3, 2, 2), None)
            assert conditional_mutual_information(d, "x0", "x2", ("x1",)) >= -1e-9

    def test_overlapping_groups_rejected(self):
        d = uniform_distribution((2, 2, 2, 2), None)
        with pytest.raises(AlphabetError):
            conditional_mutual_information(d, "x0", "x0")
        with pytest.raises(AlphabetError):
            conditional_mutual_information(d, "x0", "x1", ("x1",))


class TestTotalVariation:
    def test_identical_is_zero(self):
        d = uniform_distribution((2, 2), ("x0", "x1"))
        assert total_variation(d, d) == 0.0

    def test_disjoint_point_masses(self):
        a = JointDistribution(np.array([1.0, 0.0]), ("x0",))
        b = JointDistribution(np.array([0.0, 1.0]), ("x0",))
        assert total_variation(a, b) == 1.0

    def test_uniform_vs_point_mass(self):
        u = JointDistribution(np.full(4, 0.25), ("x0",))
        p = JointDistribution(np.array([1.0, 0.0, 0.0, 0.0]), ("x0",))
        assert total_variation(u, p) == 0.75

    def test_alphabet_mismatch(self):
        a = uniform_distribution((2,), ("x0",))
        b = uniform_distribution((3,), ("x0",))
        with pytest.raises(AlphabetError):
            total_variation(a, b)


class TestObservationChannel:
    def test_rows_validated(self):
        with pytest.raises(DistributionError):
            ObservationChannel(np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_identity(self):
        gamma = ObservationChannel.identity(3)
        assert np.array_equal(gamma.matrix, np.eye(3))


class TestStatePrior:
    def test_validates(self):
        with pytest.raises(DistributionError):
            StatePrior(np.array([0.5, 0.6]))
