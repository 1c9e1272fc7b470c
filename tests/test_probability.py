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
    total_variation,
)
from codedpc.icmodel import ICConfig, spc_distribution
from codedpc.probability import _entropy
from oracles import uniform_distribution


def dirichlet_joint(rng, shape, axes):
    return JointDistribution(rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape), axes)


def cmi_bruteforce(dist, a_axes, b_axes, c_axes):
    """Definitional sum over cells of p * log2(p * p_C / (p_AC * p_BC))."""
    axes = tuple(name for name in dist.axes if name in a_axes + b_axes + c_axes)
    pmf = dist.pmf.sum(axis=tuple(i for i, name in enumerate(dist.axes) if name not in axes))

    def project(sub):
        if not sub:
            return None
        drop = tuple(i for i, name in enumerate(axes) if name not in sub)
        return pmf.sum(axis=drop) if drop else pmf

    p_ac = project(tuple(a_axes) + tuple(c_axes))
    p_bc = project(tuple(b_axes) + tuple(c_axes))
    p_c = project(tuple(c_axes))
    total = 0.0
    for idx in np.ndindex(pmf.shape):
        p = pmf[idx]
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

    def test_clips_rounding_negative_to_zero(self):
        d = JointDistribution(np.array([0.5, 0.5 + 1e-13, -1e-13]), ("x0",))
        assert d.pmf[2] == 0.0 and d.pmf.min() >= 0.0

    def test_immutable(self):
        d = uniform_distribution((2, 2), ("x0", "x1"))
        with pytest.raises(ValueError):
            d.pmf[0, 0] = 1.0

    def test_axes_must_be_canonical_order(self):
        with pytest.raises(AlphabetError):
            JointDistribution(np.full((2, 2), 0.25), ("x1", "x0"))

    @pytest.mark.parametrize(
        "ndim, axes",
        [
            (2, ("x0", "x2")),
            (1, ("x1",)),
            (1, ("y",)),
            (2, ("x1", "y")),
            (3, ("x0", "x1", "y")),
            (2, ("x0", "x0")),
            (2, ("x0", "z")),
            (2, ("x0", "x1", "x2")),
            (3, None),
            (0, ()),
            (5, None),
            (5, ("x0", "x1", "x2", "y")),
        ],
        ids=str,
    )
    def test_non_prefix_span_rejected(self, ndim, axes):
        """A distribution spans (x0), (x0, x1), (x0, x1, x2) or (x0, x1, x2, y),
        one name per array dimension; ``None`` names all four.  A 0-D array
        spans nothing and is rejected too."""
        with pytest.raises(AlphabetError):
            JointDistribution(np.full((2,) * ndim, 0.5**ndim), axes)

    @pytest.mark.parametrize(
        "axes",
        ["x0", ("x0",), ("x0", "x1"), ["x0", "x1", "x2"], ("x0", "x1", "x2", "y"), None],
        ids=str,
    )
    def test_prefix_span_accepted(self, axes):
        ndim = 4 if axes is None else 1 if isinstance(axes, str) else len(axes)
        d = JointDistribution(np.full((2,) * ndim, 0.5**ndim), axes)
        assert d.axes == ("x0", "x1", "x2", "y")[:ndim]
        assert isinstance(d.axes, tuple)


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
        back = q.pmf.sum(axis=3)
        assert np.abs(back - qbar.pmf).max() < 1e-15

    def test_dimension_mismatch(self):
        qbar = uniform_distribution((2, 3, 2), ("x0", "x1", "x2"))
        with pytest.raises(AlphabetError):
            compose(qbar, ObservationChannel.identity(2))

    @pytest.mark.parametrize(
        "shape, axes", [((2, 2), ("x0", "x1")), ((2, 2, 2, 2), None)], ids=["2-D", "4-D"]
    )
    def test_needs_three_axes(self, shape, axes):
        qbar = uniform_distribution(shape, axes)
        with pytest.raises(AlphabetError):
            compose(qbar, ObservationChannel.identity(2))


class TestEntropy:
    """``_entropy``, the entropy of a marginal under
    ``conditional_mutual_information``."""

    def test_uniform_binary_is_one_bit(self):
        d = JointDistribution(np.array([0.5, 0.5]), ("x0",))
        assert _entropy(d, ("x0",)) == 1.0

    def test_point_mass_is_zero(self):
        d = JointDistribution(np.array([0.0, 1.0]), ("x0",))
        assert _entropy(d, ("x0",)) == 0.0

    def test_quarter_three_quarter(self):
        # frozen from direct evaluation of -sum p log2 p
        d = JointDistribution(np.array([0.25, 0.75]), ("x0",))
        assert _entropy(d, ("x0",)) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_bounded_by_log_alphabet(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = dirichlet_joint(rng, (5, 3), ("x0", "x1"))
            h = _entropy(d, ("x0",))
            assert -1e-12 <= h <= np.log2(5) + 1e-9

    def test_conditioning_reduces_entropy(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = dirichlet_joint(rng, (3, 2, 2), ("x0", "x1", "x2"))
            h_x0_given_x2 = _entropy(d, ("x0", "x2")) - _entropy(d, ("x2",))
            assert h_x0_given_x2 <= _entropy(d, ("x0",)) + 1e-9

    def test_chain_rule(self):
        # H(X0, X1) = H(X0) + sum_x0 p(x0) H(X1 | X0 = x0), the rows'
        # entropies computed directly
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = dirichlet_joint(rng, (3, 4), ("x0", "x1"))
            p0 = d.pmf.sum(axis=1)
            rows = d.pmf / p0[:, None]
            rhs = _entropy(d, ("x0",)) - float(p0 @ (rows * np.log2(rows)).sum(axis=1))
            assert _entropy(d, ("x0", "x1")) == pytest.approx(rhs, abs=1e-9)


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

    @pytest.mark.parametrize(
        "a, b, given, error",
        [
            ((), "x1", (), ValueError),
            ("x0", (), ("x2",), ValueError),
            ("x0", "x3", (), AlphabetError),
            ("x0", "x1", ("z",), AlphabetError),
            ("x0", "y", (), AlphabetError),
            ("x0", "x1", ("y",), AlphabetError),
            (("x0", "x0"), "x1", (), AlphabetError),
            ("x0", [["x1"]], (), AlphabetError),
        ],
        ids=["empty-a", "empty-b", "unknown-b", "unknown-given", "y-of-qbar", "y-given-of-qbar",
             "repeat-in-a", "unhashable-b"],
    )
    def test_rejections(self, a, b, given, error):
        # an empty group, a name outside CANONICAL_AXES, y asked of a 3-axis
        # qbar, an axis repeated inside one group, and a name that is a list
        qbar = uniform_distribution((2, 2, 2), ("x0", "x1", "x2"))
        with pytest.raises(error) as caught:
            conditional_mutual_information(qbar, a, b, given)
        assert caught.type is error

    @pytest.mark.parametrize("given", [None, ""], ids=["none", "empty-string"])
    def test_falsy_given_means_no_conditioning(self, given):
        d = dirichlet_joint(np.random.default_rng(8), (2, 3, 2), ("x0", "x1", "x2"))
        plain = conditional_mutual_information(d, "x0", "x2", ())
        assert conditional_mutual_information(d, "x0", "x2", given) == plain


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
        # the message names the row and its sum as a plain number
        with pytest.raises(DistributionError, match=r"channel row 0 sums to 1\.1, "):
            ObservationChannel(np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_identity(self):
        gamma = ObservationChannel.identity(3)
        assert np.array_equal(gamma.matrix, np.eye(3))


class TestStatePrior:
    def test_validates(self):
        with pytest.raises(DistributionError):
            StatePrior(np.array([0.5, 0.6]))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: JointDistribution(np.array([]), ("x0",)), DistributionError, "empty"),
        (lambda: StatePrior(np.array([0.5, np.nan])), DistributionError, "non-finite"),
        (lambda: ObservationChannel(np.full(2, 0.5)), AlphabetError, "2-D"),
        (lambda: StatePrior(np.full((2, 2), 0.25)), AlphabetError, "1-D"),
    ],
    ids=["empty", "non-finite", "1-D channel", "2-D prior"],
)
def test_malformed_arrays_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()
