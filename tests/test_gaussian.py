"""The covariate law: validity, closed-form sampling, and the reference
conditioning and log density it is checked against."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairlens import NotPositiveDefinite, PortfolioModel
from fairlens.gaussian import sample
from fairlens.model import valid_rho_pair
from fairlens.streams import standard_normals

from brute_force import condition, log_density, slice_rejection_moments

RHO1, RHO2 = 0.1, 0.9
REFERENCE_COV = [[1.0, 0.0, 0.1], [0.0, 1.0, 0.9], [0.1, 0.9, 1.0]]
ZERO_MEAN = np.zeros(3)


def random_pd_instance(rng):
    m = rng.uniform(-1.0, 1.0, size=(3, 3))
    cov = m @ m.T + 0.5 * np.eye(3)
    mean = rng.uniform(-1.0, 1.0, size=3)
    return mean, cov


class TestConstruction:
    def test_reference_covariance_is_valid(self):
        assert valid_rho_pair(RHO1, RHO2)
        PortfolioModel(RHO1, RHO2)  # does not raise
        assert sample(RHO1, RHO2, 5, seed=1).shape == (5, 3)

    def test_identity_is_valid(self):
        """With rho1 = rho2 = 0 the factor is the identity: the draws are
        the stream's normals, unchanged."""
        x = sample(0.0, 0.0, 1000, seed=4)
        np.testing.assert_array_equal(
            x, standard_normals(3000, seed=4).reshape(1000, 3))

    def test_invalid_rho_pair_rejected(self):
        # 1 - 0.25 - 0.81 = -0.06 < 0
        with pytest.raises(NotPositiveDefinite):
            PortfolioModel(0.5, 0.9)

    def test_singular_rejected(self):
        # 1 - 0 - 1 = 0: D = X2 exactly, a singular covariance
        with pytest.raises(NotPositiveDefinite):
            PortfolioModel(0.0, 1.0)

    def test_immutability(self):
        """A validated pair cannot be replaced by an invalid one."""
        m = PortfolioModel(RHO1, RHO2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.rho1 = 2.0


class TestSampling:
    def test_sample_covariance_close_to_input(self):
        x = sample(RHO1, RHO2, 10**6, seed=11)
        emp = np.cov(x.T)
        assert np.max(np.abs(emp - np.asarray(REFERENCE_COV))) < 0.005

    def test_single_row_repeatable(self):
        rows = [sample(RHO1, RHO2, 1, seed=77) for _ in range(3)]
        assert np.array_equal(rows[0], rows[1])
        assert np.array_equal(rows[0], rows[2])

    def test_independent_case_uncorrelated(self):
        x = sample(0.0, 0.0, 10**6, seed=12)
        corr = np.corrcoef(x[:, 0], x[:, 2])[0, 1]
        assert abs(corr) < 0.005

    def test_seed_determinism_byte_identical(self):
        a = sample(RHO1, RHO2, 5000, seed=3)
        b = sample(RHO1, RHO2, 5000, seed=3)
        assert a.tobytes() == b.tobytes()

    def test_prefix_property(self):
        short = sample(RHO1, RHO2, 7, seed=3)
        long = sample(RHO1, RHO2, 4000, seed=3)
        assert np.array_equal(short, long[:7])


class TestConditioning:
    def test_reference_sigma_given_d(self):
        mean, cov = condition(ZERO_MEAN, REFERENCE_COV, [2], [0.0])
        np.testing.assert_allclose(mean, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            cov, [[0.99, -0.09], [-0.09, 0.19]], atol=1e-15)

    def test_x2_given_x1_and_d(self):
        rho1, rho2 = 0.1, 0.9
        for x1, d in [(0.0, 0.0), (1.0, 1.0), (-0.5, 2.0)]:
            mean, cov = condition(ZERO_MEAN, REFERENCE_COV, [0, 2], [x1, d])
            want_mean = rho2 / (1 - rho1**2) * (d - rho1 * x1)
            want_var = (1 - rho1**2 - rho2**2) / (1 - rho1**2)
            assert mean[0] == pytest.approx(want_mean, abs=1e-12)
            assert cov[0, 0] == pytest.approx(want_var, abs=1e-12)

    def test_independence_leaves_marginal_unchanged(self):
        mean, cov = condition(ZERO_MEAN, np.eye(3), [2], [5.0])
        np.testing.assert_allclose(mean, [0.0, 0.0])
        np.testing.assert_allclose(cov, np.eye(2))

    def test_conditional_cov_ignores_observed_values(self):
        _, cov1 = condition(ZERO_MEAN, REFERENCE_COV, [2], [0.3])
        _, cov2 = condition(ZERO_MEAN, REFERENCE_COV, [2], [-2.0])
        np.testing.assert_array_equal(cov1, cov2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([(0,), (2,), (0, 1), (1, 2)]))
    def test_density_ratio_consistency(self, seed, observed):
        """f(x) / f_marginal(x_obs) equals the conditioned density."""
        rng = np.random.default_rng(seed)
        mean, cov = random_pd_instance(rng)
        obs = list(observed)
        rest = [i for i in range(3) if i not in obs]
        point = rng.uniform(-1.5, 1.5, size=3)
        log_ratio = (log_density(mean, cov, point)
                     - log_density(mean[obs], cov[np.ix_(obs, obs)], point[obs]))
        log_cond = log_density(*condition(mean, cov, obs, point[obs]), point[rest])
        assert math.exp(log_ratio) == pytest.approx(
            math.exp(log_cond), rel=1e-8)


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        assert log_density([0.0], [[1.0]], [0.0]) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-14)

    def test_reference_sigma_at_origin(self):
        # det Sigma by direct 3x3 expansion: 1 - rho1^2 - rho2^2 = 0.18
        want = -1.5 * math.log(2 * math.pi) - 0.5 * math.log(0.18)
        assert log_density(ZERO_MEAN, REFERENCE_COV, [0, 0, 0]) == pytest.approx(
            want, abs=1e-13)

    def test_density_integrates_to_one(self):
        x = np.linspace(-10, 10, 4001)
        vals = np.exp([log_density([0.3], [[0.7]], [v]) for v in x])
        assert np.trapezoid(vals, x) == pytest.approx(1.0, abs=1e-3)

        mean2 = np.array([0.1, -0.2])
        chol2 = np.linalg.cholesky([[1.0, 0.6], [0.6, 1.5]])
        g = np.linspace(-9, 9, 501)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        delta = pts - mean2
        u = np.linalg.solve(chol2, delta.T)
        logdet = np.sum(np.log(np.diag(chol2)))
        vals = np.exp(-np.log(2 * np.pi) - logdet - 0.5 * np.sum(u * u, axis=0))
        total = np.trapezoid(np.trapezoid(vals.reshape(xx.shape), g, axis=1), g)
        assert total == pytest.approx(1.0, abs=1e-3)


class TestSamplingConditioningAgreement:
    def test_slice_near_d_matches_conditional_mean(self):
        """Rejection draws from the sampler near D=0.5 reproduce the
        conditioned means within 3 standard errors."""
        def draws(n, round_index):
            return sample(RHO1, RHO2, n, seed=5000 + round_index)

        mean, _ = condition(ZERO_MEAN, REFERENCE_COV, [2], [0.5])
        for target in (0, 1):
            est = slice_rejection_moments(
                draws, [2], [0.5], target, half_width=0.025,
                min_accepted=10**4, block=1 << 20)
            assert abs(est.mean - mean[target]) < 3 * est.se_mean
