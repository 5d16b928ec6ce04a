"""Multivariate Gaussian construction, sampling, conditioning, density."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairlens import (DimensionMismatch, NotPositiveDefinite, NotSymmetric,
                      condition, make_gaussian, sample)

from brute_force import log_density, slice_rejection_moments

REFERENCE_COV = [[1.0, 0.0, 0.1], [0.0, 1.0, 0.9], [0.1, 0.9, 1.0]]


def reference_dist():
    return make_gaussian([0.0, 0.0, 0.0], REFERENCE_COV)


def random_pd_instance(rng):
    m = rng.uniform(-1.0, 1.0, size=(3, 3))
    cov = m @ m.T + 0.5 * np.eye(3)
    mean = rng.uniform(-1.0, 1.0, size=3)
    return make_gaussian(mean, cov)


class TestConstruction:
    def test_reference_covariance_is_valid(self):
        dist = reference_dist()
        assert dist.dim == 3
        np.testing.assert_allclose(dist.cov, REFERENCE_COV)

    def test_identity_is_valid(self):
        dist = make_gaussian(np.zeros(3), np.eye(3))
        np.testing.assert_array_equal(dist.chol, np.eye(3))

    def test_invalid_rho_pair_rejected(self):
        # 1 - 0.25 - 0.81 = -0.06 < 0
        cov = [[1, 0, 0.5], [0, 1, 0.9], [0.5, 0.9, 1]]
        with pytest.raises(NotPositiveDefinite):
            make_gaussian(np.zeros(3), cov)

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            make_gaussian(np.zeros(2), [[1.0, 1.0], [1.0, 1.0]])

    def test_asymmetry_beyond_tolerance_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = 1e-6
        with pytest.raises(NotSymmetric):
            make_gaussian(np.zeros(3), cov)

    def test_tiny_asymmetry_absorbed(self):
        cov = np.eye(3)
        cov[0, 1] = 5e-13
        dist = make_gaussian(np.zeros(3), cov)
        assert dist.cov[0, 1] == dist.cov[1, 0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_gaussian(np.zeros(2), np.eye(3))
        with pytest.raises(DimensionMismatch):
            make_gaussian(np.zeros(3), np.ones((3, 2)))

    def test_immutability(self):
        dist = reference_dist()
        with pytest.raises(ValueError):
            dist.cov[0, 0] = 2.0


class TestSampling:
    def test_sample_covariance_close_to_input(self):
        dist = reference_dist()
        x = sample(dist, 10**6, seed=11)
        emp = np.cov(x.T)
        assert np.max(np.abs(emp - dist.cov)) < 0.005

    def test_single_row_repeatable(self):
        dist = reference_dist()
        rows = [sample(dist, 1, seed=77) for _ in range(3)]
        assert np.array_equal(rows[0], rows[1])
        assert np.array_equal(rows[0], rows[2])

    def test_independent_case_uncorrelated(self):
        dist = make_gaussian(np.zeros(3), np.eye(3))
        x = sample(dist, 10**6, seed=12)
        corr = np.corrcoef(x[:, 0], x[:, 2])[0, 1]
        assert abs(corr) < 0.005

    def test_seed_determinism_byte_identical(self):
        dist = reference_dist()
        a = sample(dist, 5000, seed=3)
        b = sample(dist, 5000, seed=3)
        assert a.tobytes() == b.tobytes()

    def test_prefix_property(self):
        dist = reference_dist()
        short = sample(dist, 7, seed=3)
        long = sample(dist, 4000, seed=3)
        assert np.array_equal(short, long[:7])

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(reference_dist(), 0, seed=1)


class TestConditioning:
    def test_reference_sigma_given_d(self):
        dist = reference_dist()
        cond = condition(dist, [2], [0.0])
        np.testing.assert_allclose(cond.mean, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            cond.cov, [[0.99, -0.09], [-0.09, 0.19]], atol=1e-15)

    def test_x2_given_x1_and_d(self):
        rho1, rho2 = 0.1, 0.9
        dist = reference_dist()
        for x1, d in [(0.0, 0.0), (1.0, 1.0), (-0.5, 2.0)]:
            cond = condition(dist, [0, 2], [x1, d])
            want_mean = rho2 / (1 - rho1**2) * (d - rho1 * x1)
            want_var = (1 - rho1**2 - rho2**2) / (1 - rho1**2)
            assert cond.mean[0] == pytest.approx(want_mean, abs=1e-12)
            assert cond.cov[0, 0] == pytest.approx(want_var, abs=1e-12)

    def test_independence_leaves_marginal_unchanged(self):
        dist = make_gaussian(np.zeros(3), np.eye(3))
        cond = condition(dist, [2], [5.0])
        np.testing.assert_allclose(cond.mean, [0.0, 0.0])
        np.testing.assert_allclose(cond.cov, np.eye(2))

    def test_conditional_cov_ignores_observed_values(self):
        dist = reference_dist()
        c1 = condition(dist, [2], [0.3])
        c2 = condition(dist, [2], [-2.0])
        np.testing.assert_array_equal(c1.cov, c2.cov)

    def test_index_validation(self):
        dist = reference_dist()
        with pytest.raises(DimensionMismatch):
            condition(dist, [], [])
        with pytest.raises(DimensionMismatch):
            condition(dist, [0, 1, 2], [0, 0, 0])
        with pytest.raises(DimensionMismatch):
            condition(dist, [5], [0.0])
        with pytest.raises(DimensionMismatch):
            condition(dist, [0], [0.0, 1.0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([(0,), (2,), (0, 1), (1, 2)]))
    def test_density_ratio_consistency(self, seed, observed):
        """f(x) / f_marginal(x_obs) equals the conditioned density."""
        rng = np.random.default_rng(seed)
        dist = random_pd_instance(rng)
        obs = list(observed)
        rest = [i for i in range(3) if i not in obs]
        point = rng.uniform(-1.5, 1.5, size=3)
        marginal = make_gaussian(dist.mean[obs], dist.cov[np.ix_(obs, obs)])
        cond = condition(dist, obs, point[obs])
        log_ratio = log_density(dist, point) - log_density(marginal, point[obs])
        log_cond = log_density(cond, point[rest])
        assert math.exp(log_ratio) == pytest.approx(
            math.exp(log_cond), rel=1e-8)


class TestCholeskyInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_round_trip_and_positive_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        dist = random_pd_instance(rng)
        lower = dist.chol
        assert np.max(np.abs(lower @ lower.T - dist.cov)) < 1e-10
        assert np.all(np.diag(lower) > 0.0)
        assert np.max(np.abs(np.triu(lower, 1))) == 0.0


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        dist = make_gaussian([0.0], [[1.0]])
        assert log_density(dist, [0.0]) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-14)

    def test_reference_sigma_at_origin(self):
        # det Sigma by direct 3x3 expansion: 1 - rho1^2 - rho2^2 = 0.18
        dist = reference_dist()
        want = -1.5 * math.log(2 * math.pi) - 0.5 * math.log(0.18)
        assert log_density(dist, [0, 0, 0]) == pytest.approx(want, abs=1e-13)

    def test_density_integrates_to_one(self):
        dist1 = make_gaussian([0.3], [[0.7]])
        x = np.linspace(-10, 10, 4001)
        vals = np.exp([log_density(dist1, [v]) for v in x])
        assert np.trapezoid(vals, x) == pytest.approx(1.0, abs=1e-3)

        dist2 = make_gaussian([0.1, -0.2], [[1.0, 0.6], [0.6, 1.5]])
        g = np.linspace(-9, 9, 501)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        delta = pts - dist2.mean
        u = np.linalg.solve(dist2.chol, delta.T)
        logdet = np.sum(np.log(np.diag(dist2.chol)))
        vals = np.exp(-np.log(2 * np.pi) - logdet - 0.5 * np.sum(u * u, axis=0))
        total = np.trapezoid(np.trapezoid(vals.reshape(xx.shape), g, axis=1), g)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_point_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            log_density(reference_dist(), [0.0, 0.0])


class TestSamplingConditioningAgreement:
    def test_slice_near_d_matches_conditional_mean(self):
        """Rejection draws from the sampler near D=0.5 reproduce the
        conditioned means within 3 standard errors."""
        dist = reference_dist()

        def draws(n, round_index):
            return sample(dist, n, seed=5000 + round_index)

        cond = condition(dist, [2], [0.5])
        for target in (0, 1):
            est = slice_rejection_moments(
                draws, [2], [0.5], target, half_width=0.025,
                min_accepted=10**4, block=1 << 20)
            assert abs(est.mean - cond.mean[target]) < 3 * est.se_mean
