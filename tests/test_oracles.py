"""Closed forms from the conditional-moment machinery vs brute force."""

import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy import integrate

from fairlens import MomentEstimate, NotPositiveDefinite, x1_given_y0_x2_d0
from fairlens import oracles
from fairlens.errors import QuadratureError
from fairlens.oracles import (analytic_verdict, second_moment_x1_given_y0_d0_mc,
                              second_moment_x1_given_y0_d0_quad)

from brute_force import (grid_moments, second_moment_mc_whole_chunks,
                         slice_rejection_moments, var_y_given_price_and_d,
                         x2_unnormalized_density_y0_d0)
from conftest import response_log_density, trivariate_log_density


class TestX1Conditional:
    def test_arithmetic_at_x2_zero(self):
        mean, variance = x1_given_y0_x2_d0(0.1, 0.9, 0.0)
        assert mean == 0.0
        assert variance == pytest.approx(0.18 / 0.37, abs=1e-15)

    def test_mean_vanishes_when_rho1_zero(self):
        for x2 in (-2.0, 0.3, 5.0):
            assert x1_given_y0_x2_d0(0.0, 0.7, x2)[0] == 0.0

    def test_matches_grid_integration(self):
        rho1, rho2, x2 = 0.1, 0.9, 1.0
        want_mean, want_var = x1_given_y0_x2_d0(rho1, rho2, x2)

        def density(x1):
            return np.exp(response_log_density(0.0, x1, x2)
                          + trivariate_log_density(rho1, rho2, x1, x2, 0.0))

        mean, var, _ = grid_moments(density, -10.0, 10.0, 8001)
        assert mean == pytest.approx(want_mean, abs=1e-6)
        assert var == pytest.approx(want_var, abs=1e-6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            x1_given_y0_x2_d0(0.5, 0.9, 0.0)
        for x2 in (np.nan, np.inf, -np.inf, "1", 10**400, None, True):
            with pytest.raises(ValueError):
                x1_given_y0_x2_d0(0.1, 0.9, x2)


class TestX2PosteriorDensity:
    def test_even_in_x2(self):
        rng = np.random.default_rng(1)
        for rho1, rho2 in [(0.1, 0.9), (0.3, 0.5), (0.0, 0.7)]:
            x2 = rng.uniform(0.0, 6.0, size=100)
            f_pos = x2_unnormalized_density_y0_d0(rho1, rho2, x2)
            f_neg = x2_unnormalized_density_y0_d0(rho1, rho2, -x2)
            np.testing.assert_allclose(f_pos, f_neg, rtol=1e-13)

    def test_strictly_positive(self):
        x2 = np.linspace(-8, 8, 101)
        assert np.all(x2_unnormalized_density_y0_d0(0.1, 0.9, x2) > 0.0)

    def test_rho_zero_reduction(self):
        # the 1/sqrt(1+x^2) prefactor cancels, leaving
        # (2+x^2)^(-1/2) exp(-x^2/2)
        x2 = np.linspace(-5, 5, 41)
        got = x2_unnormalized_density_y0_d0(0.0, 0.0, x2)
        want = np.exp(-0.5 * x2**2) / np.sqrt(2.0 + x2**2)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_matches_marginalization_of_joint(self):
        """Normalized posterior equals the x1-marginalized joint density
        of (Y=0, X1, X2, D=0) on a grid."""
        rho1, rho2 = 0.1, 0.9
        x2_grid = np.linspace(-6.0, 6.0, 241)
        x1_grid = np.linspace(-10.0, 10.0, 2001)
        joint = np.empty_like(x2_grid)
        for i, x2 in enumerate(x2_grid):
            vals = np.exp(response_log_density(0.0, x1_grid, x2)
                          + trivariate_log_density(rho1, rho2, x1_grid, x2, 0.0))
            joint[i] = np.trapezoid(vals, x1_grid)
        closed = x2_unnormalized_density_y0_d0(rho1, rho2, x2_grid)
        joint /= np.trapezoid(joint, x2_grid)
        closed /= np.trapezoid(closed, x2_grid)
        np.testing.assert_allclose(closed, joint, atol=1e-5)


def scipy_ratio_oracle(rho1, rho2):
    """The displayed ratio integrated by an unrelated adaptive method."""
    def weight(x):
        den = (2 + x**2) * (1 - rho2**2) - rho1**2
        w = np.sqrt((1 - rho1**2 - rho2**2) / den) * np.exp(
            -0.5 * x**2 * (2 + x**2) * rho2**2 / den)
        return w * np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)

    def integrand(x):
        den = (2 + x**2) * (1 - rho2**2) - rho1**2
        return weight(x) * (1 + x**2) * (1 - rho1**2 - rho2**2) / den

    num = integrate.quad(integrand, -12, 12, epsabs=1e-13)[0]
    den = integrate.quad(weight, -12, 12, epsabs=1e-13)[0]
    return num / den


class TestSecondMoment:
    def test_quadrature_matches_independent_integrator(self):
        for rho1, rho2 in [(0.1, 0.9), (0.0, 0.0), (0.3, 0.5)]:
            got = second_moment_x1_given_y0_d0_quad(rho1, rho2)
            assert got.value == pytest.approx(
                scipy_ratio_oracle(rho1, rho2), abs=1e-9)
            assert got.std_error == 0.0
            assert got.method == "quadrature"

    @pytest.mark.xfail(strict=True, reason=(
        "the posterior weight's peak at x2 = 0 is sqrt(1 - rho2^2)/rho2 "
        "wide, 4.5e-4 at most here; the first Gauss-Legendre node of a "
        "3-wide panel sits at 0.0072, so two refinements that both miss "
        "the peak agree, 6.4e-6 off"))
    @pytest.mark.parametrize("rho2", [0.9999999, 0.99999999])
    def test_quadrature_resolves_a_narrow_posterior_peak(self, rho2):
        """scipy's quad, told where the peak is, against the package's
        panels at their tolerance."""
        width = np.sqrt(1.0 - rho2**2) / rho2
        breaks = [width * k for k in (0.5, 1, 2, 4, 8, 16, 64)]

        def half_line(f):
            return sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13,
                                      limit=500)[0]
                       for lo, hi in zip([0.0] + breaks, breaks + [12.0]))

        # at rho1 = 0, Var(X1 | Y=0, X2=x, D=0) = (1 + x^2) / (2 + x^2)
        num = half_line(lambda x: x2_unnormalized_density_y0_d0(0.0, rho2, x)
                        * (1 + x**2) / (2 + x**2))
        den = half_line(lambda x: x2_unnormalized_density_y0_d0(0.0, rho2, x))
        got = second_moment_x1_given_y0_d0_quad(0.0, rho2)
        # both integrals converge to 1e-8, so their ratio to ~2e-8
        assert got.value == pytest.approx(num / den, rel=1e-7)

    def test_zero_rho_closed_form(self):
        """At rho1 = rho2 = 0 the ratio is
        E[(1+X^2)(2+X^2)^(-3/2)] / E[(2+X^2)^(-1/2)]."""
        phi = lambda x: np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
        num = integrate.quad(
            lambda x: (1 + x**2) * (2 + x**2) ** -1.5 * phi(x), -12, 12)[0]
        den = integrate.quad(lambda x: (2 + x**2) ** -0.5 * phi(x), -12, 12)[0]
        got = second_moment_x1_given_y0_d0_quad(0.0, 0.0)
        assert got.value == pytest.approx(num / den, abs=1e-9)
        assert got.value == pytest.approx(0.604, abs=0.01)

    def test_monte_carlo_agrees_with_quadrature(self):
        (mc,), _ = second_moment_x1_given_y0_d0_mc([(0.1, 0.9)], n=10**6, seed=8)
        quad = second_moment_x1_given_y0_d0_quad(0.1, 0.9)
        assert abs(mc.value - quad.value) < 3 * mc.std_error
        assert mc.method == "monte_carlo"
        assert mc.n == 10**6

    def test_monte_carlo_deterministic(self):
        a, cov_a = second_moment_x1_given_y0_d0_mc([(0.1, 0.9)], n=10**5, seed=4)
        b, cov_b = second_moment_x1_given_y0_d0_mc([(0.1, 0.9)], n=10**5, seed=4)
        assert a == b
        assert cov_a.tobytes() == cov_b.tobytes()

    def test_monte_carlo_bits_are_pinned(self):
        """float.hex of both moments at n = 2^20 + 7 (a full chunk and a
        7-value one) is pinned, and a pair's estimate does not depend on
        the pairs that share its pass."""
        n = (1 << 20) + 7
        both, _ = second_moment_x1_given_y0_d0_mc([(0.1, 0.9), (0.0, 0.0)], n, 11)
        assert [(m.value.hex(), m.std_error.hex()) for m in both] == [
            ("0x1.0a18347741d3cp-1", "0x1.3704920eedbffp-15"),
            ("0x1.356307f06417fp-1", "0x1.7f34f99edcefcp-14")]
        (alone,), _ = second_moment_x1_given_y0_d0_mc([(0.0, 0.0)], n, 11)
        assert alone == both[1]

    @pytest.mark.parametrize("n", [10_007, 33_333, 1_000_003, 1 << 20,
                                   3 * (1 << 20) + 123_457, 10**7])
    def test_monte_carlo_sums_match_whole_chunk_sums(self, n):
        """The leaf-by-leaf pass gives the estimates and covariance bytes
        of one .sum() per column and product over each whole chunk, with
        1, 2 and 3 pairs.  10,007 is a single leaf; 33,333 and 1,000,003
        split where m // 2 is not a multiple of 8 (splitting at m // 2
        itself changes their bytes); 3 * 2^20 + 123,457 ends on a chunk
        of uneven length."""
        pairs = [(0.1, 0.9), (0.0, 0.0), (0.3, -0.5)]
        for k in (1, 2, 3):
            got, got_cov = second_moment_x1_given_y0_d0_mc(pairs[:k], n, 19)
            want, want_cov = second_moment_mc_whole_chunks(pairs[:k], n, 19)
            assert got == want
            assert got_cov.tobytes() == want_cov.tobytes()

    def test_monte_carlo_memory_is_one_chunk(self):
        """The traced heap peak of a two-pair call over two full chunks
        and a 5-value one stays under two chunks of doubles (16 MiB).

        One chunk of draws takes MC_CHUNK doubles (8 MiB).  Everything
        else alive at once is a leaf of at most _MC_SLICE values: the
        leaf's 4 columns and product, a dozen posterior and inverse-CDF
        temporaries, about 20 x 128 KiB in all, well under a second
        chunk.  Columns and products over a whole chunk would take 4 and
        1 more chunks (the first version peaked at 56.8 MiB)."""
        bound = 2 * oracles.MC_CHUNK * 8
        tracemalloc.start()
        try:
            second_moment_x1_given_y0_d0_mc(((0.1, 0.9), (0.0, 0.0)), 2 * oracles.MC_CHUNK + 5, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, peak

    def test_gap_standard_error_matches_its_spread(self):
        """The delta-method SE of the gap between two moments read from
        the same draws matches the gap's spread over 1000 seeds at
        n = 1e4 within 15%, about 4 sampling SEs of the ratio.  The
        same check fails for hypot(se1, se2), which treats the shared
        draws as independent and overstates the SE by about a quarter."""
        gaps, ses, hypots = [], [], []
        for seed in range(1000, 2000):
            (with_d, without_d), cov = second_moment_x1_given_y0_d0_mc(
                [(0.1, 0.9), (0.0, 0.0)], n=10**4, seed=seed)
            gaps.append(without_d.value - with_d.value)
            ses.append(np.sqrt(cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1]))
            hypots.append(np.hypot(with_d.std_error, without_d.std_error))
            np.testing.assert_allclose(np.sqrt(np.diag(cov)),
                                       [with_d.std_error, without_d.std_error],
                                       rtol=1e-9)
        spread = np.std(gaps, ddof=1)
        assert abs(spread / np.median(ses) - 1.0) < 0.15
        assert abs(spread / np.median(hypots) - 1.0) > 0.15

    def test_ordering_strict(self):
        with_d = second_moment_x1_given_y0_d0_quad(0.1, 0.9).value
        without_d = second_moment_x1_given_y0_d0_quad(0.0, 0.0).value
        assert with_d < without_d < 1.0

    @pytest.mark.parametrize("rho1,rho2", [
        (0.1, 0.9), (0.0, 0.0), (0.3, 0.5), (0.0, 0.7), (0.45, 0.2)])
    def test_quadrature_monte_carlo_agreement_grid(self, rho1, rho2):
        (mc,), _ = second_moment_x1_given_y0_d0_mc([(rho1, rho2)], n=10**6, seed=16)
        quad = second_moment_x1_given_y0_d0_quad(rho1, rho2)
        assert abs(mc.value - quad.value) < 3 * mc.std_error

    def test_posterior_weighted_conditional_mean_is_zero(self):
        """The x2-posterior average of the conditional mean vanishes."""
        rng = np.random.default_rng(14)
        x = rng.standard_normal(10**6)
        den = (2 + x**2) * (1 - 0.81) - 0.01
        w = np.sqrt(0.18 / den) * np.exp(-0.5 * x**2 * (2 + x**2) * 0.81 / den)
        m = -0.1 * 0.9 * x * (1 + x**2) / den
        value = np.sum(w * m) / np.sum(w)
        se = np.std(w * m - value * w) / w.mean() / np.sqrt(x.size)
        assert abs(value) < 3 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            second_moment_x1_given_y0_d0_mc([(0.1, 0.9)], n=100, seed=0)
        with pytest.raises(NotPositiveDefinite):
            second_moment_x1_given_y0_d0_mc([(0.1, 0.9), (0.9, 0.9)], n=10**4, seed=0)
        with pytest.raises(NotPositiveDefinite):
            second_moment_x1_given_y0_d0_quad(0.9, 0.9)

    def test_quadrature_nonconvergence_raises(self):
        from fairlens.oracles import _adaptive_even_quadrature
        step = lambda x: np.where(x < np.pi / 3.0, 1.0, 0.0)
        with pytest.raises(QuadratureError):
            _adaptive_even_quadrature(step, tol=0.0)

    def test_moment_estimate_validation(self):
        with pytest.raises(ValueError):
            MomentEstimate(value=1.0, std_error=0.0, n=10, method="monte_carlo")
        with pytest.raises(ValueError):
            MomentEstimate(value=1.0, std_error=-0.1, n=10, method="quadrature")


class TestVarianceDecompositions:
    def test_var_y_given_price_exactly_two(self):
        """Var(Y | X1) = E[Var(Y | X1, D) | X1] = 2: E[Y | X1, D] = X1,
        and D | X1 ~ N(rho1 x1, 1 - rho1^2), so Gauss-Hermite nodes
        average the quadratic in d exactly."""
        nodes, weights = hermegauss(8)
        weights = weights / weights.sum()
        for rho1, rho2 in ((0.1, 0.9), (0.0, 0.0), (-0.3, 0.5)):
            for x1 in (-1.5, 0.0, 2.0):
                d = rho1 * x1 + np.sqrt(1.0 - rho1**2) * nodes
                got = sum(w * var_y_given_price_and_d(rho1, rho2, x1, di)
                          for w, di in zip(weights, d))
                assert got == pytest.approx(2.0, abs=1e-12), (rho1, rho2, x1)
        with pytest.raises(NotPositiveDefinite):
            var_y_given_price_and_d(0.8, 0.7, 0.0, 0.0)

    def test_var_y_given_price_and_d_reference_points(self):
        assert var_y_given_price_and_d(0.1, 0.9, 0.0, 0.0) == pytest.approx(
            1.0 + 0.18 / 0.99, abs=1e-15)
        # 1 + (0.9/0.99 * 0.9)^2 + 0.18/0.99
        assert var_y_given_price_and_d(0.1, 0.9, 1.0, 1.0) == pytest.approx(
            1.8512396694214876, abs=1e-12)

    def test_constant_when_rho2_zero(self):
        for x1, d in [(0.0, 0.0), (1.0, -1.0), (3.0, 2.0)]:
            assert var_y_given_price_and_d(0.3, 0.0, x1, d) == pytest.approx(
                2.0, abs=1e-15)

    def test_binned_empirical_variance(self, reference_model):
        from fairlens import simulate
        ds = simulate(reference_model, 2 * 10**5, seed=61)
        sel = np.abs(ds.x1 - 0.5) < 0.05
        y = ds.y[sel]
        var = y.var()
        m4 = np.mean((y - y.mean()) ** 4)
        se = np.sqrt((m4 - var**2) / sel.sum())
        assert abs(var - 2.0) < 3 * se


def x1_verdict(axiom, rho1, rho2):
    """The analytic HOLDS/VIOLATED of the x1 price."""
    return analytic_verdict(axiom, rho1, rho2, price_is_x1=True)[1]


class TestAnalyticVerdicts:
    def test_independence_violated_at_reference_parameters(self):
        assert x1_verdict("independence", 0.1, 0.9) == "VIOLATED"

    def test_full_regime_table(self):
        want = {
            (0.3, 0.5): ("VIOLATED", "VIOLATED", "VIOLATED"),
            (0.3, 0.0): ("VIOLATED", "VIOLATED", "HOLDS"),
            (0.0, 0.5): ("HOLDS", "VIOLATED", "VIOLATED"),
            (0.0, 0.0): ("HOLDS", "HOLDS", "HOLDS"),
        }
        for (rho1, rho2), expected in want.items():
            got = tuple(x1_verdict(a, rho1, rho2)
                        for a in ("independence", "separation", "sufficiency"))
            assert got == expected, (rho1, rho2)

    def test_sufficiency_holds_when_variance_constant(self):
        assert x1_verdict("sufficiency", 0.3, 0.0) == "HOLDS"

    def test_signed_pairs_and_constant_price(self):
        axioms = ("independence", "separation", "sufficiency")
        for axiom in axioms:
            want = analytic_verdict(axiom, 0.3, 0.5, price_is_x1=True)
            for rho1, rho2 in ((-0.3, 0.5), (0.3, -0.5), (-0.3, -0.5)):
                assert analytic_verdict(axiom, rho1, rho2, price_is_x1=True) == want
        for rho1, rho2, sufficiency in ((0.0, 0.0, "HOLDS"),
                                        (-0.3, 0.0, "VIOLATED"),
                                        (0.0, 0.5, "VIOLATED"),
                                        (1e-200, 0.0, "VIOLATED")):
            got = [analytic_verdict(a, rho1, rho2, price_is_x1=False)[1]
                   for a in axioms]
            assert got == ["HOLDS", "HOLDS", sufficiency], (rho1, rho2)
        assert analytic_verdict("sufficiency", -0.3, 0.4, price_is_x1=False)[0] == \
            pytest.approx(0.25)

    @pytest.mark.parametrize("rho1,rho2", [(0.0, 0.001), (0.0, 1e-4),
                                           (1e-4, 1e-4)])
    def test_separation_violated_at_small_nonzero_pairs(self, rho1, rho2):
        """Separation fails at every pair but (0, 0), however small the
        quadrature gap (5.3e-8, 5.3e-10 and 4.3e-9 here)."""
        criterion, verdict = analytic_verdict("separation", rho1, rho2,
                                              price_is_x1=True)
        assert verdict == "VIOLATED"
        assert criterion < 1e-7

    def test_parameter_validation(self):
        with pytest.raises(NotPositiveDefinite):
            x1_verdict("separation", 0.9, 0.9)
        with pytest.raises(ValueError):
            x1_verdict("equal_opportunity", 0.1, 0.2)


class TestSliceRejection:
    def test_budget_exhaustion_raises(self):
        def draws(n, rnd):
            return np.full((n, 2), 100.0)

        with pytest.raises(RuntimeError):
            slice_rejection_moments(draws, [0], [0.0], 1, max_rounds=2,
                                    block=1000)
