"""Distance correlation, permutation machinery, axiom checkers."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from fairlens import (ConfigError, EmptyBin, LengthMismatch, TestConfig,
                      TooFewSamples, check_independence, check_separation,
                      check_sufficiency, combine_pvalues_fisher,
                      make_example_model, simulate)
from fairlens.fairness import HOLDS, INCONCLUSIVE, VIOLATED

from brute_force import distance_correlation, permutation_pvalue

FAST = TestConfig(alpha=0.01, n_permutations=199, seed=5)


def brute_force_dcor(a, b):
    """Literal double-loop definition of the empirical distance correlation."""
    n = len(a)
    A = np.empty((n, n))
    B = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            A[i, j] = abs(a[i] - a[j])
            B[i, j] = abs(b[i] - b[j])
    A = A - A.mean(axis=0) - A.mean(axis=1)[:, None] + A.mean()
    B = B - B.mean(axis=0) - B.mean(axis=1)[:, None] + B.mean()
    dcov2 = np.vdot(A, B) / n**2
    dvar_a = np.vdot(A, A) / n**2
    dvar_b = np.vdot(B, B) / n**2
    if dvar_a <= 0 or dvar_b <= 0:
        return 0.0
    return np.sqrt(max(dcov2, 0.0) / np.sqrt(dvar_a * dvar_b))


class TestTestConfig:
    def test_defaults(self):
        cfg = TestConfig()
        assert (cfg.alpha, cfg.n_permutations, cfg.n_bins_y) == (0.01, 999, 20)
        # ranks, detrending and the level count are fixed, not options
        assert [f.name for f in fields(cfg)] == [
            "alpha", "n_permutations", "n_bins_y", "seed"]

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": 0.5}, {"n_permutations": 50},
        {"n_bins_y": 4}, {"n_permutations": 98},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TestConfig(**kwargs)


class TestDistanceCorrelation:
    def test_perfect_linear_dependence(self):
        x = np.arange(1.0, 101.0)
        assert distance_correlation(x, x) == pytest.approx(1.0, abs=1e-12)
        assert distance_correlation(x, 3 * x - 2) == pytest.approx(1.0, abs=1e-12)

    def test_independent_samples_small_statistic(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=10**4)
        b = rng.normal(size=10**4)
        assert distance_correlation(a, b) < 0.05

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(5, 40))
    def test_matches_double_loop_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n)
        b = 0.5 * a + rng.normal(size=n)
        assert distance_correlation(a, b) == pytest.approx(
            brute_force_dcor(a, b), abs=1e-10)

    def test_matches_oracle_on_model_draws(self):
        ds = simulate(make_example_model(0.1, 0.9), 1500, seed=9)
        got = distance_correlation(ds.x1, ds.d)
        assert got == pytest.approx(brute_force_dcor(ds.x1, ds.d), abs=1e-10)
        assert got == pytest.approx(0.1, abs=0.06)

    def test_length_validation(self):
        with pytest.raises(LengthMismatch):
            distance_correlation([1, 2, 3], [1, 2])
        with pytest.raises(LengthMismatch):
            distance_correlation([1, 2, 3], [1, 2, 3])


class TestPermutationPvalue:
    def test_strong_dependence_hits_floor(self):
        x = np.arange(100.0)
        p = permutation_pvalue(distance_correlation, x, x, 999, seed=3)
        assert p == pytest.approx(1.0 / 1000.0)

    def test_all_permutations_at_least_observed(self):
        # constant statistic: every permuted value ties with the observed
        p = permutation_pvalue(lambda a, b: 0.0, np.arange(50.0),
                               np.arange(50.0), 99, seed=3)
        assert p == 1.0

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=80), rng.normal(size=80)
        p1 = permutation_pvalue(distance_correlation, a, b, 199, seed=11)
        p2 = permutation_pvalue(distance_correlation, a, b, 199, seed=11)
        assert p1 == p2

    def test_uniform_under_null(self):
        """Rejection rate of the permutation p at 5% stays near 5%."""
        rng = np.random.default_rng(42)
        rejections = 0
        reps = 200
        for _ in range(reps):
            a = rng.normal(size=60)
            b = rng.normal(size=60)
            stat = lambda u, v: abs(np.corrcoef(u, v)[0, 1])
            rejections += permutation_pvalue(stat, a, b, 99, seed=7) < 0.05
        assert 0.02 <= rejections / reps <= 0.10

    def test_minimum_permutations(self):
        with pytest.raises(ConfigError):
            permutation_pvalue(distance_correlation, np.arange(10.0),
                               np.arange(10.0), 50, seed=0)


class TestFisherCombination:
    def test_single_value_identity(self):
        assert combine_pvalues_fisher([0.5])[1] == pytest.approx(0.5, abs=1e-12)
        assert combine_pvalues_fisher([0.07])[1] == pytest.approx(0.07, abs=1e-12)

    def test_all_ones(self):
        stat, p = combine_pvalues_fisher([1.0, 1.0, 1.0])
        assert p == 1.0
        assert stat == 0.0 and math.copysign(1.0, stat) == 1.0

    def test_out_of_range(self):
        for bad in ([0.0, 0.5], [0.5, 1.2], [-0.1], []):
            with pytest.raises(Exception):
                combine_pvalues_fisher(bad)

    def test_uniform_inputs_give_uniform_output(self):
        """KS distance of combined p-values from U(0,1) over 2000 reps."""
        rng = np.random.default_rng(20)
        combined = np.array([
            combine_pvalues_fisher(rng.uniform(size=20))[1] for _ in range(2000)])
        ks = sps.kstest(combined, "uniform").statistic
        assert ks < 0.05


class TestCheckIndependence:
    def test_reference_model_violated(self, reference_model):
        ds = simulate(reference_model, 10**5, seed=41)
        v = check_independence(ds.x1, ds.d, TestConfig(seed=13))
        assert v.verdict == VIOLATED
        assert v.p_value == pytest.approx(1.0 / 1000.0)
        assert v.n_used == 10**5
        assert v.statistic == pytest.approx(0.089, abs=0.03)

    def test_zero_rho1_holds(self):
        ds = simulate(make_example_model(0.0, 0.9), 10**5, seed=42)
        v = check_independence(ds.x1, ds.d, TestConfig(seed=13))
        assert v.verdict == HOLDS
        assert v.p_value >= 0.01

    def test_constant_price_holds_with_zero_statistic(self):
        rng = np.random.default_rng(3)
        d = rng.normal(size=10**5)
        v = check_independence(np.zeros(10**5), d, FAST)
        assert v.verdict == HOLDS
        assert v.statistic == 0.0
        assert v.p_value == 1.0

    def test_inconclusive_below_power_guard(self):
        rng = np.random.default_rng(8)
        v = check_independence(rng.normal(size=500), rng.normal(size=500), FAST)
        assert v.verdict == INCONCLUSIVE

    def test_validation(self):
        with pytest.raises(LengthMismatch):
            check_independence(np.zeros(100), np.zeros(99), FAST)
        with pytest.raises(TooFewSamples):
            check_independence(np.zeros(50), np.zeros(50), FAST)


class TestConditionalCheckers:
    def test_separation_violated_on_reference_model(self, reference_model):
        ds = simulate(reference_model, 10**5, seed=43)
        v = check_separation(ds.x1, ds.d, ds.y, FAST)
        assert v.verdict == VIOLATED
        assert v.p_value < 1e-6

    def test_sufficiency_violated_on_reference_model(self, reference_model):
        ds = simulate(reference_model, 10**5, seed=44)
        v = check_sufficiency(ds.y, ds.d, ds.x1, FAST)
        assert v.verdict == VIOLATED
        assert v.p_value < 1e-6

    def test_sufficiency_holds_when_rho2_zero(self):
        ds = simulate(make_example_model(0.1, 0.0), 2 * 10**5, seed=45)
        v = check_sufficiency(ds.y, ds.d, ds.x1, FAST)
        assert v.verdict == HOLDS

    def test_separation_holds_under_full_independence(self):
        ds = simulate(make_example_model(0.0, 0.0), 2 * 10**5, seed=46)
        v = check_separation(ds.x1, ds.d, ds.y, FAST)
        assert v.verdict == HOLDS

    def test_separation_violated_without_price_d_correlation(self):
        # rho1 = 0: the price and D are marginally independent, yet the
        # variance channel through X2 still breaks conditional
        # independence given Y
        ds = simulate(make_example_model(0.0, 0.9), 2 * 10**5, seed=51)
        v = check_separation(ds.x1, ds.d, ds.y, FAST)
        assert v.verdict == VIOLATED
        assert v.p_value < 1e-4

    def test_role_exchange_is_shared_implementation(self, reference_model):
        """check_sufficiency(y, d, p) is check_separation with the roles
        of the response and the price exchanged."""
        ds = simulate(reference_model, 5 * 10**4, seed=47)
        suf = check_sufficiency(ds.y, ds.d, ds.x1, FAST)
        sep_swapped = check_separation(ds.y, ds.d, ds.x1, FAST)
        assert suf.statistic == sep_swapped.statistic
        assert suf.p_value == sep_swapped.p_value
        assert suf.axiom.kind == "sufficiency"
        assert sep_swapped.axiom.kind == "separation"

    def test_too_few_samples(self, reference_model):
        ds = simulate(reference_model, 1500, seed=48)
        with pytest.raises(TooFewSamples):
            check_separation(ds.x1, ds.d, ds.y, FAST)

    def test_empty_bin_on_heavy_ties(self):
        # a huge tie block at 0 collapses the quantile edges; the few
        # strictly negative points land alone in an undersized bin
        rng = np.random.default_rng(9)
        given = np.concatenate([np.zeros(1900),
                                rng.uniform(-2.0, -1.0, size=25),
                                rng.uniform(1.0, 2.0, size=75)])
        a = rng.normal(size=given.size)
        b = rng.normal(size=given.size)
        cfg = TestConfig(n_bins_y=20, n_permutations=99, seed=1)
        with pytest.raises(EmptyBin):
            check_separation(a, b, given, cfg)

    def test_constant_conditioning_collapses_to_marginal(self):
        """Constant prices: sufficiency reduces to the unconditional test."""
        rng = np.random.default_rng(10)
        y = rng.normal(size=5000)
        d = rng.normal(size=5000)
        v = check_sufficiency(y, d, np.zeros(5000), FAST)
        assert v.verdict == INCONCLUSIVE  # n below the power guard
        assert v.p_value > 0.01


class TestMonotoneInvariance:
    def test_increasing_transform_leaves_everything_unchanged(self, reference_model):
        ds = simulate(reference_model, 6 * 10**4, seed=49)
        prices = ds.x1
        warped = prices**3 + prices
        cfg = TestConfig(n_permutations=199, seed=3)

        v1 = check_independence(prices, ds.d, cfg)
        v2 = check_independence(warped, ds.d, cfg)
        assert (v1.statistic, v1.p_value, v1.verdict) == \
               (v2.statistic, v2.p_value, v2.verdict)

        s1 = check_separation(prices, ds.d, ds.y, cfg)
        s2 = check_separation(warped, ds.d, ds.y, cfg)
        assert (s1.statistic, s1.p_value) == (s2.statistic, s2.p_value)

        u1 = check_sufficiency(ds.y, ds.d, prices, cfg)
        u2 = check_sufficiency(ds.y, ds.d, warped, cfg)
        assert (u1.statistic, u1.p_value) == (u2.statistic, u2.p_value)


class TestPanelInvariants:
    def test_sufficiency_violated_across_panel(self, reference_dataset_cache):
        """Sufficiency rejects with p < 0.001 on every golden-panel seed
        of the reference model at n=1e6 (independence and separation run the
        same panel in the acceptance suite)."""
        from conftest import PANEL_SEEDS
        for seed in PANEL_SEEDS:
            ds = reference_dataset_cache(seed)
            v = check_sufficiency(
                ds.y, ds.d, ds.x1,
                TestConfig(alpha=0.01, n_permutations=199, seed=3000 + seed))
            assert v.verdict == VIOLATED
            assert v.p_value < 0.001


class TestVerdictSerialization:
    def test_to_dict_fields(self, reference_model):
        ds = simulate(reference_model, 10**4, seed=50)
        v = check_independence(ds.x1, ds.d, FAST)
        raw = v.to_dict()
        assert set(raw) == {"axiom", "statistic", "p_value",
                            "analytic_criterion", "verdict", "alpha",
                            "n_used", "seed", "source"}
        assert raw["axiom"] == "independence"
        assert raw["source"] == "statistical"
