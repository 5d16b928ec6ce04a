"""Distance correlation, permutation machinery, axiom checkers."""

import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as sps

from fairlens import (ConfigError, EmptyBin, LengthMismatch, NonFiniteInput,
                      TestConfig, TooFewSamples, check_independence,
                      check_separation, check_sufficiency, fairness,
                      make_example_model, simulate)
from fairlens.fairness import HOLDS, INCONCLUSIVE, VIOLATED
from fairlens.harness import MAX_N
from fairlens.streams import normal_ppf

from brute_force import (chi2_even_sf_decimal, chi2_mixture_sf_monte_carlo,
                         copula_ranks, distance_correlation, imhof_sf,
                         permutation_pvalue, quantile_level_ids,
                         sampled_table_mid_p, saddlepoint_log_sf_scipy,
                         saddlepoint_root_brentq, sorted_quantiles)

FAST = TestConfig(alpha=0.01, n_permutations=199, seed=5)


def table_test(a, b, levels):
    """The level-table test of two raw columns, each cut into `levels`
    quantile levels."""
    return fairness._table_test(fairness._quantile_level_ids(a, levels),
                                fairness._quantile_level_ids(b, levels))


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
        assert (cfg.alpha, cfg.n_permutations, cfg.seed) == (0.01, 999, 0)
        # ranks, detrending, the level count and the bin count are
        # fixed, not options
        assert [f.name for f in fields(cfg)] == [
            "alpha", "n_permutations", "seed"]

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": 0.5}, {"n_permutations": 50},
        {"alpha": math.nan}, {"n_permutations": 98},
        {"seed": -1}, {"seed": 1 << 64}, {"seed": 2.5}, {"seed": 2.0},
        {"seed": True}, {"seed": np.float64(3.0)}, {"seed": "3"},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TestConfig(**kwargs)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64((1 << 64) - 1)])
    def test_numpy_integer_seed_is_kept_as_int(self, seed):
        cfg = TestConfig(seed=seed)
        assert type(cfg.seed) is int and cfg.seed == seed

    def test_permutation_ceiling_is_kept(self):
        """n_permutations acts on no p-value, but keeps its valid range
        [99, 32768], so configs that were valid stay valid and no other
        value is accepted."""
        assert fairness.MAX_PERMUTATIONS == 32768
        assert TestConfig(n_permutations=fairness.MAX_PERMUTATIONS)
        for too_many in (fairness.MAX_PERMUTATIONS + 1, 99999999999999999999):
            with pytest.raises(ConfigError, match="n_permutations"):
                TestConfig(n_permutations=too_many)


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

    @pytest.mark.parametrize("n,levels,ties", [
        (300, 4, False), (1000, 8, True), (2000, 16, False),
        (3000, 32, True), (5000, 64, False)])
    def test_level_table_statistic_matches_definition(self, n, levels, ties):
        """The level-table dCor that every verdict rests on is the exact
        distance correlation of each point's level position, the
        midpoint cumsum(p) - p/2 of its level's probability mass."""
        rng = np.random.default_rng(n + levels)
        a = rng.normal(size=n)
        b = 0.3 * a + rng.normal(size=n)
        if ties:
            # a tie block across several quantile edges merges levels
            a[rng.permutation(n)[: n // 4]] = 0.0
        positions = []
        for x in (a, b):
            ids, counts = fairness._quantile_level_ids(x, levels)
            probs = counts / n
            positions.append((np.cumsum(probs) - probs / 2.0)[ids])
        got = table_test(a, b, levels)[0]
        assert got == pytest.approx(distance_correlation(*positions), abs=1e-12)

    def test_length_validation(self):
        with pytest.raises(LengthMismatch):
            distance_correlation([1, 2, 3], [1, 2])
        with pytest.raises(LengthMismatch):
            distance_correlation([1, 2, 3], [1, 2, 3])


def _order_inputs(kind, n):
    """Columns that stress a sort-based ranking: ties, signed zeros,
    subnormals and values equal to a quantile edge."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    if kind == "distinct":
        return x
    if kind == "rounded":
        return np.round(x, 2)
    if kind == "small_integers":
        return rng.integers(0, 5, size=n).astype(np.float64)
    if kind == "constant":
        return np.full(n, 1.5)
    if kind == "signed_zeros":
        return np.where(x < -0.5, -0.0, np.where(x < 0.5, 0.0, x))
    if kind == "subnormals":
        # 2^-1060 x keeps at most 14 significant bits: subnormal, with ties
        return np.ldexp(x, -1060)
    assert kind == "on_edges"
    # 65 values over 64 levels: most edges fall inside a tie block
    return (rng.permutation(n) % 65).astype(np.float64)


ORDER_KINDS = ("distinct", "rounded", "small_integers", "constant",
               "signed_zeros", "subnormals", "on_edges")


def _assert_level_ids(pair, want):
    ids, counts = pair
    np.testing.assert_array_equal(ids, want)
    np.testing.assert_array_equal(
        counts, np.bincount(want, minlength=counts.shape[0]))
    assert ids.dtype == np.min_scalar_type(counts.shape[0] - 1)


class TestOneSortPerColumn:
    """The sort-based scores and level ids equal their definitions:
    normal_ppf of scipy's average ranks over n + 1, and the count of
    distinct quantile edges at or below each value."""

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @pytest.mark.parametrize("n", [500, 50_000, 1_000_000])
    def test_matches_the_definitions(self, n, kind):
        x = _order_inputs(kind, n)
        scores = fairness.normal_scores(x)
        want_scores = normal_ppf(copula_ranks(x))
        assert scores.tobytes() == want_scores.tobytes()
        # the ids normal_scores carries: independence's levels cut on
        # the raw values, the conditioning bins cut on the scores
        _assert_level_ids(scores.levels, quantile_level_ids(
            x, fairness._independence_levels(n)))
        _assert_level_ids(scores.bins,
                          quantile_level_ids(want_scores, fairness.N_BINS))
        for levels in (fairness.N_LEVELS, fairness.N_LEVELS // 2,
                       fairness.N_BINS):
            _assert_level_ids(fairness._quantile_level_ids(x, levels),
                              quantile_level_ids(x, levels))

    def test_scores_are_read_only_and_views_carry_no_ids(self):
        scores = fairness.normal_scores(_order_inputs("distinct", 500))
        assert not scores.flags.writeable
        with pytest.raises(ValueError):
            scores[0] = 0.0
        for view in (scores[:], scores[::-1], scores.copy()):
            assert isinstance(view, fairness.NormalScores)
            assert view.levels is None and view.bins is None

    def test_inputs_reach_the_cases_they_name(self):
        n = 50_000
        zeros = _order_inputs("signed_zeros", n)
        signs = np.signbit(zeros[zeros == 0.0])
        assert signs.any() and not signs.all()
        sub = _order_inputs("subnormals", n)
        assert (np.abs(sub[sub != 0.0]) < np.finfo(np.float64).tiny).all()
        x = _order_inputs("on_edges", n)
        probs = np.linspace(0.0, 1.0, fairness.N_LEVELS + 1)[1:-1]
        assert np.isin(np.quantile(x, probs), x).sum() > fairness.N_LEVELS // 2


QUANTILE_PROBS = [np.linspace(0.0, 1.0, k + 1)[1:-1]
                  for k in (fairness.N_LEVELS, fairness.N_LEVELS // 2,
                            fairness.N_BINS, 4)]


def quantiles_by_index(xs, probs):
    """np.quantile(xs, probs) of the sorted column xs, read off by index
    as the level edges are."""
    return fairness._read_quantiles(
        xs, fairness._quantile_positions(xs.shape[0], probs))


class TestQuantileByIndex:
    """_read_quantiles reads np.quantile's default linear-method values
    off a sorted column by index, byte for byte."""

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 500, 50_000, 1_000_000])
    def test_matches_np_quantile(self, n, kind):
        xs = np.sort(_order_inputs(kind, n))
        for probs in QUANTILE_PROBS:
            got = quantiles_by_index(xs, probs)
            want = sorted_quantiles(xs, probs)
            if kind == "signed_zeros":
                # np.quantile partitions its copy of the column first,
                # which may swap an equal -0.0 and 0.0: only the sign of
                # a zero may differ, and no cut or id depends on it
                np.testing.assert_array_equal(got, want)
                got, want = got + 0.0, want + 0.0
            assert got.tobytes() == want.tobytes(), probs.shape

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=300),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    def test_matches_np_quantile_on_drawn_columns(self, values, probs):
        # + 0.0 makes every zero positive, so the bytes are defined
        xs = np.sort(np.array(values) + 0.0)
        probs = np.array(probs)
        got = quantiles_by_index(xs, probs)
        assert got.tobytes() == sorted_quantiles(xs, probs).tobytes()


class TestScoresKeepTheirOrder:
    """The bin ids are cut on normal_ppf of the sorted ranks, which
    must therefore be non-decreasing.  Ranks over n + 1 lie on the grid
    k / (2 (n + 1)); one step of that grid at MAX_N raises normal_ppf
    far more than its rounding takes back where AS 241 switches between
    its central and tail rationals (p = 0.075 and 0.925)."""

    def test_rounding_drop_is_far_below_a_half_rank_step(self):
        half_step = 1.0 / (2.0 * (MAX_N + 1))
        for branch in (0.075, 0.925):
            ulps = np.arange(-2_000_000, 2_000_001)
            p = (np.float64(branch).view(np.int64) + ulps).view(np.float64)
            f = normal_ppf(p)
            # the largest fall below any earlier value, not only below
            # the neighbour
            drop = float(np.max(np.maximum.accumulate(f) - f))
            assert drop <= 2.3e-16, branch
            rise = normal_ppf(branch + half_step) - normal_ppf(branch)
            assert rise >= 8.05e-8, branch

    def test_rank_grid_is_strictly_increasing(self):
        n = 10**6
        grid = normal_ppf(np.arange(2.0, 2.0 * n + 1.0) / 2.0 / (n + 1.0))
        assert (np.diff(grid) > 0.0).all()


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("check", [
        lambda a, b, c: check_independence(a, b, FAST),
        lambda a, b, c: check_separation(a, b, c, FAST),
        lambda a, b, c: check_sufficiency(a, b, c, FAST),
        lambda a, b, c: fairness.normal_scores(a),
    ], ids=["independence", "separation", "sufficiency", "normal_scores"])
    def test_rejected(self, check, bad):
        rng = np.random.default_rng(9)
        a, b, c = rng.normal(size=(3, 5000))
        a[1234] = bad
        with pytest.raises(NonFiniteInput):
            check(a, b, c)


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


def _fresh_stdout(code, **env):
    """The last stdout line of code run in a fresh interpreter, with this
    fairlens first on its path and the environment updated by env, where
    None removes a name."""
    src = str(Path(fairness.__file__).resolve().parents[1])
    full = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    for name, value in env.items():
        full.pop(name, None)
        if value is not None:
            full[name] = value
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         check=True, capture_output=True, text=True, env=full)
    return out.stdout.strip().splitlines()[-1]


def _scipy_modules_after(code):
    """The scipy modules, to two name levels, loaded in a fresh
    interpreter by code."""
    return json.loads(_fresh_stdout(textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted({".".join(m.split(".")[:2]) for m in sys.modules
                                 if m == "scipy" or m.startswith("scipy.")})))
        """)))


class TestScipyLoadsOnlyWhereNeeded:
    """Every level table takes the spectral law, whose tail runs on
    numpy and math, so no check loads a scipy module, whatever its
    p-values."""

    def test_import_and_a_sampled_check_load_no_scipy(self):
        """A 500-point check, whose 31 x 31 table a sampled null once
        decided."""
        assert _scipy_modules_after("""
            import fairlens
            from fairlens import fairness, model
            ds = model.simulate(model.make_example_model(0.1, 0.9), 500, 0)
            fairness.check_independence(ds.x1, ds.d,
                                        fairness.TestConfig(n_permutations=99))
            """) == []

    def test_audit_above_the_floor_loads_no_scipy(self):
        """Spectral tables whose p-values lie below 1e-3 (the saddlepoint),
        and Fisher's combination of them."""
        assert _scipy_modules_after("""
            from fairlens import RunConfig, TestConfig, cmd_audit
            cmd_audit(RunConfig(rho1=0.1, rho2=0.9, n=500_000, seed=5,
                                test=TestConfig(seed=5)))
            """) == []

    def test_null_price_audit_loads_no_scipy_stats(self):
        """A constant price collapses sufficiency to one 20,000-point
        table on 32 x 32 levels; the n = 2e4 bins hold 1,000 points."""
        loaded = _scipy_modules_after("""
            from fairlens import RunConfig, TestConfig, cmd_audit
            cmd_audit(RunConfig(rho1=-0.3, rho2=0.0, n=20_000, seed=42,
                                functional="null",
                                test=TestConfig(n_permutations=199, seed=3)))
            """)
        assert loaded == [], f"scipy modules loaded: {loaded}"

    def test_mid_n_audit_loads_no_scipy_stats(self):
        """At n = 2e5 the conditional bins hold 10,000 points on
        32 x 32 levels."""
        loaded = _scipy_modules_after("""
            from fairlens import RunConfig, TestConfig, cmd_audit
            cmd_audit(RunConfig(rho1=0.1, rho2=0.9, n=200_000, seed=11,
                                test=TestConfig(n_permutations=199, seed=3)))
            """)
        assert loaded == [], f"scipy modules loaded: {loaded}"

    def test_audit_that_holds_loads_no_scipy(self):
        """A (0, 0) audit at n = 2e5, every verdict HOLDS: its p-values
        lie in the bulk of each law, where the grid or Ruben's series
        gives them."""
        out = _fresh_stdout("""
            import json, sys
            from fairlens import RunConfig, TestConfig, cmd_audit
            report = cmd_audit(RunConfig(rho1=0.0, rho2=0.0, n=200_000, seed=11,
                                         test=TestConfig(n_permutations=199, seed=3)))
            print(json.dumps([[o.statistical.verdict for o in report.verdicts],
                              sorted(m for m in sys.modules
                                     if m == "scipy" or m.startswith("scipy."))]))
            """)
        verdicts, loaded = json.loads(out)
        assert verdicts == [HOLDS] * 3
        assert loaded == [], f"scipy modules loaded: {loaded}"

    def test_raw_column_separation_loads_no_scipy(self):
        """500-point bins, scored from raw columns, and Fisher's
        combination of their p-values."""
        assert _scipy_modules_after("""
            from fairlens import fairness, model
            ds = model.simulate(model.make_example_model(0.1, 0.9), 10_000, 0)
            fairness.check_separation(ds.x1, ds.d, ds.y,
                                      fairness.TestConfig(n_permutations=99))
            """) == []


class TestResidualsDoNotDependOnTheBlasKernel:
    def test_same_bytes_under_the_sandybridge_kernel(self):
        """The residualized normal scores of 50,000-point columns hash the
        same with the host's OpenBLAS kernel and with SandyBridge's, whose
        dot products round differently."""
        script = """
            import hashlib
            import numpy as np
            from fairlens import fairness, model
            digest = hashlib.sha256()
            for seed in range(3):
                ds = model.simulate(model.make_example_model(0.1, 0.9), 50_000, seed)
                a, g = (np.asarray(fairness.normal_scores(c)) for c in (ds.x1, ds.y))
                digest.update(fairness._residualize(a, g).tobytes())
            print(digest.hexdigest())
            """
        assert (_fresh_stdout(script, OPENBLAS_CORETYPE=None)
                == _fresh_stdout(script, OPENBLAS_CORETYPE="SandyBridge"))


def fisher(pvals):
    """Fisher's combination of the p-values, as the checkers run it."""
    return fairness._fisher_from_logs(np.log(np.asarray(pvals, dtype=float)))


class TestFisherCombination:
    def test_single_value_identity(self):
        assert fisher([0.5])[1] == pytest.approx(0.5, abs=1e-12)
        assert fisher([0.07])[1] == pytest.approx(0.07, abs=1e-12)

    def test_all_ones(self):
        stat, p = fisher([1.0, 1.0, 1.0])
        assert p == 1.0
        assert stat == 0.0 and math.copysign(1.0, stat) == 1.0

    def test_uniform_inputs_give_uniform_output(self):
        """KS distance of combined p-values from U(0,1) over 2000 reps."""
        rng = np.random.default_rng(20)
        combined = np.array([
            fisher(rng.uniform(size=20))[1] for _ in range(2000)])
        ks = sps.kstest(combined, "uniform").statistic
        assert ks < 0.05


def _mixture_tail(levels_a, levels_b, n=10**5):
    """The _MixtureTail of a table of n points on equal-probability
    levels_a x levels_b levels."""
    counts = [tuple(int(c) for c in n // k + (np.arange(k) < n % k))
              for k in (levels_a, levels_b)]
    return fairness._spectral_law(*counts)[2]


def _table_weights(levels, n=10**6):
    """Mean-1 spectral weights of a levels x levels table of
    equal-probability levels."""
    return _mixture_tail(levels, levels, n).weights


TABLE_LEVELS = (5, 31, 32, 64)
# from the bulk of each law out to log p near -7e5
TAIL_QS = np.concatenate([np.geomspace(1e-3, 1e6, 241), [1.0 - 1e-12, 1.0, 1.0 + 1e-12]])
EPS = np.finfo(float).eps


class TestTailKernels:
    """The numpy and math kernels of Fisher's combination and of the
    saddlepoint tail against scipy and 40-digit oracles."""

    def test_fisher_tail_matches_the_40_digit_sum(self):
        for k in range(1, 21):
            for x in np.geomspace(1e-6, 3000.0, 150):
                want = chi2_even_sf_decimal(float(x), k)
                if want < 1e-300:
                    break
                got = fairness._chi2_even_sf(float(x), k)
                assert got == pytest.approx(want, rel=5e-14, abs=0.0), (k, x)

    def test_fisher_tail_matches_chdtrc(self):
        """chdtrc itself is up to 1.2e-13 off the 40-digit sum near
        x = 1,200-1,400, which sets the bound here."""
        xs = np.concatenate([np.geomspace(1e-6, 3000.0, 400),
                             np.linspace(1.0, 3000.0, 400)])
        for k in range(1, 21):
            want = special.chdtrc(2 * k, xs)
            for x, p in zip(xs[want >= 1e-300], want[want >= 1e-300]):
                got = fairness._chi2_even_sf(float(x), k)
                assert got == pytest.approx(p, rel=2e-13, abs=0.0), (k, x)

    def test_fisher_tail_edges(self):
        assert fairness._chi2_even_sf(0.0, 20) == 1.0
        assert fairness._chi2_even_sf(7.0, 1) == math.exp(-3.5)
        assert fairness._chi2_even_sf(1e5, 20) == 0.0

    def test_mills_ratio_matches_erfcx(self):
        zs = np.concatenate([np.geomspace(1e-8, 1e4, 4000),
                             np.linspace(2.9, 3.1, 201)])
        want = math.sqrt(math.pi / 2.0) * special.erfcx(zs / math.sqrt(2.0))
        for z, r in zip(zs, want):
            assert fairness._mills_ratio(float(z)) == pytest.approx(
                r, rel=1e-14, abs=0.0), z

    @pytest.mark.parametrize("levels", TABLE_LEVELS)
    def test_newton_root_matches_brentq(self, levels):
        """Within 4 eps relative, or within the width 4 eps q / K''(t)
        over which rounding of K'(t) - q cannot tell roots apart (the
        root t = 0 at q = 1)."""
        w = _table_weights(levels)
        for q in map(float, TAIL_QS):
            want = saddlepoint_root_brentq(q, w)
            r = w / (1.0 - 2.0 * want * w)
            k2 = 2.0 * float(np.sum(r * r))
            got = fairness._saddlepoint_root(q, w)
            assert abs(got - want) <= 4.0 * EPS * (abs(want) + q / k2), (q, got, want)

    @pytest.mark.parametrize("levels", TABLE_LEVELS)
    def test_saddlepoint_matches_the_scipy_formula(self, levels):
        w = _table_weights(levels)
        compared = 0
        for q in map(float, TAIL_QS):
            want = saddlepoint_log_sf_scipy(q, w)
            if want >= math.log(1e-3):
                continue
            got = fairness._saddlepoint_log_sf(q, w)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (q, got, want)
            compared += 1
        assert compared > 100

    def test_one_weight_takes_the_exact_tail(self):
        """One weight is the chi-square law with one df, whose tail
        erfc(sqrt(q / 2)) the mixture returns in log space, finite far
        past the point where erfc underflows."""
        w = np.array([1.0])
        for q in np.geomspace(0.01, 700.0, 301):
            got = math.exp(fairness._MixtureTail(w).log_sf(float(q)))
            want = math.erfc(math.sqrt(q / 2.0))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), q
        for q in (1e3, 1e4):
            got = fairness._MixtureTail(w).log_sf(q)
            want = math.log(2.0) + float(special.log_ndtr(-math.sqrt(q)))
            assert math.isfinite(got)
            assert got == pytest.approx(want, rel=1e-13), q

    def test_one_weight_is_one_degree_of_freedom(self):
        """With one weight P(Q > q) = erfc(sqrt(q / 2)).  The saddlepoint's
        relative error on one df climbs, past q = 2, to the limit of
        Stirling's formula at Gamma(1/2), and reaches it far beyond the
        point where erfc underflows."""
        w = np.array([1.0])
        # Gamma(a) over Stirling's sqrt(2 pi / a) (a / e)^a at a = 1/2
        limit = math.log(math.gamma(0.5)
                         / (math.sqrt(4.0 * math.pi) * math.sqrt(0.5 / math.e)))
        gaps = []
        for q in np.geomspace(1e-2, 1e8, 101):
            # log erfc(sqrt(q / 2)), finite where erfc underflows
            exact = math.log(2.0) + float(special.log_ndtr(-math.sqrt(q)))
            if q < 1400.0:
                assert exact == pytest.approx(math.log(math.erfc(math.sqrt(q / 2.0))),
                                              rel=1e-13)
            gaps.append((q, fairness._saddlepoint_log_sf(float(q), w) - exact))
        assert all(-0.025 < gap <= limit for _, gap in gaps)
        beyond = [gap for q, gap in gaps if q >= 2.0]
        assert beyond == sorted(beyond)
        assert gaps[-1][1] == pytest.approx(limit, abs=1e-3)


class TestMixtureTail:
    """The bulk of the spectral null's tail against independent
    references: the grid against Imhof's integral on scipy's adaptive
    quadrature, Ruben's series against Monte Carlo draws, and the
    hand-over to the saddlepoint.  q is on the scale of the law's mean."""

    @pytest.mark.parametrize("levels", [8, 31, 32, 64])
    def test_grid_matches_imhof_quadrature(self, levels):
        tail = _mixture_tail(levels, levels)
        assert tail._bulk_sf.func is fairness._grid_sf
        for q in np.linspace(0.3, 4.0, 38):
            want = imhof_sf(float(q), tail.weights)
            assert tail._bulk_sf(float(q)) == pytest.approx(want, rel=1e-6, abs=0.0), q

    @pytest.mark.parametrize("levels", [8, 31])
    def test_hand_over_to_the_saddlepoint(self, levels):
        """Just above p = 1e-3 the tail is the grid's, the quadrature's
        p within 1e-6; just below it it is the saddlepoint's, and so it
        is past x_hi, where the grid's sum aliases the law onto q (at
        3 x_hi it reads above 1/2).  At x_hi itself the tail lies below
        the grid's error bound."""
        tail = _mixture_tail(levels, levels)
        w, mean = tail.weights, tail.mean
        lo, hi = 1.0, tail.x_hi
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            if tail._bulk_sf(mid) >= fairness._BULK_MIN_P:
                lo = mid
            else:
                hi = mid
        above, below, past = 0.999 * lo, 1.001 * hi, 3.0 * tail.x_hi
        assert tail._bulk_sf(past) > 0.5
        assert math.exp(tail.log_sf(above * mean)) == pytest.approx(
            imhof_sf(above, w), rel=1e-6, abs=0.0)
        assert math.exp(tail.log_sf(above * mean)) > fairness._BULK_MIN_P
        for q in (below, past):
            assert tail.log_sf(q * mean) == pytest.approx(
                fairness._saddlepoint_log_sf(q, w), rel=1e-12), q
        assert math.exp(fairness._saddlepoint_log_sf(tail.x_hi, w)) < fairness._TAIL_EPS

    @pytest.mark.parametrize("levels_a,levels_b", [(2, 3), (3, 3), (2, 5), (3, 4)])
    def test_few_weights_match_monte_carlo(self, levels_a, levels_b):
        """Tables of discrete columns leave 2-6 null weights, whose
        integrand decays too slowly for a short grid: they take Ruben's
        series.  Against 4e6 draws of the mixture its p lies within 3
        standard errors at every q, where the saddlepoint that stood in
        was up to 4% low (0.4081 against 0.4216 on 2 x 3 levels at
        q = 0.8)."""
        tail = _mixture_tail(levels_a, levels_b)
        assert tail._bulk_sf.func is fairness._ruben_sf
        qs = np.array([0.5, 0.8, 1.5, 3.0])
        want, se = chi2_mixture_sf_monte_carlo(qs, tail.weights, 4_000_000,
                                               seed=10 * levels_a + levels_b)
        got = np.array([math.exp(tail.log_sf(q * tail.mean)) for q in qs])
        assert np.all(np.abs(got - want) <= 3.0 * se), (got, want, se)

    def test_law_past_both_bounds_takes_the_saddlepoint(self):
        """A binary column against one with 99% of its points on one
        level leaves two weights 400 times apart: the grid would need
        ~1e9 nodes and the series 4,104 terms, so neither is built and
        the saddlepoint gives the whole tail."""
        tail = fairness._spectral_law((50_000, 50_000), (99_000, 500, 500))[2]
        assert tail.weights.size == 2 and tail._bulk_sf is None
        for q in (0.5, 1.0, 3.0):
            assert tail.log_sf(q * tail.mean) == pytest.approx(
                fairness._saddlepoint_log_sf(q, tail.weights), rel=1e-12)


class TestCheckIndependence:
    def test_reference_model_violated(self, reference_model):
        ds = simulate(reference_model, 10**5, seed=41)
        v = check_independence(ds.x1, ds.d, TestConfig(seed=13))
        assert v.verdict == VIOLATED
        # 64 x 64 levels past Boyett's bound: the spectral null, whose
        # p-value is not held at or above the 1/1000 floor of 999
        # sampled tables
        assert v.p_value < 1.0 / 1000.0
        assert v.n_used == 10**5
        assert v.statistic == pytest.approx(0.089, abs=0.03)

    def test_zero_rho1_holds(self):
        ds = simulate(make_example_model(0.0, 0.9), 10**5, seed=42)
        v = check_independence(ds.x1, ds.d, TestConfig(seed=13))
        assert v.verdict == HOLDS
        assert v.p_value >= 0.01

    @pytest.mark.parametrize("seed", range(4))
    def test_binary_pair_takes_the_exact_one_df_tail(self, seed):
        """Two binary columns leave one null weight, p (1 - p) per side,
        and (n - 1) dCov^2 over it is (n - 1) r^2 for their correlation
        r: the p-value is the one-df chi-square tail of that."""
        rng = np.random.default_rng(seed)
        n = 1000
        a = (rng.random(n) < 0.3).astype(float)
        b = (rng.random(n) < 0.6 + 0.1 * a).astype(float)
        r = np.corrcoef(a, b)[0, 1]
        want = math.erfc(math.sqrt((n - 1) * r * r / 2.0))
        got = check_independence(a, b, FAST).p_value
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

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

    def test_scored_columns_give_the_same_verdict(self, reference_model):
        """Scored columns, with the ids they carry or as views without
        them, give the verdicts of the raw columns."""
        ds = simulate(reference_model, 5 * 10**4, seed=47)
        scored = [fairness.normal_scores(c) for c in (ds.x1, ds.d, ds.y)]
        for cols in (scored, [s[:] for s in scored]):
            assert check_independence(cols[0], cols[1], FAST) == \
                check_independence(ds.x1, ds.d, FAST)
            assert check_separation(*cols, FAST) == \
                check_separation(ds.x1, ds.d, ds.y, FAST)
            assert check_sufficiency(cols[2], cols[1], cols[0], FAST) == \
                check_sufficiency(ds.y, ds.d, ds.x1, FAST)

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
        cfg = TestConfig(n_permutations=99, seed=1)
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


class TestSpectralNull:
    @pytest.mark.parametrize("levels,cell_mean", [
        (8, 21.0), (32, 21.0), (64, 21.0), (32, 50.0), (32, 10_000 / 32**2)])
    def test_agrees_with_sampled_null(self, levels, cell_mean):
        """On independent pairs and on weak linear and quadratic
        dependence, from just past Boyett's bound up, the spectral
        p-value lies within 4 Monte Carlo standard errors of the mid-p
        over tables that scipy samples on the same margins."""
        n = int(cell_mean * levels**2)
        assert n > np.log(n + 1) * levels**2
        draws = 999
        rng = np.random.default_rng(levels + int(cell_mean))
        for rep in range(6):
            a = rng.normal(size=n)
            noise = rng.normal(size=n)
            effect = (rep // 2) * 1.5 / math.sqrt(n)
            b = noise + effect * (a if rep % 2 else (a * a - 1.0))
            sides = [fairness._quantile_level_ids(x, levels) for x in (a, b)]
            spec = fairness._table_test(*sides)[1]
            perm = sampled_table_mid_p(*sides, draws, seed=rep)
            # a sampled mid-p lies on the grid of half-steps 1 / (2 (B + 1))
            steps = 2.0 * (draws + 1) * perm
            assert abs(steps - round(steps)) < 1e-9, perm
            se = math.sqrt(max(perm * (1.0 - perm), 1.0 / draws) / draws)
            assert abs(spec - perm) <= 4.0 * se, (rep, spec, perm)

    @pytest.mark.parametrize("n", [500, 43_773, 43_774])
    def test_no_table_is_sampled_at_any_n(self, n):
        """A 500-point table on 31 x 31 levels, and 64 x 64 tables on
        either side of the bound below which a null used to be sampled,
        give one p whatever the test seed and the permutation count, and
        not one on the grid 1 / (B + 1) of B sampled tables."""
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(2, n))
        ps = {check_independence(a, b, TestConfig(n_permutations=perms, seed=seed)).p_value
              for seed in (1, 2) for perms in (99, 199)}
        assert len(ps) == 1
        (p,) = ps
        assert not any((p * (perms + 1)).is_integer() for perms in (99, 199))

    def test_per_table_p_is_uniform_on_sparse_tables(self):
        """Fisher's combination reads the whole distribution of the
        per-bin p, not only its 5% point: over 2,000 independent
        500-point tables on 31 x 31 levels (0.52 points per cell), the
        p-values pass a Kolmogorov-Smirnov test of uniformity, and the
        rejection rates at 0.05 and 0.01 lie within 3 standard errors."""
        rng = np.random.default_rng(31)
        tables = 2000
        ps = np.array([table_test(*rng.normal(size=(2, 500)), 31)[1]
                       for _ in range(tables)])
        assert sps.kstest(ps, "uniform").pvalue > 0.01
        for alpha in (0.05, 0.01):
            se = math.sqrt(alpha * (1.0 - alpha) / tables)
            assert abs(np.mean(ps < alpha) - alpha) <= 3.0 * se, alpha

    def test_tail_matches_chi_square(self):
        """Equal weights make the mixture a scaled chi-square; the tail
        stays finite far below the smallest double."""
        w = np.full(50, 0.3)
        for q in (5.0, 15.0, 25.0, 60.0, 150.0):
            want = sps.chi2.logsf(q / 0.3, 50)
            got = fairness._MixtureTail(w).log_sf(q)
            assert got == pytest.approx(want, rel=1e-3, abs=1e-6), q
        far = fairness._MixtureTail(w).log_sf(3000.0)
        assert math.isfinite(far) and far < math.log(5e-324)

    def test_reference_bins_keep_finite_log_p(self, reference_model,
                                              reference_dataset_cache):
        """A 50,000-point bin of the n=1e6 reference audit, and the
        n=1e6 independence table whose p underflows to 0.0, both give a
        finite log p that Fisher's combination takes."""
        ds = simulate(reference_model, 50_000, seed=3)
        _, _, log_bin = table_test(ds.x1, ds.d, 32)
        ds = reference_dataset_cache(1)
        _, p, log_full = table_test(ds.x1, ds.d, 64)
        assert p == 0.0
        assert math.isfinite(log_full) and log_full < math.log(5e-324)
        assert math.isfinite(log_bin) and log_bin < math.log(1e-3)
        stat, combined = fairness._fisher_from_logs(
            np.array([log_bin] * 19 + [log_full]))
        assert stat == pytest.approx(-2.0 * (19 * log_bin + log_full))
        assert combined == 0.0

    def test_separation_statistic_not_saturated(self, reference_dataset_cache):
        """At n=1e6 every sampled mid-p sat at its floor 0.5/(B + 1),
        which pinned separation's Fisher statistic at -40 log(0.5/(B + 1))
        for every data seed (239.66 for B = 199)."""
        cfg = TestConfig(n_permutations=199, seed=3)
        stats = [check_separation(ds.x1, ds.d, ds.y, cfg).statistic
                 for ds in map(reference_dataset_cache, (1, 2))]
        assert min(stats) > -40.0 * math.log(0.5 / 200.0)
        assert stats[0] != stats[1]


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
