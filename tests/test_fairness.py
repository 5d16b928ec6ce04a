"""Normal scores and bins, moment statistics and axiom checkers, held
against the brute-force references of the conditional checks, ranks and
quantile levels."""

import json
import math
import os
import subprocess
import sys
import textwrap
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from fairlens import (ConfigError, EmptyBin, LengthMismatch, NonFiniteInput,
                      TestConfig, TooFewSamples, check_independence,
                      check_separation, check_sufficiency, fairness,
                      harness, make_example_model, simulate)
from fairlens.fairness import HOLDS, INCONCLUSIVE, VIOLATED
from fairlens.harness import MAX_N
from fairlens.streams import normal_ppf

from brute_force import (conditional_check_reference, copula_ranks,
                         quantile_level_ids, residualize)

FAST = TestConfig(alpha=0.01, n_permutations=199, seed=5)


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
        # mistyped from Python, as --config refuses them
        {"n_permutations": 99.5}, {"n_permutations": 199.0},
        {"n_permutations": True}, {"alpha": "0.1"}, {"alpha": True},
        {"alpha": None},
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


def _order_inputs(kind, n):
    """Columns that stress a sort-based ranking: ties, signed zeros,
    subnormals and tie blocks across level starts."""
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
    # 65 values over 64 levels: most level starts fall inside a tie block
    return (rng.permutation(n) % 65).astype(np.float64)


ORDER_KINDS = ("distinct", "rounded", "small_integers", "constant",
               "signed_zeros", "subnormals", "on_edges")


def _assert_level_ids(pair, want):
    ids, counts = pair
    np.testing.assert_array_equal(ids, want)
    np.testing.assert_array_equal(
        counts, np.bincount(want, minlength=counts.shape[0]))


def prepared(x, binned=False):
    """x prepared alone, cut into the conditioning bins if binned."""
    return fairness._prepared((x,), (binned,))[0]


def audit_scored(x):
    """x scored as check_axioms scores a price: cut into the
    conditioning bins."""
    return prepared(x, True)


def _ids(rows, counts):
    """The level id of each row, in the column's own order, from the
    rows of the levels one after another and the level counts."""
    ids = np.empty(rows.shape[0], dtype=np.intp)
    ids[rows] = np.repeat(np.arange(counts.shape[0]), counts)
    return ids


def bin_ids(scores):
    """(ids, counts) of the bins a prepared column carries, the ids in
    the column's own order."""
    counts, rows = scores.bins
    return _ids(rows, counts), counts


def level_ids(x, levels):
    """(ids, counts) of x at `levels` quantile levels, by the cut that
    _prepared makes at N_BINS."""
    order = np.argsort(x)
    counts = fairness._level_counts(x[order], levels)
    return _ids(order, counts), counts


class TestOneSortPerColumn:
    """The sort-based scores and level ids equal their definitions:
    normal_ppf of scipy's average ranks over n + 1, and the levels that
    scipy's minimum ranks give (brute_force.quantile_level_ids)."""

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @pytest.mark.parametrize("n", [500, 50_000, 1_000_000])
    def test_matches_the_definitions(self, n, kind):
        x = _order_inputs(kind, n)
        scores = audit_scored(x)
        want_scores = normal_ppf(copula_ranks(x))
        assert scores.tobytes() == want_scores.tobytes()
        # the conditioning bins the scores carry are cut on the raw
        # values, and must equal a cut of the scores
        _assert_level_ids(bin_ids(scores),
                          quantile_level_ids(want_scores, fairness.N_BINS))
        for levels in (64, 32, fairness.N_BINS):
            _assert_level_ids(level_ids(x, levels), quantile_level_ids(x, levels))

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @pytest.mark.parametrize("n", [500, 50_000])
    def test_rows_ascend_within_each_bin(self, n, kind):
        """Every per-bin sum depends on the order of the bin's rows: the
        rows a column carries are those of bin 0, then bin 1, and so on,
        each bin's in ascending order, the order a mask selects them in."""
        x = _order_inputs(kind, n)
        _, rows = audit_scored(x).bins
        ids = quantile_level_ids(x, fairness.N_BINS)
        want = np.concatenate([np.flatnonzero(ids == k) for k in range(ids.max() + 1)])
        np.testing.assert_array_equal(rows, want)

    def test_scores_are_read_only_and_views_carry_no_ids(self):
        scores = audit_scored(_order_inputs("distinct", 500))
        assert not scores.flags.writeable
        with pytest.raises(ValueError):
            scores[0] = 0.0
        assert scores.prepared and scores.bins is not None
        unbinned = prepared(_order_inputs("distinct", 500))
        assert unbinned.prepared and unbinned.bins is None
        for view in (scores[:], scores[::-1], scores.copy()):
            assert isinstance(view, fairness.NormalScores)
            assert not view.prepared and view.bins is None

    def test_inputs_reach_the_cases_they_name(self):
        n = 50_000
        zeros = _order_inputs("signed_zeros", n)
        signs = np.signbit(zeros[zeros == 0.0])
        assert signs.any() and not signs.all()
        sub = _order_inputs("subnormals", n)
        assert (np.abs(sub[sub != 0.0]) < np.finfo(np.float64).tiny).all()
        xs = np.sort(_order_inputs("on_edges", n))
        starts = [-(-(n - 1) * j // 64) for j in range(1, 64)]
        inside = sum(xs[s - 1] == xs[s] for s in starts)
        assert inside > 32

    @pytest.mark.parametrize("n,levels", [(6, 5), (1001, 20), (10_001, 20)])
    def test_distinct_columns_get_equal_counts(self, n, levels):
        """Where (n - 1) j / levels is an integer, a float index of it may
        round up past that position; the integer starts do not, so
        distinct values fill the levels within one point of each other."""
        x = np.random.default_rng(n).permutation(n).astype(np.float64)
        ids, counts = level_ids(x, levels)
        assert counts.shape[0] == levels
        assert counts.max() - counts.min() <= 1
        np.testing.assert_array_equal(ids, quantile_level_ids(x, levels))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=400),
           st.integers(2, 70))
    def test_no_level_is_empty_on_tied_columns(self, values, levels):
        """Tie blocks merge levels but never leave one empty: every
        count is positive, the counts sum to n and the ids hold them.
        A constant column is one level."""
        x = np.array(values, dtype=np.float64)
        ids, counts = level_ids(x, levels)
        assert (counts > 0).all()
        assert counts.sum() == x.shape[0]
        np.testing.assert_array_equal(np.bincount(ids), counts)
        np.testing.assert_array_equal(ids, quantile_level_ids(x, levels))
        if (x == x[0]).all():
            assert counts.tolist() == [x.shape[0]]


# level counts whose probabilities j / L are binary fractions, so that
# np.quantile's float index ceil((n - 1) j / L) is exact
EXACT_LEVELS = (64, 32, 4)


def level_start_values(xs, n_levels):
    """The values of the sorted column xs where its inner levels start,
    read off by index before ties move the starts back."""
    return xs[fairness._level_starts(xs.shape[0], n_levels)]


def higher_quantiles(xs, n_levels):
    """np.quantile at j / n_levels by its "higher" method, the order
    statistic at ceil((n - 1) j / n_levels)."""
    return np.quantile(xs, np.arange(1, n_levels) / n_levels, method="higher")


class TestQuantileByIndex:
    """The level starts read np.quantile's "higher" values off a sorted
    column by index, byte for byte, at power-of-two level counts, where
    numpy's float index is exact."""

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 500, 50_000, 1_000_000])
    def test_matches_np_quantile(self, n, kind):
        xs = np.sort(_order_inputs(kind, n))
        for levels in EXACT_LEVELS:
            got = level_start_values(xs, levels)
            want = higher_quantiles(xs, levels)
            if kind == "signed_zeros":
                # np.quantile partitions its copy of the column first,
                # which may swap an equal -0.0 and 0.0: only the sign of
                # a zero may differ, and no cut or id depends on it
                np.testing.assert_array_equal(got, want)
                got, want = got + 0.0, want + 0.0
            assert got.tobytes() == want.tobytes(), levels

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=300),
           st.integers(1, 6))
    def test_matches_np_quantile_on_drawn_columns(self, values, log2_levels):
        # + 0.0 makes every zero positive, so the bytes are defined
        xs = np.sort(np.array(values) + 0.0)
        levels = 1 << log2_levels
        got = level_start_values(xs, levels)
        assert got.tobytes() == higher_quantiles(xs, levels).tobytes()


class TestScoresKeepTheirOrder:
    """_scored cuts the bins on the raw values, and they must
    equal a cut of the scores, so normal_ppf of the sorted ranks must
    keep their order and ties.  Ranks over n + 1 lie on the grid
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
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     pytest.param(1 + 2j, id="complex"),
                                     pytest.param("1.5", id="strings"),
                                     pytest.param([[1.0, 2.0], [3.0]], id="ragged"),
                                     pytest.param((2500, 2), id="two-columns")])
    @pytest.mark.parametrize("check", [
        lambda a, b, c: check_independence(a, b, FAST),
        lambda a, b, c: check_separation(a, b, c, FAST),
        lambda a, b, c: check_sufficiency(a, b, c, FAST),
        lambda a, b, c: fairness.check_axioms(a, b, c, FAST),
    ], ids=["independence", "separation", "sufficiency", "check_axioms"])
    def test_rejected(self, check, bad):
        """One value that is not finite, a column that is not real
        numbers, even where each value converts to a float, a column
        whose rows differ in length, or two columns of 2,500 values
        that would flatten to one of 5,000."""
        rng = np.random.default_rng(9)
        a, b, c = rng.normal(size=(3, 5000))
        if isinstance(bad, float):
            a[1234] = bad
        elif isinstance(bad, list):
            a = bad + [0.0] * 4998
        elif isinstance(bad, tuple):
            a = rng.normal(size=bad)
        else:
            a = np.full(5000, bad)
        with pytest.raises(NonFiniteInput):
            check(a, b, c)

    @pytest.mark.parametrize("shape", [(5000, 1), (1, 5000)])
    def test_one_column_of_any_orientation_is_accepted(self, shape):
        """A column with one axis longer than 1 is read as that axis."""
        a, b, c = np.random.default_rng(9).normal(size=(3, 5000))
        want = fairness.check_axioms(a, b, c, FAST)
        assert fairness.check_axioms(a.reshape(shape), b, c, FAST) == want


class TestValidateOnce:
    def test_audit_checks_each_full_column_once(self, monkeypatch):
        """An untraced audit at n = 5e5 checks the finiteness of its
        three columns once, in check_axioms; the checkers pass the
        prepared columns through."""
        n = 500_000
        full = []
        isfinite = np.isfinite

        def counting(a, *args, **kwargs):
            if np.shape(a) == (n,):
                full.append(np.shape(a))
            return isfinite(a, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        harness.cmd_audit(harness.RunConfig(rho1=0.1, rho2=0.9, n=n, seed=5,
                                            test=TestConfig(seed=5)))
        assert len(full) == 3

    def test_a_cast_column_is_validated(self):
        """A NaN column cast to NormalScores is not prepared, so it is
        validated like a raw one."""
        bad = np.full(5000, np.nan).view(fairness.NormalScores)
        b, c = np.random.default_rng(9).normal(size=(2, 5000))
        for check in (lambda: check_independence(bad, b, FAST),
                      lambda: check_separation(bad, b, c, FAST),
                      lambda: fairness.check_axioms(bad, b, c, FAST)):
            with pytest.raises(NonFiniteInput):
                check()

    def test_a_view_of_a_scored_column_is_scored_again(self):
        """A view is not prepared; scoring it again gives the raw
        column's scores and bins bit for bit, because the scores keep
        the raw values' order and ties."""
        for x in (np.random.default_rng(11).normal(size=5000),
                  np.round(np.random.default_rng(12).normal(size=5000), 1)):
            raw = audit_scored(x)
            again = audit_scored(raw[:])
            assert again is not raw
            assert again.tobytes() == raw.tobytes()
            for got, want in zip(again.bins, raw.bins):
                assert got.tobytes() == want.tobytes()


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
    """Every p-value is a closed-form normal or chi-square tail on
    numpy and math, so no check loads a scipy module, whatever its
    p-values."""

    def test_import_and_a_sampled_check_load_no_scipy(self):
        """Importing fairlens and running a 500-point independence
        check, whose p is the closed-form erfc tail."""
        assert _scipy_modules_after("""
            import fairlens
            from fairlens import fairness, model
            ds = model.simulate(model.make_example_model(0.1, 0.9), 500, 0)
            fairness.check_independence(ds.x1, ds.d,
                                        fairness.TestConfig(n_permutations=99))
            """) == []

    def test_audit_above_the_floor_loads_no_scipy(self):
        """An audit whose p-values lie far below 1e-3."""
        assert _scipy_modules_after("""
            from fairlens import RunConfig, TestConfig, cmd_audit
            cmd_audit(RunConfig(rho1=0.1, rho2=0.9, n=500_000, seed=5,
                                test=TestConfig(seed=5)))
            """) == []

    def test_null_price_audit_loads_no_scipy_stats(self):
        """A constant price collapses sufficiency's 20 bins into one
        bin of 20,000 points."""
        loaded = _scipy_modules_after("""
            from fairlens import RunConfig, TestConfig, cmd_audit
            cmd_audit(RunConfig(rho1=-0.3, rho2=0.0, n=20_000, seed=42,
                                functional="null",
                                test=TestConfig(n_permutations=199, seed=3)))
            """)
        assert loaded == [], f"scipy modules loaded: {loaded}"

    def test_mid_n_audit_loads_no_scipy_stats(self):
        """At n = 2e5 the conditional bins hold 10,000 points."""
        loaded = _scipy_modules_after("""
            from fairlens import RunConfig, TestConfig, cmd_audit
            cmd_audit(RunConfig(rho1=0.1, rho2=0.9, n=200_000, seed=11,
                                test=TestConfig(n_permutations=199, seed=3)))
            """)
        assert loaded == [], f"scipy modules loaded: {loaded}"

    def test_audit_that_holds_loads_no_scipy(self):
        """A (0, 0) audit at n = 2e5, every verdict HOLDS."""
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
        """500-point bins, scored from raw columns."""
        assert _scipy_modules_after("""
            from fairlens import fairness, model
            ds = model.simulate(model.make_example_model(0.1, 0.9), 10_000, 0)
            fairness.check_separation(ds.x1, ds.d, ds.y,
                                      fairness.TestConfig(n_permutations=99))
            """) == []


class TestResidualsDoNotDependOnTheBlasKernel:
    def test_same_bytes_under_the_sandybridge_kernel(self):
        """The normal scores of 50,000-point columns, detrended in place
        by _detrend, hash the same with the host's OpenBLAS kernel and
        with SandyBridge's, whose dot products round differently."""
        script = """
            import hashlib
            import numpy as np
            from fairlens import fairness, model
            digest = hashlib.sha256()
            for seed in range(3):
                ds = model.simulate(model.make_example_model(0.1, 0.9), 50_000, seed)
                a, b, g = (np.array(c) for c in
                           fairness._prepared((ds.x1, ds.d, ds.y), (False,) * 3))
                fairness._detrend(g, a, b)
                digest.update(a.tobytes() + b.tobytes())
            print(digest.hexdigest())
            """
        assert (_fresh_stdout(script, OPENBLAS_CORETYPE=None)
                == _fresh_stdout(script, OPENBLAS_CORETYPE="SandyBridge"))


class TestTailKernels:
    """The closed-form tails the checkers take: independence's squared
    z, q = (n - 1) r^2, has the chi-square tail with 1 df,
    erfc(sqrt(q / 2)), and a conditional check's q = z1^2 + z2^2 the
    tail with 2 df, exp(-q / 2).  Both are held against scipy's
    chi-square law from the bulk down to p near 1e-300."""

    def test_one_weight_takes_the_exact_tail(self):
        """Over effects from none to p near 1e-304, the independence p
        is the one-df tail of q = (n - 1) r^2 within 1e-12 relative:
        the rounding of q moves p by at most q / 2 ulps of q."""
        rng = np.random.default_rng(7)
        n = 10_000
        deepest = 1.0
        for effect in np.linspace(0.0, 0.4, 41):
            a, b = rng.normal(size=(2, n))
            v = check_independence(a, b + effect * a, FAST)
            want = float(sps.chi2.sf((n - 1) * v.statistic ** 2, 1))
            assert v.p_value == pytest.approx(want, rel=1e-12, abs=0.0), effect
            deepest = min(deepest, want)
        assert 0.0 < deepest < 1e-250

    def test_fisher_tail_edges(self):
        """A conditional check's p is exactly exp(-statistic / 2): 1.0
        where the statistic is 0 (a constant tested column), the 2-df
        chi-square tail in between, and 0.0 past the smallest double."""
        rng = np.random.default_rng(8)
        a, y = rng.normal(size=(2, 10_000))
        v = check_separation(np.zeros(10_000), a, y, FAST)
        assert v.statistic == 0.0 and v.p_value == 1.0
        for effect in np.linspace(0.01, 0.3, 30):
            b = rng.normal(size=10_000) + effect * a
            v = check_separation(a, b, y, FAST)
            assert v.p_value == math.exp(-0.5 * v.statistic)
            want = float(sps.chi2.sf(v.statistic, 2))
            assert v.p_value == pytest.approx(want, rel=1e-12, abs=0.0), effect
        v = check_separation(a, a + 0.1 * rng.normal(size=10_000), y, FAST)
        assert v.statistic > -2.0 * math.log(5e-324)
        assert v.p_value == 0.0


class TestCheckIndependence:
    def test_reference_model_violated(self, reference_model):
        ds = simulate(reference_model, 10**5, seed=41)
        v = check_independence(ds.x1, ds.d, TestConfig(seed=13))
        assert v.verdict == VIOLATED
        assert v.p_value < 1.0 / 1000.0
        assert v.n_used == 10**5
        # the normal-score correlation of a Gaussian pair is its rho1
        assert v.statistic == pytest.approx(0.1, abs=0.01)

    def test_zero_rho1_holds(self):
        ds = simulate(make_example_model(0.0, 0.9), 10**5, seed=42)
        v = check_independence(ds.x1, ds.d, TestConfig(seed=13))
        assert v.verdict == HOLDS
        assert v.p_value >= 0.01

    @pytest.mark.parametrize("seed", range(4))
    def test_binary_pair_takes_the_exact_one_df_tail(self, seed):
        """The normal scores of a binary column are an increasing affine
        map of it, so their correlation is the binary columns' own r and
        the p-value is the one-df chi-square tail of (n - 1) r^2, taken
        here from numpy's Pearson r."""
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
        """At (0.1, 0) Y is independent of D given the price, a null the
        test must keep at its level: at most 2 of the 20 panel seeds
        reject.  (The single seed 45 once checked here reads p = 0.0031,
        a draw that a test at level 0.01 makes about once in 300.)"""
        assert _panel_rejections("sufficiency", 0.1, 0.0) <= 2

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
        scored = [audit_scored(c) for c in (ds.x1, ds.d, ds.y)]
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


class TestCheckAxioms:
    def test_gives_the_three_checkers_verdicts(self, reference_model):
        ds = simulate(reference_model, 5 * 10**4, seed=47)
        assert fairness.check_axioms(ds.x1, ds.d, ds.y, FAST) == (
            check_independence(ds.x1, ds.d, FAST),
            check_separation(ds.x1, ds.d, ds.y, FAST),
            check_sufficiency(ds.y, ds.d, ds.x1, FAST))

    def _inconclusive(self, kind, n):
        return fairness.FairnessVerdict(
            axiom=fairness.Axiom(kind), statistic=0.0, p_value=None,
            analytic_criterion=None, verdict=INCONCLUSIVE, alpha=FAST.alpha,
            n_used=n, seed=FAST.seed)

    @pytest.mark.parametrize("n", [0, 1, 99, 1999])
    def test_too_few_samples_read_inconclusive(self, n):
        """Below 100 points no check runs; below 2,000 independence runs
        and the conditional checks read INCONCLUSIVE."""
        a, b, c = np.random.default_rng(n).normal(size=(3, n))
        verdicts = fairness.check_axioms(a, b, c, FAST)
        want = [self._inconclusive(kind, n) for kind in fairness.AXIOM_KINDS]
        if n >= 100:
            want[0] = check_independence(a, b, FAST)
        assert verdicts == tuple(want)

    def test_empty_bin_reads_inconclusive(self):
        """The heavy ties of test_empty_bin_on_heavy_ties as y: only
        separation, which conditions on y, cannot run."""
        rng = np.random.default_rng(9)
        y = np.concatenate([np.zeros(1900), rng.uniform(-2.0, -1.0, size=25),
                            rng.uniform(1.0, 2.0, size=75)])
        prices, d = rng.normal(size=(2, y.size))
        assert fairness.check_axioms(prices, d, y, FAST) == (
            check_independence(prices, d, FAST),
            self._inconclusive(fairness.SEPARATION, y.size),
            check_sufficiency(y, d, prices, FAST))

    @staticmethod
    def _portfolio(case):
        """(prices, d, y) at n = 2e5, past _CACHED_SCORES_MAX_N, so the
        untied columns share check_axioms' one score vector."""
        n = 2 * 10**5
        ds = simulate(make_example_model(0.1, 0.9), n, seed=61)
        if case == "constant-price":
            return np.zeros(n), ds.d, ds.y
        if case == "rounded":
            return tuple(np.round(c, 1) for c in (ds.x1, ds.d, ds.y))
        if case == "empty-bin":
            # separation, the worker's check, conditions on a y whose
            # lowest bin holds 25 points and raises EmptyBin
            rng = np.random.default_rng(62)
            y = np.concatenate([np.zeros(n - 100), rng.uniform(-2.0, -1.0, size=25),
                                rng.uniform(1.0, 2.0, size=75)])
            return ds.x1, ds.d, y
        return ds.x1, ds.d, ds.y

    @pytest.mark.parametrize("case", ["reference", "constant-price", "rounded",
                                      "empty-bin"])
    def test_equals_three_calls_in_a_row_bit_for_bit(self, case):
        """Separation on the worker thread, the shared untied vector and
        the caller's bin rows leave every statistic and p-value equal,
        by float.hex, to three direct calls on the raw columns; the
        shared vector enters no cache."""
        prices, d, y = self._portfolio(case)

        def direct(kind, check, *cols):
            try:
                return check(*cols, FAST)
            except (TooFewSamples, EmptyBin):
                return self._inconclusive(kind, y.size)

        want = (direct(fairness.INDEPENDENCE, check_independence, prices, d),
                direct(fairness.SEPARATION, check_separation, prices, d, y),
                direct(fairness.SUFFICIENCY, check_sufficiency, y, d, prices))
        def bits(verdicts):
            return [(v.statistic.hex(), v.p_value if v.p_value is None else v.p_value.hex())
                    for v in verdicts]

        fairness._untied_scores.cache_clear()
        got = fairness.check_axioms(prices, d, y, FAST)
        assert fairness._untied_scores.cache_info().currsize == 0
        assert got == want
        assert bits(got) == bits(want)
        if case == "empty-bin":
            assert got[1].verdict == INCONCLUSIVE

    def test_p_values_ignore_the_test_seed_and_permutation_count(self):
        """Nothing is drawn, so each check gives one p whatever the test
        seed and the permutation count that TestConfig records."""
        cols = np.random.default_rng(12).normal(size=(3, 5000))
        ps = {tuple(v.p_value for v in fairness.check_axioms(
                  *cols, TestConfig(n_permutations=perms, seed=seed)))
              for seed in (1, 2) for perms in (99, 199)}
        assert len(ps) == 1

    @pytest.mark.parametrize("name", ["check_separation", "check_sufficiency"])
    def test_other_errors_propagate_and_no_thread_outlives_the_call(
            self, monkeypatch, name):
        """An error other than TooFewSamples or EmptyBin, raised on the
        worker (separation) or on the calling thread (sufficiency),
        reaches the caller, and the worker has ended by then."""
        def broken(*args):
            raise RuntimeError(name)

        monkeypatch.setattr(fairness, name, broken)
        prices, d, y = np.random.default_rng(63).normal(size=(3, 5000))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=name):
            fairness.check_axioms(prices, d, y, FAST)
        assert threading.active_count() == before

    def test_concurrent_audits_agree_with_one_at_a_time(self):
        """Four audits at once, each with its worker, on a short switch
        interval: the threads share the untied score cache, and every
        audit still gives the verdicts of a lone run."""
        cols = [np.random.default_rng(70 + k).normal(size=(3, 4000)) for k in range(4)]
        want = [fairness.check_axioms(*c, FAST) for c in cols]
        got = [None] * len(cols)

        def audit(k):
            got[k] = fairness.check_axioms(*cols[k], FAST)

        threads = [threading.Thread(target=audit, args=(k,)) for k in range(len(cols))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want


def _assert_matches_the_reference(check, cols):
    """check (check_separation or _sufficiency) on cols, tested column
    first and conditioning column last, gives the reference's statistic
    and p within 1e-9 relative, or raises where the reference raises.
    The reference takes the mean and sd of the pooled products in two
    passes over whole columns, where the check sums each bin's products
    and their squares once, so the last digits may differ."""
    try:
        want_stat, want_p = conditional_check_reference(*cols)
    except EmptyBin:
        with pytest.raises(EmptyBin):
            check(*cols, FAST)
        return
    v = check(*cols, FAST)
    assert v.statistic == pytest.approx(want_stat, rel=1e-9, abs=1e-12)
    assert v.p_value == pytest.approx(want_p, rel=1e-9, abs=1e-300)


class TestConditionalChecksMatchTheReferenceLoop:
    """The checks score raw columns, cut only the conditioning bins and
    detrend each bin once; the statistic by its definition
    (brute_force.conditional_check_reference) agrees, for raw and for
    scored columns."""

    @pytest.mark.parametrize("n", [10_000, 10_001])
    @pytest.mark.parametrize("rhos", [(0.0, 0.0), (0.1, 0.9)])
    def test_raw_and_scored_columns(self, n, rhos):
        """n = 1e4 cuts 20 bins of 500 points; n = 10,001 one of 501."""
        ds = simulate(make_example_model(*rhos), n, seed=n % 7)
        raw = (ds.x1, ds.d, ds.y)
        scored = [audit_scored(c) for c in raw]
        if n == 10_001:
            assert sorted(set(scored[2].bins[0].tolist())) == [500, 501]
        for cols in (raw, scored, (scored[0], raw[1], raw[2])):
            _assert_matches_the_reference(check_separation, cols)
            _assert_matches_the_reference(check_sufficiency,
                                          (cols[2], cols[1], cols[0]))

    def test_detrend_keeps_the_residual_bytes(self):
        """The statistic reads the residuals themselves, so their bytes
        are compared: _detrend, sharing the centered scores, gives
        brute_force.residualize's bytes in every bin of a 1e5-point
        dataset, tied and untied."""
        ds = simulate(make_example_model(0.1, 0.9), 100_000, seed=4)
        for cols in ((ds.x1, ds.d, ds.y), [np.round(c, 1) for c in (ds.x1, ds.d, ds.y)]):
            a, b, g = (np.asarray(prepared(c)) for c in cols)
            ids, counts = bin_ids(audit_scored(cols[2]))
            for k in range(counts.shape[0]):
                rows = ids == k
                ak, bk = a[rows], b[rows]
                fairness._detrend(g[rows], ak, bk)
                assert ak.tobytes() == residualize(a[rows], g[rows]).tobytes()
                assert bk.tobytes() == residualize(b[rows], g[rows]).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), decimals=st.sampled_from([0, 1, 2]),
           n=st.sampled_from([2000, 4000]))
    def test_tie_heavy_rounded_columns(self, seed, decimals, n):
        ds = simulate(make_example_model(0.3, 0.5), n, seed)
        cols = [np.round(c, decimals) for c in (ds.x1, ds.d, ds.y)]
        _assert_matches_the_reference(check_separation, cols)
        _assert_matches_the_reference(check_sufficiency, cols[::-1])

    def test_bin_of_constant_conditioning_scores(self):
        """The middle 1,600 of 4,000 conditioning values are tied and fill
        one bin, from the cut at 1,200 to the cut at 2,800.  Their mean
        rank is (n + 1) / 2, so their scores are exactly 0: the bin's sum
        of squares is 0, and the tested columns enter it undetrended."""
        rng = np.random.default_rng(12)
        given = rng.permutation(np.concatenate(
            [-1.0 - rng.random(1200), np.zeros(1600), 1.0 + rng.random(1200)]))
        a = rng.normal(size=4000) + given
        b = rng.normal(size=4000)
        g = audit_scored(given)
        ids, counts = bin_ids(g)
        assert 1600 in counts.tolist()
        assert np.all(np.asarray(g)[ids == counts.tolist().index(1600)] == 0.0)
        _assert_matches_the_reference(check_separation, (a, b, given))
        _assert_matches_the_reference(check_separation,
                                      [audit_scored(c) for c in (a, b, given)])


class TestScoresCacheAndCuts:
    def test_cached_vector_is_normal_ppf_of_the_ranks(self):
        n = 10_000
        cached = fairness._untied_scores(n)
        want = normal_ppf(np.arange(1.0, n + 1.0) / (n + 1.0))
        assert cached.tobytes() == want.tobytes()
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0.0

    def test_untied_column_scores_come_from_the_cache(self):
        x = np.random.default_rng(13).normal(size=3001)
        fairness._untied_scores.cache_clear()
        scores = prepared(x)
        assert fairness._untied_scores.cache_info().currsize == 1
        assert np.asarray(scores).tobytes() == normal_ppf(copula_ranks(x)).tobytes()

    def test_tied_columns_bypass_the_cache(self):
        x = np.round(np.random.default_rng(14).normal(size=3001), 1)
        fairness._untied_scores.cache_clear()
        scores = prepared(x)
        assert fairness._untied_scores.cache_info().currsize == 0
        assert np.asarray(scores).tobytes() == normal_ppf(copula_ranks(x)).tobytes()

    def test_long_column_adds_no_entry(self):
        n = 500_000
        assert n > fairness._CACHED_SCORES_MAX_N
        fairness._untied_scores.cache_clear()
        prepared(np.arange(n, 0, -1.0))
        assert fairness._untied_scores.cache_info().currsize == 0

    def test_raw_conditional_check_cuts_one_pair_outside_its_bins(self, monkeypatch):
        """Of the three raw columns, the check cuts only the conditioning
        one into bins, and nothing inside the bins."""
        ds = simulate(make_example_model(0.1, 0.9), 10_000, seed=3)
        lengths = []
        original = fairness._level_counts

        def counting(xs, n_levels):
            lengths.append(xs.shape[0])
            return original(xs, n_levels)

        monkeypatch.setattr(fairness, "_level_counts", counting)
        check_separation(ds.x1, ds.d, ds.y, FAST)
        assert lengths == [10_000]


class TestSpectralNull:
    """Each check's p is a closed-form tail of its statistic: a
    function of the data alone, uniform under the null, and for a
    conditional check the tail of a chi-square statistic with 2 df.
    The ids keep the names of the level-table tests these replace."""

    @pytest.mark.parametrize("n", [500, 43_773, 43_774])
    def test_no_table_is_sampled_at_any_n(self, n):
        """A 500-point pair and 43,773- and 43,774-point pairs each give
        one p whatever the test seed and the permutation count, and not
        one on the grid 1 / (B + 1) a null of B permutations would
        give."""
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(2, n))
        ps = {check_independence(a, b, TestConfig(n_permutations=perms, seed=seed)).p_value
              for seed in (1, 2) for perms in (99, 199)}
        assert len(ps) == 1
        (p,) = ps
        assert not any((p * (perms + 1)).is_integer() for perms in (99, 199))

    def test_per_table_p_is_uniform_on_sparse_tables(self):
        """Over 2,000 independent 500-point pairs, the independence
        p-values pass a Kolmogorov-Smirnov test of uniformity, and the
        rejection rates at 0.05 and 0.01 lie within 3 standard errors."""
        rng = np.random.default_rng(31)
        pairs = 2000
        ps = np.array([check_independence(*rng.normal(size=(2, 500)), FAST).p_value
                       for _ in range(pairs)])
        assert sps.kstest(ps, "uniform").pvalue > 0.01
        for alpha in (0.05, 0.01):
            se = math.sqrt(alpha * (1.0 - alpha) / pairs)
            assert abs(np.mean(ps < alpha) - alpha) <= 3.0 * se, alpha

    def test_tail_matches_chi_square(self):
        """Over 1,000 independent 10,000-point triples, the separation
        statistic z1^2 + z2^2 passes a Kolmogorov-Smirnov test against
        the chi-square law with 2 df, and its rejection rates at 0.05
        and 0.01 lie within 3 standard errors."""
        rng = np.random.default_rng(21)
        draws = 1000
        stats = np.array([check_separation(*rng.normal(size=(3, 10_000)), FAST).statistic
                          for _ in range(draws)])
        assert sps.kstest(stats, sps.chi2(2).cdf).pvalue > 0.01
        for alpha in (0.05, 0.01):
            se = math.sqrt(alpha * (1.0 - alpha) / draws)
            rate = np.mean(stats > sps.chi2.isf(alpha, 2))
            assert abs(rate - alpha) <= 3.0 * se, alpha

    def test_separation_statistic_not_saturated(self, reference_dataset_cache):
        """At n=1e6 every sampled mid-p once sat at its floor 0.5/(B + 1),
        which pinned separation's statistic at -40 log(0.5/(B + 1)) for
        every data seed (239.66 for B = 199).  The moment statistic
        exceeds that floor and moves with the data."""
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


def _panel_rejections(check, rho1, rho2):
    """How many of the 20 golden-panel seeds of the x1 price read
    VIOLATED at n = 2e5 and alpha = 0.01."""
    from conftest import PANEL_SEEDS
    cfg = TestConfig(alpha=0.01)
    portfolio = make_example_model(rho1, rho2)
    rejected = 0
    for seed in PANEL_SEEDS:
        ds = simulate(portfolio, 200_000, seed=seed)
        v = (check_sufficiency(ds.y, ds.d, ds.x1, cfg) if check == "sufficiency"
             else check_separation(ds.x1, ds.d, ds.y, cfg))
        rejected += v.verdict == VIOLATED
    return rejected


# (check, rho1, rho2): pairs whose analytic verdict is VIOLATED, with
# effects between criteria 3-6's paper pairs and zero
POWER_CELLS = [
    pytest.param("sufficiency", 0.3, 0.3),
    pytest.param("sufficiency", 0.0, 0.3),
    pytest.param("separation", 0.0, 0.3),
    pytest.param("separation", 0.01, 0.0, marks=pytest.mark.xfail(strict=True, reason=(
        "rho1 = 0.01 moves Cov(price, D | Y) alone, and the check rejects "
        "on 14 of 20 seeds at n = 2e5: the chi-square test with 2 df spreads "
        "its power onto z2, which carries nothing here. ROADMAP item 4's "
        "floor on the detectable effect decides what this cell should read"))),
]

# (check, rho1, rho2): pairs whose analytic verdict is HOLDS, among them
# sufficiency's non-trivial null, where the conditional moments that 20
# finite-width bins leave could bias the statistic
NULL_CELLS = [("sufficiency", 0.6, 0.0), ("separation", 0.0, 0.0),
              ("sufficiency", 0.0, 0.0)]


class TestPowerPanel:
    @pytest.mark.parametrize("check,rho1,rho2", POWER_CELLS)
    def test_violation_found_at_moderate_n(self, check, rho1, rho2):
        """At n = 2e5 and alpha = 0.01 each check reads VIOLATED on at
        least 16 of the 20 golden-panel seeds of the x1 price."""
        assert _panel_rejections(check, rho1, rho2) >= 16

    @pytest.mark.parametrize("check,rho1,rho2", NULL_CELLS)
    def test_null_rejected_on_at_most_two_seeds(self, check, rho1, rho2):
        """On the same panel, a check whose axiom holds rejects on at
        most 2 of the 20 seeds; P(3 or more) is 0.001 at alpha = 0.01."""
        assert _panel_rejections(check, rho1, rho2) <= 2


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

    def test_unknown_axiom_kind_refused(self, reference_model):
        ds = simulate(reference_model, 10**4, seed=50)
        raw = check_independence(ds.x1, ds.d, FAST).to_dict()
        assert fairness.FairnessVerdict.from_dict(raw).axiom.kind == "independence"
        with pytest.raises(ValueError, match="unknown axiom kind 'parity'"):
            fairness.FairnessVerdict.from_dict({**raw, "axiom": "parity"})


class TestStatisticalVerdict:
    """_statistical_verdict is where every check's p becomes a verdict."""

    GUARD = fairness.POWER_GUARD_N

    @pytest.mark.parametrize("p,n,want", [
        (0.0, 100, VIOLATED),
        (0.0099, GUARD - 1, VIOLATED),
        (0.01, GUARD, HOLDS),
        (0.01, GUARD - 1, INCONCLUSIVE),
        (0.5, 10**7, HOLDS),
        (None, GUARD, INCONCLUSIVE),
        (None, 0, INCONCLUSIVE),
    ])
    def test_rule(self, p, n, want):
        """VIOLATED below alpha at any n, HOLDS from alpha up on at
        least POWER_GUARD_N observations, INCONCLUSIVE otherwise and for
        a check that could not run."""
        v = fairness._statistical_verdict(fairness.SEPARATION, 1.5, p, n, FAST)
        assert v == fairness.FairnessVerdict(
            axiom=fairness.Axiom(fairness.SEPARATION), statistic=1.5, p_value=p,
            analytic_criterion=None, verdict=want, alpha=FAST.alpha, n_used=n,
            seed=FAST.seed, source="statistical")
