"""Acceptance suite: one test per criterion, one pass line per criterion.

Every tolerance is fixed here, not tuned at runtime.  Monte Carlo
checks run on frozen seeds so the suite is deterministic; the seeds
were chosen once, up front, and the statistical margins (3 standard
errors and wider) leave them far from the tolerance edges.
"""

import json
import time

import numpy as np
import pytest

from fairlens import (RunConfig, TestConfig, check_independence,
                      check_separation, check_sufficiency, cmd_audit,
                      make_example_model, simulate, x1_given_y0_x2_d0)
from fairlens.fairness import HOLDS, VIOLATED
from fairlens.harness import (cmd_reproduce_separation, cmd_table,
                              determinism_digest, report_json_bytes,
                              report_to_dict)
from fairlens.model import PRICE_IS_X1
from fairlens.oracles import (second_moment_x1_given_y0_d0_mc,
                              second_moment_x1_given_y0_d0_quad)

from brute_force import (condition, grid_moments, slice_rejection_moments,
                         var_y_given_price_and_d)
from conftest import (PANEL_SEEDS, native_draws_fn, response_log_density,
                      trivariate_log_density, verdict_for)


def announce(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


def test_criterion_01_monte_carlo_moment_reproduction():
    """n=1e7 reproduces 0.520 and 0.604 within 0.010 with strict ordering."""
    t0 = time.perf_counter()
    frag = cmd_reproduce_separation(10**7, seed=1)
    elapsed = time.perf_counter() - t0
    with_d = frag["e_x1sq_given_y0_d0"]
    without_d = frag["e_x1sq_given_y0"]
    assert abs(with_d.value - 0.520) <= 0.010
    assert abs(without_d.value - 0.604) <= 0.010
    assert frag["ordering_ok"]
    assert frag["gap_margin_se"] >= 5.0
    assert frag["unit_margin_se"] >= 5.0
    assert elapsed < 60.0
    announce("1", f"{with_d.value:.4f} < {without_d.value:.4f} < 1, "
                  f"margins {frag['gap_margin_se']:.0f}/"
                  f"{frag['unit_margin_se']:.0f} se, {elapsed:.1f}s")


def test_criterion_02_quadrature_cross_check():
    """Quadrature is self-consistent to 4 decimals and matches MC."""
    pairs = [(0.1, 0.9), (0.0, 0.0)]
    estimates, _ = second_moment_x1_given_y0_d0_mc(pairs, n=10**7, seed=1)
    for (rho1, rho2), mc in zip(pairs, estimates):
        tight = second_moment_x1_given_y0_d0_quad(rho1, rho2, tol=1e-8)
        tighter = second_moment_x1_given_y0_d0_quad(rho1, rho2, tol=1e-10)
        assert round(tight.value, 4) == round(tighter.value, 4)
        assert abs(tight.value - tighter.value) < 1e-6
        assert abs(tight.value - mc.value) <= 3.0 * mc.std_error
    announce("2", "both moments, 4-decimal self-consistency, |quad-mc| < 3 se")


@pytest.fixture(scope="module")
def reference_panel(reference_dataset_cache):
    return reference_dataset_cache


def test_criterion_03_independence_violation(reference_panel):
    """Cov(x1, d) near 0.1 and independence VIOLATED on every panel seed."""
    worst_p = 0.0
    for seed in PANEL_SEEDS:
        ds = reference_panel(seed)
        cov = np.cov(ds.x1, ds.d)[0, 1]
        assert abs(cov - 0.1) <= 0.005
        verdict = check_independence(
            ds.x1, ds.d, TestConfig(alpha=0.01, n_permutations=1999,
                                    seed=1000 + seed))
        assert verdict.verdict == VIOLATED
        assert verdict.p_value < 0.001
        worst_p = max(worst_p, verdict.p_value)
    announce("3", f"20 seeds, cov within 0.005, worst p={worst_p:.4g}")


def test_criterion_04_variance_decomposition(reference_panel):
    """Variance decompositions plus sufficiency rejection at n=1e6."""
    ds = reference_panel(1)
    lo, hi = np.quantile(ds.x1, [0.005, 0.995])
    edges = np.linspace(lo, hi, 51)
    ids = np.searchsorted(edges[1:-1], ds.x1, side="right")
    inside = (ds.x1 >= lo) & (ds.x1 < hi)
    bin_vars = [ds.y[inside & (ids == k)].var() for k in range(50)]
    assert abs(np.mean(bin_vars) - 2.0) <= 0.05

    assert var_y_given_price_and_d(0.1, 0.9, 0.0, 0.0) == pytest.approx(
        1.0 + 0.18 / 0.99, abs=1e-12)

    verdict = check_sufficiency(
        ds.y, ds.d, ds.x1, TestConfig(alpha=0.01, n_permutations=199, seed=4))
    assert verdict.verdict == VIOLATED
    announce("4", f"Var(Y|price)=2, binned {np.mean(bin_vars):.4f}, "
                  f"conditional value exact, sufficiency p={verdict.p_value:.2g}")


def test_criterion_05_separation_violation(reference_panel):
    """Separation VIOLATED on the reference model for every panel seed."""
    worst_p = 0.0
    for seed in PANEL_SEEDS:
        ds = reference_panel(seed)
        verdict = check_separation(
            ds.x1, ds.d, ds.y, TestConfig(alpha=0.01, n_permutations=199,
                                          seed=2000 + seed))
        assert verdict.verdict == VIOLATED
        assert verdict.p_value < 0.001
        worst_p = max(worst_p, verdict.p_value)
    announce("5", f"20 seeds, worst p={worst_p:.2g}")


def test_criterion_06_regime_grid():
    """The 4x3 YES/NO regime grid matches in both the analytic and the
    statistical columns."""
    cells = cmd_table(n=10**6, seed=7,
                      test=TestConfig(alpha=0.01, n_permutations=199, seed=7))
    want = {
        (0.3, 0.5): ("NO", "NO", "NO"),
        (0.3, 0.0): ("NO", "NO", "YES"),
        (0.0, 0.5): ("YES", "NO", "NO"),
        (0.0, 0.0): ("YES", "YES", "YES"),
    }
    axioms = ("independence", "separation", "sufficiency")
    by_key = {(c["rho1"], c["rho2"], c["axiom"]): c for c in cells}
    for pair, grid_row in want.items():
        for axiom, expected in zip(axioms, grid_row):
            cell = by_key[pair + (axiom,)]
            assert cell["analytic"] == expected, (pair, axiom)
            assert cell["statistical"] == expected, (pair, axiom)
            assert cell["agree"]
    announce("6", "12/12 cells match in both grids")


def test_criterion_07_type_one_calibration():
    """Each checker rejects at 3-7% under the independent model."""
    model = make_example_model(0.0, 0.0)
    runs = 500
    rejections = np.zeros(3)
    for rep in range(runs):
        ds = simulate(model, 10**4, seed=50_000 + rep)
        cfg = TestConfig(alpha=0.05, n_permutations=99, seed=rep)
        outcomes = (check_independence(ds.x1, ds.d, cfg),
                    check_separation(ds.x1, ds.d, ds.y, cfg),
                    check_sufficiency(ds.y, ds.d, ds.x1, cfg))
        rejections += [o.verdict == VIOLATED for o in outcomes]
    rates = rejections / runs
    for rate in rates:
        assert 0.03 <= rate <= 0.07
    announce("7", "type-I rates ind/sep/suf = "
                  f"{rates[0]:.3f}/{rates[1]:.3f}/{rates[2]:.3f}")


def test_criterion_08_oracle_equivalence():
    """Closed-form conditionals vs grid integration (1e-6) and
    slice-rejection simulation (3 se) on a 10-point random panel; the
    same simulation rejects the mean-free law of X1 | (Y=0, X2, D=0)."""
    rng = np.random.default_rng(2024)
    max_grid_err = 0.0
    max_abs_z = 0.0
    max_planted_z = 0.0
    for k in range(10):
        rho1 = rng.uniform(0.05, 0.5)
        rho2 = rng.uniform(0.05, 0.8)
        d0 = rng.uniform(-1.0, 1.0)
        x1v = rng.uniform(-1.0, 1.0)
        x2v = rng.uniform(-0.8, 0.8)
        cov = [[1, 0, rho1], [0, 1, rho2], [rho1, rho2, 1.0]]
        draws = native_draws_fn(rho1, rho2, seed=7000 + k)
        zs = []

        # (X1, X2) | D = d0 against a 2-d grid and a 1-d slice
        mu_a, cov_a = condition(np.zeros(3), cov, [2], [d0])
        g = np.linspace(-8.0, 8.0, 1201)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        f = np.exp(trivariate_log_density(rho1, rho2, xx, yy, d0))
        mass = np.trapezoid(np.trapezoid(f, g, axis=1), g)
        for target, axis_vals in ((0, xx), (1, yy)):
            mean = np.trapezoid(np.trapezoid(f * axis_vals, g, axis=1), g) / mass
            var = np.trapezoid(np.trapezoid(
                f * (axis_vals - mean) ** 2, g, axis=1), g) / mass
            max_grid_err = max(max_grid_err,
                               abs(mean - mu_a[target]),
                               abs(var - cov_a[target, target]))
            est = slice_rejection_moments(draws, [2], [d0], target,
                                          half_width=0.025)
            zs.append((est.mean - mu_a[target]) / est.se_mean)
            zs.append((est.var - cov_a[target, target]) / est.se_var)

        # X2 | (X1, D) against a 1-d grid and, with X1 fixed, a D slice
        mu_b, cov_b = condition(np.zeros(3), cov, [0, 2], [x1v, d0])
        mean_b, var_b, _ = grid_moments(
            lambda x2: np.exp(trivariate_log_density(rho1, rho2, x1v, x2, d0)),
            -10.0, 10.0, 8001)
        max_grid_err = max(max_grid_err, abs(mean_b - mu_b[0]),
                           abs(var_b - cov_b[0, 0]))
        est = slice_rejection_moments(
            native_draws_fn(rho1, rho2, seed=7000 + k, x1=x1v), [2], [d0], 1,
            half_width=0.025)
        zs.append((est.mean - mu_b[0]) / est.se_mean)
        zs.append((est.var - cov_b[0, 0]) / est.se_var)

        # X1 | (Y=0, X2, D=0) against a 1-d grid and, with X2 fixed, a
        # (Y, D) slice; the double window is widened to 0.075 to keep
        # the acceptance rate workable (bias is O(width^2), far below
        # the noise floor)
        mean_x1, var_x1 = x1_given_y0_x2_d0(rho1, rho2, x2v)
        mean_c, var_c, _ = grid_moments(
            lambda x1: np.exp(response_log_density(0.0, x1, x2v)
                              + trivariate_log_density(rho1, rho2, x1, x2v, 0.0)),
            -10.0, 10.0, 8001)
        max_grid_err = max(max_grid_err, abs(mean_c - mean_x1),
                           abs(var_c - var_x1))
        est = slice_rejection_moments(
            native_draws_fn(rho1, rho2, seed=7000 + k, x2=x2v),
            [3, 2], [0.0, 0.0], 0, half_width=0.075)
        zs.append((est.mean - mean_x1) / est.se_mean)
        zs.append((est.var - var_x1) / est.se_var)
        # power: the planted law N(0, var_x1) drops the conditional mean
        max_planted_z = max(max_planted_z, abs(est.mean) / est.se_mean)

        assert max(abs(z) for z in zs) < 3.0, f"panel point {k}"
        max_abs_z = max(max_abs_z, max(abs(z) for z in zs))
    assert max_grid_err < 1e-6
    assert max_planted_z > 3.0
    announce("8", f"grid err {max_grid_err:.1e} < 1e-6, "
                  f"max |z| = {max_abs_z:.2f} < 3, "
                  f"mean-free law at {max_planted_z:.1f} > 3")


def test_criterion_09_pricing_identities():
    """Exact coincidence of the three prices plus the two HOLDS audits."""
    rng = np.random.default_rng(77)
    pts = rng.normal(size=(10**4, 3))
    prices = [pts[:, 0] if PRICE_IS_X1[k] else np.zeros(len(pts))
              for k in ("best_estimate", "unawareness", "discrimination_free")]
    assert np.array_equal(prices[0], prices[1])
    assert np.array_equal(prices[0], prices[2])

    null_cfg = RunConfig(rho1=0.1, rho2=0.9, n=10**6, seed=42,
                         functional="null",
                         test=TestConfig(n_permutations=199, seed=3))
    report = cmd_audit(null_cfg)
    ind = verdict_for(report, "independence")
    assert ind.statistical.verdict == HOLDS
    assert ind.statistical.statistic == 0.0
    assert ind.analytic.verdict == HOLDS

    subset_cfg = RunConfig(rho1=0.0, rho2=0.9, n=10**6, seed=42,
                           functional="subset:x1",
                           test=TestConfig(n_permutations=199, seed=3))
    report = cmd_audit(subset_cfg)
    ind = verdict_for(report, "independence")
    assert ind.statistical.verdict == HOLDS
    assert ind.analytic.verdict == HOLDS
    announce("9", "prices coincide exactly; null and subset(x1) audits HOLD")


def test_criterion_10_report_determinism():
    """Identical configs give byte-identical reports, timestamp aside."""
    cfg = RunConfig(rho1=0.1, rho2=0.9, n=10**5, seed=42,
                    test=TestConfig(n_permutations=199, seed=9))
    first = cmd_audit(cfg)
    second = cmd_audit(cfg)
    assert determinism_digest(report_json_bytes(first)) == \
        determinism_digest(report_json_bytes(second))
    da, db = report_to_dict(first), report_to_dict(second)
    da.pop("timestamp"), db.pop("timestamp")
    assert json.dumps(da).encode() == json.dumps(db).encode()
    announce("10", "sha256 digests equal with timestamp excluded")
