"""Generative model, pricing functionals, dataset serialization."""

import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fairlens
from fairlens import (ConfigError, LengthMismatch, NonFiniteInput,
                      NotPositiveDefinite, PortfolioModel, RunConfig,
                      TestConfig, TooFewSamples, cmd_audit,
                      make_example_model, simulate)
from fairlens.harness import report_to_dict
from fairlens.model import PRICE_IS_X1, SimulatedDataset, read_csv, write_csv
from fairlens.streams import standard_normals


class TestModelConstruction:
    def test_reference_parameters(self):
        m = make_example_model(0.1, 0.9)
        assert (m.rho1, m.rho2) == (0.1, 0.9)
        ds = simulate(m, 10**5, seed=20)
        # the sampled covariance has a zero (X1, X2) entry up to noise
        np.testing.assert_allclose(
            np.cov([ds.x1, ds.x2, ds.d]),
            [[1, 0, 0.1], [0, 1, 0.9], [0.1, 0.9, 1]], atol=0.02)

    def test_pair_stored_as_floats(self):
        """A model built directly holds the floats that
        make_example_model's holds, whatever real numbers it was given."""
        m = PortfolioModel(0, np.float32(0.5))
        assert (type(m.rho1), type(m.rho2)) == (float, float)
        assert m == make_example_model(0.0, 0.5)

    def test_independent_case(self):
        ds = simulate(make_example_model(0.0, 0.0), 10**5, seed=20)
        np.testing.assert_allclose(np.cov([ds.x1, ds.x2, ds.d]), np.eye(3),
                                   atol=0.02)

    def test_invalid_pair_rejected(self):
        for rho1, rho2 in [
            (0.7, 0.8),  # 1 - 0.49 - 0.64 < 0
            # 1 - rho1^2 - rho2^2 evaluates to 0.0, yet a Cholesky
            # factorization of the covariance matrix accepts this pair
            (0.2699624701089316, 0.9628708453020499),
            (math.nan, 0.0),
            # squares that overflow: refused, not an OverflowError
            (1e200, 0.0), (0.0, -1e200),
            # integers past the largest float: refused before float(),
            # and past str()'s limit on digits: refused without str()
            (10**400, 0.0), (0.0, -10**400), (10**5000, 0.0), (0.0, -10**5000),
            # a real that repr() cannot print either
            (Fraction(10**5000, 3), 0.0),
        ]:
            with pytest.raises(NotPositiveDefinite):
                make_example_model(rho1, rho2)

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("rho", ["0.1", None, complex(0.1), Decimal("0.1"), True],
                             ids=["str", "None", "complex", "Decimal", "bool"])
    def test_non_real_rho_refused(self, rho, position):
        """A rho that is not a real number fails the one validity rule:
        the model raises NotPositiveDefinite and the config ConfigError,
        not a TypeError from the arithmetic."""
        pair = [0.0, 0.0]
        pair[position] = rho
        with pytest.raises(NotPositiveDefinite):
            make_example_model(*pair)
        with pytest.raises(ConfigError):
            RunConfig(rho1=pair[0], rho2=pair[1])


class TestSimulate:
    def test_n_must_be_positive(self):
        """simulate checks n, once: anything but an integer of at least
        1 is a ConfigError."""
        m = make_example_model(0.1, 0.9)
        for n in (0, -1, 1.5, 1e4, True, "10"):
            with pytest.raises(ConfigError, match="n must be"):
                simulate(m, n, seed=1)
        assert simulate(m, np.int64(1), seed=1).n == 1

    def test_moments_at_reference_parameters(self):
        m = make_example_model(0.1, 0.9)
        ds = simulate(m, 10**6, seed=21)
        # Var(Y) = Var(X1) + E[1 + X2^2] = 3 by the total-variance split
        assert abs(ds.y.mean()) < 0.005
        assert abs(ds.y.var() - 3.0) < 0.02
        assert abs(np.corrcoef(ds.x1, ds.d)[0, 1] - 0.1) < 0.005

    def test_full_independence(self):
        m = make_example_model(0.0, 0.0)
        ds = simulate(m, 10**6, seed=22)
        assert abs(np.corrcoef(ds.y, ds.d)[0, 1]) < 0.005

    def test_deterministic(self):
        m = make_example_model(0.1, 0.9)
        a = simulate(m, 2000, seed=5)
        b = simulate(m, 2000, seed=5)
        for name in ("x1", "x2", "d", "y"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_unequal_column_lengths_rejected(self):
        with pytest.raises(LengthMismatch):
            SimulatedDataset(x1=np.zeros(3), x2=np.zeros(3), d=np.zeros(2),
                             y=np.zeros(3), seed=0, rho1=0.1, rho2=0.9)

    @pytest.mark.parametrize("column", [
        pytest.param([0.0, 1.0, 2.0], id="list"),
        pytest.param([0.0], id="list-of-another-length"),
        pytest.param(np.zeros((3, 1)), id="two-d"),
        pytest.param(np.float64(0.0), id="scalar"),
    ])
    @pytest.mark.parametrize("slot", ["x1", "d"])
    def test_column_not_a_flat_array_rejected(self, column, slot):
        """A column that is not a 1-d numpy array is refused before the
        lengths are compared: a list used to raise AttributeError, and a
        (3, 1) column passed."""
        columns = {name: np.zeros(3) for name in ("x1", "x2", "d", "y")}
        with pytest.raises(NonFiniteInput, match="1-d numpy arrays"):
            SimulatedDataset(**{**columns, slot: column}, seed=0, rho1=0.1, rho2=0.9)

    def test_empty_dataset_rejected(self):
        x = np.zeros(0)
        with pytest.raises(TooFewSamples):
            SimulatedDataset(x1=x, x2=x, d=x, y=x, seed=0, rho1=0.1, rho2=0.9)

    def test_columns_independent_of_blas_kernel(self):
        """The draws have the same bytes under two OpenBLAS kernels, one
        with fused multiply-adds (Haswell) and one without (SandyBridge).
        Where OPENBLAS_CORETYPE is ignored the two runs agree trivially."""
        script = (
            "import hashlib\n"
            "from fairlens import make_example_model, simulate\n"
            "ds = simulate(make_example_model(0.1, 0.9), 20000, 11)\n"
            "h = hashlib.sha256()\n"
            "for col in (ds.x1, ds.x2, ds.d, ds.y):\n"
            "    h.update(col.tobytes())\n"
            "print(h.hexdigest())\n")
        src = str(Path(fairlens.__file__).resolve().parents[1])
        digests = set()
        for core in ("Haswell", "SandyBridge"):
            env = dict(os.environ, OPENBLAS_CORETYPE=core,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1, digests

    def test_response_stream_separate_from_covariates(self):
        """The covariate draws do not move when only n changes the
        response consumption, and vice versa."""
        m = make_example_model(0.1, 0.9)
        short = simulate(m, 100, seed=5)
        long = simulate(m, 5000, seed=5)
        assert np.array_equal(short.x1, long.x1[:100])
        assert np.array_equal(short.y, long.y[:100])

    def test_binned_conditional_mean_matches_response(self):
        """E[Y | X1 in a thin bin around a] converges to a."""
        m = make_example_model(0.1, 0.9)
        ds = simulate(m, 10**6, seed=23)
        lo, hi = np.quantile(ds.x1, [0.005, 0.995])
        edges = np.linspace(lo, hi, 51)
        ids = np.searchsorted(edges[1:-1], ds.x1, side="right")
        inside = (ds.x1 >= lo) & (ds.x1 < hi)
        for k in (5, 25, 44):
            sel = inside & (ids == k)
            centre = ds.x1[sel].mean()
            se = ds.y[sel].std(ddof=1) / np.sqrt(sel.sum())
            assert abs(ds.y[sel].mean() - centre) < 3 * se

    def test_binned_conditional_variance_heteroskedastic(self):
        """Var(Y - X1 | X2 in a bin around b) converges to 1 + b^2."""
        m = make_example_model(0.1, 0.9)
        ds = simulate(m, 10**6, seed=24)
        resid = ds.y - ds.x1
        lo, hi = np.quantile(ds.x2, [0.005, 0.995])
        edges = np.linspace(lo, hi, 51)
        ids = np.searchsorted(edges[1:-1], ds.x2, side="right")
        inside = (ds.x2 >= lo) & (ds.x2 < hi)
        for k in (2, 25, 48):
            sel = inside & (ids == k)
            b = ds.x2[sel].mean()
            r = resid[sel]
            var = r.var()
            m4 = np.mean((r - r.mean()) ** 4)
            se_var = np.sqrt((m4 - var**2) / sel.sum())
            assert abs(var - (1.0 + b**2)) < 3 * se_var


class TestPricing:
    def test_best_estimate_is_x1(self):
        assert PRICE_IS_X1["best_estimate"]

    def test_null_price_is_zero(self):
        assert not PRICE_IS_X1["null"]

    def test_subset_x2_price_is_zero(self):
        # E[Y | X2] = E[X1 | X2] = 0 because Cov(X1, X2) = 0
        assert not PRICE_IS_X1["subset:x2"]

    def test_subset_x2_price_zero_confirmed_by_simulation(self):
        m = make_example_model(0.1, 0.9)
        ds = simulate(m, 200_000, seed=31)
        sel = np.abs(ds.x2 - 0.4) < 0.05
        se = ds.y[sel].std(ddof=1) / np.sqrt(sel.sum())
        assert abs(ds.y[sel].mean()) < 3 * se

    def test_subset_x1_equals_unawareness(self):
        assert PRICE_IS_X1["subset:x1"] and PRICE_IS_X1["unawareness"]

    def test_coincidence_identity_on_random_points(self):
        """Best-estimate, unawareness and discrimination-free prices are
        exactly equal, so their audits of one simulated portfolio agree
        bit for bit apart from the functional's name."""
        bodies = set()
        for kind in ("best_estimate", "unawareness", "discrimination_free"):
            cfg = RunConfig(rho1=0.1, rho2=0.9, n=5000, seed=7, functional=kind,
                            test=TestConfig(n_permutations=99, seed=1))
            raw = report_to_dict(cmd_audit(cfg))
            raw.pop("timestamp")
            raw["config"].pop("functional")
            bodies.add(json.dumps(raw, sort_keys=True))
        assert len(bodies) == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(rho1=0.1, rho2=0.9, functional="fitted")
        with pytest.raises(ConfigError):
            RunConfig(rho1=0.1, rho2=0.9, functional="subset:x3")


# the sidecar of simulate(make_example_model(0.1, 0.9), 10, seed=5)
SIDECAR = {"n": 10, "seed": 5, "rho1": 0.1, "rho2": 0.9}


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        m = make_example_model(0.1, 0.9)
        ds = simulate(m, 500, seed=77)
        path = tmp_path / "draws.csv"
        write_csv(ds, path)
        assert path.read_text().splitlines()[0] == "x1,x2,d,y"
        meta = json.loads((tmp_path / "draws.csv.meta.json").read_text())
        assert meta == {"n": 500, "seed": 77, "rho1": 0.1, "rho2": 0.9}
        back = read_csv(path)
        for name in ("x1", "x2", "d", "y"):
            np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))
        assert (back.seed, back.rho1, back.rho2) == (77, 0.1, 0.9)
        meta.update(rho1=0.8, rho2=0.7)
        (tmp_path / "draws.csv.meta.json").write_text(json.dumps(meta))
        with pytest.raises(NotPositiveDefinite):
            read_csv(path)

    @pytest.mark.parametrize("rho2", [0, np.float32(0.5)], ids=["int", "float32"])
    def test_csv_round_trip_of_a_non_float_rho(self, tmp_path, rho2):
        """A dataset stores its rho pair as floats, as PortfolioModel
        does: an int or a float32 rho writes a JSON float to the sidecar
        and reads back equal."""
        x = np.array([0.5, -1.0, 2.0])
        ds = SimulatedDataset(x1=x, x2=x, d=x, y=x, seed=1, rho1=0, rho2=rho2)
        assert (type(ds.rho1), type(ds.rho2)) == (float, float)
        path = tmp_path / "rho.csv"
        write_csv(ds, path)
        meta = json.loads((tmp_path / "rho.csv.meta.json").read_text())
        assert (type(meta["rho1"]), type(meta["rho2"])) == (float, float)
        back = read_csv(path)
        assert (back.rho1, back.rho2) == (0.0, float(rho2))

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 3.7, True],
                             ids=["negative", "past-64-bits", "float", "bool"])
    def test_dataset_seed_checked(self, seed):
        """A dataset's seed is one 64-bit word of the generator key, as
        simulate's is: -1 used to pass and reach the sidecar."""
        x = np.array([0.5, -1.0, 2.0])
        with pytest.raises(ConfigError, match="seed must be"):
            SimulatedDataset(x1=x, x2=x, d=x, y=x, seed=seed, rho1=0.1, rho2=0.9)

    @pytest.mark.parametrize("key,value,error", [
        ("seed", 3.7, ConfigError),
        ("seed", -4, ConfigError),
        ("n", 999, LengthMismatch),
        ("n", 9, LengthMismatch),
    ])
    def test_sidecar_values_checked(self, tmp_path, key, value, error):
        """The sidecar's seed reaches the dataset unconverted (3.7 used
        to read as 3, and -4 passed), and its n must count the rows
        read (999 against 10 rows used to pass)."""
        ds = simulate(make_example_model(0.1, 0.9), 10, seed=5)
        path = tmp_path / "draws.csv"
        write_csv(ds, path)
        sidecar = tmp_path / "draws.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**meta, key: value}))
        with pytest.raises(error):
            read_csv(path)
        sidecar.write_text(json.dumps(meta))
        assert read_csv(path).seed == 5

    @pytest.mark.parametrize("text", [
        *(pytest.param(json.dumps({k: v for k, v in SIDECAR.items() if k != key}).encode(),
                       id=f"no-{key}") for key in SIDECAR),
        pytest.param(b"n = 10", id="not-json"),
        pytest.param(b"", id="empty"),
        pytest.param(b"\xff", id="not-utf8"),
        pytest.param(b"[1, 2]", id="array"),
        pytest.param(b'"n"', id="string"),
        pytest.param(b"null", id="null"),
    ])
    def test_malformed_sidecar_is_a_config_error(self, tmp_path, text):
        """A sidecar that is not a JSON object with n, seed, rho1 and
        rho2 is refused with its path named, where it used to raise
        KeyError, JSONDecodeError or TypeError."""
        path = tmp_path / "draws.csv"
        write_csv(simulate(make_example_model(0.1, 0.9), 10, seed=5), path)
        sidecar = tmp_path / "draws.csv.meta.json"
        sidecar.write_bytes(text)
        with pytest.raises(ConfigError) as info:
            read_csv(path)
        assert str(sidecar) in str(info.value)

    def test_missing_sidecar_is_an_io_error(self, tmp_path):
        path = tmp_path / "draws.csv"
        write_csv(simulate(make_example_model(0.1, 0.9), 10, seed=5), path)
        (tmp_path / "draws.csv.meta.json").unlink()
        with pytest.raises(FileNotFoundError):
            read_csv(path)

    def test_csv_bytes_match_savetxt(self, tmp_path):
        """Block-wise formatting writes np.savetxt's bytes, over a row
        count that is not a multiple of the block and extreme values."""
        n = 2 * 8192 + 37
        cols = standard_normals(4 * n, seed=21).reshape(4, n) * 1e3
        extremes = np.array([-0.0, 5e-324, 1e300, -1e-17])
        cols[:, :4] = extremes  # along the first rows
        cols[:, -4:] = extremes[:, None]  # down the last row
        ds = SimulatedDataset(x1=cols[0], x2=cols[1], d=cols[2], y=cols[3],
                              seed=3, rho1=0.1, rho2=0.9)
        path = tmp_path / "blocks.csv"
        write_csv(ds, path)
        with (tmp_path / "savetxt.csv").open("w", newline="") as fh:
            np.savetxt(fh, cols.T, fmt="%.17g", delimiter=",", header="x1,x2,d,y",
                       comments="", newline="\r\n")
        assert path.read_bytes() == (tmp_path / "savetxt.csv").read_bytes()
        back = read_csv(path)
        for name, col in zip(("x1", "x2", "d", "y"), cols):
            assert getattr(back, name).tobytes() == col.tobytes()

    def test_csv_golden_bytes(self, tmp_path):
        """The exact file bytes: header, CRLF rows, %.17g values."""
        ds = SimulatedDataset(
            x1=np.array([0.1, -1.5, 2.0]), x2=np.array([1e-300, 0.0, -0.0]),
            d=np.array([1.0 / 3.0, 12345.678, -2.5e10]),
            y=np.array([np.pi, -np.e, 7.0]), seed=3, rho1=0.1, rho2=0.9)
        path = tmp_path / "golden.csv"
        write_csv(ds, path)
        assert path.read_bytes() == (
            b"x1,x2,d,y\r\n"
            b"0.10000000000000001,1e-300,"
            b"0.33333333333333331,3.1415926535897931\r\n"
            b"-1.5,0,12345.678,-2.7182818284590451\r\n"
            b"2,-0,-25000000000,7\r\n")
        back = read_csv(path)
        for name in ("x1", "x2", "d", "y"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes()
