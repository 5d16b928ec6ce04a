"""Deterministic stream machinery and the inverse normal CDF."""

import hashlib
import math

import numpy as np
import pytest
from scipy.stats import norm

from fairlens import ConfigError
from fairlens.streams import (BLOCK_SIZE, _bit_generator, _open_uniforms, normal_ppf,
                              standard_normals)

from brute_force import generator


def test_normal_ppf_matches_scipy_within_1e9():
    p = np.concatenate([
        np.array([2.0**-53, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3]),
        np.linspace(0.001, 0.999, 4001),
        1.0 - np.array([2.0**-53, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3]),
    ])
    assert np.max(np.abs(normal_ppf(p) - norm.ppf(p))) < 1e-9


def test_normal_ppf_scalar_and_symmetry():
    assert normal_ppf(0.5) == 0.0
    assert normal_ppf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    p = np.linspace(0.01, 0.49, 25)
    np.testing.assert_allclose(normal_ppf(p), -normal_ppf(1.0 - p), atol=1e-13)


def test_uniforms_open_interval():
    u = _open_uniforms(_bit_generator(1, 0).random_raw(200_000))
    assert u.min() > 0.0
    assert u.max() < 1.0
    ends = _open_uniforms(np.array([0, (1 << 64) - 1], dtype=np.uint64))
    assert ends.tolist() == [2.0**-53, 1.0 - 2.0**-53]


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_64_bits_refused(seed):
    """Seeds do not alias modulo 2^64: 2^64 is not seed 0 and -1 is
    not 2^64 - 1."""
    with pytest.raises(ConfigError):
        standard_normals(10, seed)
    with pytest.raises(ConfigError):
        _bit_generator(seed, 0)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, np.float64(2.0), "2", None])
def test_non_integer_seed_refused(seed):
    """Only integers key a stream: a float, even an integral one, or a
    bool is refused before it reaches the key."""
    with pytest.raises(ConfigError, match="must be an integer"):
        standard_normals(10, seed)


def test_numpy_integer_seed_is_the_same_stream():
    want = standard_normals(10, 7).tobytes()
    for seed in (np.int64(7), np.uint64(7), np.uint8(7)):
        assert standard_normals(10, seed).tobytes() == want


def test_standard_normals_deterministic_and_prefix():
    a = standard_normals(BLOCK_SIZE + 123, seed=9, stream=4)
    b = standard_normals(BLOCK_SIZE + 123, seed=9, stream=4)
    assert np.array_equal(a, b)
    head = standard_normals(1000, seed=9, stream=4)
    assert np.array_equal(head, a[:1000])


def test_streams_are_distinct():
    a = standard_normals(1000, seed=9, stream=0)
    b = standard_normals(1000, seed=9, stream=1)
    c = standard_normals(1000, seed=10, stream=0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_standard_normals_moments():
    z = standard_normals(2_000_000, seed=3)
    assert abs(z.mean()) < 0.003
    assert abs(z.var() - 1.0) < 0.005
    assert np.all(np.isfinite(z))


def test_generator_reproducible():
    g1 = generator(5, 17)
    g2 = generator(5, 17)
    assert np.array_equal(g1.permutation(50), g2.permutation(50))


# SHA-256 digests pin the kernel's bytes: a rewrite of the inverse CDF
# or of how blocks are walked must reproduce them


def _ppf_edge_runs():
    """Runs of probabilities across each branch edge of AS 241.

    A few ulps around both |q| = 0.425 edges, and runs across both
    r = 5 crossings (on the lower side r moves by one ulp of 25 only
    every ~30 ulps of p).
    """
    return {
        "q-lower": 0.075 + np.spacing(0.075) * np.arange(-3, 4),
        "q-upper": 0.925 + np.spacing(0.925) * np.arange(-3, 4),
        "r-lower": math.exp(-25.0) * (1.0 + 1e-15 * np.arange(-50, 51)),
        "r-upper": 1.0 - math.exp(-25.0) + 2.0**-53 * np.arange(-5, 6),
    }


def test_standard_normals_bytes_are_pinned():
    """A prefix of two blocks, the second one partial."""
    z = standard_normals(BLOCK_SIZE + 12_345, seed=9, stream=4)
    assert hashlib.sha256(z.tobytes()).hexdigest() == (
        "392bcbd8643c9e6cc0f1dec9eed79fdd2f467f731b836783ab152ddd7af791e6")


def test_normal_ppf_bytes_are_pinned():
    """Both ends of the open interval, every branch edge, broad grids."""
    runs = _ppf_edge_runs()
    for name, run in runs.items():
        q = run - 0.5
        if name.startswith("q"):
            inside = np.abs(q) <= 0.425
        else:
            inside = np.sqrt(-np.log(np.where(q < 0.0, run, 1.0 - run))) <= 5.0
        assert inside.any() and not inside.all(), name
    p = np.concatenate([
        [2.0**-53, 1.0 - 2.0**-53, 0.5], *runs.values(),
        np.linspace(2.0**-53, 1.0 - 2.0**-53, 100_003),
        np.geomspace(2.0**-53, 0.5, 50_001),
        1.0 - np.geomspace(2.0**-53, 0.5, 50_001),
    ])
    assert hashlib.sha256(normal_ppf(p).tobytes()).hexdigest() == (
        "c5616287f9cc694f972dee24261af841c0eac2e3fa99027a617686dcae26d1f1")
