"""Counter-based random streams and their deterministic normal draws.

Every draw in the package is keyed by a 64-bit user seed plus a 64-bit
stream id fed into a Philox counter-based generator.  Long outputs are
produced in fixed-size blocks, each block keyed by (seed, stream, block
index), so the result is byte-identical no matter how the work is
scheduled or chunked by callers.  Standard normals come from the Wichura
AS 241 rational approximation of the inverse normal CDF applied to
open-interval uniforms: no rejection sampling, so the number of uniforms
consumed never depends on their values.  The tails call np.log, whose
SIMD kernel numpy picks per CPU, so across CPUs about 1 in 10^5 normals
can differ in its last few ulps.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1

# values per block; block b of a stream is reproducible in isolation
BLOCK_SIZE = 1 << 20

# stream-id layout: high 32 bits = logical stream, low 32 bits = block index
_MAX_BLOCKS = 1 << 32


def shown(x) -> str:
    """repr(x) for the message that refuses x, or, for an int too long
    for repr() (past Python's limit on the digits of an int), its bit
    length, so that refusing a huge value never raises ValueError."""
    try:
        return repr(x)
    except ValueError:
        if isinstance(x, int):
            return f"an int of {x.bit_length()} bits"
        return f"a {type(x).__name__} too long to print"


def check_integer(value, name: str) -> int:
    """The value as a Python int, or ConfigError if it is not an integer.

    Python and numpy integers pass; bools, floats and other numbers do
    not, even with an integral value.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {shown(value)}")
    return int(value)


def check_seed(seed: int, name: str = "seed") -> int:
    """The seed as a Python int (check_integer), or ConfigError if it is
    not one 64-bit word of the generator key.

    Masking an integer outside [0, 2^64) instead would alias seed s with
    s + 2^64 and -1 with 2^64 - 1, and a report would record a seed it
    did not use.
    """
    seed = check_integer(seed, name)
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"{name} must be in [0, 2^64), got {shown(seed)}")
    return seed


def _bit_generator(seed: int, stream: int) -> np.random.Philox:
    """Philox generator keyed by (seed, stream); 128-bit key, no mixing."""
    key = ((stream & _MASK64) << 64) | check_seed(seed)
    return np.random.Philox(key=key)


def _open_uniforms(raw: np.ndarray) -> np.ndarray:
    """Uniforms strictly inside (0, 1), one raw 64-bit word per value.

    52 high bits per word: the endpoints 2^-53 and 1 - 2^-53 are exactly
    representable, so the interval stays open after rounding.
    """
    return ((raw >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


# AS 241 (Wichura, 1988), PPND16: |relative error| < 1e-15, far inside
# the sampler's 1e-9 accuracy budget.
_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
      5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
      2.8729085735721942674e4, 5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
      6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
      5.47593808499534494600e-4, 1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
      1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
      1.42151175831644588870e-7, 2.04426310338993978564e-15)


# values per slice of the inverse CDF: its dozen temporaries stay in
# cache, where whole 2^20-value blocks would stream through memory
_SLICE = 1 << 14


def _poly(coeffs, r):
    """Horner's rule in place: acc * r + c, step by step, highest first."""
    acc = r * coeffs[-1]
    acc += coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc *= r
        acc += c
    return acc


def _ppf_slice(p: np.ndarray, out: np.ndarray) -> None:
    """AS 241 of one slice of p into out.

    The central rational runs on the whole slice: over the tails' range
    of r, [-0.0694, 0), its denominator stays above 0.0021, so it only
    does work that the tail values then overwrite.  The tails, 15% of
    uniform input, are gathered and evaluated on their own.
    """
    q = p - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    np.multiply(q, _poly(_A, r), out=out)
    out /= _poly(_B, r)
    tails = np.flatnonzero(~(np.abs(q) <= 0.425))
    if tails.size:
        qt = q[tails]
        pt = p[tails]
        pm = np.where(qt < 0.0, pt, 1.0 - pt)
        r = np.sqrt(-np.log(pm))
        x = np.empty_like(r)
        near = r <= 5.0
        rn = r[near] - 1.6
        x[near] = _poly(_C, rn) / _poly(_D, rn)
        far = ~near
        rf = r[far] - 5.0
        x[far] = _poly(_E, rf) / _poly(_F, rf)
        out[tails] = np.where(qt < 0.0, -x, x)


def normal_ppf(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF for p in (0, 1), vectorized AS 241,
    evaluated in cache-sized slices."""
    p = np.asarray(p, dtype=np.float64)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    out = np.empty(p.shape)
    flat_p, flat_out = p.ravel(), out.reshape(-1)
    for lo in range(0, flat_p.shape[0], _SLICE):
        _ppf_slice(flat_p[lo:lo + _SLICE], flat_out[lo:lo + _SLICE])
    return out[0] if scalar else out


def standard_normals(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """n deterministic standard normal draws on (seed, stream).

    Block-partitioned: ``standard_normals(k, ...)`` is a prefix of
    ``standard_normals(n, ...)`` for k <= n, and blocks may be produced
    independently (e.g. in parallel) without changing the result.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if stream < 0 or stream >= _MAX_BLOCKS:
        raise ValueError("stream id out of range")
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, BLOCK_SIZE):
        bits = _bit_generator(seed, (stream << 32) | (start // BLOCK_SIZE))
        # successive random_raw calls continue one stream of words
        for lo in range(start, min(start + BLOCK_SIZE, n), _SLICE):
            hi = min(lo + _SLICE, start + BLOCK_SIZE, n)
            _ppf_slice(_open_uniforms(bits.random_raw(hi - lo)), out[lo:hi])
    return out
