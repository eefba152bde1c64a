"""Rayleigh block-fading channel kernel.

Everything downstream rests on three things defined here: the complex-Gaussian
convention, the block channel map ``Y = H X + W``, and the regularized lower
incomplete gamma function.

Convention, fixed once for the whole package: CN(0, 1) means a circularly
symmetric complex Gaussian with *total* variance 1, i.e. independent real and
imaginary parts of variance 1/2 each.  Implementations in the wild often
differ by a factor of 2; the test suite pins this one down.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DimensionError, DomainError, TrainingInfeasibleError

__all__ = [
    "ChannelDims",
    "RngStream",
    "sample_channel_matrix",
    "sample_peaky_gaussian",
    "apply_block_channel",
    "average_power_check",
    "gamma_lower_regularized",
    "gamma_upper_regularized",
]

_MASK64 = (1 << 64) - 1
# Counter stride between logical blocks of one stream.  A block never consumes
# anywhere near 2**40 variates, so blocks cannot overlap.
_BLOCK_STRIDE = 1 << 40


def _as_count(name, value, minimum=1):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DimensionError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DimensionError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _positive_int(name, value) -> int:
    """A count argument such as r or k, as an int; numpy integers pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ChannelDims:
    """Antenna counts and coherence length: t transmit, r receive, l symbols per block."""

    t: int
    r: int
    l: int

    def __post_init__(self):
        object.__setattr__(self, "t", _as_count("t", self.t))
        object.__setattr__(self, "r", _as_count("r", self.r))
        object.__setattr__(self, "l", _as_count("l", self.l))

    def require_training(self):
        """Training uses the first t symbols; it needs l > t."""
        if self.l <= self.t:
            raise TrainingInfeasibleError(
                f"training needs l > t, got l={self.l}, t={self.t}"
            )


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream_id) fully determines all draws.

    Distinct stream_ids are independent Philox keys.  Within one stream,
    ``generator(block=i)`` exposes disjoint counter blocks, so work can be
    chunked across threads with results independent of the partitioning.
    """

    seed: int
    stream_id: int = 0

    def generator(self, block: int = 0) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        bits = np.random.Philox(key=key)
        if block:
            bits.advance(block * _BLOCK_STRIDE)
        return np.random.Generator(bits)


def _sample_cn(gen: np.random.Generator, shape) -> np.ndarray:
    """CN(0,1) array: real then imaginary normals, scaled to unit total variance."""
    re = gen.standard_normal(shape)
    im = gen.standard_normal(shape)
    return (re + 1j * im) * math.sqrt(0.5)


def sample_channel_matrix(dims: ChannelDims, rng: RngStream, count: int | None = None):
    """Draw the r x t channel matrix with i.i.d. CN(0,1) entries.

    With ``count`` set, returns a (count, r, t) batch drawn from the same
    stream in one pass (bit-reproducible for a given (seed, stream_id)).
    """
    gen = rng.generator()
    if count is None:
        return _sample_cn(gen, (dims.r, dims.t))
    count = _as_count("count", count)
    return _sample_cn(gen, (count, dims.r, dims.t))


def sample_peaky_gaussian(
    dims: ChannelDims,
    duty: float,
    snr_block: float,
    rng: RngStream,
    count: int | None = None,
):
    """Draw input blocks X for duty-cycled Gaussian signaling.

    A block transmits with probability ``duty``; a transmitting block has
    i.i.d. CN(0, snr_block / t) entries, so the long-run average power per
    symbol is duty * snr_block.
    """
    if not 0.0 < duty <= 1.0:
        raise DomainError(f"duty must be in (0, 1], got {duty}")
    if snr_block < 0.0:
        raise DomainError(f"snr_block must be >= 0, got {snr_block}")
    gen = rng.generator()
    n = 1 if count is None else _as_count("count", count)
    on = gen.random(n) < duty
    x = _sample_cn(gen, (n, dims.t, dims.l)) * math.sqrt(snr_block / dims.t)
    x *= on[:, None, None]
    return x[0] if count is None else x


def apply_block_channel(h, x, noise=None):
    """One coherence block of the fading channel: Y = H X + W.

    ``noise=None`` means the noiseless map.  Shapes must satisfy
    h: (r, t), x: (t, l), noise: (r, l).
    """
    h = np.asarray(h)
    x = np.asarray(x)
    if h.ndim != 2 or x.ndim != 2:
        raise DimensionError("h and x must be 2-D matrices")
    if h.shape[1] != x.shape[0]:
        raise DimensionError(f"inner dimensions disagree: h is {h.shape}, x is {x.shape}")
    for name, m in (("h", h), ("x", x)):
        if not np.all(np.isfinite(m.view(float) if np.iscomplexobj(m) else m)):
            raise DomainError(f"{name} contains non-finite entries")
    y = h @ x
    if noise is not None:
        w = np.asarray(noise)
        if w.shape != y.shape:
            raise DimensionError(f"noise shape {w.shape} != output shape {y.shape}")
        if not np.all(np.isfinite(w.view(float) if np.iscomplexobj(w) else w)):
            raise DomainError("noise contains non-finite entries")
        y = y + w
    return y


def average_power_check(ensemble, l: int) -> float:
    """Empirical SNR of an input ensemble: (1 / (l N)) * sum_n trace(X_n X_n^dagger).

    Used by tests to certify that generated codebooks meet the average power
    constraint.  ``ensemble`` is an (N, t, l) array or an iterable of (t, l)
    matrices.
    """
    xs = np.asarray(ensemble)
    if xs.ndim == 2:
        xs = xs[None]
    if xs.ndim != 3 or xs.shape[0] == 0:
        raise DomainError("ensemble must contain at least one t x l matrix")
    l = _as_count("l", l)
    energy = np.sum(np.abs(xs) ** 2)
    return float(energy / (l * xs.shape[0]))


# ---------------------------------------------------------------------------
# Regularized incomplete gamma.  P(k, x) is also the CDF of trace(H^dagger H)
# with k = r*t, which is why it lives next to the channel sampler.
# ---------------------------------------------------------------------------

def _check_gamma_args(k, x):
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise DomainError(f"shape k must be a positive integer, got {k!r}")
    if k < 1:
        raise DomainError(f"shape k must be >= 1, got {k}")
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    return int(k), float(x)


def gamma_lower_regularized(k: int, x: float) -> float:
    """P(k, x) = integral_0^x u^(k-1) e^(-u) du / (k-1)! for integer k >= 1.

    Evaluated by ``scipy.special.gammainc``; relative accuracy around 1e-14,
    comfortably inside the 1e-12 target.
    """
    k, x = _check_gamma_args(k, x)
    if x == 0.0:
        return 0.0
    return float(special.gammainc(k, x))


def gamma_upper_regularized(k: int, x: float) -> float:
    """Q(k, x) = 1 - P(k, x), by ``scipy.special.gammaincc`` (no cancellation)."""
    k, x = _check_gamma_args(k, x)
    if x == 0.0:
        return 1.0
    return float(special.gammaincc(k, x))
