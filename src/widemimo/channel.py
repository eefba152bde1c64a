"""Rayleigh block-fading channel kernel.

Everything downstream rests on two things defined here: the complex-Gaussian
convention and the regularized lower incomplete gamma function.

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
    "gamma_lower_regularized",
    "gamma_upper_regularized",
]

_MASK64 = (1 << 64) - 1
# Counter stride between logical blocks of one stream.  A block never consumes
# anywhere near 2**40 variates, so blocks cannot overlap.
_BLOCK_STRIDE = 1 << 40


def _as_count(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DimensionError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise DimensionError(f"{name} must be >= 1, got {value}")
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


# ---------------------------------------------------------------------------
# Regularized incomplete gamma.  P(k, x) is also the CDF of trace(H^dagger H)
# with k = r*t, which is why it lives next to the channel sampler.
# ---------------------------------------------------------------------------

def _check_gamma_args(k, x):
    k = _positive_int("k", k)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    return k, float(x)


def gamma_lower_regularized(k: int, x: float) -> float:
    """P(k, x) = integral_0^x u^(k-1) e^(-u) du / (k-1)! for integer k >= 1.

    Evaluated by ``scipy.special.gammainc``; relative accuracy around 1e-14,
    comfortably inside the 1e-12 target.
    """
    k, x = _check_gamma_args(k, x)
    return float(special.gammainc(k, x))


def gamma_upper_regularized(k: int, x: float) -> float:
    """Q(k, x) = 1 - P(k, x), by ``scipy.special.gammaincc`` (no cancellation)."""
    k, x = _check_gamma_args(k, x)
    return float(special.gammaincc(k, x))
