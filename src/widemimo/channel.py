"""Rayleigh block-fading channel kernel.

Defined here: channel dimensions, the PCG64 streams every oracle draws from,
the regularized incomplete gamma functions the closed forms use, and the
complex-Gaussian convention.

Convention, fixed once for the whole package: CN(0, 1) means a circularly
symmetric complex Gaussian with *total* variance 1, i.e. independent real and
imaginary parts of variance 1/2 each.  Implementations in the wild often
differ by a factor of 2; the test suite pins this one down.  No oracle draws
CN entries: each draws only the Gamma statistic its estimand depends on.
``sample_channel_matrix`` serves the benchmark's channel-sampling layer
metric and ``test_channel.py``; ``_sample_cn`` is the explicit construction
that ``test_oracles.py``'s ``TestSamplerLaws`` checks those samplers against.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import cython_special

from .errors import DimensionError, DomainError

__all__ = [
    "ChannelDims",
    "RngStream",
    "sample_channel_matrix",
    "gamma_lower_regularized",
    "gamma_upper_regularized",
]

_MASK64 = (1 << 64) - 1
_FLOAT_MAX = sys.float_info.max


def _count(name, value, minimum=1, error=DomainError) -> int:
    """A count argument such as t, r, k or n, as an int; numpy integers pass, bools do not.

    Counts stay within float max, since the closed forms take them as
    floats.  The refusal text is built only on failure, and never formats
    the digits of a value past the float range: an int of more than 4300
    digits cannot be formatted, so it is shown by its bit length.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and minimum <= value <= _FLOAT_MAX):
        if not integer:
            raise error(f"{name} must be an integer, got {value!r}")
        bits = int(value).bit_length()
        if value > _FLOAT_MAX:
            raise error(f"{name} must be at most {_FLOAT_MAX:g}, got a {bits}-bit integer")
        shown = value if value >= -_FLOAT_MAX else f"a negative {bits}-bit integer"
        raise error(f"{name} must be >= {minimum}, got {shown}")
    return int(value)


@dataclass(frozen=True)
class ChannelDims:
    """Antenna counts and coherence length: t transmit, r receive, l symbols per block.

    A plain int in [1, sys.float_info.max] is kept; any other count goes
    through ``_count``, which rejects it or makes it an int.  r*t must
    stay in the float range too, as the Gallager forms take it.  Counts only:
    the training scheme's l > t is checked by ``reliability._training_domain``.
    """

    t: int
    r: int
    l: int

    def __post_init__(self):
        for name, value in (("t", self.t), ("r", self.r), ("l", self.l)):
            if type(value) is not int or not 1 <= value <= _FLOAT_MAX:
                object.__setattr__(self, name, _count(name, value, error=DimensionError))
        _count("r*t", self.r * self.t, error=DimensionError)


@dataclass(frozen=True)
class RngStream:
    """Random stream: (seed, stream_id) fully determines all draws.

    ``generator(block=i)`` is a PCG64 generator seeded by a ``SeedSequence``
    with entropy ``seed`` and spawn key ``(stream_id, i)``, numpy's way of
    deriving independent streams (O'Neill 2014).  Every (stream_id, block)
    pair gets its own stream, so work can be chunked across threads with
    results independent of the partitioning.
    """

    seed: int
    stream_id: int = 0

    def generator(self, block: int = 0) -> np.random.Generator:
        seq = np.random.SeedSequence(
            self.seed & _MASK64, spawn_key=(self.stream_id & _MASK64, block)
        )
        return np.random.Generator(np.random.PCG64(seq))


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
    count = _count("count", count, error=DimensionError)
    return _sample_cn(gen, (count, dims.r, dims.t))


# ---------------------------------------------------------------------------
# Regularized incomplete gamma.  P(k, x) is also the CDF of trace(H^dagger H)
# with k = r*t, which is why it lives next to the channel sampler.
# ---------------------------------------------------------------------------

def _check_gamma_args(k, x):
    k = _count("k", k)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    return k, float(x)


def gamma_lower_regularized(k: int, x: float) -> float:
    """P(k, x) = integral_0^x u^(k-1) e^(-u) du / (k-1)! for integer k >= 1.

    Evaluated by ``scipy.special.cython_special.gammainc``, the scalar kernel
    of the ``scipy.special.gammainc`` ufunc: the same bits, returned as a
    float without the ufunc's array dispatch.  Relative accuracy is around
    1e-14, comfortably inside the 1e-12 target.
    """
    k, x = _check_gamma_args(k, x)
    return cython_special.gammainc(k, x)


def gamma_upper_regularized(k: int, x: float) -> float:
    """Q(k, x) = 1 - P(k, x), by ``scipy.special.cython_special.gammaincc`` (no cancellation).

    The scalar kernel of the ``scipy.special.gammaincc`` ufunc, as for
    ``gamma_lower_regularized``.
    """
    k, x = _check_gamma_args(k, x)
    return cython_special.gammaincc(k, x)
