"""Independent Monte Carlo oracles used to validate every closed form.

Each oracle samples only the statistic its estimand depends on, drawn equal in
law to the textbook construction.  Coherent MI and the Gallager function
depend on the r x t CN(0,1) channel H only through the smaller Gram matrix
W ~ CW_p(q, I), p = min(t, r), q = max(t, r) (Telatar 1999), which is drawn
through its complex Bartlett factor; the outage tail depends on k CN(0,1)
entries only through their energy, a Gamma(k, 1) variate.

Determinism contract: an estimate depends only on (seed, stream_id, n).  Work
is cut into fixed-size chunks, each drawn from its own counter block of the
stream, so the result is bit-identical whether chunks run on one thread or
many.  Density evaluations happen in log space throughout; no probability
that could underflow ever reaches a subtraction.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelDims, RngStream, _sample_cn
from .errors import DomainError

__all__ = [
    "OracleEstimate",
    "SlopeFit",
    "mc_coherent_mi",
    "mc_e0_exact",
    "mc_e0_curve",
    "mc_onoff_mi",
    "empirical_tail_cdf",
    "slope_fit",
]

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_CHUNK = 1 << 16
# Counter-block offsets inside one stream: chunks of the secondary sample set
# and the bootstrap resampler must never collide with primary chunks.
_BLOCK_SECONDARY = 1 << 20
_BLOCK_BOOTSTRAP = 1 << 21


@dataclass(frozen=True)
class OracleEstimate:
    """Monte Carlo estimate with a 99% confidence interval.

    estimator is "mean" for plain sample means and "log-of-mean" where the
    reported value is -log of a mean; in the latter case std_error and the
    interval are propagated through the log (delta method, widened by a
    bootstrap when the sample is large enough).
    """

    mean: float
    std_error: float
    n_samples: int
    ci99_low: float
    ci99_high: float
    estimator: str = "mean"

    @property
    def ci99_half(self) -> float:
        return 0.5 * (self.ci99_high - self.ci99_low)

    def contains(self, value: float) -> bool:
        return self.ci99_low <= value <= self.ci99_high


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least squares line fit; residual is the sum of squared errors."""

    slope: float
    intercept: float
    residual: float


def _check_n(n, minimum=2) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < minimum:
        raise DomainError(f"n must be an integer >= {minimum}, got {n!r}")
    return int(n)


def _collect(chunk_fn, n, rng, threads, block_base=0):
    """Stack per-chunk draws along axis 0; identical for any thread count.

    ``chunk_fn(gen, m)`` returns m rows: a vector for one value per sample, or
    an (m, width) array for several values that share the draws.
    """
    sizes = [min(_CHUNK, n - start) for start in range(0, n, _CHUNK)]

    def run(i):
        return chunk_fn(rng.generator(block=block_base + i), sizes[i])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, range(len(sizes))))
    else:
        parts = [run(i) for i in range(len(sizes))]
    return np.concatenate(parts)


def _mean_estimate(values: np.ndarray) -> OracleEstimate:
    n = len(values)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    half = _Z99 * se
    return OracleEstimate(mean, se, n, mean - half, mean + half)


def _wishart_logdet(gen, m, t, r, coeffs):
    """log det(I + c W) for m draws of W ~ CW_p(q, I), one column per c in coeffs.

    W = L L^dagger with the complex Bartlett factor L: lower triangular,
    L_ii^2 ~ Gamma(q - i, 1) for i = 0..p-1 and L_ij ~ CN(0, 1) below the
    diagonal.  It has the law of the smaller Gram side of an r x t CN(0, 1)
    channel.  For p <= 2 the determinant is a polynomial in the factor's
    entries, so no matrix is formed:
    p = 1: 1 + c d0;  p = 2: 1 + c (d0 + d1 + |z|^2) + c^2 d0 d1.
    The draws do not depend on coeffs, so every column shares them.
    """
    p, q = min(t, r), max(t, r)
    diag = [gen.standard_gamma(q - i, m) for i in range(p)]
    if p == 1:
        return np.stack([np.log1p(c * diag[0]) for c in coeffs], axis=1)
    if p == 2:
        lin = diag[0] + diag[1] + gen.standard_exponential(m)  # |z|^2 ~ Exp(1)
        quad = diag[0] * diag[1]
        return np.stack([np.log1p(c * lin + (c * c) * quad) for c in coeffs], axis=1)
    factor = np.zeros((m, p, p), dtype=complex)
    rows, cols = np.diag_indices(p)
    factor[:, rows, cols] = np.sqrt(np.stack(diag, axis=1))
    rows, cols = np.tril_indices(p, -1)
    factor[:, rows, cols] = _sample_cn(gen, (m, len(rows)))
    lam = np.linalg.eigvalsh(factor @ factor.conj().transpose(0, 2, 1))
    return np.stack([np.log1p(c * lam).sum(axis=1) for c in coeffs], axis=1)


def mc_coherent_mi(
    dims: ChannelDims, snr: float, n: int, rng: RngStream, threads: int = 1
) -> OracleEstimate:
    """Sample mean of log det(I + (snr/t) H^dagger H) over channel draws.

    Samples the equal-in-law log det(I + (snr/t) W) with W the min(t, r) Gram
    matrix drawn through its Bartlett factor (see ``_wishart_logdet``): a
    closed form for p <= 2, eigenvalues of the p x p matrix above that.
    """
    n = _check_n(n, minimum=1000)
    if snr < 0.0:
        raise DomainError(f"snr must be >= 0, got {snr}")
    t, r = dims.t, dims.r
    coeffs = [snr / t]

    def chunk(gen, m):
        return _wishart_logdet(gen, m, t, r, coeffs)[:, 0]

    return _mean_estimate(_collect(chunk, n, rng, threads))


def _e0_weights(dims, snr_b, rho_list, n, rng, threads):
    """Per-sample det(I + c W)^(-rho l), c = snr_b/(t(1+rho)); one column per rho, shared draws."""
    t, r, l = dims.t, dims.r, dims.l
    coeffs = [snr_b / (t * (1.0 + rho)) for rho in rho_list]
    scales = np.array([-rho * l for rho in rho_list])

    def chunk(gen, m):
        return np.exp(scales * _wishart_logdet(gen, m, t, r, coeffs))

    return _collect(chunk, n, rng, threads)


def _log_of_mean_estimate(weights: np.ndarray, rng: RngStream) -> OracleEstimate:
    """-log(mean) with a delta-method CI, widened by a bootstrap when n >= 1e5.

    The weights can spread over many orders of magnitude for long blocks, so
    a 200-resample bootstrap percentile interval is taken alongside the delta
    interval and the wider of the two is reported.
    """
    n = len(weights)
    mean = float(weights.mean())
    se_mean = float(weights.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    value = -math.log(mean)
    se = se_mean / mean
    lo, hi = value - _Z99 * se, value + _Z99 * se
    if n >= 100_000 and se_mean > 0.0:
        gen = rng.generator(block=_BLOCK_BOOTSTRAP)
        stats = np.empty(200)
        for b in range(200):
            idx = gen.integers(0, n, n)
            stats[b] = -math.log(weights[idx].mean())
        blo, bhi = np.percentile(stats, [0.5, 99.5])
        lo, hi = min(lo, float(blo)), max(hi, float(bhi))
    return OracleEstimate(value, se, n, lo, hi, estimator="log-of-mean")


def mc_e0_exact(
    dims: ChannelDims, snr_b: float, rho: float, n: int, rng: RngStream, threads: int = 1
) -> OracleEstimate:
    """Exact coherent Gallager function by sampling:
    -log E[det(I + snr_b/(t(1+rho)) H^dagger H)^(-rho l)].

    The determinant is sampled as its equal-in-law det(I + c W), W the
    min(t, r) Gram matrix drawn through its Bartlett factor.
    """
    n = _check_n(n, minimum=1000)
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must be in [0, 1], got {rho}")
    if snr_b <= 0.0:
        raise DomainError(f"snr_b must be > 0, got {snr_b}")
    if rho == 0.0:
        return OracleEstimate(0.0, 0.0, n, 0.0, 0.0, estimator="log-of-mean")
    weights = _e0_weights(dims, snr_b, [rho], n, rng, threads)[:, 0]
    return _log_of_mean_estimate(weights, rng)


def mc_e0_curve(
    dims: ChannelDims, snr_b: float, rhos, n: int, rng: RngStream, threads: int = 1
) -> list[OracleEstimate]:
    """mc_e0_exact on a rho grid sharing one set of channel draws.

    Sharing draws leaves each estimate identical in law to a standalone run
    while the Gram draws are made once; estimates across the grid are
    positively correlated, which is harmless for one-sided bound checks.
    """
    n = _check_n(n, minimum=1000)
    if snr_b <= 0.0:
        raise DomainError(f"snr_b must be > 0, got {snr_b}")
    rho_list = [float(rho) for rho in rhos]
    for rho in rho_list:
        if not 0.0 <= rho <= 1.0:
            raise DomainError(f"rho must be in [0, 1], got {rho}")
    live = [rho for rho in rho_list if rho > 0.0]
    weights = _e0_weights(dims, snr_b, live, n, rng, threads) if live else None
    out = []
    col = 0
    for rho in rho_list:
        if rho == 0.0:
            out.append(OracleEstimate(0.0, 0.0, n, 0.0, 0.0, estimator="log-of-mean"))
        else:
            out.append(_log_of_mean_estimate(weights[:, col], rng))
            col += 1
    return out


def mc_onoff_mi(
    r: int, snr: float, amplitude_sq: float, n: int, rng: RngStream, threads: int = 1
) -> OracleEstimate:
    """Mutual information of on-off signaling by stratified sampling.

    The two mixture branches are sampled separately (half the budget each)
    and recombined with their true probabilities; without stratification the
    on branch would get only ~n snr / A samples.  Per sample the estimate is
    log p(y|x) - log p(y) with the mixture evaluated by log-sum-exp.

    Caveat on the interval: at extreme peakiness the off branch crosses into
    the on-dominated region only O(1) times per million samples, and those
    rare crossings carry most of the variance.  Runs that happen to see none
    of them report an overconfident interval, so measured CI coverage can
    drop a few points below the nominal 99% there.

    Each branch depends on y only through |y|^2, a scaled Gamma(r, 1)
    variate, yet this oracle still draws the 2r normals: a Gamma draw of the
    same law changes which seeds see a crossing, and the fix for the interval
    (stratifying the crossing region) should come with that switch.
    """
    n = _check_n(n, minimum=10_000)
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or r < 1:
        raise DomainError(f"r must be a positive integer, got {r!r}")
    if snr < 0.0 or (snr > 0.0 and not snr < amplitude_sq):
        raise DomainError(f"need amplitude_sq > snr >= 0, got A={amplitude_sq}, snr={snr}")
    if snr == 0.0:
        return OracleEstimate(0.0, 0.0, n, 0.0, 0.0)
    a = float(amplitude_sq)
    omega = snr / a
    log_w = (math.log1p(-omega), math.log(omega))
    n_on = n // 2
    n_off = n - n_on

    def branch_chunk(on):
        scale = 1.0 + a if on else 1.0

        def chunk(gen, m):
            y = _sample_cn(gen, (m, int(r))) * math.sqrt(scale)
            norm2 = (y.real**2 + y.imag**2).sum(axis=1)
            # log densities up to the common -r log(pi), which cancels
            lp_off = -norm2
            lp_on = -r * math.log1p(a) - norm2 / (1.0 + a)
            lp_mix = np.logaddexp(log_w[0] + lp_off, log_w[1] + lp_on)
            return (lp_on if on else lp_off) - lp_mix

        return chunk

    vals_off = _collect(branch_chunk(False), n_off, rng, threads)
    vals_on = _collect(branch_chunk(True), n_on, rng, threads, block_base=_BLOCK_SECONDARY)
    m_off, m_on = float(vals_off.mean()), float(vals_on.mean())
    v_off = float(vals_off.var(ddof=1))
    v_on = float(vals_on.var(ddof=1))
    mean = (1.0 - omega) * m_off + omega * m_on
    se = math.sqrt((1.0 - omega) ** 2 * v_off / n_off + omega**2 * v_on / n_on)
    half = _Z99 * se
    return OracleEstimate(mean, se, n, mean - half, mean + half)


def empirical_tail_cdf(
    k: int, x: float, n: int, rng: RngStream, threads: int = 1
) -> OracleEstimate:
    """Fraction of draws of sum_{i<=k} |CN(0,1)|^2 falling below x, with binomial CI.

    The sum is drawn directly as its equal-in-law Gamma(k, 1) variate.  The
    interval is the normal approximation except at 0 or n hits, where the
    exact binomial bound 1 - (alpha/2)^(1/n) replaces the degenerate endpoint.
    """
    n = _check_n(n, minimum=1000)
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    if x < 0.0:
        raise DomainError(f"x must be >= 0, got {x}")

    def chunk(gen, m):
        return (gen.standard_gamma(k, m) < x).astype(float)

    hits = _collect(chunk, n, rng, threads)
    p = float(hits.mean())
    se = math.sqrt(p * (1.0 - p) / n)
    edge = -math.expm1(math.log(0.005) / n)
    if p == 0.0:
        lo, hi = 0.0, edge
    elif p == 1.0:
        lo, hi = 1.0 - edge, 1.0
    else:
        lo, hi = p - _Z99 * se, p + _Z99 * se
    return OracleEstimate(p, se, n, lo, hi)


def slope_fit(points) -> SlopeFit:
    """Least-squares line through (x, y) pairs; needs two distinct abscissae."""
    pts = [(float(x), float(y)) for x, y in points]
    if len({x for x, _ in pts}) < 2:
        raise DomainError("slope_fit needs at least 2 distinct abscissae")
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(((ys - (slope * xs + intercept)) ** 2).sum())
    return SlopeFit(slope=float(slope), intercept=float(intercept), residual=resid)
