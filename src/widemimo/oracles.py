"""Independent Monte Carlo oracles used to validate every closed form.

Each oracle samples only the statistic its estimand depends on, drawn equal in
law to the textbook construction.  Coherent MI and the Gallager function
depend on the r x t CN(0,1) channel H only through the smaller Gram matrix
W ~ CW_p(q, I), p = min(t, r), q = max(t, r) (Telatar 1999), which is drawn
through its complex Bartlett factor; the outage tail depends on k CN(0,1)
entries only through their energy, a Gamma(k, 1) variate, and so does the
on-off mutual information on the r received entries' energy.

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
from .channel import (
    ChannelDims,
    RngStream,
    _positive_int,
    _sample_cn,
    gamma_lower_regularized,
    gamma_upper_regularized,
)
from .errors import DomainError

__all__ = [
    "OracleEstimate",
    "mc_coherent_mi",
    "mc_e0_exact",
    "mc_e0_curve",
    "mc_onoff_mi",
    "empirical_tail_cdf",
]

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_CHUNK = 1 << 16
# Counter-block offsets inside one stream: chunks of the secondary and tertiary
# sample sets must never collide with primary chunks or with each other.
_BLOCK_SECONDARY = 1 << 20
_BLOCK_TAIL = 2 * _BLOCK_SECONDARY
# Off-branch strata of ``mc_onoff_mi``: the cut as a fraction of the crossing
# radius, and the share of the off draws that goes past the cut.  Chosen from
# the 99% interval's coverage over 200 seeds at n = 1e5 on r in {1, 2},
# snr in {1e-2, 1e-3}, A in {10, 20, 50}: fractions 0.6 to 0.8 with shares
# 1/8 to 1/2 missed 0.8% to 1.9% of (point, seed) pairs, and this pair missed
# 1.2% with the least skewed standardized error (skewness +0.05).
_CUT_FRACTION = 0.7
_TAIL_SHARE = 1 / 8


@dataclass(frozen=True)
class OracleEstimate:
    """Monte Carlo estimate with a 99% confidence interval.

    estimator is "mean" for plain sample means and "log-of-mean" where the
    reported value is -log of a mean.  In the latter case std_error is the
    delta-method standard error of the log, and from n >= 1e5 on the
    interval is the wider of the delta interval and the 99% percentile
    interval of the bootstrap with infinitely many resamples.  That bootstrap
    law is taken in closed form by the saddlepoint method of Davison &
    Hinkley (1988, Biometrika 75:417-431) with the tail formula of Lugannani
    & Rice (1980), so no resampling is done.
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


def _check_n(n, minimum) -> int:
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
    if not snr >= 0.0:
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


def _tail_excess(s, prob, n, tilt):
    """Lugannani-Rice P(mean of n draws <= K'(s)) minus prob.

    ``tilt`` is the moment function of ``_bootstrap_mean_quantiles``.  It is
    module level, with the sample reached only through the call's
    arguments: brentq keeps the function it solves in a reference cycle, and
    a closure over the n-length buffers would hold them until the next
    garbage collection.
    """
    legendre, variance, _ = tilt(s)
    r = math.copysign(math.sqrt(2.0 * n * max(legendre, 0.0)), s)
    v = s * math.sqrt(n * variance)
    density = math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)
    return 0.5 * math.erfc(-r / math.sqrt(2.0)) + density * (1.0 / r - 1.0 / v) - prob


def _bootstrap_mean_quantiles(weights: np.ndarray, se_mean: float) -> tuple[float, float]:
    """0.5% and 99.5% quantiles of the bootstrap law of the mean of weights.

    The law is that of the mean of n draws with replacement from the n
    weights, i.e. the bootstrap with infinitely many resamples.  Its tails
    follow Davison & Hinkley (1988), "Saddlepoint approximations in
    resampling methods": the Lugannani & Rice (1980) formula applied to the
    empirical cumulant generating function K(s) = log mean exp(s (w - mean)).
    Each quantile is the mean of the weights exponentially tilted by the root
    s of "tail = alpha".  The root is bracketed from the normal-limit guess
    z_alpha / (se_mean n), se_mean > 0 the standard error of the sample mean,
    by doubling or halving s until the sign changes, then refined by Brent's
    method.  One evaluation is a few passes over the sample through two
    reused n-length buffers.
    """
    from scipy import optimize

    n = len(weights)
    w_lo, w_hi = float(weights.min()), float(weights.max())
    offset, factor = np.empty(n), np.empty(n)

    tilts = {}  # s -> tilt(s); Brent's method re-evaluates the bracket ends

    def tilt(s):
        """(s K'(s) - K(s), K''(s), tilted mean) from moments about the extreme s favours.

        Offsets from that extreme have one sign, so exp(s offset) <= 1 never
        overflows and the variance is a sum of non-negative terms.
        """
        if s not in tilts:
            edge = w_hi if s > 0.0 else w_lo
            np.subtract(weights, edge, out=offset)
            np.multiply(offset, s, out=factor)
            np.exp(factor, out=factor)
            total = float(factor.sum())
            shift = float(offset @ factor) / total
            np.subtract(offset, shift, out=offset)
            np.multiply(factor, offset, out=factor)
            variance = float(offset @ factor) / total
            tilts[s] = (s * shift - math.log(total / n), variance, edge + shift)
        return tilts[s]

    quantiles = []
    for prob, z, extreme in ((0.005, -_Z99, w_lo), (0.995, _Z99, w_hi)):
        args = (prob, n, tilt)
        inner = z / (se_mean * n)
        below = _tail_excess(inner, *args) < 0.0
        step = 2.0 if below == (inner > 0.0) else 0.5
        outer = inner * step
        while tilt(outer)[1] > 0.0 and (_tail_excess(outer, *args) < 0.0) == below:
            inner, outer = outer, outer * step
        if tilt(outer)[1] > 0.0:
            root = optimize.brentq(_tail_excess, *sorted((inner, outer)), args=args, rtol=1e-8)
            quantiles.append(tilt(root)[2])
        else:
            # The tilt collapsed onto the extreme value before the tail
            # reached alpha: the atom there holds more than alpha of the law.
            quantiles.append(extreme)
    return quantiles[0], quantiles[1]


def _log_of_mean_estimate(weights: np.ndarray) -> OracleEstimate:
    """-log(mean) with a delta-method CI, widened by the bootstrap when n >= 1e5.

    The weights can spread over many orders of magnitude for long blocks,
    where the delta interval is too symmetric.  From n >= 1e5 on, the 99%
    percentile interval of the bootstrap with infinitely many resamples is
    taken alongside the delta interval, and the wider of the two is
    reported.  That bootstrap law comes from the saddlepoint method of
    Davison & Hinkley (1988) with the Lugannani & Rice (1980) tail formula
    (see ``_bootstrap_mean_quantiles``); -log maps its 99.5% quantile to the
    interval's low end.
    """
    n = len(weights)
    mean = float(weights.mean())
    se_mean = float(weights.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    value = -math.log(mean)
    se = se_mean / mean
    lo, hi = value - _Z99 * se, value + _Z99 * se
    if n >= 100_000 and se_mean > 0.0:
        q_lo, q_hi = _bootstrap_mean_quantiles(weights, se_mean)
        lo = min(lo, -math.log(q_hi))
        hi = max(hi, -math.log(q_lo) if q_lo > 0.0 else math.inf)
    return OracleEstimate(value, se, n, lo, hi, estimator="log-of-mean")


def mc_e0_exact(
    dims: ChannelDims, snr_b: float, rho: float, n: int, rng: RngStream, threads: int = 1
) -> OracleEstimate:
    """Exact coherent Gallager function by sampling:
    -log E[det(I + snr_b/(t(1+rho)) H^dagger H)^(-rho l)].

    The determinant is sampled as its equal-in-law det(I + c W), W the
    min(t, r) Gram matrix drawn through its Bartlett factor.
    """
    return mc_e0_curve(dims, snr_b, [rho], n, rng, threads)[0]


def mc_e0_curve(
    dims: ChannelDims, snr_b: float, rhos, n: int, rng: RngStream, threads: int = 1
) -> list[OracleEstimate]:
    """The sampled Gallager function of ``mc_e0_exact`` on a rho grid, one set of draws.

    Sharing draws leaves each estimate identical in law to a standalone run
    while the Gram draws are made once; estimates across the grid are
    positively correlated, which is harmless for one-sided bound checks.
    """
    n = _check_n(n, minimum=1000)
    if not snr_b > 0.0:
        raise DomainError(f"snr_b must be > 0, got {snr_b}")
    rho_list = [float(rho) for rho in rhos]
    for rho in rho_list:
        if not 0.0 <= rho <= 1.0:
            raise DomainError(f"rho must be in [0, 1], got {rho}")
    live = [rho for rho in rho_list if rho > 0.0]
    columns = iter(_e0_weights(dims, snr_b, live, n, rng, threads).T if live else ())
    zero = OracleEstimate(0.0, 0.0, n, 0.0, 0.0, estimator="log-of-mean")
    return [_log_of_mean_estimate(next(columns)) if rho > 0.0 else zero for rho in rho_list]


def _gamma_below(r: int, cut: float, p_below: float):
    """Chunk sampler of Gamma(r, 1) conditioned on z <= cut, by rejection.

    p_below = P(r, cut) sizes each pass (16 spare draws keep a short
    remainder from needing many passes); the loop draws until m draws are
    kept.  It reads only the chunk's own generator, so a chunk is the same
    whichever thread runs it.
    """

    def chunk(gen, m):
        kept, got = [], 0
        while got < m:
            z = gen.standard_gamma(r, math.ceil((m - got) / p_below) + 16)
            z = z[z <= cut]
            kept.append(z)
            got += len(z)
        return np.concatenate(kept)[:m]

    return chunk


def _gamma_above(r: int, cut: float):
    """Chunk sampler of Gamma(r, 1) conditioned on z > cut, cut > 0, drawn exactly.

    Given z > cut, x = z - cut has density proportional to
    (cut + x)^(r-1) e^(-x) = sum_j C(r-1, j) cut^(r-1-j) x^j e^(-x), a mixture
    of Gamma(j + 1, 1) laws with weights C(r-1, j) cut^(r-1-j) j!, formed in
    log space.  For r = 1 that is cut + Exp(1).
    """
    log_w = np.array(
        [math.lgamma(r) - math.lgamma(r - j) + (r - 1 - j) * math.log(cut) for j in range(r)]
    )
    probs = np.exp(log_w - log_w.max())
    probs /= probs.sum()

    def chunk(gen, m):
        shape = gen.choice(r, size=m, p=probs) + 1.0 if r > 1 else 1.0
        return cut + gen.standard_gamma(shape, m)

    return chunk


def _stratified_estimate(strata, n: int, exact: float = 0.0) -> OracleEstimate:
    """exact plus the weighted sum of stratum means; the variance adds with the
    squared weights.

    strata holds (weight, values) pairs.
    """
    mean = exact + sum(w * float(v.mean()) for w, v in strata)
    se = math.sqrt(sum(w * w * float(v.var(ddof=1)) / len(v) for w, v in strata))
    half = _Z99 * se
    return OracleEstimate(mean, se, n, mean - half, mean + half)


def mc_onoff_mi(
    r: int, snr: float, amplitude_sq: float, n: int, rng: RngStream, threads: int = 1
) -> OracleEstimate:
    """Mutual information of on-off signaling by stratified sampling.

    Per sample the estimate is log p(y|x) - log p(y).  Both branches depend
    on y only through z = |y|^2: Gamma(r, 1) when off, (1 + A) Gamma(r, 1)
    when on, drawn as Gamma variates.  With the weighted log-ratio
    u(z) = log(omega p_on(z) / ((1 - omega) p_off(z))) = (z - z_x) A/(1 + A),
    zero at the crossing radius z_x, the off value is
    -log(1 - omega) - log(1 + e^u) and the on value -log(omega) - log(1 + e^-u).
    Each log(1 + e^(+-u)) is the hinge max(+-u, 0), whose mean is exact
    (``_mean_excess``), plus the remainder log(1 + e^-|u|) in (0, log 2],
    which is the only sampled part.

    The two branches get half the budget each and are recombined with their
    probabilities 1 - omega and omega.  The remainder peaks at z_x, which the
    off branch rarely reaches, so the off branch is split at a cut
    c = _CUT_FRACTION z_x into two strata:
    - bulk, z <= c: Gamma draws with in-chunk rejection.  There u < 0 and the
      remainder is e^u - (e^u - log(1 + e^u)); the first term's mean is exact,
      (1 - omega) E[e^u; z <= c] = omega P(r, c/(1 + A)), so only the second,
      below e^(2u)/2, is sampled;
    - tail, z > c: _TAIL_SHARE of the off draws, drawn exactly as c plus a
      Gamma mixture (see ``_gamma_above``).
    The strata are weighted by Q = Q(r, c) and 1 - Q, and their variances add
    with the same weights.  When Q is not below the tail share (the crossing
    is not rare), the off branch is one plain stratum.
    """
    n = _check_n(n, minimum=10_000)
    r = _positive_int("r", r)
    if not (snr == 0.0 or 0.0 < snr < amplitude_sq):
        raise DomainError(f"need amplitude_sq > snr >= 0, got A={amplitude_sq}, snr={snr}")
    if snr == 0.0:
        return OracleEstimate(0.0, 0.0, n, 0.0, 0.0)
    a = float(amplitude_sq)
    omega = snr / a
    slope = a / (1.0 + a)
    # u = slope z - lam off, and a g - lam on with z = (1 + A) g
    lam = r * math.log1p(a) + math.log1p(-omega) - math.log(omega)
    z_x, g_x = lam / slope, lam / a
    n_on = n // 2
    n_off = n - n_on
    hinge_on = g_x - r + _mean_excess(r, g_x) if g_x > 0.0 else 0.0
    exact = (
        -(1.0 - omega) * (math.log1p(-omega) + slope * _mean_excess(r, z_x))
        - omega * (math.log(omega) + a * hinge_on)
    )

    def plain(gen, m):
        return gen.standard_gamma(r, m)

    def remainder(x, scale):
        # log(1 + e^-|u|), u = scale x - lam, in place
        x *= scale
        x -= lam
        x = np.negative(np.abs(x, out=x), out=x)
        return np.log1p(np.exp(x, out=x), out=x)

    cut = _CUT_FRACTION * z_x
    q = gamma_upper_regularized(r, cut) if cut > 0.0 else 1.0
    if q < _TAIL_SHARE:
        n_tail = int(n_off * _TAIL_SHARE)
        bulk = _collect(_gamma_below(r, cut, 1.0 - q), n_off - n_tail, rng, threads)
        tail = _collect(_gamma_above(r, cut), n_tail, rng, threads, block_base=_BLOCK_TAIL)
        bulk *= slope
        bulk -= lam
        e_u = np.exp(bulk, out=bulk)
        exact -= omega * gamma_lower_regularized(r, cut / (1.0 + a))
        off = [(-(1.0 - q), e_u - np.log1p(e_u)), (q, remainder(tail, slope))]
    else:
        off = [(1.0, remainder(_collect(plain, n_off, rng, threads), slope))]
    on = remainder(_collect(plain, n_on, rng, threads, block_base=_BLOCK_SECONDARY), a)
    strata = [(-(1.0 - omega) * w, v) for w, v in off] + [(-omega, on)]
    return _stratified_estimate(strata, n, exact)


def _mean_excess(r: int, x: float) -> float:
    """E[max(z - x, 0)] for z ~ Gamma(r, 1): sum_{k=1..r} Q(k, x) when x > 0."""
    if x <= 0.0:
        return r - x
    return sum(gamma_upper_regularized(k, x) for k in range(1, r + 1))


def empirical_tail_cdf(
    k: int, x: float, n: int, rng: RngStream, threads: int = 1
) -> OracleEstimate:
    """Fraction of draws of sum_{i<=k} |CN(0,1)|^2 falling below x, with binomial CI.

    The sum is drawn directly as its equal-in-law Gamma(k, 1) variate.  The
    interval is the normal approximation except at 0 or n hits, where the
    exact binomial bound 1 - (alpha/2)^(1/n) replaces the degenerate endpoint.
    """
    n = _check_n(n, minimum=1000)
    k = _positive_int("k", k)
    if not x >= 0.0:
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
