"""Independent Monte Carlo oracles used to validate every closed form.

Each oracle samples only the statistic its estimand depends on, drawn equal in
law to the textbook construction.  Coherent MI and the Gallager function
depend on the r x t CN(0,1) channel H only through the smaller Gram matrix
W ~ CW_p(q, I), p = min(t, r), q = max(t, r) (Telatar 1999), whose
eigenvalues are drawn as those of a real bidiagonal matrix of 2p - 1 Gamma
variates (Dumitriu & Edelman 2002); the outage tail depends on k CN(0,1)
entries only through their energy, a Gamma(k, 1) variate, and so does the
on-off mutual information on the r received entries' energy.  An
integer-shape Gamma(k, 1) is drawn as Exp(1) at k = 1, as -log of a product of
k uniforms on (0, 1] for k = 2..4, where that beats numpy's Marsaglia-Tsang
sampler, and by ``standard_gamma`` above (``_gamma_int``).

Determinism contract: an estimate depends only on (seed, stream_id, n).  Work
is cut into fixed-size chunks, each drawn from its own block of the stream
(``RngStream.generator``) and reduced where it is drawn: a mean-type estimate
keeps only each chunk's (count, mean, M2) and merges them in chunk order
(Chan, Golub & LeVeque 1983), and the tail CDF keeps a hit count.  The
result is bit-identical whether chunks run on one thread or many.  Chunks,
the sweep's oracle-check rows and ``check``'s Monte Carlo calls all run
where ``_map`` puts them: at threads > 1 on the process's one worker pool for
that thread count (``_pool``), else on the caller, as a one-chunk call
always does.  Each worker draws and reduces its chunks inside
one (width, chunk) float64 workspace, a few rows wide, that it allocates
once per oracle call and reuses for every chunk (``_collect``): draws and
ufuncs write into its rows through ``out=``.  Memory is one workspace per
worker whatever n is, and a worker's chunks after its first allocate
nothing and touch no fresh pages.
The Gallager function is a mean of importance weights under exponentially
tilted Wishart draws, reduced the same way, one (count, mean, M2) per rho
column (``mc_e0_curve``), which also gives the weights' effective sample
size.  One-dimensional
sums of products are taken with ``np.einsum`` rather than ``@``, which hands
them to a threaded BLAS ``ddot``.  Density evaluations happen in log space
throughout; no probability that could underflow ever reaches a subtraction.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .channel import ChannelDims, RngStream, _positive_int
from .errors import DomainError
from .iid import _onoff_hinges

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
# Integer shapes from 2 up to this one draw Gamma(k, 1) as -log of a product of
# k uniforms (``_gamma_int``).  Per draw into a reused 2^16 workspace row
# (numpy 2.4.6, 2 vCPUs, medians of 25 alternating rounds, three runs), numpy's
# Marsaglia-Tsang ``standard_gamma`` took 26-32 ns at every shape k = 2-5; the
# product took 8-12, 12-17 and 17-21 ns at k = 2, 3, 4, and 15-20 ns at k = 4
# in the tail CDF's hit test, which takes no log.  At k = 5 it took 20-26 ns,
# and 19-25 ns in the hit test, so it is faster there too; the cut stays at 4
# because moving it would re-draw every k = 5 value.
_PRODUCT_MAX_K = 4


@dataclass(frozen=True)
class OracleEstimate:
    """Monte Carlo estimate with a 99% confidence interval.

    estimator is "mean" for plain sample means and "log-of-mean" where the
    reported value is a constant minus the log of a mean of importance
    weights (the Gallager function); there std_error is the delta-method
    standard error of the log, std(weights)/(sqrt(n) mean), and the interval
    is the value plus or minus _Z99 std_error.  ess is the effective sample
    size (sum w)^2 / sum w^2 of a log-of-mean estimate's weights, between 1
    and n; a plain mean has none.
    """

    mean: float
    std_error: float
    n_samples: int
    ci99_low: float
    ci99_high: float
    estimator: str = "mean"
    ess: float | None = None

    @property
    def ci99_half(self) -> float:
        return 0.5 * (self.ci99_high - self.ci99_low)

    def contains(self, value: float) -> bool:
        return self.ci99_low <= value <= self.ci99_high


def _check_n(n, minimum) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < minimum:
        raise DomainError(f"n must be an integer >= {minimum}, got {n!r}")
    return int(n)


_pools = {}
_pools_lock = threading.Lock()


def _pool(threads):
    """The process's one ``ThreadPoolExecutor(max_workers=threads)``, made on first use.

    Only ``_map`` reaches it, so every threaded caller shares it:
    ``_collect``'s chunks, the sweep's oracle-check rows and ``check``'s
    Monte Carlo calls.  glibc keeps a malloc arena per live worker thread, so
    one set of threads holds the least memory.  Nothing shuts it down.

    One rule keeps it free of deadlock: a task on the pool never waits on the
    pool.  A chunk calls nothing threaded, and sweep rows and ``check``'s
    tasks call the oracles at threads = 1, so nothing nests.  A forked child
    drops the parent's pools, whose threads it does not have (``_drop_pools``).
    """
    pool = _pools.get(threads)
    if pool is None:
        with _pools_lock:
            pool = _pools.get(threads)
            if pool is None:
                pool = _pools[threads] = ThreadPoolExecutor(max_workers=threads)
    return pool


def _drop_pools():
    global _pools, _pools_lock
    _pools, _pools_lock = {}, threading.Lock()


if hasattr(os, "register_at_fork"):  # where processes can fork
    os.register_at_fork(after_in_child=_drop_pools)


def _map(fn, threads, *iterables):
    """``fn`` over ``iterables`` like ``map``, results in input order.

    At threads > 1 every task is submitted to ``_pool(threads)`` at once and
    runs there; otherwise each runs on the caller when its result is read.
    """
    if threads > 1:
        return _pool(threads).map(fn, *iterables)
    return map(fn, *iterables)


def _collect(chunk_fn, n, rng, threads, width):
    """Per-chunk results of ``chunk_fn(gen, work)`` in chunk order; identical for any thread count.

    Chunk i draws m = min(_CHUNK, n - i _CHUNK) samples from block i of the
    stream and reduces them on the worker that drew them, inside ``work``:
    the first m columns of that worker's (width, min(n, _CHUNK)) float64
    workspace.  The chunks go through ``_map``, at ``threads`` when there is
    more than one, so a call of one chunk runs on the caller.  A worker
    allocates its workspace on its first chunk and reuses it for every later
    chunk of this call; calls share none, even when they run at once.  A
    chunk's result must not alias ``work``.  ``threads`` must be a positive
    integer.
    """
    threads = _positive_int("threads", threads)
    sizes = [min(_CHUNK, n - start) for start in range(0, n, _CHUNK)]
    workspaces = threading.local()

    def run(i):
        work = getattr(workspaces, "work", None)
        if work is None:
            work = workspaces.work = np.empty((width, sizes[0]))
        return chunk_fn(rng.generator(block=i), work[:, : sizes[i]])

    return list(_map(run, threads if len(sizes) > 1 else 1, range(len(sizes))))


def _moments(values: np.ndarray, dev: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, M2) of a chunk, M2 the sum of squared deviations from its mean.

    The deviations are written into ``dev``, a row of the same length.
    """
    mean = float(values.mean())
    np.subtract(values, mean, out=dev)
    return len(values), mean, float(np.einsum("i,i->", dev, dev))


def _merge_moments(parts) -> tuple[int, float, float]:
    """Merge chunk moments in order by the pairwise update of Chan, Golub & LeVeque (1983)."""
    n, mean, m2 = 0, 0.0, 0.0
    for count, chunk_mean, chunk_m2 in parts:
        total = n + count
        delta = chunk_mean - mean
        mean += delta * (count / total)
        m2 += chunk_m2 + delta * delta * (n * count / total)
        n = total
    return n, mean, m2


def _sample_variance(moments) -> float:
    n, _, m2 = moments
    return m2 / (n - 1) if n > 1 else 0.0


def _normal_estimate(value, se, n, **extra) -> OracleEstimate:
    """``value`` with its normal 99% interval, value -/+ _Z99 se."""
    half = _Z99 * se
    return OracleEstimate(value, se, n, value - half, value + half, **extra)


def _mean_estimate(moments) -> OracleEstimate:
    n, mean, _ = moments
    return _normal_estimate(mean, math.sqrt(_sample_variance(moments) / n), n)


def _uniform_product(gen, k, out, factor):
    """Products of k independent uniforms on (0, 1], one per entry of ``out``.

    Each factor is 1 - U with U uniform on [0, 1), so no factor is zero and
    -log of the product is finite.  ``factor``, a row of the same length,
    holds each factor after the first.
    """
    gen.random(out=out)
    np.subtract(1.0, out, out=out)
    for _ in range(k - 1):
        gen.random(out=factor)
        np.subtract(1.0, factor, out=factor)
        out *= factor
    return out


def _gamma_int(gen, k, out, scratch):
    """Gamma(k, 1) draws into ``out`` for an integer shape k >= 1.

    k = 1 is ``standard_exponential``; 2 <= k <= _PRODUCT_MAX_K is
    -log of a product of k uniforms on (0, 1] (``_uniform_product``, with
    ``scratch`` as its factor row), the sum of k Exp(1) variates; larger k is
    numpy's ``standard_gamma``.
    """
    if k == 1:
        return gen.standard_exponential(out=out)
    if k > _PRODUCT_MAX_K:
        return gen.standard_gamma(k, out=out)
    _uniform_product(gen, k, out, scratch)
    return np.negative(np.log(out, out=out), out=out)


def _wishart_edges(gen, t, r, edges, scratch):
    """The 2p - 1 Gamma edges of W ~ CW_p(q, I), p = min(t, r), q = max(t, r), one draw per column.

    W has the eigenvalues of B B^T for the real bidiagonal beta = 2 Laguerre
    model of Dumitriu & Edelman (2002, J. Math. Phys. 43): squared diagonal
    d_i ~ Gamma(q - i, 1), i < p, then squared subdiagonal
    s_i ~ Gamma(p - 1 - i, 1), i < p - 1, drawn in that order by ``_gamma_int``
    into the rows of ``edges`` as the path x = (d0, s0, d1, ..., d_{p-1}).
    ``scratch`` is one more row.  tr W is the sum of the edges, and their
    shapes sum to pq.
    """
    p, q = min(t, r), max(t, r)
    for i in range(p):
        _gamma_int(gen, q - i, edges[2 * i], scratch)
    for i in range(p - 1):
        _gamma_int(gen, p - 1 - i, edges[2 * i + 1], scratch)
    return edges


def _wishart_logdet(edges, c, rows):
    """log det(I + c W) from the edges of ``_wishart_edges``, returned in rows[0].

    det(I + c B B^T) is the matching polynomial of the path with the edge
    weights, so G = det - 1 follows G_j = G_{j-1} + c x_j (1 + G_{j-2}) from
    G_{-1} = G_{-2} = 0 with no cancelling terms; the value is log1p(G).
    The first two terms are written directly, G_0 = c x_0 and
    G_1 = G_0 + c x_1, so p = 1 costs one multiply and a log1p.  ``rows``
    holds three rows: the two latest G, which rotate, and the term
    c x_j (1 + G_{j-2}).
    """
    g, g_prev, term = rows
    np.multiply(edges[0], c, out=g)
    if len(edges) > 1:
        np.multiply(edges[1], c, out=g_prev)
        g_prev += g
        g, g_prev = g_prev, g
    for x in edges[2:]:
        np.multiply(x, c, out=term)
        g_prev += 1.0
        term *= g_prev
        np.add(g, term, out=g_prev)
        g, g_prev = g_prev, g
    return np.log1p(g, out=rows[0])


def mc_coherent_mi(
    dims: ChannelDims, snr: float, n: int, rng: RngStream, threads: int = 1
) -> OracleEstimate:
    """Sample mean of log det(I + (snr/t) H^dagger H) over channel draws.

    Samples the equal-in-law log det(I + (snr/t) W) with W the min(t, r) Gram
    matrix, drawn through its bidiagonal model and taken by one recurrence for
    every p (see ``_wishart_logdet``).
    """
    n = _check_n(n, minimum=1000)
    if not 0.0 <= snr < math.inf:
        raise DomainError(f"snr must be >= 0, got {snr}")
    t, r = dims.t, dims.r
    c = snr / t
    edge_count = 2 * min(t, r) - 1

    def chunk(gen, work):
        edges, rows = work[:edge_count], work[edge_count:]
        _wishart_edges(gen, t, r, edges, rows[0])
        return _moments(_wishart_logdet(edges, c, rows), rows[1])

    return _mean_estimate(_merge_moments(_collect(chunk, n, rng, threads, edge_count + 3)))


def _tilt(pq, c, a):
    """The tilt theta of ``mc_e0_curve`` and the log weight h(s*) at its mode.

    With a = rho l, theta is the fixed point of theta = a c/(1 + c s*),
    s* = pq/(1 + theta): the tilted trace mean s* is then the mode of
    s^pq e^(-s) (1 + c s)^(-a), the trace factor of the integrand per log s.
    The fixed point is the positive root of
    theta^2 + (1 + c pq - a c) theta - a c = 0, taken without cancellation.
    h(s) = theta s - a log(1 + c s) bounds the log weight at trace s from
    above and is least at s*.
    """
    ac = a * c
    b = 1.0 + c * pq - ac
    root = math.sqrt(b * b + 4.0 * ac)
    theta = 2.0 * ac / (b + root) if b > 0.0 else 0.5 * (root - b)
    s = pq / (1.0 + theta)
    return theta, theta * s - a * math.log1p(c * s)


def _log_of_mean_estimate(moments, shift: float) -> OracleEstimate:
    """shift - log(mean) of merged weight moments, with the delta-method 99% interval.

    The effective sample size (sum w)^2 / sum w^2 comes from the same
    moments: sum w = n mean and sum w^2 = M2 + n mean^2.
    """
    n, mean, m2 = moments
    value = shift - math.log(mean)
    se = math.sqrt(_sample_variance(moments) / n) / mean
    total = n * mean
    ess = total * total / (m2 + total * mean)
    return _normal_estimate(value, se, n, estimator="log-of-mean", ess=ess)


def mc_e0_exact(
    dims: ChannelDims, snr_b: float, rho: float, n: int, rng: RngStream, threads: int = 1
) -> OracleEstimate:
    """Exact coherent Gallager function by sampling:
    -log E[det(I + snr_b/(t(1+rho)) H^dagger H)^(-rho l)].

    The determinant is sampled as its equal-in-law det(I + c W), W the
    min(t, r) Gram matrix, under exponentially tilted draws (see
    ``mc_e0_curve``).
    """
    return mc_e0_curve(dims, snr_b, [rho], n, rng, threads)[0]


def mc_e0_curve(
    dims: ChannelDims, snr_b: float, rhos, n: int, rng: RngStream, threads: int = 1
) -> list[OracleEstimate]:
    """The sampled Gallager function of ``mc_e0_exact`` on a rho grid, one set of draws.

    Plain draws of det(I + c W)^(-rho l) put the mean on the few draws near
    W = 0 when rho l c is large, and the interval undercovers.  Each rho
    column instead tilts every edge of ``_wishart_edges`` to rate 1 + theta,
    which is c' = c/(1 + theta) on the unit edges in ``_wishart_logdet``, and
    weights the draw by the density ratio (1 + theta)^(-pq) e^(theta tr W'),
    tr W' = tr W/(1 + theta).  This is exact because tr W is the sum of the
    edges and their shapes sum to pq.  theta follows one rule (``_tilt``),
    which puts the tilted trace mean at the mode of the integrand.  The
    constant pq log(1 + theta) and the log weight h(s*) at that mode stay
    outside the mean, so the weights exp(log w - h(s*)) neither underflow
    nor overflow; each chunk is reduced to their (count, mean, M2) and the
    value is pq log(1 + theta) - h(s*) - log(mean) with the delta-method
    interval.  At rho = 0, theta = 0 and h(s*) = 0, so every weight is
    exactly 1 and the column is 0 with a zero-width interval.

    The tilted weight grows as e^((theta - 1) tr W') against the tilted law,
    so it has a finite variance only for theta < 1 and a finite third moment
    only for theta < 1/2.  Cells beyond that, such as (t, r, l) = (2, 3, 100)
    at snr_b = 1, rho = 1 with theta near 23.6, rest on measured coverage:
    the 99% interval missed the exact Andreief value in 0 to 2 of 200
    streams at n = 1e4 on five cells from (1, 1, 1) to (4, 4, 2500).

    The unit draws are made once and shared by every column, so each
    estimate equals a standalone ``mc_e0_exact`` call on the same stream;
    estimates across the grid are positively correlated, which is harmless
    for one-sided bound checks.
    """
    n = _check_n(n, minimum=1000)
    if not 0.0 < snr_b < math.inf:
        raise DomainError(f"snr_b must be > 0, got {snr_b}")
    rho_list = [float(rho) for rho in rhos]
    for rho in rho_list:
        if not 0.0 <= rho <= 1.0:
            raise DomainError(f"rho must be in [0, 1], got {rho}")
    if not rho_list:
        raise DomainError("rhos must hold at least one rho")
    t, r, l = dims.t, dims.r, dims.l
    pq = t * r
    columns = []  # (-rho l, c', theta/(1 + theta), h(s*), pq log(1 + theta) - h(s*)) per rho
    for rho in rho_list:
        c = snr_b / (t * (1.0 + rho))
        theta, mode = _tilt(pq, c, rho * l)
        shift = pq * math.log1p(theta) - mode
        columns.append((-rho * l, c / (1.0 + theta), theta / (1.0 + theta), mode, shift))

    edge_count = 2 * min(t, r) - 1

    def chunk(gen, work):
        edges, trace, rows = work[:edge_count], work[edge_count], work[edge_count + 1 :]
        _wishart_edges(gen, t, r, edges, rows[0])
        edges.sum(axis=0, out=trace)
        parts = []
        for scale, coeff, tilt, mode, _ in columns:
            log_w = _wishart_logdet(edges, coeff, rows)
            log_w *= scale
            log_w += np.multiply(trace, tilt, out=rows[1])
            log_w -= mode
            parts.append(_moments(np.exp(log_w, out=log_w), rows[1]))
        return parts

    chunks = _collect(chunk, n, rng, threads, edge_count + 4)
    return [
        _log_of_mean_estimate(_merge_moments(parts[k] for parts in chunks), column[-1])
        for k, column in enumerate(columns)
    ]


def mc_onoff_mi(
    r: int, snr: float, amplitude_sq: float, n: int, rng: RngStream, threads: int = 1
) -> OracleEstimate:
    """Mutual information of on-off signaling, sampled on the on branch alone.

    Per sample the estimate is log p(y|x) - log p(y).  Both branches depend
    on y only through z = |y|^2: Gamma(r, 1) when off, (1 + A) Gamma(r, 1)
    when on.  With the weighted log-ratio
    u(z) = log(omega p_on(z) / ((1 - omega) p_off(z))) = (z - z_x) A/(1 + A),
    zero at the crossing radius z_x, the off value is
    -log(1 - omega) - log(1 + e^u) and the on value -log(omega) - log(1 + e^-u).
    Each log(1 + e^(+-u)) is the hinge max(+-u, 0), whose mean is exact
    (``iid._onoff_hinges``), plus the remainder log(1 + e^-|u|) in (0, log 2],
    which is the only sampled part.

    The remainder peaks at z_x, which the off branch rarely reaches.  By the
    definition of u, (1 - omega) p_off = omega p_on e^-u, so the off
    branch's remainder mean is omega E_on[e^-u log(1 + e^-|u|)], and the
    whole sampled part is one mean over on-branch draws u = A g - lam,
    g ~ Gamma(r, 1):
        omega E_on[(1 + e^-u) log(1 + e^-|u|)],
    whose integrand lies in (0, 2 log 2].  Its exponent is clipped to
    [-700, 700], so e^(+-u) stay finite; past the clip the integrand is
    within e^-700 of its limits 0 (u -> inf) and 1 (u -> -inf).
    """
    n = _check_n(n, minimum=10_000)
    r = _positive_int("r", r)
    if not 0.0 <= snr < amplitude_sq < math.inf:
        raise DomainError(f"need amplitude_sq > snr >= 0, got A={amplitude_sq}, snr={snr}")
    if snr == 0.0:
        return OracleEstimate(0.0, 0.0, n, 0.0, 0.0)
    a = float(amplitude_sq)
    omega, lam, _, exact = _onoff_hinges(r, snr, a)

    def chunk(gen, work):
        # (1 + e^-u) log(1 + e^-|u|) in place, from x = -u = lam - a g
        x, inv = work
        _gamma_int(gen, r, x, inv)
        x *= -a
        x += lam
        e = np.exp(np.clip(x, -700.0, 700.0, out=x), out=x)
        np.reciprocal(e, out=inv)
        remainder = np.log1p(np.minimum(e, inv, out=inv), out=inv)
        e += 1.0
        e *= remainder
        return _moments(e, inv)

    moments = _merge_moments(_collect(chunk, n, rng, threads, 2))
    value = exact - omega * moments[1]
    se = omega * math.sqrt(_sample_variance(moments) / n)
    return _normal_estimate(value, se, n)


def empirical_tail_cdf(
    k: int, x: float, n: int, rng: RngStream, threads: int = 1
) -> OracleEstimate:
    """Fraction of draws of sum_{i<=k} |CN(0,1)|^2 falling below x, with binomial CI.

    The sum is drawn directly as its equal-in-law Gamma(k, 1) variate.  Up to
    k = _PRODUCT_MAX_K that variate is -log of a product of k uniforms, so a
    hit is tested as product > e^-x and no log is taken.  The interval is the
    exact (Clopper-Pearson) 99% binomial interval for h hits: the 0.5% and
    99.5% quantiles of Beta(h, n - h + 1) and Beta(h + 1, n - h), with 0 at
    h = 0 and 1 at h = n.  It covers at least 99% however few the hits are.
    std_error is the plug-in sqrt(p (1 - p) / n), or at h = 0 and h = n, where
    that is 0, the interval's half-width over the 99% normal quantile.
    """
    n = _check_n(n, minimum=1000)
    k = _positive_int("k", k)
    if not x >= 0.0:
        raise DomainError(f"x must be >= 0, got {x}")

    floor = math.exp(-x)

    def chunk(gen, work):
        # int, so the hit count and p are Python numbers and not numpy scalars
        if k <= _PRODUCT_MAX_K:
            return int(np.count_nonzero(_uniform_product(gen, k, *work) > floor))
        return int(np.count_nonzero(_gamma_int(gen, k, *work) < x))

    hits = sum(_collect(chunk, n, rng, threads, 2))
    p = hits / n
    lo = float(special.betaincinv(hits, n - hits + 1, 0.005)) if hits > 0 else 0.0
    hi = float(special.betaincinv(hits + 1, n - hits, 0.995)) if hits < n else 1.0
    se = math.sqrt(p * (1.0 - p) / n) if 0 < hits < n else 0.5 * (hi - lo) / _Z99
    return OracleEstimate(p, se, n, lo, hi)
