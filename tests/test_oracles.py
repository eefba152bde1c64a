import itertools
import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate, special, stats

from conftest import SEED
from widemimo import (
    ChannelDims,
    DomainError,
    OracleEstimate,
    RngStream,
    coherent_expansion,
    e0_upper,
    empirical_tail_cdf,
    gamma_lower_regularized,
    gaussian_lower_bound,
    mc_coherent_mi,
    mc_e0_curve,
    mc_e0_exact,
    mc_onoff_mi,
    onoff_mi_quadrature,
    slope_fit,
)
from widemimo import capacity, oracles
from widemimo.channel import _sample_cn
from widemimo.iid import _mean_excess
from widemimo.oracles import (
    _CHUNK,
    _Z99,
    _collect,
    _gamma_int,
    _merge_moments,
    _moments,
    _pool,
    _tilt,
    _wishart_edges,
    _wishart_logdet,
)

DIMS11 = ChannelDims(1, 1, 1)


class TestCoherentMi:
    def test_zero_snr_zero_variance(self):
        est = mc_coherent_mi(DIMS11, 0.0, 2000, RngStream(SEED, 200))
        assert est.mean == 0.0 and est.std_error == 0.0
        # a plain mean has no weights, so no effective sample size
        assert est.ess is None

    def test_quadrature_anchor(self):
        # E[log(1 + X)], X ~ Exp(1), by 1-D quadrature: e E1(1) ~ 0.59634
        ref, err = integrate.quad(lambda u: math.exp(-u) * math.log1p(u), 0, np.inf)
        assert err < 1e-10
        assert ref == pytest.approx(0.5963473623231939, rel=1e-10)
        est = mc_coherent_mi(DIMS11, 1.0, 200_000, RngStream(SEED, 201))
        assert est.contains(ref)

    def test_tracks_expansion(self):
        # the bidiagonal recurrence over five Gamma variates at (3, 3), three at (2, 2)
        for t, r, sid in ((2, 2, 202), (3, 3, 205)):
            dims = ChannelDims(t, r, 1)
            est = mc_coherent_mi(dims, 0.01, 200_000, RngStream(SEED, sid))
            closed = coherent_expansion(dims, 0.01).total
            assert abs(est.mean - closed) <= est.ci99_half + 10 * 0.01**3, (t, r)

    def test_thread_invariance(self):
        a = mc_coherent_mi(ChannelDims(2, 3, 1), 0.1, 70_000, RngStream(SEED, 203), threads=1)
        b = mc_coherent_mi(ChannelDims(2, 3, 1), 0.1, 70_000, RngStream(SEED, 203), threads=4)
        assert a == b

    def test_std_error_scaling(self):
        a = mc_coherent_mi(DIMS11, 0.5, 100_000, RngStream(SEED, 204))
        b = mc_coherent_mi(DIMS11, 0.5, 200_000, RngStream(SEED, 204))
        assert b.std_error == pytest.approx(a.std_error / math.sqrt(2), rel=0.1)


class TestE0Exact:
    def test_rho_zero(self):
        est = mc_e0_exact(DIMS11, 1.0, 0.0, 2000, RngStream(SEED, 210))
        assert est.mean == 0.0 and est.std_error == 0.0
        # det^0 = 1 weighs all n draws equally
        assert est.ess == 2000

    def test_quadrature_anchor(self):
        # -log E[(1 + X)^-1], X ~ Exp(1): -log(e E1(1)) ~ 0.51693
        ref, err = integrate.quad(lambda u: math.exp(-u) / (1 + u), 0, np.inf)
        assert err < 1e-8
        anchor = -math.log(ref)
        assert anchor == pytest.approx(0.516931959002046, rel=1e-10)
        est = mc_e0_exact(DIMS11, 2.0, 1.0, 200_000, RngStream(SEED, 211))
        assert est.estimator == "log-of-mean"
        assert est.contains(anchor)

    def test_curve_matches_pointwise_law(self):
        dims = ChannelDims(2, 2, 10)
        curve = mc_e0_curve(dims, 0.1, [0.0, 0.5, 1.0], 20_000, RngStream(SEED, 213))
        assert curve[0].mean == 0.0
        # each rho column is reduced on its own from the shared unit draws
        assert curve[1] == mc_e0_exact(dims, 0.1, 0.5, 20_000, RngStream(SEED, 213))
        assert curve[2] == mc_e0_exact(dims, 0.1, 1.0, 20_000, RngStream(SEED, 213))

    @pytest.mark.parametrize(
        "dims, snr_b",
        [(ChannelDims(2, 2, 10), 0.1), (ChannelDims(3, 3, 10), 1.0)],
        ids=["2x2x10", "3x3x10"],
    )
    def test_rho_zero_column_is_exactly_zero(self, dims, snr_b):
        # theta = 0 and h(s*) = 0 at rho = 0, so every weight is exactly 1;
        # n spans three chunks
        n = 2 * _CHUNK + 1
        zero = OracleEstimate(0.0, 0.0, n, 0.0, 0.0, estimator="log-of-mean", ess=float(n))
        alone = mc_e0_curve(dims, snr_b, [0.0], n, RngStream(SEED, 216))
        mixed = mc_e0_curve(dims, snr_b, [1.0, 0.0, 0.25], n, RngStream(SEED, 216))
        for est in (alone[0], mixed[1]):
            assert est == zero
            assert all(
                math.copysign(1.0, x) == 1.0
                for x in (est.mean, est.std_error, est.ci99_low, est.ci99_high)
            )

    def test_below_closed_form_bound(self):
        dims = ChannelDims(2, 3, 10)
        for rho, est in zip(
            (0.25, 1.0),
            mc_e0_curve(dims, 0.3, (0.25, 1.0), 30_000, RngStream(SEED, 214)),
        ):
            assert est.mean <= e0_upper(dims, 0.3, rho) + 3 * est.ci99_half

    @pytest.mark.parametrize(
        "pq, c, a", [(1, 0.5, 1.0), (4, 0.025, 0.75), (6, 0.25, 100.0), (16, 1.25e-3, 2500.0)]
    )
    def test_tilt_is_the_fixed_point_of_the_rule(self, pq, c, a):
        theta = 0.0
        for _ in range(2000):
            theta = a * c / (1.0 + c * pq / (1.0 + theta))
        got, mode = _tilt(pq, c, a)
        assert got == pytest.approx(theta, rel=1e-12)
        s = pq / (1.0 + theta)
        assert mode == pytest.approx(theta * s - a * math.log1p(c * s), rel=1e-12, abs=1e-15)

    def test_weights_stay_finite_at_large_e0(self):
        # E0 near 2650 nats: a plain weight e^-E0 would underflow to 0
        dims = ChannelDims(16, 16, 10**6)
        est = mc_e0_exact(dims, 1.0, 1.0, 2000, RngStream(SEED, 215))
        assert all(map(math.isfinite, (est.mean, est.std_error, est.ci99_low, est.ci99_high)))
        assert 745.0 < est.mean <= e0_upper(dims, 1.0, 1.0) + 3 * est.ci99_half

    def test_thread_invariance(self):
        dims = ChannelDims(2, 2, 10)
        a = mc_e0_curve(dims, 0.1, [0.5, 1.0], 200_000, RngStream(SEED, 262), threads=1)
        b = mc_e0_curve(dims, 0.1, [0.5, 1.0], 200_000, RngStream(SEED, 262), threads=3)
        assert a == b

    def test_point_estimate_from_weights(self):
        # the tilted weights by hand from the same unit draws: the explicit
        # bidiagonal Gram matrix at (t, r) = (2, 3), two chunks of the stream
        dims, snr_b, rho, n = ChannelDims(2, 3, 10), 0.1, 0.5, _CHUNK + 5000
        rng = RngStream(SEED, 263)
        est = mc_e0_exact(dims, snr_b, rho, n, rng)
        c, a, pq = snr_b / (2 * (1.0 + rho)), rho * 10, 6
        theta = 0.0
        for _ in range(200):  # the fixed-point rule as stated
            theta = a * c / (1.0 + c * pq / (1.0 + theta))
        weights = []
        for block, m in enumerate((_CHUNK, 5000)):
            gen = rng.generator(block=block)
            d0, d1, s0 = (_gamma_int(gen, k, np.empty(m), np.empty(m)) for k in (3, 2, 1))
            bidiag = np.zeros((m, 2, 2))
            bidiag[:, 0, 0], bidiag[:, 1, 0], bidiag[:, 1, 1] = np.sqrt([d0, s0, d1])
            gram = np.einsum("nij,nkj->nik", bidiag, bidiag)
            _, logdet = np.linalg.slogdet(np.eye(2) + c / (1.0 + theta) * gram)
            trace = np.trace(gram, axis1=1, axis2=2)
            log_w = -a * logdet + theta / (1.0 + theta) * trace - pq * math.log1p(theta)
            weights.append(np.exp(log_w))
        weights = np.concatenate(weights)
        mean = float(weights.mean())
        se = float(weights.std(ddof=1) / math.sqrt(n)) / mean
        assert est.n_samples == n and est.estimator == "log-of-mean"
        assert est.mean == pytest.approx(-math.log(mean), rel=1e-12)
        assert est.std_error == pytest.approx(se, rel=1e-9)
        assert est.ci99_low == pytest.approx(est.mean - _Z99 * est.std_error, rel=1e-12)
        assert est.ci99_high == pytest.approx(est.mean + _Z99 * est.std_error, rel=1e-12)
        # (sum w)^2 / sum w^2 of the same weights; their scale cancels
        ess = float(weights.sum() ** 2 / np.einsum("i,i->", weights, weights))
        assert est.ess == pytest.approx(ess, rel=1e-9)
        assert 1.0 <= est.ess <= n


class TestOnOffMi:
    def test_zero_snr(self):
        est = mc_onoff_mi(2, 0.0, 10.0, 20_000, RngStream(SEED, 220))
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_agrees_with_quadrature_r1(self):
        est = mc_onoff_mi(1, 0.01, 10.0, 200_000, RngStream(SEED, 221))
        assert est.contains(onoff_mi_quadrature(1, 0.01, 10.0))

    def test_agrees_with_quadrature_r2(self):
        # r > 1 exercises the radial weight beyond the exponential
        est = mc_onoff_mi(2, 0.01, 20.0, 200_000, RngStream(SEED, 222))
        assert est.contains(onoff_mi_quadrature(2, 0.01, 20.0))

    def test_std_error_scaling(self):
        # overlap-heavy operating point: the sampled integrand is bounded and
        # its variance estimate settles, so the reported SE follows 1/sqrt(n)
        a = mc_onoff_mi(1, 0.1, 2.0, 100_000, RngStream(SEED, 223))
        b = mc_onoff_mi(1, 0.1, 2.0, 200_000, RngStream(SEED, 223))
        assert b.std_error == pytest.approx(a.std_error / math.sqrt(2), rel=0.1)

    def test_thread_invariance(self):
        # 1.1e6 on-branch draws are 17 chunks, the last one short, over 3 threads
        a = mc_onoff_mi(2, 1e-3, 20.0, 1_100_000, RngStream(SEED, 224), threads=1)
        b = mc_onoff_mi(2, 1e-3, 20.0, 1_100_000, RngStream(SEED, 224), threads=3)
        assert a == b

    def test_point_estimate_from_draws(self):
        # the same Gamma(2) draws, two chunks of the stream, against the MI
        # written out independently: hinge means by gammaincc/gammainc, and
        # the sampled part (1 + e^-u) log(1 + e^-|u|) by logaddexp
        r, snr, a, n = 2, 0.01, 20.0, _CHUNK + 5000
        rng = RngStream(SEED, 229)
        est = mc_onoff_mi(r, snr, a, n, rng)
        omega = snr / a
        lam = r * math.log(1.0 + a) + math.log(1.0 - omega) - math.log(omega)
        z_x, g_x = lam * (1.0 + a) / a, lam / a
        # E[max(z - x, 0)] = r Q(r + 1, x) - x Q(r, x), E[max(x - g, 0)] = x P(r, x) - r P(r + 1, x)
        off_hinge = r * special.gammaincc(r + 1, z_x) - z_x * special.gammaincc(r, z_x)
        on_hinge = g_x * special.gammainc(r, g_x) - r * special.gammainc(r + 1, g_x)
        g = np.concatenate(
            [
                _gamma_int(rng.generator(block=block), r, np.empty(m), np.empty(m))
                for block, m in enumerate((_CHUNK, 5000))
            ]
        )
        u = a * g - lam
        sampled = np.exp(np.logaddexp(0.0, -u)) * np.logaddexp(0.0, -np.abs(u))
        mean = (
            -(1.0 - omega) * (math.log(1.0 - omega) + a / (1.0 + a) * off_hinge)
            - omega * (math.log(omega) + a * on_hinge)
            - omega * float(sampled.mean())
        )
        se = omega * float(sampled.std(ddof=1)) / math.sqrt(n)
        assert est.n_samples == n
        assert est.mean == pytest.approx(mean, rel=1e-12)
        assert est.std_error == pytest.approx(se, rel=1e-9)
        assert est.ci99_low == pytest.approx(est.mean - _Z99 * est.std_error, rel=1e-12)
        assert est.ci99_high == pytest.approx(est.mean + _Z99 * est.std_error, rel=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_mean_excess_matches_quadrature(self, r):
        # the exact hinge mean E[max(z - x, 0)], z ~ Gamma(r, 1)
        for x in (0.5, 3.0, 12.0):
            ref, _ = integrate.quad(
                lambda z: (z - x) * stats.gamma.pdf(z, r), x, math.inf, epsabs=0.0, epsrel=1e-12
            )
            assert _mean_excess(r, x) == pytest.approx(ref, rel=1e-9), x
        assert _mean_excess(r, -2.0) == r + 2.0

    @pytest.mark.parametrize(
        "r, snr, a",
        [
            (3, 0.99, 1.0),  # snr close to A: the weighted crossing radius is < 0
            (1, 9.99, 10.0),  # omega near 1
            (2, 0.5, 2.0),  # omega 1/4: the on draws straddle the crossing
            (3, 1e-3, 50.0),  # the on crossing g_x = 0.45 sits below the Gamma(3) bulk
            (1, 1e-12, 1e4),  # omega 1e-16: e^-u up to e^46 on the draws nearest 0
            (1, 1e-300, 10.0),  # lam = 695.5: e^-u up to 1e302, just inside the clip
            (1, 5e-324, 1.0),  # lam = 745: the clip at e^700 binds on almost every draw
        ],
    )
    def test_edge_points_finite(self, r, snr, a):
        est = mc_onoff_mi(r, snr, a, 10_001, RngStream(SEED, 228))
        assert est.n_samples == 10_001
        assert all(map(math.isfinite, (est.mean, est.std_error, est.ci99_low, est.ci99_high)))
        assert est.ci99_low <= est.mean <= est.ci99_high


class TestTailCdf:
    def test_zero_threshold(self):
        est = empirical_tail_cdf(3, 0.0, 2000, RngStream(SEED, 230))
        assert est.mean == 0.0

    def test_matches_gamma_cdf(self):
        est = empirical_tail_cdf(4, 1.0, 200_000, RngStream(SEED, 231))
        assert est.contains(gamma_lower_regularized(4, 1.0))

    def test_exponential_case(self):
        est = empirical_tail_cdf(1, 0.1, 200_000, RngStream(SEED, 232))
        assert est.contains(1.0 - math.exp(-0.1))

    @pytest.mark.parametrize("k, x, p", [(3, 0.0, 0.0), (1, 50.0, 1.0)])
    def test_std_error_at_zero_and_all_hits(self, k, x, p):
        # the plug-in sqrt(p (1 - p) / n) is 0 here, the interval is not
        est = empirical_tail_cdf(k, x, 2000, RngStream(SEED, 234))
        assert est.mean == p
        assert est.ci99_half > 0.0
        assert est.std_error == est.ci99_half / _Z99

    def test_thread_invariance(self):
        # 200k draws are four chunks, the last one short
        a = empirical_tail_cdf(3, 2.5, 200_000, RngStream(SEED, 233), threads=1)
        b = empirical_tail_cdf(3, 2.5, 200_000, RngStream(SEED, 233), threads=3)
        assert a == b


CURVE_RHOS = (0.25, 0.5, 0.75, 1.0)


class TestStreamingMoments:
    """Chunks reduced to (count, mean, M2) where they are drawn, merged in order."""

    @pytest.mark.parametrize("n", [1000, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_merged_moments_match_numpy(self, n):
        def draw(gen, work):
            values = gen.standard_gamma(2.0, out=work[0])
            values += 3.0
            return values

        def chunk(gen, work):
            return _moments(draw(gen, work), work[1])

        rng = RngStream(SEED, 270)
        count, mean, m2 = _merge_moments(_collect(chunk, n, rng, 1, 2))
        # chunks merge in chunk order whichever thread finished first
        assert _merge_moments(_collect(chunk, n, rng, 3, 2)) == (count, mean, m2)
        # the next chunk overwrites the workspace, so each draw is copied out of it
        values = np.concatenate(_collect(lambda gen, work: draw(gen, work).copy(), n, rng, 1, 2))
        assert count == n
        assert mean == pytest.approx(values.mean(), rel=1e-12)
        assert m2 / (n - 1) == pytest.approx(values.var(ddof=1), rel=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda n, rng: mc_coherent_mi(ChannelDims(2, 2, 1), 0.1, n, rng),
            # 2p - 1 = 5 Gamma variates per sample
            lambda n, rng: mc_coherent_mi(ChannelDims(3, 3, 1), 0.1, n, rng),
            lambda n, rng: empirical_tail_cdf(2, 1.0, n, rng),
            # one chunk function over on-branch Gamma(2) draws
            lambda n, rng: mc_onoff_mi(2, 1e-3, 20.0, n, rng),
            lambda n, rng: mc_e0_exact(ChannelDims(2, 2, 10), 0.1, 1.0, n, rng),
            # four tilted weight columns from one set of unit draws
            lambda n, rng: mc_e0_curve(ChannelDims(2, 2, 10), 0.1, CURVE_RHOS, n, rng)[-1],
        ],
        ids=[
            "mc_coherent_mi", "mc_coherent_mi-p3", "empirical_tail_cdf", "mc_onoff_mi",
            "mc_e0_exact", "mc_e0_curve",
        ],
    )
    def test_traced_peak_is_a_few_chunks(self, call):
        # an n-length float64 array alone would be 30.5 MiB; the widest
        # workspace here, mc_coherent_mi at p = 3, is 8 rows of 2^16, 4 MiB
        tracemalloc.start()
        try:
            est = call(4_000_000, RngStream(SEED, 271))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.n_samples == 4_000_000
        assert peak < 8 * 2**20


class TestWorkspace:
    """Each worker draws and reduces every chunk of a call in one workspace."""

    @pytest.mark.parametrize("threads, most", [(1, 1), (3, 3)])
    def test_one_workspace_per_worker(self, threads, most):
        # each chunk's view is held, so a fresh buffer per chunk could not
        # reuse a freed address and pass for the same workspace
        seen = []

        def chunk(gen, work):
            seen.append((threading.get_ident(), work))
            return work.shape

        shapes = _collect(chunk, 5 * _CHUNK + 7, RngStream(SEED, 275), threads, 3)
        assert shapes == [(3, _CHUNK)] * 5 + [(3, 7)]
        # every worker thread drew all its chunks into one buffer
        pairs = {(ident, work.ctypes.data) for ident, work in seen}
        assert len(pairs) == len({ident for ident, _ in pairs}) <= most
        assert len({pointer for _, pointer in pairs}) <= most
        # a call shorter than a chunk allocates only what it draws
        assert _collect(chunk, 1000, RngStream(SEED, 275), threads, 3) == [(3, 1000)]

    def test_concurrent_calls_match_serial(self):
        # eight calls at once, more than the cores: four oracles each run in
        # the calling thread and on a pool of two workers.  A workspace shared
        # between calls would mix their draws.
        n = 3 * _CHUNK + 11
        calls = [
            lambda th: mc_coherent_mi(ChannelDims(3, 3, 1), 0.1, n, RngStream(SEED, 276), th),
            lambda th: mc_onoff_mi(2, 1e-3, 20.0, n, RngStream(SEED, 277), th),
            lambda th: mc_e0_curve(
                ChannelDims(2, 3, 10), 0.1, CURVE_RHOS, n, RngStream(SEED, 278), th
            ),
            lambda th: empirical_tail_cdf(3, 2.5, n, RngStream(SEED, 279), th),
        ]
        serial = [call(1) for call in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2 * len(calls)) as pool:
                futures = [pool.submit(call, th) for th in (1, 2) for call in calls]
                concurrent = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial + serial


def _send_estimate(sender, args):
    sender.send(mc_coherent_mi(*args, threads=2))
    sender.close()


class TestPool:
    """Threaded oracle calls share one worker pool per thread count."""

    def test_calls_share_one_pool(self):
        pool = _pool(2)

        def chunk(gen, work):
            return threading.current_thread()

        first = _collect(chunk, 3 * _CHUNK, RngStream(SEED, 295), 2, 1)
        mc_coherent_mi(ChannelDims(2, 2, 1), 0.02, 200_000, RngStream(SEED, 296), threads=2)
        second = _collect(chunk, 3 * _CHUNK, RngStream(SEED, 295), 2, 1)
        assert _pool(2) is pool
        # both calls' chunks ran on the same two pool threads
        workers = set(first + second)
        assert len(workers) <= 2 and threading.current_thread() not in workers

    def test_one_chunk_call_runs_on_the_caller(self, monkeypatch):
        dims, rng = ChannelDims(2, 2, 1), RngStream(SEED, 297)
        expected = mc_coherent_mi(dims, 0.1, 2000, rng)
        monkeypatch.setattr(oracles, "_pool", lambda threads: pytest.fail("used the pool"))
        assert mc_coherent_mi(dims, 0.1, 2000, rng, threads=3) == expected
        caller = _collect(lambda gen, work: threading.current_thread(), _CHUNK, rng, 3, 1)
        assert caller == [threading.current_thread()]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_map_keeps_input_order(self, threads):
        # earlier tasks sleep longer, so on the pool they finish last
        def task(i, j):
            time.sleep(0.002 * (5 - i))
            return i, j

        got = list(oracles._map(task, threads, range(6), "abcdef"))
        assert got == list(zip(range(6), "abcdef"))

    def test_map_at_one_thread_runs_each_task_when_read(self):
        calls = []
        results = oracles._map(calls.append, 1, range(3))
        assert len(calls) == 0
        next(results)
        assert len(calls) == 1

    def test_map_at_two_threads_runs_tasks_at_once(self):
        # each task waits for the other at the barrier, which breaks after
        # 30 s unless both are running
        barrier = threading.Barrier(2, timeout=30)

        def meet(i):
            barrier.wait()
            return i

        assert list(oracles._map(meet, 2, range(2))) == [0, 1]

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
    def test_forked_child_gets_its_own_pool(self):
        # the child inherits the parent's pool of 2 but not its threads; a
        # threaded call there would wait on workers that do not exist
        args = (ChannelDims(2, 2, 1), 0.02, 200_000, RngStream(1, 5))
        expected = mc_coherent_mi(*args, threads=2)
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_estimate, args=(sender, args))
        child.start()
        sender.close()
        try:
            assert receiver.poll(30), "the forked child gave no estimate within 30 s"
            got = receiver.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        assert got == expected


class TestCoverage:
    """Misses of the 99% interval over 200 streams against exact references.

    At 1% per stream the miss count is Binomial(200, 0.01); more than its
    99.9% quantile (8) says the interval undercovers.
    """

    STREAMS = 200
    MAX_MISSES = int(stats.binom.ppf(0.999, STREAMS, 0.01))

    def _misses(self, estimate, exact, first_id):
        return sum(
            not estimate(RngStream(SEED, sid)).contains(exact)
            for sid in range(first_id, first_id + self.STREAMS)
        )

    def test_tail_cdf(self):
        exact = gamma_lower_regularized(2, 1.0)
        misses = self._misses(lambda rng: empirical_tail_cdf(2, 1.0, 2000, rng), exact, 300)
        assert misses <= self.MAX_MISSES == 8

    def test_coherent_mi(self):
        # E[log(1 + X)], X ~ Exp(1), is e E1(1)
        exact = math.e * float(special.exp1(1.0))
        misses = self._misses(lambda rng: mc_coherent_mi(DIMS11, 1.0, 2000, rng), exact, 500)
        assert misses <= self.MAX_MISSES == 8

    def test_tail_cdf_few_hits(self):
        # x puts P(4, x) at 2e-3: 4 expected hits in 2000 draws, where a normal
        # interval around the hit fraction undercovers
        x = float(special.gammaincinv(4, 2e-3))
        exact = gamma_lower_regularized(4, x)
        misses = self._misses(lambda rng: empirical_tail_cdf(4, x, 2000, rng), exact, 700)
        assert misses <= self.MAX_MISSES == 8

    def test_onoff_mi(self):
        # on-branch Gamma(2) draws carry the sampled part of both branches
        exact = onoff_mi_quadrature(2, 0.01, 20.0, rel_tol=1e-10)
        misses = self._misses(lambda rng: mc_onoff_mi(2, 0.01, 20.0, 10_000, rng), exact, 2000)
        assert misses <= self.MAX_MISSES == 8

    def test_coherent_mi_p2(self):
        # (t, r) = (2, 3): diagonal Gamma(3) and Gamma(2), subdiagonal Exp(1)
        dims = ChannelDims(2, 3, 1)
        exact = _wishart_mi_exact(2, 3, 1.0)
        misses = self._misses(lambda rng: mc_coherent_mi(dims, 1.0, 2000, rng), exact, 2200)
        assert misses <= self.MAX_MISSES == 8

    def test_coherent_mi_p3(self):
        # (3, 3): five Gamma variates per sample, subdiagonal Gamma(2) and Exp(1)
        dims = ChannelDims(3, 3, 1)
        exact = _wishart_mi_exact(3, 3, 1.0)
        misses = self._misses(lambda rng: mc_coherent_mi(dims, 1.0, 2000, rng), exact, 2400)
        assert misses <= self.MAX_MISSES == 8

    def test_e0_exact(self):
        # the Gallager oracle's log-of-mean interval, at rho l = 1
        dims = ChannelDims(2, 3, 1)
        exact = _wishart_e0_exact(2, 3, 1, 1.0, 1.0)
        misses = self._misses(lambda rng: mc_e0_exact(dims, 1.0, 1.0, 2000, rng), exact, 2600)
        assert misses <= self.MAX_MISSES == 8

    # Cells fixed before the tilted sampler was measured on them; from light
    # (1, 1, 1) to theta near 23.6 at (2, 3, 100) and E0 near 22.7 at (4, 4, 2500).
    @pytest.mark.parametrize(
        "t, r, l, snr_b, first_id",
        [
            (1, 1, 1, 2.0, 2800),
            (2, 2, 10, 10.0, 3000),
            (2, 3, 100, 1.0, 3200),
            (3, 3, 10, 5.0, 3400),
            (4, 4, 2500, 0.01, 3600),
        ],
    )
    def test_e0_tilted(self, t, r, l, snr_b, first_id):
        # n = 1e4, the least n any library caller passes, at rho = 1
        dims = ChannelDims(t, r, l)
        exact = _wishart_e0_exact(t, r, l, snr_b, 1.0)
        misses = self._misses(
            lambda rng: mc_e0_exact(dims, snr_b, 1.0, 10_000, rng), exact, first_id
        )
        assert misses <= self.MAX_MISSES == 8


def _wishart_moments(t, r, f):
    """Moment matrices of W ~ CW_p(q, I) for Andreief's identity.

    A_ij = (i + j + q - p)! and B_ij = int x^(i+j+q-p) e^-x f(x) dx by
    quadrature, so that E prod_k f(lambda_k) = det(B) / det(A) over the
    eigenvalues of W.
    """
    p, q = min(t, r), max(t, r)

    def moment(m):
        def integrand(x):
            return x**m * math.exp(-x) * f(x)

        value, err = integrate.quad(integrand, 0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
        assert err < 1e-10 * value
        return value

    a = np.array([[math.factorial(i + j + q - p) for j in range(p)] for i in range(p)], float)
    b = np.array([[moment(i + j + q - p) for j in range(p)] for i in range(p)])
    return a, b


def _wishart_mi_exact(t, r, snr):
    """E log det(I + (snr/t) W), W ~ CW_p(q, I), by Andreief's identity.

    With f = log(1 + c x), c = snr/t, in ``_wishart_moments`` the mean is
    sum_i det(A with row i replaced by row i of B) / det(A).
    """
    c = snr / t
    a, b = _wishart_moments(t, r, lambda x: math.log1p(c * x))
    total = 0.0
    for i in range(len(a)):
        replaced = a.copy()
        replaced[i] = b[i]
        total += np.linalg.det(replaced)
    return total / np.linalg.det(a)


def _wishart_e0_exact(t, r, l, snr_b, rho):
    """-log E det(I + c W)^(-rho l), c = snr_b/(t(1 + rho)): -log(det B / det A)
    with f = (1 + c x)^(-rho l) in ``_wishart_moments``."""
    c = snr_b / (t * (1.0 + rho))
    a, b = _wishart_moments(t, r, lambda x: (1.0 + c * x) ** (-rho * l))
    return -math.log(np.linalg.det(b) / np.linalg.det(a))


class TestProvedBrackets:
    """The three proved bounds against the Andreief values, on grids fixed in advance."""

    def test_expansion_remainder_within_zero_and_c3_snr_cubed(self):
        # 0 <= exact - expansion <= c3 snr^3 (capacity._third_order)
        outside = {}
        for t, r in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (1, 4), (3, 2), (3, 3), (4, 4)]:
            c3 = capacity._third_order(t, r)
            for snr in [1e-3, 1e-2, 0.05, 0.2, 0.5, 1.0, 3.0]:
                expansion = coherent_expansion(ChannelDims(t, r, 1), snr).total
                ratio = (_wishart_mi_exact(t, r, snr) - expansion) / (c3 * snr**3)
                if not 0.0 <= ratio <= 1.0:
                    outside[t, r, snr] = ratio
        assert not outside

    def test_e0_upper_above_exact_e0(self):
        cells = itertools.product(
            range(1, 4), range(1, 4), [1, 10, 100], [0.01, 0.1, 1.0, 5.0], [0.25, 0.5, 1.0]
        )
        below = [
            cell for cell in cells
            if e0_upper(ChannelDims(*cell[:3]), *cell[3:]) < _wishart_e0_exact(*cell)
        ]
        assert not below

    def test_gaussian_lower_bound_below_its_gaussian_input_bound(self):
        # mi(t, r, s) - (r/l) mi(t, l, s); the Hankel helper overflows at l = 100
        above = []
        for t, r in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 3)]:
            for l in [t + 1, 5, 10, 20]:
                for s in [1e-3, 1e-2, 0.1, 0.5, 1.0]:
                    exact = _wishart_mi_exact(t, r, s) - r / l * _wishart_mi_exact(t, l, s)
                    if gaussian_lower_bound(ChannelDims(t, r, l), s) > exact:
                        above.append((t, r, l, s))
        assert not above


def _two_sample_z(a, b):
    """z statistic for equal means of two independent samples."""
    return (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))


class TestSamplerLaws:
    """The sufficient-statistic samplers against the explicit constructions."""

    @pytest.mark.parametrize(
        "t, r", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (3, 5)]
    )
    def test_bidiagonal_logdet_matches_explicit_gram(self, t, r):
        n, c = 200_000, 0.7
        h = _sample_cn(RngStream(SEED, 250).generator(), (n, r, t))
        gram = np.einsum("nij,nik->njk", h.conj(), h)
        _, explicit = np.linalg.slogdet(np.eye(t) + c * gram)
        p = min(t, r)
        work = np.empty((2 * p + 2, n))
        edges, rows = work[: 2 * p - 1], work[2 * p - 1 :]
        _wishart_edges(RngStream(SEED, 251).generator(), t, r, edges, rows[0])
        bidiagonal = _wishart_logdet(edges, c, rows)
        assert abs(_two_sample_z(bidiagonal, explicit)) <= 4.0
        assert abs(_two_sample_z(bidiagonal**2, explicit**2)) <= 4.0
        # the edges sum to tr W, whose law the tilted Gallager weights rely on
        trace = edges.sum(axis=0)
        assert abs(_two_sample_z(trace, np.trace(gram, axis1=1, axis2=2).real)) <= 4.0

    # both sides of the uniform-product cut-over at k = 4
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 9])
    def test_gamma_matches_cn_energy(self, k):
        n = 200_000
        z = _sample_cn(RngStream(SEED, 252).generator(), (n, k))
        energy = (z.real**2 + z.imag**2).sum(axis=1)
        gamma = _gamma_int(RngStream(SEED, 253).generator(), k, np.empty(n), np.empty(n))
        assert abs(_two_sample_z(gamma, energy)) <= 4.0
        assert abs(_two_sample_z(gamma**2, energy**2)) <= 4.0
        # the oracle's CDF at x = k against the explicit fraction below k
        est = empirical_tail_cdf(k, float(k), n, RngStream(SEED, 254))
        p_explicit = float((energy < k).mean())
        se = math.sqrt(est.std_error**2 + p_explicit * (1.0 - p_explicit) / n)
        assert abs(est.mean - p_explicit) <= 4.0 * se

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_zero_uniform_gives_a_finite_gamma(self, k):
        class ZeroUniforms:
            def random(self, out):
                out.fill(0.0)
                return out

        assert np.all(_gamma_int(ZeroUniforms(), k, np.empty(5), np.empty(5)) == 0.0)


class TestSlopeFit:
    def test_two_points(self):
        fit = slope_fit([(0.0, 0.0), (1.0, 2.0)])
        assert fit.slope == pytest.approx(2.0) and fit.intercept == pytest.approx(0.0)

    def test_exact_line(self):
        pts = [(x, 3.0 * x - 1.0) for x in (-2.0, -0.5, 0.1, 1.3, 4.0)]
        fit = slope_fit(pts)
        assert fit.slope == pytest.approx(3.0, rel=1e-12)
        assert fit.intercept == pytest.approx(-1.0, rel=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-20)

    def test_needs_two_distinct_abscissae(self):
        with pytest.raises(DomainError):
            slope_fit([(1.0, 2.0), (1.0, 3.0)])
        with pytest.raises(DomainError):
            slope_fit([(1.0, 2.0)])


PINNED_N = 2 * _CHUNK + 1000  # three chunks, the last one short
PINNED_RHOS = (0.25, 0.5, 1.0)

# (mean, std_error, ci99_low, ci99_high) per estimate, recorded once with
# numpy 2.4 on the draws of each call; a sampler or reduction that re-draws
# or reorders any arithmetic changes at least one of these bits.
PINNED = {
    # p = 1 with Gamma(3) by uniform product; p = 4 draws Gamma(5) by standard_gamma
    "mc_coherent_mi-1x3": (
        lambda th: [mc_coherent_mi(ChannelDims(1, 3, 1), 0.5, PINNED_N, RngStream(SEED, 3900), th)],
        [(0.8619459664881326, 0.0009006338331387254, 0.8596260874689663, 0.8642658455072989)],
    ),
    "mc_coherent_mi-2x3": (
        lambda th: [mc_coherent_mi(ChannelDims(2, 3, 1), 0.1, PINNED_N, RngStream(SEED, 3901), th)],
        [(0.2683406783501738, 0.0002725717162434009, 0.26763858013615544, 0.2690427765641921)],
    ),
    "mc_coherent_mi-3x3": (
        lambda th: [mc_coherent_mi(ChannelDims(3, 3, 1), 0.1, PINNED_N, RngStream(SEED, 3902), th)],
        [(0.27404423926726085, 0.00023131371109623604, 0.2734484146319065, 0.2746400639026152)],
    ),
    "mc_coherent_mi-4x5": (
        lambda th: [
            mc_coherent_mi(ChannelDims(4, 5, 1), 0.05, PINNED_N, RngStream(SEED, 3903), th)
        ],
        [(0.23695534944145005, 0.00013881542967984046, 0.236597784589896, 0.2373129142930041)],
    ),
    "mc_e0_curve-2x2": (
        lambda th: mc_e0_curve(
            ChannelDims(2, 2, 10), 0.1, PINNED_RHOS, PINNED_N, RngStream(SEED, 3910), th
        ),
        [
            (0.3573894646228109, 2.1990602821022488e-05, 0.35733282058366184, 0.35744610866195997),
            (0.5863573336374671, 2.905499500298537e-05, 0.586282492929924, 0.5864321743450103),
            (0.8621235796298617, 3.0544857721991926e-05, 0.8620449012902687, 0.8622022579694548),
        ],
    ),
    "mc_e0_curve-3x4": (
        lambda th: mc_e0_curve(
            ChannelDims(3, 4, 10), 1.0, PINNED_RHOS, PINNED_N, RngStream(SEED, 3911), th
        ),
        [
            (4.334432660378619, 0.0010955221369071833, 4.331610782355687, 4.337254538401551),
            (7.084712781622672, 0.0016453855341240931, 7.0804745493482395, 7.088951013897105),
            (10.258385340534057, 0.0017892207152638143, 10.253776613385163, 10.26299406768295),
        ],
    ),
    "mc_onoff_mi-r1": (
        lambda th: [mc_onoff_mi(1, 0.01, 10.0, PINNED_N, RngStream(SEED, 3920), th)],
        [
            (0.003958264177870262, 1.3243060590021617e-06, 0.003954852991516617,
             0.0039616753642239076),
        ],
    ),
    "mc_onoff_mi-r2": (
        lambda th: [mc_onoff_mi(2, 1e-3, 20.0, PINNED_N, RngStream(SEED, 3921), th)],
        [
            (0.00047531229054994725, 5.7138394208068566e-08, 0.0004751651117997884,
             0.0004754594693001061),
        ],
    ),
    # k = 2 and 4 test a uniform product against e^-x, k = 5 a standard_gamma draw against x
    "empirical_tail_cdf-k1": (
        lambda th: [empirical_tail_cdf(1, 1.0, PINNED_N, RngStream(SEED, 3930), th)],
        [(0.6327457750318009, 0.001326455393856323, 0.6293205260154753, 0.6361614477245263)],
    ),
    "empirical_tail_cdf-k2": (
        lambda th: [empirical_tail_cdf(2, 2.0, PINNED_N, RngStream(SEED, 3931), th)],
        [(0.5964398207038585, 0.0013499947867353446, 0.5929552496668775, 0.5999174347271905)],
    ),
    "empirical_tail_cdf-k4": (
        lambda th: [empirical_tail_cdf(4, 4.0, PINNED_N, RngStream(SEED, 3932), th)],
        [(0.5645708401477981, 0.0013643085447054618, 0.561050549914972, 0.5680864724178496)],
    ),
    "empirical_tail_cdf-k5": (
        lambda th: [empirical_tail_cdf(5, 5.0, PINNED_N, RngStream(SEED, 3933), th)],
        [(0.558566539463323, 0.0013663586341774669, 0.5550411852751955, 0.5620876688318875)],
    ),
}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_bits(name, threads):
    call, pinned = PINNED[name]
    got = [(e.mean, e.std_error, e.ci99_low, e.ci99_high) for e in call(threads)]
    assert got == pinned


class TestDeterminism:
    def test_same_stream_same_bits(self):
        a = mc_coherent_mi(DIMS11, 0.3, 5000, RngStream(SEED, 240))
        b = mc_coherent_mi(DIMS11, 0.3, 5000, RngStream(SEED, 240))
        assert a == b

    def test_distinct_streams_differ(self):
        a = mc_coherent_mi(DIMS11, 0.3, 5000, RngStream(SEED, 241))
        b = mc_coherent_mi(DIMS11, 0.3, 5000, RngStream(SEED, 242))
        assert a.mean != b.mean


# A bound check written as the positive condition rejects nan with its own message.
NAN_CALLS = {
    "mc_coherent_mi": (
        lambda rng: mc_coherent_mi(DIMS11, math.nan, 1000, rng), "snr must be >= 0, got nan"
    ),
    "mc_e0_exact": (
        lambda rng: mc_e0_exact(DIMS11, math.nan, 0.5, 1000, rng), "snr_b must be > 0, got nan"
    ),
    "mc_e0_curve": (
        lambda rng: mc_e0_curve(DIMS11, math.nan, [0.5], 1000, rng), "snr_b must be > 0, got nan"
    ),
    "mc_onoff_mi": (
        lambda rng: mc_onoff_mi(1, math.nan, 10.0, 10_000, rng),
        "need amplitude_sq > snr >= 0, got A=10.0, snr=nan",
    ),
    # A is checked before the snr = 0 shortcut, as onoff_mi_quadrature does
    "mc_onoff_mi-amplitude_sq": (
        lambda rng: mc_onoff_mi(1, 0.0, math.nan, 10_000, rng),
        "need amplitude_sq > snr >= 0, got A=nan, snr=0.0",
    ),
    "empirical_tail_cdf": (
        lambda rng: empirical_tail_cdf(1, math.nan, 1000, rng), "x must be >= 0, got nan"
    ),
}


@pytest.mark.parametrize("name", list(NAN_CALLS))
def test_nan_is_a_domain_error(name):
    call, message = NAN_CALLS[name]
    with pytest.raises(DomainError) as err:
        call(RngStream(SEED, 290))
    assert str(err.value) == message


# The same checks are bounded above by math.inf, so +inf is rejected too
# instead of reaching numpy or math as an invalid value.
INF_CALLS = {
    "mc_coherent_mi": (
        lambda rng: mc_coherent_mi(DIMS11, math.inf, 1000, rng), "snr must be >= 0, got inf"
    ),
    "mc_e0_exact": (
        lambda rng: mc_e0_exact(DIMS11, math.inf, 0.5, 1000, rng), "snr_b must be > 0, got inf"
    ),
    "mc_e0_curve": (
        lambda rng: mc_e0_curve(DIMS11, math.inf, [0.5], 1000, rng), "snr_b must be > 0, got inf"
    ),
    "mc_onoff_mi": (
        lambda rng: mc_onoff_mi(1, 0.01, math.inf, 10_000, rng),
        "need amplitude_sq > snr >= 0, got A=inf, snr=0.01",
    ),
}


@pytest.mark.parametrize("name", list(INF_CALLS))
def test_inf_is_a_domain_error(name):
    call, message = INF_CALLS[name]
    with pytest.raises(DomainError) as err:
        call(RngStream(SEED, 291))
    assert str(err.value) == message


# Every oracle takes its thread count through ``_collect``, which rejects a
# count below 1 (or not an integer) before any chunk is drawn.
THREADS_CALLS = {
    "mc_coherent_mi": lambda rng, threads: mc_coherent_mi(DIMS11, 1.0, 1000, rng, threads),
    "mc_e0_exact": lambda rng, threads: mc_e0_exact(DIMS11, 1.0, 0.5, 1000, rng, threads),
    "mc_e0_curve": lambda rng, threads: mc_e0_curve(DIMS11, 1.0, [0.5], 1000, rng, threads),
    "mc_onoff_mi": lambda rng, threads: mc_onoff_mi(1, 0.01, 10.0, 10_000, rng, threads),
    "empirical_tail_cdf": lambda rng, threads: empirical_tail_cdf(1, 1.0, 1000, rng, threads),
}


@pytest.mark.parametrize("threads", [0, -3, 1.0, True])
@pytest.mark.parametrize("name", list(THREADS_CALLS))
def test_threads_not_a_positive_integer_is_a_domain_error(name, threads, monkeypatch):
    monkeypatch.setattr(RngStream, "generator", lambda *a, **k: pytest.fail("drew a chunk"))
    with pytest.raises(DomainError) as err:
        THREADS_CALLS[name](RngStream(SEED, 292), threads)
    assert str(err.value) == f"threads must be a positive integer, got {threads!r}"


# Values outside an oracle's range: a DomainError with its own message before
# any chunk is drawn.
RANGE_CALLS = {
    "mc_e0_curve-rho-above-1": (
        lambda rng: mc_e0_curve(DIMS11, 1.0, [0.5, 1.5], 1000, rng),
        "rho must be in [0, 1], got 1.5",
    ),
    "mc_e0_curve-rho-negative": (
        lambda rng: mc_e0_curve(DIMS11, 1.0, [-0.1], 1000, rng),
        "rho must be in [0, 1], got -0.1",
    ),
    "mc_coherent_mi-n": (
        lambda rng: mc_coherent_mi(DIMS11, 1.0, 999, rng), "n must be an integer >= 1000, got 999"
    ),
    "mc_onoff_mi-n": (
        lambda rng: mc_onoff_mi(1, 0.01, 10.0, 9_999, rng),
        "n must be an integer >= 10000, got 9999",
    ),
}


@pytest.mark.parametrize("name", list(RANGE_CALLS))
def test_out_of_range_is_a_domain_error_before_drawing(name, monkeypatch):
    monkeypatch.setattr(RngStream, "generator", lambda *a, **k: pytest.fail("drew a chunk"))
    call, message = RANGE_CALLS[name]
    with pytest.raises(DomainError) as err:
        call(RngStream(SEED, 294))
    assert str(err.value) == message


def test_empty_rho_grid_is_a_domain_error_before_drawing(monkeypatch):
    monkeypatch.setattr(RngStream, "generator", lambda *a, **k: pytest.fail("drew a chunk"))
    with pytest.raises(DomainError) as err:
        mc_e0_curve(DIMS11, 1.0, [], 1_000_000, RngStream(SEED, 293))
    assert str(err.value) == "rhos must hold at least one rho"
