"""The verdicts behind ``widemimo check`` and the oracle-check sweep cells.

A verdict is a (gap, slack) pair that passes when gap <= slack; its margin is
(slack - gap)/slack.  ``contains`` must give the same verdict as
``OracleEstimate.contains`` at and next to both interval ends, the expansion
budget must cover the cubic remainder the expansion drops, and the
oracle-check row must carry exactly the cells of ``expansion_gap``.  The
check table and the oracle-check CSV do not depend on the thread count, also
when both run at once on the shared worker pool.
"""

import csv
import io
import math
import sys
import threading

import numpy as np
import pytest

from widemimo import (
    ChannelDims,
    DomainError,
    RngStream,
    coherent_expansion,
    load_config,
    mc_coherent_mi,
    mc_e0_exact,
    run_sweep,
)
from widemimo import oracles
from widemimo.check import Verdict, _line, _worst, contains, expansion_gap, run_check
from widemimo.oracles import OracleEstimate

ESTIMATES = [
    OracleEstimate(0.5, 0.01, 1000, 0.47, 0.53),
    # asymmetric log-of-mean intervals, and one left unbounded above
    OracleEstimate(0.31, 0.004, 200_000, 0.295, 0.342, estimator="log-of-mean"),
    OracleEstimate(2.0, 0.3, 100_000, 1.1, math.inf, estimator="log-of-mean"),
    # a tilted Gallager estimate at a skewed cell, theta near 23.6
    mc_e0_exact(ChannelDims(2, 3, 100), 1.0, 1.0, 10_000, RngStream(7, 0)),
    # an estimate below zero, straddled by its interval
    OracleEstimate(-1e-4, 1e-4, 1000, -3.6e-4, 1.6e-4),
]


def _refs(est):
    """References at, just inside and just outside both ends, and at the mean."""
    refs = [est.mean]
    for end, inward in ((est.ci99_low, math.inf), (est.ci99_high, -math.inf)):
        if math.isfinite(end):
            refs += [end, np.nextafter(end, inward), np.nextafter(end, -inward)]
    return [float(ref) for ref in refs]


@pytest.mark.parametrize("est", ESTIMATES, ids=range(len(ESTIMATES)))
def test_contains_matches_the_interval(est):
    assert est.ci99_low < est.mean < est.ci99_high
    for ref in _refs(est) + [est.mean + 1e6]:
        verdict = contains(est, ref)
        assert verdict.ok == est.contains(ref), ref
        assert not math.isnan(verdict.margin), ref


def test_unbounded_interval_keeps_a_full_margin():
    est = ESTIMATES[2]
    assert contains(est, 1e300).margin == 1.0
    assert contains(est, 1.1).margin == 0.0
    assert not contains(est, np.nextafter(1.1, 0.0)).ok


def test_line_format():
    assert _line("gamma-vs-empirical", Verdict(1e-4, 4e-4)) == (
        "PASS  gamma-vs-empirical         gap=0.0001 slack=0.0004 margin=0.750"
    )
    assert _line("e0-exact-anchor", Verdict(0.003, 0.002)).startswith("FAIL")
    assert _line("e0-exact-anchor", Verdict(0.003, 0.002)).endswith("margin=-0.500")
    # an exact-equality claim has no slack to spend
    assert _line("stream-reproducibility", Verdict(0.0, 0.0)).endswith("margin=exact")
    assert _line("stream-reproducibility", Verdict(1e-17, 0.0)).startswith("FAIL")


def test_worst_verdict_prefers_a_failure():
    passing, tight, failing = Verdict(0.1, 1.0), Verdict(0.9, 1.0), Verdict(2.0, 1.0)
    assert _worst([passing, tight]) == tight
    assert _worst([passing, failing, tight]) == failing
    # a signed gap below zero leaves more than the whole slack
    assert _worst([Verdict(-0.5, 1.0), passing]) == passing


@pytest.mark.parametrize("t, r, c3", [(1, 1, 2.0), (2, 2, 3.5), (1, 2, 8.0), (1, 3, 20.0), (1, 4, 40.0)])
def test_expansion_budget_takes_the_cubic_coefficient(t, r, c3):
    # c3 = r (r^2 + t^2 + 3 r t + 1) / (3 t^2); below 10 the flat 10 snr^3 stays
    est, snr = ESTIMATES[0], 0.05
    verdict = expansion_gap(est, 0.5, ChannelDims(t, r, 1), snr)
    assert verdict.slack == est.ci99_half + max(10.0, c3) * snr**3


def test_expansion_agrees_where_the_remainder_passes_ten_snr_cubed():
    # at (t, r) = (1, 4) the dropped remainder is about 40 snr^3, so a flat
    # 10 snr^3 budget called a correct expansion wrong there
    dims, snr = ChannelDims(1, 4, 1), 0.05
    est = mc_coherent_mi(dims, snr, 200_000, RngStream(0, 0))
    closed = coherent_expansion(dims, snr).total
    assert abs(est.mean - closed) > est.ci99_half + 10.0 * snr**3
    assert expansion_gap(est, closed, dims, snr).ok


def test_oracle_check_cells_are_the_expansion_verdict(tmp_path):
    cfg_path = tmp_path / "oc.cfg"
    cfg_path.write_text(
        "quantity = oracle-check\nt = 1, 2\nr = 2, 4\nl = 1\nsnr = 0.05, 0.3\n"
        "n_samples = 2000\nseed = 9\n",
        encoding="utf-8",
    )
    out = tmp_path / "oc.csv"
    run_sweep(load_config(cfg_path), out=str(out), err_stream=io.StringIO())
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for index, row in enumerate(rows):
        dims, snr = ChannelDims(int(row["t"]), int(row["r"]), int(row["l"])), float(row["snr"])
        est = mc_coherent_mi(dims, snr, 2000, RngStream(9, index))
        verdict = expansion_gap(est, coherent_expansion(dims, snr).total, dims, snr)
        assert float(row["abs_gap"]) == verdict.gap
        assert float(row["slack"]) == verdict.slack
        assert row["agree"] == ("true" if verdict.ok else "false")


@pytest.mark.parametrize(
    "threads, message",
    [
        (0, "threads must be >= 1, got 0"),
        (-1, "threads must be >= 1, got -1"),
        (1.5, "threads must be an integer, got 1.5"),
        (True, "threads must be an integer, got True"),
    ],
    ids=["0", "-1", "1.5", "True"],
)
def test_run_check_rejects_threads_before_printing(threads, message):
    out = io.StringIO()
    with pytest.raises(DomainError) as err:
        run_check(threads=threads, out=out)
    assert str(err.value) == message
    assert out.getvalue() == ""


def test_check_and_sweep_at_once_on_the_shared_pool(tmp_path):
    cfg_path = tmp_path / "oc.cfg"
    cfg_path.write_text(
        "quantity = oracle-check\nt = 1, 2\nr = 1, 2\nl = 1\nsnr = 0.01, 0.02\n"
        "n_samples = 200000\n",
        encoding="utf-8",
    )
    cfg = load_config(cfg_path)

    def table(threads):
        out = io.StringIO()
        run_check(seed=0, threads=threads, out=out)
        return out.getvalue()

    def sweep(threads):
        out = tmp_path / f"oc-{threads}.csv"
        run_sweep(cfg, out=str(out), threads=threads, err_stream=io.StringIO())
        return out.read_bytes()

    expected = {"check": table(1), "sweep": sweep(1)}
    got = {}
    users = [
        threading.Thread(target=lambda: got.update(check=table(2))),
        threading.Thread(target=lambda: got.update(sweep=sweep(2))),
    ]
    for user in users:
        user.start()
    for user in users:
        user.join(timeout=120)
    assert not any(user.is_alive() for user in users)
    assert got == expected


def test_stream_reproducibility_compares_two_threads(monkeypatch):
    # an oracle call runs on whichever thread calls it: at threads > 1 the
    # mapped leg runs on a pool thread, the other on the caller
    legs = []

    def recording(*args):
        if args[2] == 2000:
            legs.append(threading.current_thread())
        return mc_coherent_mi(*args)

    monkeypatch.setattr("widemimo.check.mc_coherent_mi", recording)
    out = io.StringIO()
    assert run_check(seed=0, threads=2, out=out) == 0
    assert len(legs) == 2 and legs[0] is not legs[1]
    assert "stream-reproducibility     gap=0 slack=0 margin=exact" in out.getvalue()


def test_only_check_and_sweep_reach_the_pool(tmp_path, monkeypatch):
    # an oracle call runs its chunks on the caller, so ``_map``, the one way
    # onto the pool, is called only where whole oracle calls and sweep rows
    # become tasks
    callers = []
    mapped = oracles._map

    def recording(fn, threads, *iterables):
        callers.append(sys._getframe(1).f_code.co_name)
        return mapped(fn, threads, *iterables)

    monkeypatch.setattr(oracles, "_map", recording)
    run_check(seed=0, threads=2, out=io.StringIO())
    # 200,000 samples are four chunks per row
    cfg_path = tmp_path / "oc.cfg"
    cfg_path.write_text(
        "quantity = oracle-check\nt = 1, 2\nr = 1\nl = 1\nsnr = 0.01\nn_samples = 200000\n",
        encoding="utf-8",
    )
    run_sweep(load_config(cfg_path), out=str(tmp_path / "oc.csv"), threads=2)
    assert set(callers) == {"_checks", "run_sweep"}
