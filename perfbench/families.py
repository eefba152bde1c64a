"""The three operation families the workloads are built from.

Each family builds its inputs from the seed at one size, runs one repetition
of its operations per ``rep`` call (spans around every call into a layer),
and settles the correctness gate in ``finish``.  An operation is one sweep,
one check run or one oracle call in one repetition; it fails when it raises,
when its output fails the gate, or when its output differs from another
repetition's or from a threads=1 run.
"""

import contextlib
import io
import math
import os
import time
from statistics import median

from scipy import integrate

import widemimo as wm
from widemimo import cli

import gate
from inputs import (
    CLOSED_FORM,
    closed_form_grids,
    oracle_calls,
    validation_inputs,
    write_config,
)

CLI_THREADS = 2


class Ledger:
    """Per-operation fingerprints across repetitions, settled once at the end."""

    def __init__(self):
        self.prints = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def attempt(self, key, fn):
        """Run one operation; its return value is the fingerprint to compare."""
        try:
            fingerprint = fn()
        except Exception as exc:  # one failing operation must not end the run
            self.problems.append(f"{key}: {type(exc).__name__}: {exc}")
            fingerprint = None
        self.prints.setdefault(key, []).append(fingerprint)
        return fingerprint

    def settle(self, key, reference, problems=()):
        """Count the repetitions of ``key`` whose output was not ``reference``."""
        self.problems.extend(problems)
        runs = self.prints.get(key, [])
        self.attempted += len(runs)
        if problems:
            self.failed += len(runs)
            return
        bad = [fp for fp in runs if fp is None or fp != reference]
        if bad and reference is not None:
            self.problems.append(f"{key}: output differs between repetitions")
        self.failed += len(bad)

    def extra(self, key, same, problem):
        """An operation outside the timed repetitions, such as a threads=1 rerun;
        ``same()`` runs it and says whether its output matched."""
        self.attempted += 1
        try:
            ok = same()
        except Exception as exc:  # counted as a failure like any other operation
            ok, problem = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            self.problems.append(f"{key}: {problem}")


def gate_problems(key, check):
    """Problems ``check()`` finds; a gate that raises is one problem more."""
    try:
        return check()
    except Exception as exc:  # a broken output must be reported, not end the run
        return [f"{key}: gate raised {type(exc).__name__}: {exc}"]


def _quiet_cli(argv):
    """Run ``widemimo`` in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class ClosedFormSweeps:
    """One run_sweep per closed-form quantity at threads=1, CSV to disk."""

    name = "sweep-closed-form"

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.grids = closed_form_grids(seed, size)
        self.paths = {}
        for quantity, grid in self.grids.items():
            cfg = os.path.join(workdir, f"{quantity}.cfg")
            write_config(cfg, quantity, grid)
            self.paths[quantity] = (cfg, os.path.join(workdir, f"{quantity}.csv"))
        self.ledger = Ledger()

    def rep(self, tracer):
        rec = {"rows": 0, "csv_bytes": 0}
        start = time.perf_counter()
        for quantity in CLOSED_FORM:
            cfg_path, csv_path = self.paths[quantity]

            def op():
                with tracer.span("sweep.load_config"):
                    config = wm.load_config(cfg_path)
                with tracer.span(f"sweep.run_sweep.{quantity}"):
                    summary = wm.run_sweep(config, out=csv_path, threads=1, err_stream=io.StringIO())
                rec["rows"] += summary.rows
                return summary.rows

            self.ledger.attempt(quantity, op)
        rec["wall"] = time.perf_counter() - start
        for quantity in CLOSED_FORM:
            csv_path = self.paths[quantity][1]
            if self.ledger.prints[quantity][-1] is not None:
                rec["csv_bytes"] += os.path.getsize(csv_path)
                self.ledger.prints[quantity][-1] = gate.file_digest(csv_path)
        return rec

    def finish(self):
        for quantity in CLOSED_FORM:
            csv_path = self.paths[quantity][1]
            problems = gate_problems(quantity, lambda: gate.check_csv(
                csv_path, quantity, self.grids[quantity], gate_seed=self.seed))
            digest = None if problems else gate.file_digest(csv_path)
            self.ledger.settle(quantity, digest, problems)

    @staticmethod
    def layers(reps, selfs):
        out = {
            "rows_per_s": median([r["rows"] / r["wall"] for r in reps]),
            "sweep.load_config_s": median([s["sweep.load_config"][0] for s in selfs]),
            "sweep.rows": median([r["rows"] for r in reps]),
            "sweep.csv_bytes": median([r["csv_bytes"] for r in reps]),
        }
        for quantity in CLOSED_FORM:
            out[f"sweep.run_sweep.{quantity}_s"] = median(
                [s[f"sweep.run_sweep.{quantity}"][0] for s in selfs]
            )
        return out


def _quad_anchor(kind):
    if kind == "mi-anchor":
        value, _ = integrate.quad(lambda u: math.exp(-u) * math.log1p(u), 0.0, math.inf)
        return value
    value, _ = integrate.quad(lambda u: math.exp(-u) / (1.0 + u), 0.0, math.inf)
    return -math.log(value)


class OracleCalls:
    """Direct calls to the five Monte Carlo oracles at threads=1."""

    name = "oracle-mc"

    def __init__(self, seed, size, workdir=None):
        self.seed = seed
        self.calls = []
        for fn, args, n, sid, tol, kind in oracle_calls(size):
            ref, extra_slack = None, 0.0
            if kind == "expansion":
                t, r, l, snr = args
                ref = wm.coherent_expansion(wm.ChannelDims(t, r, l), snr).total
                extra_slack = 10.0 * snr**3
            elif kind in ("mi-anchor", "e0-anchor"):
                ref = _quad_anchor(kind)
            elif kind == "onoff":
                ref = wm.onoff_mi_quadrature(*args, rel_tol=1e-10)
            elif kind == "gamma":
                ref = wm.gamma_lower_regularized(*args)
            self.calls.append((fn, args, n, sid, tol, ref, extra_slack))
        self.ledger = Ledger()
        self.last = {}
        self.ci = None

    def _invoke(self, fn, args, n, sid):
        rng = wm.RngStream(self.seed, sid)
        if fn in ("mc_coherent_mi", "mc_e0_exact", "mc_e0_curve"):
            dims = wm.ChannelDims(*args[:3])
            return getattr(wm, fn)(dims, *args[3:], n, rng)
        return getattr(wm, fn)(*args, n, rng)

    def rep(self, tracer):
        rec = {"samples": 0, "call_s": 0.0, "time_to_tol": 0.0}
        estimates = []
        start = time.perf_counter()
        for fn, args, n, sid, tol, _, _ in self.calls:
            key = f"{fn}{args} stream={sid}"
            t0 = time.perf_counter()
            with tracer.span(f"oracles.{fn}"):
                est = self.ledger.attempt(key, lambda: self._invoke(fn, args, n, sid))
            dt = time.perf_counter() - t0
            estimates.append(est)
            if est is None:
                continue
            self.ledger.prints[key][-1] = _fingerprint(est)
            self.last[key] = est
            halves = [e.ci99_half for e in (est if isinstance(est, list) else [est])]
            rec["samples"] += n
            rec["call_s"] += dt
            rec["time_to_tol"] += dt * max(h / tol for h in halves) ** 2
        rec["wall"] = time.perf_counter() - start
        if self.ci is None:
            self.ci = self._ci_checks(estimates)
        return rec

    def _ci_checks(self, estimates):
        """99% CI containment against independent references, with margins.

        margin = (slack - gap) / slack; a miss is margin < 0.  Misses are
        expected at about 1% and are not operation failures.
        """
        checks = []
        for (fn, args, n, sid, _, ref, extra_slack), est in zip(self.calls, estimates):
            if ref is None or est is None:
                continue
            gap = abs(est.mean - ref)
            if extra_slack:
                slack = est.ci99_half + extra_slack
            else:
                slack = (est.ci99_high - est.mean) if ref >= est.mean else (est.mean - est.ci99_low)
            checks.append({
                "call": f"{fn}{args} n={n} stream={sid}", "mean": est.mean, "reference": ref,
                "gap": gap, "slack": slack, "margin": (slack - gap) / slack,
            })
        return checks

    def finish(self):
        for fn, args, n, sid, *_ in self.calls:
            key = f"{fn}{args} stream={sid}"
            est = self.last.get(key)
            problems = [] if est is None else _estimate_problems(est, n)
            self.ledger.settle(key, _fingerprint(est), [f"{key}: {p}" for p in problems])

    def layers(self, reps, selfs):
        out = {
            "samples_per_s": median([r["samples"] / r["call_s"] for r in reps]),
            "time_to_tol_s": median([r["time_to_tol"] for r in reps]),
        }
        for fn in ("mc_coherent_mi", "mc_e0_exact", "mc_e0_curve", "mc_onoff_mi", "empirical_tail_cdf"):
            out[f"oracles.{fn}_s"] = median([s[f"oracles.{fn}"][0] for s in selfs])
        out["oracles.samples"] = median([r["samples"] for r in reps])
        out["oracles.ci_checks"] = len(self.ci)
        out["oracles.ci_misses"] = sum(c["margin"] < 0.0 for c in self.ci)
        out["oracles.ci_min_margin"] = min(c["margin"] for c in self.ci)
        return out


def _fingerprint(est):
    if est is None:
        return None
    ests = est if isinstance(est, list) else [est]
    return tuple((e.mean, e.std_error, e.ci99_low, e.ci99_high, e.n_samples) for e in ests)


def _estimate_problems(est, n):
    problems = []
    for e in est if isinstance(est, list) else [est]:
        fields = (e.mean, e.std_error, e.ci99_low, e.ci99_high)
        if not all(math.isfinite(v) for v in fields):
            problems.append(f"non-finite estimate {fields}")
        elif not e.ci99_low <= e.mean <= e.ci99_high:
            problems.append(f"interval [{e.ci99_low}, {e.ci99_high}] misses its mean {e.mean}")
        if e.n_samples != n:
            problems.append(f"n_samples {e.n_samples} != {n}")
    return problems


class CliValidation:
    """In-process ``widemimo check`` and ``widemimo sweep`` at --threads 2."""

    name = "validation-heavy"

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.inputs = validation_inputs(seed, size)
        self.sweeps = {}
        for quantity, grid in self.inputs["grids"].items():
            cfg = os.path.join(workdir, f"{quantity}.cfg")
            n_samples = self.inputs["oc_n"] if quantity == "oracle-check" else None
            write_config(cfg, quantity, grid, seed=self.inputs["sweep_seed"], n_samples=n_samples)
            self.sweeps[quantity] = (cfg, os.path.join(workdir, f"{quantity}.csv"))
        self.ledger = Ledger()
        self.tables = {}

    def rep(self, tracer):
        rec = {"check_s": [], "fail_lines": 0}
        start = time.perf_counter()
        for check_seed in self.inputs["check_seeds"]:
            argv = ["check", "--seed", str(check_seed), "--threads", str(CLI_THREADS)]
            t0 = time.perf_counter()
            with tracer.span("check.run_check"):
                result = self.ledger.attempt(f"check {check_seed}", lambda: _quiet_cli(argv))
            rec["check_s"].append(time.perf_counter() - t0)
            if result is not None:
                problems, fails = gate.check_table(result[1], result[0])
                rec["fail_lines"] += fails
                self.tables[check_seed] = (result, problems)
        for quantity, (cfg, csv_path) in self.sweeps.items():
            argv = ["sweep", cfg, "--out", csv_path, "--threads", str(CLI_THREADS)]
            with tracer.span(f"sweep.run_sweep.{quantity}"):
                self.ledger.attempt(quantity, lambda: _quiet_cli(argv)[0])
        rec["wall"] = time.perf_counter() - start
        for quantity, (_, csv_path) in self.sweeps.items():
            if self.ledger.prints[quantity][-1] == 0:
                self.ledger.prints[quantity][-1] = gate.file_digest(csv_path)
        return rec

    def finish(self):
        """Gate the last outputs, then rerun each at threads=1 and compare."""
        for check_seed in self.inputs["check_seeds"]:
            key = f"check {check_seed}"
            if check_seed not in self.tables:
                self.ledger.settle(key, None)
                continue
            result, problems = self.tables[check_seed]
            self.ledger.settle(key, result, problems)
            argv = ["check", "--seed", str(check_seed), "--threads", "1"]
            self.ledger.extra(f"{key} threads=1", lambda: _quiet_cli(argv) == result,
                              "table differs from --threads 2")
        for quantity, (cfg, csv_path) in self.sweeps.items():
            grid = self.inputs["grids"][quantity]
            problems = gate_problems(quantity, lambda: gate.check_csv(
                csv_path, quantity, grid, seed=self.inputs["sweep_seed"],
                n_samples=self.inputs["oc_n"], gate_seed=self.seed,
            ))
            digest = None if problems else gate.file_digest(csv_path)
            self.ledger.settle(quantity, digest, problems)
            single_path = csv_path + ".threads1"
            argv = ["sweep", cfg, "--out", single_path, "--threads", "1"]
            self.ledger.extra(
                f"{quantity} threads=1",
                lambda: _quiet_cli(argv)[0] == 0 and gate.file_digest(single_path) == digest,
                "CSV differs from --threads 2",
            )

    @staticmethod
    def layers(reps, selfs):
        return {
            "check_s": median([t for r in reps for t in r["check_s"]]),
            "check.run_check_s": median([s["check.run_check"][0] for s in selfs]),
            "check.fail_lines": median([r["fail_lines"] for r in reps]),
            "sweep.run_sweep.iid_s": median([s["sweep.run_sweep.iid"][0] for s in selfs]),
            "sweep.run_sweep.oracle-check_s": median(
                [s["sweep.run_sweep.oracle-check"][0] for s in selfs]
            ),
        }


FAMILIES = {cls.name: cls for cls in (ClosedFormSweeps, OracleCalls, CliValidation)}
