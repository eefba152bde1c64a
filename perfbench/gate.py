"""Correctness gate for sweep CSVs and the check table.

A CSV passes when it has the configured header and row count, every cell
round-trips through its type's text form, no row carries an error, the grid
columns echo the grid in lexicographic order, and a seeded sample of rows
agrees with the public API at the same point within 1e-12 relative.
"""

import csv
import hashlib
import itertools
import math
import random
import re

import widemimo as wm

from inputs import GRID_KEYS

REL_TOL = 1e-12

# Computed columns of each quantity with the type each cell must parse as.
COMPUTED = {
    "capacity": (("linear", float), ("sublinear", float), ("total", float),
                 ("gaussian_lower_bound", float), ("lb_negative", bool), ("dropped", str)),
    "sublinear": (("value", float), ("dropped", str)),
    "exponent": (("rate_nats", float), ("e_r", float), ("rho", float), ("region", str),
                 ("r_critical", float), ("r_cutoff", float), ("c_block", float),
                 ("c_block_training_lb", float), ("asymptotics_binding", bool),
                 ("dropped", str)),
    "outage": (("rate_nats", float), ("f_star", float), ("gamma_star", float),
               ("outage", float), ("delta_times_outage", float), ("block_error_bound", float)),
    "iid": (("omega", float), ("divergence", float), ("zeta_star", float),
            ("mi_quadrature", float), ("mi_asymptotic", float), ("zeta_ratio", float),
            ("bracket_lower", float), ("bracket_upper", float), ("delta_iid_dot", float),
            ("m_star", float), ("m_star_argmin", float)),
    "oracle-check": (("n_samples", int), ("mc_mean", float), ("mc_std_error", float),
                     ("ci99_low", float), ("ci99_high", float), ("closed_form", float),
                     ("abs_gap", float), ("slack", float), ("agree", bool)),
}
_GRID_TYPES = {"t": int, "r": int, "l": int, "snr": float, "rate": float, "amplitude_sq": float}

# Rows compared against the public API per CSV; oracle-check rows re-run
# Monte Carlo, so fewer of them.
SAMPLE_ROWS = {"iid": 20, "oracle-check": 2}
DEFAULT_SAMPLE_ROWS = 200


def header(quantity):
    return list(GRID_KEYS[quantity]) + [name for name, _ in COMPUTED[quantity]] + ["error"]


def sample_indices(seed, quantity, n_rows):
    k = min(SAMPLE_ROWS.get(quantity, DEFAULT_SAMPLE_ROWS), n_rows)
    return sorted(random.Random(f"widemimo-bench-gate:{seed}:{quantity}").sample(range(n_rows), k))


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def expected_row(quantity, p, seed=0, n_samples=0, index=0):
    """Computed columns for one grid point, from public functions only."""
    if quantity == "iid":
        r, snr, a = p["r"], p["snr"], p["amplitude_sq"]
        spec = wm.onoff_building_blocks(r, snr, a)
        expansion = wm.onoff_mi_asymptotic(r, snr, a)
        bracket = wm.iid_capacity_bracket(r, snr)
        mstar = wm.m_star(r, snr)
        return {
            "omega": spec.omega, "divergence": spec.divergence, "zeta_star": spec.zeta_star,
            "mi_quadrature": wm.onoff_mi_quadrature(r, snr, a, rel_tol=1e-10),
            "mi_asymptotic": expansion.value, "zeta_ratio": expansion.zeta_ratio,
            "bracket_lower": bracket.lower, "bracket_upper": bracket.upper,
            "delta_iid_dot": bracket.delta_iid_dot,
            "m_star": mstar.m_star, "m_star_argmin": mstar.argmin_amplitude_sq,
        }
    dims = wm.ChannelDims(p["t"], p["r"], p["l"])
    snr = p["snr"]
    if quantity == "capacity":
        expansion = wm.coherent_expansion(dims, snr)
        lb = wm.gaussian_lower_bound(dims, snr)
        return {
            "linear": expansion.linear, "sublinear": expansion.sublinear,
            "total": expansion.total, "gaussian_lower_bound": lb, "lb_negative": lb < 0.0,
            "dropped": "snr^3 remainder dropped",
        }
    if quantity == "sublinear":
        return {
            "value": wm.sublinear_term(dims, snr, coherence_length=p["l"]),
            "dropped": "remainder beyond snr/sqrt(l) dropped",
        }
    if quantity == "exponent":
        point = wm.error_exponent(dims, snr, p["rate"])
        lm = wm.rate_landmarks(dims, snr)
        return {
            "rate_nats": p["rate"], "e_r": point.value, "rho": point.rho,
            "region": point.region, "r_critical": lm.r_critical, "r_cutoff": lm.r_cutoff,
            "c_block": lm.c_block, "c_block_training_lb": lm.c_block_training_lb,
            "asymptotics_binding": lm.asymptotics_binding, "dropped": point.dropped,
        }
    if quantity == "outage":
        regime = wm.regime_from_coherence(dims, snr)
        opt = wm.training_f_star(dims, regime.snr_b)
        out = wm.outage_probability(dims, snr, p["rate"])
        return {
            "rate_nats": p["rate"], "f_star": opt.f_star, "gamma_star": opt.gamma_star,
            "outage": out.probability, "delta_times_outage": out.error_weighted,
            "block_error_bound": wm.block_error_bound(dims, snr, p["rate"]),
        }
    # oracle-check: the row's Monte Carlo stream id is its row index
    est = wm.mc_coherent_mi(dims, snr, n_samples, wm.RngStream(seed, index))
    closed = wm.coherent_expansion(dims, snr).total
    gap = abs(est.mean - closed)
    slack = est.ci99_half + 10.0 * snr**3
    return {
        "n_samples": n_samples, "mc_mean": est.mean, "mc_std_error": est.std_error,
        "ci99_low": est.ci99_low, "ci99_high": est.ci99_high, "closed_form": closed,
        "abs_gap": gap, "slack": slack, "agree": gap <= slack,
    }


def _parse(kind, text):
    """Parse a cell; None unless its text is the canonical form of its value."""
    if kind is bool:
        return {"true": True, "false": False}.get(text)
    if kind is int:
        try:
            value = int(text)
        except ValueError:
            return None
        return value if str(value) == text else None
    if kind is float:
        try:
            value = float(text)
        except ValueError:
            return None
        return value if format(value, ".17g") == text else None
    return text


def _agrees(got, want):
    if isinstance(want, float) and not isinstance(got, bool):
        if got == want:
            return True
        return abs(got - want) <= REL_TOL * max(abs(got), abs(want))
    return got == want


def check_csv(path, quantity, grid, seed=0, n_samples=0, gate_seed=0):
    """Problems found in one sweep CSV; an empty list means it passes."""
    cols = [(key, _GRID_TYPES[key]) for key in GRID_KEYS[quantity]] + list(COMPUTED[quantity])
    keys = list(GRID_KEYS[quantity])
    points = itertools.product(*(grid[key] for key in keys))
    n_expected = math.prod(len(grid[key]) for key in keys)
    sampled = set(sample_indices(gate_seed, quantity, n_expected))
    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got_header = next(reader, None)
        if got_header != header(quantity):
            return [f"{quantity}: header {got_header} != {header(quantity)}"]
        n_rows = 0
        for index, (row, point) in enumerate(itertools.zip_longest(reader, points)):
            if row is None:
                break
            n_rows += 1
            if point is None:
                continue
            if len(row) != len(cols) + 1:
                problems.append(f"{quantity} row {index}: {len(row)} cells")
                continue
            if row[-1]:
                problems.append(f"{quantity} row {index}: error {row[-1]!r}")
            values = {}
            for (name, kind), text in zip(cols, row):
                value = _parse(kind, text)
                if value is None:
                    problems.append(f"{quantity} row {index}: {name}={text!r} does not round-trip")
                values[name] = value
            params = dict(zip(keys, point))
            if any(values[key] != params[key] for key in keys):
                problems.append(f"{quantity} row {index}: grid columns out of order")
            elif index in sampled:
                want = expected_row(quantity, params, seed, n_samples, index)
                for name, value in want.items():
                    if values[name] is not None and not _agrees(values[name], value):
                        problems.append(
                            f"{quantity} row {index}: {name}={values[name]!r}, public API {value!r}"
                        )
            if len(problems) > 20:
                break
    if n_rows != n_expected and len(problems) <= 20:
        problems.append(f"{quantity}: {n_rows} rows, configured {n_expected}")
    return problems


_CHECK_LINE = re.compile(r"^(PASS|FAIL)  \S+")


def check_table(text, code):
    """(problems, fail_lines) for the output and exit code of ``check``."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[-1].startswith("check summary: "):
        return ["check: missing summary line"], 0
    body = lines[:-1]
    bad = [line for line in body if not _CHECK_LINE.match(line)]
    fails = sum(line.startswith("FAIL") for line in body)
    problems = [f"check: malformed line {line!r}" for line in bad[:3]]
    want_code = 0 if fails == 0 else 1
    if code != want_code:
        problems.append(f"check: exit code {code} with {fails} FAIL lines")
    return problems, fails
