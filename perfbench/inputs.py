"""Seeded inputs for the benchmark: sweep grids, check seeds and oracle calls.

Every value is drawn from ``random.Random`` keyed by the workload seed and a
fixed label, so one seed always gives the same inputs and any seed gives the
same row and call counts.  Three sizes exist: ``full`` for the family a
workload is about, ``probe`` for the families it only samples so that every
metric is measured on every workload, and ``tiny`` for the self-test.
"""

import math
import random

T_VALUES = (1, 2, 4)
R_VALUES = (1, 2)

# Column order of each sweep's grid keys, as the CSV header lists them.
GRID_KEYS = {
    "capacity": ("t", "r", "l", "snr"),
    "sublinear": ("t", "r", "snr", "l"),
    "exponent": ("t", "r", "snr", "l", "rate"),
    "outage": ("t", "r", "snr", "l", "rate"),
    "iid": ("r", "snr", "amplitude_sq"),
    "oracle-check": ("t", "r", "l", "snr"),
}
CLOSED_FORM = ("capacity", "sublinear", "exponent", "outage")

# Number of drawn values per grid axis; t and r are always the full sets.
CLOSED_FORM_AXES = {
    "full": {
        "capacity": {"snr": 50, "l": 100},
        "sublinear": {"snr": 50, "l": 100},
        "exponent": {"snr": 24, "l": 24, "rate": 29},
        "outage": {"snr": 10, "l": 20, "rate": 20},
    },
    "probe": {
        "capacity": {"snr": 10, "l": 20},
        "sublinear": {"snr": 10, "l": 20},
        "exponent": {"snr": 8, "l": 8, "rate": 10},
        "outage": {"snr": 5, "l": 8, "rate": 8},
    },
    "tiny": {
        "capacity": {"snr": 2, "l": 2},
        "sublinear": {"snr": 2, "l": 2},
        "exponent": {"snr": 2, "l": 2, "rate": 2},
        "outage": {"snr": 2, "l": 2, "rate": 2},
    },
}

VALIDATION_SIZES = {
    # check seeds, iid snr x amplitude counts, oracle-check snr count and n
    "full": {"checks": 3, "iid": (12, 10), "oc_snr": 4, "oc_n": 200_000},
    "probe": {"checks": 1, "iid": (2, 2), "oc_snr": 1, "oc_n": 10_000},
    "tiny": {"checks": 1, "iid": (1, 1), "oc_snr": 1, "oc_n": 2_000},
}


def _rng(seed, label):
    return random.Random(f"widemimo-bench:{seed}:{label}")


def _log_uniform(rng, lo, hi, k):
    a, b = math.log10(lo), math.log10(hi)
    return tuple(sorted(10.0 ** rng.uniform(a, b) for _ in range(k)))


def closed_form_grids(seed, size):
    """{quantity: {key: values}} for the four closed-form sweeps.

    snr is log-uniform in [1e-4, 1e-1], l an integer log-uniform in
    [10, 1e5] and rate uniform in [0, 50] nats.  Explicit l and rate (not
    nu/kappa) make every row one public API call at the same point.
    """
    grids = {}
    for quantity, axes in CLOSED_FORM_AXES[size].items():
        rng = _rng(seed, quantity)
        grid = {"t": T_VALUES, "r": R_VALUES}
        grid["snr"] = _log_uniform(rng, 1e-4, 1e-1, axes["snr"])
        grid["l"] = tuple(sorted(round(x) for x in _log_uniform(rng, 10, 1e5, axes["l"])))
        if "rate" in axes:
            grid["rate"] = tuple(sorted(rng.uniform(0.0, 50.0) for _ in range(axes["rate"])))
        grids[quantity] = {key: grid[key] for key in GRID_KEYS[quantity]}
    return grids


def validation_inputs(seed, size):
    """Check seeds plus the iid and oracle-check grids of validation-heavy."""
    spec = VALIDATION_SIZES[size]
    rng = _rng(seed, "validation")
    check_seeds = tuple(rng.randrange(1, 2**31) for _ in range(spec["checks"]))
    n_snr, n_amp = spec["iid"]
    iid = {
        "r": (1, 2),
        "snr": _log_uniform(rng, 1e-4, 1e-2, n_snr),
        "amplitude_sq": _log_uniform(rng, 5.0, 50.0, n_amp),
    }
    oracle_check = {
        "t": (1, 2),
        "r": (1, 2),
        "l": (1,),
        "snr": _log_uniform(rng, 0.01, 0.05, spec["oc_snr"]),
    }
    return {
        "check_seeds": check_seeds,
        "grids": {"iid": iid, "oracle-check": oracle_check},
        "oc_n": spec["oc_n"],
        "sweep_seed": rng.randrange(1, 2**31),
    }


def write_config(path, quantity, grid, seed=0, n_samples=None):
    """Write a flat ``key = value`` sweep config; repr keeps floats exact."""
    lines = [f"quantity = {quantity}"]
    lines += [f"{key} = {', '.join(repr(v) for v in values)}" for key, values in grid.items()]
    lines.append(f"seed = {seed}")
    if n_samples is not None:
        lines.append(f"n_samples = {n_samples}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def row_count(grid):
    return math.prod(len(values) for values in grid.values())


# ---------------------------------------------------------------------------
# Oracle calls.  Each is (function, positional arguments before n, n, stream
# id, target 99% half-width, reference kind).  The full list is the acceptance
# suite's: criterion 1's cells and criterion 2's anchors at n = 1e6, the 2x2
# l=10 Gallager call, a 4-point curve, criterion 7's on-off grid and
# criterion 5's tail cells.  Targets are 1e-4 nats for mutual information and
# 1e-3 for the Gallager function and for probabilities.
# ---------------------------------------------------------------------------

_MI_TOL = 1e-4
_E0_TOL = 1e-3
_P_TOL = 1e-3
_CURVE_RHOS = (0.25, 0.5, 0.75, 1.0)


def oracle_calls(size):
    """Call descriptions; families.OracleCalls computes the references."""
    calls = []
    if size == "full":
        n = 10**6
        for idx, (t, r) in enumerate(((1, 1), (2, 2), (2, 3))):
            for jdx, snr in enumerate((0.05, 0.02, 0.01)):
                calls.append(("mc_coherent_mi", (t, r, 1, snr), n, 1000 + 10 * idx + jdx,
                              _MI_TOL, "expansion"))
        calls.append(("mc_coherent_mi", (1, 1, 1, 1.0), n, 1100, _MI_TOL, "mi-anchor"))
        calls.append(("mc_e0_exact", (1, 1, 1, 2.0, 1.0), n, 1101, _E0_TOL, "e0-anchor"))
        calls.append(("mc_e0_exact", (2, 2, 10, 0.1, 1.0), n, 1102, _E0_TOL, None))
        calls.append(("mc_e0_curve", (2, 2, 10, 0.1, _CURVE_RHOS), 20_000, 1103, _E0_TOL, None))
        sid = 1400
        for r in (1, 2):
            for snr in (1e-2, 1e-3):
                for amp in (10.0, 20.0, 50.0):
                    calls.append(("mc_onoff_mi", (r, snr, amp), n, sid, _MI_TOL, "onoff"))
                    sid += 1
        sid = 1350
        for k in (1, 2, 4, 9):
            for x in (0.1, 1.0, float(k)):
                calls.append(("empirical_tail_cdf", (k, x), n, sid, _P_TOL, "gamma"))
                sid += 1
        return calls
    n = 100_000 if size == "probe" else 2_000
    return [
        ("mc_coherent_mi", (2, 2, 1, 0.05), n, 1001, _MI_TOL, "expansion"),
        ("mc_e0_exact", (2, 2, 10, 0.1, 1.0), n, 1102, _E0_TOL, None),
        ("mc_e0_curve", (2, 2, 10, 0.1, _CURVE_RHOS), 20_000 if size == "probe" else n,
         1103, _E0_TOL, None),
        ("mc_onoff_mi", (1, 1e-2, 10.0), max(n, 10_000), 1400, _MI_TOL, "onoff"),
        ("empirical_tail_cdf", (4, 1.0), n, 1356, _P_TOL, "gamma"),
    ]
