"""One operating-point path: sweep rows, the public API and diversity_low_snr agree.

The exponent and outage sweeps, the public reliability functions and the
grid loop of ``diversity_low_snr`` all evaluate through
``reliability.operating_point``, so their numbers are compared with ``==``,
not with a tolerance.  A layering check keeps other modules off the private
names of ``reliability`` and keeps the closed forms off the Monte Carlo module.
"""

import ast
import csv
import io
import math
from pathlib import Path

import pytest

from widemimo import (
    ChannelDims,
    TrainingInfeasibleError,
    block_error_bound,
    diversity_low_snr,
    error_exponent,
    exponent_curve,
    outage_probability,
    rate_landmarks,
    regime_from_coherence,
    regime_from_nu,
    run_sweep,
    slope_fit,
    training_f_star,
)
from widemimo.reliability import operating_point
from widemimo.sweep import SweepConfig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "widemimo"

# l = 2 with t = 2 cannot train; rate and kappa both resolve a rate on the l path
L_GRIDS = {
    "rate": {
        "t": (1, 2), "r": (1, 2), "snr": (0.01, 0.05), "l": (2, 50, 2500),
        "rate": (0.0, 0.4, 3.0, 30.0),
    },
    "kappa": {"t": (1, 2), "r": (2,), "snr": (0.01, 0.05), "l": (2, 2500), "kappa": (1.2, 1.6)},
}
# snr = 0.5 puts the coherence length 0.5 below t = 2, where training fails
NU, KAPPA = 0.5, 0.75
NU_GRID = {
    "t": (2,), "r": (2,), "snr": (0.5, 0.1, 0.03, 0.01, 0.003), "nu": (NU,), "kappa": (KAPPA,),
}


def sweep_rows(tmp_path, quantity, grids):
    out = tmp_path / f"{quantity}.csv"
    run_sweep(SweepConfig(quantity=quantity, grids=grids), out=str(out), err_stream=io.StringIO())
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def floats(row, *keys):
    return tuple(float(row[k]) for k in keys)


@pytest.mark.parametrize("variant", sorted(L_GRIDS))
def test_exponent_rows_equal_public_api(tmp_path, variant):
    rows = sweep_rows(tmp_path, "exponent", L_GRIDS[variant])
    assert rows and not any(row["error"] for row in rows)
    for row in rows:
        dims = ChannelDims(int(row["t"]), int(row["r"]), int(row["l"]))
        snr, rate = float(row["snr"]), float(row["rate_nats"])
        point = error_exponent(dims, snr, rate)
        lm = rate_landmarks(dims, snr)
        (curve_point,) = exponent_curve(dims, snr, [rate]).samples
        assert curve_point == point
        assert floats(row, "e_r", "rho") == (point.value, point.rho)
        assert (row["region"], row["dropped"]) == (point.region, point.dropped)
        assert floats(row, "r_critical", "r_cutoff", "c_block", "c_block_training_lb") == (
            lm.r_critical, lm.r_cutoff, lm.c_block, lm.c_block_training_lb,
        )
        assert row["asymptotics_binding"] == ("true" if lm.asymptotics_binding else "false")


@pytest.mark.parametrize("variant", sorted(L_GRIDS))
def test_outage_rows_equal_public_api(tmp_path, variant):
    rows = sweep_rows(tmp_path, "outage", L_GRIDS[variant])
    infeasible = [row for row in rows if int(row["l"]) <= int(row["t"])]
    assert infeasible
    for row in rows:
        dims = ChannelDims(int(row["t"]), int(row["r"]), int(row["l"]))
        snr = float(row["snr"])
        if dims.l <= dims.t:
            expected = f"training needs l > t, got l={dims.l}, t={dims.t}"
            assert row["error"] == f"TrainingInfeasibleError: {expected}"
            with pytest.raises(TrainingInfeasibleError):
                outage_probability(dims, snr, 1.0)
            continue
        assert row["error"] == ""
        rate = float(row["rate_nats"])
        optimum = training_f_star(dims, regime_from_coherence(dims, snr).snr_b)
        outage = outage_probability(dims, snr, rate)
        assert floats(row, "f_star", "gamma_star") == (optimum.f_star, optimum.gamma_star)
        assert floats(row, "outage", "delta_times_outage") == (
            outage.probability, outage.error_weighted,
        )
        assert float(row["block_error_bound"]) == block_error_bound(dims, snr, rate)


def test_nu_kappa_rows_equal_diversity_fits(tmp_path):
    rows = sweep_rows(tmp_path, "outage", NU_GRID)
    assert rows[0]["error"].startswith("TrainingInfeasibleError: training needs l > t")
    feasible = rows[1:]
    assert not any(row["error"] for row in feasible)
    dims = ChannelDims(2, 2, 100)  # diversity_low_snr uses only t and r
    with pytest.raises(TrainingInfeasibleError):
        diversity_low_snr(dims, NU, KAPPA, snr_grid=NU_GRID["snr"])
    grid = [float(row["snr"]) for row in feasible]
    est = diversity_low_snr(dims, NU, KAPPA, snr_grid=grid)
    x = [math.log(snr) for snr in grid]
    assert est.outage_fit == slope_fit(
        zip(x, (math.log(float(row["delta_times_outage"])) for row in feasible))
    )
    # the exponent rows hold the exponent behind the outage rows' bound column,
    # and the bound fit's log delta - E_r
    exponent_rows = sweep_rows(tmp_path, "exponent", NU_GRID)
    assert not any(row["error"] for row in exponent_rows)
    log_bounds = []
    for row, bound_row in zip(exponent_rows[1:], feasible):
        assert row["rate_nats"] == bound_row["rate_nats"]
        delta = regime_from_nu(float(row["snr"]), NU).delta
        assert delta * math.exp(-float(row["e_r"])) == float(bound_row["block_error_bound"])
        log_bounds.append(math.log(delta) - float(row["e_r"]))
    assert est.bound_fit == slope_fit(zip(x, log_bounds))


def test_training_raises_where_the_point_cannot_train():
    # l = t = 2 leaves no symbol for data; the point still has its landmarks
    point = operating_point(2, 1, 0.01, l=2)
    assert point.landmarks == rate_landmarks(ChannelDims(2, 1, 2), 0.01)
    for _ in range(2):  # a failed cached_property caches nothing
        with pytest.raises(TrainingInfeasibleError) as err:
            point.training
        assert str(err.value) == "training needs l > t, got l=2, t=2"
    with pytest.raises(TrainingInfeasibleError):
        point.outage(1.0)


def private_reliability_uses(tree):
    """_-prefixed names of reliability that a module reaches, by attribute or import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "reliability" and node.attr.startswith("_"):
                found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("reliability"):
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
    return found


def imported_modules(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return {name.rsplit(".", 1)[-1] for name in names}


def test_layering():
    sources = sorted(PACKAGE.glob("*.py"))
    assert any(path.name == "reliability.py" for path in sources)
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "reliability.py":
            assert "oracles" not in imported_modules(tree), "closed forms import the MC module"
        else:
            assert private_reliability_uses(tree) == [], path.name
