"""Parameter sweeps over the closed forms and oracles, emitted as CSV.

Config files are flat ``key = value`` text; grids are comma-separated lists.
Keys are validated fail-closed against the schema of the requested quantity
(an unknown key aborts the load), SNR is always linear (no dB anywhere), and
rows stream out in deterministic lexicographic grid order regardless of how
many threads compute them.  The output is opened first, so a bad path fails
before any row is evaluated.

Rows are evaluated point by point.  The grid is the outer keys times the
innermost key, the last one of the schema (``snr`` for capacity and
oracle-check, ``alpha``/``l`` for sublinear, ``rate``/``kappa`` for exponent
and outage, ``amplitude_sq`` for iid).  What a row needs of its outer values
alone, such as its ``ChannelDims`` or its ``reliability.operating_point``, is
built once per outer combination; the rows of that point then run along the
innermost key.  Rows are evaluated and written in fixed-size chunks, also
inside one point, so memory is bounded by one chunk, not by the grid.

The CSV is what ``csv.writer(lineterminator="\n")`` writes over cells
rendered as ``.17g`` floats, ``str(int)``, ``true``/``false`` and ``""`` for
a missing value.  Each cell is rendered by a C-level callable looked up by
its exact type: the outer cells once per point, each innermost grid value
once per sweep, and a computed cell once per row unless it is the very object
of the previous row's cell.  A row's cells are joined with commas.  That fast
line is kept only when it holds no cell csv would quote (no comma inside a
cell, no double quote, no line break); any other row, such as an error whose
message holds a comma, goes through ``csv.writer``.  A chunk's lines are
gathered in memory and written to the output in one call.
"""

import contextlib
import csv
import io
import itertools
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from . import capacity, iid, oracles, reliability
from .channel import ChannelDims, RngStream
from .check import expansion_gap
from .errors import ConfigError, WidemimoError

__all__ = ["SweepConfig", "SweepSummary", "load_config", "run_sweep", "DEFAULT_ROW_CAP"]

DEFAULT_ROW_CAP = 10**6
ROW_CAP_ENV = "WIDEMIMO_ROW_CAP"

_QUANTITIES = ("capacity", "sublinear", "exponent", "outage", "iid", "oracle-check")

# grid schema: ordered (key, type) pairs; groups are sets of mutually
# exclusive alternatives of which exactly one must be present.  Exponent and
# outage rows share the grid of one reliability.operating_point and a rate.
_POINT_SCHEMA = {
    "keys": (
        ("t", int), ("r", int), ("snr", float),
        ("l", int), ("nu", float), ("rate", float), ("kappa", float),
    ),
    "groups": (("l", "nu"), ("rate", "kappa")),
}
_SCHEMAS = {
    "capacity": {"keys": (("t", int), ("r", int), ("l", int), ("snr", float)), "groups": ()},
    "sublinear": {
        "keys": (("t", int), ("r", int), ("snr", float), ("alpha", float), ("l", int)),
        "groups": (("alpha", "l"),),
    },
    "exponent": _POINT_SCHEMA,
    "outage": _POINT_SCHEMA,
    "iid": {"keys": (("r", int), ("snr", float), ("amplitude_sq", float)), "groups": ()},
    "oracle-check": {"keys": (("t", int), ("r", int), ("l", int), ("snr", float)), "groups": ()},
}

_SCALAR_KEYS = ("quantity", "seed", "n_samples", "out")


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep request: quantity, grids and reproducibility knobs."""

    quantity: str
    grids: dict
    seed: int = 0
    n_samples: int = 100_000
    output_path: str | None = None


@dataclass
class SweepSummary:
    """What a sweep did: row counts, failures, timing, seed."""

    rows: int = 0
    row_errors: list = field(default_factory=list)
    elapsed_s: float = 0.0
    seed: int = 0
    output_path: str | None = None


def row_cap() -> int:
    raw = os.environ.get(ROW_CAP_ENV)
    if raw is None:
        return DEFAULT_ROW_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{ROW_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ConfigError(f"{ROW_CAP_ENV} must be >= 1, got {cap}")
    return cap


def _parse_scalar(key, raw, line_no):
    if key in ("seed", "n_samples"):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: {key} must be an integer, got {raw!r}") from exc
    return raw


def _parse_grid(key, kind, raw, line_no):
    tokens = [tok.strip() for tok in raw.split(",")]
    if any(not tok for tok in tokens):
        raise ConfigError(f"line {line_no}: empty entry in grid '{key}'")
    values = []
    for tok in tokens:
        try:
            values.append(kind(tok))
        except ValueError as exc:
            raise ConfigError(
                f"line {line_no}: grid '{key}' expects {kind.__name__} values, got {tok!r}"
            ) from exc
        if not math.isfinite(values[-1]):
            raise ConfigError(f"line {line_no}: grid '{key}' expects finite values, got {tok!r}")
    return tuple(values)


def load_config(path) -> SweepConfig:
    """Parse and validate a sweep configuration file (fail-closed)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    raw_entries = {}
    for line_no, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {body!r}")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {body!r}")
        if key in raw_entries:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        raw_entries[key] = (value, line_no)

    if "quantity" not in raw_entries:
        raise ConfigError("missing required key 'quantity'")
    quantity = raw_entries["quantity"][0]
    if quantity not in _QUANTITIES:
        raise ConfigError(
            f"line {raw_entries['quantity'][1]}: unknown quantity {quantity!r}; "
            f"expected one of {', '.join(_QUANTITIES)}"
        )
    schema = _SCHEMAS[quantity]
    grid_types = dict(schema["keys"])
    allowed = set(_SCALAR_KEYS) | set(grid_types)

    for key, (_, line_no) in raw_entries.items():
        if key not in allowed:
            raise ConfigError(f"line {line_no}: unknown key '{key}' for quantity '{quantity}'")

    scalars = {"seed": 0, "n_samples": 100_000, "out": None}
    for key in ("seed", "n_samples", "out"):
        if key in raw_entries:
            scalars[key] = _parse_scalar(key, *raw_entries[key])
    if scalars["n_samples"] < 1000:
        raise ConfigError("n_samples must be >= 1000")

    grids = {}
    for key, kind in schema["keys"]:
        if key in raw_entries:
            grids[key] = _parse_grid(key, kind, *raw_entries[key])

    for group in schema["groups"]:
        present = [key for key in group if key in grids]
        if len(present) != 1:
            raise ConfigError(
                f"quantity '{quantity}' needs exactly one of {'/'.join(group)}, "
                f"got {present or 'none'}"
            )
    grouped = {key for group in schema["groups"] for key in group}
    for key, _ in schema["keys"]:
        if key not in grouped and key not in grids:
            raise ConfigError(f"quantity '{quantity}' needs a grid for '{key}'")

    total = math.prod(len(v) for v in grids.values())
    cap = row_cap()
    if total > cap:
        raise ConfigError(
            f"grid cross-product has {total} rows, above the cap of {cap} "
            f"(override with {ROW_CAP_ENV})"
        )

    return SweepConfig(
        quantity=quantity,
        grids=grids,
        seed=scalars["seed"],
        n_samples=scalars["n_samples"],
        output_path=scalars["out"],
    )


# ---------------------------------------------------------------------------
# Row evaluation, in two parts per quantity.  The grid is the outer keys times
# the innermost key, the last one of the schema.  The point part runs once per
# outer combination: it takes the outer values by key and the name of the
# inner key, and returns the state the rows of that point share.  The row part
# runs once per inner value: it takes that state, the value, the config and
# the row's position in the grid, which Monte Carlo rows use as their stream
# id, and returns the computed columns as a tuple, in the order _ROW_FUNCS
# names them.  Library errors from either part become the error column; an
# error from the point part fills every row of its point.  A point part
# builds only what every row of the point would build first, so each row
# still shows the error it would show alone.
# ---------------------------------------------------------------------------


def _dims_point(p, inner_key):
    return ChannelDims(p["t"], p["r"], p["l"])


def _row_capacity(dims, snr, cfg, index):
    expansion = capacity.coherent_expansion(dims, snr)
    lb = expansion.total - capacity._uncertainty_penalty(dims, snr)  # gaussian_lower_bound
    return (
        expansion.linear, expansion.sublinear, expansion.total, lb, lb < 0.0,
        "snr^3 remainder dropped",
    )


def _params_point(p, inner_key):
    # sublinear and iid rows check everything themselves: hoisting their
    # first check would change which message an error row shows
    return p, inner_key


def _row_sublinear(state, value, cfg, index):
    p, inner_key = state
    if inner_key == "alpha":
        dims = ChannelDims(p["t"], p["r"], 1)
        return (
            capacity.sublinear_term(dims, p["snr"], alpha=value),
            "remainder beyond snr^(1+alpha) dropped",
        )
    dims = ChannelDims(p["t"], p["r"], max(value, 1))
    return (
        capacity.sublinear_term(dims, p["snr"], coherence_length=value),
        "remainder beyond snr/sqrt(l) dropped",
    )


def _operating_point(p, inner_key):
    op = reliability.operating_point(p["t"], p["r"], p["snr"], l=p.get("l"), nu=p.get("nu"))
    return op, float if inner_key == "rate" else op.rate_for_kappa


def _exponent_point(p, inner_key):
    op, to_rate = _operating_point(p, inner_key)
    lm = op.landmarks
    landmarks = (
        lm.r_critical, lm.r_cutoff, lm.c_block, lm.c_block_training_lb,
        lm.asymptotics_binding, reliability.ExponentPoint.dropped,
    )
    return op, to_rate, landmarks


def _row_exponent(state, value, cfg, index):
    op, to_rate, landmarks = state
    rate = to_rate(value)
    return (rate, *op._exponent(rate), *landmarks)


def _row_outage(state, value, cfg, index):
    op, to_rate = state
    rate = to_rate(value)
    outage = op.outage(rate)
    return (
        rate, op.training.f_star, op.training.gamma_star, outage.probability,
        outage.error_weighted, op.block_error_bound(rate),
    )


def _row_iid(state, a, cfg, index):
    p, _ = state
    r, snr = p["r"], p["snr"]
    spec = iid.onoff_building_blocks(r, snr, a)
    quad = iid.onoff_mi_quadrature(r, snr, a, rel_tol=1e-10)
    expansion = iid.onoff_mi_asymptotic(r, snr, a)
    bracket = iid.iid_capacity_bracket(r, snr)
    mstar = iid.m_star(r, snr)
    return (
        spec.omega, spec.divergence, spec.zeta_star, quad, expansion.value,
        expansion.zeta_ratio, bracket.lower, bracket.upper, bracket.delta_iid_dot,
        mstar.m_star, mstar.argmin_amplitude_sq,
    )


def _row_oracle_check(dims, snr, cfg, index):
    est = oracles.mc_coherent_mi(dims, snr, cfg.n_samples, RngStream(cfg.seed, index))
    closed = capacity.coherent_expansion(dims, snr).total
    verdict = expansion_gap(est, closed, snr)
    return (
        cfg.n_samples, est.mean, est.std_error, est.ci99_low, est.ci99_high, closed,
        verdict.gap, verdict.slack, verdict.ok,
    )


_ROW_FUNCS = {
    "capacity": (
        _dims_point, _row_capacity,
        ["linear", "sublinear", "total", "gaussian_lower_bound", "lb_negative", "dropped"],
    ),
    "sublinear": (_params_point, _row_sublinear, ["value", "dropped"]),
    "exponent": (
        _exponent_point, _row_exponent,
        ["rate_nats", "e_r", "rho", "region", "r_critical", "r_cutoff", "c_block",
         "c_block_training_lb", "asymptotics_binding", "dropped"],
    ),
    "outage": (
        _operating_point, _row_outage,
        ["rate_nats", "f_star", "gamma_star", "outage", "delta_times_outage", "block_error_bound"],
    ),
    "iid": (
        _params_point, _row_iid,
        ["omega", "divergence", "zeta_star", "mi_quadrature", "mi_asymptotic", "zeta_ratio",
         "bracket_lower", "bracket_upper", "delta_iid_dot", "m_star", "m_star_argmin"],
    ),
    "oracle-check": (
        _dims_point, _row_oracle_check,
        ["n_samples", "mc_mean", "mc_std_error", "ci99_low", "ci99_high", "closed_form",
         "abs_gap", "slack", "agree"],
    ),
}

# Rows evaluated, and held, at a time: memory stays bounded by one chunk.
_CHUNK_ROWS = 1024
# The one quantity whose rows run on worker threads when threads > 1: its
# time goes to numpy sampling, which releases the interpreter lock.  The
# other rows hold the lock, in pure Python or in the Python integrands of
# scipy's quad, so threads only add hand-offs and they always run serially.
_THREADED = "oracle-check"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# The text of a cell by its exact type; every entry gives what _fmt gives.
# Any other type, such as a numpy scalar, falls back to _fmt.
_CELL_TEXT = {
    float: "%.17g".__mod__,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    str: str,
    type(None): {None: ""}.__getitem__,
}


def _cell(value) -> str:
    return _CELL_TEXT.get(type(value), _fmt)(value)


def _error_cell(exc: WidemimoError) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_sweep(
    config: SweepConfig,
    *,
    out: str | None = None,
    seed: int | None = None,
    threads: int = 1,
    err_stream=None,
) -> SweepSummary:
    """Evaluate the configured quantity over the grid cross-product.

    Rows are emitted in lexicographic grid order, point by point: each
    combination of the outer keys is built once, then its rows run along the
    innermost key.  Rows are evaluated and written one chunk at a time; Monte
    Carlo rows each get their own stream id, so the CSV bytes do not depend
    on ``threads``.  ``threads`` applies to the oracle-check quantity; the
    other quantities run serially.  The destination is opened before the
    first row is evaluated.  Per-row library errors land in the error column
    and the run continues.
    """
    err_stream = err_stream if err_stream is not None else sys.stderr
    if seed is not None:
        config = replace(config, seed=seed)
    seed = config.seed
    path = out if out is not None else config.output_path
    start = time.perf_counter()

    point_fn, row_fn, computed_cols = _ROW_FUNCS[config.quantity]
    grid_keys = list(config.grids)
    *outer_keys, inner_key = grid_keys
    inner_values = config.grids[inner_key]
    inner_texts = [_cell(value) for value in inner_values]
    header = grid_keys + computed_cols + ["error"]
    no_values = (None,) * len(computed_cols)

    def tasks():
        # (index, point, j) for every row, lazily, so only a chunk is held; a
        # point is its outer cells' text, their line prefix, and its state or
        # its error row
        index = 0
        for combo in itertools.product(*(config.grids[k] for k in outer_keys)):
            cells = [_cell(value) for value in combo]
            prefix = ",".join(cells) + ","
            try:
                point = (cells, prefix, point_fn(dict(zip(outer_keys, combo)), inner_key), None)
            except WidemimoError as exc:
                point = (cells, prefix, None, no_values + (_error_cell(exc),))
            for j in range(len(inner_values)):
                yield index, point, j
                index += 1

    def eval_row(task):
        index, (_, _, state, failed), j = task
        if failed is not None:
            return failed
        try:
            return row_fn(state, inner_values[j], config, index) + ("",)
        except WidemimoError as exc:
            return no_values + (_error_cell(exc),)

    summary = SweepSummary(seed=seed, output_path=path)
    items = tasks()
    # A computed cell whose value is the very object of the previous row's
    # cell (a landmark of the point, a note, a point's error) reuses its
    # text.  Identity, not equality: 0.0 == -0.0 and True == 1 format
    # differently.
    prev_values = [object()] * (len(computed_cols) + 1)
    prev_texts = [""] * len(prev_values)
    cell_text = _CELL_TEXT.get
    separators = len(header) - 1
    with contextlib.ExitStack() as stack:
        if path is None:
            fh = sys.stdout
        else:
            fh = stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
        pool = None
        if threads > 1 and config.quantity == _THREADED:
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=threads))
        csv.writer(fh, lineterminator="\n").writerow(header)
        # A chunk's lines gather in buf; the rows csv must quote are written
        # there by csv itself, so the lines keep their order.
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        while chunk := list(itertools.islice(items, _CHUNK_ROWS)):
            rows = pool.map(eval_row, chunk) if pool is not None else map(eval_row, chunk)
            for (_, (cells, prefix, _, _), j), values in zip(chunk, rows):
                texts = [
                    text if value is prev else cell_text(type(value), _fmt)(value)
                    for value, prev, text in zip(values, prev_values, prev_texts)
                ]
                line = prefix + inner_texts[j] + "," + ",".join(texts)
                # One comma per separator and no quote or line break: csv
                # would quote no cell, so its line is exactly this one.
                if (
                    line.count(",") == separators
                    and '"' not in line and "\n" not in line and "\r" not in line
                ):
                    buf.write(line + "\n")
                else:
                    writer.writerow(cells + [inner_texts[j]] + texts)
                prev_values, prev_texts = values, texts
                if values[-1]:
                    summary.row_errors.append((summary.rows, values[-1]))
                summary.rows += 1
            fh.write(buf.getvalue())
            buf.seek(0)
            buf.truncate()

    summary.elapsed_s = time.perf_counter() - start
    for index, error in summary.row_errors:
        print(f"row {index}: {error}", file=err_stream)
    print(
        f"sweep quantity={config.quantity} rows={summary.rows} "
        f"errors={len(summary.row_errors)} seed={seed} "
        f"elapsed={summary.elapsed_s:.2f}s out={path or '<stdout>'}",
        file=err_stream,
    )
    return summary
