"""Parameter sweeps over the closed forms and oracles, emitted as CSV.

Config files are flat ``key = value`` text; grids are comma-separated lists.
Each quantity is one ``_Quantity`` record: its grid keys, how its rows are
computed and the columns they fill.  Keys are validated fail-closed against
that record (an unknown key aborts the load), SNR is always linear (no dB
anywhere), and rows stream out in deterministic lexicographic grid order
regardless of how many threads compute them.  The output is opened first, so
a bad path fails before any row is evaluated.

Rows are evaluated point by point.  The grid is the outer keys times the
innermost key, the last one of the record (``snr`` for capacity and
oracle-check, ``alpha``/``l`` for sublinear, ``rate``/``kappa`` for exponent
and outage, ``amplitude_sq`` for iid).  What a row needs of its outer values
alone, such as its ``ChannelDims`` or its ``reliability.operating_point``, is
built once per outer combination; the rows of that point then run along the
innermost key.  Rows are evaluated and written in fixed-size chunks, also
inside one point, so memory is bounded by one chunk, not by the grid.

Every column has one type, a grid key's in its slot and a computed column's
beside its name, and each type one text rule: ``.17g`` for a float, ``str`` for
an int, ``true``/``false`` for a bool, the text itself for a str, and ``""``
for the ``None`` cells of an error row.  A point's outer texts are made when
the point is built, and the texts of the inner values a chunk touches once
per chunk.  The rows of one point inside one chunk, a run, are written through
one ``%`` line template: a computed column whose cells all have one text (a
landmark, a ``dropped`` note) is that text, made once for the run; one whose
every cell is the row's inner grid value is the inner text; any other takes
its type's conversion row by row.  Only str cells can hold a comma, a double
quote or a line break, which csv quotes; a run with such a cell, an error row
or a ``None`` cell goes cell by cell through ``csv.writer(lineterminator="\n")``
instead, so every line is what that writer would write.  Each chunk is written to the output
in one call, then the ``row {index}: {error}`` lines of its errors to the
error stream.
"""

import contextlib
import csv
import functools
import io
import itertools
import math
import operator
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

from . import capacity, iid, oracles, reliability
from .channel import ChannelDims, RngStream, _positive_int
from .check import expansion_gap
from .errors import ConfigError, WidemimoError

__all__ = ["SweepConfig", "SweepSummary", "load_config", "run_sweep", "ROW_CAP"]

# Most rows one config may ask for.
ROW_CAP = 10**6


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
    """What a sweep did: rows written, rows that failed, timing."""

    rows: int = 0
    errors: int = 0
    elapsed_s: float = 0.0


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
        if not abs(values[-1]) <= sys.float_info.max:  # an int is compared exactly
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
    name, name_line = raw_entries["quantity"]
    if name not in _QUANTITIES:
        raise ConfigError(
            f"line {name_line}: unknown quantity {name!r}; "
            f"expected one of {', '.join(_QUANTITIES)}"
        )
    slots = _QUANTITIES[name].slots
    kinds = dict(pair for slot in slots for pair in slot)
    for key, (_, line_no) in raw_entries.items():
        if key not in kinds and key not in ("quantity", "seed", "n_samples", "out"):
            raise ConfigError(f"line {line_no}: unknown key '{key}' for quantity '{name}'")

    options = {}
    for key in ("seed", "n_samples"):
        if key in raw_entries:
            raw, line_no = raw_entries[key]
            try:
                options[key] = int(raw)
            except ValueError as exc:
                raise ConfigError(f"line {line_no}: {key} must be an integer, got {raw!r}") from exc
    if "out" in raw_entries:
        options["output_path"] = raw_entries["out"][0]

    grids = {}
    for slot in slots:
        given = [key for key, _ in slot if key in raw_entries]
        if len(given) != 1:
            keys = "/".join(key for key, _ in slot)
            if len(slot) == 1:
                raise ConfigError(f"quantity '{name}' needs a grid for '{keys}'")
            raise ConfigError(
                f"quantity '{name}' needs exactly one of {keys}, got {given or 'none'}"
            )
        (key,) = given
        grids[key] = _parse_grid(key, kinds[key], *raw_entries[key])

    config = SweepConfig(name, grids, **options)
    if config.n_samples < 1000:
        raise ConfigError("n_samples must be >= 1000")
    total = math.prod(len(v) for v in grids.values())
    if total > ROW_CAP:
        raise ConfigError(f"grid cross-product has {total} rows, above the cap of {ROW_CAP}")
    return config


@dataclass(frozen=True)
class _Quantity:
    """One sweep quantity: its grid keys, its two row parts and its columns.

    ``slots`` are the grid keys in column order.  A slot is a tuple of
    alternative ``(key, type)`` pairs, exactly one of which a config must
    give; a one-pair slot is a required key.  The last slot's key is the
    innermost.  ``columns`` are the computed columns, ``(name, type)`` pairs too.

    ``point`` runs once per outer combination: it takes the outer values by
    key and the name of the inner key, and returns the state the rows of that
    point share.  ``row`` runs once per inner value: it takes that state, the
    value, the config and the row's grid index, which Monte Carlo rows use as
    their stream id, and returns the cells of ``columns`` in order, each of
    exactly its column's type.  A library error from either part becomes the
    error column and leaves the row's other cells ``None``; one from ``point``
    fills every row of its point, so ``point`` builds only what each of its
    rows would build first, and each row still shows the error it would show
    alone.

    ``threaded`` rows run on the shared worker pool (``oracles._pool``) when
    threads > 1.  Only
    oracle-check's are: their time goes to numpy sampling, which releases the
    interpreter lock, while the other rows hold it (pure Python, or the
    Python integrands of scipy's quad), so threads would only add hand-offs.
    """

    slots: tuple
    point: Callable
    row: Callable
    columns: tuple
    threaded: bool = False


def _dims_point(p, inner_key):
    return ChannelDims(p["t"], p["r"], p["l"])


def _row_capacity(dims, snr, cfg, index):
    linear, sublinear, total = capacity._expansion(dims, snr)
    lb = total - capacity._uncertainty_penalty(dims, snr)  # gaussian_lower_bound
    return linear, sublinear, total, lb, lb < 0.0, "snr^3 remainder dropped"


def _sublinear_point(p, inner_key):
    # a row checks t and r, then snr, before its own alpha or l, so the point
    # may check them for all its rows
    dims = ChannelDims(p["t"], p["r"], 1)
    if inner_key == "alpha":
        return (
            lambda alpha: capacity.sublinear_term(dims, p["snr"], alpha=alpha),
            "remainder beyond snr^(1+alpha) dropped",
        )
    return capacity._coherence_gap(dims, p["snr"]), "remainder beyond snr/sqrt(l) dropped"


def _row_sublinear(state, value, cfg, index):
    return state[0](value), state[1]


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
    probability, error_weighted = op._outage(rate)
    return (
        rate, op.training.f_star, op.training.gamma_star, probability, error_weighted,
        op.block_error_bound(rate),
    )


def _iid_point(p, inner_key):
    # the bracket and m* depend on (r, snr) alone; a row asks for them after its
    # own checks, and cache keeps no exception: a row shows its error alone
    r, snr = p["r"], p["snr"]
    return r, snr, functools.cache(lambda: (iid.iid_capacity_bracket(r, snr), iid.m_star(r, snr)))


def _row_iid(state, a, cfg, index):
    r, snr, bracket_and_m_star = state
    spec = iid.onoff_building_blocks(r, snr, a)
    quad = iid.onoff_mi_quadrature(r, snr, a, rel_tol=1e-10)
    expansion = iid.onoff_mi_asymptotic(r, snr, a)
    bracket, mstar = bracket_and_m_star()
    return (
        spec.omega, spec.divergence, spec.zeta_star, quad, expansion.value,
        expansion.zeta_ratio, bracket.lower, bracket.upper, bracket.delta_iid_dot,
        mstar.m_star, mstar.argmin_amplitude_sq,
    )


def _row_oracle_check(dims, snr, cfg, index):
    est = oracles.mc_coherent_mi(dims, snr, cfg.n_samples, RngStream(cfg.seed, index))
    closed = capacity._expansion(dims, snr)[2]
    verdict = expansion_gap(est, closed, dims, snr)
    return (
        cfg.n_samples, est.mean, est.std_error, est.ci99_low, est.ci99_high, closed,
        verdict.gap, verdict.slack, verdict.ok,
    )


# Required keys, as one-pair slots.
_T = (("t", int),)
_R = (("r", int),)
_L = (("l", int),)
_SNR = (("snr", float),)
# Exponent and outage rows share the grid of one reliability.operating_point
# and a rate.
_RATE_SLOTS = (_T, _R, _SNR, (("l", int), ("nu", float)), (("rate", float), ("kappa", float)))


def _floats(*names):
    return tuple((name, float) for name in names)


_QUANTITIES = {
    "capacity": _Quantity(
        (_T, _R, _L, _SNR), _dims_point, _row_capacity,
        (*_floats("linear", "sublinear", "total", "gaussian_lower_bound"),
         ("lb_negative", bool), ("dropped", str)),
    ),
    "sublinear": _Quantity(
        (_T, _R, _SNR, (("alpha", float), ("l", int))), _sublinear_point, _row_sublinear,
        (("value", float), ("dropped", str)),
    ),
    "exponent": _Quantity(
        _RATE_SLOTS, _exponent_point, _row_exponent,
        (*_floats("rate_nats", "e_r", "rho"), ("region", str),
         *_floats("r_critical", "r_cutoff", "c_block", "c_block_training_lb"),
         ("asymptotics_binding", bool), ("dropped", str)),
    ),
    "outage": _Quantity(
        _RATE_SLOTS, _operating_point, _row_outage,
        _floats("rate_nats", "f_star", "gamma_star", "outage", "delta_times_outage",
                "block_error_bound"),
    ),
    "iid": _Quantity(
        (_R, _SNR, (("amplitude_sq", float),)), _iid_point, _row_iid,
        _floats("omega", "divergence", "zeta_star", "mi_quadrature", "mi_asymptotic",
                "zeta_ratio", "bracket_lower", "bracket_upper", "delta_iid_dot", "m_star",
                "m_star_argmin"),
    ),
    "oracle-check": _Quantity(
        (_T, _R, _L, _SNR), _dims_point, _row_oracle_check,
        (("n_samples", int),
         *_floats("mc_mean", "mc_std_error", "ci99_low", "ci99_high", "closed_form", "abs_gap",
                  "slack"),
         ("agree", bool)),
        threaded=True,
    ),
}

# Rows evaluated, and held, at a time: memory stays bounded by one chunk.
_CHUNK_ROWS = 1024


# The text of one value of each column type.
_TEXT = {
    float: "%.17g".__mod__,
    int: str,
    bool: {True: "true", False: "false"}.__getitem__,
    str: str,
}
# Each type's conversion in a run's line template; a bool cell goes in as its text.
_FIELD = {float: "%.17g", int: "%d", bool: "%s", str: "%s"}


def _error_cell(exc: WidemimoError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _quoted(text: str) -> bool:
    """Might csv quote ``text``?  True when it holds a comma, a quote, a \\n or a \\r.

    ``csv.writer(lineterminator="\\n")`` quotes the first three but leaves a
    lone \\r bare, so this over-approximates: a run with such a cell goes
    through that writer, which decides.
    """
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _run_text(run, kinds):
    """One run's lines through one ``%`` line template; None if a cell is None or quoted.

    A run is the rows of one point inside one chunk: ``(outer, texts, values,
    columns)``, the point's outer texts, the texts of the run's inner grid
    values ``values``, and its computed columns, error column last, each a
    list of one cell per row.  A column whose cells all have one text is that
    text, made once; one whose every cell is the row's inner value (identity)
    is the inner text; any other goes through its type's conversion.  Equal
    cells of one type have one text, but for float zeros of both signs, so a
    float column of zeros must be one object; a nan equals only itself.  Grid
    values are ints and floats, whose texts hold no %.
    """
    outer, texts, values, columns = run
    fields, args = [*outer, "%s"], [texts]
    for column, kind in zip(columns, kinds):
        first = column[0]
        if column.count(first) == len(column) and (
            first or kind is not float or all(map(operator.is_, column, itertools.repeat(first)))
        ):
            if first is None or kind is str and _quoted(first):
                return None
            fields.append(_TEXT[kind](first).replace("%", "%%"))
        elif all(map(operator.is_, column, values)):
            fields.append("%s")
            args.append(texts)
        elif None in column or kind is str and _quoted("".join(column)):
            return None
        else:
            fields.append(_FIELD[kind])
            args.append(list(map(_TEXT[bool], column)) if kind is bool else column)
    return "".join(map((",".join(fields) + "\n").__mod__, zip(*args)))


def _cells(run, kinds):
    """One run's rows of cell texts, cell by cell; a None cell is ""."""
    outer, texts, _, columns = run
    return zip(
        *map(itertools.repeat, outer), texts,
        *([_TEXT[kind](cell) if cell is not None else "" for cell in column]
          for column, kind in zip(columns, kinds)),
    )


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


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
    on ``threads``.  ``threads``, a positive integer (else a DomainError),
    applies to the oracle-check quantity, whose rows run on the process's
    shared worker pool (``oracles._pool``), each row's oracle at threads = 1;
    the other quantities run serially.
    The destination is opened before the first row is evaluated.  Per-row
    library errors land in the error column, and on ``err_stream`` as each
    chunk is written, and the run continues.
    """
    threads = _positive_int("threads", threads)
    err_stream = err_stream if err_stream is not None else sys.stderr
    if seed is not None:
        config = replace(config, seed=seed)
    path = out if out is not None else config.output_path
    start = time.perf_counter()

    quantity = _QUANTITIES[config.quantity]
    point_fn, row_fn = quantity.point, quantity.row
    *outer_keys, inner_key = config.grids
    inner_values = config.grids[inner_key]
    slot_kinds = dict(pair for slot in quantity.slots for pair in slot)
    outer_text = [_TEXT[slot_kinds[key]] for key in outer_keys]
    inner_text = _TEXT[slot_kinds[inner_key]]
    names, kinds = zip(*quantity.columns, ("error", str))
    width = len(kinds)
    header = [*config.grids, *names]
    no_values = (None,) * len(quantity.columns)

    def chunks():
        # each chunk's rows, lazily, as runs (point, j0, j1) of inner indices; a
        # point is its outer cells' texts, its state or error row
        chunk, size = [], 0
        for combo in itertools.product(*(config.grids[key] for key in outer_keys)):
            try:
                state, failed = point_fn(dict(zip(outer_keys, combo)), inner_key), None
            except WidemimoError as exc:
                state, failed = None, no_values + (_error_cell(exc),)
            point = ([text(value) for text, value in zip(outer_text, combo)], state, failed)
            j = 0
            while j < len(inner_values):
                k = min(len(inner_values) - j, _CHUNK_ROWS - size)
                chunk.append((point, j, j + k))
                j, size = j + k, size + k
                if size == _CHUNK_ROWS:
                    yield chunk
                    chunk, size = [], 0
        if chunk:
            yield chunk

    def eval_row(point, value, index):
        if point[2] is not None:
            return point[2]
        try:
            return row_fn(point[1], value, config, index) + ("",)
        except WidemimoError as exc:
            return no_values + (_error_cell(exc),)

    summary = SweepSummary()
    runs = itertools.chain.from_iterable
    with contextlib.ExitStack() as stack:
        if path is None:
            fh = sys.stdout
        else:
            fh = stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
        evaluate = map
        if threads > 1 and quantity.threaded:
            evaluate = oracles._pool(threads).map
        csv.writer(fh, lineterminator="\n").writerow(header)
        for chunk in chunks():
            n = sum(j1 - j0 for _, j0, j1 in chunk)
            points = runs(itertools.repeat(point, j1 - j0) for point, j0, j1 in chunk)
            values = runs(inner_values[j0:j1] for _, j0, j1 in chunk)
            rows = evaluate(eval_row, points, values, range(summary.rows, summary.rows + n))
            # the chunk's cells in one list, each row's tuple freed as it goes
            # in: a chunk of live tuples would set the garbage collector off
            flat = list(runs(rows))
            # the texts of the inner values the chunk's runs touch
            lo = min(j0 for _, j0, _ in chunk)
            inner_texts = list(map(inner_text, inner_values[lo:max(j1 for *_, j1 in chunk)]))
            parts, lines, at = [], [], 0
            for (outer, _, _), j0, j1 in chunk:
                k = j1 - j0
                columns = [flat[at * width + c:(at + k) * width:width] for c in range(width)]
                run = (outer, inner_texts[j0 - lo:j1 - lo], inner_values[j0:j1], columns)
                text = None
                if any(columns[-1]):  # error rows: their lines, and the run cell by cell
                    base = summary.rows + at
                    lines += [f"row {base + i}: {e}\n" for i, e in enumerate(columns[-1]) if e]
                else:
                    text = _run_text(run, kinds)
                parts.append(text if text is not None else _csv_text(_cells(run, kinds)))
                at += k
            fh.write("".join(parts))
            err_stream.write("".join(lines))
            summary.errors += len(lines)
            summary.rows += n

    summary.elapsed_s = time.perf_counter() - start
    print(
        f"sweep quantity={config.quantity} rows={summary.rows} errors={summary.errors} "
        f"seed={config.seed} elapsed={summary.elapsed_s:.2f}s out={path or '<stdout>'}",
        file=err_stream,
    )
    return summary
