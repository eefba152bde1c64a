import collections
import csv
import hashlib
import io
import itertools
import math
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import cli_env
import widemimo as wm
from widemimo import capacity, cli, oracles
from widemimo import (
    ChannelDims, ConfigError, DimensionError, DomainError, RngStream, SweepConfig, WidemimoError,
    load_config, outage_probability, run_sweep,
)
from widemimo.check import expansion_gap
from widemimo.reliability import operating_point
from widemimo.sweep import _CHUNK_ROWS, _QUANTITIES, ROW_CAP


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def sweep_errors(cfg, **kwargs):
    """run_sweep's summary and the (row index, message) of each error line it printed."""
    err = io.StringIO()
    summary = run_sweep(cfg, err_stream=err, **kwargs)
    errors = [(int(i), text) for i, text in re.findall(r"^row (\d+): (.*)$", err.getvalue(), re.M)]
    assert len(errors) == summary.errors
    return summary, errors


# One line of the `check` table: verdict, name, gap, slack and margin.
CHECK_LINE = re.compile(r"^(PASS|FAIL)  \S+ +gap=\S+ slack=\S+ margin=\S+$")

CAPACITY_CFG = """\
# minimal capacity sweep
quantity = capacity
t = 1
r = 1, 2
l = 100, 2500
snr = 0.01, 0.001
"""


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "c.cfg", CAPACITY_CFG))
        assert cfg.quantity == "capacity"
        assert cfg.seed == 0
        assert cfg.n_samples == 100_000
        assert cfg.output_path is None
        assert cfg.grids["r"] == (1, 2)

    def test_unknown_key_rejected(self, tmp_path):
        bad = CAPACITY_CFG + "snr_db = 3\n"
        with pytest.raises(ConfigError, match="snr_db"):
            load_config(write(tmp_path, "c.cfg", bad))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write(tmp_path, "c.cfg", CAPACITY_CFG + "t = 2\n"))

    def test_missing_grid_rejected(self, tmp_path):
        text = "quantity = capacity\nt = 1\nr = 1\nl = 10\n"
        with pytest.raises(ConfigError, match=r"^quantity 'capacity' needs a grid for 'snr'$"):
            load_config(write(tmp_path, "c.cfg", text))

    def test_exactly_one_alternative(self, tmp_path):
        text = "quantity = exponent\nt = 1\nr = 1\nsnr = 0.01\nrate = 1\n"
        none_given = r"^quantity 'exponent' needs exactly one of l/nu, got none$"
        with pytest.raises(ConfigError, match=none_given):
            load_config(write(tmp_path, "c.cfg", text))
        text += "l = 2500\nnu = 1\n"
        with pytest.raises(ConfigError, match=r"needs exactly one of l/nu, got \['l', 'nu'\]$"):
            load_config(write(tmp_path, "c.cfg2", text))

    def test_type_errors_carry_line_numbers(self, tmp_path):
        bad = "quantity = capacity\nt = 1\nr = 1\nl = 2.5\nsnr = 0.01\n"
        with pytest.raises(ConfigError, match="line 4"):
            load_config(write(tmp_path, "c.cfg", bad))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_grid_values_rejected(self, tmp_path, bad):
        text = f"quantity = capacity\nt = 1\nr = 1\nl = 10\nsnr = 0.01, {bad}\n"
        with pytest.raises(ConfigError, match=f"line 5: grid 'snr' expects finite values, got '{bad}'"):
            load_config(write(tmp_path, "c.cfg", text))

    @pytest.mark.parametrize(
        "key, grid", [("l", "1" + "0" * 400), ("t", "-" + "9" * 309)], ids=["l=1e400", "t=-1e309"]
    )
    def test_counts_past_the_float_range_rejected(self, tmp_path, key, grid):
        # an int grid value is compared with the float range exactly, not converted
        counts = {"t": "1", "r": "1", "l": "10", key: grid}
        text = f"quantity = capacity\nt = {counts['t']}\nr = 1\nl = {counts['l']}\nsnr = 0.01\n"
        line = 4 if key == "l" else 2
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "c.cfg", text))
        assert str(err.value) == f"line {line}: grid '{key}' expects finite values, got '{grid}'"

    # Each refusal states its message and, where it has one, the line it was
    # found on; the file is CAPACITY_CFG with one line replaced or added.
    @pytest.mark.parametrize(
        "text, message",
        [
            (CAPACITY_CFG.replace("r = 1, 2", "r = 1, , 2"),
             "line 4: empty entry in grid 'r'"),
            (CAPACITY_CFG + "seed 3\n", "line 7: expected 'key = value', got 'seed 3'"),
            (CAPACITY_CFG + "= 3\n", "line 7: expected 'key = value', got '= 3'"),
            (CAPACITY_CFG + "seed =\n", "line 7: expected 'key = value', got 'seed ='"),
            (CAPACITY_CFG.replace("quantity = capacity\n", ""),
             "missing required key 'quantity'"),
            (CAPACITY_CFG.replace("= capacity", "= capacities"),
             "line 2: unknown quantity 'capacities'; expected one of "
             + ", ".join(_QUANTITIES)),
            (CAPACITY_CFG + "seed = 1.5\n", "line 7: seed must be an integer, got '1.5'"),
            (CAPACITY_CFG + "n_samples = many\n",
             "line 7: n_samples must be an integer, got 'many'"),
            (CAPACITY_CFG + "n_samples = 999\n", "n_samples must be >= 1000"),
        ],
        ids=[
            "empty-entry", "no-equals", "empty-key", "empty-value", "no-quantity",
            "unknown-quantity", "seed-not-int", "n_samples-not-int", "n_samples-below-1000",
        ],
    )
    def test_refusal_messages(self, tmp_path, text, message):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "c.cfg", text))
        assert str(err.value) == message

    def test_row_cap_refusal(self, tmp_path):
        assert ROW_CAP == 10**6
        l_grid = ", ".join(str(l) for l in range(1, 1001))
        text = f"quantity = capacity\nt = 1\nr = 1\nl = {l_grid}\nsnr = "
        at_cap = text + ", ".join(["0.01"] * 1000) + "\n"
        assert load_config(write(tmp_path, "c.cfg", at_cap)).grids["snr"] == (0.01,) * 1000
        over_cap = text + ", ".join(["0.01"] * 1001) + "\n"
        with pytest.raises(
            ConfigError, match=r"^grid cross-product has 1001000 rows, above the cap of 1000000$"
        ):
            load_config(write(tmp_path, "c2.cfg", over_cap))


class TestRunSweep:
    def test_row_count_and_roundtrip(self, tmp_path):
        cfg = load_config(write(tmp_path, "c.cfg", CAPACITY_CFG))
        out = tmp_path / "cap.csv"
        summary = run_sweep(cfg, out=str(out), err_stream=io.StringIO())
        assert summary.rows == 8
        assert not summary.errors
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        # every numeric parses back to the identical double
        for row in rows:
            total = float(row["total"])
            linear, sub = float(row["linear"]), float(row["sublinear"])
            assert total == linear - sub
            assert format(total, ".17g") == row["total"]

    def test_grid_order_follows_declaration(self, tmp_path):
        cfg = load_config(write(tmp_path, "c.cfg", CAPACITY_CFG))
        out = tmp_path / "cap.csv"
        run_sweep(cfg, out=str(out), err_stream=io.StringIO())
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = [(row["t"], row["r"], row["l"], row["snr"]) for row in rows]
        expected = [
            ("1", str(r), str(l), format(snr, ".17g"))
            for r in (1, 2)
            for l in (100, 2500)
            for snr in (0.01, 0.001)
        ]
        assert got == expected

    def test_exponent_sweep_nonincreasing(self, tmp_path):
        rates = ", ".join(str(x) for x in range(0, 26))
        text = f"quantity = exponent\nt = 1\nr = 1\nsnr = 0.01\nl = 2500\nrate = {rates}\n"
        cfg = load_config(write(tmp_path, "e.cfg", text))
        out = tmp_path / "exp.csv"
        run_sweep(cfg, out=str(out), err_stream=io.StringIO())
        with open(out, newline="") as fh:
            values = [float(row["e_r"]) for row in csv.DictReader(fh)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_row_errors_continue_and_flag(self, tmp_path):
        # the l = 1 row cannot train; the run continues past it
        text = "quantity = outage\nt = 1\nr = 1\nsnr = 0.01\nl = 1, 2500\nrate = 1\n"
        cfg = load_config(write(tmp_path, "o.cfg", text))
        out = tmp_path / "o.csv"
        summary = run_sweep(cfg, out=str(out), err_stream=io.StringIO())
        assert summary.rows == 2
        assert summary.errors == 1
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] != "" and rows[0]["outage"] == ""
        assert rows[1]["error"] == "" and rows[1]["outage"] != ""

    @pytest.mark.parametrize("t,l,rate", [(1, 100, -1.0), (2, 2, 1.0)])
    def test_outage_row_error_is_the_api_error(self, tmp_path, t, l, rate):
        text = f"quantity = outage\nt = {t}\nr = 1\nsnr = 0.01\nl = {l}\nrate = {rate}\n"
        out = tmp_path / "o.csv"
        run_sweep(load_config(write(tmp_path, "o.cfg", text)), out=str(out), err_stream=io.StringIO())
        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
        with pytest.raises(WidemimoError) as exc:
            outage_probability(ChannelDims(t, 1, l), 0.01, rate)
        assert row["error"] == f"{type(exc.value).__name__}: {exc.value}"

    def test_iid_sweep_row(self, tmp_path):
        text = "quantity = iid\nr = 1, 4\nsnr = 0.01\namplitude_sq = 20\n"
        cfg = load_config(write(tmp_path, "i.cfg", text))
        out = tmp_path / "i.csv"
        summary = run_sweep(cfg, out=str(out), err_stream=io.StringIO())
        assert summary.rows == 2 and not summary.errors
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            r = int(row["r"])
            assert 0.0 < float(row["mi_quadrature"]) <= r * 0.01
            assert float(row["bracket_lower"]) <= float(row["bracket_upper"])
            assert float(row["m_star"]) > 0.0

    def test_iid_point_parts_once(self, tmp_path, monkeypatch):
        # the bracket and m* are built once a point, when a row first passes
        # its own checks; where they fail, each row tries them again
        calls = collections.Counter()
        for name in ("iid_capacity_bracket", "m_star"):
            def counting(r, snr, _name=name, _fn=getattr(wm.iid, name)):
                calls[_name, snr] += 1
                return _fn(r, snr)

            monkeypatch.setattr(f"widemimo.iid.{name}", counting)
        text = "quantity = iid\nr = 1\nsnr = 0.01, 0.5\namplitude_sq = 0.1, 20, 30\n"
        cfg = load_config(write(tmp_path, "i.cfg", text))
        _, errors = sweep_errors(cfg, out=str(tmp_path / "i.csv"))
        assert [i for i, _ in errors] == [0, 3, 4, 5]
        assert errors[1][1].startswith("DomainError: amplitude_sq must be >= snr")
        assert errors[2][1].startswith("DomainError: need snr < r/e^2")
        assert calls == {("iid_capacity_bracket", 0.01): 1, ("m_star", 0.01): 1,
                         ("iid_capacity_bracket", 0.5): 2}

    def test_exponent_kappa_alternative(self, tmp_path):
        text = "quantity = exponent\nt = 1\nr = 1\nsnr = 0.01\nnu = 1\nkappa = 1.5\n"
        cfg = load_config(write(tmp_path, "k.cfg", text))
        out = tmp_path / "k.csv"
        summary = run_sweep(cfg, out=str(out), err_stream=io.StringIO())
        assert summary.rows == 1 and not summary.errors
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        # rate = l r snr^kappa = 2500 * 0.01^1.5 = 2.5
        assert float(row["rate_nats"]) == pytest.approx(2.5, rel=1e-12)
        assert row["region"] == "B"

    def test_nu_and_kappa_alternatives(self, tmp_path):
        text = "quantity = outage\nt = 2\nr = 2\nsnr = 0.01\nnu = 0.5\nkappa = 0.75\n"
        cfg = load_config(write(tmp_path, "o.cfg", text))
        out = tmp_path / "o.csv"
        summary = run_sweep(cfg, out=str(out), err_stream=io.StringIO())
        assert summary.rows == 1 and not summary.errors
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["rate_nats"]) > 0.0
        assert 0.0 < float(row["outage"]) < 1.0

    def test_readme_config_runs(self, tmp_path, monkeypatch):
        # the README's exponent.cfg, verbatim, in a fresh working directory
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (text,) = re.findall(r"```ini\n(# exponent\.cfg\n.*?)```", readme, re.S)
        monkeypatch.chdir(tmp_path)
        cfg = load_config(write(tmp_path, "exponent.cfg", text))
        summary = run_sweep(cfg, err_stream=io.StringIO())
        assert summary.rows == 6 and summary.errors == 0
        assert (tmp_path / "curve.csv").is_file()

    def test_sublinear_row_past_float_saturation(self, tmp_path):
        # the saturation length 0.25 snr^-2 overflows at snr = 1e-200: a value row
        text = "quantity = sublinear\nt = 1\nr = 1\nsnr = 1e-200\nl = 10\n"
        cfg = load_config(write(tmp_path, "s.cfg", text))
        summary = run_sweep(cfg, out=str(tmp_path / "s.csv"), err_stream=io.StringIO())
        assert summary.errors == 0
        with open(tmp_path / "s.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["value"]) == 1e-200 / (2.0 * math.sqrt(10))

    def test_second_order_overflow_is_a_row_error(self, tmp_path):
        # snr^2 overflows at snr = 1e200; so does a saturated sublinear row
        overflow = "DomainError: second-order term r(r+t)/(2t) snr^2 overflows at snr=1e+200"
        text = "quantity = capacity\nt = 1\nr = 1\nl = 10\nsnr = 0.01, 1e200\n"
        out = tmp_path / "c.csv"
        summary, errors = sweep_errors(load_config(write(tmp_path, "c.cfg", text)), out=str(out))
        assert summary.rows == 2 and errors == [(1, overflow)]
        with open(out, newline="") as fh:
            first, second = csv.DictReader(fh)
        assert first["error"] == "" and float(first["total"]) == 0.01 - 0.0001
        assert second["error"] == overflow and second["total"] == ""
        text = "quantity = sublinear\nt = 1\nr = 1\nsnr = 1e200\nl = 10\n"
        _, errors = sweep_errors(load_config(write(tmp_path, "s.cfg", text)), out=str(out))
        assert errors == [(0, overflow)]


class TestStreaming:
    def test_chunk_boundary_errors_and_threads(self, tmp_path):
        # rate -1 fails in every block and l = 1 fails at every rate; l = 1
        # sits where the first chunk ends, so errors fall on both sides of it
        rates = [0.5 * i for i in range(31)] + [-1.0]
        assert _CHUNK_ROWS % len(rates) == 0
        split = _CHUNK_ROWS // len(rates)
        ls = [100 + i for i in range(split + 8)]
        ls[split] = 1
        text = (
            "quantity = outage\nt = 1\nr = 1\nsnr = 0.01\n"
            f"l = {', '.join(map(str, ls))}\nrate = {', '.join(map(str, rates))}\n"
        )
        cfg = load_config(write(tmp_path, "o.cfg", text))
        grid = [(l, rate) for l in ls for rate in rates]
        expected = [i for i, (l, rate) in enumerate(grid) if l == 1 or rate < 0.0]
        assert _CHUNK_ROWS - 1 in expected and _CHUNK_ROWS in expected
        outputs = []
        for threads in (1, 3):
            out = tmp_path / f"o{threads}.csv"
            summary, errors = sweep_errors(cfg, out=str(out), threads=threads)
            assert summary.rows == len(grid) > _CHUNK_ROWS
            assert [i for i, _ in errors] == expected
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        rows = list(csv.DictReader(io.StringIO(outputs[0].decode())))
        assert [i for i, row in enumerate(rows) if row["error"]] == expected
        assert rows[_CHUNK_ROWS - 1]["error"].startswith("DomainError: ")
        assert rows[_CHUNK_ROWS]["error"].startswith("TrainingInfeasibleError: ")

    def test_signed_zero_cells_keep_their_sign(self, tmp_path):
        text = "quantity = exponent\nt = 1\nr = 1\nsnr = 0.01\nl = 2500\nrate = 0.0, -0.0, 0.0\n"
        cfg = load_config(write(tmp_path, "z.cfg", text))
        out = tmp_path / "z.csv"
        run_sweep(cfg, out=str(out), err_stream=io.StringIO())
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["rate"] for row in rows] == ["0", "-0", "0"]
        assert [row["rate_nats"] for row in rows] == ["0", "-0", "0"]

    def test_threaded_rows_cross_chunks_in_order(self, tmp_path):
        # oracle-check rows go through the pool; l = 0 fails at every snr and
        # sits where the first chunk ends, snr -1 fails in every block
        snrs = [0.01 * (i + 1) for i in range(31)] + [-1.0]
        split = _CHUNK_ROWS // len(snrs)
        ls = [1] * (split + 2)
        ls[split] = 0
        text = (
            "quantity = oracle-check\nt = 1\nr = 1\nn_samples = 1000\n"
            f"l = {', '.join(map(str, ls))}\nsnr = {', '.join(map(str, snrs))}\n"
        )
        cfg = load_config(write(tmp_path, "oc.cfg", text))
        grid = [(l, snr) for l in ls for snr in snrs]
        expected = [i for i, (l, snr) in enumerate(grid) if l == 0 or snr < 0.0]
        assert _CHUNK_ROWS - 1 in expected and _CHUNK_ROWS in expected
        outputs = []
        for threads in (1, 3):
            out = tmp_path / f"oc{threads}.csv"
            _, errors = sweep_errors(cfg, out=str(out), threads=threads)
            assert [i for i, _ in errors] == expected
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_threads_apply_only_to_oracle_check(self, tmp_path, monkeypatch):
        pools = []
        shared_pool = oracles._pool

        def recording_pool(threads):
            pools.append(threads)
            return shared_pool(threads)

        monkeypatch.setattr(oracles, "_pool", recording_pool)
        cap = load_config(write(tmp_path, "cap.cfg", CAPACITY_CFG))
        run_sweep(cap, out=str(tmp_path / "cap.csv"), threads=3, err_stream=io.StringIO())
        assert pools == []
        text = "quantity = iid\nr = 1\nsnr = 0.01\namplitude_sq = 20\n"
        iid_cfg = load_config(write(tmp_path, "i.cfg", text))
        run_sweep(iid_cfg, out=str(tmp_path / "i.csv"), threads=3, err_stream=io.StringIO())
        assert pools == []
        text = "quantity = oracle-check\nt = 1\nr = 1\nl = 1\nsnr = 0.01\nn_samples = 1000\n"
        oc_cfg = load_config(write(tmp_path, "oc.cfg", text))
        run_sweep(oc_cfg, out=str(tmp_path / "oc.csv"), threads=3, err_stream=io.StringIO())
        assert pools == [3]

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_is_a_domain_error(self, tmp_path, threads):
        # rejected before the destination is opened, for a serial quantity too
        out = tmp_path / "cap.csv"
        cap = load_config(write(tmp_path, "cap.cfg", CAPACITY_CFG))
        with pytest.raises(DomainError) as err:
            run_sweep(cap, out=str(out), threads=threads, err_stream=io.StringIO())
        assert str(err.value) == f"threads must be a positive integer, got {threads}"
        assert not out.exists()

    def test_memory_bounded_by_a_chunk(self, tmp_path):
        rates = ", ".join(str(0.25 * i) for i in range(50))
        text = (
            "quantity = exponent\nt = 1, 2\nr = 1, 2\nsnr = 0.01, 0.02, 0.03, 0.04, 0.05\n"
            f"l = {', '.join(str(100 * i) for i in range(1, 21))}\nrate = {rates}\n"
        )
        cfg = load_config(write(tmp_path, "m.cfg", text))
        tracemalloc.start()
        try:
            summary = run_sweep(cfg, out=str(tmp_path / "m.csv"), err_stream=io.StringIO())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.rows == 20_000
        assert peak < 8 * 2**20

    def test_error_lines_stream_with_their_chunks(self, monkeypatch):
        # every row fails, and its error line goes out with its chunk: traced
        # memory does not grow with the number of failed rows
        class LineCounter:
            def __init__(self):
                self.lines = 0

            def write(self, text):
                self.lines += text.count("\n")
                return len(text)

        peaks = []
        for n in (3_000, 30_000):  # the inner axis, whose texts a sweep holds, stays 100 long
            snrs = tuple(-1.0 - i for i in range(100))
            grids = {"t": (1,), "r": (1,), "l": tuple(range(1, n // 100 + 1)), "snr": snrs}
            out, err = LineCounter(), LineCounter()
            monkeypatch.setattr(sys, "stdout", out)
            tracemalloc.start()
            try:
                summary = run_sweep(SweepConfig("capacity", grids), err_stream=err)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert summary.rows == summary.errors == n
            assert out.lines == err.lines == n + 1
        assert peaks[1] < peaks[0] + 2**20, peaks

    def test_inner_texts_bounded_by_a_chunk(self, tmp_path):
        # a sweep holds the texts of the inner values one chunk touches, not
        # those of the whole axis: ten times the snrs, the same traced peak
        # (a text per snr would add about 2.6 MiB at 40,000)
        peaks = []
        for n in (4_000, 40_000):
            grids = {"t": (1,), "r": (1,), "l": (10,), "snr": tuple(1e-7 * i for i in range(n))}
            config = SweepConfig("capacity", grids)
            tracemalloc.start()
            try:
                summary = run_sweep(config, out=str(tmp_path / "s.csv"), err_stream=io.StringIO())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert summary.rows == n and not summary.errors
        assert peaks[1] < peaks[0] + 2**20, peaks

    def test_point_built_once_per_outer_combination(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return operating_point(*args, **kwargs)

        monkeypatch.setattr("widemimo.reliability.operating_point", counting)
        # t = 0 fails at its points: a failing point is built once too
        text = (
            "quantity = exponent\nt = 0, 1, 2\nr = 1, 2\nsnr = 0.01, 0.02\nl = 100, 2500\n"
            f"rate = {', '.join(str(0.5 * i) for i in range(40))}\n"
        )
        cfg = load_config(write(tmp_path, "p.cfg", text))
        summary = run_sweep(cfg, out=str(tmp_path / "p.csv"), err_stream=io.StringIO())
        assert summary.rows == 3 * 2 * 2 * 2 * 40
        assert len(calls) == 3 * 2 * 2 * 2
        assert summary.errors == 2 * 2 * 2 * 40

    def test_capacity_row_expands_once(self, tmp_path, monkeypatch):
        # the row's gaussian_lower_bound reuses its expansion, the tuple that
        # coherent_expansion wraps
        calls = []
        expansion = capacity._expansion

        def counting(*args, **kwargs):
            calls.append(args)
            return expansion(*args, **kwargs)

        monkeypatch.setattr(capacity, "_expansion", counting)
        text = "quantity = capacity\nt = 1, 2\nr = 1, 3\nl = 10, 1000\nsnr = 0.001, 0.01, 0.1\n"
        cfg = load_config(write(tmp_path, "e.cfg", text))
        summary = run_sweep(cfg, out=str(tmp_path / "e.csv"), err_stream=io.StringIO())
        assert summary.rows == 2 * 2 * 2 * 3 and not summary.errors
        assert len(calls) == summary.rows

    def test_inner_axis_longer_than_chunks(self, tmp_path, monkeypatch):
        # one outer point whose rates run past three chunks; a negative rate
        # sits on each side of every chunk boundary
        n = 3 * _CHUNK_ROWS + 5
        negative = {k * _CHUNK_ROWS + d for k in (1, 2, 3) for d in (-1, 0)}
        rates = [-1.0 if i in negative else 0.01 * i for i in range(n)]
        text = (
            "quantity = exponent\nt = 1\nr = 1\nsnr = 0.01\nl = 2500\n"
            f"rate = {', '.join(map(str, rates))}\n"
        )
        cfg = load_config(write(tmp_path, "c.cfg", text))
        tracemalloc.start()
        try:
            summary, errors = sweep_errors(cfg, out=str(tmp_path / "c.csv"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.rows == n
        assert [i for i, _ in errors] == sorted(negative)
        assert peak < 8 * 2**20
        with open(tmp_path / "c.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n
        assert [i for i, row in enumerate(rows) if row["error"]] == sorted(negative)

        # written to stdout, the rows leave one chunk per write, also inside the point
        class Recorder(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return super().write(text)

        stdout = Recorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        run_sweep(cfg, err_stream=io.StringIO())
        lines = [text.count("\n") for text in stdout.writes]
        assert lines == [1, _CHUNK_ROWS, _CHUNK_ROWS, _CHUNK_ROWS, 5]
        assert stdout.getvalue().encode() == (tmp_path / "c.csv").read_bytes()


# The cell rule the sweep's CSV has always followed.
def reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _reference_capacity(p, cfg, index):
    dims = ChannelDims(p["t"], p["r"], p["l"])
    expansion = wm.coherent_expansion(dims, p["snr"])
    lb = wm.gaussian_lower_bound(dims, p["snr"])
    return (
        expansion.linear, expansion.sublinear, expansion.total, lb, lb < 0.0,
        "snr^3 remainder dropped",
    )


def _reference_sublinear(p, cfg, index):
    dims = ChannelDims(p["t"], p["r"], max(p.get("l", 1), 1))
    if "alpha" in p:
        return (
            wm.sublinear_term(dims, p["snr"], alpha=p["alpha"]),
            "remainder beyond snr^(1+alpha) dropped",
        )
    return (
        wm.sublinear_term(dims, p["snr"], coherence_length=p["l"]),
        "remainder beyond snr/sqrt(l) dropped",
    )


def _reference_point(p):
    op = operating_point(p["t"], p["r"], p["snr"], l=p.get("l"), nu=p.get("nu"))
    return op, p["rate"] if "rate" in p else op.rate_for_kappa(p["kappa"])


def _reference_exponent(p, cfg, index):
    op, rate = _reference_point(p)
    ep = op.exponent(rate)
    lm = op.landmarks
    return (
        rate, ep.value, ep.rho, ep.region, lm.r_critical, lm.r_cutoff, lm.c_block,
        lm.c_block_training_lb, lm.asymptotics_binding, ep.dropped,
    )


def _reference_outage(p, cfg, index):
    op, rate = _reference_point(p)
    outage = op.outage(rate)
    return (
        rate, op.training.f_star, op.training.gamma_star, outage.probability,
        outage.error_weighted, op.block_error_bound(rate),
    )


def _reference_iid(p, cfg, index):
    r, snr, a = p["r"], p["snr"], p["amplitude_sq"]
    spec = wm.onoff_building_blocks(r, snr, a)
    expansion = wm.onoff_mi_asymptotic(r, snr, a)
    bracket = wm.iid_capacity_bracket(r, snr)
    mstar = wm.m_star(r, snr)
    return (
        spec.omega, spec.divergence, spec.zeta_star,
        wm.onoff_mi_quadrature(r, snr, a, rel_tol=1e-10), expansion.value,
        expansion.zeta_ratio, bracket.lower, bracket.upper, bracket.delta_iid_dot,
        mstar.m_star, mstar.argmin_amplitude_sq,
    )


def _reference_oracle_check(p, cfg, index):
    dims = ChannelDims(p["t"], p["r"], p["l"])
    est = wm.mc_coherent_mi(dims, p["snr"], cfg.n_samples, RngStream(cfg.seed, index))
    closed = wm.coherent_expansion(dims, p["snr"]).total
    verdict = expansion_gap(est, closed, dims, p["snr"])
    return (
        cfg.n_samples, est.mean, est.std_error, est.ci99_low, est.ci99_high, closed,
        verdict.gap, verdict.slack, verdict.ok,
    )


# Each quantity's computed columns and one row of them from the public API,
# given the row's grid values by key, the config and the row's grid index.
REFERENCE_ROWS = {
    "capacity": (
        ["linear", "sublinear", "total", "gaussian_lower_bound", "lb_negative", "dropped"],
        _reference_capacity,
    ),
    "sublinear": (["value", "dropped"], _reference_sublinear),
    "exponent": (
        ["rate_nats", "e_r", "rho", "region", "r_critical", "r_cutoff", "c_block",
         "c_block_training_lb", "asymptotics_binding", "dropped"],
        _reference_exponent,
    ),
    "outage": (
        ["rate_nats", "f_star", "gamma_star", "outage", "delta_times_outage", "block_error_bound"],
        _reference_outage,
    ),
    "iid": (
        ["omega", "divergence", "zeta_star", "mi_quadrature", "mi_asymptotic", "zeta_ratio",
         "bracket_lower", "bracket_upper", "delta_iid_dot", "m_star", "m_star_argmin"],
        _reference_iid,
    ),
    "oracle-check": (
        ["n_samples", "mc_mean", "mc_std_error", "ci99_low", "ci99_high", "closed_form",
         "abs_gap", "slack", "agree"],
        _reference_oracle_check,
    ),
}


def reference_csv(cfg, rows=REFERENCE_ROWS):
    """The sweep's CSV by its defining rule, row by row in grid order with no memo.

    Each row is computed alone from ``rows`` and rendered by csv.writer over
    reference_cell; a library error becomes the error column.
    """
    computed, row_fn = rows[cfg.quantity]
    keys = list(cfg.grids)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys + computed + ["error"])
    for index, combo in enumerate(itertools.product(*cfg.grids.values())):
        try:
            values = combo + row_fn(dict(zip(keys, combo)), cfg, index) + ("",)
        except WidemimoError as exc:
            values = combo + (None,) * len(computed) + (f"{type(exc).__name__}: {exc}",)
        writer.writerow([reference_cell(value) for value in values])
    return buf.getvalue().encode()


# Small grids of every quantity, with row errors among them (t = 0, l = 0, an
# l too short to train, snr, rate and amplitude out of range); "training needs
# l > t, got l=1, t=1" holds commas, so csv quotes it.  The nu/kappa grids add
# a kappa whose rate overflows (-500), a coherence length that overflows
# (snr = 1e-200 at nu = 1) and one too short to train (t = 2 at snr = 0.5).
WRITER_CFGS = {
    "capacity": "t = 0, 1, 2\nr = 1, 2\nl = 1, 100\nsnr = 0.0, -0.0, 0.01, 2.0\n",
    "sublinear": "t = 1, 2\nr = 1\nsnr = 1e-200, 0.01, -1.0\nalpha = 0.5, 1.0, 2.0\n",
    "sublinear-l": "t = 0, 1, 2\nr = 1\nsnr = 0.0, 1e-200, 0.01, -1.0\nl = 0, 1, 10, 100000\n",
    "exponent": "t = 1, 2\nr = 1\nsnr = 0.01, 2.0\nl = 1, 2500\nrate = -0.0, 0.0, 1.5, -1.0\n",
    "exponent-kappa": (
        "t = 1, 2\nr = 1\nsnr = 0.01, 0.5, 1e-200\nnu = 0.5, 1\nkappa = 1.5, -500, 0.75\n"
    ),
    "outage": "t = 1, 2\nr = 1\nsnr = 0.01\nl = 1, 2, 2500\nrate = -0.0, 0.5, -1.0\n",
    "outage-kappa": (
        "t = 1, 2\nr = 1\nsnr = 0.01, 0.5, 1e-200\nnu = 0.5, 1\nkappa = 1.5, -500, 0.75\n"
    ),
    "iid": "r = 1\nsnr = 0.01, 0.5\namplitude_sq = 0.1, 20\n",
    "oracle-check": "t = 1\nr = 1, 2\nl = 0, 1\nsnr = 0.01\nn_samples = 1000\n",
    # Grids of several chunks.  384 rates a point put chunk ends inside points
    # and, at 3 chunks, between two; the rows span all four regions, so e_r and
    # rho mix zeros with other values in each chunk.
    "exponent-chunks": (
        "t = 1, 2\nr = 1\nsnr = 0.01, 0.02\nl = 100, 1000, 2500\n"
        f"rate = {', '.join(repr(0.1 * i) for i in range(384))}\n"
    ),
    # 50 snrs a point put about 20 points, and several l, in each chunk, so
    # linear = r snr recurs across points, -0.0 among it.
    "capacity-chunks": (
        "t = 1, 2, 4\nr = 1, 2\nl = 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000\n"
        f"snr = {', '.join(repr(v) for v in [-0.0] + [1e-4 * 1.15**i for i in range(49)])}\n"
    ),
}
# The row errors each nu/kappa grid is there to hold, by the start of their text.
_OVERFLOWS = ("DomainError: rate = l r snr^kappa overflows", "DomainError: coherence length")
WRITER_ERRORS = {
    "exponent-kappa": _OVERFLOWS,
    "outage-kappa": _OVERFLOWS + ("TrainingInfeasibleError: training needs l > t",),
}
# sha256 of the CSV of each WRITER_CFGS grid but the Monte Carlo one, recorded
# with numpy 2.4.6 and scipy 1.17.1 (the versions CI pins): any change to a
# cell's value or text, a column, the row order or the quoting changes a digest.
WRITER_DIGESTS = {
    "capacity": "18b6e472fa9f3c6af663726779128be47d88dae9c9b4744f0f1d3f200ef643be",
    "sublinear": "1f690c1af2bd9bbae500a85fe93b3f0bf817f66b53e4e9295d4aa49478a18b0a",
    "sublinear-l": "f3f1e65ff6938c772fa06efbb2731023af7233139bb1d319c821d932df5dd95c",
    "exponent": "d9888de08e0d820b1e9281c36c31eac40a181302d954a25a49172deaf2a08974",
    "exponent-kappa": "42aa23c6707d4282987674867ed60f7ae42b737e284e3e54c92bc94db9a86c5b",
    "outage": "aba0aa4e3bf2ca88a2d0b911eb3d556eaf2425a4dfb883c37e4b7a8cf9f32ed2",
    "outage-kappa": "bca63bdf109ebc307fddd1fe15b7c587e55461a92a6068da462723de9d07bf77",
    "iid": "39c79cc04958e2a319f69c585ac8938218037441a15292287361a0a9f7c89616",
    "exponent-chunks": "962207ebe4792842c35f04d11bb0395040e3cad535f39e4c4007afdece42ec01",
    "capacity-chunks": "4a0d32a72e7dc8d8c4fc0c7bebef87850623aad284cbcf4c822b8503c88951f9",
}


def _raise_awkward(state, value, cfg, index):
    raise DomainError('a "quoted" word\nthen a second line')


def _raise_at_point(p, inner_key):
    if p["t"] == 2:
        raise DomainError("no point at t=2, so every row of it fails")
    return p


# Row parts of the sweep's contract for a fake sublinear, (column types, row
# part), whose rows hold cells that need quoting for one reason each, that
# format differently while comparing equal, that sit beside an error row's
# None, or that recur only after a chunk's first 80 rows.  Every cell is None
# or of exactly its column's type.  The point part passes the outer values on
# unless it fails.
ODD_ROWS = {
    "comma-cell": ((str, float), lambda p, value, cfg, index: ("a,b", 1.5)),
    "quote-cell": ((str, int), lambda p, value, cfg, index: ('say "hi"', 2)),
    "newline-cell": ((str, float), lambda p, value, cfg, index: ("one\ntwo", None)),
    "carriage-return-cell": ((str, bool), lambda p, value, cfg, index: ("cr\r", True)),
    # a str column whose cells differ along the run, one of them quoted
    "varying-quoted-cell": (
        (str, float),
        lambda p, value, cfg, index: (("plain", "a,b", 'say "hi"', "cr\r")[index % 4], 1.5),
    ),
    "bool-none-zero": (
        (bool, float), lambda p, value, cfg, index: (index % 2 == 0, None if index else -0.0)
    ),
    "signed-zeros-nan": (
        (float, float), lambda p, value, cfg, index: ((0.0, -0.0, math.nan)[index % 3], -0.0)
    ),
    "late-repeats": ((float, int), lambda p, value, cfg, index: (index % 80 / 7, index % 80)),
    # the inner value itself, then a float equal to it, a new object with the
    # other zero sign at the zeros
    "inner-itself": ((float, float), lambda p, value, cfg, index: (value, -value)),
    # a new nan object in every row, beside an inner value
    "fresh-nan": ((float, float), lambda p, value, cfg, index: (float("nan"), value)),
    "quoted-error": ((float, float), _raise_awkward),
    "point-error": ((int, float), lambda p, value, cfg, index: (p["t"], value)),
}
ODD_POINTS = {"point-error": _raise_at_point}
ODD_GRID = "t = 1, 2\nr = 1\nsnr = 0.0, -0.0, 0.01\nalpha = 0.5, 1.0\n"
# 200 rows in one chunk, so late-repeats' cells recur only after the first 80
ODD_GRIDS = {
    "late-repeats": f"t = 1, 2\nr = 1\nsnr = 0.01\nalpha = {', '.join(map(str, range(100)))}\n",
    # runs of zeros alone, so every -value equals its row's inner value
    "inner-itself": "t = 1, 2\nr = 1\nsnr = 0.0, 0.01\nalpha = 0.0, -0.0, 0.0\n",
}


class TestWriter:
    """run_sweep's bytes against reference_csv, an independent renderer."""

    @staticmethod
    def quantity(name):
        return name if name in _QUANTITIES else name.rsplit("-", 1)[0]

    @classmethod
    def sweep(cls, tmp_path, name):
        text = f"quantity = {cls.quantity(name)}\n{WRITER_CFGS[name]}"
        cfg = load_config(write(tmp_path, "w.cfg", text))
        out = tmp_path / "w.csv"
        return cfg, out, run_sweep(cfg, out=str(out), err_stream=io.StringIO())

    @pytest.mark.parametrize("name", list(WRITER_CFGS))
    def test_quantities_match_reference(self, tmp_path, name):
        cfg, out, _ = self.sweep(tmp_path, name)
        assert out.read_bytes() == reference_csv(cfg)
        errors = [row["error"] for row in csv.DictReader(io.StringIO(out.read_text()))]
        for kind in WRITER_ERRORS.get(name, ()):
            assert any(error.startswith(kind) for error in errors), kind

    @pytest.mark.parametrize("name", list(WRITER_CFGS))
    def test_rows_hold_their_declared_types(self, tmp_path, monkeypatch, name):
        # the writer renders a column by its declared type alone, so every
        # cell a row returns must be None or of exactly that type
        record = _QUANTITIES[self.quantity(name)]
        returned = set()  # ((column name, declared type), type returned)

        def row(state, value, cfg, index):
            cells = record.row(state, value, cfg, index)
            assert len(cells) == len(record.columns)
            returned.update(zip(record.columns, map(type, cells)))
            return cells

        monkeypatch.setitem(_QUANTITIES, self.quantity(name), replace(record, row=row))
        self.sweep(tmp_path, name)
        assert returned
        wrong = {(column, got) for (column, kind), got in returned if got not in (kind, type(None))}
        assert wrong == set()

    @pytest.mark.parametrize("name", list(WRITER_DIGESTS))
    def test_closed_form_bytes_pinned(self, tmp_path, name):
        _, out, _ = self.sweep(tmp_path, name)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == WRITER_DIGESTS[name]

    def test_chunk_grids_cross_points_and_regions(self, tmp_path):
        cfg, out, summary = self.sweep(tmp_path, "exponent-chunks")
        ends = range(_CHUNK_ROWS, summary.rows, _CHUNK_ROWS)
        assert len(ends) >= 2 and not summary.errors
        per_point = len(cfg.grids["rate"])
        assert {end % per_point == 0 for end in ends} == {True, False}
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        for start in range(0, summary.rows, _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS]
            assert len({row["region"] for row in chunk}) == 4
            for column in ("e_r", "rho"):
                assert {row[column] == "0" for row in chunk} == {True, False}

        cfg, out, summary = self.sweep(tmp_path, "capacity-chunks")
        assert summary.rows > _CHUNK_ROWS and not summary.errors
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        for start in range(0, summary.rows, _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS]
            assert len({row["l"] for row in chunk}) >= 2
            # a point's snrs are distinct, so a linear text seen twice is
            # seen at two points
            linear = collections.Counter(row["linear"] for row in chunk)
            assert linear["-0"] >= 2 and "0" not in linear
            assert any(count >= 2 for text, count in linear.items() if text != "-0")

    @pytest.mark.parametrize("quantity, grid, bad", [
        ("capacity", "t = 1, 2\nr = 1, 2\nl = 10, 100\nsnr = {}\n", ("0.01", "0.02", "-1.0", "0.03")),
        ("outage", "t = 1\nr = 1, 2\nsnr = 0.01\nl = 100, 2500\nrate = {}\n",
         ("0.5", "1.0", "-1.0", "1.5")),
    ])
    def test_row_error_inside_a_run(self, tmp_path, quantity, grid, bad):
        # one row of every point fails mid-run, in a chunk of several points:
        # the run goes cell by cell, and its other rows keep their bytes
        results = []
        for values in (bad, tuple(v for v in bad if v != "-1.0")):
            text = f"quantity = {quantity}\n" + grid.format(", ".join(values))
            cfg = load_config(write(tmp_path, "e.cfg", text))
            out = tmp_path / "e.csv"
            summary = run_sweep(cfg, out=str(out), err_stream=io.StringIO())
            assert summary.rows < _CHUNK_ROWS
            assert out.read_bytes() == reference_csv(cfg)
            results.append((summary, list(csv.DictReader(io.StringIO(out.read_text())))))
        (summary, rows), (_, good) = results
        inner = list(cfg.grids)[-1]
        failed = [row for row in rows if row["error"]]
        assert summary.errors == len(failed) == len(rows) // 4
        assert {row[inner] for row in failed} == {"-1"}
        assert [row for row in rows if not row["error"]] == good

    @pytest.mark.parametrize("name", list(ODD_ROWS))
    def test_odd_cells_match_reference(self, tmp_path, monkeypatch, name):
        point_fn = ODD_POINTS.get(name, lambda p, inner_key: p)
        (first, second), row_fn = ODD_ROWS[name]
        odd = replace(
            _QUANTITIES["sublinear"], point=point_fn, row=row_fn,
            columns=(("first", first), ("second", second)),
        )
        monkeypatch.setitem(_QUANTITIES, "sublinear", odd)
        text = f"quantity = sublinear\n{ODD_GRIDS.get(name, ODD_GRID)}"
        cfg = load_config(write(tmp_path, "w.cfg", text))
        out = tmp_path / "w.csv"
        run_sweep(cfg, out=str(out), err_stream=io.StringIO())

        def alone(p, cfg, index):  # the point part, then the row part, for this row only
            return row_fn(point_fn({k: v for k, v in p.items() if k != "alpha"}, "alpha"),
                          p["alpha"], cfg, index)

        assert out.read_bytes() == reference_csv(cfg, {"sublinear": (["first", "second"], alone)})


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "widemimo", *args],
        cwd=cwd,
        env=cli_env(),
        capture_output=True,
        text=True,
    )


@pytest.fixture
def run_main(monkeypatch, capsys):
    """``cli.main`` in this process, run in cwd and returned as ``run_cli`` returns it.

    For tests that check only the exit code, the captured streams and the
    files written; ``run_cli`` keeps a fresh ``python -m widemimo`` covered.
    """

    def run(args, cwd):
        monkeypatch.chdir(cwd)
        code = cli.main(args)
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)

    return run


class TestCli:
    def test_import_leaves_quadrature_and_root_finding_unloaded(self, tmp_path):
        # scipy.integrate and scipy.optimize are imported where they are used,
        # so a CLI process that runs neither pays nothing for them, at startup
        # or in sweeps of the quantities that need neither
        configs = {
            "capacity": CAPACITY_CFG,
            "sublinear": "quantity = sublinear\nt = 1\nr = 1\nsnr = 0.01\nl = 10, 100\n",
            "exponent": "quantity = exponent\nt = 1\nr = 1\nsnr = 0.01\nl = 2500\nrate = 0.5, 1\n",
            "outage": "quantity = outage\nt = 1\nr = 1\nsnr = 0.01\nl = 2500\nrate = 0.5, 1\n",
            "oracle-check": (
                "quantity = oracle-check\nt = 1, 2\nr = 2\nl = 1\nsnr = 0.05\nn_samples = 20000\n"
            ),
        }
        argvs = []
        for quantity, text in configs.items():
            write(tmp_path, f"{quantity}.cfg", text)
            argvs.append(["sweep", f"{quantity}.cfg", "--out", f"{quantity}.csv"])
        argvs[-1] += ["--threads", "2"]
        code = (
            "import sys, widemimo; from widemimo import cli; "
            f"codes = [cli.main(argv) for argv in {argvs!r}]; "
            "assert codes == [0] * len(codes), codes; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=cli_env(),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_sweep_deterministic_across_runs_and_threads(self, tmp_path, run_main):
        cfg = write(tmp_path, "cap.cfg", CAPACITY_CFG + "seed = 11\n")
        for name, threads in (("a.csv", "1"), ("b.csv", "4"), ("c.csv", "1")):
            proc = run_main(
                ["sweep", str(cfg), "--out", name, "--threads", threads], tmp_path
            )
            assert proc.returncode == 0, proc.stderr
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert a == (tmp_path / "c.csv").read_bytes()

    def test_oracle_check_sweep_uses_seed(self, tmp_path, run_main):
        text = (
            "quantity = oracle-check\nt = 1\nr = 1\nl = 1\nsnr = 0.05\n"
            "n_samples = 20000\nseed = 5\n"
        )
        cfg = write(tmp_path, "oc.cfg", text)
        r1 = run_main(["sweep", str(cfg), "--out", "x.csv"], tmp_path)
        r2 = run_main(["sweep", str(cfg), "--out", "y.csv", "--seed", "5"], tmp_path)
        r3 = run_main(["sweep", str(cfg), "--out", "z.csv", "--seed", "6"], tmp_path)
        assert r1.returncode == r2.returncode == r3.returncode == 0
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
        assert (tmp_path / "x.csv").read_bytes() != (tmp_path / "z.csv").read_bytes()

    def test_row_error_exit_code(self, tmp_path, run_main):
        text = "quantity = outage\nt = 1\nr = 1\nsnr = 0.01\nl = 1\nrate = 1\n"
        cfg = write(tmp_path, "bad.cfg", text)
        proc = run_main(["sweep", str(cfg), "--out", "bad.csv"], tmp_path)
        assert proc.returncode == 1
        assert "row 0" in proc.stderr

    def test_config_error_exit_code(self, tmp_path, run_main):
        cfg = write(tmp_path, "bad.cfg", CAPACITY_CFG + "snr_db = 1\n")
        proc = run_main(["sweep", str(cfg)], tmp_path)
        assert proc.returncode == 2
        assert "snr_db" in proc.stderr

    def test_missing_config_exit_code(self, tmp_path, run_main):
        proc = run_main(["sweep", "no-such-file.cfg"], tmp_path)
        assert proc.returncode == 2
        assert "no-such-file" in proc.stderr

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_threads_below_one_is_the_library_error(self, tmp_path, run_main, command):
        # one rule, the library's, for both subcommands: one error line, no output
        args = [command]
        if command == "sweep":
            args.append(str(write(tmp_path, "c.cfg", CAPACITY_CFG)))
        proc = run_main([*args, "--threads", "0"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "error: threads must be a positive integer, got 0\n"
        assert proc.stdout == ""

    def test_check_library_error_is_an_error_line(self, tmp_path, run_main, monkeypatch):
        # a library error inside the battery ends the run with exit code 2, not a traceback
        def checks(seed, threads):
            yield "first", wm.check.Verdict(0.0, 1.0)
            raise DomainError("x must be finite and >= 0, got nan")

        monkeypatch.setattr("widemimo.check._checks", checks)
        proc = run_main(["check"], tmp_path)
        assert proc.returncode == 2
        assert proc.stdout.startswith("PASS  first ")
        assert proc.stderr == "error: x must be finite and >= 0, got nan\n"

    def test_count_past_the_float_range_is_one_error_line(self, tmp_path, run_main):
        grid = "1" + "0" * 400
        text = f"quantity = exponent\nt = 1\nr = 1\nsnr = 0.01\nl = {grid}\nrate = 1\n"
        proc = run_main(["sweep", str(write(tmp_path, "big.cfg", text))], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == f"error: line 5: grid 'l' expects finite values, got '{grid}'\n"
        assert proc.stdout == ""

    def test_csv_to_stdout_when_no_out(self, tmp_path, run_main):
        cfg = write(tmp_path, "cap.cfg", CAPACITY_CFG)
        proc = run_main(["sweep", str(cfg)], tmp_path)
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("t,r,l,snr,")
        assert len(lines) == 9  # header + 8 rows

    @pytest.mark.parametrize(
        "quantity,grid",
        [
            pytest.param("exponent", "snr = 0.01\nkappa = 1.5, -500", id="-500"),
            pytest.param("exponent", "snr = 0.01\nkappa = 1.5, -153.6", id="-153.6"),
            pytest.param("exponent", "snr = 0.01, 1e-200\nkappa = 1.5", id="exponent-coherence"),
            pytest.param("outage", "snr = 0.01, 1e-200\nkappa = 1.5", id="outage-coherence"),
        ],
    )
    def test_rate_overflow_is_a_row_error(self, tmp_path, run_main, quantity, grid):
        # snr^-500 overflows the power; snr^-153.6 only the product l r snr^kappa;
        # at snr = 1e-200 the coherence length snr^(-2 nu) overflows before the rate
        text = f"quantity = {quantity}\nt = 1\nr = 1\nnu = 1\n{grid}\n"
        cfg = write(tmp_path, "k.cfg", text)
        proc = run_main(["sweep", str(cfg), "--out", "k.csv"], tmp_path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        with open(tmp_path / "k.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["rate_nats"]) == pytest.approx(2.5, rel=1e-12) and not rows[0]["error"]
        assert rows[1]["rate_nats"] == "" and rows[1]["error"].startswith("DomainError: ")

    @pytest.mark.parametrize(
        "quantity,counts",
        [("exponent", "t = 0, 1\nr = 1\n"), ("outage", "t = 1\nr = -1, 1\n")],
    )
    def test_nu_path_checks_antenna_counts(self, tmp_path, run_main, quantity, counts):
        # the l path gets these rows from ChannelDims; the nu path must too
        text = f"quantity = {quantity}\n{counts}snr = 0.01\nnu = 1\nrate = 1\n"
        cfg = write(tmp_path, "n.cfg", text)
        proc = run_main(["sweep", str(cfg), "--out", "n.csv"], tmp_path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        with open(tmp_path / "n.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with pytest.raises(DimensionError) as exc:
            ChannelDims(int(rows[0]["t"]), int(rows[0]["r"]), 1)
        assert rows[0]["error"] == f"DimensionError: {exc.value}"
        assert rows[0]["rate_nats"] == ""
        assert rows[1]["error"] == "" and float(rows[1]["rate_nats"]) == 1.0

    def test_check_subcommand_fast_smoke(self, tmp_path):
        # full determinism of `check` is exercised in the acceptance suite;
        # here only the exit code and table shape
        proc = run_cli(["check", "--seed", "1"], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[-1].startswith("check summary: all checks passed")
        body = lines[:-1]
        assert len(body) == 16
        for line in body:
            assert CHECK_LINE.match(line) and "nan" not in line, line
        fails = sum(line.startswith("FAIL") for line in body)
        assert (fails == 0) == (proc.returncode == 0)
