import csv
import io
import math
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import cli_env
from widemimo import (
    ChannelDims, ConfigError, DimensionError, WidemimoError, load_config, outage_probability,
    run_sweep,
)
from widemimo.sweep import _CHUNK_ROWS, DEFAULT_ROW_CAP, ROW_CAP_ENV


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


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
        with pytest.raises(ConfigError, match="snr"):
            load_config(write(tmp_path, "c.cfg", text))

    def test_exactly_one_alternative(self, tmp_path):
        text = "quantity = exponent\nt = 1\nr = 1\nsnr = 0.01\nrate = 1\n"
        with pytest.raises(ConfigError, match="l/nu"):
            load_config(write(tmp_path, "c.cfg", text))
        text += "l = 2500\nnu = 1\n"
        with pytest.raises(ConfigError, match="l/nu"):
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

    def test_row_cap_refusal(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ROW_CAP_ENV, "4")
        with pytest.raises(ConfigError, match="cap"):
            load_config(write(tmp_path, "c.cfg", CAPACITY_CFG))
        monkeypatch.delenv(ROW_CAP_ENV)
        assert load_config(write(tmp_path, "c2.cfg", CAPACITY_CFG)).quantity == "capacity"
        assert DEFAULT_ROW_CAP == 10**6


class TestRunSweep:
    def test_row_count_and_roundtrip(self, tmp_path):
        cfg = load_config(write(tmp_path, "c.cfg", CAPACITY_CFG))
        out = tmp_path / "cap.csv"
        summary = run_sweep(cfg, out=str(out), err_stream=io.StringIO())
        assert summary.rows == 8
        assert not summary.row_errors
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
        assert len(summary.row_errors) == 1
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
        assert summary.rows == 2 and not summary.row_errors
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            r = int(row["r"])
            assert 0.0 < float(row["mi_quadrature"]) <= r * 0.01
            assert float(row["bracket_lower"]) <= float(row["bracket_upper"])
            assert float(row["m_star"]) > 0.0

    def test_exponent_kappa_alternative(self, tmp_path):
        text = "quantity = exponent\nt = 1\nr = 1\nsnr = 0.01\nnu = 1\nkappa = 1.5\n"
        cfg = load_config(write(tmp_path, "k.cfg", text))
        out = tmp_path / "k.csv"
        summary = run_sweep(cfg, out=str(out), err_stream=io.StringIO())
        assert summary.rows == 1 and not summary.row_errors
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
        assert summary.rows == 1 and not summary.row_errors
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["rate_nats"]) > 0.0
        assert 0.0 < float(row["outage"]) < 1.0

    def test_sublinear_row_past_float_saturation(self, tmp_path):
        # the saturation length 0.25 snr^-2 overflows at snr = 1e-200: a value row
        text = "quantity = sublinear\nt = 1\nr = 1\nsnr = 1e-200\nl = 10\n"
        cfg = load_config(write(tmp_path, "s.cfg", text))
        summary = run_sweep(cfg, out=str(tmp_path / "s.csv"), err_stream=io.StringIO())
        assert summary.row_errors == []
        with open(tmp_path / "s.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["value"]) == 1e-200 / (2.0 * math.sqrt(10))


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
            summary = run_sweep(cfg, out=str(out), threads=threads, err_stream=io.StringIO())
            assert summary.rows == len(grid) > _CHUNK_ROWS
            assert [i for i, _ in summary.row_errors] == expected
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
            summary = run_sweep(cfg, out=str(out), threads=threads, err_stream=io.StringIO())
            assert [i for i, _ in summary.row_errors] == expected
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_threads_apply_only_to_oracle_check(self, tmp_path, monkeypatch):
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr("widemimo.sweep.ThreadPoolExecutor", RecordingPool)
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


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "widemimo", *args],
        cwd=cwd,
        env=cli_env(),
        capture_output=True,
        text=True,
    )


class TestCli:
    def test_import_leaves_quadrature_and_root_finding_unloaded(self, tmp_path):
        # scipy.integrate and scipy.optimize are imported where they are used,
        # so a CLI process that runs neither pays nothing for them at startup
        code = (
            "import sys, widemimo; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=cli_env(),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_sweep_deterministic_across_runs_and_threads(self, tmp_path):
        cfg = write(tmp_path, "cap.cfg", CAPACITY_CFG + "seed = 11\n")
        for name, threads in (("a.csv", "1"), ("b.csv", "4"), ("c.csv", "1")):
            proc = run_cli(
                ["sweep", str(cfg), "--out", name, "--threads", threads], tmp_path
            )
            assert proc.returncode == 0, proc.stderr
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert a == (tmp_path / "c.csv").read_bytes()

    def test_oracle_check_sweep_uses_seed(self, tmp_path):
        text = (
            "quantity = oracle-check\nt = 1\nr = 1\nl = 1\nsnr = 0.05\n"
            "n_samples = 20000\nseed = 5\n"
        )
        cfg = write(tmp_path, "oc.cfg", text)
        r1 = run_cli(["sweep", str(cfg), "--out", "x.csv"], tmp_path)
        r2 = run_cli(["sweep", str(cfg), "--out", "y.csv", "--seed", "5"], tmp_path)
        r3 = run_cli(["sweep", str(cfg), "--out", "z.csv", "--seed", "6"], tmp_path)
        assert r1.returncode == r2.returncode == r3.returncode == 0
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
        assert (tmp_path / "x.csv").read_bytes() != (tmp_path / "z.csv").read_bytes()

    def test_row_error_exit_code(self, tmp_path):
        text = "quantity = outage\nt = 1\nr = 1\nsnr = 0.01\nl = 1\nrate = 1\n"
        cfg = write(tmp_path, "bad.cfg", text)
        proc = run_cli(["sweep", str(cfg), "--out", "bad.csv"], tmp_path)
        assert proc.returncode == 1
        assert "row 0" in proc.stderr

    def test_config_error_exit_code(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", CAPACITY_CFG + "snr_db = 1\n")
        proc = run_cli(["sweep", str(cfg)], tmp_path)
        assert proc.returncode == 2
        assert "snr_db" in proc.stderr

    def test_missing_config_exit_code(self, tmp_path):
        proc = run_cli(["sweep", "no-such-file.cfg"], tmp_path)
        assert proc.returncode == 2
        assert "no-such-file" in proc.stderr

    def test_csv_to_stdout_when_no_out(self, tmp_path):
        cfg = write(tmp_path, "cap.cfg", CAPACITY_CFG)
        proc = run_cli(["sweep", str(cfg)], tmp_path)
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
    def test_rate_overflow_is_a_row_error(self, tmp_path, quantity, grid):
        # snr^-500 overflows the power; snr^-153.6 only the product l r snr^kappa;
        # at snr = 1e-200 the coherence length snr^(-2 nu) overflows before the rate
        text = f"quantity = {quantity}\nt = 1\nr = 1\nnu = 1\n{grid}\n"
        cfg = write(tmp_path, "k.cfg", text)
        proc = run_cli(["sweep", str(cfg), "--out", "k.csv"], tmp_path)
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
    def test_nu_path_checks_antenna_counts(self, tmp_path, quantity, counts):
        # the l path gets these rows from ChannelDims; the nu path must too
        text = f"quantity = {quantity}\n{counts}snr = 0.01\nnu = 1\nrate = 1\n"
        cfg = write(tmp_path, "n.cfg", text)
        proc = run_cli(["sweep", str(cfg), "--out", "n.csv"], tmp_path)
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
