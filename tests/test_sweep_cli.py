import csv
import io
import subprocess
import sys

import pytest

from conftest import cli_env
from widemimo import ConfigError, load_config, run_sweep
from widemimo.sweep import DEFAULT_ROW_CAP, ROW_CAP_ENV


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


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


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "widemimo", *args],
        cwd=cwd,
        env=cli_env(),
        capture_output=True,
        text=True,
    )


class TestCli:
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

    def test_check_subcommand_fast_smoke(self, tmp_path):
        # full determinism of `check` is exercised in the acceptance suite;
        # here only the exit code and table shape
        proc = run_cli(["check", "--seed", "1"], tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[-1].startswith("check summary: all checks passed")
        assert all(l.startswith(("PASS", "FAIL")) for l in lines[:-1])
