#!/usr/bin/env python3
"""Reproducible sweeps and the oracle cross-check battery, driven from Python.

Writes a small sweep configuration, runs it through the same engine as the
``widemimo sweep`` command, shows the deterministic CSV it produces, and then
runs one Monte Carlo oracle against its closed form the way the acceptance
tests do.
"""

import csv
import io
import tempfile
from pathlib import Path

from widemimo import (
    ChannelDims,
    RngStream,
    coherent_expansion,
    load_config,
    mc_coherent_mi,
    run_sweep,
)
from widemimo.check import expansion_gap

CONFIG = """\
quantity = exponent
t = 1
r = 1
snr = 0.01
l = 2500
rate = 0, 0.5, 2.5, 10, 16, 26
seed = 42
"""


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "exponent.cfg"
        cfg_path.write_text(CONFIG, encoding="utf-8")
        out_path = Path(tmp) / "exponent.csv"
        summary = run_sweep(
            load_config(cfg_path), out=str(out_path), err_stream=io.StringIO()
        )
        print(f"sweep wrote {summary.rows} rows (errors: {summary.errors})")
        with open(out_path, newline="") as fh:
            for row in csv.DictReader(fh):
                print(
                    f"  R={row['rate_nats']:>4}: E_r={float(row['e_r']):.5f} "
                    f"region={row['region']}"
                )
    print(
        "re-running with the same seed reproduces the file byte for byte, "
        "on any thread count\n"
    )

    dims = ChannelDims(2, 2, 1)
    snr = 0.02
    est = mc_coherent_mi(dims, snr, 300_000, RngStream(42, 0))
    closed = coherent_expansion(dims, snr).total
    print("one oracle cross-check, the pattern the whole test suite uses:")
    print(f"  monte carlo  {est.mean:.6f} +- {est.ci99_half:.6f} (99% CI)")
    print(f"  closed form  {closed:.6f}")
    verdict = expansion_gap(est, closed, dims, snr)
    print(f"  gap {verdict.gap:.2e} vs CI + cubic-remainder budget {verdict.slack:.2e}")
    print("\nthe full battery is available as `widemimo check`")


if __name__ == "__main__":
    main()
