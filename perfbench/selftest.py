"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. Runs every workload at tiny size with --trace 0 and 1 and checks that the
   last stdout line names exactly the metrics BENCHMARK.json lists, each with
   its unit, and that the gate passed.
2. Checks that the CSV gate accepts a clean sweep CSV but catches one flipped
   digit and one value off by 1e-9 relative, that two seeds give the same row
   and call counts, and that the ledger fails a repetition whose output
   differs from the others.
3. Checks that, without the program's sources, the benchmark exits non-zero
   without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_out", f"selftest-{os.getpid()}")


def check_runs(spec, failures):
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{label}: gate failed: {proc.stderr[-500:]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected[trace]))}, "
                                f"units {[(n, u) for n, u in got.items() if expected[trace].get(n, u) != u]}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    failures.append(f"{label}: {name} = {m['value']!r}")
            print(f"ok  {label}: {len(got)} metrics, {result['attempted']} operations")


def _rewrite_cell(src, dst, row_index, column, transform):
    with open(src, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row_index].split(",")
    col = header.index(column)
    cells[col] = transform(cells[col])
    lines[1 + row_index] = ",".join(cells)
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _flip_first_digit(text):
    for i, ch in enumerate(text):
        if ch in "123456789":
            return text[:i] + str(int(ch) % 9 + 1) + text[i + 1:]
    raise ValueError(f"no nonzero digit in {text!r}")


def check_gate(failures):
    sys.path.insert(0, HERE)
    from run import import_program

    import_program()
    import gate
    from families import ClosedFormSweeps, Ledger
    from inputs import closed_form_grids, row_count, validation_inputs
    from tracing import NullTracer

    seed = 3
    family = ClosedFormSweeps(seed, "tiny", SCRATCH)
    family.rep(NullTracer())
    grid = family.grids["exponent"]
    csv_path = family.paths["exponent"][1]
    clean = gate.check_csv(csv_path, "exponent", grid, gate_seed=seed)
    if clean:
        failures.append(f"gate rejects a clean CSV: {clean[:3]}")
    row = gate.sample_indices(seed, "exponent", row_count(grid))[0]
    mutants = {
        "flipped digit": _flip_first_digit,
        "value off by 1e-9": lambda text: format(float(text) * (1.0 + 1e-9), ".17g"),
    }
    for label, transform in mutants.items():
        bad_path = csv_path + ".mutant"
        _rewrite_cell(csv_path, bad_path, row, "c_block", transform)
        problems = gate.check_csv(bad_path, "exponent", grid, gate_seed=seed)
        if problems:
            print(f"ok  gate catches a {label}: {problems[0]}")
        else:
            failures.append(f"gate misses a {label} in row {row}")

    shapes = []
    for other_seed in (seed, seed + 1):
        grids = closed_form_grids(other_seed, "full")
        validation = validation_inputs(other_seed, "full")
        shapes.append((
            {q: row_count(g) for q, g in grids.items()},
            {q: row_count(g) for q, g in validation["grids"].items()},
            len(validation["check_seeds"]),
        ))
    if shapes[0] != shapes[1]:
        failures.append(f"row or call counts depend on the seed: {shapes}")
    else:
        print(f"ok  seeds {seed} and {seed + 1} give the same row and call counts")

    ledger = Ledger()
    for fingerprint in ("a", "a", "b"):
        ledger.attempt("op", lambda: fingerprint)
    ledger.settle("op", "a")
    if (ledger.attempted, ledger.failed) != (3, 1):
        failures.append(f"ledger counted {ledger.failed}/{ledger.attempted} for one odd repetition")
    else:
        print("ok  ledger fails the one repetition whose output differs")


def check_bare_directory(failures):
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "oracle-mc", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"ok  bare directory exits {proc.returncode} without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []
    os.makedirs(SCRATCH)
    try:
        check_runs(spec, failures)
        check_gate(failures)
        check_bare_directory(failures)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "passed" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
