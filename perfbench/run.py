"""widemimo benchmark: three workloads, end-to-end metrics and a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-closed-form --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout.  Each workload is one
process that repeats its own family of operations (see families.py) at full
size for ``--seconds`` seconds.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics of those repetitions.  With ``--trace 1`` it
carries the per-layer metrics: the workload's repetitions are timed half
untraced and half traced, then the other two families run five times each at
probe size, so that every per-layer metric is measured on every workload, and
an attribution pass times the public functions.  Every run settles the
correctness gate, and writes the machine record, the metrics, the gate's
findings and the confidence-interval checks (with spans, when traced) to
``.bench_out/``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports plus inputs

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("sweep-closed-form", "oracle-mc", "validation-heavy")
SETUP_SAMPLES = 3
PROBE_REPS = 5

PER_CALL = {  # attribution-pass span -> (metric, scale to the metric's unit)
    "channel.gamma_lower_regularized": ("channel.gamma_lower_regularized_us", 1e6),
    "capacity.regime_from_coherence": ("capacity.regime_from_coherence_us", 1e6),
    "capacity.coherent_expansion": ("capacity.coherent_expansion_us", 1e6),
    "capacity.sublinear_term": ("capacity.sublinear_term_us", 1e6),
    "reliability.error_exponent": ("reliability.error_exponent_us", 1e6),
    "reliability.rate_landmarks": ("reliability.rate_landmarks_us", 1e6),
    "reliability.training_f_star": ("reliability.training_f_star_us", 1e6),
    "reliability.outage_probability": ("reliability.outage_probability_us", 1e6),
    "iid.onoff_mi_quadrature": ("iid.onoff_mi_quadrature_ms", 1e3),
    "iid.m_star": ("iid.m_star_ms", 1e3),
}


def _unit(name):
    for suffix, unit in (("_per_s", "1/s"), ("_mib", "MiB"), ("_us", "us"), ("_ms", "ms"),
                         ("_s", "s"), ("_bytes", "bytes"), ("_margin", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every family at self-test sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; refuse any other widemimo."""
    if not os.path.isfile(os.path.join(SRC, "widemimo", "__init__.py")):
        raise ImportError(f"no widemimo package under {SRC}")
    sys.path.insert(0, SRC)
    import widemimo

    if os.path.dirname(os.path.dirname(os.path.abspath(widemimo.__file__))) != SRC:
        raise ImportError(f"imported widemimo from {widemimo.__file__}, not {SRC}")


def build(args, workdir):
    """The workload's own family at full size and, when traced, the other two
    as probes."""
    from families import FAMILIES

    families = []
    for name, cls in FAMILIES.items():
        if name != args.workload and not args.trace:
            continue
        size = args.size if name == args.workload else ("probe" if args.size == "full" else "tiny")
        path = os.path.join(workdir, name)
        os.makedirs(path)
        families.append(cls(args.seed, size, path))
    own = next(f for f in families if f.name == args.workload)
    return own, [f for f in families if f is not own]


def measure_setup(args):
    """Median over fresh processes of import plus input generation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "0", "--size", args.size, "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT,
                              check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def loop(family, tracer, seconds, min_reps):
    """Repeat the family until ``seconds`` have passed and ``min_reps`` ran."""
    reps, selfs = [], []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        mark = tracer.mark()
        with tracer.span(f"{family.name}.rep"):
            reps.append(family.rep(tracer))
        selfs.append(tracer.self_times(mark))
    return reps, selfs


def measure(args, own, others):
    """Metrics for one run, the tracer that recorded them (or None), and
    every repetition's wall time per family."""
    from tracing import NullTracer, Tracer

    med = statistics.median
    if not args.trace:
        reps, _ = loop(own, NullTracer(), args.seconds, 2)
        metrics = {
            "wall_s": med([r["wall"] for r in reps]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return metrics, None, {own.name: [r["wall"] for r in reps]}

    import layers
    from inputs import CLOSED_FORM

    untraced, _ = loop(own, NullTracer(), args.seconds / 2.0, 1)
    tracer = Tracer()
    traced, selfs = loop(own, tracer, args.seconds / 2.0, 1)
    metrics = {"trace_overhead_s": med([r["wall"] for r in traced]) - med([r["wall"] for r in untraced])}
    by_name = {own.name: (own, traced, selfs)}
    for family in others:
        by_name[family.name] = (family, *loop(family, tracer, 0.0, PROBE_REPS))
    walls = {"untraced": [r["wall"] for r in untraced]}
    for family, reps, family_selfs in by_name.values():
        metrics.update(family.layers(reps, family_selfs))
        walls[family.name] = [r["wall"] for r in reps]

    sweeps, _, sweep_selfs = by_name["sweep-closed-form"]
    oracles = by_name["oracle-mc"][0]
    validation = by_name["validation-heavy"][0]
    mark = tracer.mark()
    with tracer.span("attribution"):
        layers.closed_form_pass(tracer, sweeps.grids)
        layers.iid_pass(tracer, validation.inputs["grids"]["iid"])
        layers.channel_pass(tracer, oracles.seed, oracles.calls)
    attribution = tracer.self_times(mark)
    for span, (metric, scale) in PER_CALL.items():
        metrics[metric] = layers.per_call(attribution, span, scale)
    metrics["channel.sample_channel_matrix_s"] = attribution["channel.sample_channel_matrix"][0]
    run_sweep_s = med([sum(s[f"sweep.run_sweep.{q}"][0] for q in CLOSED_FORM) for s in sweep_selfs])
    metrics["sweep.overhead_s"] = layers.overhead(run_sweep_s, attribution)
    return metrics, tracer, walls


def run(args):
    import envinfo

    setup = [] if args.trace else measure_setup(args)
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    try:
        own, others = build(args, workdir)
        metrics, tracer, walls = measure(args, own, others)
        if not args.trace:
            metrics["setup_s"] = statistics.median(setup)
        families = [own, *others]
        for family in families:
            family.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(f.ledger.attempted for f in families)
    failed = sum(f.ledger.failed for f in families)
    problems = [p for f in families for p in f.ledger.problems]
    ci = next((f.ci for f in families if f.name == "oracle-mc"), [])
    env = envinfo.machine()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "env": env, "setup_samples_s": setup,
        "rep_walls_s": walls,
        "attempted": attempted, "failed": failed, "fail_rate": failed / attempted,
        "problems": problems, "metrics": metrics, "ci_checks": ci,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in problems[:50]:
        print(f"gate: {problem}", file=sys.stderr)
    print(f"fail_rate={failed}/{attempted} ci_misses={sum(c['margin'] < 0 for c in ci)}/{len(ci)}",
          file=sys.stderr)
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    os.makedirs(OUT, exist_ok=True)
    if args.setup_only:
        workdir = os.path.join(OUT, f"setup-{os.getpid()}")
        try:
            build(args, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
