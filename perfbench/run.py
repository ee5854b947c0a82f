"""Benchmark of asyncrelay's Monte Carlo BER sweeps.

    python3 perfbench/run.py --workload coh-relay4-n64 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. Each workload is a fixed ``SimConfig`` (see
``workloads.py``) driven through ``asyncrelay.harness.run_sweep``, and every
sweep is checked against the stored reference record of its seed.

``--trace 0`` times whole sweeps in a warm process and measures set-up in
fresh interpreters. ``--trace 1`` runs untraced sweeps for half the time and
traced sweeps for the other half, and reports per-layer metrics from the
spans (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (sweep points checked and points that
failed their check) and ``metrics``. Exit status: 0 when every point
matched, 1 when a point failed its check, 2 when the benchmark cannot run.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported, here and in every child

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 7

# Timed from before the package import to the end of a one-unit-per-point
# sweep: import, config validation and every point's engine build.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from asyncrelay.harness import run_sweep
from workloads import WORKLOADS
run_sweep(WORKLOADS[sys.argv[3]].setup_config(int(sys.argv[4])))
print(repr(time.perf_counter() - t0))
"""

END_TO_END_UNITS = {
    "units_per_s": "1/s",
    "mbit_per_s": "Mbit/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(workload, seed: int, tally) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, after one untimed start.

    Returns (as measured, at reference speed); each start is scaled by the
    mean speed of the calibration passes just before and after it. A start
    that fails counts every point of the workload as failed and ends the
    set-up timing, which then reads the starts before it (0 if none).
    """
    from reference import fail_all

    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), workload.name, str(seed)]
    raw, scaled = [], []
    before = calibrate.speed()
    for i in range(SETUP_RUNS + 1):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        except subprocess.SubprocessError as exc:
            print(f"set-up start failed: {type(exc).__name__}", getattr(exc, "stderr", None) or "", sep="\n", file=sys.stderr)
            fail_all(len(workload.config.power_db), tally)
            break
        after = calibrate.speed()
        if i:
            seconds = float(done.stdout.split()[-1])
            raw.append(seconds)
            scaled.append(seconds * (before + after) / 2)
        before = after
    if not raw:
        return 0.0, 0.0
    return statistics.median(raw), statistics.median(scaled)


def run_sweeps(cfg, seconds: float, expected: dict, tally) -> list:
    """Repeat the sweep until ``seconds`` of sweep time have passed.

    Only ``run_sweep`` is inside the timed region; the reference check and a
    calibration pass follow each sweep. A sweep that raises counts all its
    points as failed and ends the loop. Returns, per completed sweep,
    ``(units per point, bits, ns, speed)`` where ``speed`` is the mean of the
    calibration passes on either side of it.
    """
    from asyncrelay import harness
    from reference import check, csv_text, fail_all, record

    csv_path = OUT / "sweep.csv"
    sweeps = []
    spent = 0
    before = calibrate.speed()
    while True:
        t0 = time.perf_counter_ns()
        try:
            points = harness.run_sweep(cfg)
        except Exception:
            traceback.print_exc()
            fail_all(len(cfg.power_db), tally)
            return sweeps
        ns = time.perf_counter_ns() - t0
        spent += ns
        for problem in check(expected, record(points, csv_text(points, csv_path)), tally)[:5]:
            print(f"reference mismatch: {problem}", file=sys.stderr)
        after = calibrate.speed()
        sweeps.append(([p.frames for p in points], sum(p.bits for p in points), ns, (before + after) / 2))
        before = after
        if spent >= seconds * 1e9:
            return sweeps


def median_rate(sweeps, per_sweep, scaled: bool = True) -> float:
    """Median over sweeps of ``per_sweep`` per second, at reference speed if ``scaled``."""
    if not sweeps:
        return 0.0
    return statistics.median(per_sweep(s) / (s[2] / 1e9) / (s[3] if scaled else 1.0) for s in sweeps)


def units_rate(sweeps, scaled: bool = True) -> float:
    return median_rate(sweeps, lambda s: sum(s[0]), scaled)


def timed(workload, seed: int, seconds: float, expected: dict, tally) -> tuple[dict, dict]:
    """End-to-end metrics, and the same rates and times as measured."""
    setup_raw, setup_s = measure_setup(workload, seed, tally)
    cfg = workload.sweep_config(seed)
    run_sweeps(cfg, 0, expected, tally)  # fills the engine cache for this exact config
    sweeps = run_sweeps(cfg, seconds, expected, tally)
    metrics = {
        "units_per_s": units_rate(sweeps),
        "mbit_per_s": median_rate(sweeps, lambda s: s[1] / 1e6),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    measured = {
        "units_per_s": units_rate(sweeps, scaled=False),
        "mbit_per_s": median_rate(sweeps, lambda s: s[1] / 1e6, scaled=False),
        "setup_s": setup_raw,
        "speed": statistics.median(s[3] for s in sweeps) if sweeps else 0.0,
        "sweeps": len(sweeps),
    }
    return metrics, measured


class SelfCheckError(RuntimeError):
    """The traced run's spans do not account for the work the harness did."""


def traced(workload, seed: int, seconds: float, expected: dict, tally) -> tuple[dict, dict]:
    """Per-layer metrics, and the untraced and traced rates as measured."""
    import tracing
    from asyncrelay.harness import _validate
    from workloads import expected_batches

    cfg = workload.sweep_config(seed)
    _, schedule = _validate(cfg)
    pool = cfg.workers > 1
    run_sweeps(cfg, 0, expected, tally)
    untraced = run_sweeps(cfg, seconds / 2, expected, tally)
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(pool)
        sweeps = run_sweeps(cfg, seconds / 2, expected, tally)
    if not sweeps or not untraced:
        raise SelfCheckError("no sweep completed")
    units = sum(sum(s[0]) for s in sweeps)
    batches = sum(expected_batches(cfg, s[0]) for s in sweeps)
    wall_ns = sum(s[2] for s in sweeps)
    problems = tracing.self_check(tracer, cfg, schedule, units, batches, wall_ns, pool)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.tsv")
    if problems:
        raise SelfCheckError("; ".join(problems))
    values = tracing.layer_metrics(tracer, cfg, units, len(sweeps), units_rate(untraced), units_rate(sweeps))
    measured = {"units_per_s.untraced": units_rate(untraced, scaled=False), "units_per_s.traced": units_rate(sweeps, scaled=False)}
    return values, measured


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "asyncrelay" / "__init__.py").is_file():
        print(f"no asyncrelay source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import asyncrelay

    if not Path(asyncrelay.__file__).resolve().is_relative_to(SRC):
        print(f"asyncrelay was imported from {asyncrelay.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import reference
    import tracing
    from workloads import WORKLOADS, sweep_seed

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    records = reference.load()["workloads"]
    expected = records.get(workload.reference, {}).get(str(sweep_seed(args.seed)))
    if expected is None:
        print(f"no reference record for {workload.reference} seed {sweep_seed(args.seed)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    tally = reference.Tally()
    try:
        if args.trace:
            values, measured = traced(workload, args.seed, args.seconds, expected, tally)
            units = tracing.LAYER_METRICS
        else:
            values, measured = timed(workload, args.seed, args.seconds, expected, tally)
            units = END_TO_END_UNITS
    except SelfCheckError as exc:
        print(f"trace self-check failed: {exc}", file=sys.stderr)
        return 2

    env = environment()
    for name, value in values.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':48s} {tally.failed_frac:14.6g} frac  ({tally.failed} of {tally.attempted} sweep points)")
    print("as measured, before scaling to reference speed: " + json.dumps(measured))
    print("environment: " + json.dumps(env))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    with open(OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "environment": env, "failed_frac": tally.failed_frac,
                   "measured": measured, "metrics": metrics}, fh, indent=1)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
