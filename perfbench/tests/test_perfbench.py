"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Every workload runs at a tiny size through the reference check and the
traced run's self-check; the command line is run end to end in copies of
the checkout: with a perturbed reference record, with a program whose
sweep raises, and without the package source.
"""

import json
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from asyncrelay import harness  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def tiny_config(name, seed=3):
    """The workload's sweep shape at two units on each of its first two points."""
    cfg = workloads.WORKLOADS[name].sweep_config(seed)
    return replace(cfg, power_db=cfg.power_db[:2], frames=2, min_errors=0, max_frames=2)


def sweep_record(cfg, tmp_path):
    points = harness.run_sweep(cfg)
    return reference.record(points, reference.csv_text(points, tmp_path / "sweep.csv"))


@pytest.mark.parametrize("name", NAMES)
def test_tiny_sweep_matches_itself(name, tmp_path):
    cfg = tiny_config(name)
    expected = sweep_record(cfg, tmp_path)
    tally = reference.Tally()
    assert reference.check(expected, sweep_record(cfg, tmp_path), tally) == []
    assert (tally.attempted, tally.failed) == (len(cfg.power_db), 0)


@pytest.mark.parametrize("field", [1, 2, 3])
def test_perturbed_count_fails_its_point(field, tmp_path):
    cfg = tiny_config("coh-relay4-n64")
    expected = sweep_record(cfg, tmp_path)
    expected["points"][1][field] += 1
    tally = reference.Tally()
    problems = reference.check(expected, sweep_record(cfg, tmp_path), tally)
    assert len(problems) == 1 and problems[0].startswith("point 1:")
    assert tally.failed_frac == 0.5


def test_perturbed_csv_row_and_missing_point_fail(tmp_path):
    cfg = tiny_config("diff-relay4-n256-c8")
    expected = sweep_record(cfg, tmp_path)
    got = sweep_record(cfg, tmp_path)
    expected["csv"] = expected["csv"].replace(",2\n", ",3\n", 1)
    got["points"].pop()
    tally = reference.Tally()
    assert len(reference.check(expected, got, tally)) == 2
    assert tally.failed == 2


def test_sweep_that_raises_fails_all_its_points(monkeypatch, capsys):
    def broken(cfg):
        raise RuntimeError("simulated failure")

    monkeypatch.setattr(harness, "run_sweep", broken)
    run.OUT.mkdir(exist_ok=True)
    tally = reference.Tally()
    assert run.run_sweeps(tiny_config("coh-relay4-n64"), 0, {}, tally) == []
    assert (tally.attempted, tally.failed) == (2, 2)
    assert "simulated failure" in capsys.readouterr().err


def test_pool_workload_shares_the_single_process_reference(tmp_path):
    pool = workloads.WORKLOADS["coh-relay4-n64-w2"]
    assert pool.reference == "coh-relay4-n64"
    single = tiny_config("coh-relay4-n64")
    assert sweep_record(tiny_config("coh-relay4-n64-w2"), tmp_path) == sweep_record(single, tmp_path)


def traced_sweep(cfg):
    """One traced sweep after a warm one; returns (tracer, points, wall_ns)."""
    harness.run_sweep(cfg)
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(pool=cfg.workers > 1)
        t0 = time.perf_counter_ns()
        points = harness.run_sweep(cfg)
        wall_ns = time.perf_counter_ns() - t0
    return tracer, points, wall_ns


def check_trace(cfg, tracer, points, wall_ns):
    _, schedule = harness._validate(cfg)
    units = sum(p.frames for p in points)
    batches = workloads.expected_batches(cfg, [p.frames for p in points])
    return tracing.self_check(tracer, cfg, schedule, units, batches, wall_ns, cfg.workers > 1)


@pytest.mark.parametrize("name", NAMES)
def test_traced_tiny_sweep_passes_self_check(name):
    cfg = tiny_config(name)
    original = harness.run_sweep
    tracer, points, wall_ns = traced_sweep(cfg)
    assert harness.run_sweep is original
    assert check_trace(cfg, tracer, points, wall_ns) == []
    units = sum(p.frames for p in points)
    values = tracing.layer_metrics(tracer, cfg, units, 1, 1.0, 1.0)
    assert list(values) == list(tracing.LAYER_METRICS)
    assert values["harness.units"] == units
    if cfg.workers > 1:
        assert values["harness.pool_wait_s"] > 0
        assert values["relaysim.run_frame.calls_per_unit"] == 0
    elif cfg.mode == "differential":
        assert values["relaysim.run_frame.calls_per_unit"] == cfg.diff_chain
        assert values["differential.diff_decode_frame.us_per_unit"] > 0
        assert values["decoder.grouped_ratio"] == 0
    else:
        assert values["relaysim.run_frame.calls_per_unit"] == 1
        assert values["decoder.grouped_ratio"] == 1
        assert values["spectral.gflop_per_s"] > 0


def test_exhaustive_fallback_units_are_counted(monkeypatch):
    monkeypatch.setattr(harness._CoherentEngine, "_gap", lambda self, h_all, weights: 1.0)
    cfg = tiny_config("coh-relay4-n64")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tracer, points, wall_ns = traced_sweep(cfg)
    assert check_trace(cfg, tracer, points, wall_ns) == []
    units = sum(p.frames for p in points)
    values = tracing.layer_metrics(tracer, cfg, units, 1, 1.0, 1.0)
    assert values["decoder.exhaustive_fallback_units"] == units
    assert values["decoder.grouped_ratio"] == 0


def test_self_check_catches_a_missed_binding():
    cfg = tiny_config("coh-relay4-n64")
    harness.run_sweep(cfg)
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(pool=False)
        harness.run_frame = harness.run_frame.__wrapped__  # as if only relaysim.run_frame were patched
        t0 = time.perf_counter_ns()
        points = harness.run_sweep(cfg)
        wall_ns = time.perf_counter_ns() - t0
    problems = check_trace(cfg, tracer, points, wall_ns)
    assert any(p.startswith("relaysim.run_frame:") for p in problems)
    assert any("transforms per frame" in p for p in problems)


@pytest.mark.parametrize("name", sorted({w.reference for w in workloads.WORKLOADS.values()}))
def test_stored_reference_reproduces(name, tmp_path):
    seed = 5
    stored = reference.load()["workloads"][name][str(seed)]
    tally = reference.Tally()
    assert reference.check(stored, sweep_record(workloads.WORKLOADS[name].sweep_config(seed), tmp_path), tally) == []


def test_reference_covers_every_seed():
    data = reference.load()
    assert data["seeds"] == workloads.REFERENCE_SEEDS
    for wl in workloads.WORKLOADS.values():
        assert sorted(map(int, data["workloads"][wl.reference])) == list(range(workloads.REFERENCE_SEEDS))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def checkout(tmp_path, with_source=True):
    """A copy of the files the benchmark runs from; returns its root."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    if with_source:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def test_cli_exits_nonzero_on_perturbed_reference(tmp_path):
    root = checkout(tmp_path)
    data = reference.load()
    data["workloads"]["coh-relay5-n1024"]["0"]["points"][0][1] += 1
    (root / "perfbench" / "reference.json").write_text(json.dumps(data))
    done = bench("--workload", "coh-relay5-n1024", "--seed", "32", "--seconds", "0.1", "--trace", "0", cwd=root)
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    frac = next(ln for ln in done.stdout.splitlines() if ln.startswith("failed_frac"))
    assert float(frac.split()[1]) > 0
    assert "reference mismatch: point 0" in done.stderr


def test_cli_traced_run_reports_every_layer_metric():
    done = bench("--workload", "diff-relay4-n256-c8", "--seed", "7", "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 9
    assert list(result["metrics"]) == list(tracing.LAYER_METRICS)


def test_cli_exits_nonzero_when_the_sweep_raises(tmp_path):
    root = checkout(tmp_path)
    with open(root / "src" / "asyncrelay" / "harness.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef run_sweep(cfg):\n    raise RuntimeError('simulated failure')\n")
    done = bench("--workload", "coh-relay5-n1024", "--seed", "3", "--seconds", "5", "--trace", "0", cwd=root)
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    # set-up, the warm-up sweep and the first timed sweep each fail both points
    assert result["correct"] is False and result["attempted"] == result["failed"] == 6
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert "set-up start failed" in done.stderr and "simulated failure" in done.stderr


def test_cli_fails_without_the_package_source(tmp_path):
    root = checkout(tmp_path, with_source=False)
    done = bench("--workload", "coh-relay4-n64", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=root)
    assert done.returncode != 0
    assert done.stdout == ""
