"""Traced run: wrap the package's public functions from outside, record spans.

Every wrapped function is replaced under each name that binds it in any
``asyncrelay`` module, because modules bind some functions by name
(``harness`` imports ``run_frame``, ``draw_channel``, ``derive_schedule``,
``diff_encode`` and ``diff_decode_frame`` directly); patching only the
defining module would leave those calls untimed. ``self_check`` fails a
trace in which a binding was missed, by counting calls.

A span is ``(name, start_ns, end_ns, parent, unit_seq, point, unit, size)``:
``parent`` is the index of the enclosing span or -1, ``unit_seq`` numbers the
Monte Carlo units of the whole trace (-1 outside a unit), ``point``/``unit``
are the harness's own indices, and ``size`` is the element count of the
transformed array for spectral spans (0 elsewhere). Spans are kept in memory
and written out when the run ends.

With a process pool the per-unit work runs in the workers, which are not
traced: only the parent-side functions are wrapped, plus the pool's ``map``
(the parent's wait for a batch). Per-unit metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

WRAPPED = {
    "spectral": ("dft", "idft"),
    "codebook": ("check_feasibility", "derive_schedule"),
    "relaysim": (
        "draw_channel",
        "run_frame",
        "source_transmit",
        "relay_receive",
        "relay_process",
        "destination_receive",
        "destination_frontend",
    ),
    "decoder": ("equivalent_channel_matrix", "noise_covariance", "ml_decode_exhaustive"),
    "differential": ("build_codebook_4relay", "diff_encode", "diff_decode_frame"),
    "harness": ("run_sweep", "frame_rng", "emit_csv", "_chunk_task"),
}

# Functions that run in the parent process when the sweep uses a pool.
PARENT_SIDE = {
    "codebook.check_feasibility",
    "codebook.derive_schedule",
    "differential.build_codebook_4relay",
    "harness.run_sweep",
    "harness.emit_csv",
}

STAGES = (
    "relaysim.source_transmit",
    "relaysim.relay_receive",
    "relaysim.relay_process",
    "relaysim.destination_receive",
    "relaysim.destination_frontend",
)

# name -> unit; the order is the report's order.
LAYER_METRICS = {
    "spectral.dft.calls_per_unit": "calls/unit",
    "spectral.idft.calls_per_unit": "calls/unit",
    "spectral.dft.us_per_unit": "us/unit",
    "spectral.idft.us_per_unit": "us/unit",
    "spectral.gflop_per_s": "GFLOP/s",
    "codebook.check_feasibility.ms": "ms",
    "codebook.derive_schedule.ms": "ms",
    "relaysim.draw_channel.us_per_unit": "us/unit",
    "relaysim.run_frame.calls_per_unit": "calls/unit",
    "relaysim.run_frame.self_us_per_unit": "us/unit",
    **{f"{stage}.us_per_unit": "us/unit" for stage in STAGES},
    "decoder.equivalent_channel_matrix.us_per_unit": "us/unit",
    "decoder.noise_covariance.us_per_unit": "us/unit",
    "decoder.exhaustive_fallback_units": "count",
    "decoder.grouped_ratio": "frac",
    "differential.build_codebook_4relay.ms": "ms",
    "differential.diff_encode.us_per_unit": "us/unit",
    "differential.diff_decode_frame.us_per_unit": "us/unit",
    "harness.frame_rng.us_per_unit": "us/unit",
    "harness.self_us_per_unit": "us/unit",
    "harness.units": "count",
    "harness.batches": "count",
    "harness.emit_csv.ms": "ms",
    "harness.pool_wait_s": "s",
    "trace.overhead_frac": "frac",
}

NAME, START, END, PARENT, SEQ, POINT, UNIT, SIZE = range(8)


class Tracer:
    """Records spans of wrapped functions while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._unit = (-1, -1, -1)
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        starts_unit = name == "harness.frame_rng"
        ends_unit = name == "harness._chunk_task"
        sized = name.startswith("spectral.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_unit:
                self._unit = (len(spans), int(args[1]), int(args[2]))
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, *self._unit, int(np.size(args[0])) if sized else 0)
                if ends_unit:
                    self._unit = (-1, -1, -1)

        return traced

    def install(self, pool: bool) -> None:
        namespaces = [m for k, m in sorted(sys.modules.items()) if k == "asyncrelay" or k.startswith("asyncrelay.")]
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module(f"asyncrelay.{module_name}")
            for attr in attrs:
                name = f"{module_name}.{attr}"
                if pool and name not in PARENT_SIDE:
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, key, original))
                            setattr(ns, key, wrapper)
        if pool:
            harness = importlib.import_module("asyncrelay.harness")
            waited = self._wrap("harness.pool_map", lambda pool, fn, *it, **kw: list(ProcessPoolExecutor.map(pool, fn, *it, **kw)))
            self._patches.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
            harness.ProcessPoolExecutor = type("TracedPool", (ProcessPoolExecutor,), {"map": waited})

    def remove(self) -> None:
        while self._patches:
            ns, key, original = self._patches.pop()
            setattr(ns, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tpoint\tunit\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[START]}\t{s[END]}\t{s[PARENT]}\t{s[POINT]}\t{s[UNIT]}\n")


class Summary:
    """Per-name call counts and self times of a list of finished spans."""

    def __init__(self, spans):
        child_ns = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        for i, s in enumerate(spans):
            self.calls[s[NAME]] += 1
            self.self_ns[s[NAME]] += s[END] - s[START] - child_ns[i]


def self_check(tracer: Tracer, cfg, schedule, units: int, batches: int, wall_ns: int, pool: bool) -> list[str]:
    """Problems that show a missed binding or an inconsistent span tree.

    ``units`` and ``batches`` are what the traced sweeps ran by the harness's
    own account, ``wall_ns`` the benchmark's clock around them. A missed
    binding shows as a call count that differs from the schedule's; the
    spans must also nest, and the ``run_sweep`` spans must cover the wall
    time (so the sweep itself was wrapped).
    """
    from asyncrelay.codebook import DFT

    spans = tracer.spans
    if any(s is None for s in spans):
        return ["unfinished spans"]
    problems = []
    for s in spans:
        p = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if p is not None and not (p[START] <= s[START] and s[END] <= p[END]):
            problems.append(f"{s[NAME]} span lies outside its parent {p[NAME]}")
            break
    sweep_ns = sum(s[END] - s[START] for s in spans if s[PARENT] < 0 and s[NAME] == "harness.run_sweep")
    if not 0.98 * wall_ns <= sweep_ns <= wall_ns:
        problems.append(f"run_sweep spans cover {sweep_ns} ns of {wall_ns} ns traced wall time")

    calls = Counter(s[NAME] for s in spans)
    dispatch = "harness.pool_map" if pool else "harness._chunk_task"
    if calls[dispatch] != batches:
        problems.append(f"{dispatch}: {calls[dispatch]} calls for {batches} batches")
    if pool:
        return problems

    frames = cfg.diff_chain if cfg.mode == "differential" else 1
    expected = {
        "harness.frame_rng": units,
        "relaysim.draw_channel": units,
        "relaysim.run_frame": units * frames,
        **{stage: units * frames for stage in STAGES},
    }
    if cfg.mode == "differential":
        expected["differential.diff_encode"] = units * (frames - 1)
        expected["differential.diff_decode_frame"] = units * (frames - 1)
    else:
        # the exhaustive fallback rebuilds the equivalent channel once more
        fallback = len({s[SEQ] for s in spans if s[NAME] == "decoder.ml_decode_exhaustive"})
        expected["decoder.equivalent_channel_matrix"] = units + fallback
        expected["decoder.noise_covariance"] = units
    for name, count in expected.items():
        if calls[name] != count:
            problems.append(f"{name}: {calls[name]} calls, expected {count}")

    per_unit = Counter(s[SEQ] for s in spans if s[NAME] == "relaysim.run_frame")
    if set(per_unit.values()) - {frames} or -1 in per_unit:
        problems.append(f"run_frame calls per unit {sorted(set(per_unit.values()))}, expected {frames}")

    want = {
        "spectral.dft": sum(m == DFT for m in schedule.source_modulation) + 1,
        "spectral.idft": sum(m != DFT for m in schedule.source_modulation),
    }
    per_frame = defaultdict(Counter)
    for s in spans:
        if s[NAME] in want:
            frame = spans[s[PARENT]][PARENT] if s[PARENT] >= 0 else -1
            per_frame[frame][s[NAME]] += 1
    frame_ids = [i for i, s in enumerate(spans) if s[NAME] == "relaysim.run_frame"]
    if set(per_frame) != set(frame_ids) or any(per_frame[i] != Counter(want) for i in frame_ids):
        problems.append(f"transforms per frame differ from the schedule's {want}")
    return problems


def layer_metrics(tracer: Tracer, cfg, units: int, sweeps: int, untraced_ups: float, traced_ups: float) -> dict:
    """Every per-layer metric of LAYER_METRICS from the traced sweeps.

    ``us_per_unit`` is self time per Monte Carlo unit; ``ms`` is time per
    call. A layer the workload does not run reads 0.
    """
    summary = Summary(tracer.spans)
    calls, self_ns = summary.calls, summary.self_ns

    def us_per_unit(name):
        return self_ns[name] / units / 1e3

    def ms_per_call(name):
        return self_ns[name] / calls[name] / 1e6 if calls[name] else 0.0

    flop = sum(5 * s[SIZE] * math.log2(cfg.n_fft) for s in tracer.spans if s[NAME].startswith("spectral."))
    fft_ns = self_ns["spectral.dft"] + self_ns["spectral.idft"]
    def units_calling(name):
        return len({s[SEQ] for s in tracer.spans if s[NAME] == name})

    fallback = units_calling("decoder.ml_decode_exhaustive")
    grouped_units = units_calling("decoder.equivalent_channel_matrix") - fallback
    values = {
        "spectral.dft.calls_per_unit": calls["spectral.dft"] / units,
        "spectral.idft.calls_per_unit": calls["spectral.idft"] / units,
        "spectral.dft.us_per_unit": us_per_unit("spectral.dft"),
        "spectral.idft.us_per_unit": us_per_unit("spectral.idft"),
        "spectral.gflop_per_s": flop / fft_ns if fft_ns else 0.0,
        "codebook.check_feasibility.ms": ms_per_call("codebook.check_feasibility"),
        "codebook.derive_schedule.ms": ms_per_call("codebook.derive_schedule"),
        "relaysim.draw_channel.us_per_unit": us_per_unit("relaysim.draw_channel"),
        "relaysim.run_frame.calls_per_unit": calls["relaysim.run_frame"] / units,
        "relaysim.run_frame.self_us_per_unit": us_per_unit("relaysim.run_frame"),
        **{f"{stage}.us_per_unit": us_per_unit(stage) for stage in STAGES},
        "decoder.equivalent_channel_matrix.us_per_unit": us_per_unit("decoder.equivalent_channel_matrix"),
        "decoder.noise_covariance.us_per_unit": us_per_unit("decoder.noise_covariance"),
        "decoder.exhaustive_fallback_units": fallback,
        "decoder.grouped_ratio": grouped_units / units,
        "differential.build_codebook_4relay.ms": ms_per_call("differential.build_codebook_4relay"),
        "differential.diff_encode.us_per_unit": us_per_unit("differential.diff_encode"),
        "differential.diff_decode_frame.us_per_unit": us_per_unit("differential.diff_decode_frame"),
        "harness.frame_rng.us_per_unit": us_per_unit("harness.frame_rng"),
        "harness.self_us_per_unit": (self_ns["harness.run_sweep"] + self_ns["harness._chunk_task"]) / units / 1e3,
        "harness.units": units,
        "harness.batches": calls["harness._chunk_task"] + calls["harness.pool_map"],
        "harness.emit_csv.ms": ms_per_call("harness.emit_csv"),
        "harness.pool_wait_s": self_ns["harness.pool_map"] / sweeps / 1e9,
        "trace.overhead_frac": untraced_ups / traced_ups - 1.0,
    }
    return {name: values[name] for name in LAYER_METRICS}
