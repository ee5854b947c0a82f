"""Does the speed scaling of ``calibrate.py`` hold for other mixes of work?

    python3 perfbench/check_scaling.py

Run from the root of a source checkout; it takes eight minutes. It
interleaves, round after round, the calibration loop with four other
mixes: a pure-Python loop, a loop of large-array numpy work, and one sweep
each of ``coh-relay4-n64`` (many small calls) and ``coh-relay5-n1024``
(large arrays). Each mix's rate is
scaled, as the benchmark scales a sweep, by the mean calibration speed on
either side of it. The rounds are then split at the median calibration
speed into a slow and a fast half of the host's states.

For each mix the report gives the median of the slow half over that of the
fast half, minus 1, as measured and as scaled. A scaled figure near 0 means
the scaling removes the host's slowdown for that mix; its distance from 0
is the bias the scaling leaves between runs made in the slow and the fast
states, to be compared with the bounds in ``BENCHMARK.json``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
from asyncrelay.harness import run_sweep  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SECONDS = 480


def pure_python() -> float:
    acc, table = 0, {}
    for i in range(240_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc
        acc += len(str(acc))
    return 1.0


_RNG = np.random.default_rng(1)
_WIDE = _RNG.standard_normal((64, 4096)) + 1j * _RNG.standard_normal((64, 4096))
_SQUARE = _RNG.standard_normal((256, 256)) + 1j * _RNG.standard_normal((256, 256))


def large_array() -> float:
    for _ in range(10):
        spectrum = np.fft.fft(_WIDE, axis=1)
        np.abs(spectrum * spectrum.conj()).argmin(axis=0)
        _SQUARE @ _SQUARE
    return 1.0


def sweep(name):
    cfg = WORKLOADS[name].sweep_config(0)
    run_sweep(cfg)  # fills the engine cache
    return lambda: float(sum(p.frames for p in run_sweep(cfg)))


def main() -> int:
    mixes = {
        "pure-python": pure_python,
        "large-array": large_array,
        "coh-relay4-n64": sweep("coh-relay4-n64"),
        "coh-relay5-n1024": sweep("coh-relay5-n1024"),
    }
    rounds = []  # per round: (calibration speed, {mix: (rate, scaled rate)})
    end = time.perf_counter() + SECONDS
    before = calibrate.speed()
    while time.perf_counter() < end:
        speeds, rates = [before], {}
        for name, work in mixes.items():
            t0 = time.perf_counter()
            rate = work() / (time.perf_counter() - t0)
            speeds.append(calibrate.speed())
            rates[name] = (rate, rate / ((speeds[-2] + speeds[-1]) / 2))
        before = speeds[-1]
        rounds.append((statistics.median(speeds), rates))
    cut = statistics.median(speed for speed, _ in rounds)
    slow = [r for speed, r in rounds if speed < cut]
    fast = [r for speed, r in rounds if speed >= cut]
    speed_of = [speed for speed, _ in rounds]
    print(f"{len(rounds)} rounds; calibration speed: slow half {statistics.median(s for s in speed_of if s < cut):.3f},"
          f" fast half {statistics.median(s for s in speed_of if s >= cut):.3f} of the reference rate")
    print(f"{'mix':18s} {'slow/fast-1 measured':>22s} {'slow/fast-1 scaled':>20s}")
    for name in mixes:
        shift = [statistics.median(r[name][k] for r in slow) / statistics.median(r[name][k] for r in fast) - 1 for k in (0, 1)]
        print(f"{name:18s} {shift[0]:+22.3f} {shift[1]:+20.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
