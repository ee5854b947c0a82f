"""Reference records of the workloads, and the check of a sweep against them.

A record holds, per sweep point, ``(P_dB, bit_errors, bits, frames)`` and
the exact ``emit_csv`` output of the sweep. The stored records were made
from the program as it was when the benchmark was defined. They are the
correctness gate of every benchmark run, so they are only ever added to:
running this file as a script fills in missing (workload, seed) records
and never rewrites one that exists. A program change that alters them is a
change in results, to be found and explained, not regenerated away.

    python3 perfbench/reference.py            # add missing records
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
PATH = HERE / "reference.json"


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def csv_text(points, path) -> str:
    """The sweep's CSV exactly as ``harness.emit_csv`` writes it.

    ``emit_csv`` is looked up on the module at call time so that a traced
    run times the wrapped function.
    """
    from asyncrelay import harness

    harness.emit_csv(points, path)
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def record(points, csv: str) -> dict:
    return {
        "points": [[p.power_db, p.bit_errors, p.bits, p.frames] for p in points],
        "csv": csv,
    }


@dataclass
class Tally:
    """Sweep points checked against the reference, and how many failed."""

    attempted: int = 0
    failed: int = 0

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check(expected: dict, got: dict, tally: Tally) -> list[str]:
    """Compare one sweep's record with the reference, point by point.

    A point fails when its counts or its CSV row differ, or when it is
    missing from either side. Returns one message per failed point.
    """
    exp_rows = expected["csv"].split("\n")[1:]
    got_rows = got["csv"].split("\n")[1:]
    n = max(len(expected["points"]), len(got["points"]))
    problems = []
    for i in range(n):
        exp_p = expected["points"][i] if i < len(expected["points"]) else None
        got_p = got["points"][i] if i < len(got["points"]) else None
        exp_row = exp_rows[i] if i < len(exp_rows) else None
        got_row = got_rows[i] if i < len(got_rows) else None
        if exp_p != got_p or exp_row != got_row:
            problems.append(f"point {i}: expected {exp_p} / {exp_row!r}, got {got_p} / {got_row!r}")
    if expected["csv"] != got["csv"] and not problems:
        problems.append("CSV differs outside the point rows")
    tally.attempted += n
    tally.failed += len(problems)
    return problems


def fail_all(n_points: int, tally: Tally) -> None:
    """Count a sweep that raised: every one of its points failed."""
    tally.attempted += n_points
    tally.failed += n_points


def _add_missing() -> int:
    from asyncrelay.harness import run_sweep
    from workloads import REFERENCE_SEEDS, WORKLOADS

    data = load() if PATH.exists() else {"seeds": REFERENCE_SEEDS, "workloads": {}}
    if data["seeds"] != REFERENCE_SEEDS:
        print(f"{PATH} holds {data['seeds']} seeds per workload, workloads.py wants {REFERENCE_SEEDS}", file=sys.stderr)
        return 1
    out_dir = HERE.parent / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    added = 0
    for wl in WORKLOADS.values():
        if wl.reference != wl.name:
            continue
        records = data["workloads"].setdefault(wl.name, {})
        for seed in range(REFERENCE_SEEDS):
            if str(seed) in records:
                continue
            points = run_sweep(wl.sweep_config(seed))
            records[str(seed)] = record(points, csv_text(points, out_dir / "reference.csv"))
            added += 1
            print(f"{wl.name} seed {seed}: {records[str(seed)]['points']}", file=sys.stderr)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"added {added} records to {PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(_add_missing())
