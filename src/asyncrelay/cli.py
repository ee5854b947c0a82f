"""Command line front end for the BER sweep harness.

Options may come from a key=value config file (--config), with command line
flags taking precedence. Exit codes: 0 success, 2 invalid configuration,
3 structurally unusable code.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import get_args, get_type_hints

from .codebook import ScheduleError
from .harness import (
    ConfigError,
    SimConfig,
    emit_csv,
    emit_plotscript,
    parse_delay_spec,
    parse_power_spec,
    plot_script_path,
    run_sweep,
)

__all__ = ["build_parser", "config_from_args", "main"]

_EXIT_OK = 0
_EXIT_BAD_CONFIG = 2
_EXIT_BAD_CODE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Simulate bit error rates of a two-hop amplify-and-forward "
        "relay network with OFDM and distributed space-time coding.",
    )
    parser.add_argument("--config", metavar="FILE", help="key=value file supplying defaults")
    parser.add_argument("--mode", choices=["coherent", "differential"], help="receiver type")
    parser.add_argument("--code", help="built-in code name or path to a code description file")
    parser.add_argument("--n", dest="n_fft", help="subcarrier count (power of two)")
    parser.add_argument("--cp", dest="cp_len", help="cyclic prefix length in samples")
    parser.add_argument(
        "--power",
        dest="power_db",
        help="total power sweep in dB: start:step:stop, comma list, or a single value",
    )
    parser.add_argument("--frames", help="minimum Monte Carlo units per point")
    parser.add_argument("--min-errors", help="keep simulating until this many bit errors")
    parser.add_argument("--max-frames", help="hard cap on units per point")
    parser.add_argument("--seed", help="master seed for all random streams")
    parser.add_argument("--out", help="output CSV path (a .gp plot script is written alongside)")
    parser.add_argument(
        "--fixed-delays",
        dest="delays",
        help="comma list of per-relay arrival offsets; omit to draw them randomly",
    )
    parser.add_argument(
        "--no-noise",
        dest="noise",
        action="store_const",
        const="off",
        help="disable relay and destination noise (pipeline checks)",
    )
    parser.add_argument("--workers", help="worker processes for the simulation")
    parser.add_argument("--source-fraction", help="share of total power spent at the source")
    parser.add_argument(
        "--relay-fraction",
        help="share of total power spent per relay (default: evenly split)",
    )
    parser.add_argument(
        "--rotation-deg",
        help="constellation rotation in degrees (default: spreads coordinates across pairs)",
    )
    parser.add_argument("--diff-chain", help="frames per channel draw in differential mode")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        values[key.strip().lower().replace("-", "_")] = value.strip()
    return values


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(value)


def _field_type(hint):
    """The value type of a SimConfig field: ``X | None`` gives X."""
    args = [a for a in get_args(hint) if a is not type(None)]
    return args[0] if len(args) < len(get_args(hint)) else hint


_FIELD_TYPES = {name: _field_type(hint) for name, hint in get_type_hints(SimConfig).items()}
_PARSERS = {
    int: int,
    float: float,
    bool: _parse_bool,
    str: str,
    tuple[float, ...]: parse_power_spec,
    tuple[int, ...]: parse_delay_spec,
}
_EXPECTED = {int: "an integer", float: "a number", bool: "a boolean"}
_ALIASES = {"n": "n_fft", "cp": "cp_len", "power": "power_db", "fixed_delays": "delays"}


def _coerce(key: str, value: str):
    """Parse a config file value or a flag's text into the type of SimConfig field ``key``."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    try:
        return _PARSERS[kind](value)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key} needs {_EXPECTED[kind]}, got {value!r}") from exc


def config_from_args(args: argparse.Namespace) -> SimConfig:
    """Merge config file values and command line flags into a SimConfig."""
    cfg = SimConfig()
    if args.config:
        updates = {}
        for key, value in _read_config_file(args.config).items():
            key = _ALIASES.get(key, key)
            updates[key] = _coerce(key, value)
        cfg = replace(cfg, **updates)
    flags = {name: getattr(args, name) for name in _FIELD_TYPES}
    return replace(cfg, **{name: _coerce(name, value) for name, value in flags.items() if value is not None})


def _print_table(points) -> None:
    print(f"{'P_dB':>8}  {'BER':>12}  {'95% interval':>28}  {'bits':>12}  {'frames':>8}")
    for p in points:
        interval = f"[{p.ci_lo:.3e}, {p.ci_hi:.3e}]"
        print(f"{p.power_db:>8.2f}  {p.ber:>12.4e}  {interval:>28}  {p.bits:>12}  {p.frames:>8}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        points = run_sweep(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_CONFIG
    except ScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_CODE

    _print_table(points)
    if cfg.out:
        out = Path(cfg.out)
        emit_csv(points, out)
        script = plot_script_path(out)
        emit_plotscript(points, script, csv_name=out.name)
        print(f"wrote {out} and {script}")
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
