"""Command line front end for the BER sweep harness.

Options may come from a key=value config file (--config), with command line
flags taking precedence. Exit codes: 0 success, 2 invalid configuration,
3 structurally unusable code.
"""

from __future__ import annotations

import argparse
import sys
from configparser import ConfigParser
from pathlib import Path

from . import harness
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

_ALIASES = {"n": "n_fft", "cp": "cp_len", "power": "power_db", "fixed_delays": "delays"}
_HELP = {
    "mode": "receiver type",
    "code": "built-in code name or path to a code description file",
    "n_fft": "subcarrier count (power of two)",
    "cp_len": "cyclic prefix length in samples",
    "power_db": "total power sweep in dB: start:step:stop, comma list, or a single value",
    "frames": "minimum Monte Carlo units per point",
    "min_errors": "keep simulating until this many bit errors",
    "max_frames": "hard cap on units per point",
    "seed": "master seed for all random streams",
    "delays": "comma list of per-relay arrival offsets; omit to draw them randomly",
    "noise": "disable relay and destination noise (pipeline checks)",
    "workers": "worker processes for the simulation",
    "source_fraction": "share of total power spent at the source",
    "relay_fraction": "share of total power spent per relay (default: evenly split)",
    "rotation_deg": "constellation rotation in degrees, for codes whose alphabets it changes",
    "diff_chain": "frames per channel draw in differential mode",
    "out": "output CSV path (a .gp plot script is written alongside)",
}


def build_parser() -> argparse.ArgumentParser:
    """One flag per SimConfig field, ``--`` and its alias or name with ``-`` for
    ``_`` (``--no-noise`` for the bool field); ``config_from_args`` parses the text."""
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Simulate bit error rates of a two-hop amplify-and-forward "
        "relay network with OFDM and distributed space-time coding.",
    )
    parser.add_argument("--config", metavar="FILE", help="key=value file supplying defaults")
    spellings = {name: alias for alias, name in _ALIASES.items()}
    for name, kind in harness._FIELD_TYPES.items():
        flag, options = spellings.get(name, name).replace("_", "-"), {}
        if kind is bool:
            flag, options = f"no-{flag}", dict(action="store_const", const="off")
        elif name == "mode":
            options = dict(choices=harness._MODES)
        parser.add_argument(f"--{flag}", dest=name, help=_HELP[name], **options)
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
        key = key.strip().lower().replace("-", "_")
        values[_ALIASES.get(key, key)] = value.strip()
    return values


_PARSERS = {
    int: int,
    float: float,
    bool: lambda text: ConfigParser.BOOLEAN_STATES[text.lower()],  # 1/0, true/false, yes/no, on/off
    str: str,
    tuple[float, ...]: parse_power_spec,
    tuple[int, ...]: parse_delay_spec,
}


def _coerce(key: str, value: str):
    """Parse a config file value or a flag's text into the type of SimConfig field ``key``."""
    if key not in harness._FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = harness._FIELD_TYPES[key]
    try:
        return _PARSERS[kind](value)
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{key} needs {harness._KINDS[kind][2]}, got {value!r}") from exc


def config_from_args(args: argparse.Namespace) -> SimConfig:
    """Merge config file values and command line flags into a SimConfig."""
    values = {key: _coerce(key, text) for key, text in (_read_config_file(args.config) if args.config else {}).items()}
    flags = {name: getattr(args, name) for name in harness._FIELD_TYPES}
    values.update({name: _coerce(name, text) for name, text in flags.items() if text is not None})
    return SimConfig(**values)


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
