"""OFDM amplify-and-forward relay network simulator.

The package models a two-hop wireless network in which a source broadcasts
OFDM symbols to half-duplex relays, each relay applies a per-slot
instruction (sign, conjugation, time reversal, or silence) drawn from a
conjugate-linear space-time code, and the destination observes the
superposition of relay transmissions arriving with integer sample delays.
Cyclic prefixes absorb the delays, so after the destination front-end each
subcarrier carries a flat space-time code word that can be decoded
coherently (whitened ML, group-wise) or differentially (no channel
knowledge anywhere).
"""

from .codebook import (
    CodeDefinition,
    FeasibilityReport,
    RelaySchedule,
    ScheduleError,
    builtin_codes,
    check_feasibility,
    codeword,
    derive_schedule,
    infeasible_example,
    named_code,
)
from .decoder import CoherentDecoder
from .differential import DifferentialCodebook, build_codebook_4relay, diff_encode, verify_commutation
from .harness import BerPoint, ConfigError, SimConfig, emit_csv, emit_plotscript, parse_csv, run_sweep
from .relaysim import ChannelRealization, LinkConfig, PowerConfig, draw_channel, frame_noise, run_frame
from .spectral import dft, idft

__version__ = "0.1.0"

__all__ = [
    "BerPoint",
    "ChannelRealization",
    "CodeDefinition",
    "CoherentDecoder",
    "ConfigError",
    "DifferentialCodebook",
    "FeasibilityReport",
    "LinkConfig",
    "PowerConfig",
    "RelaySchedule",
    "ScheduleError",
    "SimConfig",
    "build_codebook_4relay",
    "builtin_codes",
    "check_feasibility",
    "codeword",
    "derive_schedule",
    "dft",
    "diff_encode",
    "draw_channel",
    "emit_csv",
    "emit_plotscript",
    "frame_noise",
    "idft",
    "infeasible_example",
    "named_code",
    "parse_csv",
    "run_frame",
    "run_sweep",
    "verify_commutation",
]
