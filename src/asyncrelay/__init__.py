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
    RelayInstruction,
    RelaySchedule,
    ScheduleError,
    builtin_codes,
    check_feasibility,
    codeword,
    derive_schedule,
    infeasible_example,
    load_code,
    named_code,
    row_sets,
)
from .decoder import SubcarrierModel, build_model, ml_decode_exhaustive, ml_decode_grouped
from .differential import DifferentialCodebook, build_codebook_4relay, diff_decode, diff_encode, verify_commutation
from .harness import BerPoint, ConfigError, SimConfig, emit_csv, emit_plotscript, parse_csv, run_sweep
from .relaysim import ChannelRealization, LinkConfig, PowerConfig, draw_channel, frame_noise, run_frame
from .spectral import dft, idft

__version__ = "0.1.0"

__all__ = [
    "BerPoint",
    "ChannelRealization",
    "CodeDefinition",
    "ConfigError",
    "DifferentialCodebook",
    "FeasibilityReport",
    "LinkConfig",
    "PowerConfig",
    "RelayInstruction",
    "RelaySchedule",
    "ScheduleError",
    "SimConfig",
    "SubcarrierModel",
    "build_codebook_4relay",
    "build_model",
    "builtin_codes",
    "check_feasibility",
    "codeword",
    "derive_schedule",
    "dft",
    "diff_decode",
    "diff_encode",
    "draw_channel",
    "emit_csv",
    "emit_plotscript",
    "frame_noise",
    "idft",
    "infeasible_example",
    "load_code",
    "ml_decode_exhaustive",
    "ml_decode_grouped",
    "named_code",
    "parse_csv",
    "row_sets",
    "run_frame",
    "run_sweep",
    "verify_commutation",
]
