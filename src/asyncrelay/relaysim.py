"""Time-domain frame pipeline for the two-hop relay link.

One frame: the source modulates each frequency-domain block by IDFT or DFT
(as the schedule demands), prepends a cyclic prefix, and broadcasts. Each
relay receives every source symbol over its own flat fading coefficient,
then per slot either stays silent or retransmits one received symbol with a
sign, an optional conjugation, an optional time reversal, and a fixed
amplification factor. The destination sees the superposition of all relay
transmissions, each shifted by an integer sample delay, plus noise; its
front-end drops the cyclic prefix, undoes the index offset that reversal
introduces, and applies a DFT.

Time reversal acts on the cyclic-prefixed symbol as reversal of its
N-periodic extension: transmit sample p carries received sample
(cp_len - p) mod N. Only the first N received samples are used, each
exactly once per period, so forwarded noise stays white. With delays up to
cp_len (inclusive) the front-end output per subcarrier k reduces exactly to

    y_k = gain * X_k(s_k) @ h_k,    h_k[i] = f_i g_i exp(-2j pi k tau_i / N)

with f_i conjugated for conjugated columns; larger delays break the
equivalence, which is what the cyclic prefix contract is about.

The relay link carries one row per forwarding instruction, not a dense
array per relay: a relay that is silent in a slot forms, forwards and adds
nothing there. ``relay_receive`` returns the received block of each
forwarded (relay, block), ``relay_process`` the transmitted symbol of the
same row, and ``destination_receive`` adds each row into its slot at its
relay's delay. All three read one row order from the forwarding table that
every ``RelaySchedule`` builds with itself: relay-major, each relay's rows
in slot order, so a relay's rows are one slice. Forwarding and front-end
realignment are exact sample permutations, signs of +/-1 and conjugations,
so each runs as one gather through the index tables of ``LinkTables``
instead of a loop over slots and relays. A sweep builds its
``LinkTables`` once and hands them to every frame; called without them,
each stage builds its own gather with the same function. Noise is an
input: ``frame_noise`` draws a frame's relay and destination noise, and
``relay_receive``, ``destination_receive`` and ``run_frame`` add the
arrays they are given (``noise=None`` is the noiseless link), so every
stage is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .codebook import DFT, RelaySchedule

__all__ = [
    "ChannelRealization",
    "LinkConfig",
    "LinkTables",
    "PowerConfig",
    "complex_noise",
    "destination_frontend",
    "destination_receive",
    "draw_channel",
    "frame_noise",
    "link_tables",
    "relay_process",
    "relay_receive",
    "run_frame",
    "source_transmit",
]


@dataclass(frozen=True)
class PowerConfig:
    """Total average power and its split between the two hops.

    The source transmits with amplitude sqrt(source_fraction * total_power)
    on unit-power symbols; each relay scales its received samples by
    sqrt(relay_fraction * total_power / (source_fraction * total_power + 1))
    so its average transmit power is relay_fraction * total_power under
    unit-variance fading and noise.
    """

    total_power: float
    source_fraction: float = 1.0
    relay_fraction: float = 0.25

    def __post_init__(self):
        if not (math.isfinite(self.total_power) and self.total_power > 0):
            raise ValueError(f"total_power must be finite and positive, got {self.total_power!r}")
        for name in ("source_fraction", "relay_fraction"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    @property
    def source_scale(self) -> float:
        return math.sqrt(self.source_fraction * self.total_power)

    @property
    def relay_gain(self) -> float:
        return math.sqrt(
            self.relay_fraction * self.total_power / (self.source_fraction * self.total_power + 1.0)
        )

    @property
    def cascade_gain(self) -> float:
        """End-to-end coefficient of the signal path: source scale times relay gain."""
        return self.source_scale * self.relay_gain

    @property
    def relay_noise_power(self) -> float:
        """Per-slot destination noise contribution of one active relay with |g| = 1."""
        return self.relay_gain**2


@dataclass(frozen=True)
class LinkConfig:
    n_fft: int
    cp_len: int
    power: PowerConfig

    def __post_init__(self):
        n = self.n_fft
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"n_fft {n} must be a power of two")
        if not 0 <= self.cp_len < n:
            raise ValueError(f"cp_len {self.cp_len} must lie in [0, {n})")

    @property
    def symbol_len(self) -> int:
        return self.n_fft + self.cp_len


@dataclass(frozen=True)
class ChannelRealization:
    """Quasi-static two-hop fading plus integer arrival delays.

    ``delays`` are integers, normalised so the first relay defines the
    timing origin (delays[0] == 0) and entries never decrease. Delays at
    most cp_len keep the per-subcarrier model exact; larger values are
    representable so the out-of-contract behaviour can be exercised.
    """

    source_to_relay: np.ndarray
    relay_to_dest: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        # copies: freezing the fields must not freeze the caller's arrays
        f = np.array(self.source_to_relay, dtype=complex)
        g = np.array(self.relay_to_dest, dtype=complex)
        d = np.array(self.delays)
        if d.size and d.dtype.kind not in "iu":
            raise ValueError(f"delays must be integers, got {self.delays!r}")
        d = d.astype(int, copy=False)
        if f.shape != g.shape or f.shape != d.shape or f.ndim != 1:
            raise ValueError("channel vectors must be 1-D with one entry per relay")
        if d.size == 0:
            raise ValueError("need at least one relay")
        taus = d.tolist()  # R Python ints: cheaper to check than array reductions
        if taus[0] != 0:
            raise ValueError("delays[0] must be 0 (first relay sets the timing origin)")
        if any(b < a for a, b in zip(taus, taus[1:])):  # so, from 0, none is negative
            raise ValueError("delays must be non-decreasing")
        for field_name, value in (("source_to_relay", f), ("relay_to_dest", g), ("delays", d)):
            value.setflags(write=False)
            object.__setattr__(self, field_name, value)

    @property
    def num_relays(self) -> int:
        return self.source_to_relay.shape[0]


def complex_noise(rng: np.random.Generator, shape) -> np.ndarray:
    """Circular complex Gaussian samples with unit variance per sample.

    The real parts of all samples are drawn first, then the imaginary parts,
    in one ``standard_normal`` call (the stream of two calls of ``shape``).
    """
    shape = tuple(shape) if np.iterable(shape) else (shape,)
    parts = rng.standard_normal((2, *shape))
    return _unit_complex(parts[0], parts[1])


def _unit_complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """sqrt(1/2) * (real + i imag) of two standard normal draws: the parts
    are written into a new complex array, which is then scaled in place."""
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = imag
    out *= math.sqrt(0.5)
    return out


def frame_noise(rng: np.random.Generator, schedule: RelaySchedule, cfg: LinkConfig) -> tuple[np.ndarray, np.ndarray]:
    """One frame's noise: the relay noise of each forwarding instruction,
    (A, N + cp_len), then the destination noise, (T, N + cp_len).

    This is the one definition of a frame's stream. The relays' noise is
    drawn for every (relay, block) in one call over (R, nu, N + cp_len), so
    the stream does not depend on which rows are forwarded, and the rows of
    the schedule's forwarding table are kept; ``complex_noise`` over
    (T, N + cp_len) follows for the destination.
    """
    table = schedule.forwarding
    parts = rng.standard_normal((2, schedule.num_relays, schedule.num_blocks, cfg.symbol_len))[:, table.relays, table.blocks]
    return _unit_complex(parts[0], parts[1]), complex_noise(rng, (schedule.num_slots, cfg.symbol_len))


def draw_channel(
    rng: np.random.Generator,
    num_relays: int,
    cp_len: int = 0,
    delays=None,
) -> ChannelRealization:
    """Sample unit-variance fading on both hops and integer delays.

    Random delays are drawn uniformly on [0, cp_len - 1] per relay, then
    sorted and shifted so the earliest arrival is the timing origin. A fixed
    ``delays`` sequence bypasses the draw entirely (no generator samples are
    consumed for it, so runs with different fixed delays share fading).
    """
    # f's real and imaginary parts, then g's: the stream of two complex_noise calls
    parts = rng.standard_normal((2, 2, num_relays))
    f, g = _unit_complex(parts[:, 0], parts[:, 1])
    if delays is None:
        if cp_len > 0:
            delays = rng.integers(0, cp_len, size=num_relays)
            delays.sort()
            delays -= delays[0]
        else:
            delays = np.zeros(num_relays, dtype=int)
    return ChannelRealization(f, g, delays)


def source_transmit(frame: np.ndarray, schedule: RelaySchedule, cfg: LinkConfig) -> np.ndarray:
    """Modulate, cyclic-prefix and scale the (nu, N) frequency-domain frame."""
    frame = np.asarray(frame, dtype=complex)
    if frame.shape != (schedule.num_blocks, cfg.n_fft):
        raise ValueError(
            f"frame shape {frame.shape} does not match ({schedule.num_blocks}, {cfg.n_fft})"
        )
    # each block is transformed into the body of its symbol, and the prefix
    # copied from the body's tail
    n, cp = cfg.n_fft, cfg.cp_len
    symbols = np.empty((schedule.num_blocks, n + cp), dtype=complex)
    for j, modulation in enumerate(schedule.source_modulation):
        symbols[j, cp:] = spectral.dft(frame[j]) if modulation == DFT else spectral.idft(frame[j])
    symbols[:, :cp] = symbols[:, n:]
    symbols *= cfg.power.source_scale
    return symbols


@dataclass(frozen=True, eq=False)
class LinkTables:
    """The index tables of a schedule on an (n_fft, cp_len) link, which a
    sweep builds once (``link_tables``) and every frame reads."""

    relay_gather: np.ndarray  # see _relay_gather
    frontend_gather: np.ndarray  # see _frontend_gather


def link_tables(schedule: RelaySchedule, n_fft: int, cp_len: int) -> LinkTables:
    """The ``LinkTables`` of ``schedule``."""
    return LinkTables(_relay_gather(schedule, n_fft, cp_len), _frontend_gather(schedule, n_fft, cp_len))


def _relay_gather(schedule: RelaySchedule, n_fft: int, cp_len: int) -> np.ndarray:
    """Flat indices into the (A, N + cp_len) received rows: transmit sample
    p of a row carries received sample p, or (cp_len - p) mod N in a
    reversed slot."""
    symbol_len = n_fft + cp_len
    p = np.arange(symbol_len)
    columns = np.where(schedule.forwarding.reversed, (cp_len - p) % n_fft, p)
    return np.arange(schedule.forwarding.relays.size)[:, None] * symbol_len + columns


def _frontend_gather(schedule: RelaySchedule, n_fft: int, cp_len: int) -> np.ndarray:
    """Flat indices into a (T, N + cp_len) raw frame of the (T, N) symbol
    bodies, with reversed slots rotated right by cp_len to realign them."""
    p = np.arange(n_fft)
    reversed_slots = np.array(schedule.slot_reversed, dtype=bool)[:, None]
    columns = cp_len + np.where(reversed_slots, (p - cp_len) % n_fft, p)
    return np.arange(schedule.num_slots)[:, None] * (n_fft + cp_len) + columns


def _check_relays(schedule: RelaySchedule, channel: ChannelRealization) -> None:
    if channel.num_relays != schedule.num_relays:
        raise ValueError(
            f"the channel has {channel.num_relays} relays, the schedule {schedule.num_relays}"
        )


def _add_noise(signal: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
    """``signal`` with ``noise`` added in place; the noise must have exactly
    the signal's shape, as a broadcast row would be added to every row."""
    if noise is not None:
        if np.shape(noise) != signal.shape:
            raise ValueError(f"noise of shape {np.shape(noise)} does not match the {signal.shape} signal")
        signal += noise
    return signal


def relay_receive(
    symbols: np.ndarray,
    schedule: RelaySchedule,
    channel: ChannelRealization,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Received block of each forwarding instruction, shape (A, N + cp_len).

    Row a is the block that row a of the schedule's forwarding table
    forwards, as its relay received it: f_r times the source symbol, formed
    only for the forwarded rows, plus row a of ``noise`` (the relay noise
    of ``frame_noise``; None for a noiseless link).
    """
    symbols = np.asarray(symbols, dtype=complex)
    _check_relays(schedule, channel)
    table = schedule.forwarding
    num_blocks = symbols.shape[0]
    if table.last_block >= num_blocks:
        for slot, instructions in enumerate(schedule.instructions):
            for relay, instr in enumerate(instructions):
                if instr is not None and instr.block >= num_blocks:
                    raise ValueError(
                        f"slot {slot} tells relay {relay} to forward block {instr.block}, "
                        f"but only {num_blocks} blocks were received"
                    )
    # the fading coefficient is the first operand, as in destination_receive
    received = channel.source_to_relay.take(table.relays)[:, None] * symbols.take(table.blocks, axis=0)
    return _add_noise(received, noise)


def relay_process(
    received: np.ndarray,
    schedule: RelaySchedule,
    cfg: LinkConfig,
    *,
    tables: LinkTables | None = None,
) -> np.ndarray:
    """Transmitted symbol of each forwarding instruction, shape (A, N + cp_len).

    Each row forwards its received block with the instruction's sign,
    conjugated when the relay's column is conjugated, time reversed when
    the slot is reversed, and scaled by the fixed relay amplification. One
    gather through ``tables.relay_gather`` (or, without ``tables``, the
    same gather built here) reverses the rows of reversed slots; one product by sign times gain and
    one masked conjugate follow.
    """
    received = np.asarray(received, dtype=complex)
    table = schedule.forwarding
    if received.shape != (table.relays.size, cfg.symbol_len):
        raise ValueError(
            f"received array of shape {received.shape} does not match the schedule's "
            f"{table.relays.size} forwarding instructions of {cfg.symbol_len} samples"
        )
    gather = _relay_gather(schedule, cfg.n_fft, cfg.cp_len) if tables is None else tables.relay_gather
    symbols = received.take(gather)
    symbols *= table.signs * cfg.power.relay_gain  # signs are +/-1: exact
    np.conjugate(symbols, out=symbols, where=table.conjugate)
    return symbols


def destination_receive(
    transmitted: np.ndarray,
    schedule: RelaySchedule,
    channel: ChannelRealization,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Superpose delayed relay transmissions per slot, shape (T, N + cp_len).

    Each row of ``transmitted`` (one per forwarding instruction) is scaled
    by its relay's fading coefficient and added into its slot ``delays[i]``
    positions late within the slot window, relay after relay in ascending
    order; samples pushed past the window are dropped (the cyclic prefix of
    the following symbol would swallow them for in-contract delays). The
    destination ``noise`` of ``frame_noise`` (or None) is added last.
    """
    transmitted = np.asarray(transmitted, dtype=complex)
    _check_relays(schedule, channel)
    table = schedule.forwarding
    if transmitted.ndim != 2 or transmitted.shape[0] != table.relays.size:
        raise ValueError(
            f"transmitted array of shape {transmitted.shape} needs one row per forwarding "
            f"instruction of the schedule ({table.relays.size})"
        )
    symbol_len = transmitted.shape[1]
    # the fading coefficient is the first operand: numpy's complex product of
    # a broadcast first operand matches the per-relay scalar product bit for
    # bit, a broadcast second operand does not
    faded = channel.relay_to_dest.take(table.relays)[:, None] * transmitted
    out = np.zeros((schedule.num_slots, symbol_len), dtype=complex)
    delays = channel.delays.tolist()
    for relay, rows, slots in table.spans:
        tau = delays[relay]
        if tau < symbol_len:
            out[slots, tau:] += faded[rows, : symbol_len - tau]
    return _add_noise(out, noise)


def destination_frontend(
    raw: np.ndarray, schedule: RelaySchedule, cfg: LinkConfig, *, tables: LinkTables | None = None
) -> np.ndarray:
    """Strip prefixes, realign reversed slots, and transform to subcarriers.

    Returns the (T, N) frequency-domain receive blocks; column k is the
    receive vector of subcarrier k. The bodies are one gather through
    ``tables.frontend_gather`` (or, without ``tables``, the same gather
    built here).
    """
    raw = np.asarray(raw, dtype=complex)
    if raw.shape != (schedule.num_slots, cfg.symbol_len):
        raise ValueError(f"raw frame shape {raw.shape} does not match schedule/link dimensions")
    gather = _frontend_gather(schedule, cfg.n_fft, cfg.cp_len) if tables is None else tables.frontend_gather
    return spectral.dft(raw.take(gather))


def run_frame(
    frame: np.ndarray,
    schedule: RelaySchedule,
    channel: ChannelRealization,
    cfg: LinkConfig,
    noise: tuple[np.ndarray, np.ndarray] | None = None,
    *,
    tables: LinkTables | None = None,
) -> np.ndarray:
    """Full source -> relays -> destination pipeline for one frame, with the
    ``noise`` pair of ``frame_noise`` (or None); the stages read their
    gathers from ``tables`` when given."""
    relay_noise, destination_noise = (None, None) if noise is None else noise
    symbols = source_transmit(frame, schedule, cfg)
    received = relay_receive(symbols, schedule, channel, relay_noise)
    transmitted = relay_process(received, schedule, cfg, tables=tables)
    raw = destination_receive(transmitted, schedule, channel, destination_noise)
    return destination_frontend(raw, schedule, cfg, tables=tables)
