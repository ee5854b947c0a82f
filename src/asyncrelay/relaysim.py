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

Forwarding and front-end realignment are exact sample permutations, signs
of +/-1 and conjugations, so each runs as one gather through index tables
built once per (schedule, n_fft, cp_len) instead of a loop over slots and
relays. Schedules hash once (``RelaySchedule``), so finding those tables
costs one dictionary lookup per frame. Noise is drawn in one
``standard_normal`` call per array, the stream of separate real and
imaginary draws, and received signals are added to it in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .codebook import DFT, CodeDefinition, RelaySchedule

__all__ = [
    "ChannelRealization",
    "LinkConfig",
    "PowerConfig",
    "complex_noise",
    "destination_frontend",
    "destination_receive",
    "draw_channel",
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

    ``delays`` is normalised so the first relay defines the timing origin
    (delays[0] == 0) and entries never decrease. Delays at most cp_len keep
    the per-subcarrier model exact; larger values are representable so the
    out-of-contract behaviour can be exercised.
    """

    source_to_relay: np.ndarray
    relay_to_dest: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.source_to_relay, dtype=complex)
        g = np.asarray(self.relay_to_dest, dtype=complex)
        d = np.asarray(self.delays, dtype=int)
        if f.shape != g.shape or f.shape != d.shape or f.ndim != 1:
            raise ValueError("channel vectors must be 1-D with one entry per relay")
        if d.size == 0:
            raise ValueError("need at least one relay")
        taus = d.tolist()  # R Python ints: cheaper to check than array reductions
        if taus[0] != 0:
            raise ValueError("delays[0] must be 0 (first relay sets the timing origin)")
        if any(b < a for a, b in zip(taus, taus[1:])):
            raise ValueError("delays must be non-decreasing")
        if any(tau < 0 for tau in taus):
            raise ValueError("delays must be non-negative")
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
    out = np.empty(shape, dtype=complex)
    out.real = parts[0]
    out.imag = parts[1]
    out *= math.sqrt(0.5)
    return out


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
    fading = np.empty((2, num_relays), dtype=complex)
    fading.real = parts[:, 0]
    fading.imag = parts[:, 1]
    fading *= math.sqrt(0.5)
    f, g = fading
    if delays is None:
        if cp_len > 0:
            d = rng.integers(0, cp_len, size=num_relays)
            d.sort()
            d -= d[0]
        else:
            d = np.zeros(num_relays, dtype=int)
    else:
        d = np.asarray(delays, dtype=int)
    return ChannelRealization(f, g, d)


def source_transmit(frame: np.ndarray, schedule: RelaySchedule, cfg: LinkConfig) -> np.ndarray:
    """Modulate, cyclic-prefix and scale the (nu, N) frequency-domain frame."""
    frame = np.asarray(frame, dtype=complex)
    if frame.shape != (schedule.num_blocks, cfg.n_fft):
        raise ValueError(
            f"frame shape {frame.shape} does not match ({schedule.num_blocks}, {cfg.n_fft})"
        )
    # each block is transformed into the body of its symbol, and the prefix
    # copied from the body's tail: ``spectral.add_cp`` of the blocks
    n, cp = cfg.n_fft, cfg.cp_len
    symbols = np.empty((schedule.num_blocks, n + cp), dtype=complex)
    for j, modulation in enumerate(schedule.source_modulation):
        symbols[j, cp:] = spectral.dft(frame[j]) if modulation == DFT else spectral.idft(frame[j])
    symbols[:, :cp] = symbols[:, n:]
    symbols *= cfg.power.source_scale
    return symbols


def relay_receive(
    symbols: np.ndarray,
    channel: ChannelRealization,
    noise_on: bool = True,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-relay received symbols, shape (R, nu, N + cp_len)."""
    symbols = np.asarray(symbols, dtype=complex)
    if not noise_on:
        return channel.source_to_relay[:, None, None] * symbols[None, :, :]
    if rng is None:
        raise ValueError("noise_on requires a random generator")
    received = complex_noise(rng, (channel.num_relays, *symbols.shape))
    received += channel.source_to_relay[:, None, None] * symbols[None, :, :]
    return received


@dataclass(frozen=True)
class _ForwardingTable:
    """Index tables of one schedule for a (R, B, N + cp_len) received array.

    Row a describes the a-th active (slot, relay) instruction in slot-major
    order. ``sources[a, p]`` is the flat index of the received sample that
    transmit sample p carries: column p for plain slots and (cp_len - p)
    mod N for reversed ones, in the forwarded block of the relay.
    ``targets[a]`` is the row of the (R * T, N + cp_len) output it fills.
    """

    sources: np.ndarray  # (A, N + cp_len)
    signs: np.ndarray  # (A, 1)
    conjugate: np.ndarray  # (A, 1) bool
    targets: np.ndarray  # (A,)


@functools.lru_cache(maxsize=16)
def _forwarding_table(schedule: RelaySchedule, n_fft: int, cp_len: int, num_blocks: int) -> _ForwardingTable:
    rows = []
    for slot, instructions in enumerate(schedule.instructions):
        for relay, instr in enumerate(instructions):
            if instr is None:
                continue
            if not 0 <= instr.block < num_blocks:
                raise ValueError(
                    f"slot {slot} tells relay {relay} to forward block {instr.block}, "
                    f"but only {num_blocks} blocks were received"
                )
            rows.append((slot, relay, instr.block, instr.sign, instr.conjugate))
    slots, relays, blocks, signs, conjugate = (
        np.array([row[i] for row in rows], dtype=dtype).reshape(-1, 1)
        for i, dtype in enumerate((int, int, int, float, bool))
    )
    symbol_len = n_fft + cp_len
    p = np.arange(symbol_len)
    reversed_slots = np.array(schedule.slot_reversed, dtype=bool)
    columns = np.where(reversed_slots[slots], (cp_len - p) % n_fft, p)
    return _ForwardingTable(
        sources=(relays * num_blocks + blocks) * symbol_len + columns,
        signs=signs,
        conjugate=conjugate,
        targets=(relays * schedule.num_slots + slots)[:, 0],
    )


@functools.lru_cache(maxsize=16)
def _body_sources(schedule: RelaySchedule, n_fft: int, cp_len: int) -> np.ndarray:
    """Flat indices into a (T, N + cp_len) raw frame of the (T, N) symbol
    bodies, with reversed slots rotated right by cp_len to realign them."""
    p = np.arange(n_fft)
    reversed_slots = np.array(schedule.slot_reversed, dtype=bool)[:, None]
    columns = cp_len + np.where(reversed_slots, (p - cp_len) % n_fft, p)
    return np.arange(schedule.num_slots)[:, None] * (n_fft + cp_len) + columns


def relay_process(
    received: np.ndarray,
    schedule: RelaySchedule,
    cfg: LinkConfig,
) -> np.ndarray:
    """Apply each relay's per-slot instruction, shape (R, T, N + cp_len).

    Silent slots transmit zeros. Active slots forward one received block
    with the instruction's sign, conjugated when the relay's column is
    conjugated, time reversed when the slot is reversed, and scaled by the
    fixed relay amplification. One gather through the schedule's cached
    index table collects every active (relay, block) row, already time
    reversed where needed; one product by sign times gain and one masked
    conjugate follow, scattered into the output.
    """
    received = np.asarray(received, dtype=complex)
    num_relays, num_blocks, symbol_len = received.shape
    if num_relays != schedule.num_relays or symbol_len != cfg.symbol_len:
        raise ValueError("received array does not match schedule/link dimensions")
    table = _forwarding_table(schedule, cfg.n_fft, cfg.cp_len, num_blocks)
    symbols = received.take(table.sources)
    symbols *= table.signs * cfg.power.relay_gain  # signs are +/-1: exact
    np.conjugate(symbols, out=symbols, where=table.conjugate)
    out = np.zeros((num_relays * schedule.num_slots, symbol_len), dtype=complex)
    out[table.targets] = symbols
    return out.reshape(num_relays, schedule.num_slots, symbol_len)


def destination_receive(
    transmitted: np.ndarray,
    channel: ChannelRealization,
    noise_on: bool = True,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Superpose delayed relay transmissions per slot, shape (T, N + cp_len).

    Relay i's samples land ``delays[i]`` positions late within the slot
    window; samples pushed past the window are dropped (the cyclic prefix of
    the following symbol would swallow them for in-contract delays).
    """
    transmitted = np.asarray(transmitted, dtype=complex)
    if transmitted.ndim != 3 or transmitted.shape[0] != channel.num_relays:
        raise ValueError("transmitted array needs one (T, N + cp_len) block per relay of the channel")
    symbol_len = transmitted.shape[-1]
    # the fading coefficient is the first operand: numpy's complex product of
    # a broadcast first operand matches the per-relay scalar product bit for
    # bit, a broadcast second operand does not
    faded = channel.relay_to_dest[:, None, None] * transmitted
    out = faded[0]  # relay 0 sets the timing origin: delays[0] == 0
    for relay, tau in enumerate(channel.delays.tolist()[1:], start=1):
        if tau < symbol_len:
            out[:, tau:] += faded[relay, :, : symbol_len - tau]
    if noise_on:
        if rng is None:
            raise ValueError("noise_on requires a random generator")
        noisy = complex_noise(rng, out.shape)
        noisy += out
        return noisy
    return out


def destination_frontend(raw: np.ndarray, schedule: RelaySchedule, cfg: LinkConfig) -> np.ndarray:
    """Strip prefixes, realign reversed slots, and transform to subcarriers.

    Returns the (T, N) frequency-domain receive blocks; column k is the
    receive vector of subcarrier k.
    """
    raw = np.asarray(raw, dtype=complex)
    if raw.shape != (schedule.num_slots, cfg.symbol_len):
        raise ValueError(f"raw frame shape {raw.shape} does not match schedule/link dimensions")
    return spectral.dft(raw.take(_body_sources(schedule, cfg.n_fft, cfg.cp_len)))


def run_frame(
    frame: np.ndarray,
    schedule: RelaySchedule,
    channel: ChannelRealization,
    cfg: LinkConfig,
    noise_on: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Full source -> relays -> destination pipeline for one frame."""
    symbols = source_transmit(frame, schedule, cfg)
    received = relay_receive(symbols, channel, noise_on, rng)
    transmitted = relay_process(received, schedule, cfg)
    raw = destination_receive(transmitted, channel, noise_on, rng)
    return destination_frontend(raw, schedule, cfg)
