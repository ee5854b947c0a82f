"""Monte Carlo bit-error-rate harness over a transmit-power sweep.

Reproducibility contract: every Monte Carlo unit (one channel draw plus the
frames simulated under it) owns a private random stream derived from
(seed, power point index, unit index). Results are integer error/bit counts
summed over units, so any partition of the unit range across workers, and
any execution order, produces bit-identical output. Adaptive stopping is
evaluated only at fixed batch boundaries for the same reason.

A sweep point simulates at least ``frames`` units and keeps going in whole
batches until ``min_errors`` error events are seen (noise on) or the
``max_frames`` cap is reached, whichever comes first. One scheduler runs the
points of a sweep: every unfinished point keeps one batch in flight, so a
pool always has other points' work queued while a point's stopping rule is
applied, and the results stay byte-identical for any worker count.

A unit's whole stream is drawn by one function, ``_draw_unit``, whose
docstring is the one statement of its order, before any stage runs; the
engines' ``simulate``, the pipeline stages and the decoders are pure
functions of these draws.

``run_sweep`` builds its state once per call: it reads the code (a built-in
name or the code file as it is at call time), checks its feasibility,
derives its schedule and, in differential mode, builds and verifies its
codebook, then builds, in coherent mode, the delay rotations
(``decoder.rotation_table``), and one engine per power point, which holds
the point's link (``relaysim.LinkConfig``: the schedule, its gathers and
the point's power) and in coherent mode builds its own
``decoder.CoherentDecoder``; a code that is not proven group decodable and
whose exhaustive search could need more than ``_EXHAUSTIVE_BUDGET`` in one
process is rejected then, before any unit runs. Pool workers receive those engines once, when
the pool starts. Nothing is kept between sweeps.
"""

from __future__ import annotations

import math
import numbers
import os
import time
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import numpy.random  # imported here, so that forked pool workers inherit it

from . import decoder as _decoder
from .codebook import (
    DEFAULT_ROTATION,
    CodeDefinition,
    RelaySchedule,
    ScheduleError,
    check_feasibility,
    derive_schedule,
    named_code,
    parse_code_text,
)
from .differential import (
    DifferentialCodebook,
    build_codebook_4relay,
    diff_decode_frame,
    diff_encode,
    initial_state,
    verify_commutation,
    verify_scaled_unitary,
)
from .relaysim import ChannelRealization, LinkConfig, PowerConfig, draw_channel, frame_noise, run_frame

__all__ = [
    "BerPoint",
    "ConfigError",
    "SimConfig",
    "emit_csv",
    "emit_plotscript",
    "frame_rng",
    "parse_csv",
    "parse_delay_spec",
    "parse_power_spec",
    "run_sweep",
    "wilson_interval",
]

CSV_HEADER = "P_dB,ber,ci_lo,ci_hi,bits,frames"

_Z95 = 1.959963984540054

# Bytes that the exhaustive search of a code not proven group decodable may
# hold in one process over a sweep. Each point's engine builds its full
# table (``CoherentDecoder.exhaustive_nbytes``) on its first fallback unit
# and keeps its rows that are nonzero in some slot, at most a table; a
# process builds one table at a time, and a build peaks near three tables
# plus the code words (3.1 to 3.2 tables under ``tracemalloc`` for relay4's
# and relay5's). So a sweep of P points is bounded by P + 3 tables: four for
# the build under way and one for each other point, even when one pool
# worker serves them all. 256 MiB is a memory policy, a small share of a
# machine that runs several sweeps; the unproven test codes' tables are at
# most 0.5 MiB, so it admits their sweeps of up to 509 points.
_EXHAUSTIVE_BUDGET = 256 * 2**20


def _popcount_table(size: int) -> np.ndarray:
    """Number of set bits of every label below ``size``, a power of two; the
    XOR of two such labels is again below ``size``."""
    labels = np.arange(size, dtype=np.int64)
    table = np.zeros(size, dtype=np.int64)
    for bit in range(size.bit_length() - 1):
        table += (labels >> bit) & 1
    return table


class ConfigError(ValueError):
    """A simulation configuration value is missing, malformed or inconsistent."""


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one BER sweep.

    ``code`` is a built-in name or a path to a code description file.
    ``delays`` fixes the per-relay arrival offsets; None draws them uniformly
    on [0, cp_len - 1] per unit; fixed delays past ``cp_len`` are simulated
    but warned about, as they break the per-subcarrier model.
    ``relay_fraction`` defaults to 1/R for the chosen code. ``diff_chain`` is
    the number of frames sharing one channel draw in differential mode
    (reference frame included). ``rotation_deg`` applies only to a code whose
    alphabets it changes. The annotations are the schema ``_typed`` checks.
    """

    mode: str = "coherent"
    code: str = "relay4"
    n_fft: int = 64
    cp_len: int = 16
    power_db: tuple[float, ...] = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    frames: int = 2000
    min_errors: int = 200
    max_frames: int | None = None
    seed: int = 42
    delays: tuple[int, ...] | None = None
    noise: bool = True
    workers: int = 1
    source_fraction: float = 1.0
    relay_fraction: float | None = None
    rotation_deg: float | None = None
    diff_chain: int = 2
    out: str | None = None


_MODES = ("coherent", "differential")
_HINTS = get_type_hints(SimConfig)
_OPTIONAL = frozenset(name for name, hint in _HINTS.items() if type(None) in get_args(hint))
_FIELD_TYPES = {name: get_args(hint)[0] if name in _OPTIONAL else hint for name, hint in _HINTS.items()}  # X of X | None
# per value type: the values it takes (numpy's scalars count), their Python form and its name
_KINDS = {
    int: (numbers.Integral, int, "an integer"),
    float: (numbers.Real, float, "a real number"),
    bool: ((bool, np.bool_), bool, "a bool"),
    str: ((str, os.PathLike), lambda v: v, "a str or path"),
}
_ENTRIES = {"power_db": "power points must be real numbers", "delays": "fixed delays must be integers"}


@dataclass(frozen=True)
class BerPoint:
    power_db: float
    bit_errors: int
    bits: int
    ber: float
    ci_lo: float
    ci_hi: float
    frames: int
    seconds: float = 0.0


def wilson_interval(errors: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    phat = errors / trials
    zz = z * z / trials
    centre = phat + zz / 2.0
    half = z * math.sqrt(phat * (1.0 - phat) / trials + zz / (4.0 * trials))
    lo = (centre - half) / (1.0 + zz)
    hi = (centre + half) / (1.0 + zz)
    # guard the contract 0 <= lo <= phat <= hi <= 1 against rounding residue
    return (min(max(lo, 0.0), phat), max(min(hi, 1.0), phat))


def frame_rng(seed: int, point_index: int, unit_index: int) -> np.random.Generator:
    """Private random stream of one Monte Carlo unit."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(point_index), int(unit_index)))
    )


def parse_power_spec(spec: str) -> tuple[float, ...]:
    """Parse a power sweep: 'start:step:stop' (inclusive), comma list, or value."""
    spec = spec.strip()
    try:
        if ":" in spec:
            start_s, step_s, stop_s = spec.split(":")
            start, step, stop = float(start_s), float(step_s), float(stop_s)
            if step <= 0 or stop < start:
                raise ConfigError(f"power range {spec!r} must have step > 0 and stop >= start")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            return tuple(start + i * step for i in range(count))
        if "," in spec:
            return tuple(float(tok) for tok in spec.split(",") if tok.strip())
        return (float(spec),)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"cannot parse power list {spec!r}") from exc


def parse_delay_spec(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in spec.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"cannot parse delay list {spec!r}") from exc


def _resolve_code(cfg: SimConfig) -> CodeDefinition:
    """The configured code, a built-in or the code file as it reads now, at
    the configured rotation; a rotation that is set must apply to the code,
    whose alphabets must then differ at two fixed rotations, 0 and 1 radian."""
    rotations = [DEFAULT_ROTATION] if cfg.rotation_deg is None else [math.radians(cfg.rotation_deg), 0.0, 1.0]
    try:
        try:
            code, *turned = [named_code(cfg.code, r) for r in rotations]
        except KeyError:
            text = Path(cfg.code).read_text(encoding="utf-8")
            code, *turned = [parse_code_text(text, str(cfg.code), rotation=r) for r in rotations]
    except OSError as exc:
        raise ConfigError(f"code {cfg.code!r} is neither a built-in name nor a readable file") from exc
    except ValueError as exc:
        raise ConfigError(f"code file {cfg.code!r} is malformed: {exc}") from exc
    if turned and all(map(np.array_equal, turned[0].alphabet, turned[1].alphabet)):
        raise ConfigError(f"rotation_deg does not apply to code {code.name!r}, whose alphabets no rotation changes")
    return code


def _plain(value, kind, error: str):
    """``value`` in the Python form of field type ``kind``; ConfigError
    ``error`` for a value of another type: a bool is no number, nor a number a bool."""
    accepts, form, _ = _KINDS[kind]
    if isinstance(value, accepts) and isinstance(value, (bool, np.bool_)) == (kind is bool):
        try:
            return form(value)
        except OverflowError:
            error += " in the float range"
    raise ConfigError(f"{error}, got {value!r}")


def _typed(cfg: SimConfig) -> SimConfig:
    """``cfg`` with every value in the Python form of its field's annotated type (a
    list as a tuple); ConfigError, naming the field, for a value of another type."""
    values = {}
    for name, kind in _FIELD_TYPES.items():
        value = getattr(cfg, name)
        if value is None and name in _OPTIONAL:
            continue
        if get_origin(kind) is not tuple:
            values[name] = _plain(value, kind, f"{name} must be {_KINDS[kind][2]}")
        elif isinstance(value, (tuple, list)):
            values[name] = tuple(_plain(v, get_args(kind)[0], f"{name}: {_ENTRIES[name]}") for v in value)
        else:
            raise ConfigError(f"{name} must be a tuple or list, got {value!r}")
    return replace(cfg, **values)


def _validate(cfg: SimConfig) -> tuple[CodeDefinition, RelaySchedule]:
    """Check the configuration; return the code and its schedule."""
    cfg = _typed(cfg)
    if cfg.mode not in _MODES:
        raise ConfigError(f"mode must be 'coherent' or 'differential', got {cfg.mode!r}")
    if not cfg.power_db:
        raise ConfigError("power sweep is empty")
    if len(set(cfg.power_db)) != len(cfg.power_db):
        raise ConfigError(f"power points must be distinct, got {cfg.power_db}")
    for name, least in {"frames": 1, "min_errors": 0, "workers": 1, "seed": 0, "diff_chain": 2}.items():
        if getattr(cfg, name) < least:
            raise ConfigError(f"{name} must be at least {least}, got {getattr(cfg, name)}")
    if cfg.max_frames is not None and cfg.max_frames < cfg.frames:
        raise ConfigError("max_frames cannot be smaller than frames")
    if cfg.rotation_deg is not None and not math.isfinite(cfg.rotation_deg):
        raise ConfigError(f"rotation_deg must be finite, got {cfg.rotation_deg!r}")
    if cfg.out:  # the command line writes no files for an empty path
        out = Path(cfg.out)
        if not out.parent.is_dir():
            raise ConfigError(f"the directory of output {cfg.out!r} does not exist")
        if out.is_dir():
            raise ConfigError(f"output {cfg.out!r} is a directory")
        script = plot_script_path(out)
        if script == out:
            raise ConfigError(f"output {cfg.out!r} is the path of its own .gp plot script")
        if script.is_dir():
            raise ConfigError(f"the plot script {str(script)!r} of output {cfg.out!r} is a directory")

    code = _resolve_code(cfg)
    report = check_feasibility(code)
    if not report:
        raise ScheduleError(f"code {code.name!r} fails feasibility condition {report.condition}: {report.detail}")
    schedule = derive_schedule(code)

    if cfg.delays is not None:
        d = cfg.delays
        if len(d) != code.num_relays:
            raise ConfigError(f"fixed delays need {code.num_relays} entries, got {len(d)}")
        if d[0] != 0 or any(b < a for a, b in zip(d, d[1:])) or any(v < 0 for v in d):
            raise ConfigError("fixed delays must be non-negative, non-decreasing and start at 0")
        if d[-1] > cfg.cp_len:
            warnings.warn(
                f"fixed delays {d} exceed the {cfg.cp_len}-sample cyclic prefix: the per-subcarrier "
                "model does not hold and the results are out of contract",
                UserWarning,
                stacklevel=4,  # run_sweep's caller
            )
    return code, schedule


def _verified_codebook(code: CodeDefinition) -> DifferentialCodebook:
    """The code's own differential codebook, once it passes both checks."""
    try:
        codebook = build_codebook_4relay(code)
    except ValueError as exc:
        raise ScheduleError(f"code {code.name!r} has no differential codebook: {exc}") from exc
    for report in (verify_scaled_unitary(codebook), verify_commutation(codebook, code)):
        if not report:
            raise ScheduleError(f"code {code.name!r} has no verified differential codebook: {report.detail}")
    return codebook


def _power_config(cfg: SimConfig, code: CodeDefinition, p_db: float) -> PowerConfig:
    fraction = cfg.relay_fraction if cfg.relay_fraction is not None else 1.0 / code.num_relays
    return PowerConfig(
        total_power=10.0 ** (p_db / 10.0),
        source_fraction=cfg.source_fraction,
        relay_fraction=fraction,
    )


class _CoherentEngine:
    """Per-point simulation state for coherent frames on the point's link,
    whose code, N and prefix it reads; its own ``decoder.CoherentDecoder``
    of that code and the link's cascade gain decides a whole frame at once."""

    def __init__(self, cfg: SimConfig, link: LinkConfig, rotations: np.ndarray):
        self.cfg = cfg
        self.code = code = link.schedule.code
        self.link = link
        self.rotations = rotations
        self.decoder = _decoder.CoherentDecoder(code, link.power.cascade_gain)
        self.bits_per_unit = sum(code.bits_per_group()) * link.n_fft
        sizes = [t.shape[0] for t in code.alphabet]
        self._popcount = _popcount_table(max(sizes))
        # one frame of (G, N) labels, the stream of G per-group draws of N (each
        # label takes one 32-bit output, as the alphabet sizes are powers of
        # two); a scalar bound when the alphabets are equal takes numpy's faster fill
        bound = sizes[0] if len(set(sizes)) == 1 else np.array(sizes)[:, None]
        self.frame_labels = ((bound, (len(sizes), link.n_fft)),)
        self._warned = False

    def _gap(self, h_all: np.ndarray, w2: np.ndarray) -> float:
        """Largest cross-group whitened Gram entry; above the decoder's
        orthogonality tolerance the unit is decoded by exhaustive search."""
        return self.decoder.gap(h_all, w2)

    def simulate(self, channel: ChannelRealization, frames: list) -> tuple[int, int]:
        """Errors and bits of one unit from its draws (``_draw_unit``)."""
        ((labels, noise),) = frames
        tx = labels.T  # (N, G)
        received = run_frame(self.decoder.symbols(tx).T, self.link, channel, noise)

        h_all = _decoder.equivalent_channel_matrix(self.code, channel, self.link.n_fft, rotations=self.rotations)
        w2 = 1.0 / _decoder.noise_covariance(self.link, channel)
        if self._gap(h_all, w2) > _decoder._ORTHOGONALITY_TOL:
            if not self._warned:
                warnings.warn(
                    f"code {self.code.name!r}: grouped decoding invalid for a drawn channel; "
                    "using exhaustive search",
                    stacklevel=2,
                )
                self._warned = True
            # perfbench's traced run counts fallback units by these two calls
            h_all = _decoder.equivalent_channel_matrix(self.code, channel, self.link.n_fft, rotations=self.rotations)
            decided = _decoder.ml_decode_exhaustive(received, h_all, w2, self.decoder)
        else:
            decided = self.decoder.grouped(received, h_all, w2)
        return int(self._popcount[np.bitwise_xor(tx, decided)].sum()), self.bits_per_unit


class _DifferentialEngine:
    """Per-point simulation state for differential chains on the point's
    link, whose code, N and prefix it reads, over the sweep's verified
    codebook."""

    def __init__(self, cfg: SimConfig, link: LinkConfig, codebook: DifferentialCodebook):
        self.cfg = cfg
        self.code = link.schedule.code
        self.link = link
        self.codebook = codebook
        self.bits_per_unit = codebook.bits_per_word * link.n_fft * (cfg.diff_chain - 1)
        self._popcount = _popcount_table(codebook.num_words)
        # the reference frame carries no labels; each data frame N code words
        self.frame_labels = (None,) + ((codebook.num_words, link.n_fft),) * (cfg.diff_chain - 1)

    def simulate(self, channel: ChannelRealization, frames: list) -> tuple[int, int]:
        """Errors and bits of one unit from its draws (``_draw_unit``)."""
        n_fft = self.link.n_fft
        state = initial_state(self.code.symbol_count, n_fft)
        (_, noise), *chain = frames
        y_prev = run_frame(state.symbols, self.link, channel, noise)
        scales_rx = np.ones(n_fft)
        errors = 0
        for tx, noise in chain:
            state = diff_encode(state, tx, self.codebook)
            y_now = run_frame(state.symbols, self.link, channel, noise)
            decided, scales_rx = diff_decode_frame(y_now, y_prev, scales_rx, self.codebook)
            errors += int(self._popcount[np.bitwise_xor(tx, decided)].sum())
            y_prev = y_now
        return errors, self.bits_per_unit


def _sweep_engines(cfg: SimConfig) -> list:
    """Validate ``cfg`` once and build the engine of every power point, in
    ascending order; all of them share one code, schedule, codebook and,
    in coherent mode, rotation table; each holds its point's
    ``LinkConfig``."""
    code, schedule = _validate(cfg)
    codebook = _verified_codebook(code) if cfg.mode == "differential" else None
    links = []
    for p_db in sorted(cfg.power_db):
        try:
            links.append(LinkConfig(schedule, cfg.n_fft, cfg.cp_len, _power_config(cfg, code, p_db)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except OverflowError as exc:
            raise ConfigError(f"power {p_db!r} dB is out of range") from exc
    if codebook is None:
        rotations = _decoder.rotation_table(cfg.n_fft, cfg.cp_len, cfg.delays)
        engines = [_CoherentEngine(cfg, link, rotations) for link in links]
        if not engines[0].decoder.proven:
            table = engines[0].decoder.exhaustive_nbytes
            need = (len(engines) + 3) * table
            if need > _EXHAUSTIVE_BUDGET:
                raise ConfigError(
                    f"code {code.name!r} is not proven group decodable, and its exhaustive search over "
                    f"{len(engines)} power points may need {need / 2**20:.1f} MiB: "
                    f"{len(engines) + 3} tables of {table / 2**20:.1f} MiB, four while one is built and one for "
                    f"each other point, above the sweep's budget of {_EXHAUSTIVE_BUDGET // 2**20} MiB"
                )
        return engines
    return [_DifferentialEngine(cfg, link, codebook) for link in links]


_pool_engines: list = []  # a pool worker's engines, set once by _init_pool


def _init_pool(engines: list) -> None:
    global _pool_engines
    _pool_engines = engines


def _draw_unit(rng: np.random.Generator, engine) -> tuple[ChannelRealization, list]:
    """The whole random stream of one unit, drawn before any stage runs.

    This is the one definition of a unit's order: f and g, then the delays
    (``draw_channel``, for the relays and prefix of the engine's link);
    then, frame by frame, the labels, ``rng.integers(0, bound, size)`` by
    the engine's ``frame_labels`` (none for a differential chain's
    reference frame), and, with noise on, the frame's
    ``relaysim.frame_noise``. Returns the channel and each frame's
    (labels, noise), with None for what is not drawn.
    """
    cfg, link = engine.cfg, engine.link
    channel = draw_channel(rng, link.schedule.num_relays, link.cp_len, cfg.delays)
    frames = []
    for spec in engine.frame_labels:
        labels = None if spec is None else rng.integers(0, *spec)
        frames.append((labels, frame_noise(rng, link) if cfg.noise else None))
    return channel, frames


def _chunk_task(args) -> tuple[int, int]:
    """Errors and bits of units [start, stop) of one point; a pool worker
    gets None for the engine and uses the one its pool started with."""
    engine, point_index, start, stop = args
    if engine is None:
        engine = _pool_engines[point_index]
    errors = 0
    bits = 0
    for unit in range(start, stop):
        e, b = engine.simulate(*_draw_unit(frame_rng(engine.cfg.seed, point_index, unit), engine))
        errors += e
        bits += b
    return errors, bits


def _split_range(start: int, stop: int, parts: int) -> list[tuple[int, int]]:
    total = stop - start
    base = total // parts
    extra = total % parts
    out = []
    cursor = start
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        if size:
            out.append((cursor, cursor + size))
        cursor += size
    return out


def _run_points(cfg: SimConfig, powers: list[float], dispatch) -> list[BerPoint]:
    """Simulate every power point in whole batches, with one batch of each
    unfinished point in flight; results are read in dispatch order.

    ``dispatch(point_index, ranges)`` starts one batch of a point and returns
    its (errors, bits) per unit range, as a list or a lazy iterator. A
    point's ``seconds`` runs from its first dispatch to its last result.
    """
    max_frames = cfg.max_frames if cfg.max_frames is not None else cfg.frames * 20
    errors = [0] * len(powers)
    bits = [0] * len(powers)
    total = [0] * len(powers)
    started = [0.0] * len(powers)
    points: list = [None] * len(powers)
    in_flight: deque = deque()

    def submit(idx: int) -> None:
        batch = min(cfg.frames, max_frames - total[idx])
        in_flight.append((idx, dispatch(idx, _split_range(total[idx], total[idx] + batch, cfg.workers))))
        total[idx] += batch

    for idx in range(len(powers)):
        started[idx] = time.perf_counter()
        submit(idx)
    while in_flight:
        idx, results = in_flight.popleft()
        for e, b in results:
            errors[idx] += e
            bits[idx] += b
        # every point has run at least `frames` units here: max_frames >= frames
        if cfg.noise and errors[idx] < cfg.min_errors and total[idx] < max_frames:
            submit(idx)
            continue
        lo, hi = wilson_interval(errors[idx], bits[idx])
        points[idx] = BerPoint(
            power_db=powers[idx],
            bit_errors=errors[idx],
            bits=bits[idx],
            ber=errors[idx] / bits[idx] if bits[idx] else 0.0,
            ci_lo=lo,
            ci_hi=hi,
            frames=total[idx],
            seconds=time.perf_counter() - started[idx],
        )
    return points


def run_sweep(cfg: SimConfig) -> list[BerPoint]:
    """Simulate every power point of the sweep, ascending, and return the curve."""
    cfg = _typed(cfg)
    engines = _sweep_engines(cfg)
    powers = sorted(cfg.power_db)
    if cfg.workers == 1:
        return _run_points(cfg, powers, lambda idx, ranges: [_chunk_task((engines[idx], idx, a, b)) for a, b in ranges])
    executor = ProcessPoolExecutor(max_workers=cfg.workers, initializer=_init_pool, initargs=(engines,))
    try:
        # one map per batch: perfbench's traced run counts them, and its map returns a list
        return _run_points(
            cfg, powers, lambda idx, ranges: executor.map(_chunk_task, [(None, idx, a, b) for a, b in ranges])
        )
    finally:
        # a batch that raised leaves other points' batches queued: cancel them
        executor.shutdown(cancel_futures=True)


def emit_csv(points: list[BerPoint], path) -> None:
    """Write the sweep as CSV, rows sorted by ascending power."""
    rows = sorted(points, key=lambda p: p.power_db)
    lines = [CSV_HEADER]
    for p in rows:
        lines.append(
            f"{p.power_db!r},{p.ber!r},{p.ci_lo!r},{p.ci_hi!r},{p.bits},{p.frames}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_csv(path) -> list[BerPoint]:
    """Read back a CSV written by emit_csv."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path} does not look like a sweep CSV (bad header)")
    points = []
    for ln in lines[1:]:
        p_db, ber, lo, hi, bits, frames = ln.split(",")
        bits_i = int(bits)
        ber_f = float(ber)
        points.append(
            BerPoint(
                power_db=float(p_db),
                bit_errors=int(round(ber_f * bits_i)),
                bits=bits_i,
                ber=ber_f,
                ci_lo=float(lo),
                ci_hi=float(hi),
                frames=int(frames),
            )
        )
    return points


def plot_script_path(out) -> Path:
    """The path of the plot script written beside the CSV output ``out``."""
    return Path(out).with_suffix(".gp")


def emit_plotscript(points: list[BerPoint], path, csv_name: str = "ber.csv") -> None:
    """Write a gnuplot script rendering log-BER against transmit power."""
    rows = sorted(points, key=lambda p: p.power_db)
    lo = min((p.power_db for p in rows), default=0.0)
    hi = max((p.power_db for p in rows), default=1.0)
    script = "\n".join(
        [
            "# Bit error rate versus total transmit power",
            "set datafile separator ','",
            "set logscale y",
            "set format y '10^{%T}'",
            f"set xrange [{lo - 1!r}:{hi + 1!r}]",
            "set xlabel 'total transmit power [dB]'",
            "set ylabel 'bit error rate'",
            "set grid",
            "set key bottom left",
            f"plot '{csv_name}' skip 1 using 1:2:3:4 with yerrorbars title 'measured BER', \\",
            f"     '{csv_name}' skip 1 using 1:2 with lines notitle",
            "",
        ]
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)
