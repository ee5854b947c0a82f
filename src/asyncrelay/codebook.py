"""Conjugate-linear space-time codes and relay schedule derivation.

A code word for ``R`` relays over ``T = nu`` slots is

    X(s) = [ A_1 v_1, A_2 v_2, ..., A_R v_R ],     v_i = s or conj(s),

where each relay matrix ``A_i`` is a real nu x nu matrix with at most one
nonzero entry per row and ``v_i`` is conjugated exactly for the columns
listed in ``conjugated_columns``. Row ``t`` of column ``i`` tells relay ``i``
what to transmit in slot ``t``: a signed, possibly conjugated copy of one
source block, or nothing when the row is all zero.

Feasibility of running such a code over an asynchronous OFDM relay channel
is a purely combinatorial property of which symbols appear plainly versus
conjugated in each row; ``check_feasibility`` evaluates it. For a feasible
code, ``derive_schedule`` two-colours the bipartite consistency graph
between source blocks (IDFT or DFT modulation) and receive slots (time
reversed or not) so that every relay instruction yields a plain symbol on
every subcarrier after the destination front-end.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_ROTATION",
    "IDFT",
    "DFT",
    "SCALED_UNITARY_PAIRS",
    "CodeDefinition",
    "FeasibilityReport",
    "RelayInstruction",
    "RelaySchedule",
    "RowSets",
    "ScheduleError",
    "builtin_codes",
    "check_feasibility",
    "codeword",
    "derive_schedule",
    "format_code_text",
    "infeasible_example",
    "load_code",
    "named_code",
    "parse_code_text",
    "qpsk_pairs",
    "row_sets",
    "slot_classes",
]

# Source modulation labels for schedule entries.
IDFT = "idft"
DFT = "dft"

# Rotation angle (radians) for the coordinate-paired QPSK alphabet of the
# coherent four-group codes. atan(2)/2 is a standard choice that keeps all
# pairwise coordinate products distinct; it is configurable, not structural.
DEFAULT_ROTATION = 0.5 * math.atan(2.0)

# Real pair set generating the scaled-unitary differential codebook: each
# group of two real coordinates is one of these (value, value) points. The
# mean squared norm over the set is exactly 1.
SCALED_UNITARY_PAIRS = np.array(
    [
        [1.0 / math.sqrt(3.0), 0.0],
        [-1.0 / math.sqrt(3.0), 0.0],
        [0.0, math.sqrt(5.0 / 3.0)],
        [0.0, -math.sqrt(5.0 / 3.0)],
    ]
)
SCALED_UNITARY_PAIRS.setflags(write=False)


class ScheduleError(ValueError):
    """The code admits no usable relay schedule: no consistent
    modulation/reversal assignment exists, or some symbol is sent by no
    relay."""


def qpsk_pairs(rotation: float = 0.0) -> np.ndarray:
    """(Re, Im) coordinate pairs of unit-power QPSK rotated by ``rotation``.

    Points are ordered so the 2-bit index is Gray-labelled over the
    underlying quadrants: bit 1 flips with the sign of the in-phase part,
    bit 0 with the sign of the quadrature part.
    """
    base = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)
    pts = base * np.exp(1j * rotation)
    return np.column_stack([pts.real, pts.imag])


def _coordinate_product_set(pair_set: np.ndarray, extra_levels: np.ndarray) -> np.ndarray:
    """Cartesian product alphabet: a 2-coordinate pair set times scalar levels."""
    rows = []
    for pair in pair_set:
        for level in extra_levels:
            rows.append([pair[0], pair[1], level])
    return np.array(rows)


@dataclass(frozen=True)
class RowSets:
    """Symbol indices appearing plainly / conjugated in each code word row."""

    plain: tuple[frozenset[int], ...]
    conjugated: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class FeasibilityReport:
    passed: bool
    condition: int | None = None
    rows: tuple[int, ...] = ()
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class RelayInstruction:
    """One slot's action for one relay: forward ``block`` scaled by ``sign``,
    conjugated iff ``conjugate``. A silent slot is represented by None in the
    schedule table, not by an instruction."""

    block: int
    sign: float
    conjugate: bool


def slot_classes(active) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Slots grouped by their set of active relays, given each slot's active
    relays in slot order: (relays (k,), slots (S,)) per class, in the order
    of the classes' first slots. Slots of one class share one noise variance.
    """
    classes: dict[tuple[int, ...], list[int]] = {}
    for slot, relays in enumerate(active):
        classes.setdefault(tuple(relays), []).append(slot)
    return tuple((np.array(relays, dtype=np.intp), np.array(slots, dtype=np.intp)) for relays, slots in classes.items())


@dataclass(frozen=True, eq=False)
class _ForwardingTable:
    """The forwarding instructions of one schedule, one row each.

    Rows are in relay-major order and each relay's rows in slot order: the
    row order of ``relay_receive``, ``relay_process`` and
    ``destination_receive``. ``spans`` holds, for each relay that forwards
    anything and in ascending relay order, the relay, the slice of its rows
    and the slots they fill: a slice when those slots are contiguous, else
    an index array.
    """

    relays: np.ndarray  # (A,)
    blocks: np.ndarray  # (A,)
    signs: np.ndarray  # (A, 1)
    conjugate: np.ndarray  # (A, 1) bool
    reversed: np.ndarray  # (A, 1) bool: the row's slot is time reversed
    spans: tuple  # ((relay, rows, slots), ...)
    last_block: int  # the highest block any row forwards, -1 with no rows

    @classmethod
    def of(cls, schedule: RelaySchedule) -> _ForwardingTable:
        rows = [
            (relay, slot, instr)
            for relay in range(schedule.num_relays)
            for slot, instructions in enumerate(schedule.instructions)
            if (instr := instructions[relay]) is not None
        ]
        spans, start = [], 0
        for relay, group in itertools.groupby(rows, key=lambda row: row[0]):
            slots = [slot for _, slot, _ in group]
            contiguous = slots[-1] - slots[0] == len(slots) - 1
            index = slice(slots[0], slots[-1] + 1) if contiguous else np.array(slots)
            spans.append((relay, slice(start, start + len(slots)), index))
            start += len(slots)
        blocks = [instr.block for _, _, instr in rows]
        return cls(
            relays=np.array([relay for relay, _, _ in rows], dtype=np.intp),
            blocks=np.array(blocks, dtype=np.intp),
            signs=np.array([instr.sign for _, _, instr in rows], dtype=float).reshape(-1, 1),
            conjugate=np.array([instr.conjugate for _, _, instr in rows], dtype=bool).reshape(-1, 1),
            reversed=np.array([schedule.slot_reversed[slot] for _, slot, _ in rows], dtype=bool).reshape(-1, 1),
            spans=tuple(spans),
            last_block=max(blocks, default=-1),
        )


@dataclass(frozen=True)
class RelaySchedule:
    """Per-block modulation, per-slot reversal and the (T, R) instruction table.

    Schedules compare and hash by these three fields. What the relay link
    and the noise model read of a schedule is built with it: ``forwarding``,
    its instructions one row each, and ``slot_classes``, its slots grouped
    by their set of active relays.
    """

    source_modulation: tuple[str, ...]
    slot_reversed: tuple[bool, ...]
    instructions: tuple[tuple[RelayInstruction | None, ...], ...]
    forwarding: _ForwardingTable = field(init=False, compare=False, repr=False)
    slot_classes: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "forwarding", _ForwardingTable.of(self))
        object.__setattr__(self, "slot_classes", slot_classes(map(self.active_relays, range(self.num_slots))))

    @property
    def num_blocks(self) -> int:
        return len(self.source_modulation)

    @property
    def num_slots(self) -> int:
        return len(self.slot_reversed)

    @property
    def num_relays(self) -> int:
        return len(self.instructions[0]) if self.instructions else 0

    def active_relays(self, slot: int) -> tuple[int, ...]:
        return tuple(i for i, ins in enumerate(self.instructions[slot]) if ins is not None)


@dataclass(frozen=True, eq=False)
class CodeDefinition:
    """A conjugate-linear space-time code plus its decoding structure.

    Codes compare and hash by identity, as their fields hold arrays.
    ``conjugated`` is the read-only (R,) mask of the conjugated columns.

    ``group_partition`` splits the 2*nu real symbol coordinates (coordinate
    2j is Re(s_j), coordinate 2j+1 is Im(s_j)) into jointly-decoded groups,
    and ``alphabet`` holds one (K_g, |group|) real array per group listing
    the allowed coordinate tuples in bit-label order; K_g must be a power of
    two so that every label carries log2(K_g) bits.
    """

    name: str
    relay_matrices: tuple[np.ndarray, ...]
    conjugated_columns: frozenset[int]
    group_partition: tuple[tuple[int, ...], ...]
    alphabet: tuple[np.ndarray, ...]
    conjugated: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        matrices = tuple(np.array(m, dtype=float) for m in self.relay_matrices)
        if not matrices:
            raise ValueError("a code needs at least one relay matrix")
        nu = matrices[0].shape[0]
        for i, m in enumerate(matrices):
            if m.shape != (nu, nu):
                raise ValueError(f"relay matrix {i} has shape {m.shape}, expected ({nu}, {nu})")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"relay matrix {i} has a non-finite entry")
            nonzero_per_row = np.count_nonzero(m, axis=1)
            if np.any(nonzero_per_row > 1):
                bad = int(np.argmax(nonzero_per_row > 1))
                raise ValueError(f"relay matrix {i} row {bad} has more than one nonzero entry")
            values = m[m != 0]
            if values.size and not np.all(np.isin(np.abs(values), [1.0])):
                warnings.warn(
                    f"code {self.name!r}: relay matrix {i} has nonzero entries other than +/-1",
                    stacklevel=2,
                )
            m.setflags(write=False)
        object.__setattr__(self, "relay_matrices", matrices)
        object.__setattr__(self, "conjugated_columns", frozenset(self.conjugated_columns))
        if not all(0 <= c < len(matrices) for c in self.conjugated_columns):
            raise ValueError("conjugated column index out of range")
        conjugated = np.isin(np.arange(len(matrices)), sorted(self.conjugated_columns))
        conjugated.setflags(write=False)
        object.__setattr__(self, "conjugated", conjugated)

        partition = tuple(tuple(int(i) for i in g) for g in self.group_partition)
        flat = sorted(itertools.chain.from_iterable(partition))
        if flat != list(range(2 * nu)):
            raise ValueError("group partition must cover each of the 2*nu real coordinates once")
        object.__setattr__(self, "group_partition", partition)

        alphabet = tuple(np.array(a, dtype=float) for a in self.alphabet)
        if len(alphabet) != len(partition):
            raise ValueError("need one alphabet table per group")
        for g, (coords, table) in enumerate(zip(partition, alphabet)):
            if table.ndim != 2 or table.shape[1] != len(coords) or table.shape[0] < 1:
                raise ValueError(f"alphabet table {g} must have shape (K, {len(coords)})")
            if not np.all(np.isfinite(table)):
                raise ValueError(f"alphabet table {g} has a non-finite entry")
            k = table.shape[0]
            if k & (k - 1):
                raise ValueError(f"alphabet table {g} has {k} entries; bit labels need a power of two")
            table.setflags(write=False)
        object.__setattr__(self, "alphabet", alphabet)

    @property
    def symbol_count(self) -> int:
        return self.relay_matrices[0].shape[0]

    @property
    def slot_count(self) -> int:
        return self.relay_matrices[0].shape[0]

    @property
    def num_relays(self) -> int:
        return len(self.relay_matrices)

    def bits_per_group(self) -> tuple[int, ...]:
        return tuple(table.shape[0].bit_length() - 1 for table in self.alphabet)


def codeword(code: CodeDefinition, s: np.ndarray) -> np.ndarray:
    """Evaluate the (T, R) code word at a complex symbol vector ``s``, or the
    (C, T, R) code words of a (C, nu) batch of symbol vectors."""
    s = np.asarray(s, dtype=complex)
    if s.ndim > 2 or s.shape[-1:] != (code.symbol_count,):
        raise ValueError(f"symbol vector must have length {code.symbol_count}")
    cols = [(np.conj(s) if i in code.conjugated_columns else s) @ a.T for i, a in enumerate(code.relay_matrices)]
    return np.stack(cols, axis=-1)


def _row_entries(code: CodeDefinition):
    """Yield (slot, relay, block, value) for every nonzero code word entry."""
    for relay, matrix in enumerate(code.relay_matrices):
        for slot in range(code.slot_count):
            nz = np.nonzero(matrix[slot])[0]
            if nz.size:
                block = int(nz[0])
                yield slot, relay, block, float(matrix[slot, block])


def row_sets(code: CodeDefinition) -> RowSets:
    """Collect which symbols appear plainly / conjugated in each row."""
    plain = [set() for _ in range(code.slot_count)]
    conj = [set() for _ in range(code.slot_count)]
    for slot, relay, block, _ in _row_entries(code):
        target = conj if relay in code.conjugated_columns else plain
        target[slot].add(block)
    return RowSets(
        plain=tuple(frozenset(p) for p in plain),
        conjugated=tuple(frozenset(c) for c in conj),
    )


def check_feasibility(sets: RowSets) -> FeasibilityReport:
    """Evaluate the three row-structure conditions for asynchronous operation.

    1. No symbol appears both plainly and conjugated in the same row.
    2. Each row carries equally many plain and conjugated symbols, unless
       one of the two sides is empty.
    3. The plain sets of two rows are nested or disjoint.
    """
    n = len(sets.plain)
    for i in range(n):
        both = sets.plain[i] & sets.conjugated[i]
        if both:
            return FeasibilityReport(
                False, 1, (i,),
                f"row {i} carries symbols {sorted(both)} both plainly and conjugated",
            )
    for i in range(n):
        p, c = sets.plain[i], sets.conjugated[i]
        if p and c and len(p) != len(c):
            return FeasibilityReport(
                False, 2, (i,),
                f"row {i} has {len(p)} plain but {len(c)} conjugated symbols",
            )
    for i in range(n):
        for j in range(i + 1, n):
            inter = sets.plain[i] & sets.plain[j]
            if inter and inter != sets.plain[i] and inter != sets.plain[j]:
                return FeasibilityReport(
                    False, 3, (i, j),
                    f"rows {i} and {j} share symbols {sorted(inter)} without nesting",
                )
    return FeasibilityReport(True)


def derive_schedule(code: CodeDefinition) -> RelaySchedule:
    """Two-colour blocks (IDFT/DFT) and slots (plain/reversed) consistently.

    Every nonzero entry (slot, relay, block) constrains the colouring: a
    plain column needs the slot reversed exactly when the block is DFT
    modulated, a conjugated column exactly when it is IDFT modulated.
    Unconstrained components default to IDFT / not reversed. Raises
    ScheduleError when the constraints contradict each other, a relay
    would have to forward the same received block twice, or some symbol is
    sent by no relay (the destination could not decide it).
    """
    nu = code.symbol_count
    t_slots = code.slot_count

    entries = list(_row_entries(code))
    unsent = set(range(nu)).difference(block for _, _, block, _ in entries)
    if unsent:
        raise ScheduleError(f"symbol {min(unsent)} is sent by no relay: its column is zero in every relay matrix")
    seen: dict[tuple[int, int], int] = {}
    for slot, relay, block, _ in entries:
        prev = seen.get((relay, block))
        if prev is not None:
            raise ScheduleError(
                f"relay {relay} would forward block {block} twice (slots {prev} and {slot})"
            )
        seen[(relay, block)] = slot

    # Graph nodes: blocks 0..nu-1 then slots nu..nu+t_slots-1. Boolean label:
    # block True = DFT modulation, slot True = time reversed.
    adjacency: list[list[tuple[int, bool]]] = [[] for _ in range(nu + t_slots)]
    for slot, relay, block, _ in entries:
        flip = relay in code.conjugated_columns
        adjacency[block].append((nu + slot, flip))
        adjacency[nu + slot].append((block, flip))

    labels: list[bool | None] = [None] * (nu + t_slots)
    for start in range(nu + t_slots):
        if labels[start] is not None:
            continue
        labels[start] = False
        queue = [start]
        while queue:
            node = queue.pop()
            for neighbour, flip in adjacency[node]:
                want = labels[node] ^ flip
                if labels[neighbour] is None:
                    labels[neighbour] = want
                    queue.append(neighbour)
                elif labels[neighbour] != want:
                    block, slot = (neighbour, node - nu) if neighbour < nu else (node, neighbour - nu)
                    raise ScheduleError(
                        "no consistent modulation/reversal assignment: "
                        f"block {block} and slot {slot} constraints conflict"
                    )

    modulation = tuple(DFT if labels[j] else IDFT for j in range(nu))
    reversed_slots = tuple(bool(labels[nu + i]) for i in range(t_slots))

    table: list[tuple[RelayInstruction | None, ...]] = []
    by_slot_relay = {(slot, relay): (block, value) for slot, relay, block, value in entries}
    for slot in range(t_slots):
        row: list[RelayInstruction | None] = []
        for relay in range(code.num_relays):
            hit = by_slot_relay.get((slot, relay))
            if hit is None:
                row.append(None)
            else:
                block, value = hit
                row.append(RelayInstruction(block, value, relay in code.conjugated_columns))
        table.append(tuple(row))
    return RelaySchedule(modulation, reversed_slots, tuple(table))


def _alamouti(rotation: float) -> CodeDefinition:
    eye = np.eye(2)
    swap = np.array([[0.0, -1.0], [1.0, 0.0]])
    return CodeDefinition(
        name="alamouti",
        relay_matrices=(eye, swap),
        conjugated_columns=frozenset({1}),
        group_partition=((0, 1), (2, 3)),
        alphabet=(qpsk_pairs(), qpsk_pairs()),
    )


def _four_relay_matrices() -> tuple[np.ndarray, ...]:
    a1 = np.eye(4)
    a2 = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
    )
    a3 = np.array(
        [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float
    )
    a4 = np.array(
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float
    )
    return (a1, a2, a3, a4)


# In-phase coordinates of symbol pairs decode together: {Re s_a, Re s_b} and
# {Im s_a, Im s_b} form one group each for the paired four-relay structure.
_FOUR_GROUPS = ((0, 2), (1, 3), (4, 6), (5, 7))


def _four_relay(rotation: float) -> CodeDefinition:
    pairs = qpsk_pairs(rotation)
    return CodeDefinition(
        name="relay4",
        relay_matrices=_four_relay_matrices(),
        conjugated_columns=frozenset({2, 3}),
        group_partition=_FOUR_GROUPS,
        alphabet=tuple(pairs for _ in range(4)),
    )


def _four_relay_differential(rotation: float) -> CodeDefinition:
    return CodeDefinition(
        name="relay4_diff",
        relay_matrices=_four_relay_matrices(),
        conjugated_columns=frozenset({2, 3}),
        group_partition=_FOUR_GROUPS,
        alphabet=tuple(SCALED_UNITARY_PAIRS for _ in range(4)),
    )


def _five_relay(rotation: float) -> CodeDefinition:
    def embed(rows, cols, block):
        m = np.zeros((6, 6))
        m[np.ix_(rows, cols)] = block
        return m

    pair_plain = np.eye(2)
    pair_conj = np.array([[0.0, -1.0], [1.0, 0.0]])
    matrices = (
        embed([0, 1], [0, 1], pair_plain),
        embed([0, 1], [0, 1], pair_conj),
        embed([2, 3], [2, 3], pair_plain),
        embed([2, 3], [2, 3], pair_conj),
        embed([4, 5], [4, 5], pair_plain),
    )
    # Groups: in-phase (resp. quadrature) parts of each paired block, with
    # the fifth relay's lone symbols riding one coordinate per group.
    groups = ((0, 2, 8), (1, 3, 9), (4, 6, 10), (5, 7, 11))
    levels = np.array([1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)])
    table = _coordinate_product_set(qpsk_pairs(rotation), levels)
    return CodeDefinition(
        name="relay5",
        relay_matrices=matrices,
        conjugated_columns=frozenset({1, 3}),
        group_partition=groups,
        alphabet=tuple(table for _ in range(4)),
    )


def infeasible_example(rotation: float = DEFAULT_ROTATION) -> CodeDefinition:
    """Four-relay code whose cyclically shifted columns overlap row sets.

    Its rows mix plain-symbol sets that are neither nested nor disjoint, so
    no modulation/reversal assignment can serve all relays at once.
    """
    a1 = np.eye(4)
    a2 = np.array(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], dtype=float
    )
    a3 = np.array(
        [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float
    )
    a4 = np.array(
        [[0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=float
    )
    pairs = qpsk_pairs(rotation)
    return CodeDefinition(
        name="example1",
        relay_matrices=(a1, a2, a3, a4),
        conjugated_columns=frozenset({2, 3}),
        group_partition=_FOUR_GROUPS,
        alphabet=tuple(pairs for _ in range(4)),
    )


_BUILTIN = {
    "alamouti": _alamouti,
    "relay4": _four_relay,
    "relay5": _five_relay,
    "relay4_diff": _four_relay_differential,
}


def builtin_codes(rotation: float = DEFAULT_ROTATION) -> dict[str, CodeDefinition]:
    """The shipped code library, keyed by name.

    ``alamouti``    2 relays, 2 slots, symbol-by-symbol decodable.
    ``relay4``      4 relays, 4 slots, four-group decodable, paired rotated
                    QPSK alphabet.
    ``relay5``      5 relays, 6 slots, block-paired structure with a lone
                    fifth column; four groups of three real coordinates.
    ``relay4_diff`` the relay matrices of ``relay4`` with the scaled-unitary
                    pair alphabet used by the differential codebook.
    """
    return {name: build(rotation) for name, build in _BUILTIN.items()}


def named_code(name: str, rotation: float = DEFAULT_ROTATION) -> CodeDefinition:
    """Look up a code by built-in name (``infeasible_example`` included as
    'example1' so the rejection path is reachable from the CLI); only the
    requested code is built."""
    builders = {**_BUILTIN, "example1": infeasible_example}
    try:
        build = builders[name]
    except KeyError:
        raise KeyError(f"unknown code name {name!r}; available: {sorted(builders)}") from None
    return build(rotation)


def _default_alphabet(groups, rotation: float) -> tuple[np.ndarray, ...]:
    tables = []
    level = 1.0 / math.sqrt(2.0)
    for g in groups:
        if len(g) == 2:
            tables.append(qpsk_pairs(rotation))
        else:
            combos = list(itertools.product((level, -level), repeat=len(g)))
            tables.append(np.array(combos))
    return tuple(tables)


def format_code_text(code: CodeDefinition) -> str:
    """Serialise a code to the plain-text interchange format."""
    lines = [f"{code.symbol_count} {code.slot_count} {code.num_relays}"]
    for i, m in enumerate(code.relay_matrices):
        lines.append(f"column conj={1 if i in code.conjugated_columns else 0}")
        for row in m:
            lines.append(" ".join(_format_entry(v) for v in row))
    lines.append("groups " + " | ".join(" ".join(str(i) for i in g) for g in code.group_partition))
    return "\n".join(lines) + "\n"


def _format_entry(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def parse_code_text(
    text: str,
    name: str = "user",
    alphabet: tuple[np.ndarray, ...] | None = None,
    rotation: float = DEFAULT_ROTATION,
) -> CodeDefinition:
    """Parse the plain-text code format.

    Layout: a header line ``nu T R``; then for each of the R columns a line
    ``column conj=0|1`` followed by nu rows of nu whitespace-separated
    entries; then an optional ``groups`` line giving the real-coordinate
    partition as ``|``-separated index lists. Blank lines and ``#`` comments
    are ignored. Without a groups line each complex symbol decodes on its
    own; without an explicit alphabet, two-coordinate groups get the rotated
    QPSK pair set and other sizes a per-coordinate +/-sqrt(1/2) grid.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty code description")

    header = lines[0].split()
    if len(header) != 3:
        raise ValueError("header must be 'nu T R'")
    nu, t_slots, num_relays = (int(v) for v in header)
    if t_slots != nu:
        raise ValueError(f"slot count {t_slots} must equal symbol count {nu}")

    pos = 1
    matrices = []
    conjugated = set()
    for col in range(num_relays):
        if pos >= len(lines) or not lines[pos].startswith("column"):
            raise ValueError(f"expected 'column conj=0|1' for column {col}")
        tag = lines[pos].split("conj=")
        if len(tag) != 2 or tag[1].strip() not in ("0", "1"):
            raise ValueError(f"malformed column header {lines[pos]!r}")
        if tag[1].strip() == "1":
            conjugated.add(col)
        pos += 1
        rows = []
        for r in range(nu):
            if pos >= len(lines):
                raise ValueError(f"column {col} is missing row {r}")
            values = lines[pos].split()
            if len(values) != nu:
                raise ValueError(f"column {col} row {r} has {len(values)} entries, expected {nu}")
            rows.append([float(v) for v in values])
            pos += 1
        matrices.append(np.array(rows))

    groups: tuple[tuple[int, ...], ...]
    if pos < len(lines) and lines[pos].startswith("groups"):
        body = lines[pos][len("groups"):].strip()
        groups = tuple(
            tuple(int(tok) for tok in part.split()) for part in body.split("|") if part.strip()
        )
        pos += 1
    else:
        groups = tuple((2 * j, 2 * j + 1) for j in range(nu))
    if pos != len(lines):
        raise ValueError(f"unexpected trailing content: {lines[pos]!r}")

    if alphabet is None:
        alphabet = _default_alphabet(groups, rotation)
    return CodeDefinition(
        name=name,
        relay_matrices=tuple(matrices),
        conjugated_columns=frozenset(conjugated),
        group_partition=groups,
        alphabet=alphabet,
    )


def load_code(path, **kwargs) -> CodeDefinition:
    """Read a code description file (see ``parse_code_text`` for the format)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = kwargs.pop("name", None) or str(path)
    return parse_code_text(text, name=name, **kwargs)
