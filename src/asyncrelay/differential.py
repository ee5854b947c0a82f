"""Differential transmission: no channel knowledge at relays or destination.

Data rides on scaled-unitary matrices C with C^H C = a^2 I drawn from a
256-word codebook. The source keeps a per-subcarrier state vector s^t and
sends s^t = C_t s^{t-1} / a_{t-1}, starting from the fixed reference
s^0 = (sqrt(R), 0, ..., 0) with a_0 = 1. Because every codebook matrix
commutes with the relay matrices (plainly for plain columns, through a
conjugate for conjugated ones), the received subcarrier vectors inherit the
same recursion, y^t ~ C_t y^{t-1} / a_{t-1}, in any fading and for any
in-contract delays. The decoder therefore compares y^t against C y^{t-1}
over the codebook, tracking the scale chain decision-directedly.

The codebook is generated by four independent real coordinate pairs, one
per decoding group, so the decoder metric splits into four 4-way searches
instead of one 256-way search; the two searches agree except on exact ties.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .codebook import SCALED_UNITARY_PAIRS, CodeDefinition, codeword

__all__ = [
    "CommutationReport",
    "DecodedStep",
    "DifferentialCodebook",
    "DifferentialState",
    "build_codebook_4relay",
    "diff_decode",
    "diff_decode_frame",
    "diff_encode",
    "initial_state",
    "verify_commutation",
]


@dataclass(frozen=True)
class DifferentialCodebook:
    """All code matrices plus the structure needed for group-wise decoding."""

    matrices: np.ndarray  # (C, nu, nu) complex
    scales: np.ndarray  # (C,) positive: a with C^H C = a^2 I
    group_indices: np.ndarray  # (C, G) per-group choice behind each matrix
    group_fields: np.ndarray  # (G, K, nu, nu) partial matrices per group choice
    pair_set: np.ndarray  # (K, 2) generating coordinate pairs

    @property
    def num_words(self) -> int:
        return self.matrices.shape[0]

    @property
    def num_groups(self) -> int:
        return self.group_fields.shape[0]

    @property
    def choices_per_group(self) -> int:
        return self.group_fields.shape[1]

    @property
    def bits_per_word(self) -> int:
        return self.num_words.bit_length() - 1

    def index_of(self, group_choice) -> int:
        idx = 0
        for c in group_choice:
            idx = idx * self.choices_per_group + int(c)
        return idx


def build_codebook_4relay(code: CodeDefinition | None = None) -> DifferentialCodebook:
    """Construct the four-relay codebook from its generating pair set.

    Words are indexed by four base-4 digits (one per group, last digit
    fastest), which doubles as the natural-binary 8-bit data label. The
    matrix for a choice is half the four-relay code word evaluated at the
    complex vector assembled from the four coordinate pairs: groups map to
    (Re z1, Re z2), (Im z1, Im z2), (Re z3, Re z4), (Im z3, Im z4).
    """
    if code is None:
        from .codebook import builtin_codes

        code = builtin_codes()["relay4_diff"]
    nu = code.symbol_count
    pair_set = SCALED_UNITARY_PAIRS
    k = pair_set.shape[0]
    groups = code.group_partition
    scale = 1.0 / np.sqrt(nu)

    group_fields = np.zeros((len(groups), k, nu, nu), dtype=complex)
    for g, coords in enumerate(groups):
        for c in range(k):
            real = np.zeros(2 * nu)
            real[list(coords)] = pair_set[c]
            z = real[0::2] + 1j * real[1::2]
            group_fields[g, c] = scale * codeword(code, z)

    choices = np.array(list(itertools.product(*(range(k),) * len(groups))), dtype=int)
    matrices = np.zeros((len(choices), nu, nu), dtype=complex)
    for g in range(len(groups)):
        matrices += group_fields[g, choices[:, g]]
    norms = (pair_set**2).sum(axis=1)
    scales = np.sqrt(norms[choices].sum(axis=1) / nu)
    return DifferentialCodebook(
        matrices=matrices,
        scales=scales,
        group_indices=choices,
        group_fields=group_fields,
        pair_set=pair_set,
    )


@dataclass(frozen=True)
class CommutationReport:
    passed: bool
    max_error: float
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def verify_commutation(codebook: DifferentialCodebook, code: CodeDefinition, tol: float = 1e-12) -> CommutationReport:
    """Check C @ A_i == A_i @ C (plain) or C @ A_i == A_i @ conj(C) (conjugated)
    for every codebook word and relay matrix."""
    nu = code.symbol_count
    if codebook.matrices.shape[1:] != (nu, nu):
        return CommutationReport(False, np.inf, "codebook and code dimensions differ")
    worst = 0.0
    detail = ""
    for i, a in enumerate(code.relay_matrices):
        left = codebook.matrices @ a
        if i in code.conjugated_columns:
            right = a @ np.conj(codebook.matrices)
        else:
            right = a @ codebook.matrices
        err = float(np.max(np.abs(left - right)))
        if err > worst:
            worst = err
            detail = f"worst mismatch at relay matrix {i}: {err:.3e}"
    return CommutationReport(worst <= tol, worst, detail)


@dataclass
class DifferentialState:
    """Per-subcarrier encoder state: current symbol vectors and scale chain."""

    symbols: np.ndarray  # (nu, N)
    scales: np.ndarray  # (N,)


def initial_state(nu: int, n_subcarriers: int) -> DifferentialState:
    """Reference state: every subcarrier starts at (sqrt(nu), 0, ..., 0)."""
    symbols = np.zeros((nu, n_subcarriers), dtype=complex)
    symbols[0, :] = np.sqrt(nu)
    return DifferentialState(symbols=symbols, scales=np.ones(n_subcarriers))


def diff_encode(
    state: DifferentialState, word_indices: np.ndarray, codebook: DifferentialCodebook
) -> DifferentialState:
    """Advance the encoder: s <- C s / a_prev per subcarrier."""
    word_indices = np.asarray(word_indices, dtype=int)
    mats = codebook.matrices[word_indices]
    new_symbols = np.einsum("kij,jk->ik", mats, state.symbols) / state.scales[None, :]
    return DifferentialState(symbols=new_symbols, scales=codebook.scales[word_indices])


@dataclass(frozen=True)
class DecodedStep:
    word_index: int
    group_choice: tuple[int, ...]
    scale: float
    matrix: np.ndarray


def diff_decode(
    y_now: np.ndarray,
    y_prev: np.ndarray,
    scale_prev: float,
    codebook: DifferentialCodebook,
    grouped: bool = True,
) -> DecodedStep:
    """Pick the codebook word minimising || y_now - C y_prev / scale_prev ||.

    The grouped search is the one-subcarrier case of ``diff_decode_frame``,
    relying on the codebook's cross-group orthogonality; ``grouped=False``
    scans all words. No channel state enters anywhere.
    """
    y_now = np.asarray(y_now, dtype=complex)
    y_prev = np.asarray(y_prev, dtype=complex)
    if grouped:
        indices, _ = diff_decode_frame(y_now[:, None], y_prev[:, None], np.array([scale_prev]), codebook)
        idx = int(indices[0])
    else:
        v = (codebook.matrices @ y_prev) / scale_prev
        residual = y_now[None, :] - v
        metrics = np.einsum("ct,ct->c", residual, residual.conj()).real
        idx = int(np.argmin(metrics))
    return DecodedStep(
        word_index=idx,
        group_choice=tuple(int(c) for c in codebook.group_indices[idx]),
        scale=float(codebook.scales[idx]),
        matrix=codebook.matrices[idx],
    )


def diff_decode_frame(
    y_now: np.ndarray,
    y_prev: np.ndarray,
    scales_prev: np.ndarray,
    codebook: DifferentialCodebook,
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped decode across all subcarriers at once.

    ``y_now``/``y_prev`` are (T, N); returns (word indices (N,), scales (N,))
    for the decision-directed chain.
    """
    y_now = np.asarray(y_now, dtype=complex)
    y_prev = np.asarray(y_prev, dtype=complex)
    scales_prev = np.asarray(scales_prev, dtype=float)
    n = y_now.shape[1]
    # v[g, c, t, k] = (M_gc @ y_prev)[t, k] / scale_prev[k]
    v = np.einsum("gcij,jk->gcik", codebook.group_fields, y_prev) / scales_prev[None, None, None, :]
    cross = np.real(np.einsum("gcik,ik->gck", v, y_now.conj()))
    energy = np.real(np.einsum("gcik,gcik->gck", v, v.conj()))
    choice = np.argmin(energy - 2.0 * cross, axis=1)  # (G, N)
    indices = np.zeros(n, dtype=int)
    for g in range(codebook.num_groups):
        indices = indices * codebook.choices_per_group + choice[g]
    return indices, codebook.scales[indices]
