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

The codebook words are the coherent code words of a pair code: the code's
own relay matrices and groups, with every group's alphabet the four
generating pairs ``SCALED_UNITARY_PAIRS``, at gain 1/sqrt(nu). With
y_hat = y^{t-1} / a_{t-1} in the place of the channel, the differential
metric ||y^t - C y_hat||^2 is the coherent ML metric of that pair code with
unit slot weights, so ``diff_decode_frame`` is the coherent grouped search
(``decoder.CoherentDecoder.grouped``): four 4-way searches instead of one
256-way search. The search is exact because the cross-group gap of the pair
code vanishes on any y_hat for paired groups (the decoder proves it once
per code); the grouped and the full search agree except on exact ties.

``build_codebook_4relay(code)`` builds the words from the code's own
relay matrices and groups, which makes them scaled unitary and commuting
only for suitable codes; ``verify_scaled_unitary`` and
``verify_commutation`` check both properties, and the simulator rejects a
code in differential mode unless its own codebook passes them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .codebook import SCALED_UNITARY_PAIRS, CodeDefinition, codeword, named_code
from .decoder import CoherentDecoder, full_candidates

__all__ = [
    "CodebookReport",
    "DifferentialCodebook",
    "DifferentialState",
    "build_codebook_4relay",
    "diff_decode",
    "diff_decode_frame",
    "diff_encode",
    "initial_state",
    "verify_commutation",
    "verify_scaled_unitary",
]


@dataclass(frozen=True)
class DifferentialCodebook:
    """The code words, their scales and the grouped search that decodes them."""

    matrices: np.ndarray  # (C, nu, nu) complex
    scales: np.ndarray  # (C,) positive: a with C^H C = a^2 I
    decoder: CoherentDecoder  # grouped search over the pair code, gain 1/sqrt(nu)

    @property
    def num_words(self) -> int:
        return self.matrices.shape[0]

    @property
    def bits_per_word(self) -> int:
        return self.num_words.bit_length() - 1


def build_codebook_4relay(code: CodeDefinition | None = None) -> DifferentialCodebook:
    """Construct the four-relay codebook from its generating pair set.

    Words are indexed by four base-4 digits (one per group, last digit
    fastest), which doubles as the natural-binary 8-bit data label. The
    matrix for a choice is half the four-relay code word evaluated at the
    complex vector assembled from the four coordinate pairs: groups map to
    (Re z1, Re z2), (Im z1, Im z2), (Re z3, Re z4), (Im z3, Im z4).

    Raises ``ValueError`` unless the code has four symbols split into four
    two-coordinate groups. The words are scaled unitary and commute with
    the relay matrices only for suitable codes; ``verify_scaled_unitary``
    and ``verify_commutation`` check that.
    """
    if code is None:
        code = named_code("relay4_diff")
    nu = code.symbol_count
    groups = code.group_partition
    if nu != 4 or len(groups) != 4 or any(len(g) != 2 for g in groups):
        raise ValueError(
            f"the four-relay codebook needs 4 symbols in four coordinate pairs, not {nu} symbols in groups {groups}"
        )
    pair_code = replace(code, alphabet=(SCALED_UNITARY_PAIRS,) * len(groups))
    decoder = CoherentDecoder(pair_code, 1.0 / np.sqrt(nu))
    symbols, choices = full_candidates(pair_code)
    norms = (SCALED_UNITARY_PAIRS**2).sum(axis=1)
    return DifferentialCodebook(
        matrices=decoder.gain * codeword(pair_code, symbols),
        scales=np.sqrt(norms[choices].sum(axis=1) / nu),
        decoder=decoder,
    )


@dataclass(frozen=True)
class CodebookReport:
    passed: bool
    max_error: float
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def verify_scaled_unitary(codebook: DifferentialCodebook, tol: float = 1e-12) -> CodebookReport:
    """Check C^H C == a^2 I for every codebook word C with scale a."""
    nu = codebook.matrices.shape[1]
    products = np.conj(codebook.matrices).transpose(0, 2, 1) @ codebook.matrices
    err = np.abs(products - codebook.scales[:, None, None] ** 2 * np.eye(nu)).max(axis=(1, 2))
    worst = int(np.argmax(err))
    if err[worst] <= tol:
        return CodebookReport(True, float(err[worst]))
    return CodebookReport(False, float(err[worst]), f"word {worst} is not scaled unitary: {err[worst]:.3e}")


def verify_commutation(codebook: DifferentialCodebook, code: CodeDefinition, tol: float = 1e-12) -> CodebookReport:
    """Check C @ A_i == A_i @ C (plain) or C @ A_i == A_i @ conj(C) (conjugated)
    for every codebook word and relay matrix."""
    nu = code.symbol_count
    if codebook.matrices.shape[1:] != (nu, nu):
        return CodebookReport(False, np.inf, "codebook and code dimensions differ")
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
    return CodebookReport(worst <= tol, worst, detail)


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


def diff_decode(
    y_now: np.ndarray, y_prev: np.ndarray, scale_prev: float, codebook: DifferentialCodebook
) -> tuple[int, float]:
    """Word index and scale minimising || y_now - C y_prev / scale_prev ||
    on one subcarrier: the one-column case of ``diff_decode_frame``."""
    y_now = np.asarray(y_now, dtype=complex)
    y_prev = np.asarray(y_prev, dtype=complex)
    indices, scales = diff_decode_frame(y_now[:, None], y_prev[:, None], np.array([scale_prev]), codebook)
    return int(indices[0]), float(scales[0])


def diff_decode_frame(
    y_now: np.ndarray,
    y_prev: np.ndarray,
    scales_prev: np.ndarray,
    codebook: DifferentialCodebook,
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped decode across all subcarriers at once.

    ``y_now``/``y_prev`` are (T, N); returns (word indices (N,), scales (N,))
    for the decision-directed chain. The codebook's coherent grouped search
    decides, with y_hat = y_prev / scales_prev as the channel and unit slot
    weights; the per-group choices are the word's base-4 digits.
    """
    y_hat = (np.asarray(y_prev, dtype=complex) / np.asarray(scales_prev, dtype=float)).T  # (N, nu)
    decoder = codebook.decoder
    choice = decoder.grouped(np.asarray(y_now, dtype=complex), y_hat, np.ones(y_hat.shape[1]))
    indices = np.ravel_multi_index(tuple(choice.T), [table.shape[0] for table in decoder.code.alphabet])
    return indices, codebook.scales[indices]
