"""Independent reference implementations used as test oracles.

Everything in this module is deliberately written the slow, obvious way
(direct summations, explicit loops) so that it shares no code with the
package under test. Tests compare package output against these routines.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np


def dft_direct(x: np.ndarray) -> np.ndarray:
    """Unitary DFT by direct O(N^2) summation. Valid for any length."""
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    out = np.zeros_like(x)
    for k in range(n):
        acc = 0j
        for m in range(n):
            acc += x[..., m] * cmath.exp(-2j * cmath.pi * k * m / n)
        out[..., k] = acc
    return out / math.sqrt(n)


def idft_direct(x: np.ndarray) -> np.ndarray:
    """Unitary inverse DFT by direct O(N^2) summation."""
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    out = np.zeros_like(x)
    for m in range(n):
        acc = 0j
        for k in range(n):
            acc += x[..., k] * cmath.exp(2j * cmath.pi * k * m / n)
        out[..., m] = acc
    return out / math.sqrt(n)


def reverse(block: np.ndarray) -> np.ndarray:
    """Circular index reversal: output n holds input (N - n) mod N, the body
    operation of a relay that time-reverses a cyclic-prefixed symbol."""
    x = np.asarray(block)
    if x.shape[-1] < 1:
        raise ValueError("cannot reverse an empty block")
    return np.roll(x[..., ::-1], 1, axis=-1)


def reverse_direct(x: np.ndarray) -> np.ndarray:
    """Circular reversal by explicit index arithmetic."""
    x = np.asarray(x)
    n = x.shape[-1]
    out = np.empty_like(x)
    for m in range(n):
        out[..., m] = x[..., (n - m) % n]
    return out


def equivalent_channel(code, channel, n_fft: int, subcarrier: int) -> np.ndarray:
    """Per-subcarrier equivalent channel vector, built directly from the model.

    Entry i is f_i * g_i * exp(-2j*pi*k*tau_i/N), with f_i conjugated when
    column i of the code is conjugated.
    """
    entries = []
    for i in range(len(code.relay_matrices)):
        f = channel.source_to_relay[i]
        if i in code.conjugated_columns:
            f = np.conj(f)
        phase = cmath.exp(-2j * cmath.pi * subcarrier * int(channel.delays[i]) / n_fft)
        entries.append(f * channel.relay_to_dest[i] * phase)
    return np.array(entries)


def expected_subcarrier_rx(code, schedule, channel, cfg, symbols: np.ndarray) -> np.ndarray:
    """Noiseless per-subcarrier receive blocks, (num_slots, N), from the flat model.

    ``symbols`` is the (nu, N) frequency-domain source frame. For each
    subcarrier k the expected receive vector is gain * X_k @ h_k with X_k the
    code word at the k-th symbol vector.
    """
    from asyncrelay.codebook import codeword  # structural reuse only: X is the code's definition

    n = symbols.shape[1]
    t_slots = code.relay_matrices[0].shape[0]
    gain = cfg.power.cascade_gain
    out = np.zeros((t_slots, n), dtype=complex)
    for k in range(n):
        h = equivalent_channel(code, channel, cfg.n_fft, k)
        out[:, k] = gain * (codeword(code, symbols[:, k]) @ h)
    return out


def slot_noise_variances(code, schedule, channel, cfg) -> np.ndarray:
    """Diagonal of the per-subcarrier noise covariance, one entry per slot."""
    boost = cfg.power.relay_fraction * cfg.power.total_power / (
        cfg.power.source_fraction * cfg.power.total_power + 1.0
    )
    out = np.ones(schedule.num_slots)
    for slot in range(schedule.num_slots):
        for relay, instr in enumerate(schedule.instructions[slot]):
            if instr is not None:
                out[slot] += boost * abs(channel.relay_to_dest[relay]) ** 2
    return out


def gram_gap(code, h: np.ndarray, noise_var: np.ndarray) -> float:
    """Largest cross-group entry of the real Gram matrix of the whitened
    dispersion vectors at one subcarrier.

    Dispersion vector m is the code word at the m-th unit real coordinate
    (1 or 1j in symbol m // 2) applied to ``h``, divided per slot by the
    noise standard deviation.
    """
    from asyncrelay.codebook import codeword

    nu = code.symbol_count
    vectors = []
    for m in range(2 * nu):
        s = np.zeros(nu, dtype=complex)
        s[m // 2] = 1.0 if m % 2 == 0 else 1j
        vectors.append((codeword(code, s) @ h) / np.sqrt(noise_var))
    group_of = {}
    for g, coords in enumerate(code.group_partition):
        for c in coords:
            group_of[c] = g
    worst = 0.0
    for m in range(2 * nu):
        for n in range(2 * nu):
            if group_of[m] != group_of[n]:
                worst = max(worst, abs(np.real(np.vdot(vectors[n], vectors[m]))))
    return worst


def exhaustive_ml(code, y: np.ndarray, h: np.ndarray, noise_var: np.ndarray, gain: float) -> tuple[int, ...]:
    """Per-group alphabet indices of the whitened-ML code word at one
    subcarrier: every combination of group indices in lexicographic order,
    scored by the whitened residual norm; the first minimum wins."""
    from asyncrelay.codebook import codeword

    best, best_metric = None, math.inf
    for choice in itertools.product(*(range(len(table)) for table in code.alphabet)):
        coords = np.zeros(2 * code.symbol_count)
        for g, group in enumerate(code.group_partition):
            coords[list(group)] = code.alphabet[g][choice[g]]
        s = coords[0::2] + 1j * coords[1::2]
        residual = (y - gain * (codeword(code, s) @ h)) / np.sqrt(noise_var)
        metric = float(np.vdot(residual, residual).real)
        if metric < best_metric:
            best, best_metric = choice, metric
    return best


def sheared_code():
    """Feasible two-relay code whose decoding groups are not orthogonal: both
    columns are plain and share both slots, so grouped search is invalid."""
    from asyncrelay.codebook import CodeDefinition, qpsk_pairs

    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    return CodeDefinition(
        "sheared",
        (np.eye(2), rot),
        frozenset(),
        ((0, 1), (2, 3)),
        (qpsk_pairs(), qpsk_pairs()),
    )


def relay_process_loop(received: np.ndarray, schedule, cfg) -> np.ndarray:
    """Relay forwarding slot by slot and relay by relay, (R, T, N + cp).

    A reversed slot reverses the body circularly (sample m -> (N - m) mod N),
    rotates it right by cp_len and appends its first cp_len samples as the
    prefix of the transmitted symbol.
    """
    n, cp = cfg.n_fft, cfg.cp_len
    num_relays, _, symbol_len = received.shape
    out = np.zeros((num_relays, schedule.num_slots, symbol_len), dtype=complex)
    for slot in range(schedule.num_slots):
        for relay, instr in enumerate(schedule.instructions[slot]):
            if instr is None:
                continue
            symbol = instr.sign * received[relay, instr.block]
            if instr.conjugate:
                symbol = np.conj(symbol)
            if schedule.slot_reversed[slot]:
                body = np.roll(np.roll(symbol[:n][::-1], 1), cp)
                symbol = np.concatenate((body, body[:cp]))
            out[relay, slot] = cfg.power.relay_gain * symbol
    return out


def frontend_loop(raw: np.ndarray, schedule, cfg) -> np.ndarray:
    """Destination front-end slot by slot, (T, N): drop the prefix, rotate
    the body of reversed slots right by cp_len, then a unitary FFT."""
    n, cp = cfg.n_fft, cfg.cp_len
    out = np.empty((schedule.num_slots, n), dtype=complex)
    for slot in range(schedule.num_slots):
        body = raw[slot, cp:]
        out[slot] = np.roll(body, cp) if schedule.slot_reversed[slot] else body
    return np.fft.fft(out, norm="ortho")


def diff_group_fields(code) -> np.ndarray:
    """(G, K, nu, nu) partial matrices of the differential codebook: matrix
    (g, c) is 1/sqrt(nu) times the code word at the symbol vector whose group
    g coordinates are generating pair c and whose other coordinates are 0."""
    from asyncrelay.codebook import SCALED_UNITARY_PAIRS, codeword

    nu = code.symbol_count
    groups = code.group_partition
    k = SCALED_UNITARY_PAIRS.shape[0]
    scale = 1.0 / np.sqrt(nu)
    group_fields = np.zeros((len(groups), k, nu, nu), dtype=complex)
    for g, coords in enumerate(groups):
        for c in range(k):
            real = np.zeros(2 * nu)
            real[list(coords)] = SCALED_UNITARY_PAIRS[c]
            z = real[0::2] + 1j * real[1::2]
            group_fields[g, c] = scale * codeword(code, z)
    return group_fields


def diff_codebook_assembly(code) -> tuple[np.ndarray, np.ndarray]:
    """Differential code words (C, nu, nu) summed from ``diff_group_fields``
    over every per-group choice, last group fastest, and their scales (C,)
    from the squared norms of the chosen pairs."""
    from asyncrelay.codebook import SCALED_UNITARY_PAIRS

    group_fields = diff_group_fields(code)
    num_groups, k, nu, _ = group_fields.shape
    choices = np.array(list(itertools.product(*(range(k),) * num_groups)), dtype=int)
    matrices = np.zeros((len(choices), nu, nu), dtype=complex)
    for g in range(num_groups):
        matrices += group_fields[g, choices[:, g]]
    norms = (SCALED_UNITARY_PAIRS**2).sum(axis=1)
    return matrices, np.sqrt(norms[choices].sum(axis=1) / nu)


def diff_decisions(y_now: np.ndarray, y_prev: np.ndarray, scales_prev: np.ndarray, code) -> np.ndarray:
    """Grouped differential decisions from explicit candidate vectors: for
    every group g and choice c, v = M_gc y_prev / scale_prev is scored by
    ||v||^2 - 2 Re(y_now^H v); the best choices form the word index."""
    v = np.einsum("gcij,jk->gcik", diff_group_fields(code), y_prev) / scales_prev[None, None, None, :]
    cross = np.real(np.einsum("gcik,ik->gck", v, y_now.conj()))
    energy = np.real(np.einsum("gcik,gcik->gck", v, v.conj()))
    choice = np.argmin(energy - 2.0 * cross, axis=1)  # (G, N)
    indices = np.zeros(y_now.shape[1], dtype=int)
    for g in range(choice.shape[0]):
        indices = indices * v.shape[1] + choice[g]
    return indices


def diff_decode_scan(y_now: np.ndarray, y_prev: np.ndarray, scale_prev: float, codebook) -> tuple[int, float]:
    """Differential decision on one subcarrier by scanning every code word
    for the least || y_now - C y_prev / scale_prev ||; returns (word, scale)."""
    v = (codebook.matrices @ np.asarray(y_prev, dtype=complex)) / scale_prev
    residual = np.asarray(y_now, dtype=complex)[None, :] - v
    idx = int(np.argmin(np.einsum("ct,ct->c", residual, residual.conj()).real))
    return idx, float(codebook.scales[idx])


def word_index(group_choice) -> int:
    """Codebook word of one choice (of 4) per group, first group most
    significant."""
    idx = 0
    for c in group_choice:
        idx = idx * 4 + int(c)
    return idx


def complex_noise_two_calls(rng, shape) -> np.ndarray:
    """Unit-variance circular complex Gaussian samples: one standard_normal
    call for the real parts, a second one for the imaginary parts."""
    return math.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def equivalent_channel_exp(code, channel, n_fft: int) -> np.ndarray:
    """(N, R) equivalent channels with a fresh exp over (N, R) per call:
    f (conjugated for conjugated columns) times g times exp(-2j pi k tau / N)."""
    f = channel.source_to_relay.copy()
    conj_cols = sorted(code.conjugated_columns)
    f[conj_cols] = np.conj(f[conj_cols])
    k = np.arange(n_fft)[:, None]
    phases = np.exp(-2j * np.pi * k * np.asarray(channel.delays)[None, :] / n_fft)
    return (f * channel.relay_to_dest)[None, :] * phases


def noise_covariance_loop(schedule, channel, cfg) -> np.ndarray:
    """(T, T) diagonal noise covariance slot by slot: 1 plus the relay noise
    power times the sum of |g|^2 over the slot's active relays."""
    boost = cfg.power.relay_noise_power
    g_sq = np.abs(channel.relay_to_dest) ** 2
    diag = np.ones(schedule.num_slots)
    for slot, row in enumerate(schedule.instructions):
        active = [relay for relay, instr in enumerate(row) if instr is not None]
        if active:
            diag[slot] += boost * g_sq[active].sum()
    return np.diag(diag.astype(complex))


def destination_receive_loop(transmitted: np.ndarray, channel, noise) -> np.ndarray:
    """Delayed superposition relay by relay, each relay's samples scaled by
    its fading coefficient and added ``delays[i]`` samples late, plus the
    given (T, N + cp) noise (or None)."""
    num_relays, num_slots, symbol_len = transmitted.shape
    out = np.zeros((num_slots, symbol_len), dtype=complex)
    for relay in range(num_relays):
        tau = int(channel.delays[relay])
        if tau >= symbol_len:
            continue
        gain = channel.relay_to_dest[relay]
        if tau == 0:
            out += gain * transmitted[relay]
        else:
            out[:, tau:] += gain * transmitted[relay][:, : symbol_len - tau]
    return out if noise is None else out + noise


def pair_products(h_all: np.ndarray) -> np.ndarray:
    """[Re, Im] of every h_r * conj(h_s) per subcarrier, (N, 2*R*R) in
    r-major order: the pair features of the full coefficient tables."""
    pairs = (h_all[:, :, None] * np.conj(h_all)[:, None, :]).reshape(h_all.shape[0], -1)
    return np.concatenate((pairs.real, pairs.imag), axis=1)


def full_features(y: np.ndarray, h_all: np.ndarray) -> np.ndarray:
    """Every feature of the full metric table, (N, 2*R*R + 2*T*R): the pair
    features, then [Re, Im] of conj(y_t) * h_r in t-major order."""
    obs = (np.conj(y.T)[:, :, None] * h_all[:, None, :]).reshape(h_all.shape[0], -1)
    return np.concatenate((pair_products(h_all), obs.real, obs.imag), axis=1)


def full_form(features: np.ndarray, terms: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """A full (T, F, C) coefficient table weighted by the slot weights and
    applied to all F feature columns, (N, C): every row multiplied, zero or
    not."""
    return features @ (w2 @ terms.reshape(len(terms), -1)).reshape(terms.shape[1], -1)


def grouped_argmin_slices(metrics: np.ndarray, sizes) -> np.ndarray:
    """Per-group choices (N, G): the argmin of each group's own block of
    ``sizes[g]`` consecutive metric columns."""
    bounds = np.cumsum([0] + list(sizes))
    return np.stack([np.argmin(metrics[:, lo:hi], axis=1) for lo, hi in zip(bounds[:-1], bounds[1:])], axis=1)


def draw_frame_per_group(rng, code, n_fft: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-group alphabet labels (N, G), one ``integers`` call per group, and
    the (nu, N) frame summed from each group's partial symbol vectors."""
    nu = code.symbol_count
    tx = np.stack([rng.integers(0, table.shape[0], size=n_fft) for table in code.alphabet], axis=1)
    symbols = np.zeros((n_fft, nu), dtype=complex)
    for g, (coords, table) in enumerate(zip(code.group_partition, code.alphabet)):
        real = np.zeros((n_fft, 2 * nu))
        real[:, list(coords)] = table[tx[:, g]]
        symbols += real[:, 0::2] + 1j * real[:, 1::2]
    return tx, symbols.T


def unequal_alphabet_code():
    """relay4's relay matrices and groups with group alphabets of 4, 2, 8 and
    1 points, so grouped search must cope with unequal alphabet sizes."""
    from asyncrelay.codebook import CodeDefinition, named_code, qpsk_pairs

    base = named_code("relay4")
    eight = np.concatenate((qpsk_pairs(), 0.5 * qpsk_pairs(0.4)))
    return CodeDefinition(
        "unequal",
        base.relay_matrices,
        base.conjugated_columns,
        base.group_partition,
        (qpsk_pairs(0.3), qpsk_pairs()[:2], eight, np.array([[0.6, -0.2]])),
    )


def unpaired_groups_code():
    """relay4_diff's matrices with each symbol's (Re, Im) as one group."""
    from asyncrelay.codebook import format_code_text, named_code, parse_code_text

    text = format_code_text(named_code("relay4_diff"))
    return parse_code_text(text.replace("0 2 | 1 3 | 4 6 | 5 7", "0 1 | 2 3 | 4 5 | 6 7"))
