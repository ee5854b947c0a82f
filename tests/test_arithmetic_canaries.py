"""Arithmetic facts of numpy that the simulator's exact forms rely on.

The reproducibility contract asks for bit-identical results, and several of
the package's forms equal a slower reference form only because of how this
numpy computes. Each test below asserts one such fact directly, on small
arrays, comparing the bits as ``uint64`` views, so that a numpy upgrade that
breaks one fails one named test here instead of flipping a reference seed
far from its cause. Each test names the package code that relies on it.
"""

import math

import numpy as np

from asyncrelay import spectral
from asyncrelay.relaysim import complex_noise, draw_channel

from oracles import add_cp


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(_bits(a), _bits(b))


def test_one_draw_of_both_fading_vectors_is_the_stream_of_two_complex_noise_calls():
    # relaysim.draw_channel draws f and g in one standard_normal((2, 2, R)) call
    for num_relays in (1, 2, 4, 5, 9):
        two_calls = np.random.default_rng(num_relays)
        f, g = complex_noise(two_calls, num_relays), complex_noise(two_calls, num_relays)
        one_call = np.random.default_rng(num_relays)
        parts = one_call.standard_normal((2, 2, num_relays))
        fading = np.empty((2, num_relays), dtype=complex)
        fading.real = parts[:, 0]
        fading.imag = parts[:, 1]
        fading *= math.sqrt(0.5)
        assert _same_bits(fading[0], f) and _same_bits(fading[1], g)
        assert one_call.integers(1 << 30) == two_calls.integers(1 << 30)  # both streams are at one place
        channel = draw_channel(np.random.default_rng(num_relays), num_relays, cp_len=0)
        assert _same_bits(channel.source_to_relay, f) and _same_bits(channel.relay_to_dest, g)


def test_one_product_by_sign_times_gain_equals_the_sign_then_the_gain():
    # relaysim.relay_process multiplies the gathered samples once by
    # signs * relay_gain (then conjugates), for the sign product followed by
    # the gain product after the conjugation
    rng = np.random.default_rng(90)
    symbols = complex_noise(rng, (12, 80)) * 7.0
    signs = rng.choice([-1.0, 1.0], size=(12, 1))
    conjugate = rng.random((12, 1)) < 0.5
    for gain in (0.1, 1.0, math.sqrt(2.0 / 3.0), 31.6227766):
        stepwise = symbols * signs
        np.conjugate(stepwise, out=stepwise, where=conjugate)
        stepwise = gain * stepwise
        folded = symbols * (signs * gain)
        np.conjugate(folded, out=folded, where=conjugate)
        assert _same_bits(folded, stepwise)


def test_a_transform_written_into_a_prefixed_buffer_equals_add_cp():
    # relaysim.source_transmit writes each block's transform into the body of
    # its symbol and copies the prefix from the body's tail
    rng = np.random.default_rng(91)
    for n, cp in ((8, 0), (8, 2), (64, 16), (256, 32)):
        frame = complex_noise(rng, (4, n))
        transforms = [spectral.dft, spectral.idft, spectral.idft, spectral.dft]
        buffer = np.empty((4, n + cp), dtype=complex)
        for j, transform in enumerate(transforms):
            buffer[j, cp:] = transform(frame[j])
        buffer[:, :cp] = buffer[:, n:]
        blocks = np.stack([transform(frame[j]) for j, transform in enumerate(transforms)])
        assert _same_bits(buffer, add_cp(blocks, cp))


def test_adding_the_noise_into_the_signal_equals_adding_the_signal_into_the_noise():
    # relaysim.relay_receive and destination_receive add the drawn noise into
    # the signal in place; IEEE addition is commutative, part by part
    rng = np.random.default_rng(93)
    for shape in ((2, 6), (4, 80), (10, 1088)):
        signal = complex_noise(rng, shape) * rng.uniform(0.01, 100.0)
        noise = complex_noise(rng, shape)
        into_signal, into_noise = signal.copy(), noise.copy()
        into_signal += noise
        into_noise += signal
        assert _same_bits(into_signal, into_noise)


def test_add_reduce_equals_sum():
    # decoder.noise_covariance sums each slot's gathered |g|^2 by np.add.reduce
    rng = np.random.default_rng(92)
    for count in range(1, 20):  # numpy sums pairwise from 8 terms on
        values = np.abs(complex_noise(rng, (6, count))) ** 2
        assert _same_bits(np.add.reduce(values, axis=1), values.sum(axis=1))


def test_a_gathered_fading_column_times_gathered_blocks_equals_the_rows_of_the_broadcast_product():
    # relaysim.relay_receive forms f[relay][:, None] * symbols[block] for the
    # forwarded rows only, where the dense form was f[:, None, None] * symbols[None]
    rng = np.random.default_rng(94)
    for num_relays, num_blocks, length in ((2, 2, 8), (4, 4, 80), (5, 6, 1088)):
        f = complex_noise(rng, num_relays)
        symbols = complex_noise(rng, (num_blocks, length)) * 3.0
        relays = rng.integers(0, num_relays, size=7)
        blocks = rng.integers(0, num_blocks, size=7)
        dense = f[:, None, None] * symbols[None, :, :]
        assert _same_bits(f[relays][:, None] * symbols[blocks], dense[relays, blocks])


def test_a_gathered_gain_column_times_the_rows_equals_the_per_relay_scalar_product():
    # relaysim.destination_receive scales each row by g[relay][:, None] * x
    rng = np.random.default_rng(95)
    for num_rows, length in ((4, 10), (10, 1088), (16, 288)):
        g = complex_noise(rng, 5)
        relays = rng.integers(0, 5, size=num_rows)
        x = complex_noise(rng, (num_rows, length))
        per_relay = np.stack([g[relay] * x[a] for a, relay in enumerate(relays)])
        assert _same_bits(g[relays][:, None] * x, per_relay)


def test_adding_the_active_rows_into_zeros_equals_the_sum_from_relay_zero_with_silent_zeros():
    # relaysim.destination_receive adds only the forwarding rows, relay by
    # relay, into zeros; the dense form started from relay 0's row and added
    # the +/-0 rows that silent relays scale from zeros, which agrees wherever
    # a sample is nonzero
    rng = np.random.default_rng(96)
    num_relays, num_slots, length = 5, 6, 40
    for _ in range(20):
        active = rng.random((num_relays, num_slots)) < 0.4
        delays = np.sort(rng.integers(0, 12, size=num_relays))
        delays -= delays[0]
        g = complex_noise(rng, num_relays)
        transmitted = np.where(active[:, :, None], complex_noise(rng, (num_relays, num_slots, length)), 0.0)
        faded = g[:, None, None] * transmitted  # silent rows are +/-0
        dense = faded[0].copy()
        for relay in range(1, num_relays):
            dense[:, delays[relay]:] += faded[relay, :, : length - delays[relay]]
        rows = np.zeros((num_slots, length), dtype=complex)
        for relay in range(num_relays):
            for slot in np.flatnonzero(active[relay]):
                rows[slot, delays[relay]:] += faded[relay, slot, : length - delays[relay]]
        nonzero = (dense.real != 0.0) & (dense.imag != 0.0)
        assert np.any(nonzero) and np.array_equal(_bits(rows[nonzero]), _bits(dense[nonzero]))
        assert np.array_equal(rows[~nonzero], dense[~nonzero])  # equal up to the sign of zero


def test_a_stacked_transform_equals_the_transform_of_each_row():
    # relaysim.destination_frontend transforms the (T, N) bodies in one
    # spectral.dft call; a batched pipeline would transform (B, T, N) at once
    rng = np.random.default_rng(97)
    for shape in ((4, 8), (6, 64), (3, 4, 256), (2, 6, 1024)):
        blocks = complex_noise(rng, shape)
        rows = blocks.reshape(-1, shape[-1])
        for transform in (spectral.dft, spectral.idft):
            per_row = np.stack([transform(row) for row in rows]).reshape(shape)
            assert _same_bits(transform(blocks), per_row)


# (rows, kept rows, columns) of the decoder's compact tables: alamouti's
# grouped metric and gap, relay4's grouped metric, gap and exhaustive metric,
# relay5's grouped metric, gap and exhaustive metric
_FORM_SHAPES = ((16, 12, 8), (8, 4, 4), (64, 40, 16), (32, 24, 24), (64, 64, 256), (110, 29, 32), (50, 9, 10), (110, 38, 4096))


def _layouts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` in the two layouts of decoder._Form's first operand: Re/Im runs
    concatenated, which numpy lays out in Fortran order, and a single run, a
    strided view of the real part of complex products."""
    products = np.empty(a.shape, dtype=complex)
    products.real = a
    products.imag = 1.0
    return np.asfortranarray(a), products.real


def test_a_product_over_the_kept_rows_equals_the_product_over_all_rows():
    # decoder._Form keeps only the coefficient rows that are nonzero in some
    # slot and multiplies the features those rows read, in either layout; on
    # N >= 2 numpy runs a GEMM that adds each output element's terms in order
    # when the first operand over all rows is in Fortran order, so the exact
    # zero terms it skips change no bit (a C-ordered operand over all rows
    # does not share this at every width: with 10 columns, as relay5's gap,
    # the sums differ in the last bits)
    rng = np.random.default_rng(98)
    for rows, count, columns in _FORM_SHAPES:
        terms = rng.standard_normal((rows, columns))
        kept = np.sort(rng.choice(rows, count, replace=False))
        terms[np.setdiff1d(np.arange(rows), kept)] = 0.0
        for n in (2, 16, 64) if columns > 256 else (2, 16, 64, 1024):
            features = rng.standard_normal((n, rows)) * rng.uniform(0.1, 10.0)
            full = np.asfortranarray(features) @ terms
            for compact in _layouts(features[:, kept]):
                assert _same_bits(compact @ terms[kept], full)


def test_a_product_with_a_non_c_contiguous_first_operand_equals_its_c_ordered_copy():
    # decoder._Form passes the GEMM either layout of _layouts: at relay5
    # N = 1024 its grouped and exhaustive features are concatenated runs and
    # its gap features a single strided run
    rng = np.random.default_rng(99)
    for _, count, columns in _FORM_SHAPES:
        terms = rng.standard_normal((count, columns))
        for n in (2, 16, 64) if columns > 256 else (2, 16, 64, 1024):
            for first in _layouts(rng.standard_normal((n, count))):
                assert not first.flags.c_contiguous
                assert _same_bits(first @ terms, np.ascontiguousarray(first) @ terms)


def test_one_draw_of_both_parts_is_the_stream_of_two_draws():
    # relaysim.complex_noise and relaysim.frame_noise draw the real and the
    # imaginary parts in one standard_normal((2, *shape)) call
    for shape in ((4,), (5,), (4, 80), (6, 1088), (2, 2, 10), (4, 4, 80), (5, 6, 1088)):
        one_call, two_calls = np.random.default_rng(len(shape)), np.random.default_rng(len(shape))
        parts = one_call.standard_normal((2, *shape))
        real, imag = two_calls.standard_normal(shape), two_calls.standard_normal(shape)
        assert _same_bits(parts[0], real) and _same_bits(parts[1], imag)
        assert one_call.integers(1 << 30) == two_calls.integers(1 << 30)  # both streams are at one place


def test_one_sum_per_slot_class_equals_the_row_sums_of_its_gather():
    # decoder.noise_covariance sums each slot class's gathered |g|^2 once,
    # by np.add.reduce over its k active relays; a batched form sums a
    # (S, k) gather along its rows. Both add the k terms in one order, for
    # k below and above numpy's 8-term pairwise block. A (T, R) masked sum
    # with zeros for the silent relays is not such a form: it rounds
    # differently at R = 12 already for 4 active relays.
    rng = np.random.default_rng(100)
    for count in range(1, 11):
        for slots in (1, 2, 4, 6):
            g_sq = np.abs(complex_noise(rng, 12)) ** 2 * rng.uniform(0.1, 10.0)
            relays = np.array([np.sort(rng.choice(12, count, replace=False)) for _ in range(slots)])
            per_slot = np.array([np.add.reduce(g_sq[row]) for row in relays])
            assert _same_bits(np.add.reduce(g_sq[relays], axis=1), per_slot)


def test_a_broadcast_first_product_equals_the_per_relay_scalar_product():
    # decoder.equivalent_channel_matrix forms (f * g)[None, :] * phases on
    # (N, R) x (R,); a batched form broadcasts (B, 1, R) over (B, N, R). Both
    # equal relay r's scalar times its column of phases. A product of two
    # complex scalars (Python or numpy) is not the same operation: the array
    # loops of a numpy built for AVX2 or later fuse the multiply-adds, so
    # element-by-element scalar products differ in the last bits there.
    rng = np.random.default_rng(101)
    for num_relays in (1, 2, 4, 5, 9):
        for n in (1, 2, 16, 64, 1024):
            fg = complex_noise(rng, num_relays) * complex_noise(rng, num_relays)
            phases = np.exp(-2j * np.pi * rng.random((3, n, num_relays)))
            per_relay = np.stack([fg[r] * phases[0, :, r] for r in range(num_relays)], axis=1)
            assert _same_bits(fg[None, :] * phases[0], per_relay)
            scaled = np.stack([fg, 1.5 * fg, 1j * fg])
            per_unit = np.stack([scaled[b][None, :] * phases[b] for b in range(3)])
            assert _same_bits(scaled[:, None, :] * phases, per_unit)


def test_on_one_subcarrier_the_kept_row_product_may_round_differently_but_decides_the_same():
    # decoder._Form on N = 1: numpy takes the GEMV path, whose partial sums
    # depend on the row count, so the kept-row product may differ from the
    # all-row product in the last bits (with numpy 2.4 and OpenBLAS 0.3.31
    # it does on most draws of every shape that drops a row); the decoder
    # relies only on its argmin being the same
    rng = np.random.default_rng(102)
    for rows, count, columns in _FORM_SHAPES:
        for _ in range(10):
            terms = rng.standard_normal((rows, columns))
            kept = np.sort(rng.choice(rows, count, replace=False))
            terms[np.setdiff1d(np.arange(rows), kept)] = 0.0
            features = rng.standard_normal((1, rows)) * rng.uniform(0.1, 10.0)
            full = np.asfortranarray(features) @ terms
            compact = features[:, kept] @ terms[kept]
            assert np.allclose(compact, full, rtol=0.0, atol=1e-14 * np.abs(full).max())
            assert compact.argmin() == full.argmin()
