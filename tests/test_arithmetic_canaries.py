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
        assert _same_bits(buffer, spectral.add_cp(blocks, cp))


def test_add_reduce_equals_sum():
    # decoder.noise_covariance sums each slot's gathered |g|^2 by np.add.reduce
    rng = np.random.default_rng(92)
    for count in range(1, 20):  # numpy sums pairwise from 8 terms on
        values = np.abs(complex_noise(rng, (6, count))) ** 2
        assert _same_bits(np.add.reduce(values, axis=1), values.sum(axis=1))


def test_a_diagonal_filled_through_flat_equals_np_diag():
    # decoder.noise_covariance fills its (T, T) diagonal through .flat
    rng = np.random.default_rng(93)
    for size in (1, 2, 4, 6, 8):
        diagonal = 1.0 + rng.uniform(0.0, 40.0, size=size)
        cov = np.zeros((size, size), dtype=complex)
        cov.flat[:: size + 1] = diagonal
        assert _same_bits(cov, np.diag(diagonal.astype(complex)))
