import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from asyncrelay import spectral
from oracles import add_cp, dft_direct, idft_direct, reverse, reverse_direct


def random_block(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestTransformsAgainstDirectSummation:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
    def test_dft_matches_direct_summation(self, n):
        rng = np.random.default_rng(101 + n)
        x = random_block(rng, n)
        assert_allclose(spectral.dft(x), dft_direct(x), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
    def test_idft_matches_direct_summation(self, n):
        rng = np.random.default_rng(202 + n)
        x = random_block(rng, n)
        assert_allclose(spectral.idft(x), idft_direct(x), atol=1e-12)

    def test_constant_block_concentrates_on_bin_zero(self):
        """dft of a constant block is (c*sqrt(N), 0, ..., 0)."""
        c = 0.5 - 2.0j
        out = spectral.dft(np.full(8, c))
        expected = np.zeros(8, dtype=complex)
        expected[0] = c * np.sqrt(8)
        assert_allclose(out, expected, atol=1e-12)

    def test_impulse_spectrum_gives_flat_block(self):
        x = np.zeros(16, dtype=complex)
        x[0] = 4.0
        assert_allclose(spectral.idft(x), np.ones(16), atol=1e-12)

    def test_transforms_are_unitary(self):
        rng = np.random.default_rng(7)
        x = random_block(rng, 64)
        assert_allclose(np.linalg.norm(spectral.dft(x)), np.linalg.norm(x), rtol=1e-12)
        assert_allclose(spectral.idft(spectral.dft(x)), x, atol=1e-12)

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 5, 16)) + 1j * rng.standard_normal((3, 5, 16))
        batched = spectral.dft(x)
        for i in range(3):
            for j in range(5):
                assert_allclose(batched[i, j], spectral.dft(x[i, j]), atol=1e-13)

    @pytest.mark.parametrize("n", [3, 6, 12, 60])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(ValueError, match="power of two"):
            spectral.dft(np.zeros(n))
        with pytest.raises(ValueError, match="power of two"):
            spectral.idft(np.zeros(n))


class TestConjugationAndReversalIdentities:
    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_conjugate_swaps_transforms(self, n):
        rng = np.random.default_rng(n)
        x = random_block(rng, n)
        assert_allclose(np.conj(spectral.dft(x)), spectral.idft(np.conj(x)), atol=1e-12)
        assert_allclose(np.conj(spectral.idft(x)), spectral.dft(np.conj(x)), atol=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_reversal_identity_recovers_block(self, n):
        rng = np.random.default_rng(2 * n + 1)
        x = random_block(rng, n)
        assert_allclose(spectral.dft(reverse(spectral.dft(x))), x, atol=1e-12)

    def test_dft_of_reversed_block_equals_idft(self):
        """Frozen four-point case, checked against the direct-summation oracle."""
        x = np.array([1.0, 2.0j, -1.0, -2.0j])
        out = spectral.dft(reverse(x))
        assert_allclose(out, idft_direct(x), atol=1e-12)
        assert_allclose(out, np.array([0.0, -1.0, 0.0, 3.0]), atol=1e-12)

    def test_reversal_identity_random_against_oracle(self):
        rng = np.random.default_rng(99)
        for n in (4, 16, 64):
            x = random_block(rng, n)
            assert_allclose(spectral.dft(reverse(x)), idft_direct(x), atol=1e-12)


class TestReverse:
    def test_four_point_example(self):
        assert_array_equal(reverse(np.array([1, 2, 3, 4])), [1, 4, 3, 2])

    def test_index_zero_is_fixed(self):
        rng = np.random.default_rng(5)
        x = random_block(rng, 16)
        assert reverse(x)[0] == x[0]

    def test_is_an_involution(self):
        rng = np.random.default_rng(6)
        x = random_block(rng, 32)
        assert_array_equal(reverse(reverse(x)), x)

    def test_matches_index_arithmetic_oracle(self):
        rng = np.random.default_rng(8)
        x = random_block(rng, 16)
        assert_array_equal(reverse(x), reverse_direct(x))

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            reverse(np.zeros(0))


class TestCyclicPrefix:
    def test_add_cp_prepends_tail(self):
        x = np.array([10, 20, 30, 40])
        assert_array_equal(add_cp(x, 2), [30, 40, 10, 20, 30, 40])

    def test_prefix_matches_body_tail(self):
        rng = np.random.default_rng(3)
        x = random_block(rng, 16)
        ext = add_cp(x, 5)
        assert ext.shape == (21,)
        assert_array_equal(ext[:5], ext[-5:])
        assert_array_equal(ext[5:], x)

    def test_zero_length_prefix_is_identity(self):
        x = np.arange(8.0)
        assert_array_equal(add_cp(x, 0), x)

    @pytest.mark.parametrize("cp_len", [-1, 4, 7])
    def test_add_cp_invalid_length_rejected(self, cp_len):
        with pytest.raises(ValueError):
            add_cp(np.zeros(4), cp_len)
