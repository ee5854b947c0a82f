"""Differential codebook structure and the channel-blind decoding chain."""

import dataclasses
import math

import numpy as np
import pytest

from asyncrelay.codebook import derive_schedule, format_code_text, named_code, parse_code_text
from asyncrelay.differential import (
    build_codebook_4relay,
    diff_decode_frame,
    diff_encode,
    initial_state,
    verify_commutation,
    verify_scaled_unitary,
)
from asyncrelay.relaysim import LinkConfig, PowerConfig, complex_noise, draw_channel, run_frame

from oracles import diff_codebook_assembly, diff_decisions, diff_decode_scan, diff_group_fields, unpaired_groups_code, word_index


@pytest.fixture(scope="module")
def codebook():
    return build_codebook_4relay(named_code("relay4_diff"))


class TestCodebookStructure:
    def test_sizes(self, codebook):
        assert codebook.num_words == 256
        assert [table.shape[0] for table in codebook.decoder.code.alphabet] == [4, 4, 4, 4]
        assert codebook.bits_per_word == 8
        assert codebook.matrices.shape == (256, 4, 4)

    def test_word_zero_frozen_values(self, codebook):
        # all-zero label: every group takes the first generating pair
        # (1/sqrt(3), 0), giving z1 = z3 = (1 + i)/sqrt(3) and z2 = z4 = 0
        r3 = math.sqrt(3.0)
        z1 = (1.0 + 1.0j) / r3
        c0 = codebook.matrices[0]
        assert c0[0, 0] == pytest.approx(z1 / 2.0)
        expected = 0.5 * np.array(
            [
                [z1, 0, -np.conj(z1), 0],
                [0, z1, 0, -np.conj(z1)],
                [z1, 0, np.conj(z1), 0],
                [0, z1, 0, np.conj(z1)],
            ]
        )
        assert np.allclose(c0, expected)
        assert codebook.scales[0] ** 2 == pytest.approx(1.0 / 3.0)

    def test_every_word_is_scaled_unitary(self, codebook):
        products = np.einsum("kji,kjl->kil", codebook.matrices.conj(), codebook.matrices)
        expected = codebook.scales[:, None, None] ** 2 * np.eye(4)[None]
        assert np.max(np.abs(products - expected)) < 1e-12

    def test_mean_squared_scale_is_one(self, codebook):
        assert abs(np.mean(codebook.scales**2) - 1.0) < 1e-12

    def test_word_index_is_base_4_natural_binary(self, codebook):
        idx = 0b01101100  # digits (1, 2, 3, 0), one per group
        assert word_index((1, 2, 3, 0)) == idx
        fields = diff_group_fields(named_code("relay4_diff"))
        assembled = sum(fields[g, c] for g, c in enumerate((1, 2, 3, 0)))
        assert np.allclose(assembled, codebook.matrices[idx])
        y = complex_noise(np.random.default_rng(54), 4)
        assert diff_decode_frame((codebook.matrices[idx] @ y)[:, None], y[:, None], np.array([1.0]), codebook)[0][0] == idx

    # the code file carries relay4's matrices and groups (and its own
    # alphabet, which the codebook replaces by the generating pairs)
    @pytest.mark.parametrize(
        "code",
        [named_code("relay4_diff"), parse_code_text(format_code_text(named_code("relay4")))],
        ids=["relay4_diff", "relay4 code file"],
    )
    def test_matrices_assemble_from_group_fields(self, code):
        codebook = build_codebook_4relay(code)
        matrices, scales = diff_codebook_assembly(code)
        assert np.array_equal(codebook.matrices.view(np.float64), matrices.view(np.float64))
        assert np.array_equal(codebook.scales.view(np.float64), scales.view(np.float64))


class TestCommutation:
    def test_codebook_commutes_with_relay_matrices(self, codebook):
        report = verify_commutation(codebook, named_code("relay4_diff"))
        assert report
        assert report.max_error < 1e-12

    def test_single_entry_mutation_is_caught(self, codebook):
        mutated = codebook.matrices.copy()
        mutated[17, 2, 3] += 1e-6
        broken = dataclasses.replace(codebook, matrices=mutated)
        report = verify_commutation(broken, named_code("relay4_diff"))
        assert not report
        assert report.max_error > 1e-7

    def test_dimension_mismatch_fails_cleanly(self, codebook):
        report = verify_commutation(codebook, named_code("alamouti"))
        assert not report


class TestScaledUnitary:
    def test_builtin_codebook_passes(self, codebook):
        report = verify_scaled_unitary(codebook)
        assert report and report.max_error < 1e-12

    def test_unpaired_groups_give_words_that_are_not_scaled_unitary(self):
        report = verify_scaled_unitary(build_codebook_4relay(unpaired_groups_code()))
        assert not report
        assert "not scaled unitary" in report.detail

    @pytest.mark.parametrize("name", ["alamouti", "relay5"])
    def test_codes_without_four_coordinate_pairs_have_no_codebook(self, name):
        with pytest.raises(ValueError, match="four coordinate pairs"):
            build_codebook_4relay(named_code(name))


class TestEncoding:
    def test_initial_state(self):
        state = initial_state(4, 5)
        assert state.symbols.shape == (4, 5)
        assert np.allclose(state.symbols[0], 2.0)
        assert np.allclose(state.symbols[1:], 0.0)
        assert np.allclose(state.scales, 1.0)

    def test_norm_tracks_the_scale_chain(self, codebook):
        state = initial_state(4, 3)
        words = np.array([0, 100, 255])
        new = diff_encode(state, words, codebook)
        for k, w in enumerate(words):
            expected = codebook.matrices[w] @ state.symbols[:, k] / state.scales[k]
            assert np.allclose(new.symbols[:, k], expected)
            assert new.scales[k] == pytest.approx(codebook.scales[w])
            assert np.linalg.norm(new.symbols[:, k]) == pytest.approx(
                codebook.scales[w] * np.linalg.norm(state.symbols[:, k])
            )


class TestDecoding:
    def test_grouped_equals_full_search_on_noisy_pairs(self, codebook):
        rng = np.random.default_rng(50)
        for _ in range(60):
            y_prev = complex_noise(rng, 4) * rng.uniform(0.5, 2.0)
            y_now = complex_noise(rng, 4) * rng.uniform(0.5, 2.0)
            scale = rng.uniform(0.5, 1.5)
            decided = diff_decode_frame(y_now[:, None], y_prev[:, None], np.array([scale]), codebook)[0][0]
            assert decided == diff_decode_scan(y_now, y_prev, scale, codebook)[0]

    def test_frame_decode_matches_scalar_decode(self, codebook):
        rng = np.random.default_rng(51)
        y_prev = complex_noise(rng, (4, 6))
        y_now = complex_noise(rng, (4, 6))
        scales = rng.uniform(0.5, 1.5, size=6)
        indices, out_scales = diff_decode_frame(y_now, y_prev, scales, codebook)
        for k in range(6):
            word, scale = diff_decode_scan(y_now[:, k], y_prev[:, k], scales[k], codebook)
            assert indices[k] == word
            assert out_scales[k] == pytest.approx(scale)

    def test_frame_decode_equals_the_einsum_oracle(self, codebook):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = 10_000
            y_prev = complex_noise(rng, (4, n)) * rng.uniform(0.2, 3.0, size=n)
            scales = rng.uniform(0.5, 1.5, size=n)
            words = rng.integers(0, 256, size=n)
            clean = np.einsum("kij,jk->ik", codebook.matrices[words], y_prev) / scales
            y_now = clean + rng.uniform(0.0, 1.5, size=n) * complex_noise(rng, (4, n))
            indices, out_scales = diff_decode_frame(y_now, y_prev, scales, codebook)
            assert np.array_equal(indices, diff_decisions(y_now, y_prev, scales, named_code("relay4_diff")))
            assert np.array_equal(out_scales, codebook.scales[indices])

    def test_exact_recursion_decodes_noiselessly(self, codebook):
        rng = np.random.default_rng(52)
        y = complex_noise(rng, 4)
        scale_prev = 1.0
        word = 201
        y_next = codebook.matrices[word] @ y / scale_prev
        indices, scales = diff_decode_frame(y_next[:, None], y[:, None], np.array([scale_prev]), codebook)
        assert (indices[0], scales[0]) == (word, codebook.scales[word])


class TestGroupedSearchIsExact:
    """The grouped search decides like the full search exactly when the
    cross-group gap of the codebook's pair code vanishes on y_hat."""

    @staticmethod
    def _worst_gap(code) -> float:
        decoder = build_codebook_4relay(code).decoder
        rng = np.random.default_rng(55)
        y_hat = complex_noise(rng, (1000, 4)) * rng.uniform(0.2, 3.0, size=(1000, 1))
        return decoder.gap(y_hat, np.ones(4))

    @pytest.mark.parametrize("name", ["relay4_diff", "relay4"])
    def test_paired_groups_have_no_gap(self, name):
        assert self._worst_gap(named_code(name)) <= 1e-12

    def test_unpaired_groups_have_a_gap(self):
        assert self._worst_gap(unpaired_groups_code()) > 1e-9


class TestPipelineChain:
    def test_noiseless_chain_has_zero_word_errors(self, codebook):
        rng = np.random.default_rng(60)
        code = named_code("relay4_diff")
        schedule = derive_schedule(code)
        n, cp = 8, 3
        link = LinkConfig(schedule, n, cp, PowerConfig(20.0, 1.0, 0.25))
        for _ in range(4):
            channel = draw_channel(rng, 4, cp)
            state = initial_state(4, n)
            y_prev = run_frame(state.symbols, link, channel)
            scales = np.ones(n)
            for _ in range(10):
                tx = rng.integers(0, 256, size=n)
                state = diff_encode(state, tx, codebook)
                y_now = run_frame(state.symbols, link, channel)
                rx, scales = diff_decode_frame(y_now, y_prev, scales, codebook)
                assert np.array_equal(rx, tx)
                y_prev = y_now

    def test_transmit_power_stays_bounded_along_the_chain(self, codebook):
        # scale normalisation keeps the running symbol norm at sqrt(nu) on
        # average; a long chain must not blow up or collapse
        rng = np.random.default_rng(61)
        state = initial_state(4, 16)
        for _ in range(200):
            state = diff_encode(state, rng.integers(0, 256, size=16), codebook)
        norms = np.linalg.norm(state.symbols, axis=0)
        assert np.all(norms > 0.2) and np.all(norms < 20.0)
