"""Whitened maximum-likelihood decoding and its group decomposition."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from asyncrelay.codebook import CodeDefinition, RelaySchedule, builtin_codes, codeword, derive_schedule, named_code, qpsk_pairs
from asyncrelay.decoder import (
    CoherentDecoder,
    _Form,
    _gap_terms,
    _metric_terms,
    _proof,
    _used,
    delay_phases,
    equivalent_channel_matrix,
    full_candidates,
    group_candidates,
    noise_covariance,
    real_to_complex,
    rotation_table,
)
from asyncrelay.differential import build_codebook_4relay
from asyncrelay.relaysim import ChannelRealization, LinkConfig, PowerConfig, complex_noise, draw_channel

from oracles import (
    equivalent_channel,
    equivalent_channel_exp,
    exhaustive_ml,
    full_features,
    full_form,
    gap_terms_loop,
    gram_gap,
    grouped_argmin_slices,
    noise_covariance_loop,
    pair_products,
    sheared_code,
    slot_classes_loop,
    slot_noise_variances,
    slot_swapped_code,
    unequal_alphabet_code,
    unpaired_groups_code,
)


def _model_for(code, rng, n=16, cp=4, power=10.0, subcarrier=3):
    """A drawn subcarrier's flat model, its (1, R) channel slice and (T,)
    slot weights, and the decoder of its cascade gain."""
    schedule = derive_schedule(code)
    link = LinkConfig(schedule, n, cp, PowerConfig(power, 1.0, 1.0 / code.num_relays))
    channel = draw_channel(rng, code.num_relays, cp)
    h = equivalent_channel_matrix(code, channel, n)[subcarrier : subcarrier + 1]
    w2 = 1.0 / noise_covariance(link, channel)
    return h, w2, CoherentDecoder(code, link.power.cascade_gain)


def _coords(symbols):
    """Real coordinates (..., 2*nu) of symbol vectors (..., nu), real and
    imaginary parts interleaved."""
    return np.stack((symbols.real, symbols.imag), axis=-1).reshape(*symbols.shape[:-1], -1)


class TestChannelAssembly:
    def test_equivalent_channel_matches_direct_construction(self):
        rng = np.random.default_rng(4)
        code = named_code("relay4")
        channel = draw_channel(rng, 4, cp_len=8)
        h_all = equivalent_channel_matrix(code, channel, 16)
        for k in (0, 1, 7, 15):
            assert np.allclose(h_all[k], equivalent_channel(code, channel, 16, k))

    def test_delay_phase_example(self):
        phases = delay_phases(8, np.array([0, 3]))
        assert np.allclose(phases[:, 0], 1.0)
        assert phases[1, 1] == pytest.approx(np.exp(-2j * np.pi * 3 / 8))
        assert phases[0, 1] == pytest.approx(1.0)

    def test_noise_covariance_matches_oracle(self):
        rng = np.random.default_rng(8)
        for name in ("alamouti", "relay4", "relay5"):
            code = named_code(name)
            schedule = derive_schedule(code)
            link = LinkConfig(schedule, 16, 4, PowerConfig(9.0, 1.0, 1.0 / code.num_relays))
            channel = draw_channel(rng, code.num_relays, 4)
            var = noise_covariance(link, channel)
            assert var.shape == (schedule.num_slots,)
            assert np.allclose(var, slot_noise_variances(link, channel))


def _all_codes():
    return [*builtin_codes().values(), sheared_code()]


def _wide_schedule() -> RelaySchedule:
    """Twelve relays over five slots with 12, 9, 8, 3 and no active relays:
    from 8 terms on, numpy sums pairwise, so a sum over all twelve relays
    with zeros for the silent ones would round differently. Relay r
    forwards block (slot + r) mod 5, so every block is sent, and none twice
    by one relay."""
    active = (range(12), range(9), range(2, 10), (1, 5, 7), ())
    matrices = np.zeros((12, 5, 5))
    for slot, relays in enumerate(active):
        for relay in relays:
            matrices[relay, slot, (slot + relay) % 5] = 1.0
    code = CodeDefinition("wide", tuple(matrices), frozenset(), tuple((2 * j, 2 * j + 1) for j in range(5)), (qpsk_pairs(),) * 5)
    return derive_schedule(code)


class TestTablesReproduceThePerUnitComputation:
    """Tables built once per code, schedule or n_fft give the per-unit
    results they replace bit for bit (compared as float views)."""

    @pytest.mark.parametrize("n, cp", [(8, 2), (64, 16), (256, 32), (1024, 64)])
    def test_equivalent_channel_with_drawn_delays(self, n, cp):
        rng = np.random.default_rng(n + cp)
        for code in _all_codes():
            rotations = rotation_table(n, cp)
            for _ in range(25):
                channel = draw_channel(rng, code.num_relays, cp)
                expected = equivalent_channel_exp(code, channel, n).view(float)
                for got in (equivalent_channel_matrix(code, channel, n, rotations=rotations), equivalent_channel_matrix(code, channel, n)):
                    assert np.array_equal(got.view(float), expected)

    @pytest.mark.parametrize("n, cp", [(16, 4), (64, 16)])
    def test_equivalent_channel_with_fixed_delays_past_the_prefix(self, n, cp):
        rng = np.random.default_rng(n)
        for code in _all_codes():
            for last in (cp + 1, 3 * cp, n - 1, n, n + cp, 5 * n):
                delays = np.round(np.linspace(0, last, code.num_relays)).astype(int)
                channel = draw_channel(rng, code.num_relays, cp, delays)
                rotations = rotation_table(n, cp, delays)
                expected = equivalent_channel_exp(code, channel, n).view(float)
                for got in (equivalent_channel_matrix(code, channel, n, rotations=rotations), equivalent_channel_matrix(code, channel, n)):
                    assert np.array_equal(got.view(float), expected)

    def test_noise_covariance_equals_the_slot_loop(self):
        rng = np.random.default_rng(12)
        for schedule in [*(derive_schedule(code) for code in _all_codes()), _wide_schedule()]:
            for _ in range(20):
                link = LinkConfig(schedule, 16, 4, PowerConfig(rng.uniform(0.5, 500.0), 1.0, rng.uniform(0.05, 1.0)))
                channel = draw_channel(rng, schedule.num_relays, 4)
                got = noise_covariance(link, channel)
                assert np.array_equal(got.view(float), noise_covariance_loop(link, channel).view(float))

    def test_grouped_search_over_unequal_alphabets_equals_the_per_group_argmin(self):
        code = unequal_alphabet_code()
        sizes = [table.shape[0] for table in code.alphabet]
        assert sizes == [4, 2, 8, 1]
        rng = np.random.default_rng(13)
        gain = 1.7
        decoder = CoherentDecoder(code, gain)
        unpadded = _metric_terms(codeword(code, np.concatenate(group_candidates(code))), gain)
        for _ in range(10):
            h_all = complex_noise(rng, (8, code.num_relays))
            w2 = np.full(code.slot_count, rng.uniform(0.2, 1.0))  # relay4 slots share one variance
            y = complex_noise(rng, (code.slot_count, 8)) * rng.uniform(0.5, 3.0)
            decided = decoder.grouped(y, h_all, w2)
            metrics = full_form(full_features(y, h_all), unpadded, w2)
            assert np.array_equal(decided, grouped_argmin_slices(metrics, sizes))
            for k in range(8):  # the groups stay orthogonal, so this is the joint ML decision
                assert tuple(int(i) for i in decided[k]) == exhaustive_ml(code, y[:, k], h_all[k], 1.0 / w2, gain)


class TestModelContract:
    # (4, 1) used to be broadcast over the 8 channels, and (6, 8) to be
    # decided from its first 4 slots
    @pytest.mark.parametrize("shape", [(4, 1), (6, 8), (4,), (4, 5), (3, 8), (4, 8, 1)])
    def test_observation_must_match_slots_and_subcarriers(self, shape):
        decoder = CoherentDecoder(named_code("relay4"), 3.0)
        rng = np.random.default_rng(5)
        h_all, w2 = complex_noise(rng, (8, 4)), np.ones(4)
        for search in (decoder.grouped, decoder.exhaustive):
            with pytest.raises(ValueError, match=re.escape(f"got shapes {shape}, (8, 4) and (4,)")):
                search(complex_noise(rng, shape), h_all, w2)

    # relay4's proof compares only the first 4 weights and reads no channel:
    # its gap used to be 0.0 for (8, 3) channels and 5 or 6 weights
    @pytest.mark.parametrize(
        "h_shape, w2_shape",
        [((8,), (4,)), ((8, 3), (4,)), ((8, 4, 1), (4,)), ((), (4,)), ((8, 4), (3,)), ((8, 4), (4, 1)), ((8, 4), (5,)),
         ((8, 4), (6,))],
    )
    def test_channels_and_weights_must_match_the_code(self, h_shape, w2_shape):
        decoder = CoherentDecoder(named_code("relay4"), 1.0)
        y = np.zeros((4, 8), dtype=complex)
        h_all, w2 = np.ones(h_shape, dtype=complex), np.ones(w2_shape)
        for search in (decoder.grouped, decoder.exhaustive):
            with pytest.raises(ValueError, match="got shapes"):
                search(y, h_all, w2)
        with pytest.raises(ValueError, match="got shapes"):
            decoder.gap(h_all, w2)


class TestCoordinateMaps:
    def test_interleaving_convention(self):
        assert np.array_equal(real_to_complex(np.array([1.0, 2.0, -3.0, 4.0])), [1.0 + 2.0j, -3.0 + 4.0j])
        assert np.array_equal(_coords(np.array([1.0 + 2.0j, -3.0 + 4.0j])), [1.0, 2.0, -3.0, 4.0])


class TestDispersionStructure:
    @pytest.mark.parametrize("name", ["alamouti", "relay4", "relay5"])
    def test_codeword_is_linear_in_real_coordinates(self, name):
        rng = np.random.default_rng(10)
        code = named_code(name)
        h = complex_noise(rng, code.num_relays)
        basis = codeword(code, real_to_complex(np.eye(2 * code.symbol_count))) @ h  # (2*nu, T): unit coordinates
        s = complex_noise(rng, code.symbol_count)
        assert np.allclose(codeword(code, s) @ h, _coords(s) @ basis)

    @pytest.mark.parametrize(
        "name", ["alamouti", "relay4", "relay5", "relay4_diff", "sheared", "unpaired", "swapped"]
    )
    def test_gap_table_from_unit_coordinates_equals_the_per_relay_bases(self, name):
        """The gap table read off the code words at unit real coordinates
        equals the one built from each relay's dispersion basis: equal values,
        the same kept rows and Gram columns, and the same proof. It need not
        be byte-equal, as some zeros change sign, but no decision reads a
        zero's sign: the gap is read through abs().max() and the proof
        through exact sums."""
        others = {"sheared": sheared_code, "unpaired": unpaired_groups_code, "swapped": slot_swapped_code}
        code = others.get(name, lambda: named_code(name))()
        terms, expected = _gap_terms(code), gap_terms_loop(code)
        assert np.array_equal(terms, expected)
        for axis in ((0, 2), (0, 1)):
            assert np.array_equal(_used(terms, axis), _used(expected, axis))
        assert _proof(code, terms) == _proof(code, expected)
        decoder = CoherentDecoder(code, 1.0)
        rng = np.random.default_rng(22)
        for _ in range(5):
            h_all, _, w2 = _draw(rng, code, 16)
            full = full_form(pair_products(h_all), expected, w2)[:, decoder._gap.columns]
            assert np.array_equal(np.abs(decoder._gap(h_all, w2)), np.abs(full))

    @pytest.mark.parametrize("name", ["alamouti", "relay4", "relay5", "relay4_diff"])
    def test_cross_group_products_vanish_for_builtins(self, name):
        rng = np.random.default_rng(20)
        code = named_code(name)
        for _ in range(20):
            h, w2, decoder = _model_for(code, rng)
            assert decoder.gap(h, w2) < 1e-9

    @pytest.mark.parametrize("name", ["alamouti", "relay4", "relay5", "sheared"])
    def test_gap_matches_the_explicit_gram_matrix(self, name):
        rng = np.random.default_rng(21)
        code = sheared_code() if name == "sheared" else named_code(name)
        decoder = CoherentDecoder(code, 1.0)
        for _ in range(5):
            h = complex_noise(rng, code.num_relays)
            variances = rng.uniform(1.0, 4.0, size=code.slot_count)
            assert abs(decoder.gap(h[None], 1.0 / variances) - gram_gap(code, h, variances)) <= 1e-12

    def test_candidate_enumeration_is_lexicographic(self):
        code = named_code("relay4")
        _, index_table = full_candidates(code)
        assert index_table.shape == (256, 4)
        assert list(index_table[0]) == [0, 0, 0, 0]
        assert list(index_table[1]) == [0, 0, 0, 1]
        assert list(index_table[4]) == [0, 0, 1, 0]
        assert list(index_table[255]) == [3, 3, 3, 3]

    def test_group_candidates_touch_only_their_coordinates(self):
        code = named_code("relay5")
        for coords, partial in zip(code.group_partition, group_candidates(code)):
            real = _coords(partial)
            other = [i for i in range(2 * code.symbol_count) if i not in coords]
            assert np.allclose(real[:, other], 0.0)
            assert np.allclose(real[:, list(coords)], code.alphabet[0])


class TestDecoding:
    @pytest.mark.parametrize("name", ["alamouti", "relay4", "relay5"])
    def test_noiseless_observation_decodes_exactly(self, name):
        rng = np.random.default_rng(30)
        code = named_code(name)
        candidates, index_table = full_candidates(code)
        for _ in range(5):
            h, w2, decoder = _model_for(code, rng)
            i = rng.integers(0, len(candidates))
            y = decoder.gain * (codeword(code, candidates[i]) @ h[0])
            assert decoder.gap(h, w2) == 0.0
            assert np.array_equal(decoder.grouped(y[:, None], h, w2), index_table[i : i + 1])

    @pytest.mark.parametrize("name", ["alamouti", "relay4", "relay5"])
    def test_grouped_equals_exhaustive_on_noisy_inputs(self, name):
        rng = np.random.default_rng(31)
        code = named_code(name)
        for _ in range(40):
            h, w2, decoder = _model_for(code, rng, power=rng.uniform(0.5, 50.0))
            y = complex_noise(rng, code.slot_count)[:, None] * rng.uniform(0.1, 5.0)
            assert decoder.gap(h, w2) == 0.0
            assert np.array_equal(decoder.grouped(y, h, w2), decoder.exhaustive(y, h, w2))

    @pytest.mark.parametrize("name", ["relay4", "sheared"])
    def test_exhaustive_matches_the_residual_norm_oracle(self, name):
        rng = np.random.default_rng(32)
        code = sheared_code() if name == "sheared" else named_code(name)
        for _ in range(10):
            h = complex_noise(rng, code.num_relays)
            variances = rng.uniform(1.0, 4.0, size=code.slot_count)
            gain = rng.uniform(0.5, 3.0)
            y = complex_noise(rng, code.slot_count) * rng.uniform(0.5, 3.0)
            (decided,) = CoherentDecoder(code, gain).exhaustive(y[:, None], h[None], 1.0 / variances)
            assert np.array_equal(decided, exhaustive_ml(code, y, h, variances, gain))

    def test_a_subcarrier_is_a_slice_of_the_frame(self):
        rng = np.random.default_rng(34)
        code = named_code("relay4")
        decoder = CoherentDecoder(code, 2.0)
        h_all = complex_noise(rng, (6, 4))
        w2 = 1.0 / np.full(4, 1.5)
        y = complex_noise(rng, (4, 6))
        assert decoder.gap(h_all, w2) == 0.0
        grouped = decoder.grouped(y, h_all, w2)
        exhaustive = decoder.exhaustive(y, h_all, w2)
        assert grouped.shape == exhaustive.shape == (6, len(code.group_partition))
        for k in range(6):
            one = y[:, k : k + 1], h_all[k : k + 1], w2
            assert np.array_equal(grouped[k : k + 1], decoder.grouped(*one))
            assert np.array_equal(exhaustive[k : k + 1], decoder.exhaustive(*one))
        per_subcarrier = max(decoder.gap(h_all[k : k + 1], w2) for k in range(6))
        assert decoder.gap(h_all, w2) == pytest.approx(per_subcarrier, abs=1e-12)

    def test_all_tied_metrics_pick_the_first_candidate(self):
        decoder = CoherentDecoder(named_code("relay4"), 1.0)
        h, w2, y = np.zeros((1, 4), dtype=complex), np.ones(4), np.zeros((4, 1), dtype=complex)
        assert np.array_equal(decoder.exhaustive(y, h, w2), [[0, 0, 0, 0]])
        assert np.array_equal(decoder.grouped(y, h, w2), [[0, 0, 0, 0]])

    def test_decision_invariant_to_common_observation_scale(self):
        # whitened metric ranking is not affected by scaling y and gain together
        rng = np.random.default_rng(33)
        code = named_code("relay4")
        h, w2, decoder = _model_for(code, rng)
        y = complex_noise(rng, 4)[:, None]
        scaled = CoherentDecoder(code, decoder.gain * 4.0)
        assert decoder.gap(h, w2) == scaled.gap(h, w2 / 16.0) == 0.0
        assert np.array_equal(decoder.grouped(y, h, w2), scaled.grouped(4.0 * y, h, w2 / 16.0))


def _compact_code(name):
    if name == "pair":  # the differential codebook's pair code
        return build_codebook_4relay(named_code("relay4_diff")).decoder.code
    return {"sheared": sheared_code, "unequal": unequal_alphabet_code}.get(name, lambda: named_code(name))()


def _padded_group_terms(code, gain):
    """The full (T, F, C) metric table of the grouped search: every group's
    candidates padded to the largest alphabet by repeating its last one."""
    partials = group_candidates(code)
    width = max(len(p) for p in partials)
    padded = [np.concatenate((p, np.repeat(p[-1:], width - len(p), axis=0))) for p in partials]
    return _metric_terms(codeword(code, np.concatenate(padded)), gain)


def _exhaustive_metric(decoder, y, h_all, w2):
    """The decoder's exhaustive table and its compact metrics (N, C)."""
    decoder.exhaustive(y, h_all, w2)  # builds the table on first use
    index_table, metric = decoder._full
    return index_table, metric, metric(h_all, w2, y)


def _draw(rng, code, n):
    h_all = complex_noise(rng, (n, code.num_relays)) * rng.uniform(0.1, 10.0)
    y = complex_noise(rng, (code.slot_count, n)) * rng.uniform(0.1, 10.0)
    return h_all, y, rng.uniform(0.1, 2.0, size=code.slot_count)


def _same_bits(a, b):
    return np.array_equal(np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))


COMPACT_CODES = ["alamouti", "relay4", "relay5", "relay4_diff", "sheared", "unequal", "pair"]


def _proof_decoder(name):
    """The decoder of a built-in code, or of the differential pair code."""
    if name == "pair":
        return build_codebook_4relay(named_code("relay4_diff")).decoder
    return CoherentDecoder(named_code(name), 1.7)


class TestDecodabilityProof:
    """A code is proven group-decodable once, with its gap table: the
    cross-group Gram coefficients, folded onto the independent features of
    h_r conj(h_s) and summed over each class of slots with one set of active
    relays, are exactly zero. ``gap`` then reports 0.0 for weights constant
    on each class and computes the Gram entries for any other weights."""

    PROVEN = ["alamouti", "relay4", "relay5", "relay4_diff", "pair"]

    @pytest.mark.parametrize("name", PROVEN)
    def test_builtin_codes_and_the_pair_code_are_proven(self, name):
        assert _proof_decoder(name)._proof is not None

    def test_sheared_and_unpaired_codes_are_not_proven(self):
        assert CoherentDecoder(sheared_code(), 1.0)._proof is None
        assert build_codebook_4relay(unpaired_groups_code()).decoder._proof is None

    @pytest.mark.parametrize("name", PROVEN)
    def test_proven_codes_have_no_gap_for_class_constant_weights(self, name, monkeypatch):
        decoder = _proof_decoder(name)
        code = decoder.code
        classes = [slots for _, slots in slot_classes_loop(code)]
        monkeypatch.setattr(_Form, "__call__", lambda *args: pytest.fail("numeric gap path taken"))
        rng = np.random.default_rng(80)
        worst = 0.0
        for _ in range(200):
            h = complex_noise(rng, code.num_relays) * rng.uniform(0.1, 3.0)
            variances = np.empty(code.slot_count)
            for slots in classes:
                variances[slots] = rng.uniform(1.0, 50.0)
            worst = max(worst, gram_gap(code, h, variances))
            assert decoder.gap(h[None, :], 1.0 / variances) == 0.0
        assert worst <= 1e-12

    @pytest.mark.parametrize("name", PROVEN)
    def test_weights_varying_within_a_class_take_the_numeric_path(self, name):
        decoder = _proof_decoder(name)
        code = decoder.code
        assert any(len(slots) > 1 for _, slots in slot_classes_loop(code))
        rng = np.random.default_rng(81)
        for _ in range(20):
            h_all = complex_noise(rng, (4, code.num_relays))
            variances = rng.uniform(1.0, 4.0, size=code.slot_count)
            gap = decoder.gap(h_all, 1.0 / variances)
            assert gap == float(np.abs(decoder._gap(h_all, 1.0 / variances)).max())
            assert abs(gap - max(gram_gap(code, h, variances) for h in h_all)) <= 1e-12

    def test_an_unproven_code_takes_the_numeric_path_for_any_weights(self):
        code = sheared_code()
        decoder = CoherentDecoder(code, 1.0)
        rng = np.random.default_rng(82)
        h_all = complex_noise(rng, (4, code.num_relays))
        gap = decoder.gap(h_all, np.ones(code.slot_count))
        assert gap == pytest.approx(max(gram_gap(code, h, np.ones(code.slot_count)) for h in h_all), abs=1e-12)
        assert gap > 1e-9


class TestCompactTables:
    """Each table keeps the rows (and Gram columns) that are nonzero in some
    slot, in their original order, and the decoder forms only the products
    they read. On N >= 2 subcarriers the products are GEMMs, which add the
    kept terms in the same order, so compact metrics and Gram entries equal
    the oracle's full-table products bit for bit. On N = 1 numpy takes the
    GEMV path instead, whose last bits may differ; decisions still match."""

    @pytest.mark.parametrize("n", [2, 16, 64, 1024])
    @pytest.mark.parametrize("name", COMPACT_CODES)
    def test_metrics_and_gram_entries_equal_the_full_tables(self, name, n):
        code = _compact_code(name)
        gain = 1.3
        decoder = CoherentDecoder(code, gain)
        group_terms, gap_terms = _padded_group_terms(code, gain), _gap_terms(code)
        rng = np.random.default_rng(n)
        for _ in range(3 if n == 1024 else 20):
            h_all, y, w2 = _draw(rng, code, n)
            metrics = decoder._group(h_all, w2, y)
            assert _same_bits(metrics, full_form(full_features(y, h_all), group_terms, w2))
            gram = decoder._gap(h_all, w2)
            assert _same_bits(gram, full_form(pair_products(h_all), gap_terms, w2)[:, decoder._gap.columns])

    @pytest.mark.parametrize("n", [2, 16, 64, 1024])
    @pytest.mark.parametrize("name", ["sheared", "relay5"])
    def test_exhaustive_metrics_equal_the_full_table(self, name, n):
        code = _compact_code(name)
        gain = 0.8
        decoder = CoherentDecoder(code, gain)
        symbols, _ = full_candidates(code)
        full_terms = _metric_terms(codeword(code, symbols), gain)
        rng = np.random.default_rng(n + 1)
        for _ in range(1 if n == 1024 else 4):
            h_all, y, w2 = _draw(rng, code, n)
            _, _, metrics = _exhaustive_metric(decoder, y, h_all, w2)
            assert _same_bits(metrics, full_form(full_features(y, h_all), full_terms, w2))

    @pytest.mark.parametrize("name", COMPACT_CODES)
    def test_one_subcarrier_gives_the_decisions_of_the_full_tables(self, name):
        code = _compact_code(name)
        gain = 1.1
        decoder = CoherentDecoder(code, gain)
        group_terms, gap_terms = _padded_group_terms(code, gain), _gap_terms(code)
        symbols, index_table = full_candidates(code)
        full_terms = _metric_terms(codeword(code, symbols), gain)
        rng = np.random.default_rng(70)
        for _ in range(100):
            h_all, y, w2 = _draw(rng, code, 1)
            full = full_form(full_features(y, h_all), group_terms, w2)
            expected = full.reshape(1, -1, decoder._width).argmin(axis=2)
            assert np.array_equal(decoder.grouped(y, h_all, w2), expected)
            gap = np.abs(full_form(pair_products(h_all), gap_terms, w2)).max()
            assert decoder.gap(h_all, w2) == pytest.approx(gap, rel=1e-12, abs=1e-12)
            exhaustive = index_table[full_form(full_features(y, h_all), full_terms, w2).argmin(axis=1)]
            assert np.array_equal(decoder.exhaustive(y, h_all, w2), exhaustive)

    @pytest.mark.parametrize("name", COMPACT_CODES)
    def test_dropped_rows_and_columns_are_zero_in_every_slot(self, name):
        code = _compact_code(name)
        gain = 1.3
        decoder = CoherentDecoder(code, gain)
        h_all, y, w2 = _draw(np.random.default_rng(71), code, 2)
        _, metric, _ = _exhaustive_metric(decoder, y, h_all, w2)
        symbols, _ = full_candidates(code)
        tables = [
            (decoder._group, _padded_group_terms(code, gain)),
            (decoder._gap, _gap_terms(code)),
            (metric, _metric_terms(codeword(code, symbols), gain)),
        ]
        for form, full in tables:
            columns = np.arange(full.shape[2])[form.columns]
            assert np.all(np.diff(form.rows) > 0) and np.all(np.diff(columns) > 0)  # original order
            assert not np.delete(full, form.rows, axis=1).any()
            assert not np.delete(full, columns, axis=2).any()
            kept = full[:, form.rows][:, :, columns]
            assert kept.any(axis=(0, 2)).all() and kept.any(axis=(0, 1)).all()  # nothing used is dropped
            assert np.array_equal(form.terms.reshape(kept.shape), kept)

    def test_relay5_tables_keep_the_rows_its_slots_use(self):
        decoder = CoherentDecoder(named_code("relay5"), 1.0)
        assert len(decoder._group.rows) == 29  # of 2*25 + 2*30 features
        assert len(decoder._gap.rows) == 9  # of 2*25 pair features
        assert len(decoder._gap.columns) == 10  # of 54 cross-group Gram entries
        assert len(decoder._group.pairs.factors[0]) == 9  # pair products formed

    def test_a_single_group_code_reports_no_gap(self):
        base = named_code("alamouti")
        grid = np.array(list(itertools.product((0.7, -0.7), repeat=4)))
        code = dataclasses.replace(base, name="single", group_partition=((0, 1, 2, 3),), alphabet=(grid,))
        decoder = CoherentDecoder(code, 1.0)
        assert decoder._gap.terms.size == 0
        rng = np.random.default_rng(72)
        for n in (1, 16):
            h_all, y, w2 = _draw(rng, code, n)
            assert decoder.gap(h_all, w2) == 0.0
            assert np.array_equal(decoder.grouped(y, h_all, w2), decoder.exhaustive(y, h_all, w2))
