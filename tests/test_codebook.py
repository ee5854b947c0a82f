"""Code definitions, feasibility classification and schedule derivation."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from asyncrelay import codebook
from asyncrelay.codebook import (
    DEFAULT_ROTATION,
    DFT,
    IDFT,
    SCALED_UNITARY_PAIRS,
    CodeDefinition,
    RelayInstruction,
    ScheduleError,
    builtin_codes,
    check_feasibility,
    codeword,
    derive_schedule,
    format_code_text,
    infeasible_example,
    load_code,
    named_code,
    parse_code_text,
    qpsk_pairs,
    row_sets,
)


def _as_complex(table):
    return table[:, 0] + 1j * table[:, 1]


class TestAlphabets:
    def test_plain_qpsk_pair_values(self):
        a = 1.0 / math.sqrt(2.0)
        expected = np.array([[a, a], [a, -a], [-a, a], [-a, -a]])
        assert np.allclose(qpsk_pairs(0.0), expected)

    def test_rotation_acts_as_complex_phase(self):
        theta = 0.3
        base = _as_complex(qpsk_pairs(0.0))
        rotated = _as_complex(qpsk_pairs(theta))
        assert np.allclose(rotated, base * np.exp(1j * theta))

    def test_unit_average_energy_any_rotation(self):
        for theta in (0.0, DEFAULT_ROTATION, 1.1):
            z = _as_complex(qpsk_pairs(theta))
            assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 1e-12

    def test_scaled_unitary_pairs_energies(self):
        norms = (SCALED_UNITARY_PAIRS**2).sum(axis=1)
        assert np.allclose(norms, [1.0 / 3.0, 1.0 / 3.0, 5.0 / 3.0, 5.0 / 3.0])
        assert abs(norms.mean() - 1.0) < 1e-15

    def test_shared_tables_are_write_protected(self):
        with pytest.raises(ValueError):
            SCALED_UNITARY_PAIRS[0, 0] = 9.0
        code = named_code("relay4")
        with pytest.raises(ValueError):
            code.relay_matrices[0][0, 0] = 5.0


class TestCodeDefinitionValidation:
    def _make(self, matrices, conj=frozenset(), groups=None, alphabet=None):
        nu = matrices[0].shape[0]
        if groups is None:
            groups = tuple((2 * j, 2 * j + 1) for j in range(nu))
        if alphabet is None:
            alphabet = tuple(qpsk_pairs() for _ in groups)
        return CodeDefinition("t", tuple(matrices), frozenset(conj), groups, alphabet)

    def test_two_nonzeros_in_a_row_rejected(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="nonzero"):
            self._make((np.eye(2), bad))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, value):
        with pytest.raises(ValueError, match="relay matrix 1 has a non-finite entry"):
            self._make((np.eye(2), np.array([[value, 0.0], [0.0, 1.0]])))
        alphabet = qpsk_pairs().copy()
        alphabet[2, 1] = value
        with pytest.raises(ValueError, match="alphabet table 1 has a non-finite entry"):
            self._make((np.eye(2),), alphabet=(qpsk_pairs(), alphabet))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError):
            self._make((np.ones((2, 3)),))

    def test_partition_must_cover_every_coordinate_once(self):
        with pytest.raises(ValueError):
            self._make((np.eye(2),), groups=((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            self._make((np.eye(2),), groups=((0, 1),))

    def test_alphabet_width_must_match_group_size(self):
        with pytest.raises(ValueError):
            self._make(
                (np.eye(2),),
                groups=((0, 1), (2, 3)),
                alphabet=(qpsk_pairs(), np.ones((4, 3))),
            )

    def test_alphabet_size_must_be_a_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            self._make((np.eye(2),), groups=((0, 1), (2, 3)), alphabet=(qpsk_pairs(), qpsk_pairs()[:3]))
        single = self._make((np.eye(2),), groups=((0, 1), (2, 3)), alphabet=(qpsk_pairs(), qpsk_pairs()[:1]))
        assert single.bits_per_group() == (2, 0)

    def test_counts(self):
        code = named_code("relay5")
        assert code.symbol_count == 6
        assert code.slot_count == 6
        assert code.num_relays == 5
        assert code.bits_per_group() == (3, 3, 3, 3)
        assert named_code("relay4").bits_per_group() == (2, 2, 2, 2)


class TestCodeword:
    def test_two_relay_codeword_matches_hand_expansion(self):
        code = named_code("alamouti")
        s = np.array([1.0 + 2.0j, -0.5 + 0.25j])
        x = codeword(code, s)
        expected = np.array(
            [[s[0], -np.conj(s[1])], [s[1], np.conj(s[0])]]
        )
        assert np.allclose(x, expected)

    def test_four_relay_conjugated_columns(self):
        code = named_code("relay4")
        s = np.array([1 + 1j, 2 - 1j, -3 + 0.5j, 0.25j])
        x = codeword(code, s)
        assert np.allclose(x[:, 1], [s[1], s[0], s[3], s[2]])
        sc = np.conj(s)
        assert np.allclose(x[:, 2], [-sc[2], -sc[3], sc[0], sc[1]])
        assert np.allclose(x[:, 3], [-sc[3], -sc[2], sc[1], sc[0]])

    def test_batch_of_symbol_vectors(self):
        code = named_code("relay5")
        batch = np.arange(18.0).reshape(3, 6) - 2j
        words = codeword(code, batch)
        assert words.shape == (3, 6, 5)
        for s, x in zip(batch, words):
            assert np.array_equal(x, codeword(code, s))

    def test_silent_rows_transmit_zero(self):
        code = named_code("relay5")
        s = np.arange(1.0, 7.0) + 1j
        x = codeword(code, s)
        assert np.allclose(x[0:4, 4], 0.0)
        assert np.allclose(x[4:6, 0], 0.0)
        assert np.allclose(x[4:6, 4], [s[4], s[5]])


class TestFeasibility:
    def test_two_relay_row_sets(self):
        sets = row_sets(named_code("alamouti"))
        assert sets.plain == (frozenset({0}), frozenset({1}))
        assert sets.conjugated == (frozenset({1}), frozenset({0}))

    def test_all_builtins_pass(self):
        for name, code in builtin_codes().items():
            report = check_feasibility(row_sets(code))
            assert report, f"{name}: {report.detail}"

    def test_symbol_both_plain_and_conjugated_fails_condition_1(self):
        code = CodeDefinition(
            "t",
            (np.eye(2), np.eye(2)),
            frozenset({1}),
            ((0, 1), (2, 3)),
            (qpsk_pairs(), qpsk_pairs()),
        )
        report = check_feasibility(row_sets(code))
        assert not report
        assert report.condition == 1

    def test_unbalanced_plain_conjugated_row_fails_condition_2(self):
        shift = np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])
        code = CodeDefinition(
            "t",
            (np.eye(3), shift, shift @ shift),
            frozenset({2}),
            ((0, 1), (2, 3), (4, 5)),
            (qpsk_pairs(), qpsk_pairs(), qpsk_pairs()),
        )
        report = check_feasibility(row_sets(code))
        assert not report
        assert report.condition == 2

    def test_row_with_empty_conjugated_side_is_allowed(self):
        # one plain relay: every row has |plain| = 1, |conjugated| = 0
        code = CodeDefinition(
            "t",
            (np.eye(2),),
            frozenset(),
            ((0, 1), (2, 3)),
            (qpsk_pairs(), qpsk_pairs()),
        )
        assert check_feasibility(row_sets(code))

    def test_overlapping_unnested_plain_sets_fail_condition_3(self):
        report = check_feasibility(row_sets(infeasible_example()))
        assert not report
        assert report.condition == 3
        assert report.rows == (0, 1)


class TestScheduleDerivation:
    def test_two_relay_schedule(self):
        schedule = derive_schedule(named_code("alamouti"))
        assert schedule.source_modulation == (IDFT, DFT)
        assert schedule.slot_reversed == (False, True)
        assert schedule.instructions[0] == (
            RelayInstruction(0, 1.0, False),
            RelayInstruction(1, -1.0, True),
        )
        assert schedule.instructions[1] == (
            RelayInstruction(1, 1.0, False),
            RelayInstruction(0, 1.0, True),
        )

    def test_four_relay_schedule(self):
        schedule = derive_schedule(named_code("relay4"))
        assert schedule.source_modulation == (IDFT, IDFT, DFT, DFT)
        assert schedule.slot_reversed == (False, False, True, True)

    def test_five_relay_schedule(self):
        schedule = derive_schedule(named_code("relay5"))
        assert schedule.source_modulation == (IDFT, DFT, IDFT, DFT, IDFT, IDFT)
        assert schedule.slot_reversed == (False, True, False, True, False, False)
        assert schedule.active_relays(0) == (0, 1)
        assert schedule.active_relays(4) == (4,)

    def test_parity_invariant_for_all_builtins(self):
        # plain column: slot reversed exactly when the block is DFT
        # modulated; conjugated column: exactly when it is not.
        for code in builtin_codes().values():
            schedule = derive_schedule(code)
            for slot in range(schedule.num_slots):
                for instr in schedule.instructions[slot]:
                    if instr is None:
                        continue
                    is_dft = schedule.source_modulation[instr.block] == DFT
                    expected = (not is_dft) if instr.conjugate else is_dft
                    assert schedule.slot_reversed[slot] == expected

    def test_schedules_compare_and_hash_by_value(self):
        a, b = derive_schedule(named_code("relay5")), derive_schedule(named_code("relay5"))
        assert a is not b and a == b and hash(a) == hash(b)
        for copy in (pickle.loads(pickle.dumps(a)), dataclasses.replace(a)):
            assert copy == a and hash(copy) == hash(a)
        other = derive_schedule(named_code("relay4"))
        assert a != other and len({a, b, other}) == 2
        flipped = dataclasses.replace(a, slot_reversed=(True,) + a.slot_reversed[1:])
        assert flipped != a

    def test_relay_forwarding_same_block_twice_rejected(self):
        twice = np.array([[1.0, 0.0], [1.0, 0.0]])
        code = CodeDefinition(
            "t",
            (np.eye(2), twice),
            frozenset(),
            ((0, 1), (2, 3)),
            (qpsk_pairs(), qpsk_pairs()),
        )
        with pytest.raises(ScheduleError, match="twice"):
            derive_schedule(code)

    def test_infeasible_example_has_no_consistent_schedule(self):
        with pytest.raises(ScheduleError, match="conflict"):
            derive_schedule(infeasible_example())


class TestTextFormat:
    def test_round_trip_preserves_structure(self):
        for name, code in builtin_codes().items():
            parsed = parse_code_text(format_code_text(code), name=name)
            assert parsed.conjugated_columns == code.conjugated_columns
            assert parsed.group_partition == code.group_partition
            for a, b in zip(parsed.relay_matrices, code.relay_matrices):
                assert np.allclose(a, b)

    def test_comments_and_blank_lines_ignored(self):
        text = """
        # a two relay code
        2 2 2

        column conj=0
        1 0
        0 1
        column conj=1   # second relay conjugates
        0 -1
        1 0
        """
        code = parse_code_text(text)
        assert code.conjugated_columns == frozenset({1})
        assert code.group_partition == ((0, 1), (2, 3))

    def test_header_slot_count_must_match_symbol_count(self):
        with pytest.raises(ValueError, match="slot count"):
            parse_code_text("2 3 1\ncolumn conj=0\n1 0\n0 1\n")

    def test_missing_rows_rejected(self):
        with pytest.raises(ValueError, match="missing row"):
            parse_code_text("2 2 1\ncolumn conj=0\n1 0\n")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            parse_code_text("2 2 1\ncolumn conj=0\n1 0\n0 1\nwhatever\n")

    def test_explicit_groups_line(self):
        text = "2 2 1\ncolumn conj=0\n1 0\n0 1\ngroups 0 2 | 1 3\n"
        code = parse_code_text(text)
        assert code.group_partition == ((0, 2), (1, 3))

    def test_load_code_reads_file(self, tmp_path):
        original = named_code("relay4")
        path = tmp_path / "four.code"
        path.write_text(format_code_text(original), encoding="utf-8")
        loaded = load_code(path)
        assert loaded.conjugated_columns == original.conjugated_columns
        for a, b in zip(loaded.relay_matrices, original.relay_matrices):
            assert np.allclose(a, b)
        assert derive_schedule(loaded) == derive_schedule(original)


class TestNamedCode:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError) as err:
            named_code("nope")
        assert err.value.args[0] == (
            "unknown code name 'nope'; available: ['alamouti', 'example1', 'relay4', 'relay4_diff', 'relay5']"
        )

    def test_only_the_requested_code_is_built(self, monkeypatch):
        built = []
        for name, build in list(codebook._BUILTIN.items()):
            monkeypatch.setitem(codebook._BUILTIN, name, lambda rotation, n=name, b=build: built.append(n) or b(rotation))
        assert named_code("relay5").name == "relay5"
        assert built == ["relay5"]
        assert sorted(builtin_codes()) == sorted(codebook._BUILTIN)

    def test_infeasible_example_is_reachable_by_name(self):
        code = named_code("example1")
        assert not check_feasibility(row_sets(code))
