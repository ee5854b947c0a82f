"""Code definitions, feasibility classification and schedule derivation."""

import dataclasses
import itertools
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
    RelaySchedule,
    ScheduleError,
    builtin_codes,
    check_feasibility,
    codeword,
    derive_schedule,
    format_code_text,
    infeasible_example,
    named_code,
    parse_code_text,
    qpsk_pairs,
)

from asyncrelay.decoder import CoherentDecoder, equivalent_channel_matrix, noise_covariance, rotation_table
from asyncrelay.harness import SimConfig, _CoherentEngine, _draw_unit, _power_config, _resolve_code, frame_rng
from asyncrelay.relaysim import LinkConfig, PowerConfig, complex_noise, draw_channel, run_frame

from oracles import (
    cross_groups_orthogonal,
    diversity,
    exhaustive_ml,
    expected_subcarrier_rx,
    forwarding_rows,
    grid_alphabet,
    kronecker_code,
    noise_covariance_loop,
    sheared_code,
    slot_classes_loop,
    slot_swapped_code,
    unpaired_groups_code,
)


def _as_complex(table):
    return table[:, 0] + 1j * table[:, 1]


def _assert_same_schedule(a, b):
    """The schedules of two codes colour alike and forward alike."""
    assert (a.source_modulation, a.slot_reversed) == (b.source_modulation, b.slot_reversed)
    for name in ("relays", "slots", "blocks", "signs", "conjugate"):
        assert np.array_equal(getattr(a.code.forwarding, name), getattr(b.code.forwarding, name))


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

    @pytest.mark.parametrize("value", [2.0, -2.0, 0.5, -1.0 - 2**-52])
    def test_entries_other_than_plus_or_minus_one_rejected(self, value):
        # the relay gain and the noise model assume every relay forwards at |entry| = 1
        with pytest.raises(ValueError, match=r"relay matrix 1 has a nonzero entry other than \+1 or -1"):
            self._make((np.eye(2), np.array([[0.0, -1.0], [value, 0.0]])))

    def test_the_shape_finite_and_one_nonzero_checks_report_first(self):
        with pytest.raises(ValueError, match=r"relay matrix 1 has shape \(2, 3\)"):
            self._make((np.eye(2), np.full((2, 3), 2.0)))
        with pytest.raises(ValueError, match="relay matrix 1 has a non-finite entry"):
            self._make((np.eye(2), np.array([[2.0, 0.0], [0.0, np.nan]])))
        with pytest.raises(ValueError, match="relay matrix 1 row 0 has more than one nonzero entry"):
            self._make((np.eye(2), np.array([[2.0, 2.0], [0.0, 1.0]])))

    def test_counts(self):
        code = named_code("relay5")
        assert code.symbol_count == 6
        assert code.slot_count == 6
        assert code.num_relays == 5
        assert code.bits_per_group() == (3, 3, 3, 3)
        assert named_code("relay4").bits_per_group() == (2, 2, 2, 2)


def _entries_codes():
    return [
        *builtin_codes().values(),
        sheared_code(),
        slot_swapped_code(),
        unpaired_groups_code(),
        kronecker_code(3, grid_alphabet(4)),
    ]


class TestTheCodesEntries:
    """A code reads its relay matrices once: ``forwarding`` lists their
    nonzero entries one row each, and ``slot_classes`` groups the slots by
    their set of active relays; both equal loops over the matrices."""

    @pytest.mark.parametrize("code", _entries_codes(), ids=lambda code: code.name)
    def test_forwarding_equals_a_loop_over_the_relay_matrices(self, code):
        table, rows = code.forwarding, forwarding_rows(code)
        relays, slots, blocks, signs, conjugate = (list(column) for column in zip(*rows))
        assert table.relays.tolist() == relays and table.slots.tolist() == slots
        assert table.blocks.tolist() == blocks
        assert table.signs.shape == table.conjugate.shape == (len(rows), 1)
        assert table.signs[:, 0].tolist() == signs and table.conjugate[:, 0].tolist() == conjugate
        # each span is one relay's rows and the slots they fill
        spanned = [(relay, span_rows.start, span_rows.stop) for relay, span_rows, _ in table.spans]
        assert spanned == [(r, relays.index(r), len(relays) - relays[::-1].index(r)) for r in sorted(set(relays))]
        for _, span_rows, index in table.spans:
            assert np.arange(code.slot_count)[index].tolist() == slots[span_rows]
        for array in (table.relays, table.slots, table.blocks, table.signs, table.conjugate):
            assert not array.flags.writeable

    @pytest.mark.parametrize("code", _entries_codes(), ids=lambda code: code.name)
    def test_slot_classes_equal_a_loop_over_the_relay_matrices(self, code):
        got = [(relays.tolist(), slots.tolist()) for relays, slots in code.slot_classes]
        assert got == slot_classes_loop(code)

    def test_the_entries_are_built_with_the_code(self):
        code = named_code("alamouti")
        fields = (code.name, code.relay_matrices, code.conjugated_columns, code.group_partition, code.alphabet)
        with pytest.raises(TypeError):
            CodeDefinition(*fields, forwarding=code.forwarding)
        with pytest.raises(dataclasses.FrozenInstanceError):
            code.slot_classes = ()
        swapped = dataclasses.replace(code, relay_matrices=code.relay_matrices[::-1], conjugated_columns=frozenset({0}))
        assert swapped.forwarding.relays.tolist() == [0, 0, 1, 1]
        assert swapped.forwarding.conjugate[:, 0].tolist() == [True, True, False, False]


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
    def test_rows_read_the_plain_and_the_conjugated_columns(self):
        alamouti = named_code("alamouti")
        assert check_feasibility(alamouti)
        # the rows carry plain {0}, {1} and conjugated {1}, {0}; a third, plain
        # column [[0, 1], [1, 0]] adds symbol 1 to row 0's plain set
        extended = dataclasses.replace(alamouti, relay_matrices=(*alamouti.relay_matrices, np.abs(alamouti.relay_matrices[1])))
        report = check_feasibility(extended)
        assert (report.condition, report.rows) == (1, (0,))
        assert report.detail == "row 0 carries symbols [1] both plainly and conjugated"

    def test_all_builtins_pass(self):
        for name, code in builtin_codes().items():
            report = check_feasibility(code)
            assert report, f"{name}: {report.detail}"

    def test_symbol_both_plain_and_conjugated_fails_condition_1(self):
        code = CodeDefinition(
            "t",
            (np.eye(2), np.eye(2)),
            frozenset({1}),
            ((0, 1), (2, 3)),
            (qpsk_pairs(), qpsk_pairs()),
        )
        report = check_feasibility(code)
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
        report = check_feasibility(code)
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
        assert check_feasibility(code)

    def test_overlapping_unnested_plain_sets_fail_condition_3(self):
        report = check_feasibility(infeasible_example())
        assert not report
        assert report.condition == 3
        assert report.rows == (0, 1)


class TestScheduleDerivation:
    def test_two_relay_schedule(self):
        schedule = derive_schedule(named_code("alamouti"))
        assert schedule.source_modulation == (IDFT, DFT)
        assert schedule.slot_reversed == (False, True)
        table = schedule.code.forwarding
        # (relay, slot): (0, 0) and (0, 1) plain, (1, 0) and (1, 1) conjugated
        assert table.relays.tolist() == [0, 0, 1, 1] and table.slots.tolist() == [0, 1, 0, 1]
        assert table.blocks.tolist() == [0, 1, 1, 0]
        assert table.signs[:, 0].tolist() == [1.0, 1.0, -1.0, 1.0]
        assert table.conjugate[:, 0].tolist() == [False, False, True, True]

    def test_four_relay_schedule(self):
        schedule = derive_schedule(named_code("relay4"))
        assert schedule.source_modulation == (IDFT, IDFT, DFT, DFT)
        assert schedule.slot_reversed == (False, False, True, True)

    def test_five_relay_schedule(self):
        schedule = derive_schedule(named_code("relay5"))
        assert schedule.source_modulation == (IDFT, DFT, IDFT, DFT, IDFT, IDFT)
        assert schedule.slot_reversed == (False, True, False, True, False, False)
        classes = [(relays.tolist(), slots.tolist()) for relays, slots in schedule.code.slot_classes]
        assert classes == [([0, 1], [0, 1]), ([2, 3], [2, 3]), ([4], [4, 5])]

    def test_parity_invariant_for_all_builtins(self):
        # plain column: slot reversed exactly when the block is DFT
        # modulated; conjugated column: exactly when it is not.
        for code in builtin_codes().values():
            schedule = derive_schedule(code)
            table = code.forwarding
            is_dft = np.array(schedule.source_modulation)[table.blocks] == DFT
            assert np.array_equal(np.array(schedule.slot_reversed)[table.slots], is_dft ^ table.conjugate[:, 0])

    def test_schedules_compare_by_code_identity_and_colouring(self):
        code = named_code("relay5")
        a, b = derive_schedule(code), derive_schedule(code)
        assert a is not b and a == b and hash(a) == hash(b)
        assert dataclasses.replace(a) == a and hash(dataclasses.replace(a)) == hash(a)
        # a copy of the code is another code, as codes compare by identity,
        # so its schedule compares by its colouring and its code's entries
        copy = pickle.loads(pickle.dumps(a))
        assert copy != a and copy.code is not code
        _assert_same_schedule(copy, a)
        _assert_same_schedule(derive_schedule(named_code("relay5")), a)
        other = derive_schedule(named_code("relay4"))
        assert a != other and len({a, b, other}) == 2

    def test_a_schedule_is_derived_from_its_code_alone(self):
        # the colouring is the code's: no other can be passed, replaced or set
        code = named_code("alamouti")
        schedule = RelaySchedule(code)
        _assert_same_schedule(schedule, derive_schedule(code))
        with pytest.raises(TypeError):
            RelaySchedule(code, (IDFT, IDFT), (False, False))
        for name in ("source_modulation", "slot_reversed"):
            with pytest.raises(TypeError):
                RelaySchedule(code, **{name: getattr(schedule, name)})
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(schedule, **{name: getattr(schedule, name)})
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(schedule, name, getattr(schedule, name))
        # replacing the code colours the schedule anew
        relay4 = named_code("relay4")
        _assert_same_schedule(dataclasses.replace(schedule, code=relay4), derive_schedule(relay4))

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

    def test_a_code_file_is_read_by_the_sweep(self, tmp_path):
        original = named_code("relay4")
        path = tmp_path / "four.code"
        path.write_text(format_code_text(original), encoding="utf-8")
        loaded = _resolve_code(SimConfig(code=str(path)))
        assert loaded.name == str(path)
        assert loaded.conjugated_columns == original.conjugated_columns
        for a, b in zip(loaded.relay_matrices, original.relay_matrices):
            assert np.allclose(a, b)
        _assert_same_schedule(derive_schedule(loaded), derive_schedule(original))


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
        assert not check_feasibility(code)


def _rotated(name: str):
    """A built-in code; ``name@deg`` rotates its alphabet by deg degrees."""
    name, _, degrees = name.partition("@")
    return named_code(name, math.radians(float(degrees)) if degrees else DEFAULT_ROTATION)


class TestDiversity:
    """The rank criterion: a code's diversity order is the smallest rank of
    X(s - s') over distinct code words, and its smallest determinant that of
    X^H X over the differences of full rank."""

    @pytest.mark.parametrize(
        "name, rank, det",
        [
            ("alamouti", 2, 4.0),
            ("relay4", 4, 0.64),
            ("relay4@0", 2, 16.0),  # unrotated QPSK pairs
            ("relay4_diff", 4, 256.0 / 81.0),
            ("relay5", 1, None),
        ],
    )
    def test_the_built_in_codes(self, name, rank, det):
        code = _rotated(name)
        assert cross_groups_orthogonal(code)
        got_rank, got_det = diversity(code)
        assert got_rank == rank
        assert got_det is None if det is None else got_det == pytest.approx(det, rel=1e-12)

    @pytest.mark.parametrize("name", ["alamouti", "relay4", "relay4@0", "relay4_diff"])
    def test_the_per_group_method_equals_brute_force(self, name):
        code = _rotated(name)
        (group_rank, group_det), (brute_rank, brute_det) = diversity(code, "group"), diversity(code, "brute")
        assert group_rank == brute_rank
        assert group_det == pytest.approx(brute_det, rel=1e-12)

    def test_groups_that_are_not_orthogonal_take_brute_force(self):
        code = sheared_code()
        assert not cross_groups_orthogonal(code)
        with pytest.raises(ValueError, match="not orthogonal"):
            diversity(code, "group")
        assert diversity(code) == diversity(code, "brute")

    @pytest.mark.parametrize("name", sorted(builtin_codes()))
    def test_the_fades_and_delay_phases_of_a_subcarrier_leave_the_rank_unchanged(self, name):
        # on subcarrier k of the asynchronous OFDM link the destination sees
        # the words X(s) diag(h_k), h_k = f g e^(-2 pi i k tau / N) per relay
        # (row k of equivalent_channel_matrix): nonzero fades times unit
        # phases, so the rank criterion of X(s) carries over unchanged and
        # the determinant scales by prod |h_k|^2
        code = named_code(name)
        rank, det = diversity(code)
        rng = np.random.default_rng(61)
        n_fft, cp_len = 16, 8
        for _ in range(3):
            channel = draw_channel(rng, code.num_relays, cp_len)
            h_all = equivalent_channel_matrix(code, channel, n_fft)
            for k in (0, 1, 5, 15):
                got_rank, got_det = diversity(code, columns=h_all[k])
                assert got_rank == rank
                if det is None:
                    assert got_det is None
                else:
                    assert got_det == pytest.approx(det * np.prod(np.abs(h_all[k]) ** 2), rel=1e-9)

    def test_relay5_is_capped_at_three_by_its_groups_and_brought_to_one_by_its_levels(self):
        code = named_code("relay5")
        for group, table in zip(code.group_partition, code.alphabet):
            for a, b in itertools.combinations(range(len(table)), 2):
                coords = np.zeros(2 * code.symbol_count)
                coords[list(group)] = table[a] - table[b]
                columns = np.flatnonzero(np.abs(codeword(code, coords[0::2] + 1j * coords[1::2])).sum(axis=0))
                assert len(columns) <= 3  # a pair of relays and the fifth one
                if np.array_equal(table[a][:2], table[b][:2]):  # the level alone differs
                    assert columns.tolist() == [4]



_GRID = grid_alphabet(4)
# a seeded random orthogonal 4 x 4 matrix: rotating the grid by it gives the 8-relay code full diversity
_ROTATION = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]


class TestTheKroneckerFamily:
    """relay4's matrices are kron(P, Q); one more factor gives an 8-relay,
    8-slot code with the paper's structure: feasible, scheduled, four-group
    decodable, and of full diversity for a suitable alphabet."""

    def test_two_levels_are_relay4(self):
        relay4 = named_code("relay4")
        code = kronecker_code(2, qpsk_pairs(DEFAULT_ROTATION))
        assert len(code.relay_matrices) == len(relay4.relay_matrices)
        assert all(map(np.array_equal, code.relay_matrices, relay4.relay_matrices))
        assert code.conjugated_columns == relay4.conjugated_columns
        assert code.group_partition == relay4.group_partition
        assert all(map(np.array_equal, code.alphabet, relay4.alphabet))

    def test_three_levels_give_eight_relays_in_four_groups(self):
        code = kronecker_code(3, _GRID)
        assert (code.num_relays, code.slot_count) == (8, 8)
        assert code.conjugated_columns == frozenset({4, 5, 6, 7})
        # {Re s0..s3}, {Im s0..s3}, {Re s4..s7}, {Im s4..s7}
        assert code.group_partition == ((0, 2, 4, 6), (1, 3, 5, 7), (8, 10, 12, 14), (9, 11, 13, 15))

    def test_eight_relays_are_feasible_scheduled_and_proven(self):
        code = kronecker_code(3, _GRID)
        assert check_feasibility(code)
        schedule = derive_schedule(code)
        assert len(schedule.code.forwarding.relays) == 64  # every relay forwards in every slot
        assert CoherentDecoder(code, 1.0)._proof is not None

    def test_the_noiseless_eight_relay_link_is_the_flat_model(self):
        code = kronecker_code(3, _GRID)
        schedule = derive_schedule(code)
        n_fft, cp_len = 16, 8
        link = LinkConfig(schedule, n_fft, cp_len, PowerConfig(12.0, 1.0, 1.0 / code.num_relays))
        rng = np.random.default_rng(81)
        for delays in (None, None, None, (0, 1, 2, 3, 5, 6, 7, cp_len)):  # the last one a prefix late
            channel = draw_channel(rng, code.num_relays, cp_len, delays)
            frame = complex_noise(rng, (code.symbol_count, n_fft))
            got = run_frame(frame, link, channel)
            assert np.max(np.abs(got - expected_subcarrier_rx(code, link, channel, frame))) <= 1e-12

    def test_the_eight_relay_slot_variances_equal_the_slot_loop(self):
        # every slot sums |g|^2 over eight relays, where numpy starts to sum pairwise
        code = kronecker_code(3, _GRID)
        schedule = derive_schedule(code)
        rng = np.random.default_rng(82)
        for _ in range(5):
            link = LinkConfig(schedule, 16, 8, PowerConfig(rng.uniform(0.5, 500.0), 1.0, rng.uniform(0.05, 1.0)))
            channel = draw_channel(rng, code.num_relays, 8)
            got = noise_covariance(link, channel)
            assert np.array_equal(got.view(float), noise_covariance_loop(link, channel).view(float))

    def test_the_eight_relay_grouped_search_equals_a_search_over_all_candidates(self):
        # four groups of 16 rotated grid points: 65536 code words, none
        # scored by the decoder's own exhaustive search
        code = kronecker_code(3, _GRID @ _ROTATION.T)
        schedule = derive_schedule(code)
        n_fft, cp_len = 16, 8
        link = LinkConfig(schedule, n_fft, cp_len, PowerConfig(20.0, 1.0, 1.0 / code.num_relays))
        decoder = CoherentDecoder(code, link.power.cascade_gain)
        rng = np.random.default_rng(83)
        channel = draw_channel(rng, code.num_relays, cp_len)
        h_all = equivalent_channel_matrix(code, channel, n_fft)
        variances = noise_covariance(link, channel)
        labels = rng.integers(0, 16, size=(n_fft, 4))
        clean = link.power.cascade_gain * np.einsum("ktr,kr->tk", codeword(code, decoder.symbols(labels)), h_all)
        y = clean + np.sqrt(variances)[:, None] * complex_noise(rng, (code.slot_count, n_fft))
        assert decoder.gap(h_all, 1.0 / variances) == 0.0
        decided = decoder.grouped(y, h_all, 1.0 / variances)
        for k in (0, 5, 11):
            want = exhaustive_ml(code, y[:, k], h_all[k], variances, link.power.cascade_gain)
            assert tuple(int(i) for i in decided[k]) == want

    def test_a_noiseless_eight_relay_engine_makes_no_errors(self):
        # a code file cannot hold the rotated alphabet, so the engine is built directly
        code = kronecker_code(3, _GRID @ _ROTATION.T)
        cfg = SimConfig(code=code.name, n_fft=16, cp_len=8, noise=False)
        link = LinkConfig(derive_schedule(code), 16, 8, _power_config(cfg, code, 20.0))
        engine = _CoherentEngine(cfg, link, rotation_table(16, 8))
        assert engine.decoder.proven
        counts = [engine.simulate(*_draw_unit(frame_rng(cfg.seed, 0, unit), engine)) for unit in range(300)]
        assert (sum(e for e, _ in counts), sum(b for _, b in counts)) == (0, 300 * 16 * 16)

    def test_eight_relays_reach_full_diversity_with_a_rotated_grid(self):
        rank, det = diversity(kronecker_code(3, _GRID))
        assert (rank, det) == (2, pytest.approx(256.0, rel=1e-12))
        rank, det = diversity(kronecker_code(3, _GRID @ _ROTATION.T))
        assert (rank, det) == (8, pytest.approx(0.0029579, rel=1e-4))

    def test_every_five_relay_subset_is_of_full_diversity_and_fails_condition_2(self):
        # the check is stricter than the link needs: each subset gets a
        # schedule and its noiseless link is the flat model, yet its rows
        # carry unequal plain and conjugated counts
        code = kronecker_code(3, _GRID @ _ROTATION.T)
        n_fft, cp_len = 16, 8
        rng = np.random.default_rng(84)
        dets = []
        for columns in itertools.combinations(range(8), 5):
            subset = dataclasses.replace(
                code,
                relay_matrices=tuple(code.relay_matrices[c] for c in columns),
                conjugated_columns=frozenset(i for i, c in enumerate(columns) if c >= 4),
            )
            rank, det = diversity(subset)
            assert rank == 5
            dets.append(det)
            assert check_feasibility(subset).condition == 2
            link = LinkConfig(derive_schedule(subset), n_fft, cp_len, PowerConfig(12.0, 1.0, 1.0 / 5))
            channel = draw_channel(rng, 5, cp_len)
            frame = complex_noise(rng, (subset.symbol_count, n_fft))
            got = run_frame(frame, link, channel)
            assert np.max(np.abs(got - expected_subcarrier_rx(subset, link, channel, frame))) <= 1e-12
        assert len(dets) == 56
        assert min(dets) == pytest.approx(0.3025, rel=1e-3)
