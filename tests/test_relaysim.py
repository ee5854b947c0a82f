"""Relay pipeline: power scaling, channel draws, and the end-to-end identity
between the sample-level simulation and the flat per-subcarrier model."""

import math

import numpy as np
import pytest

from asyncrelay.codebook import RelayInstruction, RelaySchedule, builtin_codes, derive_schedule, named_code
from asyncrelay.relaysim import (
    ChannelRealization,
    LinkConfig,
    PowerConfig,
    complex_noise,
    destination_frontend,
    destination_receive,
    draw_channel,
    frame_noise,
    relay_process,
    relay_receive,
    run_frame,
    source_transmit,
)
from asyncrelay import spectral

from oracles import (
    add_cp,
    complex_noise_two_calls,
    destination_receive_loop,
    expected_subcarrier_rx,
    frontend_loop,
    instruction_rows,
    link_rows,
    relay_process_loop,
    sheared_code,
    silent_rows,
    slot_noise_variances,
    slot_swapped_code,
)

# the built-in codes, one whose groups are not orthogonal and one whose
# relay 0 forwards in slots that are not next to each other
LINK_CODES = [*builtin_codes(), "sheared", "swapped"]


def _random_frame(rng, nu, n):
    return (rng.standard_normal((nu, n)) + 1j * rng.standard_normal((nu, n))) / math.sqrt(2)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _link_code(name: str):
    return {"sheared": sheared_code, "swapped": slot_swapped_code}.get(name, lambda: named_code(name))()


def _one_slot_schedule(num_relays: int) -> RelaySchedule:
    """Every relay forwards block 0 unchanged in the one slot."""
    return RelaySchedule(("idft",), (False,), ((RelayInstruction(0, 1.0, False),) * num_relays,))


class TestPowerConfig:
    def test_scales(self):
        p = PowerConfig(total_power=10.0, source_fraction=1.0, relay_fraction=0.25)
        assert p.source_scale == pytest.approx(math.sqrt(10.0))
        assert p.relay_gain == pytest.approx(math.sqrt(2.5 / 11.0))
        assert p.cascade_gain == pytest.approx(p.source_scale * p.relay_gain)
        assert p.relay_noise_power == pytest.approx(p.relay_gain**2)

    def test_rejects_non_positive_values(self):
        with pytest.raises(ValueError):
            PowerConfig(total_power=0.0)
        with pytest.raises(ValueError):
            PowerConfig(total_power=1.0, source_fraction=-1.0)
        with pytest.raises(ValueError):
            PowerConfig(total_power=1.0, relay_fraction=0.0)

    @pytest.mark.parametrize("field", ["total_power", "source_fraction", "relay_fraction"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_values_that_are_not_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            PowerConfig(**{"total_power": 1.0, field: value})


class TestLinkConfig:
    def test_symbol_length(self):
        cfg = LinkConfig(16, 4, PowerConfig(1.0))
        assert cfg.symbol_len == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(12, 2, PowerConfig(1.0))  # not a power of two
        with pytest.raises(ValueError):
            LinkConfig(16, 16, PowerConfig(1.0))  # prefix as long as the body
        with pytest.raises(ValueError):
            LinkConfig(16, -1, PowerConfig(1.0))


class TestChannelRealization:
    def test_delay_normalisation_enforced(self):
        f = np.ones(3, dtype=complex)
        g = np.ones(3, dtype=complex)
        with pytest.raises(ValueError):
            ChannelRealization(f, g, np.array([1, 2, 3]))  # first arrival not at 0
        with pytest.raises(ValueError):
            ChannelRealization(f, g, np.array([0, 3, 2]))  # not sorted
        with pytest.raises(ValueError):
            ChannelRealization(f, g, np.array([0, -1, 2]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ChannelRealization(np.ones(3, dtype=complex), np.ones(2, dtype=complex), np.zeros(3, dtype=int))

    def test_fractional_delays_rejected(self):
        # they used to be rounded down: [0, 1.7] held [0, 1]
        f = np.ones(2, dtype=complex)
        with pytest.raises(ValueError, match="delays must be integers"):
            ChannelRealization(f, f, [0, 1.7])
        with pytest.raises(ValueError, match="delays must be integers"):
            draw_channel(np.random.default_rng(0), 4, cp_len=4, delays=(0, 0.5, 1, 2))
        assert ChannelRealization(f, f, [0, np.int64(1)]).delays.tolist() == [0, 1]

    def test_the_callers_arrays_stay_writeable(self):
        f, d = np.ones(2, dtype=complex), np.array([0, 1])
        channel = ChannelRealization(f, f, d)
        assert f.flags.writeable and d.flags.writeable
        for field in (channel.source_to_relay, channel.relay_to_dest, channel.delays):
            assert not field.flags.writeable
        f[0], d[1] = 5.0, 3
        assert channel.source_to_relay[0] == channel.relay_to_dest[0] == 1.0 and channel.delays[1] == 1


class TestDrawChannel:
    def test_random_delays_sorted_and_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            ch = draw_channel(rng, 4, cp_len=16)
            d = ch.delays
            assert d[0] == 0
            assert np.all(np.diff(d) >= 0)
            assert d[-1] <= 15

    def test_fixed_delays_do_not_consume_generator_samples(self):
        a = draw_channel(np.random.default_rng(7), 3, cp_len=8, delays=(0, 1, 2))
        b = draw_channel(np.random.default_rng(7), 3, cp_len=8, delays=(0, 4, 7))
        assert np.allclose(a.source_to_relay, b.source_to_relay)
        assert np.allclose(a.relay_to_dest, b.relay_to_dest)

    def test_fading_is_unit_variance(self):
        rng = np.random.default_rng(11)
        ch = draw_channel(rng, 4000, cp_len=0)
        assert np.mean(np.abs(ch.source_to_relay) ** 2) == pytest.approx(1.0, rel=0.1)
        assert np.mean(np.abs(ch.relay_to_dest) ** 2) == pytest.approx(1.0, rel=0.1)
        assert abs(np.mean(ch.source_to_relay)) < 0.05


class TestSourceTransmit:
    def test_modulation_prefix_and_scale(self):
        rng = np.random.default_rng(5)
        schedule = derive_schedule(named_code("alamouti"))
        assert schedule.source_modulation == ("idft", "dft")
        cfg = LinkConfig(8, 2, PowerConfig(4.0, 1.0, 0.5))
        frame = _random_frame(rng, 2, 8)
        out = source_transmit(frame, schedule, cfg)
        assert out.shape == (2, 10)
        scale = math.sqrt(4.0)
        assert np.allclose(out[0], scale * add_cp(spectral.idft(frame[0]), 2))
        assert np.allclose(out[1], scale * add_cp(spectral.dft(frame[1]), 2))
        # prefix repeats the tail
        assert np.allclose(out[:, :2], out[:, -2:])

    def test_shape_mismatch_rejected(self):
        schedule = derive_schedule(named_code("alamouti"))
        cfg = LinkConfig(8, 2, PowerConfig(1.0))
        with pytest.raises(ValueError):
            source_transmit(np.zeros((3, 8)), schedule, cfg)


class TestRelayProcess:
    def test_signs_conjugation_and_reversal(self):
        rng = np.random.default_rng(9)
        schedule = derive_schedule(named_code("alamouti"))
        n, cp = 4, 2
        cfg = LinkConfig(n, cp, PowerConfig(3.0, 1.0, 0.5))
        received = (rng.standard_normal((2, 2, n + cp)) + 1j * rng.standard_normal((2, 2, n + cp)))
        out = relay_process(instruction_rows(received, schedule, "block"), schedule, cfg)
        gain = cfg.power.relay_gain
        row = {(relay, slot): a for a, (relay, _, slot) in enumerate(link_rows(schedule))}

        # slot 0 is not reversed: relay 0 forwards block 0, relay 1 sends
        # the negated conjugate of block 1
        assert np.allclose(out[row[0, 0]], gain * received[0, 0])
        assert np.allclose(out[row[1, 0]], gain * -np.conj(received[1, 1]))

        # slot 1 is reversed: sample p of the output holds sample
        # (cp - p) mod n of the periodic extension of the input
        def reversed_extension(x):
            body = np.array([x[(cp - p) % n] for p in range(n)])
            return np.concatenate((body, body[:cp]))

        assert np.allclose(out[row[0, 1]], gain * reversed_extension(received[0, 1]))
        assert np.allclose(out[row[1, 1]], gain * reversed_extension(np.conj(received[1, 0])))

    def test_reversed_output_keeps_a_valid_prefix_structure(self):
        rng = np.random.default_rng(2)
        schedule = derive_schedule(named_code("alamouti"))
        cfg = LinkConfig(8, 3, PowerConfig(1.0))
        received = complex_noise(rng, (4, 11))
        out = relay_process(received, schedule, cfg)
        reversed_rows = [a for a, (_, _, slot) in enumerate(link_rows(schedule)) if slot == 1]
        assert len(reversed_rows) == 2
        # periodic over the full window: sample p equals sample p + n
        assert np.allclose(out[reversed_rows, 8:], out[reversed_rows, :3])

    @pytest.mark.parametrize("name", LINK_CODES)
    @pytest.mark.parametrize("cp", [0, 1, 16])
    def test_gather_equals_the_slot_loop_bit_for_bit(self, name, cp):
        code = _link_code(name)
        schedule = derive_schedule(code)
        cfg = LinkConfig(32, cp, PowerConfig(7.3, 1.0, 0.3))
        rng = np.random.default_rng(cp)
        received = complex_noise(rng, (code.num_relays, schedule.num_blocks, cfg.symbol_len))
        out = relay_process(instruction_rows(received, schedule, "block"), schedule, cfg)
        dense = relay_process_loop(received, schedule, cfg)
        assert np.array_equal(_bits(out), _bits(instruction_rows(dense, schedule, "slot")))
        assert not np.any(silent_rows(dense, schedule))
        raw = complex_noise(rng, (schedule.num_slots, cfg.symbol_len))
        assert np.array_equal(destination_frontend(raw, schedule, cfg), frontend_loop(raw, schedule, cfg))

    def test_block_out_of_range_names_slot_relay_and_block(self):
        schedule = derive_schedule(named_code("relay4"))
        channel = draw_channel(np.random.default_rng(3), 4, cp_len=2)
        symbols = np.zeros((2, 10), dtype=complex)  # blocks 2 and 3 were never sent
        relay_noise, _ = frame_noise(np.random.default_rng(4), schedule, LinkConfig(8, 2, PowerConfig(1.0)))
        for noise in (None, relay_noise):
            with pytest.raises(ValueError, match="slot 0 tells relay 2 to forward block 2, but only 2 blocks"):
                relay_receive(symbols, schedule, channel, noise)

    def test_row_count_mismatch_names_the_instruction_count(self):
        schedule = derive_schedule(named_code("relay5"))  # 10 of 30 (relay, slot) pairs forward
        cfg = LinkConfig(8, 2, PowerConfig(1.0))
        with pytest.raises(ValueError, match=r"shape \(30, 10\) does not match the schedule's 10 forwarding"):
            relay_process(np.zeros((30, 10), dtype=complex), schedule, cfg)
        with pytest.raises(ValueError, match=r"shape \(10, 9\) does not match the schedule's 10 forwarding"):
            relay_process(np.zeros((10, 9), dtype=complex), schedule, cfg)


class TestNoiseAndReceiveArithmetic:
    """One-call noise draws and in-place signal sums give the two-call
    streams and the per-relay loops bit for bit (compared as uint64 views)."""

    @pytest.mark.parametrize("shape", [4, (4,), (3, 5), (4, 4, 80)])
    def test_complex_noise_is_the_two_call_stream(self, shape):
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        assert np.array_equal(complex_noise(a, shape).view(float), complex_noise_two_calls(b, shape).view(float))
        assert np.array_equal(a.standard_normal(3), b.standard_normal(3))

    @pytest.mark.parametrize("name", LINK_CODES)
    @pytest.mark.parametrize("cp", [0, 1, 16])
    def test_receive_stages_equal_their_loops(self, name, cp):
        code = _link_code(name)
        schedule = derive_schedule(code)
        n = 32
        cfg = LinkConfig(n, cp, PowerConfig(30.0, 1.0, 1.0 / code.num_relays))
        rng = np.random.default_rng(17 + cp)
        shape = (code.num_relays, code.symbol_count, n + cp)
        fixed = (
            None,
            tuple(np.round(np.linspace(0, 3 * cp, code.num_relays)).astype(int)),
            (0,) * (code.num_relays - 1) + (n + cp,),  # the last relay lands past the window
        )
        for delays in fixed:
            channel = draw_channel(rng, code.num_relays, cp, delays)
            frame = _random_frame(rng, code.symbol_count, n)
            symbols = source_transmit(frame, schedule, cfg)
            blocks = [spectral.dft(f) if m == "dft" else spectral.idft(f) for f, m in zip(frame, schedule.source_modulation)]
            assert np.array_equal(
                _bits(symbols), _bits(cfg.power.source_scale * add_cp(np.array(blocks), cp))
            )
            clean = channel.source_to_relay[:, None, None] * symbols[None, :, :]
            for noisy in (True, False):
                a, b = np.random.default_rng(18), np.random.default_rng(18)
                relay_noise, destination_noise = frame_noise(a, schedule, cfg) if noisy else (None, None)
                received = relay_receive(symbols, schedule, channel, relay_noise)
                expected = clean + complex_noise_two_calls(b, shape) if noisy else clean
                assert np.array_equal(_bits(received), _bits(instruction_rows(expected, schedule, "block")))
                transmitted = relay_process(received, schedule, cfg)
                dense = relay_process_loop(expected, schedule, cfg)
                assert np.array_equal(_bits(transmitted), _bits(instruction_rows(dense, schedule, "slot")))
                assert not np.any(silent_rows(dense, schedule))
                raw = destination_receive(transmitted, schedule, channel, destination_noise)
                noise = complex_noise_two_calls(b, (code.slot_count, n + cp)) if noisy else None
                assert np.array_equal(_bits(raw), _bits(destination_receive_loop(dense, channel, noise)))
                assert a.integers(1 << 62) == b.integers(1 << 62)  # both streams are at one place

    @pytest.mark.parametrize("name", LINK_CODES)
    def test_run_frame_leaves_the_stream_where_the_two_call_draws_do(self, name):
        # frame_noise is the two-call draws of the relays' (R, nu, N + cp)
        # noise, at the forwarded rows, and of the destination's (T, N + cp)
        code = _link_code(name)
        schedule = derive_schedule(code)
        n, cp = 16, 4
        cfg = LinkConfig(n, cp, PowerConfig(10.0, 1.0, 1.0 / code.num_relays))
        channel = draw_channel(np.random.default_rng(5), code.num_relays, cp)
        frame = _random_frame(np.random.default_rng(6), code.symbol_count, n)
        a, b = np.random.default_rng(19), np.random.default_rng(19)
        noise = frame_noise(a, schedule, cfg)
        relay_noise = complex_noise_two_calls(b, (code.num_relays, code.symbol_count, n + cp))
        destination_noise = complex_noise_two_calls(b, (code.slot_count, n + cp))
        assert np.array_equal(a.standard_normal(5), b.standard_normal(5))
        assert np.array_equal(_bits(noise[0]), _bits(instruction_rows(relay_noise, schedule, "block")))
        assert np.array_equal(_bits(noise[1]), _bits(destination_noise))
        received = channel.source_to_relay[:, None, None] * source_transmit(frame, schedule, cfg)[None] + relay_noise
        raw = destination_receive_loop(relay_process_loop(received, schedule, cfg), channel, destination_noise)
        got = run_frame(frame, schedule, channel, cfg, noise)
        assert np.array_equal(_bits(got), _bits(destination_frontend(raw, schedule, cfg)))

    def test_destination_needs_one_row_per_instruction(self):
        schedule = derive_schedule(named_code("alamouti"))  # 4 instructions
        ch = ChannelRealization(np.ones(2, dtype=complex), np.ones(2, dtype=complex), np.array([0, 1]))
        with pytest.raises(ValueError, match=r"shape \(2, 6\) needs one row per forwarding instruction .*\(4\)"):
            destination_receive(np.ones((2, 6), dtype=complex), schedule, ch)

    def test_stages_reject_a_channel_with_other_relays(self):
        schedule = derive_schedule(named_code("alamouti"))
        ch = draw_channel(np.random.default_rng(0), 3, cp_len=2)
        with pytest.raises(ValueError, match="the channel has 3 relays, the schedule 2"):
            relay_receive(np.ones((2, 6), dtype=complex), schedule, ch)
        with pytest.raises(ValueError, match="the channel has 3 relays, the schedule 2"):
            destination_receive(np.ones((4, 6), dtype=complex), schedule, ch)


class TestDestinationReceive:
    def test_delayed_superposition(self):
        t = np.zeros((2, 6), dtype=complex)
        t[0] = np.arange(1.0, 7.0)
        t[1] = 10.0 * np.arange(1.0, 7.0)
        g = np.array([1.0 + 0j, 1j])
        ch = ChannelRealization(np.ones(2, dtype=complex), g, np.array([0, 2]))
        out = destination_receive(t, _one_slot_schedule(2), ch)
        expected = t[0].copy()
        expected[2:] += 1j * t[1, :4]
        assert np.allclose(out[0], expected)

    def test_silent_slots_of_relay_zero_add_nothing(self):
        # relay 0 forwards only in slot 1, relay 1 in both: slot 0 is relay 1's alone
        instr = RelayInstruction(0, 1.0, False)
        schedule = RelaySchedule(("idft",), (False, False), ((None, instr), (instr, instr)))
        t = np.arange(1.0, 19.0).reshape(3, 6).astype(complex)  # rows: (0, slot 1), (1, slot 0), (1, slot 1)
        ch = ChannelRealization(np.ones(2, dtype=complex), np.array([2.0 + 0j, 1j]), np.array([0, 1]))
        out = destination_receive(t, schedule, ch)
        assert np.array_equal(out[0], np.concatenate(([0.0], 1j * t[1, :5])))
        assert np.array_equal(out[1], 2.0 * t[0] + np.concatenate(([0.0], 1j * t[2, :5])))

    def test_relays_with_slots_that_are_not_contiguous_equal_the_loop(self):
        # relay 1 forwards in slots 0, 1 and 3, relay 2 in 1 and 3: no slice selects them
        instr = RelayInstruction(0, 1.0, False)
        rows = ((instr, instr, None), (instr, instr, instr), (instr, None, None), (instr, instr, instr))
        schedule = RelaySchedule(("idft",), (False,) * 4, rows)
        rng = np.random.default_rng(12)
        dense = complex_noise(rng, (3, 4, 10))
        for relay, slot in ((1, 2), (2, 0), (2, 2)):
            dense[relay, slot] = 0.0
        ch = ChannelRealization(np.ones(3, dtype=complex), complex_noise(rng, 3), np.array([0, 1, 3]))
        out = destination_receive(instruction_rows(dense, schedule, "slot"), schedule, ch)
        assert np.array_equal(_bits(out), _bits(destination_receive_loop(dense, ch, None)))

    def test_relay_zero_in_slots_that_are_not_contiguous_equals_the_loop(self):
        # relay 0 forwards in slots 0 and 2 only, relay 1 in slots 0 and 1
        schedule = RelaySchedule(
            ("idft", "dft", "idft"),
            (False, True, False),
            (
                (RelayInstruction(0, 1.0, False), RelayInstruction(1, 1.0, False)),
                (None, RelayInstruction(0, -1.0, True)),
                (RelayInstruction(2, -1.0, True), None),
            ),
        )
        n, cp = 8, 2
        cfg = LinkConfig(n, cp, PowerConfig(20.0, 1.0, 0.5))
        rng = np.random.default_rng(23)
        ch = draw_channel(rng, 2, cp, (0, 1))
        frame = _random_frame(rng, 3, n)
        symbols = source_transmit(frame, schedule, cfg)
        clean = ch.source_to_relay[:, None, None] * symbols[None, :, :]
        dense = relay_process_loop(clean, schedule, cfg)
        assert not np.any(silent_rows(dense, schedule))
        for noisy in (True, False):
            noise = complex_noise_two_calls(np.random.default_rng(24), (3, n + cp)) if noisy else None
            out = destination_receive(instruction_rows(dense, schedule, "slot"), schedule, ch, noise)
            assert np.array_equal(_bits(out), _bits(destination_receive_loop(dense, ch, noise)))
        a, b = np.random.default_rng(25), np.random.default_rng(25)
        received = clean + complex_noise_two_calls(b, (2, 3, n + cp))
        raw = destination_receive_loop(relay_process_loop(received, schedule, cfg), ch, complex_noise_two_calls(b, (3, n + cp)))
        out = run_frame(frame, schedule, ch, cfg, frame_noise(a, schedule, cfg))
        assert np.array_equal(_bits(out), _bits(destination_frontend(raw, schedule, cfg)))

    def test_delay_beyond_window_contributes_nothing(self):
        t = np.ones((1, 6), dtype=complex)
        ch = ChannelRealization(
            np.ones(1, dtype=complex), np.ones(1, dtype=complex), np.array([0])
        )
        base = destination_receive(t, _one_slot_schedule(1), ch)
        assert np.allclose(base, 1.0)
        with pytest.raises(ValueError):
            ChannelRealization(np.ones(1, dtype=complex), np.ones(1, dtype=complex), np.array([7]))

    def test_stages_reject_noise_of_another_shape(self):
        # without the check, a (1, N + cp) row would be added to every row
        rng = np.random.default_rng(26)
        schedule = derive_schedule(named_code("alamouti"))  # 4 instructions, 2 slots
        cfg = LinkConfig(4, 2, PowerConfig(1.0))
        ch = draw_channel(rng, 2, 2)
        frame = _random_frame(rng, 2, 4)
        relay_noise, destination_noise = frame_noise(rng, schedule, cfg)
        symbols = source_transmit(frame, schedule, cfg)
        for wrong in (relay_noise[:1], relay_noise[:, :-1], relay_noise[None], destination_noise):
            with pytest.raises(ValueError, match=r"noise of shape .* does not match the \(4, 6\) signal"):
                relay_receive(symbols, schedule, ch, wrong)
        transmitted = relay_process(relay_receive(symbols, schedule, ch, relay_noise), schedule, cfg)
        for wrong in (destination_noise[:1], destination_noise.T, relay_noise):
            with pytest.raises(ValueError, match=r"noise of shape .* does not match the \(2, 6\) signal"):
                destination_receive(transmitted, schedule, ch, wrong)
        with pytest.raises(ValueError, match="noise of shape"):
            run_frame(frame, schedule, ch, cfg, (destination_noise, relay_noise))


class TestEndToEndIdentity:
    """Noiseless pipeline output equals gain * X_k @ h_k on every subcarrier."""

    @pytest.mark.parametrize("name", ["alamouti", "relay4", "relay5", "relay4_diff"])
    def test_matches_flat_model_for_random_delays(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        code = named_code(name)
        schedule = derive_schedule(code)
        n, cp = 32, 8
        cfg = LinkConfig(n, cp, PowerConfig(12.0, 1.0, 1.0 / code.num_relays))
        for _ in range(10):
            channel = draw_channel(rng, code.num_relays, cp)
            frame = _random_frame(rng, code.symbol_count, n)
            got = run_frame(frame, schedule, channel, cfg)
            want = expected_subcarrier_rx(code, schedule, channel, cfg, frame)
            assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize("name", ["alamouti", "relay4", "relay5"])
    def test_holds_at_the_full_prefix_boundary(self, name):
        rng = np.random.default_rng(77)
        code = named_code(name)
        schedule = derive_schedule(code)
        n, cp = 32, 8
        cfg = LinkConfig(n, cp, PowerConfig(12.0, 1.0, 1.0 / code.num_relays))
        delays = [0] * code.num_relays
        delays[-1] = cp  # latest relay exactly one prefix late
        channel = draw_channel(rng, code.num_relays, cp, tuple(delays))
        frame = _random_frame(rng, code.symbol_count, n)
        got = run_frame(frame, schedule, channel, cfg)
        want = expected_subcarrier_rx(code, schedule, channel, cfg, frame)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_breaks_when_delay_exceeds_the_prefix(self):
        rng = np.random.default_rng(78)
        code = named_code("relay4")
        schedule = derive_schedule(code)
        n, cp = 32, 8
        cfg = LinkConfig(n, cp, PowerConfig(12.0, 1.0, 0.25))
        delays = (0, 0, 0, cp + n // 4)
        channel = draw_channel(rng, code.num_relays, cp, delays)
        frame = _random_frame(rng, code.symbol_count, n)
        got = run_frame(frame, schedule, channel, cfg)
        want = expected_subcarrier_rx(code, schedule, channel, cfg, frame)
        assert np.max(np.abs(got - want)) > 1e-3

    def test_noise_matches_structural_slot_variances(self):
        rng = np.random.default_rng(123)
        code = named_code("relay4")
        schedule = derive_schedule(code)
        n, cp = 32, 8
        cfg = LinkConfig(n, cp, PowerConfig(8.0, 1.0, 0.25))
        channel = draw_channel(rng, code.num_relays, cp)
        frame = _random_frame(rng, code.symbol_count, n)
        clean = run_frame(frame, schedule, channel, cfg)
        residuals = []
        for _ in range(150):
            noisy = run_frame(frame, schedule, channel, cfg, frame_noise(rng, schedule, cfg))
            residuals.append(noisy - clean)
        measured = np.mean(np.abs(np.stack(residuals)) ** 2, axis=(0, 2))
        expected = slot_noise_variances(code, schedule, channel, cfg)
        assert np.allclose(measured, expected, rtol=0.12)

    def test_noiseless_run_is_deterministic(self):
        code = named_code("alamouti")
        schedule = derive_schedule(code)
        cfg = LinkConfig(16, 4, PowerConfig(5.0, 1.0, 0.5))
        channel = draw_channel(np.random.default_rng(1), 2, 4)
        frame = _random_frame(np.random.default_rng(2), 2, 16)
        a = run_frame(frame, schedule, channel, cfg)
        b = run_frame(frame, schedule, channel, cfg)
        assert np.array_equal(a, b)
