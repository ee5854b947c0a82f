"""Sweep harness: reproducibility, stopping rule, CSV contract and CLI."""

import dataclasses
import functools
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from asyncrelay import harness
from asyncrelay.cli import build_parser, config_from_args
from asyncrelay.cli import main as cli_main
from asyncrelay.decoder import (
    coherent_decoder,
    equivalent_channel_matrix,
    noise_covariance,
    rotation_table,
)
from asyncrelay.differential import diff_decode_frame, diff_encode, initial_state
from asyncrelay.harness import (
    _CoherentEngine,
    _draw_unit,
    _sweep_engines,
    CSV_HEADER,
    BerPoint,
    ConfigError,
    SimConfig,
    emit_csv,
    emit_plotscript,
    frame_rng,
    parse_csv,
    parse_delay_spec,
    parse_power_spec,
    run_sweep,
    wilson_interval,
)
from asyncrelay.codebook import ScheduleError, derive_schedule, format_code_text, named_code
from asyncrelay.relaysim import LinkConfig, draw_channel, frame_noise, link_tables, run_frame

from oracles import (
    diff_decisions,
    draw_frame_per_group,
    exhaustive_ml,
    gram_gap,
    sheared_code,
    slot_swapped_code,
    unequal_alphabet_code,
)

FAST = dict(n_fft=8, cp_len=2, frames=20, min_errors=4, seed=13)


def _pool_with(monkeypatch, method: str) -> None:
    """Make the harness's pools start their workers by ``method``."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=context))


def _counts(points):
    return [(p.power_db, p.bit_errors, p.bits, p.frames) for p in points]


class TestWilsonInterval:
    def test_frozen_reference_value(self):
        lo, hi = wilson_interval(5, 100)
        assert lo == pytest.approx(0.021543, abs=1e-4)
        assert hi == pytest.approx(0.111833, abs=1e-3)

    def test_bounds_and_ordering(self):
        for errors, trials in [(0, 50), (1, 10), (10, 10), (37, 1000)]:
            lo, hi = wilson_interval(errors, trials)
            assert 0.0 <= lo <= errors / trials <= hi <= 1.0

    def test_zero_errors_has_zero_lower_bound(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi > 0.0

    def test_interval_shrinks_with_more_trials(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(100, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_no_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestSpecParsing:
    def test_range_spec_is_inclusive(self):
        assert parse_power_spec("10:5:40") == (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
        assert parse_power_spec("10:2.5:20") == (10.0, 12.5, 15.0, 17.5, 20.0)

    def test_list_and_single_value(self):
        assert parse_power_spec("5, 7.5, 10") == (5.0, 7.5, 10.0)
        assert parse_power_spec("25") == (25.0,)

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            parse_power_spec("10:0:40")
        with pytest.raises(ConfigError):
            parse_power_spec("abc")
        with pytest.raises(ConfigError):
            parse_power_spec("40:5:10")

    def test_delay_spec(self):
        assert parse_delay_spec("0,5,10,15") == (0, 5, 10, 15)
        with pytest.raises(ConfigError):
            parse_delay_spec("0,x")


class TestConfigValidation:
    def test_bad_values_raise_config_error(self):
        bad = [
            dict(mode="other"),
            dict(n_fft=12),
            dict(cp_len=8, n_fft=8),
            dict(power_db=()),
            dict(power_db=(20.0, 20.0)),
            dict(power_db=(10.0, 20, 15.0, 20.0)),
            dict(frames=0),
            dict(min_errors=-1),
            dict(workers=0),
            dict(diff_chain=1, mode="differential"),
            dict(delays=(0, 1)),  # relay4 needs 4 entries
            dict(delays=(1, 2, 3, 4)),
            dict(max_frames=5, frames=10),
            dict(code="/no/such/file.code"),
            dict(out="/no/such/dir/sweep.csv"),
        ]
        for kwargs in bad:
            with pytest.raises(ConfigError):
                run_sweep(SimConfig(**{**FAST, "frames": kwargs.pop("frames", 20), **kwargs}))

    def test_infeasible_code_raises_schedule_error(self):
        with pytest.raises(ScheduleError):
            run_sweep(SimConfig(code="example1", power_db=(10.0,), **FAST))

    def test_differential_mode_needs_a_commuting_codebook(self):
        with pytest.raises(ScheduleError):
            run_sweep(SimConfig(mode="differential", code="alamouti", power_db=(10.0,), **FAST))

    def test_differential_mode_rejects_a_codebook_that_is_not_scaled_unitary(self, tmp_path, capsys):
        # relay4_diff's matrices with each symbol's (Re, Im) as one group:
        # the words commute with the relay matrices but are not scaled unitary
        path = tmp_path / "unpaired.code"
        text = format_code_text(named_code("relay4_diff"))
        path.write_text(text.replace("0 2 | 1 3 | 4 6 | 5 7", "0 1 | 2 3 | 4 5 | 6 7"))
        with pytest.raises(ScheduleError, match="not scaled unitary"):
            run_sweep(SimConfig(mode="differential", code=str(path), power_db=(30.0,), **FAST))
        assert cli_main(["--mode", "differential", "--code", str(path), "--power", "30", "--frames", "1"]) == 3
        assert "not scaled unitary" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["coherent", "differential"])
    def test_a_symbol_sent_by_no_relay_raises_schedule_error(self, mode, tmp_path):
        # feasible, but symbol 1's column is zero: nothing could decide it
        path = tmp_path / "silent.code"
        path.write_text("2 2 1\ncolumn conj=0\n1 0\n0 0\n")
        with pytest.raises(ScheduleError, match="symbol 1 is sent by no relay"):
            run_sweep(SimConfig(mode=mode, code=str(path), power_db=(10.0,), **FAST))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=-1),
            dict(power_db=(math.nan,)),
            dict(power_db=(10.0, math.inf)),
            dict(power_db=(4000.0,)),  # 10^400 overflows a float
            dict(relay_fraction=math.nan),
            dict(relay_fraction=math.inf),
            dict(source_fraction=math.nan),
            dict(rotation_deg=math.nan),
            dict(rotation_deg=-math.inf),
        ],
    )
    def test_out_of_contract_values_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            run_sweep(SimConfig(**{**FAST, **kwargs}))

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", "-1"],
            ["--power", "nan"],
            ["--power", "inf"],
            ["--relay-fraction", "nan"],
            ["--rotation-deg", "nan"],
            ["--rotation-deg", "inf"],
        ],
    )
    def test_out_of_contract_values_exit_2(self, flags, capsys):
        assert cli_main([*flags, "--n", "8", "--cp", "2", "--frames", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(delays=(0, 0.5, 1, 2)),
            dict(delays=(0, 1, 2, 3.9)),
            dict(seed=1.5),
            dict(n_fft=8.0),
            dict(cp_len=2.5),
            dict(frames=20.0),
            dict(min_errors=4.5),
            dict(max_frames=40.5),
            dict(workers=1.0),
            dict(diff_chain=2.5),
        ],
    )
    def test_fractional_integer_values_raise_config_error_naming_the_field(self, kwargs):
        # they used to run rounded down (delays, seed) or end in a TypeError
        (name,) = kwargs
        with pytest.raises(ConfigError, match=f"^{name}"):
            run_sweep(SimConfig(**{**FAST, **kwargs}))

    def test_numpy_integers_are_integers(self):
        cfg = SimConfig(**{**FAST, "seed": np.int64(13)}, power_db=(20.0,), delays=tuple(np.array([0, 1, 1, 2])))
        assert _counts(run_sweep(cfg)) == _counts(run_sweep(SimConfig(**FAST, power_db=(20.0,), delays=(0, 1, 1, 2))))

    @pytest.mark.parametrize("point", ["10", None, True, np.True_, 10 + 0j, (10.0,)])
    def test_power_points_that_are_not_real_numbers_raise_config_error(self, point):
        # a string or None ended in a TypeError, and True ran as 1 dB
        with pytest.raises(ConfigError, match="power points must be real numbers"):
            run_sweep(SimConfig(**FAST, power_db=(20.0, point)))

    def test_numpy_and_integer_power_points_run_as_python_floats(self, tmp_path):
        # numpy scalars were written as np.float64(10.0) into the CSV and the
        # plot script, and parse_csv could not read that CSV back
        floats = SimConfig(**FAST, power_db=(10.0, 20.0))
        for powers in (tuple(np.arange(10.0, 21.0, 10.0)), (np.int64(20), np.float32(10.0)), (10, 20)):
            points = run_sweep(dataclasses.replace(floats, power_db=powers))
            assert [type(p.power_db) for p in points] == [float, float]
            assert _counts(points) == _counts(run_sweep(floats))
            emit_csv(points, tmp_path / "sweep.csv")
            emit_plotscript(points, tmp_path / "sweep.gp")
            assert [p.power_db for p in parse_csv(tmp_path / "sweep.csv")] == [10.0, 20.0]
            assert "set xrange [9.0:21.0]" in (tmp_path / "sweep.gp").read_text()

    def test_fixed_delays_past_the_prefix_warn_and_still_simulate(self):
        cfg = SimConfig(power_db=(20.0, 30.0), delays=(0, 1, 2, 5), **FAST)
        with pytest.warns(UserWarning, match="cyclic prefix"):
            points = run_sweep(cfg)
        assert [(p.bit_errors, p.bits, p.frames) for p in points] == [(25, 1280, 20), (19, 1280, 20)]

    def test_fixed_delays_up_to_the_prefix_do_not_warn(self):
        cfg = SimConfig(power_db=(20.0,), delays=(0, 1, 2, FAST["cp_len"]), **FAST)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_sweep(cfg)


_PIPE = object()  # stands for the read end of a pipe holding a code's text


class TestConfigSchema:
    """Every SimConfig field is checked against its annotation before any
    unit runs: no bool for a number, no string for a number or a bool, a str
    or path for a name, and a tuple or list for a sweep."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("noise", "off"),  # ran with noise
            ("noise", None),  # ran with noise off
            ("seed", True),  # ran as seed 1
            ("frames", True),
            ("workers", True),
            ("delays", (0, True)),
            ("source_fraction", True),
            ("relay_fraction", True),
            ("rotation_deg", True),
            ("source_fraction", "0.5"),  # these four ended in a TypeError
            ("rotation_deg", "30"),
            ("power_db", 10.0),
            ("out", 5),
            ("rotation_deg", 10**400),  # these two ended in an OverflowError
            ("power_db", (10**400,)),
            ("code", _PIPE),  # an int was opened as a file descriptor
        ],
    )
    def test_a_value_of_the_wrong_type_raises_config_error_naming_its_field(self, name, value):
        read_end, write_end = os.pipe()  # never fd 0-2: those are taken
        try:
            os.write(write_end, format_code_text(named_code("alamouti")).encode())
            os.close(write_end)
            if value is _PIPE:
                value = read_end
            with pytest.raises(ConfigError, match=f"^{name}"):
                run_sweep(SimConfig(**{**FAST, "code": "alamouti", "power_db": (0.0,), name: value}))
            os.fstat(read_end)  # still open
        finally:
            os.close(read_end)

    def test_numpy_scalars_paths_and_lists_give_the_csv_of_the_plain_forms(self, tmp_path):
        code = tmp_path / "pair.code"
        code.write_text(format_code_text(named_code("alamouti")).replace("groups 0 1 | 2 3", "groups 0 2 | 1 3"))
        plain = SimConfig(
            code=str(code), n_fft=8, cp_len=2, power_db=(5.0, 10.0), frames=20, min_errors=4, max_frames=60,
            seed=13, delays=(0, 1), noise=True, workers=1, source_fraction=1.0, relay_fraction=0.5,
            rotation_deg=30.0, diff_chain=2, out=str(tmp_path / "plain.csv"),
        )
        numpy = SimConfig(
            code=code, n_fft=np.int64(8), cp_len=np.int32(2), power_db=[np.float64(5.0), 10.0], frames=np.int64(20),
            min_errors=np.uint8(4), max_frames=np.int16(60), seed=np.int64(13), delays=[np.int64(0), 1],
            noise=np.True_, workers=np.int64(1), source_fraction=np.float64(1.0), relay_fraction=np.float64(0.5),
            rotation_deg=np.float64(30.0), diff_chain=np.int8(2), out=tmp_path / "numpy.csv",
        )
        for cfg in (plain, numpy):
            emit_csv(run_sweep(cfg), cfg.out)
        assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        quiet = [dataclasses.replace(cfg, noise=flag) for cfg, flag in ((plain, False), (numpy, np.False_))]
        assert _counts(run_sweep(quiet[0])) == _counts(run_sweep(quiet[1]))

    @pytest.mark.parametrize(
        "mode, code",
        [("coherent", "alamouti"), ("differential", "relay4_diff"), ("coherent", "grid")],
    )
    def test_a_rotation_that_leaves_the_alphabets_unchanged_raises_config_error(self, mode, code, tmp_path, capsys):
        # they ran, and gave the errors of the default rotation
        if code == "grid":  # one group of four coordinates: a +/-sqrt(1/2) grid at any rotation
            path = tmp_path / "grid.code"
            path.write_text("2 2 1\ncolumn conj=0\n1 0\n0 1\ngroups 0 1 2 3\n")
            code = str(path)
        for rotation in (30.0, 0.0):
            with pytest.raises(ConfigError, match="^rotation_deg does not apply"):
                run_sweep(SimConfig(**{**FAST, "mode": mode, "code": code, "rotation_deg": rotation}))
        assert cli_main(["--mode", mode, "--code", code, "--rotation-deg", "30", "--frames", "1"]) == 2
        assert "rotation_deg does not apply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "code, counts",
        [
            ("relay4", [(232, 1280, 20), (69, 1280, 20)]),
            ("relay5", [(553, 1920, 20), (292, 1920, 20)]),
            ("pair", [(131, 640, 20), (77, 640, 20)]),
        ],
    )
    def test_a_rotation_that_changes_the_alphabets_runs_as_before(self, code, counts, tmp_path):
        if code == "pair":  # a file code with pair groups takes rotated QPSK
            path = tmp_path / "pair.code"
            path.write_text("2 2 1\ncolumn conj=0\n1 0\n0 1\ngroups 0 1 | 2 3\n")
            code = str(path)
        points = run_sweep(SimConfig(code=code, power_db=(5.0, 10.0), rotation_deg=30.0, **FAST))
        assert [(p.bit_errors, p.bits, p.frames) for p in points] == counts


def _engine(code, n_fft=16, cp_len=4, p_db=12.0):
    cfg = SimConfig(code=code.name, n_fft=n_fft, cp_len=cp_len)
    link = LinkConfig(n_fft, cp_len, harness._power_config(cfg, code, p_db))
    schedule = derive_schedule(code)
    return _CoherentEngine(cfg, code, schedule, link, link_tables(schedule, n_fft, cp_len), rotation_table(n_fft, cp_len))


class TestCoherentEngine:
    @pytest.mark.parametrize("name", ["alamouti", "relay4", "relay5", "relay4_diff", "sheared"])
    def test_gap_equals_largest_per_subcarrier_decomposition_gap(self, name):
        code = sheared_code() if name == "sheared" else named_code(name)
        engine = _engine(code)
        rng = np.random.default_rng(50)
        for _ in range(20):
            channel = draw_channel(rng, code.num_relays, engine.link.cp_len)
            h_all = equivalent_channel_matrix(code, channel, engine.link.n_fft)
            variances = noise_covariance(engine.schedule, channel, engine.link)
            gap = engine._gap(h_all, 1.0 / variances)
            expected = max(gram_gap(code, h, variances) for h in h_all)
            assert abs(gap - expected) <= 1e-12
            assert (gap > 1e-9) == (name == "sheared")

    @pytest.mark.parametrize("name", ["alamouti", "relay4", "relay5", "unequal"])
    def test_grouped_search_counts_the_same_errors_as_exhaustive_search(self, name, monkeypatch):
        # grouped search, the engine's exhaustive fallback and the residual-norm oracle
        code = unequal_alphabet_code() if name == "unequal" else named_code(name)
        engine = _engine(code, n_fft=8, cp_len=2, p_db=6.0)
        cfg = engine.cfg
        gain = engine.link.power.cascade_gain
        grouped = [engine.simulate(*_draw_unit(frame_rng(3, 0, unit), engine)) for unit in range(4)]
        monkeypatch.setattr(_CoherentEngine, "_gap", lambda self, h_all, w2: 1.0)
        with pytest.warns(UserWarning, match="exhaustive"):
            exhaustive = [engine.simulate(*_draw_unit(frame_rng(3, 0, unit), engine)) for unit in range(4)]
        assert grouped == exhaustive
        oracle = []
        for unit in range(2 if name == "relay5" else 4):  # the oracle scans 4096 relay5 code words per subcarrier
            rng = frame_rng(3, 0, unit)  # replay the unit's draws
            channel = draw_channel(rng, code.num_relays, cfg.cp_len, cfg.delays)
            tx, frame = draw_frame_per_group(rng, code, cfg.n_fft)
            received = run_frame(frame, engine.schedule, channel, engine.link, frame_noise(rng, engine.schedule, engine.link))
            h_all = equivalent_channel_matrix(code, channel, cfg.n_fft)
            variances = noise_covariance(engine.schedule, channel, engine.link)
            errors = 0
            for k in range(cfg.n_fft):
                decided = exhaustive_ml(code, received[:, k], h_all[k], variances, gain)
                errors += sum(bin(int(a) ^ b).count("1") for a, b in zip(tx[k], decided))
            oracle.append((errors, engine.bits_per_unit))
        assert oracle == grouped[: len(oracle)]
        assert sum(e for e, _ in oracle) > 0

    def test_alphabets_beyond_256_labels_count_errors_bit_by_bit(self, tmp_path):
        # one relay forwarding five symbols; group 0 covers 9 real coordinates, K = 512
        path = tmp_path / "wide.code"
        rows = "\n".join(" ".join("1" if i == j else "0" for j in range(5)) for i in range(5))
        path.write_text(f"5 5 1\ncolumn conj=0\n{rows}\ngroups 0 1 2 3 4 5 6 7 8 | 9\n")
        cfg = SimConfig(code=str(path), n_fft=8, cp_len=2, power_db=(3.0,), frames=3, min_errors=0, max_frames=3)
        (point,) = run_sweep(cfg)
        (engine,) = _sweep_engines(cfg)
        assert engine.code.alphabet[0].shape[0] == 512
        errors, labels = 0, []
        for unit in range(3):
            rng = frame_rng(cfg.seed, 0, unit)  # replay the unit's draws
            channel = draw_channel(rng, 1, cfg.cp_len, cfg.delays)
            tx, frame = draw_frame_per_group(rng, engine.code, cfg.n_fft)
            received = run_frame(frame, engine.schedule, channel, engine.link, frame_noise(rng, engine.schedule, engine.link))
            h_all = equivalent_channel_matrix(engine.code, channel, cfg.n_fft)
            w2 = 1.0 / noise_covariance(engine.schedule, channel, engine.link)
            decided = engine.decoder.grouped(received, h_all, w2)
            errors += sum(bin(int(a) ^ int(b)).count("1") for a, b in zip(tx.ravel(), decided.ravel()))
            labels.extend(tx[:, 0])
        assert max(labels) >= 256
        assert point.bit_errors == errors > 0

    @pytest.mark.parametrize("name", ["alamouti", "relay4", "relay5", "relay4_diff", "sheared", "unequal"])
    @pytest.mark.parametrize("n_fft", [1, 16])
    def test_frame_draw_equals_per_group_draws(self, name, n_fft):
        code = {"sheared": sheared_code, "unequal": unequal_alphabet_code}.get(name, lambda: named_code(name))()
        engine = _engine(code, n_fft=n_fft, cp_len=0)
        for unit in range(5):
            a, b = frame_rng(2, 0, unit), frame_rng(2, 0, unit)
            tx = a.integers(0, *engine.frame_labels[0]).T
            frame = engine.decoder.symbols(tx).T
            tx_ref, frame_ref = draw_frame_per_group(b, code, n_fft)
            assert np.array_equal(tx, tx_ref)
            assert np.array_equal(frame.real, frame_ref.real) and np.array_equal(frame.imag, frame_ref.imag)
            assert np.array_equal(a.standard_normal(3), b.standard_normal(3))

    def test_engine_shares_the_decoder_of_the_per_subcarrier_functions(self):
        engine = _engine(named_code("relay4"))
        assert engine.decoder is coherent_decoder(engine.code, engine.link.power.cascade_gain)


class TestDifferentialEngine:
    def test_a_sweep_builds_the_codebook_once_per_validation(self, monkeypatch):
        # the code, its feasibility check, its schedule and its codebook: once per sweep, not per point
        builders = ("_resolve_code", "check_feasibility", "derive_schedule", "build_codebook_4relay")
        calls = []
        for name in builders:
            build = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, name=name, build=build: calls.append(name) or build(*a))
        cfg = SimConfig(mode="differential", code="relay4_diff", power_db=(30.0, 10.0, 20.0), **FAST)
        for sweeps in (1, 2):
            run_sweep(cfg)
            assert sorted(calls) == sorted(builders * sweeps)
        engines = _sweep_engines(cfg)
        assert [e.link.power.total_power for e in engines] == [10.0, 100.0, 1000.0]
        for e in engines:
            assert (e.code, e.schedule, e.codebook) == (engines[0].code, engines[0].schedule, engines[0].codebook)

    def test_decisions_equal_the_einsum_oracle_on_replayed_units(self):
        cfg = SimConfig(mode="differential", code="relay4_diff", n_fft=32, cp_len=8, power_db=(12.0,), diff_chain=5)
        (engine,) = _sweep_engines(cfg)
        codebook = engine.codebook
        counted = []
        for unit in range(4):
            rng = frame_rng(cfg.seed, 0, unit)  # replay the unit's draws
            channel = draw_channel(rng, 4, cfg.cp_len, cfg.delays)
            state = initial_state(4, cfg.n_fft)
            y_prev = run_frame(state.symbols, engine.schedule, channel, engine.link, frame_noise(rng, engine.schedule, engine.link))
            scales = np.ones(cfg.n_fft)
            errors = 0
            for _ in range(cfg.diff_chain - 1):
                tx = rng.integers(0, codebook.num_words, size=cfg.n_fft)
                state = diff_encode(state, tx, codebook)
                y_now = run_frame(state.symbols, engine.schedule, channel, engine.link, frame_noise(rng, engine.schedule, engine.link))
                decided = diff_decisions(y_now, y_prev, scales, engine.code)
                assert np.array_equal(diff_decode_frame(y_now, y_prev, scales, codebook)[0], decided)
                errors += sum(bin(int(a) ^ int(b)).count("1") for a, b in zip(tx, decided))
                scales, y_prev = codebook.scales[decided], y_now
            counted.append((errors, engine.bits_per_unit))
        assert counted == [engine.simulate(*_draw_unit(frame_rng(cfg.seed, 0, unit), engine)) for unit in range(4)]
        assert sum(e for e, _ in counted) > 0


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


class TestUnitDraw:
    """``_draw_unit`` draws a unit's whole stream before any stage runs,
    in the order the engines used to interleave with their stages."""

    @staticmethod
    def _interleaved(rng, engine):
        """The channel, then per frame the labels and the frame's noise, one
        draw at a time: the engines' own order before the unit draw."""
        cfg = engine.cfg
        channel = draw_channel(rng, engine.code.num_relays, cfg.cp_len, cfg.delays)
        frames = []
        for index in range(cfg.diff_chain if cfg.mode == "differential" else 1):
            if cfg.mode == "coherent":
                labels = draw_frame_per_group(rng, engine.code, cfg.n_fft)[0].T
            else:
                labels = rng.integers(0, engine.codebook.num_words, size=cfg.n_fft) if index else None
            frames.append((labels, frame_noise(rng, engine.schedule, engine.link) if cfg.noise else None))
        return channel, frames

    @pytest.mark.parametrize("noise", [True, False])
    @pytest.mark.parametrize(
        "mode,code,delays",
        [
            ("coherent", "alamouti", None),
            ("coherent", "relay4", None),
            ("coherent", "relay4", (0, 1, 1, 3)),
            ("coherent", "relay5", None),
            ("coherent", "unequal", None),
            ("differential", "relay4_diff", None),
            ("differential", "relay4_diff", (0, 0, 2, 4)),
        ],
    )
    def test_the_unit_draw_equals_the_interleaved_draws(self, mode, code, delays, noise):
        if code == "unequal":
            engine = _engine(unequal_alphabet_code())
            engine.cfg = dataclasses.replace(engine.cfg, noise=noise)
        else:
            cfg = SimConfig(mode=mode, code=code, n_fft=16, cp_len=4, power_db=(12.0,), delays=delays, noise=noise, diff_chain=4)
            (engine,) = _sweep_engines(cfg)
        for unit in range(3):
            a, b = frame_rng(5, 0, unit), frame_rng(5, 0, unit)
            channel, frames = _draw_unit(a, engine)
            want_channel, want_frames = self._interleaved(b, engine)
            for name in ("source_to_relay", "relay_to_dest", "delays"):
                assert _same_bits(getattr(channel, name), getattr(want_channel, name))
            assert len(frames) == len(want_frames) == (4 if mode == "differential" else 1)
            for (labels, pair), (want_labels, want_pair) in zip(frames, want_frames):
                assert (labels is None) == (want_labels is None) and (pair is None) == (not noise)
                assert labels is None or _same_bits(labels, want_labels)
                assert pair is None or all(_same_bits(x, y) for x, y in zip(pair, want_pair, strict=True))
            assert a.integers(1 << 62) == b.integers(1 << 62)  # both streams are at one place

    def test_a_unit_is_a_pure_function_of_its_draws(self):
        for cfg in (
            SimConfig(code="relay4", n_fft=16, cp_len=4, power_db=(8.0,)),
            SimConfig(mode="differential", code="relay4_diff", n_fft=16, cp_len=4, power_db=(8.0,), diff_chain=3),
        ):
            (engine,) = _sweep_engines(cfg)
            draws = _draw_unit(frame_rng(cfg.seed, 0, 0), engine)
            assert engine.simulate(*draws) == engine.simulate(*draws)
            assert engine.simulate(*draws)[0] > 0


class TestReproducibility:
    def test_unit_streams_are_independent_of_execution_order(self):
        a = frame_rng(1, 0, 5).standard_normal(4)
        _ = frame_rng(1, 0, 6).standard_normal(4)
        b = frame_rng(1, 0, 5).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, frame_rng(1, 1, 5).standard_normal(4))
        assert not np.array_equal(a, frame_rng(2, 0, 5).standard_normal(4))

    @pytest.mark.parametrize("mode,code", [("coherent", "relay4"), ("differential", "relay4_diff")])
    def test_worker_count_does_not_change_results(self, mode, code, tmp_path):
        outputs = []
        for workers in (1, 3):
            cfg = SimConfig(mode=mode, code=code, power_db=(18.0,), workers=workers, **FAST)
            points = run_sweep(cfg)
            path = tmp_path / f"w{workers}.csv"
            emit_csv(points, path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "mode,code,power_db",
        [("coherent", "relay4", (0.0, 10.0, 35.0)), ("differential", "relay4_diff", (5.0, 15.0, 35.0))],
    )
    def test_points_stopping_after_different_batch_counts_are_worker_invariant(self, mode, code, power_db, tmp_path):
        cfg = SimConfig(
            mode=mode, code=code, n_fft=8, cp_len=2, power_db=power_db, frames=4, min_errors=40, max_frames=40, seed=3
        )
        outputs = []
        for workers in (1, 2, 3):
            points = run_sweep(dataclasses.replace(cfg, workers=workers))
            # one batch (min_errors), three batches (min_errors), ten batches (max_frames)
            assert [p.frames for p in points] == [4, 12, 40]
            path = tmp_path / f"w{workers}.csv"
            emit_csv(points, path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_importing_the_harness_loads_numpy_random(self):
        # forked pool workers inherit it, so a sweep whose parent ran no unit
        # does not import it again in every worker
        script = "import sys, asyncrelay.harness; print('numpy.random' in sys.modules)"
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "True"

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_a_pool_started_by_any_method_gives_the_in_process_results(self, method, monkeypatch):
        _pool_with(monkeypatch, method)
        for mode, code in (("coherent", "relay4"), ("differential", "relay4_diff"), ("coherent", "relay5")):
            cfg = SimConfig(
                mode=mode, code=code, n_fft=16, cp_len=4, power_db=(10.0, 20.0), frames=6, min_errors=20, max_frames=24, seed=2
            )
            assert _counts(run_sweep(dataclasses.replace(cfg, workers=2))) == _counts(run_sweep(cfg))

    def test_a_failing_batch_ends_the_sweep_and_cancels_queued_batches(self, monkeypatch, tmp_path):
        log = tmp_path / "units.log"

        def simulate(engine, channel, frames):
            if engine.link.power.total_power == 1.0:  # the 0 dB point, dispatched first
                raise RuntimeError("engine failure")
            with open(log, "a", encoding="utf-8") as fh:
                fh.write("unit\n")
            time.sleep(0.01)
            return 0, engine.bits_per_unit

        # the patched engine reaches the workers only through fork
        _pool_with(monkeypatch, "fork")
        monkeypatch.setattr(_CoherentEngine, "simulate", simulate)
        powers = tuple(float(p) for p in range(12))
        cfg = SimConfig(power_db=powers, frames=10, min_errors=0, max_frames=10, workers=2, n_fft=8, cp_len=2, seed=1)
        with pytest.raises(RuntimeError, match="engine failure"):
            run_sweep(cfg)
        ran = len(log.read_text(encoding="utf-8").splitlines()) if log.exists() else 0
        # run to completion, the other 11 points' first batches are 110 units
        assert ran < 55

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_sweep_reads_the_code_file_as_it_is_at_call_time(self, workers, tmp_path):
        path = tmp_path / "rewritten.code"
        cfg = SimConfig(code=str(path), power_db=(6.0,), workers=workers, **FAST)
        for name in ("relay4", "alamouti"):
            text = format_code_text(named_code(name))
            path.write_text(text)
            (tmp_path / f"{name}.code").write_text(text)
            (expected,) = run_sweep(dataclasses.replace(cfg, code=str(tmp_path / f"{name}.code"), workers=1))
            (point,) = run_sweep(cfg)
            assert (point.bit_errors, point.bits) == (expected.bit_errors, expected.bits)

    def test_a_code_whose_relay_zero_skips_a_slot_sweeps(self, tmp_path):
        # relay 0 forwards in slots 0 and 2: the relay link adds its rows by an index array
        path = tmp_path / "swapped.code"
        path.write_text(format_code_text(slot_swapped_code()))
        cfg = SimConfig(code=str(path), power_db=(20.0,), **FAST)
        (quiet,) = run_sweep(dataclasses.replace(cfg, noise=False))
        assert (quiet.bit_errors, quiet.bits) == (0, 20 * 8 * 12)
        (noisy,) = run_sweep(cfg)
        assert noisy.frames >= 20

    def test_repeated_run_is_identical(self):
        def counts(points):
            # everything except the wall-clock timing is deterministic
            return [(p.power_db, p.bit_errors, p.bits, p.ber, p.frames) for p in points]

        cfg = SimConfig(power_db=(15.0,), **FAST)
        assert counts(run_sweep(cfg)) == counts(run_sweep(cfg))


class TestSweepOwnedTables:
    @pytest.mark.parametrize(
        "mode,code,workers", [("coherent", "relay5", 1), ("differential", "relay4_diff", 1), ("coherent", "relay4", 2)]
    )
    def test_a_sweep_leaves_no_table_in_a_module(self, mode, code, workers):
        # every per-frame table lives on the sweep's schedule, code, LinkTables
        # and engines; coherent_decoder keeps the two most recent decoders
        run_sweep(SimConfig(mode=mode, code=code, power_db=(10.0, 20.0), workers=workers, **FAST))
        modules = [m for name, m in sorted(sys.modules.items()) if name.partition(".")[0] == "asyncrelay"]
        for module in modules:
            for name, value in vars(module).items():
                where = f"{module.__name__}.{name}"
                if hasattr(value, "cache_info"):
                    assert value.cache_info().currsize <= (2 if name == "coherent_decoder" else 0), where
                if isinstance(value, dict):
                    assert not any(isinstance(v, np.ndarray) for v in value.values()), where

    @pytest.mark.parametrize("mode,code,calls", [("differential", "relay4_diff", 0), ("coherent", "relay4", 1)])
    def test_only_a_coherent_sweep_builds_delay_rotations(self, mode, code, calls, monkeypatch):
        # the rotations belong to the flat model, which a differential sweep never forms
        counted = []
        for module in [m for name, m in sorted(sys.modules.items()) if name.partition(".")[0] == "asyncrelay"]:
            original = getattr(module, "delay_phases", None)
            if original is not None:  # every name that binds it, so no call goes uncounted
                monkeypatch.setattr(module, "delay_phases", lambda *args, _f=original: counted.append(args) or _f(*args))
        run_sweep(SimConfig(mode=mode, code=code, power_db=(10.0, 20.0), **FAST))
        assert len(counted) == calls

    def test_a_sweep_past_the_prefix_leaves_a_later_sweep_as_it_runs_alone(self, tmp_path):
        fixed = SimConfig(n_fft=16, cp_len=4, power_db=(15.0,), frames=10, min_errors=0, delays=(0, 1, 2, 9), seed=5)
        drawn = dataclasses.replace(fixed, delays=None)
        with pytest.warns(UserWarning, match="cyclic prefix"):
            run_sweep(fixed)
        emit_csv(run_sweep(drawn), tmp_path / "after.csv")
        script = f"from asyncrelay.harness import *; emit_csv(run_sweep({drawn!r}), {str(tmp_path / 'alone.csv')!r})"
        src = str(Path(harness.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, check=True)
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


class TestStoppingRule:
    def test_noise_off_runs_exactly_the_requested_frames(self):
        cfg = SimConfig(power_db=(15.0,), noise=False, **FAST)
        point = run_sweep(cfg)[0]
        assert point.frames == FAST["frames"]
        assert point.bit_errors == 0
        assert point.ber == 0.0

    def test_min_errors_extends_the_run_in_whole_batches(self):
        cfg = SimConfig(
            code="alamouti",
            n_fft=8,
            cp_len=2,
            power_db=(38.0,),
            frames=5,
            min_errors=50,
            max_frames=20,
            seed=3,
        )
        point = run_sweep(cfg)[0]
        assert point.frames == 20  # capped, in multiples of the base batch
        assert point.frames % 5 == 0

    def test_stops_once_enough_errors_arrive(self):
        cfg = SimConfig(power_db=(0.0,), **FAST)  # very noisy: errors abound
        point = run_sweep(cfg)[0]
        assert point.frames == FAST["frames"]
        assert point.bit_errors >= FAST["min_errors"]


class TestCsvContract:
    def _points(self):
        return [
            BerPoint(20.0, 13, 12800, 13 / 12800, 0.00059, 0.00173, 100),
            BerPoint(10.0, 400, 6400, 400 / 6400, 0.057, 0.0685, 50),
        ]

    def test_header_and_sorted_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self._points(), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == "P_dB,ber,ci_lo,ci_hi,bits,frames"
        assert lines[1].startswith("10.0,")
        assert lines[2].startswith("20.0,")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self._points(), path)
        back = parse_csv(path)
        by_power = {p.power_db: p for p in self._points()}
        for p in back:
            src = by_power[p.power_db]
            assert p.ber == src.ber
            assert p.bits == src.bits
            assert p.frames == src.frames
            assert p.bit_errors == src.bit_errors
            assert p.ci_lo == src.ci_lo and p.ci_hi == src.ci_hi

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("power,ber\n1,2\n")
        with pytest.raises(ConfigError):
            parse_csv(path)

    def test_plot_script_references_the_csv(self, tmp_path):
        path = tmp_path / "curve.gp"
        emit_plotscript(self._points(), path, csv_name="curve.csv")
        text = path.read_text()
        assert "curve.csv" in text
        assert "logscale y" in text
        assert "yerrorbars" in text


class TestBerBehaviour:
    def test_ber_decreases_with_power(self):
        cfg = SimConfig(
            code="alamouti",
            n_fft=8,
            cp_len=2,
            power_db=(5.0, 30.0),
            frames=150,
            min_errors=10,
            seed=21,
        )
        low, high = run_sweep(cfg)
        assert low.ber > high.ber
        assert low.power_db < high.power_db

    def test_accounting_adds_up(self):
        cfg = SimConfig(power_db=(12.0,), **FAST)
        p = run_sweep(cfg)[0]
        # relay4: four groups of 2 bits on every subcarrier
        assert p.bits == p.frames * 8 * FAST["n_fft"]
        assert p.ber == pytest.approx(p.bit_errors / p.bits)
        assert p.ci_lo <= p.ber <= p.ci_hi


class TestCli:
    def test_successful_run_writes_csv_and_plot(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli_main(
            [
                "--mode", "coherent", "--code", "alamouti", "--n", "8", "--cp", "2",
                "--power", "20", "--frames", "10", "--min-errors", "2",
                "--seed", "4", "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        assert out.with_suffix(".gp").exists()
        assert parse_csv(out)[0].power_db == 20.0
        assert "P_dB" in capsys.readouterr().out

    def test_invalid_configuration_exits_2(self, capsys):
        assert cli_main(["--power", "bad-spec", "--frames", "1"]) == 2
        assert cli_main(["--code", "missing", "--power", "10", "--frames", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_infeasible_code_exits_3(self, capsys):
        rc = cli_main(["--code", "example1", "--power", "10", "--frames", "1"])
        assert rc == 3
        assert "condition" in capsys.readouterr().err

    def test_a_code_with_an_all_zero_relay_matrix_exits_3(self, tmp_path, capsys):
        path = tmp_path / "zero.code"
        path.write_text("1 1 1\ncolumn conj=0\n0\n")
        assert cli_main(["--code", str(path), "--power", "10", "--frames", "1"]) == 3
        assert "symbol 0 is sent by no relay" in capsys.readouterr().err

    def test_the_parser_has_one_flag_per_field_and_the_readme_lists_each(self):
        # the parser is built from SimConfig's annotations: this pins its surface and its docs
        flags = {a.option_strings[0]: a.dest for a in build_parser()._actions if a.dest != "help"}
        assert sorted(flags) == sorted(
            "--config --mode --code --n --cp --power --frames --min-errors --max-frames --seed --out "
            "--fixed-delays --no-noise --workers --source-fraction --relay-fraction --rotation-deg --diff-chain".split()
        )
        assert sorted(flags.values()) == sorted([f.name for f in dataclasses.fields(SimConfig)] + ["config"])
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| flag | meaning |", 1)[1].split("\n\n", 1)[0]
        assert set(re.findall(r"`(--[a-z-]+)`", table)) == set(flags)

    def test_config_file_with_flag_overrides(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "mode = coherent\n"
            "code = alamouti\n"
            "n = 8\n"
            "cp = 2\n"
            "power = 10:10:20   # two points\n"
            "frames = 6\n"
            "min_errors = 1\n"
            "seed = 99\n"
        )
        out = tmp_path / "o.csv"
        rc = cli_main(["--config", str(conf), "--power", "25", "--out", str(out)])
        assert rc == 0
        points = parse_csv(out)
        assert [p.power_db for p in points] == [25.0]

    def test_config_file_can_set_every_field(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "mode = differential\n"
            "code = relay4_diff\n"
            "n_fft = 32\n"
            "cp_len = 8\n"
            "power_db = 10:5:20\n"
            "frames = 7\n"
            "min_errors = 3\n"
            "max_frames = 70\n"
            "seed = 5\n"
            "delays = 0,1,2,3\n"
            "noise = off\n"
            "workers = 2\n"
            "source_fraction = 0.5\n"
            "relay_fraction = 0.125\n"
            "rotation_deg = 30\n"
            "diff_chain = 4\n"
            "out = sweep.csv\n"
        )
        keys = {line.split("=")[0].strip() for line in conf.read_text().splitlines()}
        assert keys == {f.name for f in dataclasses.fields(SimConfig)}
        args = build_parser().parse_args(["--config", str(conf)])
        assert config_from_args(args) == SimConfig(
            mode="differential",
            code="relay4_diff",
            n_fft=32,
            cp_len=8,
            power_db=(10.0, 15.0, 20.0),
            frames=7,
            min_errors=3,
            max_frames=70,
            seed=5,
            delays=(0, 1, 2, 3),
            noise=False,
            workers=2,
            source_fraction=0.5,
            relay_fraction=0.125,
            rotation_deg=30.0,
            diff_chain=4,
            out="sweep.csv",
        )

    def test_flags_set_the_same_fields(self):
        args = build_parser().parse_args(
            ["--n", "16", "--power", "5,7", "--fixed-delays", "0,2", "--no-noise", "--relay-fraction", "0.5"]
        )
        assert config_from_args(args) == SimConfig(
            n_fft=16, power_db=(5.0, 7.0), delays=(0, 2), noise=False, relay_fraction=0.5
        )

    def test_malformed_code_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.code"
        for text in ("2 2\ncolumn conj=0\n1 0\n0 1\n", "2 2 1\ncolumn conj=0\n1 0\n0 nan\n"):
            bad.write_text(text)
            assert cli_main(["--code", str(bad), "--power", "10", "--frames", "1"]) == 2
            assert "malformed" in capsys.readouterr().err

    def test_missing_output_directory_exits_2_before_any_unit_runs(self, tmp_path, monkeypatch, capsys):
        def simulate(engine, rng):
            raise AssertionError("a unit ran")

        monkeypatch.setattr(_CoherentEngine, "simulate", simulate)
        out = tmp_path / "missing" / "x.csv"
        assert cli_main(["--code", "alamouti", "--power", "10", "--frames", "1", "--out", str(out)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_output_paths_that_cannot_be_written_exit_2_before_any_unit_runs(self, tmp_path, monkeypatch, capsys):
        def simulate(engine, rng):
            raise AssertionError("a unit ran")

        monkeypatch.setattr(_CoherentEngine, "simulate", simulate)
        (tmp_path / "taken.gp").mkdir()
        cases = [
            (tmp_path, "is a directory"),  # the CSV would be a directory
            (tmp_path / "res.gp", "path of its own .gp plot script"),  # the script would overwrite the CSV
            (tmp_path / "taken.csv", "plot script .* is a directory"),
        ]
        for out, message in cases:
            with pytest.raises(ConfigError, match=message):
                run_sweep(SimConfig(code="alamouti", power_db=(10.0,), frames=1, out=str(out)))
            assert cli_main(["--code", "alamouti", "--power", "10", "--frames", "1", "--out", str(out)]) == 2
            assert re.search(message, capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken.gp"]

    def test_duplicate_power_points_exit_2_before_any_unit_runs(self, monkeypatch, capsys):
        def simulate(engine, rng):
            raise AssertionError("a unit ran")

        monkeypatch.setattr(_CoherentEngine, "simulate", simulate)
        assert cli_main(["--code", "alamouti", "--power", "20,20", "--frames", "1"]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("speling = wrong\n")
        assert cli_main(["--config", str(conf)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_no_noise_and_fixed_delays_flags(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = cli_main(
            [
                "--code", "relay4", "--n", "8", "--cp", "4", "--power", "15",
                "--frames", "5", "--no-noise", "--fixed-delays", "0,1,2,4",
                "--seed", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        assert parse_csv(out)[0].ber == 0.0
