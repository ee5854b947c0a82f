"""End-to-end acceptance suite.

Each test covers one release criterion and prints exactly one PASS/FAIL
line (with its headline numbers) directly to the terminal, bypassing
pytest capture. Tolerances and time limits are asserted, not advisory.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from asyncrelay import spectral
from asyncrelay.codebook import (
    builtin_codes,
    check_feasibility,
    codeword,
    derive_schedule,
    infeasible_example,
    named_code,
)
from asyncrelay.decoder import (
    CoherentDecoder,
    equivalent_channel_matrix,
    noise_covariance,
)
from asyncrelay.differential import (
    build_codebook_4relay,
    diff_decode_frame,
    diff_encode,
    initial_state,
    verify_commutation,
)
from asyncrelay.harness import SimConfig, emit_csv, run_sweep
from asyncrelay.relaysim import (
    ChannelRealization,
    LinkConfig,
    PowerConfig,
    complex_noise,
    draw_channel,
    run_frame,
)

from oracles import diff_decode_scan, expected_subcarrier_rx, reverse


@contextmanager
def verdict(capsys, number, label):
    """Print one terminal-visible pass/fail line per criterion."""
    outcome = {"text": ""}
    try:
        yield outcome
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:02d} FAIL {label}")
        raise
    detail = f": {outcome['text']}" if outcome["text"] else ""
    with capsys.disabled():
        print(f"criterion {number:02d} PASS {label}{detail}")


def _inclusive_delays(rng, num_relays, cp_len):
    # arrival offsets drawn over the closed range [0, cp_len]
    d = np.sort(rng.integers(0, cp_len + 1, size=num_relays))
    return tuple(int(v) for v in d - d[0])


def _random_codeword_indices(rng, code, n):
    return [rng.integers(0, table.shape[0], size=n) for table in code.alphabet]


def _frame_from_indices(code, indices, n):
    coords = np.zeros((2 * code.symbol_count, n))
    for g, group_coords in enumerate(code.group_partition):
        coords[list(group_coords), :] = code.alphabet[g][indices[g]].T
    return coords[0::2] + 1j * coords[1::2]


def _fit_slope(powers, bers):
    x = np.asarray(powers, dtype=float)
    y = np.log10(np.asarray(bers, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def _crossing_power(points, target_ber):
    """Power where the log-linear interpolated curve hits target_ber."""
    level = math.log10(target_ber)
    for a, b in zip(points, points[1:]):
        ya, yb = math.log10(a.ber), math.log10(b.ber)
        if (ya - level) * (yb - level) <= 0 and ya != yb:
            frac = (level - ya) / (yb - ya)
            return a.power_db + frac * (b.power_db - a.power_db)
    raise AssertionError(f"sweep does not bracket BER {target_ber:g}")


def test_criterion_01_transform_identities(capsys):
    with verdict(capsys, 1, "transform identities on random blocks") as out:
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for n in (4, 8, 16, 64):
            x = complex_noise(rng, (100, n))
            worst = max(worst, float(np.abs(spectral.idft(spectral.dft(x)) - x).max()))
            worst = max(worst, float(np.abs(spectral.dft(spectral.idft(x)) - x).max()))
            worst = max(
                worst,
                float(np.abs(np.conj(spectral.dft(x)) - spectral.idft(np.conj(x))).max()),
            )
            worst = max(
                worst,
                float(np.abs(spectral.dft(reverse(spectral.dft(x))) - x).max()),
            )
        elapsed = time.perf_counter() - started
        assert worst < 1e-10
        assert elapsed < 1.0
        out["text"] = f"max deviation {worst:.2e} in {elapsed:.2f}s"


def test_criterion_02_feasibility_classification(capsys):
    with verdict(capsys, 2, "feasibility classification of the code library") as out:
        started = time.perf_counter()
        for name, code in builtin_codes().items():
            report = check_feasibility(code)
            assert report, f"{name} wrongly rejected: {report.detail}"
            derive_schedule(code)
        rejected = check_feasibility(infeasible_example())
        assert not rejected
        assert rejected.condition == 3
        assert rejected.rows == (0, 1)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        out["text"] = f"4 codes accepted, overlap example rejected (condition {rejected.condition})"


def test_criterion_03_pipeline_matches_flat_model(capsys):
    with verdict(capsys, 3, "sample pipeline equals per-subcarrier model") as out:
        started = time.perf_counter()
        rng = np.random.default_rng(3003)
        n, cp = 64, 16
        worst = 0.0
        for code in builtin_codes().values():
            schedule = derive_schedule(code)
            link = LinkConfig(schedule, n, cp, PowerConfig(10.0, 1.0, 1.0 / code.num_relays))
            for _ in range(50):
                delays = _inclusive_delays(rng, code.num_relays, cp)
                channel = draw_channel(rng, code.num_relays, cp, delays)
                frame = complex_noise(rng, (code.symbol_count, n))
                got = run_frame(frame, link, channel)
                want = expected_subcarrier_rx(code, link, channel, frame)
                worst = max(worst, float(np.abs(got - want).max()))
        assert worst < 1e-9

        # past the prefix the equivalence must break down
        code = named_code("relay4")
        schedule = derive_schedule(code)
        link = LinkConfig(schedule, n, cp, PowerConfig(10.0, 1.0, 0.25))
        channel = draw_channel(rng, 4, cp, (0, 0, 0, cp + n // 4))
        frame = complex_noise(rng, (4, n))
        got = run_frame(frame, link, channel)
        want = expected_subcarrier_rx(code, link, channel, frame)
        breakdown = float(np.abs(got - want).max())
        assert breakdown > 1e-3

        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        out["text"] = (
            f"50 draws/code within {worst:.2e}; "
            f"past-prefix deviation {breakdown:.2e} in {elapsed:.1f}s"
        )


def test_criterion_04_grouped_decoding_is_exact(capsys):
    with verdict(capsys, 4, "grouped search equals exhaustive search") as out:
        started = time.perf_counter()
        rng = np.random.default_rng(4004)
        n, cp = 16, 4
        for name in ("alamouti", "relay4", "relay5"):
            code = named_code(name)
            schedule = derive_schedule(code)
            link = LinkConfig(schedule, n, cp, PowerConfig(8.0, 1.0, 1.0 / code.num_relays))
            decoder = CoherentDecoder(code, link.power.cascade_gain)
            for _ in range(1000):
                channel = draw_channel(rng, code.num_relays, cp)
                k = int(rng.integers(0, n))
                h = equivalent_channel_matrix(code, channel, n)[k : k + 1]
                var = noise_covariance(link, channel)
                indices = _random_codeword_indices(rng, code, 1)
                s = _frame_from_indices(code, indices, 1)[:, 0]
                noise = np.sqrt(var) * complex_noise(rng, code.slot_count)
                y = (decoder.gain * (codeword(code, s) @ h[0]) + noise)[:, None]
                w2 = 1.0 / var
                assert decoder.gap(h, w2) == 0.0, f"{name}: the grouped search is not exact"
                a = decoder.grouped(y, h, w2)
                b = decoder.exhaustive(y, h, w2)
                assert np.array_equal(a, b), f"{name}: grouped and exhaustive decisions differ"

        codebook = build_codebook_4relay(named_code("relay4_diff"))
        for _ in range(1000):
            y_prev = complex_noise(rng, 4) * rng.uniform(0.5, 2.0)
            word = int(rng.integers(0, 256))
            scale = rng.uniform(0.7, 1.4)
            y_now = codebook.matrices[word] @ y_prev / scale + 0.3 * complex_noise(rng, 4)
            decided = diff_decode_frame(y_now[:, None], y_prev[:, None], np.array([scale]), codebook)[0][0]
            assert decided == diff_decode_scan(y_now, y_prev, scale, codebook)[0]

        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
        out["text"] = f"3x1000 coherent + 1000 differential instances agree in {elapsed:.1f}s"


def test_criterion_05_differential_codebook_structure(capsys):
    with verdict(capsys, 5, "differential codebook is scaled unitary and commutes") as out:
        code = named_code("relay4_diff")
        codebook = build_codebook_4relay(code)
        assert codebook.num_words == 256

        products = np.einsum("kji,kjl->kil", codebook.matrices.conj(), codebook.matrices)
        expected = codebook.scales[:, None, None] ** 2 * np.eye(4)[None]
        unitary_dev = float(np.max(np.abs(products - expected)))
        assert unitary_dev < 1e-12

        mean_dev = abs(float(np.mean(codebook.scales**2)) - 1.0)
        assert mean_dev < 1e-12

        report = verify_commutation(codebook, code)
        assert report and report.max_error < 1e-12

        mutated = codebook.matrices.copy()
        mutated[200, 1, 2] += 1e-6
        broken = dataclasses.replace(codebook, matrices=mutated)
        assert not verify_commutation(broken, code)

        out["text"] = (
            f"256 words, unitarity dev {unitary_dev:.1e}, "
            f"mean squared scale dev {mean_dev:.1e}, mutation caught"
        )


def test_criterion_06_noiseless_chains_are_error_free(capsys):
    with verdict(capsys, 6, "noiseless coherent and differential chains") as out:
        rng = np.random.default_rng(6006)

        code = named_code("relay4")
        schedule = derive_schedule(code)
        n, cp = 32, 8
        link = LinkConfig(schedule, n, cp, PowerConfig(15.0, 1.0, 0.25))
        decoder = CoherentDecoder(code, link.power.cascade_gain)
        coherent_bits = 0
        for _ in range(100):
            delays = _inclusive_delays(rng, 4, cp)
            channel = draw_channel(rng, 4, cp, delays)
            tx = _random_codeword_indices(rng, code, n)
            frame = _frame_from_indices(code, tx, n)
            y = run_frame(frame, link, channel)
            w2 = 1.0 / noise_covariance(link, channel)
            h_all = equivalent_channel_matrix(code, channel, n)
            assert decoder.gap(h_all, w2) == 0.0
            assert np.array_equal(decoder.grouped(y, h_all, w2), np.transpose(tx))
            coherent_bits += 8 * n

        diff_code = named_code("relay4_diff")
        diff_schedule = derive_schedule(diff_code)
        codebook = build_codebook_4relay(diff_code)
        n, cp = 16, 4
        link = LinkConfig(diff_schedule, n, cp, PowerConfig(15.0, 1.0, 0.25))
        diff_bits = 0
        for _ in range(50):
            delays = _inclusive_delays(rng, 4, cp)
            channel = draw_channel(rng, 4, cp, delays)
            state = initial_state(4, n)
            y_prev = run_frame(state.symbols, link, channel)
            scales = np.ones(n)
            for _ in range(2):
                tx = rng.integers(0, 256, size=n)
                state = diff_encode(state, tx, codebook)
                y_now = run_frame(state.symbols, link, channel)
                rx, scales = diff_decode_frame(y_now, y_prev, scales, codebook)
                assert np.array_equal(rx, tx)
                y_prev = y_now
                diff_bits += 8 * n

        out["text"] = (
            f"0 errors over {coherent_bits} coherent and {diff_bits} differential bits"
        )


def test_criterion_07_diversity_ordering(capsys):
    with verdict(capsys, 7, "four relays out-slope two relays") as out:
        started = time.perf_counter()
        powers = (18.0, 23.0, 28.0)
        slopes = {}
        curves = {}
        for code in ("alamouti", "relay4"):
            cfg = SimConfig(
                mode="coherent",
                code=code,
                n_fft=16,
                cp_len=4,
                power_db=powers,
                frames=3000,
                min_errors=250,
                max_frames=600000,
                seed=7007,
                workers=1,
            )
            points = run_sweep(cfg)
            for p in points:
                assert p.bit_errors >= 200, f"{code} at {p.power_db} dB: {p.bit_errors} errors"
            slopes[code] = -_fit_slope(powers, [p.ber for p in points])
            curves[code] = points
        ratio = slopes["relay4"] / slopes["alamouti"]
        elapsed = time.perf_counter() - started
        assert ratio >= 1.5
        assert elapsed < 900.0
        out["text"] = (
            f"log10-BER slopes {slopes['alamouti']:.3f} vs {slopes['relay4']:.3f} "
            f"decades/dB, ratio {ratio:.2f} in {elapsed:.0f}s"
        )


def test_criterion_08_differential_power_penalty(capsys):
    with verdict(capsys, 8, "differential costs 5 +/- 2 dB at BER 1e-3") as out:
        started = time.perf_counter()
        common = dict(n_fft=16, cp_len=4, frames=3000, min_errors=250, max_frames=40000, workers=1)
        coherent = run_sweep(
            SimConfig(mode="coherent", code="relay4", power_db=(18.0, 20.0, 22.0), seed=8008, **common)
        )
        differential = run_sweep(
            SimConfig(
                mode="differential", code="relay4_diff", power_db=(22.0, 24.0, 26.0), seed=8009, **common
            )
        )
        p_coherent = _crossing_power(coherent, 1e-3)
        p_differential = _crossing_power(differential, 1e-3)
        gap = p_differential - p_coherent
        elapsed = time.perf_counter() - started
        assert 3.0 <= gap <= 7.0
        assert elapsed < 1200.0
        out["text"] = (
            f"crossings {p_coherent:.2f} dB coherent, {p_differential:.2f} dB "
            f"differential, gap {gap:.2f} dB in {elapsed:.0f}s"
        )


def test_criterion_09_delays_do_not_change_error_rate(capsys):
    with verdict(capsys, 9, "spread arrival offsets match the synchronous case") as out:
        common = dict(
            mode="coherent",
            code="relay4",
            n_fft=64,
            cp_len=16,
            power_db=(12.0, 15.0, 18.0),
            frames=2000,
            min_errors=500,
            seed=9009,
            workers=1,
        )
        spread = run_sweep(SimConfig(delays=(0, 5, 10, 15), **common))
        sync = run_sweep(SimConfig(delays=(0, 0, 0, 0), **common))
        worst_ratio = 1.0
        for a, b in zip(spread, sync):
            assert a.power_db == b.power_db
            assert a.ci_lo <= b.ci_hi and b.ci_lo <= a.ci_hi, (
                f"intervals disjoint at {a.power_db} dB: "
                f"[{a.ci_lo:.3e}, {a.ci_hi:.3e}] vs [{b.ci_lo:.3e}, {b.ci_hi:.3e}]"
            )
            ratio = a.ber / b.ber
            assert 0.8 <= ratio <= 1.25
            worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
        out["text"] = (
            f"95% intervals overlap at {len(spread)} powers, "
            f"worst BER ratio {worst_ratio:.3f}"
        )


def test_criterion_10_worker_count_invariance(capsys, tmp_path):
    with verdict(capsys, 10, "CSV output is identical for any worker count") as out:
        digests = {}
        for mode, code in (("coherent", "relay4"), ("differential", "relay4_diff")):
            outputs = []
            for workers in (1, 2, 3):
                cfg = SimConfig(
                    mode=mode,
                    code=code,
                    n_fft=8,
                    cp_len=2,
                    power_db=(14.0, 20.0),
                    frames=30,
                    min_errors=5,
                    seed=1010,
                    workers=workers,
                )
                path = tmp_path / f"{mode}-{workers}.csv"
                emit_csv(run_sweep(cfg), path)
                outputs.append(path.read_bytes())
            assert outputs[0] == outputs[1] == outputs[2]
            digests[mode] = len(outputs[0])
        out["text"] = "coherent and differential sweeps byte-identical for 1, 2, 3 workers"
