"""Golden sweeps: exact CSV text of small fixed-seed sweeps.

The expected text is pinned: a change to the transforms or to the engine's
arithmetic must reproduce it byte for byte (error counts, stopping decisions
and the printed floats). Error counts move only with a change in results,
which is to be explained, never re-pinned away.
"""

import pytest

from asyncrelay.codebook import format_code_text
from asyncrelay.harness import SimConfig, emit_csv, run_sweep

from oracles import sheared_code

_COHERENT = dict(n_fft=16, cp_len=4, power_db=(5.0, 15.0, 25.0), frames=40, min_errors=30, max_frames=160)

GOLDEN = {
    "alamouti": (
        SimConfig(code="alamouti", seed=7, **_COHERENT),
        "P_dB,ber,ci_lo,ci_hi,bits,frames\n"
        "5.0,0.162109375,0.148340728451987,0.17689055913482088,2560,40\n"
        "15.0,0.02109375,0.016202969526258403,0.027419641550535147,2560,40\n"
        "25.0,0.00029296875,9.964070239355018e-05,0.0008610788538643136,10240,160\n",
    ),
    "relay4": (
        SimConfig(code="relay4", seed=8, **_COHERENT),
        "P_dB,ber,ci_lo,ci_hi,bits,frames\n"
        "5.0,0.1654296875,0.15550350785898479,0.1758575368700358,5120,40\n"
        "15.0,0.0064453125,0.004593186760779504,0.009037496269130025,5120,40\n"
        "25.0,0.000146484375,4.981912886369692e-05,0.0004306307340430589,20480,160\n",
    ),
    "relay5": (
        SimConfig(code="relay5", seed=9, **_COHERENT),
        "P_dB,ber,ci_lo,ci_hi,bits,frames\n"
        "5.0,0.280859375,0.2709196259800954,0.29101823829793605,7680,40\n"
        "15.0,0.08424479166666667,0.07823875914824116,0.09066652940776258,7680,40\n"
        "25.0,0.007291666666666667,0.00561979159571094,0.009456190833327013,7680,40\n",
    ),
    "relay4_diff": (
        SimConfig(
            mode="differential",
            code="relay4_diff",
            n_fft=16,
            cp_len=4,
            power_db=(10.0, 20.0, 30.0),
            frames=40,
            min_errors=30,
            max_frames=160,
            diff_chain=3,
            seed=10,
        ),
        "P_dB,ber,ci_lo,ci_hi,bits,frames\n"
        "10.0,0.18203125,0.17467717390313978,0.18962380379378727,10240,40\n"
        "20.0,0.00439453125,0.003286067232727975,0.0058747011370216175,10240,40\n"
        "30.0,0.0,0.0,9.37768208227197e-05,40960,160\n",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_csv_is_unchanged(name, tmp_path):
    cfg, expected = GOLDEN[name]
    path = tmp_path / f"{name}.csv"
    emit_csv(run_sweep(cfg), path)
    assert path.read_bytes() == expected.encode("utf-8")


def test_non_orthogonal_code_file_falls_back_to_exhaustive_search(tmp_path):
    path = tmp_path / "sheared.code"
    path.write_text(format_code_text(sheared_code()), encoding="utf-8")
    cfg = SimConfig(
        code=str(path),
        n_fft=8,
        cp_len=2,
        power_db=(5.0, 15.0),
        frames=20,
        min_errors=0,
        max_frames=20,
        seed=11,
    )
    with pytest.warns(UserWarning, match="exhaustive"):
        points = run_sweep(cfg)
    assert [(p.bit_errors, p.bits, p.frames) for p in points] == [(103, 640, 20), (11, 640, 20)]
