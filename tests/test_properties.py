"""Property tests over generated codes: the paper's claim is structural, so
the invariants the built-in codes pass must hold for any code the program
accepts. The tests are deterministic (``derandomize=True``, a fixed example
count) and write no example database."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncrelay.codebook import CodeDefinition, ScheduleError, derive_schedule, qpsk_pairs
from asyncrelay.relaysim import LinkConfig, PowerConfig, complex_noise, draw_channel, run_frame

from oracles import expected_subcarrier_rx

_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@st.composite
def codes(draw, max_relays: int = 4, max_symbols: int = 4) -> CodeDefinition:
    """Codes of R <= 4 relays and nu <= 4 symbols: each row of a relay
    matrix forwards one block with sign +/-1 or none, each column may be
    conjugated, and each symbol is one QPSK group. A relay forwards each
    block at most once, as a schedule needs, unless the code draws free
    rows, which may repeat a block."""
    num_relays = draw(st.integers(1, max_relays))
    nu = draw(st.integers(1, max_symbols))
    free = draw(st.booleans())
    matrices = []
    for _ in range(num_relays):
        blocks = draw(st.lists(st.integers(0, nu - 1), min_size=nu, max_size=nu) if free else st.permutations(range(nu)))
        matrix = np.zeros((nu, nu))
        for slot, block in enumerate(blocks):
            matrix[slot, block] = draw(st.sampled_from((1.0, -1.0, 0.0)))  # 0: the relay is silent in this slot
        matrices.append(matrix)
    conjugated = draw(st.frozensets(st.integers(0, num_relays - 1)))
    groups = tuple((2 * j, 2 * j + 1) for j in range(nu))
    return CodeDefinition("generated", tuple(matrices), conjugated, groups, (qpsk_pairs(),) * nu)


@_SETTINGS
@given(code=codes(), data=st.data())
def test_a_generated_code_has_no_schedule_or_its_noiseless_link_is_the_flat_model(code, data):
    try:
        schedule = derive_schedule(code)
    except ScheduleError:
        return
    n_fft = data.draw(st.sampled_from((4, 8, 16)), label="n_fft")
    cp_len = data.draw(st.integers(0, n_fft - 1), label="cp_len")
    late = data.draw(st.lists(st.integers(0, cp_len), min_size=code.num_relays - 1, max_size=code.num_relays - 1))
    delays = (0, *sorted(late))  # up to the prefix, the first relay sets the timing origin
    cfg = LinkConfig(n_fft, cp_len, PowerConfig(10.0, 1.0, 1.0 / code.num_relays))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    channel = draw_channel(rng, code.num_relays, cp_len, delays)
    frame = complex_noise(rng, (code.symbol_count, n_fft))
    got = run_frame(frame, schedule, channel, cfg)
    assert np.max(np.abs(got - expected_subcarrier_rx(code, schedule, channel, cfg, frame))) <= 1e-12
