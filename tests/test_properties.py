"""Property tests over generated codes: the paper's claim is structural, so
the invariants the built-in codes pass must hold for any code the program
accepts. The tests are deterministic (``derandomize=True``, a fixed example
count) and write no example database."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asyncrelay.codebook import DEFAULT_ROTATION, CodeDefinition, ScheduleError, derive_schedule, named_code, qpsk_pairs
from asyncrelay.decoder import _ORTHOGONALITY_TOL, CoherentDecoder, equivalent_channel_matrix, noise_covariance
from asyncrelay.relaysim import LinkConfig, PowerConfig, complex_noise, draw_channel, run_frame

from oracles import expected_subcarrier_rx, gram_gap, sheared_code

_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@st.composite
def codes(draw, max_relays: int = 4, max_symbols: int = 4) -> CodeDefinition:
    """Codes of R <= 4 relays and nu <= 4 symbols: each row of a relay
    matrix forwards one block with sign +/-1 or none, each column may be
    conjugated, and each group is a pair of coordinates with a QPSK
    alphabet: either one symbol's (Re, Im), or, as in relay4, the real or
    the imaginary parts of two symbols. A relay forwards each block at most
    once, as a schedule needs, unless the code draws free rows, which may
    repeat a block."""
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
    order = draw(st.permutations(range(nu)))
    paired = 2 * draw(st.integers(0, nu // 2))  # symbols decoded by coordinate pairs
    groups = [g for a, b in zip(order[0:paired:2], order[1:paired:2]) for g in ((2 * a, 2 * b), (2 * a + 1, 2 * b + 1))]
    groups += [(2 * j, 2 * j + 1) for j in order[paired:]]
    alphabet = qpsk_pairs(draw(st.sampled_from((0.0, DEFAULT_ROTATION))))
    return CodeDefinition("generated", tuple(matrices), conjugated, tuple(groups), (alphabet,) * nu)


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


@settings(_SETTINGS, max_examples=400)
@given(code=codes(), seed=st.integers(0, 2**32 - 1))
@example(code=named_code("relay4"), seed=0)  # paired groups, proven
@example(code=sheared_code(), seed=0)  # a cross-group Gram entry: neither proven nor grouped
def test_a_scheduled_generated_code_is_proven_soundly_and_its_vanishing_gap_makes_grouped_search_exact(code, seed):
    """``_proof`` never proves a code whose Gram matrix has a cross-group
    entry at ``noise_covariance`` weights, and wherever ``gap`` passes the
    orthogonality check, the grouped search decides as the exhaustive one.
    Of the 400 drawn codes, 184 get a schedule: 143 are proven (25 of them
    pair coordinates) and 41 have a cross-group entry."""
    try:
        schedule = derive_schedule(code)
    except ScheduleError:
        return
    n_fft, cp_len = 4, 2
    link = LinkConfig(n_fft, cp_len, PowerConfig(10.0, 1.0, 1.0 / code.num_relays))
    rng = np.random.default_rng(seed)
    channel = draw_channel(rng, code.num_relays, cp_len)
    h_all = equivalent_channel_matrix(code, channel, n_fft)
    variances = noise_covariance(schedule, channel, link)
    decoder = CoherentDecoder(code, link.power.cascade_gain)
    if decoder._proof is not None:
        assert max(gram_gap(code, h, variances) for h in h_all) <= 1e-9
    w2 = 1.0 / variances
    if decoder.gap(h_all, w2) <= _ORTHOGONALITY_TOL:
        y = complex_noise(rng, (code.slot_count, n_fft))
        assert np.array_equal(decoder.grouped(y, h_all, w2), decoder.exhaustive(y, h_all, w2))
