"""Property tests over generated codes: the paper's claim is structural, so
the invariants the built-in codes pass must hold for any code the program
accepts, and every malformed code file must be rejected as such. The tests
are deterministic (``derandomize=True``, a fixed example count) and write no
example database."""

import contextlib
import dataclasses
import io
import itertools
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asyncrelay import cli
from asyncrelay.codebook import (
    DEFAULT_ROTATION,
    DFT,
    CodeDefinition,
    ScheduleError,
    builtin_codes,
    check_feasibility,
    derive_schedule,
    format_code_text,
    named_code,
    qpsk_pairs,
)
from asyncrelay.decoder import _ORTHOGONALITY_TOL, CoherentDecoder, equivalent_channel_matrix, noise_covariance
from asyncrelay.harness import SimConfig, _verified_codebook, run_sweep
from asyncrelay.relaysim import LinkConfig, PowerConfig, complex_noise, draw_channel, run_frame

from oracles import expected_subcarrier_rx, gram_gap, grid_alphabet, kronecker_code, sheared_code

_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@st.composite
def codes(draw, max_relays: int = 4, max_symbols: int = 4) -> CodeDefinition:
    """Codes of R <= ``max_relays`` relays and nu <= ``max_symbols`` symbols
    (4 each by default): each row of a relay matrix forwards one block with
    sign +/-1 or none, each column may be conjugated, and each group is a
    pair of coordinates with a QPSK
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


def _assert_the_noiseless_link_is_the_flat_model(code, schedule, n_fft, cp_len, delays, seed):
    """The noiseless ``run_frame`` of ``code`` under ``schedule`` equals the
    flat model within 1e-12 on a channel and frame drawn from ``seed``, for
    ``delays`` from 0 up to the prefix (the first relay sets the timing origin)."""
    link = LinkConfig(schedule, n_fft, cp_len, PowerConfig(10.0, 1.0, 1.0 / code.num_relays))
    rng = np.random.default_rng(seed)
    channel = draw_channel(rng, code.num_relays, cp_len, delays)
    frame = complex_noise(rng, (code.symbol_count, n_fft))
    got = run_frame(frame, link, channel)
    assert np.max(np.abs(got - expected_subcarrier_rx(code, link, channel, frame))) <= 1e-12


@_SETTINGS
@given(code=codes(max_relays=6), data=st.data())
def test_a_generated_code_has_no_schedule_or_its_noiseless_link_is_the_flat_model(code, data):
    try:
        schedule = derive_schedule(code)
    except ScheduleError:
        return
    # the colouring: a plain row is reversed exactly when its block is DFT
    # modulated, a conjugated row exactly when it is not
    table = code.forwarding
    is_dft = np.array(schedule.source_modulation)[table.blocks] == DFT
    assert np.array_equal(np.array(schedule.slot_reversed)[table.slots], is_dft ^ table.conjugate[:, 0])
    n_fft = data.draw(st.sampled_from((4, 8, 16)), label="n_fft")
    cp_len = data.draw(st.integers(0, n_fft - 1), label="cp_len")
    late = data.draw(st.lists(st.integers(0, cp_len), min_size=code.num_relays - 1, max_size=code.num_relays - 1))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    _assert_the_noiseless_link_is_the_flat_model(code, schedule, n_fft, cp_len, (0, *sorted(late)), seed)


def _five_of_eight_relays():
    """Columns 0-4 of the 8-relay Kronecker code: its rows carry unequal
    plain and conjugated counts."""
    code = kronecker_code(3, grid_alphabet(4))
    return CodeDefinition("kronecker8[0:5]", code.relay_matrices[:5], frozenset({4}), code.group_partition, code.alphabet)


def _cyclic_shift():
    """Two plain relays over three slots, I and the cyclic shift, one group
    per symbol."""
    shift = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    return CodeDefinition("cyclic", (np.eye(3), shift), frozenset(), ((0, 1), (2, 3), (4, 5)), (qpsk_pairs(),) * 3)


@pytest.mark.parametrize("make, condition", [(_five_of_eight_relays, 2), (_cyclic_shift, 3)], ids=["five-relays", "cyclic"])
def test_a_scheduled_code_that_fails_feasibility_is_still_the_flat_model(make, condition):
    # the property's check on fixed link parameters, with the last relay a
    # whole prefix late: feasibility conditions 2 and 3 are stricter than this link needs
    code = make()
    assert check_feasibility(code).condition == condition
    delays = tuple(int(d) for d in np.linspace(0, 8, code.num_relays).round())
    _assert_the_noiseless_link_is_the_flat_model(code, derive_schedule(code), 16, 8, delays, seed=0)


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
    link = LinkConfig(schedule, n_fft, cp_len, PowerConfig(10.0, 1.0, 1.0 / code.num_relays))
    rng = np.random.default_rng(seed)
    channel = draw_channel(rng, code.num_relays, cp_len)
    h_all = equivalent_channel_matrix(code, channel, n_fft)
    variances = noise_covariance(link, channel)
    decoder = CoherentDecoder(code, link.power.cascade_gain)
    if decoder._proof is not None:
        assert max(gram_gap(code, h, variances) for h in h_all) <= 1e-9
    w2 = 1.0 / variances
    if decoder.gap(h_all, w2) <= _ORTHOGONALITY_TOL:
        y = complex_noise(rng, (code.slot_count, n_fft))
        assert np.array_equal(decoder.grouped(y, h_all, w2), decoder.exhaustive(y, h_all, w2))


_DIFFERENTIAL = named_code("relay4_diff")
# (column order, column signs, conjugated pair) of the variants of
# relay4_diff whose own codebook passes both checks: 8 of all 24 x 16 x 6 =
# 2304, found by scanning them all, which takes seconds
_ACCEPTED = (
    ((0, 1, 2, 3), (1, 1, 1, 1), (2, 3)),
    ((0, 1, 2, 3), (-1, -1, -1, -1), (2, 3)),
    ((1, 0, 3, 2), (1, 1, 1, 1), (2, 3)),
    ((1, 0, 3, 2), (-1, -1, -1, -1), (2, 3)),
    ((2, 3, 0, 1), (1, 1, -1, -1), (0, 1)),
    ((2, 3, 0, 1), (-1, -1, 1, 1), (0, 1)),
    ((3, 2, 1, 0), (1, 1, -1, -1), (0, 1)),
    ((3, 2, 1, 0), (-1, -1, 1, 1), (0, 1)),
)


def _with_accepted_examples(test):
    for order, signs, pair in _ACCEPTED:
        test = example(order=order, signs=signs, pair=pair)(test)
    return test


@_with_accepted_examples
@settings(_SETTINGS, max_examples=200)
@given(
    order=st.permutations(range(4)).map(tuple),
    signs=st.tuples(*[st.sampled_from((1, -1))] * 4),
    pair=st.sampled_from(list(itertools.combinations(range(4), 2))),
)
def test_a_differential_code_is_rejected_or_its_noiseless_chains_are_error_free(order, signs, pair):
    """A variant of relay4_diff (its columns reordered, signed and two of
    them conjugated) either has no verified codebook, and the sweep rejects
    it, or its noiseless differential sweep makes no error; exactly the
    variants of ``_ACCEPTED`` pass."""
    code = dataclasses.replace(
        _DIFFERENTIAL,
        relay_matrices=tuple(sign * _DIFFERENTIAL.relay_matrices[c] for c, sign in zip(order, signs)),
        conjugated_columns=frozenset(pair),
    )
    try:
        _verified_codebook(code)
    except ScheduleError:
        assert (order, signs, pair) not in _ACCEPTED
        return
    assert (order, signs, pair) in _ACCEPTED
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "variant.code"
        path.write_text(format_code_text(code), encoding="utf-8")
        cfg = SimConfig(mode="differential", code=str(path), n_fft=16, cp_len=8, power_db=(20.0,), frames=20,
                        noise=False, diff_chain=3)
        (point,) = run_sweep(cfg)
    assert (point.bit_errors, point.bits, point.frames) == (0, 20 * 2 * 16 * 8, 20)


# tokens float() rejects: a first letter that starts no number, "nan" or "inf"
_NON_NUMERIC = st.from_regex(r"[g-hj-mo-z][a-z0-9.+-]{0,4}", fullmatch=True)
_NOT_FINITE = st.sampled_from(("nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "1e999", "-2e400"))
_TEXTS = {name: format_code_text(code) for name, code in builtin_codes().items()}
_CORRUPTIONS = ("entry", "short row", "no column line", "conj=2", "group index past 2nu", "repeated group index",
                "2-field header")


@st.composite
def malformed_code_texts(draw) -> str:
    """A built-in code in the text format with one corruption that always
    makes it malformed."""
    lines = _TEXTS[draw(st.sampled_from(sorted(_TEXTS)))].splitlines()  # header, R x (column, nu rows), groups
    columns = [i for i, line in enumerate(lines) if line.startswith("column")]
    rows = [i for i in range(1, len(lines) - 1) if i not in columns]
    nu = int(lines[0].split()[0])
    kind = draw(st.sampled_from(_CORRUPTIONS))
    if kind in ("entry", "short row"):
        at = draw(st.sampled_from(rows))
        entries = lines[at].split()
        position = draw(st.integers(0, nu - 1))
        if kind == "entry":
            entries[position] = draw(st.one_of(_NON_NUMERIC, _NOT_FINITE))
        else:
            del entries[position]
        lines[at] = " ".join(entries)
    elif kind == "no column line":
        del lines[draw(st.sampled_from(columns))]
    elif kind == "conj=2":
        lines[draw(st.sampled_from(columns))] = "column conj=2"
    elif kind == "2-field header":
        fields = lines[0].split()
        del fields[draw(st.integers(0, 2))]
        lines[0] = " ".join(fields)
    else:
        tokens = lines[-1].split()
        indices = [i for i, token in enumerate(tokens) if token.isdigit()]
        at = draw(st.sampled_from(indices))
        if kind == "group index past 2nu":
            tokens[at] = str(draw(st.integers(2 * nu, 4 * nu)))
        else:
            tokens[at] = tokens[draw(st.sampled_from([i for i in indices if i != at]))]
        lines[-1] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(_SETTINGS, max_examples=200)
@given(text=malformed_code_texts())
def test_a_malformed_code_file_exits_2_with_an_error_line(text):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "malformed.code"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--code", str(path), "--n", "8", "--cp", "2", "--power", "0", "--frames", "1"])
    assert code == 2
    assert err.getvalue().startswith("error: code file ") and "is malformed: " in err.getvalue()
    assert "Traceback" not in err.getvalue() and out.getvalue() == ""


_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, max_examples=20, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_a_failing_property_prints_its_example_under_the_repository_settings(tmp_path):
    # hypothesis imports libcst to report a failure; the suite's warning
    # filters must let that import through, or pytest ends in INTERNALERROR
    (tmp_path / "test_failing.py").write_text(_FAILING_PROPERTY, encoding="utf-8")
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ini), "--rootdir", str(tmp_path),
         str(tmp_path / "test_failing.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = done.stdout + done.stderr
    assert done.returncode == 1, report
    assert "Falsifying example" in report and "INTERNALERROR" not in report, report
