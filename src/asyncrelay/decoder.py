"""Coherent whitened maximum-likelihood decoding, exhaustive and group-wise.

After the destination front-end, subcarrier k obeys the flat model

    y_k = gain * X_k(s_k) @ h_k + n_k,

with h_k the equivalent per-relay channel (source fading, conjugated for
conjugated columns, times destination fading and a delay phase) and n_k
zero-mean complex Gaussian noise: one unit of destination noise plus the
forwarded relay noise of every relay active in the slot. Distinct slots
share no noise sample, so the covariance is diagonal: the model is the
(N, R) channels (``equivalent_channel_matrix``) and the (T,) slot variances
(``noise_covariance``). Whitening scales slot t by w_t = var_t^{-1/2},
which turns ML into a nearest-point search.

The code word is linear in the real symbol coordinates, so the whitened
metric splits into independent per-group problems whenever the dispersion
vectors of different groups are orthogonal under the real inner product.
``CoherentDecoder`` computes the largest cross-group Gram entry, the
grouped search and the exhaustive search for all N subcarriers of a frame
at once, for one code and cascade gain; one subcarrier is the slice
``y[:, k:k+1]``, ``h_all[k:k+1]``. Its owner builds it once and passes it
on, and no module keeps one, so nothing is kept between sweeps. The
coherent sweep's engine owns one per power point, and its second caller is
differential decoding: ``differential.diff_decode_frame`` runs ``grouped``
over the codebook's pair code with the scaled previous block
y^{t-1} / a_{t-1} as the channel and unit slot weights.

Each decoder proves group decodability once, with its gap's table. Slots
with the same set of active relays form a class (the code's ``slot_classes``)
and share one noise variance. If the cross-group Gram coefficients, folded
onto the independent features of h_r conj(h_s) and summed over each class,
are all exactly 0.0, the Gram entries vanish for every channel whose slot
weights are constant on each class (``_proof``). ``gap`` then returns 0.0
for such weights, which weights from ``noise_covariance`` always are, and
computes the largest Gram entry for any other weights and for a code the
proof does not cover. The coherent sweep's engine decides a unit by the
exhaustive search, with a warning, when that gap exceeds 1e-9, so grouping
is an optimisation, never an approximation.

Everything that depends only on the code, the schedule or the link is
tabulated once, on the object it depends on, and read by every frame, with
results bit-identical to computing it per frame: the delay rotations of
``equivalent_channel_matrix`` (a coherent sweep's ``rotation_table``,
gathered by the drawn delays), the code's conjugated-column mask
(``CodeDefinition.conjugated``), the slot classes of the link's code
for ``noise_covariance(link, channel)`` (``CodeDefinition.slot_classes``),
and the per-group candidate tables of ``CoherentDecoder``, padded to the
largest group alphabet so that one argmin over an (N, G, K) view searches
every group.

The decoder's tables are compact. In each slot only a few relays are
active, so most coefficients of the metric and of the Gram entries are
zero in every slot: relay5's grouped metric reads 29 of its 2*R*R + 2*T*R
= 110 features, and its gap 9 of the 50 pair features and 10 of the 54
cross-group entries. Each table keeps only the rows (and, for the gap, the
Gram columns) that are nonzero in some slot, in their original order, and
each table forms, per call, only the products h_r conj(h_s) and
conj(y_t) h_r its rows read, each the same single complex product as in the
full layout; callers pass the channels, never products. OpenBLAS's GEMM adds
each output element's terms in order, so dropping exactly-zero terms
changes no bit: on N >= 2 subcarriers the metrics and Gram entries equal
those of the full tables. On a single subcarrier numpy takes the GEMV
path, whose partial sums depend on the row count, so the last bits may
differ from the full tables'; the decisions still match.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .codebook import CodeDefinition, codeword
from .relaysim import ChannelRealization, LinkConfig

__all__ = [
    "CoherentDecoder",
    "delay_phases",
    "group_candidates",
    "full_candidates",
    "ml_decode_exhaustive",
]

_ORTHOGONALITY_TOL = 1e-9


def delay_phases(n_fft: int, delays: np.ndarray) -> np.ndarray:
    """Per-subcarrier delay rotations, shape (N, R): exp(-2j pi k tau / N)."""
    delays = np.asarray(delays)
    k = np.arange(n_fft)[:, None]
    return np.exp(-2j * np.pi * k * delays[None, :] / n_fft)


def rotation_table(n_fft: int, cp_len: int, delays=None) -> np.ndarray:
    """Read-only (N, span) table whose column tau is ``delay_phases`` of delay
    tau, bit for bit, for the delays below cp_len (which ``draw_channel``
    draws) and below n_fft up to the largest of fixed ``delays``."""
    largest = 0 if delays is None else max(delays, default=0)
    rotations = delay_phases(n_fft, np.arange(min(n_fft, max(cp_len, largest + 1))))
    rotations.setflags(write=False)
    return rotations


def equivalent_channel_matrix(
    code: CodeDefinition, channel: ChannelRealization, n_fft: int, *, rotations: np.ndarray | None = None
) -> np.ndarray:
    """Equivalent channel vectors for every subcarrier, shape (N, R).

    The delay rotations are columns of ``rotations`` (``rotation_table``),
    gathered by the channel's delays; without it, or for a delay it does
    not cover, they are ``delay_phases`` of the delays.
    """
    f = channel.source_to_relay
    f = np.where(code.conjugated, np.conj(f), f)
    if rotations is not None and channel.delays[-1] < rotations.shape[1]:  # delays are non-decreasing
        phases = rotations.take(channel.delays, axis=1)
    else:
        phases = delay_phases(n_fft, channel.delays)
    return (f * channel.relay_to_dest)[None, :] * phases


def noise_covariance(link: LinkConfig, channel: ChannelRealization) -> np.ndarray:
    """Structural (T,) noise variances: the diagonal, and all, of the noise covariance.

    Slot m collects unit destination noise plus the amplified, forwarded
    noise of each relay active in that slot; forwarding permutes white noise
    samples without reuse, so cross-slot terms vanish for any code whose
    relays forward distinct blocks in distinct slots.

    Each of the link code's slot classes sums its k gathered |g|^2
    once, for all its slots: numpy's sum of each slot's active relays (a
    (T, R) mask with zeros would change the summation order from 8 relays
    on).
    """
    boost = link.power.relay_noise_power
    g_sq = np.abs(channel.relay_to_dest) ** 2
    forwarded = np.zeros(link.schedule.num_slots)
    for relays, slots in link.schedule.code.slot_classes:
        forwarded[slots] = np.add.reduce(g_sq[relays])
    return 1.0 + boost * forwarded


def real_to_complex(coords: np.ndarray) -> np.ndarray:
    """Fold a (..., 2*nu) real coordinate array into (..., nu) complex symbols."""
    coords = np.asarray(coords, dtype=float)
    return coords[..., 0::2] + 1j * coords[..., 1::2]


def group_candidates(code: CodeDefinition) -> list[np.ndarray]:
    """Per group, the (K_g, nu) complex partial symbol vectors with all other
    groups' coordinates at zero, in alphabet (bit-label) order."""
    out = []
    for coords, table in zip(code.group_partition, code.alphabet):
        real = np.zeros((table.shape[0], 2 * code.symbol_count))
        real[:, list(coords)] = table
        out.append(real_to_complex(real))
    return out


def full_candidates(code: CodeDefinition) -> tuple[np.ndarray, np.ndarray]:
    """All code word symbol vectors as (C, nu) complex, plus the (C, G) table
    of per-group alphabet indices, enumerated with the last group fastest so
    row order is lexicographic in the group indices."""
    sizes = [table.shape[0] for table in code.alphabet]
    index_table = np.array(list(itertools.product(*(range(k) for k in sizes))), dtype=int)
    return _Assembly(code)(index_table), index_table


class _Assembly:
    """Symbol vectors (..., nu) of per-group alphabet indices (..., G) by one
    gather: real coordinate c of group g, position j in the group, is entry
    (i_g, j) of the group's alphabet table, i.e. element
    offset[c] + i_g * width[c] of the concatenated flattened tables, and the
    (..., 2 nu) interleaved coordinates read as complex are the symbols."""

    def __init__(self, code: CodeDefinition):
        group_of = np.empty(2 * code.symbol_count, dtype=int)
        self.width = np.empty_like(group_of)
        self.offset = np.empty_like(group_of)
        start = 0
        for g, (coords, table) in enumerate(zip(code.group_partition, code.alphabet)):
            group_of[list(coords)] = g
            self.width[list(coords)] = len(coords)
            self.offset[list(coords)] = start + np.arange(len(coords))
            start += table.size
        self.group_of = group_of
        self.values = np.concatenate([table.ravel() for table in code.alphabet])

    def __call__(self, indices: np.ndarray) -> np.ndarray:
        flat = np.asarray(indices)[..., self.group_of] * self.width + self.offset
        return self.values.take(flat).view(complex)


def _used(terms: np.ndarray, axis: tuple[int, ...]) -> np.ndarray:
    """Indices along the axis not in ``axis`` of a coefficient table where
    some entry is nonzero, ascending."""
    return np.flatnonzero(np.any(terms != 0, axis=axis))


class _Columns:
    """Real feature columns in the order of ``rows``, which index the full
    layout [Re p_0 .. Re p_{count-1}, Im p_0 .. Im p_{count-1}] of ``count``
    products p_{i * width + j} = a[:, i] * b[:, j] of two (N, .) factor
    matrices; only the products the rows read are formed, ascending (found
    by a bincount, as ``np.unique`` would import ``numpy.ma`` into every
    fresh process).

    The rows split into runs that read one part (Re or Im) each; a run is a
    slice of that part where its products are adjacent in the formed ones,
    and a gather only where they are not.
    """

    def __init__(self, rows: np.ndarray, count: int, width: int):
        formed = np.flatnonzero(np.bincount(rows % count, minlength=count))
        self.factors = np.divmod(formed, width)
        position = np.empty(count, dtype=int)
        position[formed] = np.arange(len(formed))
        self.runs = []
        for imag, run in itertools.groupby(zip(rows >= count, position[rows % count]), key=lambda row: row[0]):
            at = np.array([p for _, p in run])
            if np.array_equal(at, np.arange(at[0], at[0] + len(at))):
                at = slice(int(at[0]), int(at[-1]) + 1)
            self.runs.append(("imag" if imag else "real", at))

    def __call__(self, a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
        products = a[:, self.factors[0]] * b[:, self.factors[1]]
        return [getattr(products, part)[:, at] for part, at in self.runs]


def _gap_terms(code: CodeDefinition) -> np.ndarray:
    """Real coefficients of the cross-group Gram entries, (T, 2*R*R, X).

    E[r] is relay r's (2*nu, T) dispersion basis: X(s) @ h is linear in
    the real coordinates of s, and E[r, m] is column r of the code word at
    unit coordinate m. The whitened Gram entry (m, n) on subcarrier k is
    Re sum_{r,s} h_r conj(h_s) sum_t w_t^2 E[r, m, t] conj(E[s, n, t]);
    only the X cross-group entries with m < n are kept (the Gram matrix
    is symmetric).
    """
    num_relays = code.num_relays
    disp = np.moveaxis(codeword(code, real_to_complex(np.eye(2 * code.symbol_count))), -1, 0)  # (R, 2*nu, T)
    group_of = np.empty(2 * code.symbol_count, dtype=int)
    for g, coords in enumerate(code.group_partition):
        group_of[list(coords)] = g
    m, n = np.nonzero(np.triu(group_of[:, None] != group_of[None, :]))
    terms = disp[:, None, m, :] * np.conj(disp[None, :, n, :])  # (R, R, X, T)
    terms = np.moveaxis(terms, -1, 0).reshape(code.slot_count, num_relays * num_relays, len(m))
    return np.concatenate((terms.real, -terms.imag), axis=1)


def _proof(code: CodeDefinition, terms: np.ndarray) -> tuple[tuple[int, int], ...] | None:
    """Every slot paired with the first slot of its class, for slots that
    are not first, if the Gram entries of the (T, 2*R*R, X) gap table vanish
    identically whenever the slot weights are constant on each class; else
    None.

    Slots with the same set of active relays form a class; they share one
    noise variance, so ``noise_covariance`` gives them bit-equal weights.
    As p_sr = conj(p_rs) and Im p_rr = 0 for p_rs = h_r conj(h_s), a Gram
    entry is a real linear form in the independent features Re p_rs and
    Im p_rs (r < s) and Re p_rr, whose coefficients fold the table's:
    Re p_rs + Re p_sr, Im p_rs - Im p_sr and Re p_rr. Weighted by a
    per-class constant, the entry is the sum over classes of that weight
    times the class's summed folded coefficients, so every such sum being
    exactly 0.0 proves it zero for any channel. Any nonzero residue, however
    small, leaves the proof out.
    """
    num_relays = code.num_relays
    r, s = np.triu_indices(num_relays, 1)
    rs, sr, rr = r * num_relays + s, s * num_relays + r, np.arange(num_relays) * (num_relays + 1)
    re, im = terms[:, : num_relays * num_relays], terms[:, num_relays * num_relays :]
    folded = np.concatenate((re[:, rs] + re[:, sr], im[:, rs] - im[:, sr], re[:, rr]), axis=1)
    classes = [slots.tolist() for _, slots in code.slot_classes]
    if any(folded[slots].sum(axis=0).any() for slots in classes):
        return None
    return tuple((slot, slots[0]) for slots in classes for slot in slots[1:])


def _metric_terms(fields: np.ndarray, gain: float) -> np.ndarray:
    """Real coefficients of the search metric, (T, 2*R*R + 2*T*R, C).

    For candidate c with code word F_c (T, R) (``fields`` is (C, T, R)), the
    whitened ML metric minus the candidate-independent ||W y||^2 is

        gain^2 h^H Q_c h - 2 gain Re(y^H W^2 F_c h),
        Q_c = sum_t w_t^2 F_c[t]^H F_c[t],

    i.e. a real linear form in [Re, Im] of h_r conj(h_s) and of
    conj(y_t) h_r.
    """
    _, slots, num_relays = fields.shape
    quad = np.conj(fields)[..., :, None] * fields[..., None, :]  # (C, T, R, R)
    quad = np.moveaxis(quad, 0, -1).reshape(slots, num_relays * num_relays, -1)
    cross = np.zeros((slots, slots, num_relays, fields.shape[0]), dtype=complex)
    for t in range(slots):
        cross[t, t] = fields[:, t, :].T
    cross = cross.reshape(slots, slots * num_relays, -1)
    parts = (gain**2 * quad.real, gain**2 * quad.imag, -2.0 * gain * cross.real, 2.0 * gain * cross.imag)
    return np.concatenate(parts, axis=1)


class _Form:
    """Real linear form (N, C) of a (T, F, C) coefficient table over the F
    rows used in some slot, weighted per call by ``w2``: the features those
    rows read @ (F', C). Pair rows read h_r conj(h_s) (r * R + s), and the
    observation rows of a metric table read conj(y_t) h_r (t * R + r)."""

    def __init__(self, terms: np.ndarray, num_relays: int):
        self.rows = _used(terms, (0, 2))
        kept = terms[:, self.rows]
        self.shape = kept.shape[1:]
        self.terms = kept.reshape(len(kept), -1)
        split = 2 * num_relays * num_relays
        self.pairs = _Columns(self.rows[self.rows < split], num_relays * num_relays, num_relays)
        self.observations = None  # the gap table has no observation rows
        if terms.shape[1] > split:
            count = (terms.shape[1] - split) // 2
            self.observations = _Columns(self.rows[self.rows >= split] - split, count, num_relays)

    def __call__(self, h_all: np.ndarray, w2: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        features = self.pairs(h_all, np.conj(h_all))
        if self.observations is not None:
            features += self.observations(np.conj(y.T), h_all)
        joined = features[0] if len(features) == 1 else np.concatenate(features, axis=1)
        return joined @ (w2 @ self.terms).reshape(self.shape)


class CoherentDecoder:
    """Whitened ML for one code and cascade gain over a frame of N subcarriers.

    Operations take the (N, R) equivalent channels ``h_all``, the (T,)
    whitening weights ``w2`` (w_t^2 = 1 / var_t) and, to search, the (T, N)
    observations ``y``; ``gap`` and the searches reject any other shapes.
    Gram entries and metrics are real linear forms in h_r conj(h_s) and
    conj(y_t) h_r whose per-slot coefficients are tabulated once and
    weighted by one ``w2 @ terms`` product per call. Each table keeps only
    its rows (and Gram columns) that are nonzero in some slot, in their
    original order, and only the products those rows read are formed; the
    exhaustive search builds its table on first use.
    """

    def __init__(self, code: CodeDefinition, gain: float):
        self.code = code
        self.gain = gain
        self._assemble = _Assembly(code)
        # every group's candidates padded to the largest alphabet by repeating
        # its last one, so one argmin over (N, G, K) searches all groups and a
        # pad, equal to an earlier column, never wins (argmin takes the first)
        partials = group_candidates(code)
        self._width = max(p.shape[0] for p in partials)
        padded = [np.concatenate((p, np.repeat(p[-1:], self._width - p.shape[0], axis=0))) for p in partials]
        group_terms = _metric_terms(codeword(code, np.concatenate(padded)), gain)
        self._group = _Form(group_terms, code.num_relays)
        gap_terms = _gap_terms(code)
        gap_terms = gap_terms[:, :, _used(gap_terms, (0, 1))]  # the Gram columns nonzero in some slot
        self._gap = _Form(gap_terms, code.num_relays)
        self._proof = _proof(code, gap_terms)
        self._full = None  # (index table, metric form) of the product alphabet

    @property
    def proven(self) -> bool:
        """Whether ``gap`` is 0.0 for every channel given slot weights
        constant on each class, as ``noise_covariance``'s are: no cross-group
        Gram entry is nonzero in any slot, or the code's proof holds."""
        return not self._gap.terms.size or self._proof is not None

    @property
    def exhaustive_nbytes(self) -> int:
        """Size of the full metric table that ``exhaustive`` builds on first
        use: one candidate's table times the product alphabet's size."""
        one = _metric_terms(codeword(self.code, np.zeros((1, self.code.symbol_count))), self.gain)
        return one.nbytes * math.prod(table.shape[0] for table in self.code.alphabet)

    def gap(self, h_all: np.ndarray, w2: np.ndarray) -> float:
        """Largest cross-group whitened Gram entry over all subcarriers: 0.0
        where the code's proof covers ``w2``, computed everywhere else."""
        self._check_model(h_all, w2)
        if not self._gap.terms.size:  # no cross-group entry is nonzero in any slot
            return 0.0
        if self._proof is not None:
            w = w2.tolist()  # T Python floats: cheaper to compare than arrays
            if all(w[slot] == w[first] for slot, first in self._proof):
                return 0.0
        return float(np.abs(self._gap(h_all, w2)).max())

    def _check_model(self, h_all: np.ndarray, w2: np.ndarray) -> None:
        """Reject channels not (N, R) or weights not (T,) for the code's T
        slots and R relays."""
        slots, relays = self.code.slot_count, self.code.num_relays
        if (h_all.shape[1:], w2.shape) != ((relays,), (slots,)):  # no (R,) tail unless h_all is 2-D
            raise ValueError(
                f"code {self.code.name!r} takes h_all (N, R) and w2 (T,) with T = {slots} and R = {relays}, "
                f"got shapes {h_all.shape} and {w2.shape}"
            )

    def _check(self, y: np.ndarray, h_all: np.ndarray, w2: np.ndarray) -> None:
        """Reject a search whose channels or weights ``_check_model`` rejects,
        or whose observations are not (T, N) for the N channels."""
        self._check_model(h_all, w2)
        if y.shape != (self.code.slot_count, h_all.shape[0]):
            raise ValueError(
                f"code {self.code.name!r} searches y (T, N) with T = {self.code.slot_count} and N channels, "
                f"got shapes {y.shape}, {h_all.shape} and {w2.shape}"
            )

    def grouped(self, y: np.ndarray, h_all: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """Per-group alphabet indices (N, G), each group searched with every
        other group at zero; the joint minimiser when ``gap`` vanishes."""
        self._check(y, h_all, w2)
        metrics = self._group(h_all, w2, y)
        return metrics.reshape(metrics.shape[0], -1, self._width).argmin(axis=2)

    def exhaustive(self, y: np.ndarray, h_all: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """Per-group alphabet indices (N, G) of the minimiser over the full
        product alphabet; ties go to the lexicographically first candidate."""
        self._check(y, h_all, w2)
        if self._full is None:
            symbols, index_table = full_candidates(self.code)
            terms = _metric_terms(codeword(self.code, symbols), self.gain)
            self._full = index_table, _Form(terms, self.code.num_relays)
        index_table, metric = self._full
        return index_table[np.argmin(metric(h_all, w2, y), axis=1)]

    def symbols(self, indices: np.ndarray) -> np.ndarray:
        """Symbol vectors (..., nu) of per-group alphabet indices (..., G)."""
        return self._assemble(indices)


def ml_decode_exhaustive(y: np.ndarray, h_all: np.ndarray, w2: np.ndarray, decoder: CoherentDecoder) -> np.ndarray:
    """``decoder.exhaustive(y, h_all, w2)``. The sweep's fallback decides
    through this name only so that perfbench's traced run counts its
    fallback units by it; benchmark v2 retires it."""
    return decoder.exhaustive(y, h_all, w2)
