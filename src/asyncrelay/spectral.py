"""Block transforms and cyclic-prefix primitives for OFDM symbols.

All transforms use the unitary convention, i.e. a 1/sqrt(N) factor on both
directions. That symmetric scaling is what makes conjugation swap the two
transforms,

    conj(dft(x)) == idft(conj(x)),      conj(idft(x)) == dft(conj(x)),

and makes the circular-reversal identity

    dft(reverse(dft(x))) == x,          dft(reverse(x)) == idft(x)

hold exactly. ``reverse`` is the circular index reversal n -> (N - n) mod N,
which fixes sample 0 and reverses the rest; it is the N-point body operation
realised by a relay that time-reverses a cyclic-prefixed symbol.

The transforms are numpy's FFT (``norm="ortho"``). Block lengths must be
powers of two: that is part of the ``LinkConfig`` contract (``n_fft``), not
a limit of the algorithm. Every
function acts along the last axis and broadcasts over any leading axes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "add_cp",
    "dft",
    "idft",
    "remove_cp",
    "reverse",
    "shift_tail_to_head",
]


def _checked(block: np.ndarray) -> np.ndarray:
    x = np.asarray(block, dtype=np.complex128)
    n = x.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"block length {n} is not a power of two")
    return x


def dft(block: np.ndarray) -> np.ndarray:
    """Unitary discrete Fourier transform along the last axis."""
    return np.fft.fft(_checked(block), norm="ortho")


def idft(block: np.ndarray) -> np.ndarray:
    """Unitary inverse discrete Fourier transform along the last axis."""
    return np.fft.ifft(_checked(block), norm="ortho")


def reverse(block: np.ndarray) -> np.ndarray:
    """Circular index reversal: output n holds input (N - n) mod N."""
    x = np.asarray(block)
    if x.shape[-1] < 1:
        raise ValueError("cannot reverse an empty block")
    return np.roll(x[..., ::-1], 1, axis=-1)


def add_cp(block: np.ndarray, cp_len: int) -> np.ndarray:
    """Prepend the last ``cp_len`` samples of the block as a cyclic prefix."""
    x = np.asarray(block)
    n = x.shape[-1]
    if not 0 <= cp_len < n:
        raise ValueError(f"cyclic prefix length {cp_len} must lie in [0, {n})")
    if cp_len == 0:
        return x.copy()
    return np.concatenate((x[..., n - cp_len:], x), axis=-1)


def remove_cp(block: np.ndarray, cp_len: int) -> np.ndarray:
    """Drop the leading ``cp_len`` samples, returning the symbol body."""
    x = np.asarray(block)
    total = x.shape[-1]
    if cp_len < 0 or 2 * cp_len >= total:
        raise ValueError(f"cyclic prefix length {cp_len} invalid for {total}-sample block")
    return x[..., cp_len:]


def shift_tail_to_head(block: np.ndarray, cp_len: int) -> np.ndarray:
    """Move the last ``cp_len`` samples to the front (circular right shift)."""
    x = np.asarray(block)
    n = x.shape[-1]
    if not 0 <= cp_len < n:
        raise ValueError(f"shift length {cp_len} must lie in [0, {n})")
    return np.roll(x, cp_len, axis=-1)
