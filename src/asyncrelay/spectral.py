"""Block transforms for OFDM symbols.

All transforms use the unitary convention, i.e. a 1/sqrt(N) factor on both
directions. That symmetric scaling is what makes conjugation swap the two
transforms,

    conj(dft(x)) == idft(conj(x)),      conj(idft(x)) == dft(conj(x)),

and makes the circular-reversal identity

    dft(reverse(dft(x))) == x,          dft(reverse(x)) == idft(x)

hold exactly. ``reverse`` is the circular index reversal n -> (N - n) mod N,
which fixes sample 0 and reverses the rest; it is the N-point body operation
realised by a relay that time-reverses a cyclic-prefixed symbol. The relays
apply it inside their forwarding gather (``relaysim``), so this module has
no function for it; the tests check the identities with the reference
``reverse`` in ``tests/oracles.py``.

The transforms are numpy's FFT (``norm="ortho"``). Block lengths must be
powers of two: that is part of the ``LinkConfig`` contract (``n_fft``), not
a limit of the algorithm. Every
function acts along the last axis and broadcasts over any leading axes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dft",
    "idft",
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

