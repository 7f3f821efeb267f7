"""FFT backend: numpy's pocketfft, the package's only transform library.

Every transform the package runs is a batched 1-d pass (fft, ifft); the
1-d results are the bits scipy.fft's pocketfft gives.  overwrite_x=True
writes the result into the complex input array.
"""

from __future__ import annotations

import numpy as np

#: Transforms run on one thread; the benchmark records this in each run.
_WORKERS = 1


def fft(a, axis=-1, norm=None, overwrite_x=False):
    return np.fft.fft(a, axis=axis, norm=norm, out=a if overwrite_x else None)


def ifft(a, axis=-1, norm=None, overwrite_x=False):
    return np.fft.ifft(a, axis=axis, norm=norm, out=a if overwrite_x else None)


# no package code calls the n-d transforms; bench/tracing.py still names them
def fftn(a, axes=None):
    return np.fft.fftn(a, axes=axes)


def ifftn(a, axes=None):
    return np.fft.ifftn(a, axes=axes)


def _next_fast_len(target: int) -> int:
    """Smallest 11-smooth integer >= target: a length pocketfft transforms fast."""
    n = max(int(target), 1)
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1
