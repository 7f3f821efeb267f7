"""FFT backend shim: scipy's pocketfft with a package-wide worker count.

Transform results are bitwise identical for any worker count (workers split
independent transforms in a batch), so parallelism here never changes output.
"""

from __future__ import annotations

import scipy.fft as _sfft

_WORKERS = 1


def set_workers(n: int) -> None:
    global _WORKERS
    _WORKERS = max(int(n), 1)


def fft(a, axis=-1, norm=None, overwrite_x=False):
    return _sfft.fft(a, axis=axis, norm=norm, overwrite_x=overwrite_x, workers=_WORKERS)


def ifft(a, axis=-1, norm=None, overwrite_x=False):
    return _sfft.ifft(a, axis=axis, norm=norm, overwrite_x=overwrite_x, workers=_WORKERS)


def fftn(a, axes=None):
    return _sfft.fftn(a, axes=axes, workers=_WORKERS)


def ifftn(a, axes=None):
    return _sfft.ifftn(a, axes=axes, workers=_WORKERS)
