"""Free Schrodinger evolution and the frequency-localized propagator kernel.

The kernel at cutoff scale N is the quadratic-phase exponential sum

    K(t, x) = sum_{k in [-2N, 2N]^d} prod_j bump(k_j/N) e^{2 pi i (x_j k_j - t theta_j k_j^2)}.

Two evaluation paths exist: an exactly-rounded direct summation (the oracle,
lexicographic k order, compensated accumulation via math.fsum) and FFT
synthesis on uniform grids (the fast path).  Tests pin one against the other.
Evolution multiplies coefficients by unimodular phases, hence is exactly
unitary on the coefficient side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import _fft
from .core import FrequencyField, TorusGeometry, _dispersion_symbol, bump, require_dyadic
from .errors import GridTooCoarseError

#: Samples per period of the fastest temporal phase when integrating in t.
TIME_SAMPLES_PER_PERIOD = 16


def time_sample_count(N: int, geometry: TorusGeometry) -> int:
    """Left-endpoint sample count resolving the fastest phase 2*pi*t*theta*(2N)^2."""
    n = int(math.ceil(TIME_SAMPLES_PER_PERIOD * (2 * N) ** 2 * geometry.theta_max))
    return max(n, 64)


@dataclass
class KernelEvaluation:
    """Kernel values on a uniform spatial grid at one time, plus a point rule."""

    N: int
    geometry: TorusGeometry
    t: float
    n_x: int
    values: np.ndarray

    def at(self, x) -> complex:
        return kernel_direct(self.t, x, self.N, self.geometry)


def free_evolve(f: FrequencyField, t: float) -> FrequencyField:
    """Multiply each coefficient by exp(-2*pi*i*t*sum_j theta_j k_j^2)."""
    sym = _dispersion_symbol(f.geometry, f.box_radius)
    return f.with_coeffs(f.coeffs * np.exp(-2j * np.pi * t * sym))


def kernel_direct(t: float, x, N: int, geometry: TorusGeometry) -> complex:
    """Reference kernel value by direct summation with exactly-rounded accumulation."""
    require_dyadic(N)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (geometry.d,):
        raise ValueError(f"point must have {geometry.d} coordinates")
    k = np.arange(-2 * N, 2 * N + 1, dtype=float)
    w = bump(k / N)
    weights = reduce(np.multiply.outer, [w] * geometry.d) if geometry.d > 1 else w
    phase = np.zeros((k.size,) * geometry.d)
    for j in range(geometry.d):
        shape = [1] * geometry.d
        shape[j] = k.size
        phase = phase + (x[j] * k - t * geometry.theta[j] * k * k).reshape(shape)
    terms = weights * np.exp(2j * np.pi * phase)
    return complex(
        math.fsum(terms.real.ravel(order="C").tolist()),
        math.fsum(terms.imag.ravel(order="C").tolist()),
    )


def _kernel_axis_symbol(N: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(-2 * N, 2 * N + 1, dtype=float)
    return k, bump(k / N)


def _axis_phases(ts: np.ndarray, theta: float, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of w_k e(-t theta k^2): row k = 0..w.size-1, one column per t.

    The cosine and sine of -2 pi theta t give e(-t theta) once per time; then
    d_k = d_{k-1} e(-2 t theta) and c_k = c_{k-1} d_k.  Each complex product
    is four real multiplies and two adds, each correctly rounded per element,
    so a time's phases do not depend on the other times in the block.
    """
    ang = ts * (-2.0 * np.pi * theta)
    c1, s1 = np.cos(ang), np.sin(ang)
    step_re, step_im = c1 * c1 - s1 * s1, 2.0 * c1 * s1
    re, im = np.empty((w.size, ts.size)), np.empty((w.size, ts.size))
    re[0], im[0] = 1.0, 0.0
    d_re, d_im = c1, s1
    for k in range(1, w.size):
        if k > 1:
            d_re, d_im = d_re * step_re - d_im * step_im, d_re * step_im + d_im * step_re
        re[k] = re[k - 1] * d_re - im[k - 1] * d_im
        im[k] = re[k - 1] * d_im + im[k - 1] * d_re
    re *= w[:, None]
    im *= w[:, None]
    return re, im


def kernel_axis_max_abs(
    ts: np.ndarray, N: int, theta: float, n_x: int, *, chunk: int | None = None
) -> np.ndarray:
    """max over the x-grid of the 1-d kernel slice, per time sample (batched FFT).

    The symbol bump(k/N) e(-t theta k^2) is even in k, so its phases are built
    for k = 0..2N only (_axis_phases: a real-arithmetic recurrence, no exp per
    (t, k)) and mirrored onto the slots of k = -2N..-1 of the FFT buffer; the
    gap between is zeroed.  Each time's maximum is the same bits however the
    times are chunked, and the phases err by at most about (2N)^2 machine
    epsilons relative, as exp of the rounded argument t theta k^2 did.  K(t, .)
    is even in x, so the max is taken over m = 0..n_x//2.  FFT chunks (chunk
    rows, _auto_chunk(n_x) by default) and the k-major phase blocks (about
    _auto_chunk(2N+1) rows) are cache-sized, so no buffer grows with ts.size.
    """
    if n_x < 4 * N + 1:
        raise GridTooCoarseError(f"need n_x >= {4 * N + 1} to hold the symbol, got {n_x}")
    w = _kernel_axis_symbol(N)[1][2 * N :]
    width, half = 2 * N + 1, n_x // 2 + 1
    if chunk is None:
        chunk = _auto_chunk(n_x)
    block = chunk * max(1, _auto_chunk(width) // chunk)
    out = np.empty(ts.size)
    buf = np.empty((min(chunk, ts.size), n_x), dtype=np.complex128)
    parts = buf.view(np.float64).reshape(buf.shape + (2,))
    mod = np.empty((buf.shape[0], half))
    for blo in range(0, ts.size, block):
        re, im = _axis_phases(ts[blo : blo + block], theta, w)
        for lo in range(0, re.shape[1], chunk):
            rows = buf[: min(chunk, re.shape[1] - lo)]
            n = rows.shape[0]
            parts[:n, :width, 0] = re[:, lo : lo + n].T
            parts[:n, :width, 1] = im[:, lo : lo + n].T
            rows[:, width : n_x - 2 * N] = 0.0
            rows[:, n_x - 2 * N :] = rows[:, 2 * N : 0 : -1]
            vals = _fft.ifft(rows, axis=1, norm="forward", overwrite_x=True)
            np.abs(vals[:, :half], out=mod[:n])
            np.max(mod[:n], axis=1, out=out[blo + lo : blo + lo + n])
    return out


def kernel_grid(t: float, n_x: int, N: int, geometry: TorusGeometry) -> KernelEvaluation:
    """Kernel on the uniform n_x^d grid via inverse FFT of the phased symbol."""
    require_dyadic(N)
    if n_x < 4 * N + 1:
        raise GridTooCoarseError(f"need n_x >= {4 * N + 1} to hold the symbol, got {n_x}")
    k, w = _kernel_axis_symbol(N)
    axes = [w * np.exp(-2j * np.pi * t * th * k * k) for th in geometry.theta]
    sym = reduce(np.multiply.outer, axes) if geometry.d > 1 else axes[0]
    values = _synthesize(sym.reshape(1, -1), geometry.d, 2 * N, n_x)[0]
    return KernelEvaluation(N=N, geometry=geometry, t=t, n_x=n_x, values=values)


@lru_cache(maxsize=64)
def _flat_positions(d: int, M: int, n_x: int) -> np.ndarray:
    """Row-major flat indices of box modes on the n_x^d grid; cached, so returned read-only."""
    axis = np.arange(-M, M + 1) % n_x
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    flat = np.ravel_multi_index([g.ravel() for g in grids], (n_x,) * d).astype(np.int64)
    flat.setflags(write=False)
    return flat


def _synthesize(rows: np.ndarray, d: int, M: int, n_x: int) -> np.ndarray:
    """Grid values on the n_x^d grid of each row of box coefficients (batched inverse FFT).

    The grid is inverse-transformed one axis at a time, axes 1..d in turn,
    and the first pass carries the 1/n_x^d factor, so the values are those of
    scipy's ifftn over the full grid.  When the grid holds the box
    (n_x >= 2M+1) each axis is zero-padded just before its pass, so only the
    pencils that can hold a nonzero value are transformed (an all-zero pencil
    transforms to zero).  Otherwise the box is first scatter-added onto the
    full grid: modes beyond the grid's unambiguous band fold onto their
    aliases, which is the correct pointwise sampling semantics.
    """
    cells = n_x**d
    lead = (rows.shape[0],)
    folded = n_x < 2 * M + 1
    if folded:
        vals = np.zeros(lead + (cells,), dtype=np.complex128)
        np.add.at(vals, (slice(None), _flat_positions(d, M, n_x)), rows)
        vals = vals.reshape(lead + (n_x,) * d)
    else:
        vals = rows.reshape(lead + (2 * M + 1,) * d)
    for axis in range(1, d + 1):
        if not folded:
            head = (slice(None),) * axis
            buf = np.zeros(vals.shape[:axis] + (n_x,) + vals.shape[axis + 1 :], dtype=np.complex128)
            buf[head + (slice(0, M + 1),)] = vals[head + (slice(M, None),)]
            buf[head + (slice(n_x - M, None),)] = vals[head + (slice(0, M),)]
            vals = buf
        vals = _fft.ifft(vals, axis=axis, norm="forward", overwrite_x=True)
        if axis == 1:
            # as scipy's ifftn: each component times 1/n_x^d computed in long double
            parts = vals.view(np.float64)
            parts *= float(1 / np.longdouble(cells))
    vals *= cells
    return vals


def _analyze(vals: np.ndarray, d: int, M: int, n_x: int) -> np.ndarray:
    """Box coefficients of each grid in a stack: fftn(vals)/n_x^d at the box modes.

    The mirror of _synthesize: axes 1..d are forward-transformed in turn and
    only the box slice along an axis is kept after its pass, so later passes
    skip the pencils whose modes are discarded.  Rows come back in the box's
    row-major order.
    """
    if n_x < 2 * M + 1:
        raise GridTooCoarseError(f"need n_x >= {2 * M + 1} to hold the box, got {n_x}")
    for axis in range(1, d + 1):
        head = (slice(None),) * axis
        spec = _fft.fft(vals, axis=axis, overwrite_x=axis > 1)  # the caller's grid is kept
        vals = np.concatenate(
            (spec[head + (slice(n_x - M, None),)], spec[head + (slice(0, M + 1),)]), axis=axis
        )
    return vals.reshape(vals.shape[0], -1) / n_x**d


def _auto_chunk(cells: int) -> int:
    # keep per-chunk buffers near 1 MiB so batched FFT rows stay cache-resident
    return int(min(4096, max(16, (1 << 16) // max(cells, 1))))


def iter_evolved_grids(f: FrequencyField, ts: np.ndarray, n_x: int):
    """Yield (time slice, grid values) chunks of the free evolution of f.

    Grid values are exact samples of the synthesized function (see _synthesize).
    """
    d, M = f.geometry.d, f.box_radius
    sym = _dispersion_symbol(f.geometry, M).ravel()
    base = f.coeffs.ravel()
    chunk = _auto_chunk(n_x**d)
    for lo in range(0, ts.size, chunk):
        tslice = ts[lo : lo + chunk]
        # the phased rows are a temporary, so a suspended generator holds only its grid
        yield tslice, _synthesize(base[None, :] * np.exp(-2j * np.pi * np.outer(tslice, sym)), d, M, n_x)
