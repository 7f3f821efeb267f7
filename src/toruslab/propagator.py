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
from .core import FrequencyField, TorusGeometry, bump, require_dyadic
from .errors import BudgetExceededError, GridTooCoarseError

#: Default cap on n_t * grid cells for materialized space-time sampling.
DEFAULT_CELL_BUDGET = 1 << 24

#: Samples per period of the fastest temporal phase when integrating in t.
TIME_SAMPLES_PER_PERIOD = 16


def time_sample_count(N: int, geometry: TorusGeometry, cap: int | None = None) -> int:
    """Left-endpoint sample count resolving the fastest phase 2*pi*t*theta*(2N)^2."""
    n = int(math.ceil(TIME_SAMPLES_PER_PERIOD * (2 * N) ** 2 * geometry.theta_max))
    n = max(n, 64)
    if cap is not None:
        n = min(n, int(cap))
    return n


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform sampling: n_t left endpoints in time, n_x points per space axis."""

    n_t: int
    n_x: int

    def __post_init__(self):
        if self.n_t < 1 or self.n_x < 1:
            raise ValueError("grid sizes must be >= 1")

    def times(self, horizon: float = 1.0) -> np.ndarray:
        return np.arange(self.n_t) * (horizon / self.n_t)


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


@lru_cache(maxsize=64)
def _dispersion_symbol(geometry: TorusGeometry, M: int) -> np.ndarray:
    """sum_j theta_j k_j^2 over the coefficient box; cached, so returned read-only."""
    ks = np.arange(-M, M + 1, dtype=float) ** 2
    total = np.zeros((2 * M + 1,) * geometry.d)
    for j in range(geometry.d):
        shape = [1] * geometry.d
        shape[j] = 2 * M + 1
        total = total + geometry.theta[j] * ks.reshape(shape)
    total.setflags(write=False)
    return total


def free_evolve(f: FrequencyField, t: float, geometry: TorusGeometry | None = None) -> FrequencyField:
    """Multiply each coefficient by exp(-2*pi*i*t*sum_j theta_j k_j^2)."""
    if geometry is not None and geometry != f.geometry:
        raise ValueError("geometry mismatch between field and evolution request")
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


def kernel_axis_max_abs(
    ts: np.ndarray, N: int, theta: float, n_x: int, chunk: int = 4096
) -> np.ndarray:
    """max over the x-grid of the 1-d kernel slice, per time sample (batched FFT).

    The symbol bump(k/N) e^{-2 pi i t theta k^2} is even in k bit for bit, so
    the phases are computed for k = 0..2N only, in place in one FFT buffer, and
    mirrored onto the slots of k = -2N..-1; the gap between stays zero.
    """
    if n_x < 4 * N + 1:
        raise GridTooCoarseError(f"need n_x >= {4 * N + 1} to hold the symbol, got {n_x}")
    k, w = _kernel_axis_symbol(N)
    k, w = k[2 * N :], w[2 * N :]
    sym = theta * k * k
    out = np.empty(ts.size)
    buf = np.zeros((min(chunk, ts.size), n_x), dtype=np.complex128)
    for lo in range(0, ts.size, chunk):
        tslice = ts[lo : lo + chunk]
        rows = buf[: tslice.size]
        head = rows[:, : 2 * N + 1]
        np.multiply.outer(tslice, sym, out=head)
        head *= -2j * np.pi
        np.exp(head, out=head)
        head *= w
        rows[:, n_x - 2 * N :] = rows[:, 2 * N : 0 : -1]
        vals = _fft.ifft(rows, axis=1) * n_x
        out[lo : lo + chunk] = np.max(np.abs(vals), axis=1)
    return out


def kernel_grid(t: float, n_x: int, N: int, geometry: TorusGeometry) -> KernelEvaluation:
    """Kernel on the uniform n_x^d grid via inverse FFT of the phased symbol."""
    require_dyadic(N)
    if n_x < 4 * N + 1:
        raise GridTooCoarseError(f"need n_x >= {4 * N + 1} to hold the symbol, got {n_x}")
    k, w = _kernel_axis_symbol(N)
    positions = (np.arange(-2 * N, 2 * N + 1) % n_x).astype(int)
    axes = [w * np.exp(-2j * np.pi * t * th * k * k) for th in geometry.theta]
    sym = reduce(np.multiply.outer, axes) if geometry.d > 1 else axes[0]
    spec = np.zeros((n_x,) * geometry.d, dtype=np.complex128)
    spec[np.ix_(*([positions] * geometry.d))] = sym
    values = _fft.ifftn(spec) * n_x**geometry.d
    return KernelEvaluation(N=N, geometry=geometry, t=t, n_x=n_x, values=values)


def _flat_positions(d: int, M: int, n_x: int) -> tuple[np.ndarray, bool]:
    """Row-major flat indices of box modes on the n_x^d grid; flags collisions."""
    axis = np.arange(-M, M + 1) % n_x
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    flat = np.ravel_multi_index([g.ravel() for g in grids], (n_x,) * d)
    folded = n_x < 2 * M + 1
    return flat.astype(np.int64), folded


def _auto_chunk(cells: int) -> int:
    # keep per-chunk buffers near 1 MiB so batched FFT rows stay cache-resident
    return int(min(4096, max(16, (1 << 16) // max(cells, 1))))


def iter_evolved_grids(
    f: FrequencyField,
    ts: np.ndarray,
    n_x: int,
    chunk: int | None = None,
):
    """Yield (time slice, grid values) chunks of the free evolution of f.

    Grid values are exact samples of the synthesized function; modes beyond the
    grid's unambiguous band fold onto their aliases, which is the correct
    pointwise sampling semantics.
    """
    d, M = f.geometry.d, f.box_radius
    sym = _dispersion_symbol(f.geometry, M).ravel()
    base = f.coeffs.ravel()
    flat, folded = _flat_positions(d, M, n_x)
    cells = n_x**d
    if chunk is None:
        chunk = _auto_chunk(cells)
    for lo in range(0, ts.size, chunk):
        tslice = ts[lo : lo + chunk]
        rows = base[None, :] * np.exp(-2j * np.pi * np.outer(tslice, sym))
        buf = np.zeros((tslice.size, cells), dtype=np.complex128)
        if folded:
            np.add.at(buf, (slice(None), flat), rows)
        else:
            buf[:, flat] = rows
        vals = _fft.ifftn(buf.reshape((tslice.size,) + (n_x,) * d), axes=tuple(range(1, d + 1)))
        yield tslice, vals * cells


def sample_spacetime(
    f: FrequencyField,
    grid: SpaceTimeGrid,
    geometry: TorusGeometry | None = None,
    horizon: float = 1.0,
    budget: int = DEFAULT_CELL_BUDGET,
) -> np.ndarray:
    """Materialize u(t_i, x_m) for the free evolution of f on the grid.

    Guards the allocation against the cell budget before doing any work.
    """
    if geometry is not None and geometry != f.geometry:
        raise ValueError("geometry mismatch between field and sampling request")
    d, M = f.geometry.d, f.box_radius
    cells = grid.n_t * max((2 * M + 1) ** d, grid.n_x**d)
    if cells > budget:
        raise BudgetExceededError(
            f"requested {cells} cells exceeds the budget of {budget}"
        )
    ts = grid.times(horizon)
    out = np.empty((grid.n_t,) + (grid.n_x,) * d, dtype=np.complex128)
    row = 0
    for tslice, vals in iter_evolved_grids(f, ts, grid.n_x):
        out[row : row + tslice.size] = vals
        row += tslice.size
    return out
