"""Free Schrodinger evolution and the frequency-localized propagator kernel.

The kernel at cutoff scale N is the quadratic-phase exponential sum

    K(t, x) = sum_{k in [-2N, 2N]^d} prod_j bump(k_j/N) e^{2 pi i (x_j k_j - t theta_j k_j^2)}.

Two evaluation paths exist: an exactly-rounded direct summation (the oracle,
lexicographic k order, compensated accumulation via math.fsum) and FFT
synthesis on uniform grids (the fast path).  Tests pin one against the other.
Evolution multiplies coefficients by unimodular phases, hence is unitary on
the coefficient side up to rounding.  Every free-flow phase
e(-t sum_j theta_j k_j^2) over a box is built by one builder (_flow); only the
kernel slice's recurrence (_axis_phases) and the direct-summation oracle
build theirs apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import _fft
from .core import FrequencyField, TorusGeometry, bump, require_dyadic
from .errors import GridTooCoarseError

#: Samples per period of the fastest temporal phase when integrating in t.
TIME_SAMPLES_PER_PERIOD = 16


def time_sample_count(N: int, geometry: TorusGeometry) -> int:
    """Left-endpoint sample count resolving the fastest phase 2*pi*t*theta*(2N)^2."""
    n = int(math.ceil(TIME_SAMPLES_PER_PERIOD * (2 * N) ** 2 * geometry.theta_max))
    return max(n, 64)


def _check_grid(
    horizon: float = 1.0, n_t: int | None = None, n_x: int | None = None
) -> tuple[int | None, int | None]:
    """The size rule of every time sweep and space-time quadrature: (n_t, n_x) as ints.

    The horizon must be finite and > 0, and each size given must be a whole
    number >= 1 (an integral float such as 64.0 passes); anything else raises
    ValueError naming it.  Callers turn a size into a sample count, a time
    step and a grid shape, which disagree on a fractional size, so they use
    the sizes returned here: ints, with a size not given kept as None.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    for name, size in (("n_t", n_t), ("n_x", n_x)):
        if size is not None and not (size >= 1 and size % 1 == 0):
            raise ValueError(f"{name} must be a whole number >= 1, got {size}")
    return tuple(None if size is None else int(size) for size in (n_t, n_x))


@dataclass
class KernelEvaluation:
    """Kernel values on a uniform spatial grid at one time."""

    N: int
    geometry: TorusGeometry
    t: float
    n_x: int
    values: np.ndarray


def _flow(geometry: TorusGeometry, M: int, ts) -> np.ndarray:
    """Rows e(-t sum_j theta_j k_j^2) over the box [-M, M]^d in row-major order, one per t in ts.

    Each row is the product of the per-axis phases e(-r_j k_j^2) with
    r_j = fmod(t theta_j, 1), so one exp runs per (time, axis, mode), not per
    box cell.  The fmod is exact, so where the product t theta_j is exact
    (theta_j = 1) the phases repeat with period 1 in t, bit for bit, and lose
    no accuracy as t grows.  The product t theta_j takes one rounding
    relative to |t| theta_j, the angle 2 pi r_j k_j^2 about three relative to
    |r_j|, and each of the d - 1 products one, so a row is within
    (pi sum_j (|t| theta_j + 3 |r_j|) M^2 + 2d) machine epsilons of the
    exact phases reduced mod 1 (an oracle test pins this).
    """
    k2 = np.arange(-M, M + 1, dtype=float) ** 2
    ts = np.asarray(ts, dtype=float)
    axes = [np.exp(np.multiply.outer(np.fmod(ts * theta, 1.0), k2) * (-2j * np.pi)) for theta in geometry.theta]
    # the outer product per time, axis by axis: the last axis varies fastest, as in the box
    return reduce(lambda rows, axis: (rows[:, :, None] * axis[:, None, :]).reshape(len(rows), -1), axes)


def free_evolve(f: FrequencyField, t: float) -> FrequencyField:
    """Multiply each coefficient by exp(-2*pi*i*t*sum_j theta_j k_j^2)."""
    return f.with_coeffs(f.coeffs * _flow(f.geometry, f.box_radius, [t]).reshape(f.coeffs.shape))


def _check_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {np.asarray(value).tolist()}")


def kernel_direct(t: float, x, N: int, geometry: TorusGeometry) -> complex:
    """Reference kernel value by direct summation with exactly-rounded accumulation.

    t and the point x must be finite (ValueError otherwise).  The kernel has
    period 1 in each x_j, so x_j is reduced mod 1 as theta_j t is: an exact
    fmod, which keeps the bits of a point in [0, 1) and the sign of x_j.  The
    value does not drift with |x|; a shift by whole periods that keeps the
    sign of each x_j keeps its bits.
    """
    require_dyadic(N)
    _check_finite("t", t)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (geometry.d,):
        raise ValueError(f"point must have {geometry.d} coordinates")
    _check_finite("x", x)
    x = np.fmod(x, 1.0)
    k, w = _kernel_axis_symbol(N)
    weights = reduce(np.multiply.outer, [w] * geometry.d)
    phase = np.zeros((k.size,) * geometry.d)
    for j in range(geometry.d):
        shape = [1] * geometry.d
        shape[j] = k.size
        # t theta_j reduced mod 1 (exactly), as in _flow
        phase = phase + (x[j] * k - math.fmod(t * geometry.theta[j], 1.0) * k * k).reshape(shape)
    terms = weights * np.exp(2j * np.pi * phase)
    return complex(
        math.fsum(terms.real.ravel(order="C").tolist()),
        math.fsum(terms.imag.ravel(order="C").tolist()),
    )


def _kernel_axis_symbol(N: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(-2 * N, 2 * N + 1, dtype=float)
    return k, bump(k / N)


def _axis_phases(phases: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of w_k e(-s k^2): row k = 0..w.size-1, one column per phase s.

    The cosine and sine of -2 pi s give e(-s) once per phase; then
    d_k = d_{k-1} e(-2 s) and c_k = c_{k-1} d_k.  Each complex product is four
    real multiplies and two adds, each correctly rounded per element, so a
    phase's values do not depend on the other phases in the block.
    """
    ang = phases * (-2.0 * np.pi)
    c1, s1 = np.cos(ang), np.sin(ang)
    step_re, step_im = c1 * c1 - s1 * s1, 2.0 * c1 * s1
    re, im = np.empty((w.size, phases.size)), np.empty((w.size, phases.size))
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


def kernel_axis_max_abs(ts: np.ndarray, N: int, theta: float, n_x: int) -> np.ndarray:
    """max over the x-grid of the 1-d kernel slice, per time sample (batched FFT).

    The grid max depends on the phase s = theta t alone and is unchanged by
    s -> -s (K(-s, x) = conj K(s, -x)) and by s -> s + 1/2 (e(-k^2/2) = (-1)^k,
    so K(s + 1/2, x) = K(s, x + 1/2), a shift by n_x/2 grid points).  Each time
    is therefore folded to r = min(u, P - u), u = fmod(|theta t|, P), with
    period P = 1/2 for even n_x and P = 1 for odd n_x (where x + 1/2 is off the
    grid), and one transform runs per distinct r.  fmod and P - u are exact,
    so r is an exact function of the float theta t, and times that fold onto
    one r get the same bits; on theta = 1 grids i/n_t that is about a quarter
    of the transforms.

    The symbol bump(k/N) e(-r k^2) is even in k, so its phases are built for
    k = 0..2N only (_axis_phases: a real-arithmetic recurrence, no exp per
    (r, k)) and mirrored onto the slots of k = -2N..-1 of the FFT buffer; the
    gap between is zeroed.  Each time's maximum is the same bits however the
    times are chunked, and the phases err by at most about (2N)^2 machine
    epsilons relative.  K(r, .) is even in x, so the max is taken over
    m = 0..n_x//2.  FFT chunks (_auto_chunk(n_x) rows) and
    the k-major phase blocks (about _auto_chunk(2N+1) rows) are cache-sized,
    so no phase buffer grows with ts.size.
    """
    if n_x < 4 * N + 1:
        raise GridTooCoarseError(f"need n_x >= {4 * N + 1} to hold the symbol, got {n_x}")
    period = 0.5 if n_x % 2 == 0 else 1.0
    u = np.fmod(np.abs(theta * ts), period)
    phases, where = np.unique(np.minimum(u, period - u), return_inverse=True)
    w = _kernel_axis_symbol(N)[1][2 * N :]
    width, half = 2 * N + 1, n_x // 2 + 1
    chunk = _auto_chunk(n_x)
    block = chunk * max(1, _auto_chunk(width) // chunk)
    out = np.empty(phases.size)
    buf = np.empty((min(chunk, phases.size), n_x), dtype=np.complex128)
    parts = buf.view(np.float64).reshape(buf.shape + (2,))
    mod = np.empty((buf.shape[0], half))
    for blo in range(0, phases.size, block):
        re, im = _axis_phases(phases[blo : blo + block], w)
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
    return out[where]


def kernel_grid(t: float, n_x: int, N: int, geometry: TorusGeometry) -> KernelEvaluation:
    """Kernel on the uniform n_x^d grid via inverse FFT of the phased symbol; t must be finite."""
    require_dyadic(N)
    _check_finite("t", t)
    if n_x < 4 * N + 1:
        raise GridTooCoarseError(f"need n_x >= {4 * N + 1} to hold the symbol, got {n_x}")
    w = _kernel_axis_symbol(N)[1]
    sym = _flow(geometry, 2 * N, [t]) * reduce(np.multiply.outer, [w] * geometry.d).ravel()
    values = _synthesize(sym, geometry.d, 2 * N, n_x)[0]
    return KernelEvaluation(N=N, geometry=geometry, t=t, n_x=n_x, values=values)


def _synthesize(rows: np.ndarray, d: int, M: int, n_x: int) -> np.ndarray:
    """Grid values on the n_x^d grid of each row of box coefficients (batched inverse FFT).

    One loop over axes 1..d: each pass places mode k at index k mod n_x along
    its axis, then runs the unscaled inverse transform (norm="forward"), so
    the values are sum_k c_k e(k.x) at the grid points.  When the grid holds
    the box (n_x >= 2M+1) the placement is two slice copies into zeros, so
    only the pencils that can hold a nonzero value are transformed (an
    all-zero pencil transforms to zero).  On a smaller grid colliding modes
    are added (np.add.at), so modes beyond the grid's unambiguous band fold
    onto their aliases: the correct pointwise sampling semantics.
    """
    vals = rows.reshape((rows.shape[0],) + (2 * M + 1,) * d)
    for axis in range(1, d + 1):
        head = (slice(None),) * axis
        buf = np.zeros(vals.shape[:axis] + (n_x,) + vals.shape[axis + 1 :], dtype=np.complex128)
        if n_x >= 2 * M + 1:
            buf[head + (slice(0, M + 1),)] = vals[head + (slice(M, None),)]
            buf[head + (slice(n_x - M, None),)] = vals[head + (slice(0, M),)]
        else:
            np.add.at(buf, head + (np.arange(-M, M + 1) % n_x,), vals)
        vals = _fft.ifft(buf, axis=axis, norm="forward", overwrite_x=True)
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
    """Rows per batch when a batch holds `cells` cells per row: the package's one batch rule.

    `cells` is the largest array a batch holds per row (for a time chunk, the
    phased box or the grid, whichever is larger).  A batch holds about 2^16
    cells (1 MiB of complex values), so batched FFT rows stay cache-resident;
    it has at least one row and at most 4096.
    """
    return int(min(4096, max(1, (1 << 16) // max(cells, 1))))


def _time_chunk(fields, n_x: int) -> int:
    """Times per chunk when these fields are synthesized together on the n_x^d grid.

    Per time a field holds its phased box ((2M+1)^d cells) and its grid
    (n_x^d cells); the largest of these over the fields sets the batch.
    """
    return _auto_chunk(max(max(n_x, 2 * f.box_radius + 1) ** f.geometry.d for f in fields))


def iter_evolved_grids(f: FrequencyField, ts: np.ndarray, n_x: int):
    """Yield (time slice, grid values) chunks of the free evolution of f.

    Each chunk's coefficients are f's times the _flow rows of its times, and
    its grid values are exact samples of the synthesized function (see
    _synthesize); a time's values do not depend on the other times in its chunk.
    A chunk holds _time_chunk([f], n_x) times, so its phased rows and its
    grids both stay near 1 MiB, on a grid smaller than the box too.  A slice
    of at most _time_chunk(fields, n_x) times, for any fields including f,
    comes back as one chunk.
    """
    d, M = f.geometry.d, f.box_radius
    base = f.coeffs.ravel()
    chunk = _time_chunk([f], n_x)
    for lo in range(0, ts.size, chunk):
        tslice = ts[lo : lo + chunk]
        # the phased rows are a temporary, so a suspended generator holds only its grid
        yield tslice, _synthesize(_flow(f.geometry, M, tslice) * base, d, M, n_x)
