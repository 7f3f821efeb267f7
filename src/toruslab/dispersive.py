"""Numerical checks of the kernel's refocusing envelope and its off-arc decay.

The checks compute empirical constants (grid maxima of |kernel| / bound).  The
meaningful statement at desk scale is stability of those constants as the
cutoff N doubles, not any absolute value: the constants depend on the concrete
cutoff profile and on the magnitudes of the torus weights.

Grid sweeps exploit the coordinate product structure of the kernel: the max of
|K(t, .)| over a product grid equals the product over coordinates of 1-d slice
maxima, which keeps the sweeps cheap even at d = 2.  A 1-d slice maximum
depends on the phase theta t only through its fold onto [0, 1/4] (even x-grids)
or [0, 1/2] (odd ones), so each distinct folded phase is transformed once: on
the theta = 1 grids that is about a quarter of the times.  The slices build
their phases for k >= 0 only (the symbol is even in k) by a real-arithmetic
recurrence, with no exp per (t, k), and take the max over half the x-grid
(the kernel is even in x); see propagator.kernel_axis_max_abs.

check_dispersive sweeps the kernel once per N, in one call, on the union of
the stratified grid and the Farey midpoints (check_diff_bound, which alone
checks N and the sizes and sets the 8N x-grid default, and returns the n_x it
swept): the off-arc sup uses the off-arc times of the union, the envelope
ratio uses the base-grid times, and the report carries the base-grid arrays,
so a CSV dump costs no extra sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import MajorArcParams, dirichlet_approx_batch, major_arc_mask
from .core import TorusGeometry, require_dyadic
from .propagator import _check_grid, kernel_axis_max_abs, time_sample_count

#: Cap on the uniform time-grid size used by the sweep drivers.
SWEEP_TIME_CAP = 1 << 17

#: Denominator depth of the refocusing times stratified into sweep grids.
SWEEP_FAREY_DEPTH = 32


@dataclass
class DispersiveReport:
    """Per-N record of the kernel sweeps; grid spec kept for reproducibility."""

    N: int
    geometry: TorusGeometry
    sigma: float
    grid: dict
    max_ratio_kernel_vs_bound: float
    sup_offarc_kernel: float
    fitted_constants: dict
    #: (ts, kmax, bounds) over the base grid, for CSV dumps; not part of the JSON.
    sweep: tuple | None = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "d": self.geometry.d,
            "theta": list(self.geometry.theta),
            "sigma": self.sigma,
            "grid": self.grid,
            "max_ratio_kernel_vs_bound": self.max_ratio_kernel_vs_bound,
            "sup_offarc_kernel": self.sup_offarc_kernel,
            "fitted_constants": self.fitted_constants,
        }


def dispersive_bound(t: float, N: int, geometry: TorusGeometry) -> float:
    """Refocusing envelope prod_j N / (sqrt(q_j) (1 + N |theta_j t - a_j/q_j|^(1/2))).

    The (a_j, q_j) are the level-N certificates of theta_j * t.
    """
    vals = dispersive_bound_batch(np.array([t]), N, geometry)
    return float(vals[0])


def dispersive_bound_batch(ts: np.ndarray, N: int, geometry: TorusGeometry) -> np.ndarray:
    """dispersive_bound at every time of ts, as an array shaped like ts.

    Each theta_j t is reduced mod 1 and certified in one batch
    (arithmetic.dirichlet_approx_batch), so a value equals dispersive_bound
    at that time.
    """
    require_dyadic(N)
    ts = np.asarray(ts, dtype=float)
    out = np.ones(ts.shape)
    for theta in geometry.theta:
        beta = theta * ts
        beta -= np.floor(beta)  # beta mod 1 (see dirichlet_approx_batch)
        a, q = dirichlet_approx_batch(beta, N)
        err = np.abs(beta - a / q)
        out = out * (N / (np.sqrt(q) * (1.0 + N * np.sqrt(err))))
    return out


def refocusing_times(N: int, geometry: TorusGeometry, depth: int = SWEEP_FAREY_DEPTH) -> np.ndarray:
    """Times where some theta_j t hits a reduced rational with small denominator."""
    pts = [0.0, 1.0]
    qmax = min(depth, N)
    for theta in geometry.theta:
        for q in range(1, qmax + 1):
            for a in range(q + 1):
                if math.gcd(a, q) != 1:
                    continue
                t = a / (q * theta)
                if 0.0 <= t <= 1.0:
                    pts.append(t)
    return np.unique(np.asarray(pts))


def sweep_time_grid(N: int, geometry: TorusGeometry, n_t: int | None = None) -> np.ndarray:
    """Uniform left-endpoint grid densified with refocusing times.

    By default n_t = time_sample_count(N, geometry), 16 samples per period of
    the fastest phase e(-theta_max (2N)^2 t), but capped at SWEEP_TIME_CAP =
    2^17: with theta_max = 1 the cap leaves 8 samples per period at N = 64, 2
    at N = 128 and 0.5 at N = 256.  An explicit n_t must be a whole number
    >= 1 (propagator._check_grid, the size rule of the space-time norms too),
    so the grid always spans [0, 1].
    """
    n_t, _ = _check_grid(n_t=n_t)
    if n_t is None:
        n_t = min(time_sample_count(N, geometry), SWEEP_TIME_CAP)
    base = np.arange(n_t + 1) / n_t
    return np.unique(np.concatenate([base, refocusing_times(N, geometry)]))


def _kernel_max_abs_product(
    ts: np.ndarray, N: int, geometry: TorusGeometry, n_x: int
) -> np.ndarray:
    """max over the product x-grid of |K(t, .)|, per t; product of 1-d maxima."""
    out = np.ones(ts.size)
    cache: dict[float, np.ndarray] = {}
    for theta in geometry.theta:
        if theta not in cache:
            cache[theta] = kernel_axis_max_abs(ts, N, theta, n_x)
        out = out * cache[theta]
    return out


@dataclass
class DiffBoundResult:
    """Off-arc sup of |K| normalized by N^(d(1-sigma)); degenerate when no off-arc times."""

    constant: float
    offarc_fraction: float
    degenerate: bool
    t_at_sup: float
    #: The x-grid size the sweep used (8N unless given).
    n_x: int
    #: (ts, kmax, on_base): the swept times, the kernel maxima there and the
    #: mask of the base-grid times, which check_dispersive reuses.
    sweep: tuple | None = field(default=None, repr=False, compare=False)


def farey_midpoint_times(N: int, sigma: float, geometry: TorusGeometry) -> np.ndarray:
    """Midpoints between consecutive small-denominator refocusing times.

    These are the points farthest from every arc, where the off-arc sup of the
    kernel is attained; uniform grids alone under-sample them.
    """
    params = MajorArcParams(sigma=sigma, N=N)
    qmax = max(int(math.floor(params.threshold)), 3)
    pts = refocusing_times(N, geometry, depth=qmax)
    return 0.5 * (pts[1:] + pts[:-1])


def check_diff_bound(
    N: int,
    sigma: float,
    geometry: TorusGeometry,
    n_t: int | None = None,
    n_x: int | None = None,
) -> DiffBoundResult:
    """sup over off-arc grid times of max_x |K(t, x)| / N^(d(1-sigma)).

    One sweep covers the base grid and the Farey midpoints, on and off the arcs.
    N must be a power of two and n_t and n_x are checked by
    propagator._check_grid, all before any sweep; n_x defaults to 8N.
    """
    N = require_dyadic(N)
    n_t, n_x = _check_grid(n_t=n_t, n_x=n_x)
    if n_x is None:
        n_x = 8 * N
    params = MajorArcParams(sigma=sigma, N=N)
    base = sweep_time_grid(N, geometry, n_t=n_t)
    ts = np.union1d(base, farey_midpoint_times(N, sigma, geometry))
    kmax = _kernel_max_abs_product(ts, N, geometry, n_x)
    sweep = (ts, kmax, np.isin(ts, base))
    off = ~major_arc_mask(ts, params, geometry)
    frac = float(np.count_nonzero(off)) / ts.size
    if not off.any():
        return DiffBoundResult(constant=float("nan"), offarc_fraction=0.0, degenerate=True,
                               t_at_sup=float("nan"), n_x=n_x, sweep=sweep)
    scale = float(N) ** (geometry.d * (1.0 - sigma))
    i = np.flatnonzero(off)[np.argmax(kmax[off])]
    return DiffBoundResult(
        constant=float(kmax[i] / scale),
        offarc_fraction=frac,
        degenerate=False,
        t_at_sup=float(ts[i]),
        n_x=n_x,
        sweep=sweep,
    )


def check_dispersive(
    N: int,
    geometry: TorusGeometry,
    sigma: float = 0.1,
    n_t: int | None = None,
    n_x: int | None = None,
) -> DispersiveReport:
    """Both kernel checks at level N, sweeping each time sample once.

    max_ratio_kernel_vs_bound is the empirical constant max_(t,x) |K| / bound
    over the stratified base grid.  The ratio at t = 0 equals exactly 3^d for
    this cutoff profile (the symbol sums to 3N per coordinate), so the reported
    max is always >= 3^d.  sup_offarc_kernel and the fitted constants
    offarc_fraction, offarc_degenerate and t_at_offarc_sup are check_diff_bound's
    result, and the ratio reads the base-grid rows of its sweep.
    N, n_t and n_x are checked by check_diff_bound before its sweep.
    """
    diff = check_diff_bound(N, sigma, geometry, n_t=n_t, n_x=n_x)
    ts, kmax, on_base = diff.sweep
    ts, kmax = ts[on_base], kmax[on_base]
    bounds = dispersive_bound_batch(ts, N, geometry)
    ratios = kmax / bounds
    i = int(np.argmax(ratios))
    t0 = int(np.searchsorted(ts, 0.0))
    return DispersiveReport(
        N=N,
        geometry=geometry,
        sigma=sigma,
        grid={"n_t": int(ts.size), "n_x": diff.n_x, "stratified": True},
        max_ratio_kernel_vs_bound=float(ratios[i]),
        sup_offarc_kernel=diff.constant,
        fitted_constants={
            "t_at_max": float(ts[i]),
            "ratio_at_t0": float(ratios[t0]),
            "bound_at_max": float(bounds[i]),
            "offarc_fraction": diff.offarc_fraction,
            "offarc_degenerate": bool(diff.degenerate),
            "t_at_offarc_sup": diff.t_at_sup,
        },
        sweep=(ts, kmax, bounds),
    )

