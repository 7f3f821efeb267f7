"""Numerical checks of kernel refocusing bounds and the Farey-train convolution.

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
the stratified grid and the Farey midpoints (check_diff_bound): the off-arc sup
uses the off-arc times of the union, the envelope ratio uses the base-grid
times, and the report carries the base-grid arrays, so a CSV dump costs no
extra sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _fft
from .arithmetic import (
    MajorArcParams,
    dirichlet_approx_batch,
    farey_atoms_float,
    in_major_arc,
    major_arc_mask,
)
from .core import TorusGeometry, annular_bump, bump, require_dyadic
from .errors import GridTooCoarseError
from .propagator import _check_grid, kernel_axis_max_abs, kernel_direct, time_sample_count

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
    max_ratio_kernel_vs_bound: float | None = None
    sup_offarc_kernel: float | None = None
    fitted_constants: dict = field(default_factory=dict)
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
    _check_grid(n_t=n_t)
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


def kernel_split(
    t: float, x, N: int, sigma: float, geometry: TorusGeometry
) -> tuple[complex, complex]:
    """Split the kernel value into its major-arc part and the remainder.

    The major-arc part is K(t, x) when t lies in the arc set, else 0; the two
    parts have disjoint supports in t and sum to K(t, x) exactly.
    """
    params = MajorArcParams(sigma=sigma, N=N)
    value = kernel_direct(t, x, N, geometry)
    inside, _ = in_major_arc(t, params, geometry)
    if inside:
        return value, 0.0 + 0.0j
    return 0.0 + 0.0j, value


@dataclass
class DiffBoundResult:
    """Off-arc sup of |K| normalized by N^(d(1-sigma)); degenerate when no off-arc times."""

    constant: float
    offarc_fraction: float
    degenerate: bool
    t_at_sup: float
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
    n_t and n_x are checked by propagator._check_grid before any sweep.
    """
    require_dyadic(N)
    _check_grid(n_t=n_t, n_x=n_x)
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
                               t_at_sup=float("nan"), sweep=sweep)
    scale = float(N) ** (geometry.d * (1.0 - sigma))
    i = np.flatnonzero(off)[np.argmax(kmax[off])]
    return DiffBoundResult(
        constant=float(kmax[i] / scale),
        offarc_fraction=frac,
        degenerate=False,
        t_at_sup=float(ts[i]),
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
    n_t and n_x are checked by propagator._check_grid before any sweep.
    """
    require_dyadic(N)
    _check_grid(n_t=n_t, n_x=n_x)
    if n_x is None:
        n_x = 8 * N
    diff = check_diff_bound(N, sigma, geometry, n_t=n_t, n_x=n_x)
    ts, kmax, on_base = diff.sweep
    ts, kmax = ts[on_base], kmax[on_base]
    bounds = dispersive_bound_batch(ts, N, geometry)
    ratios = kmax / bounds
    i = int(np.argmax(ratios))
    t0 = int(np.searchsorted(ts, 0.0))
    report = DispersiveReport(
        N=N,
        geometry=geometry,
        sigma=sigma,
        grid={"n_t": int(ts.size), "n_x": int(n_x), "stratified": True},
        sup_offarc_kernel=diff.constant,
        sweep=(ts, kmax, bounds),
    )
    report.max_ratio_kernel_vs_bound = float(ratios[i])
    report.fitted_constants = {
        "t_at_max": float(ts[i]),
        "ratio_at_t0": float(ratios[t0]),
        "bound_at_max": float(bounds[i]),
        "offarc_fraction": diff.offarc_fraction,
        "offarc_degenerate": bool(diff.degenerate),
        "t_at_offarc_sup": diff.t_at_sup,
    }
    return report


def _circle_distance(x: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Pairwise distance on the circle, shape (len(x), len(atoms))."""
    diff = np.abs(x[:, None] - atoms[None, :]) % 1.0
    return np.minimum(diff, 1.0 - diff)


def dispersive_rhs(
    t: float, N: int, Q_max: int, geometry: TorusGeometry, r: float
) -> float:
    """Right-hand side of the arcwise kernel convolution estimate at one time.

    Sums (Q T)^(d/r - d/2) over coordinates, dyadic window sizes Q <= Q_max and
    dyadic widths N^-2 <= T <= Q_max N^-2 / Q, weighted by the bump train of
    the reduced fractions with q ~ Q.  The dyadic widths telescope: with r = 2
    the value counts the active bump windows, and on the arc set it is >= 1.
    """
    require_dyadic(N)
    require_dyadic(Q_max, "Q_max")
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    d = geometry.d
    base = 1.0 / N**2
    total = 0.0
    m_total = int(round(math.log2(Q_max)))
    for theta in geometry.theta:
        x = np.asarray([(theta * t) % 1.0])
        for mq in range(m_total + 1):
            Q = 1 << mq
            atoms = farey_atoms_float(Q)
            dist = _circle_distance(x, atoms)[0]
            for mt in range(m_total - mq + 1):
                T = base * (1 << mt)
                u = dist / T
                profile = bump(u) if mt == 0 else annular_bump(u)
                weight = (Q * T) ** (d / r - d / 2.0)
                total += weight * float(np.sum(profile))
    return total


@dataclass(frozen=True)
class BilinearFormCheckParams:
    """Exponent recipe for the restricted-weak-type form check.

    alpha = (4 - r0) / (2 (r0 - 2)) and delta = 1/alpha follow from r0; r0
    must exceed 2/(1 - sigma) when sigma is supplied.
    """

    r0: float
    Q: int
    T_scale: float
    sigma: float | None = None

    def __post_init__(self):
        if not 2.0 < self.r0 < 4.0:
            raise ValueError(f"r0 must lie in (2, 4), got {self.r0}")
        require_dyadic(self.Q, "Q")
        if self.T_scale <= 0:
            raise ValueError("T_scale must be positive")
        if self.sigma is not None and self.r0 < 2.0 / (1.0 - self.sigma) - 1e-12:
            raise ValueError(f"need r0 >= 2/(1-sigma) = {2.0 / (1.0 - self.sigma)}")

    @property
    def alpha(self) -> float:
        return (4.0 - self.r0) / (2.0 * (self.r0 - 2.0))

    @property
    def delta(self) -> float:
        return 1.0 / self.alpha


def _indicator(arcs, n: int) -> np.ndarray:
    """0/1 grid indicator of a union of arcs given as (start, length) pairs."""
    xs = np.arange(n) / n
    ind = np.zeros(n)
    for start, length in arcs:
        rel = (xs - start) % 1.0
        ind[rel < length] = 1.0
    return ind


def atom_bump_train(Q: int, T: float, xs: np.ndarray) -> np.ndarray:
    """sum over Farey atoms of bump((x - atom)/T), evaluated at the points xs."""
    atoms = farey_atoms_float(Q)
    dist = _circle_distance(np.asarray(xs, dtype=float), atoms)
    return np.sum(bump(dist / T), axis=1)


def bilinear_form_check(
    E_set,
    F_set,
    params: BilinearFormCheckParams,
    n_quad: int,
) -> tuple[float, float]:
    """Pairing <chi_E, train * bump_T * chi_F> against the restricted-type bound.

    The left side places the atoms exactly and quadratures the smooth profile
    on an n_quad grid (FFT circular convolution); the right side is
    (|E||F|)^(1/r0') * Q^(1+delta) * T^(2/r0).  Base bump profile:
    it dominates the annular one pointwise, so this is the conservative check.
    """
    T = params.T_scale
    if T * n_quad < 32:
        raise GridTooCoarseError(
            f"need T * n_quad >= 32 to resolve the profile, got {T * n_quad:.3g}"
        )
    xs = np.arange(n_quad) / n_quad
    train = atom_bump_train(params.Q, T, xs)
    e_ind = _indicator(E_set, n_quad)
    f_ind = _indicator(F_set, n_quad)
    conv = _fft.ifft(_fft.fft(train) * _fft.fft(f_ind)).real
    lhs = float(e_ind @ conv) / n_quad**2
    meas_e = float(np.mean(e_ind))
    meas_f = float(np.mean(f_ind))
    r0 = params.r0
    rhs = (meas_e * meas_f) ** (1.0 - 1.0 / r0) * params.Q ** (1.0 + params.delta) * T ** (2.0 / r0)
    return lhs, rhs


def random_arc_union(rng: np.random.Generator, n_quad: int) -> list[tuple[float, float]]:
    """Union of up to 8 arcs with dyadic lengths >= 1/1024, grid-aligned starts."""
    count = int(rng.integers(1, 9))
    arcs = []
    for _ in range(count):
        length = 2.0 ** (-int(rng.integers(1, 11)))
        start = int(rng.integers(0, n_quad)) / n_quad
        arcs.append((start, length))
    return arcs


def run_bilinear_draws(
    N: int,
    sigma: float = 0.1,
    n_draws: int = 1000,
    seed: int = 0,
) -> list[dict]:
    """Random (E, F, Q, T) draws of the form check at level N; returns ratio records."""
    require_dyadic(N)
    rng = np.random.default_rng(seed)
    r0 = 2.0 / (1.0 - sigma)
    q_top = max(int(math.floor(float(N) ** (2.0 * sigma))), 1)
    records = []
    for _ in range(n_draws):
        Q = 1
        while Q * 2 <= q_top and rng.random() < 0.5:
            Q *= 2
        t_lo = 1.0 / N**2
        t_hi = float(N) ** (2.0 * sigma - 2.0) / Q
        levels = max(int(math.floor(math.log2(max(t_hi / t_lo, 1.0)))), 0)
        T = t_lo * 2.0 ** int(rng.integers(0, levels + 1))
        n_quad = 1 << max(int(math.ceil(math.log2(32.0 / T))), 6)
        params = BilinearFormCheckParams(r0=r0, Q=Q, T_scale=T, sigma=sigma)
        e_set = random_arc_union(rng, n_quad)
        f_set = random_arc_union(rng, n_quad)
        lhs, rhs = bilinear_form_check(e_set, f_set, params, n_quad)
        records.append(
            {"Q": Q, "T": T, "n_quad": n_quad, "lhs": lhs, "rhs": rhs,
             "ratio": lhs / rhs if rhs > 0 else float("inf")}
        )
    return records
