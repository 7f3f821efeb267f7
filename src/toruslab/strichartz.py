"""Space-time norms of free evolutions, scaling sweeps, and bilinear products.

Norms are L^p power means over [0, horizon) x torus, on uniform grids: a
left-endpoint rule in time and the grid mean in space.  One rule picks the
grid sizes (_quadrature_sizes).  For p = 2m, |u|^p is a trigonometric
polynomial whose spatial band is at most 2mB per axis, B the largest |k_j| in
the support; when every theta_j is an integer u is 1-periodic in t and the
temporal band is at most mS, S the spread of sum_j theta_j k_j^2 over the
support.  So n_x = next_fast_len(2mB+1) and n_t = mS+1 give the norm exactly
on [0, 1).  The rule reads the integrand from the same groups of fields that
_stream multiplies, so each integrand is described once: a bilinear product
adds its factors' bands and spreads, and a factor given as one 1-d field per
coordinate has the largest of their bands and the sum of their spreads.  When
S = 0 every mode has one symbol, so |u| does not depend on t and n_t = 1 is
exact on any torus and horizon.  The spatial band does not depend on theta or
the horizon, so for even p with S > 0 and a non-integer weight or a horizon
other than 1 the band-exact n_x is used with the resolution rule's n_t.  In
every other case (odd or fractional p, or band-exact sizes costing more cells
than the resolution rule) the sizes resolve the fastest quadratic phase with
16 time samples per period, with n_x = 8N in d = 1 and 4N otherwise
(max(64, 2N1) for bilinear products).  Only an even p on integer weights
over [0, 1), or with S = 0, is exact; the other values are approximations,
and each choice reports whether it is exact.  Explicit sizes win; they must
be whole numbers >= 1, by the size rule the kernel sweeps share
(propagator._check_grid).
Every space-time integral streams through one reducer (_stream), which
never materializes the space-time array: it fills one vector of per-time
values chunk by chunk, and each norm reduces that vector once, so a norm does
not depend on the time chunk.  Tensor-product bilinear data runs as one 1-d
field per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from ._fft import _next_fast_len
from .core import (
    FrequencyField,
    TorusGeometry,
    _modulus_power,
    is_dyadic,
    require_dyadic,
)
from .propagator import _check_grid, _time_chunk, iter_evolved_grids, time_sample_count


def _check_exponent(p) -> None:
    """The exponent rule of every space-time norm: p >= 1 or infinity (NaN fails)."""
    if not p >= 1:
        raise ValueError(f"exponent must be >= 1 or infinity, got {p}")


def _stream(groups, ts: np.ndarray, n_x: int, integrand, over_x=np.mean) -> np.ndarray:
    """prod_g over_x integrand(prod_{f in g} e^{it Delta} f) at each time of ts, as one vector.

    The time chunk is decided once, for every field of every group
    (propagator._time_chunk), so each field's iter_evolved_grids yields a
    slice as one chunk and the fields' grids line up time for time even when
    their boxes differ.  A group's grids live until the next group's are
    made, so the heap holds at most two groups' grids.  Each time's value is
    computed from that time's grids alone, so the vector, and a norm that
    reduces it once, does not depend on the chunk.
    """
    out = np.empty(ts.size)
    chunk = _time_chunk([f for group in groups for f in group], n_x)
    for lo in range(0, ts.size, chunk):
        tslice = ts[lo : lo + chunk]
        reds = []
        for group in groups:
            grids = [next(iter_evolved_grids(f, tslice, n_x))[1] for f in group]
            # the group's product is a temporary
            reds.append(over_x(integrand(reduce(np.multiply, grids)), axis=tuple(range(1, grids[0].ndim))))
        out[lo : lo + chunk] = reduce(np.multiply, reds)
    return out


def evolved_lp_norm(f: FrequencyField, p: float, *, n_t: int, n_x: int) -> float:
    """Streaming L^p_{t,x} norm of the free evolution of f on [0, 1), p >= 1 or infinity.

    |u| peaks at the l1 norm of the coefficients; a finite p for which |u|^p
    overflows a float raises ValueError naming p and the overflow.
    """
    _check_exponent(p)
    n_t, n_x = _check_grid(n_t=n_t, n_x=n_x)
    ts = np.arange(n_t) * (1.0 / n_t)
    if p == np.inf:
        tops = _stream([(f,)], ts, n_x, lambda u: _modulus_power(u, 2.0), over_x=np.max)
        return math.sqrt(float(np.max(tops)))
    with np.errstate(over="ignore"):  # the finiteness check below reports it
        acc = float(np.sum(_stream([(f,)], ts, n_x, lambda u: _modulus_power(u, p))))
    if not math.isfinite(acc):
        raise ValueError(f"|u|^p overflows a float at p = {p:g}; use a smaller p")
    return (acc / n_t) ** (1.0 / p)


def _field_extent(f: FrequencyField) -> tuple[int, float]:
    """Band (largest |k_j|) and spread of sum_j theta_j k_j^2 over the support of f."""
    nz = np.argwhere(f.coeffs != 0) - f.box_radius
    if nz.size == 0:
        return 0, 0.0
    sym = (nz.astype(float) ** 2) @ np.asarray(f.geometry.theta)
    return int(np.max(np.abs(nz))), float(sym.max() - sym.min())


def _quadrature_sizes(
    groups,
    p: float,
    N: int,
    geometry: TorusGeometry,
    horizon: float = 1.0,
    n_t: int | None = None,
    n_x: int | None = None,
) -> tuple[int, int, bool]:
    """(n_t, n_x, exact) for the L^p_{t,x} norm of the integrand _stream makes of groups.

    groups is what _stream takes: [(f,)] for a norm, [(f, h)] for a bilinear
    product (p = 2), and one (f_j, h_j) pair of 1-d fields per coordinate for
    tensor-product data.  Factor i has the largest band and the summed spread
    (_field_extent) of the i-th fields of the groups, as the tensor product of
    those fields has; the product's band and spread add over the factors.
    For even p the band-exact n_x is used, with the band-exact n_t when every
    theta_j is an integer and the horizon is 1 or when the spread is 0
    (n_t = 1), and with the resolution rule's n_t otherwise, whenever that
    needs no more cells than the resolution rule at scale N (see the module
    docstring), which is used otherwise.  Explicit sizes win and are checked
    by propagator._check_grid, as the horizon is; exact says whether the
    sizes used integrate the trigonometric polynomial |u|^p exactly.
    """
    n_t, n_x = _check_grid(horizon, n_t, n_x)
    d = geometry.d
    # on non-integer weights a summed spread may differ from the product
    # box's in its last bits; there it is only compared with 0, which is exact
    factors = [[_field_extent(f) for f in fields] for fields in zip(*groups)]
    band = sum(max(b for b, _ in extents) for extents in factors)
    spread = sum(sum(s for _, s in extents) for extents in factors)
    even = float(p).is_integer() and int(p) % 2 == 0
    # with spread 0 every mode has one symbol, so |u| does not depend on t
    periodic = spread == 0 or (all(float(th).is_integer() for th in geometry.theta) and horizon == 1.0)
    m = int(p) // 2 if even else 0
    need_t, need_x = m * int(round(spread)) + 1, 2 * m * band + 1
    if len(factors) == 1:
        loose_t, loose_x = time_sample_count(N, geometry), 8 * N if d == 1 else 4 * N
    else:
        loose_t = max(int(math.ceil(time_sample_count(N, geometry) * horizon)), 64)
        loose_x = max(64, 2 * N)
    # the spatial band does not depend on theta or the horizon; the temporal one does
    tight_t, cap = need_t if periodic else loose_t, loose_t * loose_x**d
    # rounding n_x up only adds cells, so a band over the cap is not rounded:
    # _next_fast_len counts up one integer at a time and a huge p never ends
    fits = even and tight_t * need_x**d <= cap
    tight_x = _next_fast_len(need_x) if fits else need_x
    if fits and tight_t * tight_x**d <= cap:
        default_t, default_x = tight_t, tight_x
    else:
        default_t, default_x = loose_t, loose_x
    n_t = default_t if n_t is None else n_t
    n_x = default_x if n_x is None else n_x
    return n_t, n_x, bool(even and periodic and n_t >= need_t and n_x >= need_x)


def sweep_data(data_class: str, N: int, geometry: TorusGeometry, seed: int = 0) -> FrequencyField:
    """Canonical data families on the core box [-N, N]^d, L2-normalized.

    character: a single mode (lower witness); flat: all-ones coefficients (the
    refocusing stress case); random_gaussian: seeded iid complex normals.
    """
    require_dyadic(N)
    d = geometry.d
    if data_class == "character":
        return FrequencyField.character(geometry, N, (0,) * d, amplitude=1.0)
    shape = (2 * N + 1,) * d
    if data_class == "flat":
        coeffs = np.ones(shape, dtype=np.complex128)
    elif data_class == "random_gaussian":
        rng = np.random.default_rng([seed, N])
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    else:
        raise ValueError(f"unknown data class {data_class!r}")
    coeffs = coeffs / np.sqrt(np.sum(np.abs(coeffs) ** 2))
    return FrequencyField(geometry, N, coeffs)


@dataclass
class ScalingFit:
    """Log-log regression of measured norms against the cutoff scale."""

    p: float
    N_list: list[int]
    norms: list[float]
    slope: float
    intercept: float
    max_residual: float
    theoretical_exponent: float
    #: The (n_t, n_x, exact) quadrature of each N, as {"N", "n_t", "n_x", "exact"}.
    quadrature: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if not all(b > a for a, b in zip(self.N_list, self.N_list[1:])):
            raise ValueError("N_list must be strictly increasing")
        if not all(is_dyadic(n) for n in self.N_list):
            raise ValueError("N_list must be dyadic")
        if not all(v > 0 for v in self.norms):
            raise ValueError("norms must be positive")
        if not np.isfinite(self.slope):
            raise ValueError("slope must be finite")


def fit_scaling(N_list, norms, p: float, theoretical: float) -> ScalingFit:
    """Least-squares line log(norm) = slope * log(N) + intercept over the scales.

    max_residual is the largest |log residual|; theoretical is the exponent
    the fit is compared with.  ScalingFit checks the scales (dyadic, strictly
    increasing), the norms (positive) and the slope (finite): ValueError.
    """
    logs_n = np.log(np.asarray(N_list, dtype=float))
    logs_v = np.log(np.asarray(norms, dtype=float))
    slope, intercept = np.polyfit(logs_n, logs_v, 1)
    resid = np.max(np.abs(logs_v - (slope * logs_n + intercept)))
    return ScalingFit(
        p=float(p),
        N_list=[int(n) for n in N_list],
        norms=[float(v) for v in norms],
        slope=float(slope),
        intercept=float(intercept),
        max_residual=float(resid),
        theoretical_exponent=float(theoretical),
    )


def _check_scales(N_list) -> list[int]:
    """The scales of a sweep as ints: at least 4 powers of two, strictly increasing."""
    N_list = [require_dyadic(n) for n in N_list]
    if len(N_list) < 4:
        raise ValueError("need at least 4 values of N for a slope fit")
    if not all(b > a for a, b in zip(N_list, N_list[1:])):
        raise ValueError(f"N_list must be strictly increasing, got {N_list}")
    return N_list


def exponent_sweep(
    data_class: str,
    p: float,
    N_list,
    geometry: TorusGeometry,
    seed: int = 0,
    n_t: int | None = None,
    n_x: int | None = None,
) -> ScalingFit:
    """Measure ||evolved data||_{L^p_{t,x}} across N and fit the log-log slope.

    N_list is checked (_check_scales) before any norm is computed.
    """
    N_list = _check_scales(N_list)
    _check_exponent(p)  # before the sizes rule reads p
    norms, quadrature = [], []
    for N in N_list:
        f = sweep_data(data_class, N, geometry, seed=seed)
        nt, nx, exact = _quadrature_sizes([(f,)], p, N, geometry, n_t=n_t, n_x=n_x)
        norms.append(evolved_lp_norm(f, p, n_t=nt, n_x=nx))
        quadrature.append({"N": N, "n_t": nt, "n_x": nx, "exact": exact})
    d = geometry.d
    fit = fit_scaling(N_list, norms, p, d / 2.0 - (d + 2.0) / p)
    fit.quadrature = quadrature
    return fit


# ---------------------------------------------------------------------------
# Bilinear products of free evolutions


def _bilinear_norm(groups, N1: int, geometry: TorusGeometry, horizon, n_t, n_x) -> float:
    """L^2_{t,x}([0, horizon) x torus) norm of the product, over groups, of each group's evolutions.

    bilinear_ratio_tensor and the tests' full-grid reference both read it.
    """
    if geometry.d < 3:
        raise ValueError("bilinear check requires d >= 3")
    n_t, n_x, _ = _quadrature_sizes(groups, 2, N1, geometry, horizon, n_t, n_x)
    ts = np.arange(n_t) * (horizon / n_t)
    return math.sqrt(horizon * float(np.sum(_stream(groups, ts, n_x, lambda u: np.abs(u) ** 2))) / n_t)


def band_axis_coeffs(kind: str, N: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """1-d coefficient vector over [-N, N] supported on the dyadic shell, unit L2.

    Shell at scale N >= 2: N/2 < |k| <= N; at N = 1 the core |k| <= 1.
    kind 'flat' fills the shell with ones, 'character' keeps the single mode
    k = N, 'random' draws seeded complex normals on the shell.
    """
    k = np.arange(-N, N + 1)
    if N == 1:
        mask = np.abs(k) <= 1
    else:
        mask = (np.abs(k) > N // 2) & (np.abs(k) <= N)
    vec = np.zeros(2 * N + 1, dtype=np.complex128)
    if kind == "flat":
        vec[mask] = 1.0
    elif kind == "character":
        vec[k == N] = 1.0
    elif kind == "random":
        if rng is None:
            raise ValueError("random band data needs a generator")
        n = int(np.count_nonzero(mask))
        vec[mask] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        raise ValueError(f"unknown band data kind {kind!r}")
    return vec / np.sqrt(np.sum(np.abs(vec) ** 2))


def _axis_groups(axes_f: list[np.ndarray], axes_h: list[np.ndarray], geometry: TorusGeometry) -> list[tuple]:
    """The groups of tensor-product data: one (f_j, h_j) pair of 1-d fields per coordinate."""
    return [
        tuple(FrequencyField(TorusGeometry(1, (theta,)), (v.size - 1) // 2, v) for v in pair)
        for theta, pair in zip(geometry.theta, zip(axes_f, axes_h))
    ]


def bilinear_ratio_tensor(
    axes_f: list[np.ndarray],
    N1: int,
    axes_h: list[np.ndarray],
    N2: int,
    geometry: TorusGeometry,
    horizon: float = 1.0,
    n_t: int | None = None,
    n_x: int | None = None,
) -> float:
    """||(evolved f)(evolved h)||_{L^2_{t,x}([0,horizon) x torus)} / N2^((d-2)/2), d >= 3.

    f and h are the tensor products of the unit axis vectors axes_f and
    axes_h, so ||f|| = ||h|| = 1.  For free evolutions the right-hand side's
    modal-variation norms reduce to the data L2 norms, so boundedness of this
    ratio across N1 >= N2 is exactly the bilinear refocusing estimate on this
    class.  The product runs as one 1-d field per coordinate: the spatial
    mean of the product field factors exactly over coordinates on the product
    grid, so this path gives the full-box value (the tests keep a full-grid
    reference) at a fraction of the cost.  Axis vectors must be unit L2: a
    squared norm more than 1e-12 from 1 raises ValueError naming the axis.
    """
    for side, axes in (("axes_f", axes_f), ("axes_h", axes_h)):
        for j, v in enumerate(axes):
            if abs(np.sum(np.abs(v) ** 2) - 1.0) > 1e-12:
                raise ValueError(f"{side}[{j}] must be unit L2, got squared norm {np.sum(np.abs(v) ** 2)!r}")
    norm = _bilinear_norm(_axis_groups(axes_f, axes_h, geometry), N1, geometry, horizon, n_t, n_x)
    return norm / float(N2) ** ((geometry.d - 2) / 2.0)


def bilinear_table(
    N1_list,
    horizons,
    geometry: TorusGeometry,
    data: str = "flat",
    n_x: int | None = None,
    n_t: int | None = None,
    seed: int = 0,
) -> list[dict]:
    """Ratio table over dyadic pairs N2 <= N1 and time horizons (tensor fast path).

    Each record carries the quadrature it used: n_t, n_x and exact.
    """
    for horizon in horizons:
        _check_grid(horizon)
    n_t, n_x = _check_grid(n_t=n_t, n_x=n_x)
    N1_list = [require_dyadic(n, "N1") for n in N1_list]
    rng = np.random.default_rng(seed)
    records = []
    for N1 in N1_list:
        n2_values = [n for n in (2**j for j in range(0, 12)) if n <= N1]
        for N2 in n2_values:
            axes_f = [band_axis_coeffs(data, N1, rng) for _ in range(geometry.d)]
            axes_h = [band_axis_coeffs(data, N2, rng) for _ in range(geometry.d)]
            groups = _axis_groups(axes_f, axes_h, geometry)
            for horizon in horizons:
                nt, nx, exact = _quadrature_sizes(groups, 2, N1, geometry, horizon, n_t, n_x)
                ratio = bilinear_ratio_tensor(
                    axes_f, N1, axes_h, N2, geometry, horizon=horizon, n_t=nt, n_x=nx
                )
                records.append(
                    {"N1": int(N1), "N2": int(N2), "T": float(horizon), "ratio": float(ratio),
                     "n_t": nt, "n_x": nx, "exact": exact}
                )
    return records
