"""Space-time norms of free evolutions, scaling sweeps, and bilinear products.

Norms are L^p power means over [0, horizon) x torus, on uniform grids: a
left-endpoint rule in time and the grid mean in space.  One rule picks the
grid sizes (_quadrature_sizes).  For p = 2m, |u|^p is a trigonometric
polynomial whose spatial band is at most 2mB per axis, B the largest |k_j| in
the support; when every theta_j is an integer u is 1-periodic in t and the
temporal band is at most mS, S the spread of sum_j theta_j k_j^2 over the
support.  So n_x = next_fast_len(2mB+1) and n_t = mS+1 give the norm exactly
on [0, 1) (a bilinear product adds the factors' bands and spreads).  The
spatial band does not depend on theta or the horizon, so for even p with a
non-integer weight or a horizon other than 1 the band-exact n_x is used with
the resolution rule's n_t.  In every other case (odd or fractional p, or
band-exact sizes costing more cells than the resolution rule) the sizes
resolve the fastest quadratic phase with 16 time samples per period, with
n_x = 8N in d = 1 and 4N otherwise (max(64, 2N1) for bilinear products).
Only an even p on integer weights over [0, 1) is exact; the other values are
approximations, and each choice reports whether it is exact.
Every space-time integral streams through one reducer (_stream) over time
chunks and never materializes the space-time array; tensor-product bilinear
data runs as one 1-d field per coordinate.
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
    sobolev_norm,
)
from .propagator import iter_evolved_grids, time_sample_count


def _check_exponent(p) -> None:
    """The exponent rule of every space-time norm: p >= 1 or infinity (NaN fails)."""
    if not p >= 1:
        raise ValueError(f"exponent must be >= 1 or infinity, got {p}")


def _check_grid(horizon: float = 1.0, n_t: int | None = None, n_x: int | None = None) -> None:
    """The size rule of every space-time quadrature: a finite horizon > 0, sizes >= 1."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    for name, size in (("n_t", n_t), ("n_x", n_x)):
        if size is not None and not size >= 1:
            raise ValueError(f"{name} must be >= 1, got {size}")


def spacetime_lp_norm(samples: np.ndarray, p) -> float:
    """L^p power-mean norm of samples shaped (n_t, n_x, ..., n_x), p >= 1 or infinity.

    The mean is over all samples (probability measure; infinity is a max), so
    the time direction is a left-endpoint rule over the sample rows.
    """
    _check_exponent(p)
    samples = np.asarray(samples)
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    a = np.abs(samples)
    scale = float(np.max(a))
    if scale == 0.0 or p == np.inf:
        return scale
    a = a / scale  # power means are 1-homogeneous; normalizing avoids overflow
    return scale * float(np.mean(a**p) ** (1.0 / p))


def _stream(groups, ts: np.ndarray, n_x: int, integrand, over_x=np.mean):
    """Per time chunk, prod_g over_x integrand(prod_{f in g} e^{it Delta} f), one value per time.

    The fields share a dimension, so their iter_evolved_grids chunk alike and
    advance in lockstep.  A grid keeps its slot until the slot's next grid is
    made: the heap neither holds all groups' grids nor trims between chunks.
    """
    gens = [[iter_evolved_grids(f, ts, n_x) for f in group] for group in groups]
    slots = [None] * max(len(group) for group in groups)
    while True:
        out = None
        for group_gens in gens:
            for k, gen in enumerate(group_gens):
                slots[k] = next(gen, None)
            if slots[0] is None:
                return
            red = over_x(  # the group's product is a temporary
                integrand(reduce(np.multiply, [v for _, v in slots[: len(group_gens)]])),
                axis=tuple(range(1, slots[0][1].ndim)),
            )
            out = red if out is None else out * red
        yield out


def _chunk_sum(chunks) -> float:
    """Sum of the streamed per-time values, accumulated chunk by chunk."""
    acc = 0.0
    for vals in chunks:
        acc += float(np.sum(vals))
    return acc


def evolved_lp_norm(f: FrequencyField, p: float, *, n_t: int, n_x: int) -> float:
    """Streaming L^p_{t,x} norm of the free evolution of f on [0, 1), p >= 1 or infinity."""
    _check_exponent(p)
    _check_grid(n_t=n_t, n_x=n_x)
    ts = np.arange(n_t) * (1.0 / n_t)
    if p == np.inf:
        chunks = _stream([(f,)], ts, n_x, lambda u: _modulus_power(u, 2.0), over_x=np.max)
        return math.sqrt(max(float(np.max(top)) for top in chunks))
    acc = _chunk_sum(_stream([(f,)], ts, n_x, lambda u: _modulus_power(u, p)))
    return (acc / n_t) ** (1.0 / p)


def _field_extent(f: FrequencyField) -> tuple[int, float]:
    """Band (largest |k_j|) and spread of sum_j theta_j k_j^2 over the support of f."""
    nz = np.argwhere(f.coeffs != 0) - f.box_radius
    if nz.size == 0:
        return 0, 0.0
    sym = (nz.astype(float) ** 2) @ np.asarray(f.geometry.theta)
    return int(np.max(np.abs(nz))), float(sym.max() - sym.min())


def _axes_extent(axes: list[np.ndarray], geometry: TorusGeometry) -> tuple[int, float]:
    """_field_extent of the tensor product of per-axis coefficient vectors."""
    band, spread = 0, 0.0
    for vec, theta in zip(axes, geometry.theta):
        k = np.flatnonzero(vec) - (vec.size - 1) // 2
        band = max(band, int(np.max(np.abs(k))))
        spread += theta * float(np.max(k * k) - np.min(k * k))
    return band, spread


def _quadrature_sizes(
    extents: list[tuple[int, float]],
    p: float,
    N: int,
    geometry: TorusGeometry,
    horizon: float = 1.0,
    n_t: int | None = None,
    n_x: int | None = None,
) -> tuple[int, int, bool]:
    """(n_t, n_x, exact) for the L^p_{t,x} norm of a product of free evolutions.

    extents holds each factor's (band, spread): one factor for a norm, two for
    a bilinear product (p = 2).  For even p the band-exact n_x is used, with
    the band-exact n_t when every theta_j is an integer and the horizon is 1
    and with the resolution rule's n_t otherwise, whenever that needs no more
    cells than the resolution rule at scale N (see the module docstring),
    which is used otherwise.  Explicit sizes win and must be >= 1, as the
    horizon must be finite and > 0; exact says whether the sizes used
    integrate the trigonometric polynomial |u|^p exactly.
    """
    _check_grid(horizon, n_t, n_x)
    d = geometry.d
    band = sum(b for b, _ in extents)
    spread = sum(s for _, s in extents)
    even = float(p).is_integer() and int(p) % 2 == 0
    periodic = all(float(th).is_integer() for th in geometry.theta) and horizon == 1.0
    m = int(p) // 2 if even else 0
    need_t, need_x = m * int(round(spread)) + 1, 2 * m * band + 1
    if len(extents) == 1:
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
    n_t = default_t if n_t is None else int(n_t)
    n_x = default_x if n_x is None else int(n_x)
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


def exponent_sweep(
    data_class: str,
    p: float,
    N_list,
    geometry: TorusGeometry,
    seed: int = 0,
    n_t: int | None = None,
    n_x: int | None = None,
) -> ScalingFit:
    """Measure ||evolved data||_{L^p_{t,x}} across N and fit the log-log slope."""
    N_list = [int(n) for n in N_list]
    if len(N_list) < 4:
        raise ValueError("need at least 4 values of N for a slope fit")
    _check_exponent(p)  # before the sizes rule reads p
    norms, quadrature = [], []
    for N in N_list:
        f = sweep_data(data_class, N, geometry, seed=seed)
        nt, nx, exact = _quadrature_sizes([_field_extent(f)], p, N, geometry, n_t=n_t, n_x=n_x)
        norms.append(evolved_lp_norm(f, p, n_t=nt, n_x=nx))
        quadrature.append({"N": N, "n_t": nt, "n_x": nx, "exact": exact})
    d = geometry.d
    fit = fit_scaling(N_list, norms, p, d / 2.0 - (d + 2.0) / p)
    fit.quadrature = quadrature
    return fit


# ---------------------------------------------------------------------------
# Bilinear products of free evolutions


def _band_support_ok(f: FrequencyField, N: int) -> bool:
    """Support containment for 'field at scale N': the dyadic band (or core at N=1)."""
    nz = np.argwhere(np.abs(f.coeffs) > 0)
    if nz.size == 0:
        return False
    ks = np.abs(nz - f.box_radius)
    if N == 1:
        return bool(np.all(ks <= 1))
    return bool(np.all((ks > N // 2) & (ks < 2 * N)))


def _bilinear_norm(groups, extents, N1: int, geometry: TorusGeometry, horizon, n_t, n_x) -> float:
    """L^2_{t,x}([0, horizon) x torus) norm of the product, over groups, of each group's evolutions."""
    if geometry.d < 3:
        raise ValueError("bilinear check requires d >= 3")
    n_t, n_x, _ = _quadrature_sizes(extents, 2, N1, geometry, horizon, n_t, n_x)
    ts = np.arange(n_t) * (horizon / n_t)
    return math.sqrt(horizon * _chunk_sum(_stream(groups, ts, n_x, lambda u: np.abs(u) ** 2)) / n_t)


def bilinear_ratio(
    f: FrequencyField,
    N1: int,
    h: FrequencyField,
    N2: int,
    geometry: TorusGeometry,
    horizon: float = 1.0,
    n_t: int | None = None,
    n_x: int | None = None,
) -> float:
    """||(evolved f)(evolved h)||_{L^2_{t,x}([0,horizon) x torus)} / (N2^((d-2)/2) ||f|| ||h||).

    For free evolutions the right-hand side's modal-variation norms reduce to
    the data L2 norms, so boundedness of this ratio across N1 >= N2 is exactly
    the bilinear refocusing estimate on this class; d >= 3 only.
    """
    require_dyadic(N1)
    require_dyadic(N2)
    if not 1 <= N2 <= N1:
        raise ValueError(f"need 1 <= N2 <= N1, got N1={N1}, N2={N2}")
    if f.geometry != geometry or h.geometry != geometry:
        raise ValueError("geometry mismatch")
    if not _band_support_ok(f, N1) or not _band_support_ok(h, N2):
        raise ValueError("band-projection mismatch: data must live on its dyadic band")
    extents = [_field_extent(f), _field_extent(h)]
    norm = _bilinear_norm([(f, h)], extents, N1, geometry, horizon, n_t, n_x)
    return norm / (float(N2) ** ((geometry.d - 2) / 2.0) * sobolev_norm(f, 0) * sobolev_norm(h, 0))


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


def tensor_field(axes: list[np.ndarray], geometry: TorusGeometry) -> FrequencyField:
    """Materialize a tensor-product coefficient box from per-axis vectors."""
    coeffs = axes[0]
    for v in axes[1:]:
        coeffs = np.multiply.outer(coeffs, v)
    M = (axes[0].size - 1) // 2
    return FrequencyField(geometry, M, np.asarray(coeffs, dtype=np.complex128))


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
    """bilinear_ratio for tensor-product data, via one 1-d field per coordinate.

    The spatial mean of the product field factors exactly over coordinates on
    the product grid, so this path reproduces the generic grid computation at
    a fraction of the cost.  Axis vectors must be unit L2.
    """
    extents = [_axes_extent(axes_f, geometry), _axes_extent(axes_h, geometry)]
    groups = [
        tuple(FrequencyField(TorusGeometry(1, (theta,)), (v.size - 1) // 2, v) for v in pair)
        for theta, pair in zip(geometry.theta, zip(axes_f, axes_h))
    ]
    norm = _bilinear_norm(groups, extents, N1, geometry, horizon, n_t, n_x)
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
        _check_grid(horizon, n_t, n_x)
    rng = np.random.default_rng(seed)
    records = []
    for N1 in N1_list:
        require_dyadic(N1)
        n2_values = [n for n in (2**j for j in range(0, 12)) if n <= N1]
        for N2 in n2_values:
            axes_f = [band_axis_coeffs(data, N1, rng) for _ in range(geometry.d)]
            axes_h = [band_axis_coeffs(data, N2, rng) for _ in range(geometry.d)]
            extents = [_axes_extent(axes_f, geometry), _axes_extent(axes_h, geometry)]
            for horizon in horizons:
                nt, nx, exact = _quadrature_sizes(extents, 2, N1, geometry, horizon, n_t, n_x)
                ratio = bilinear_ratio_tensor(
                    axes_f, N1, axes_h, N2, geometry, horizon=horizon, n_t=nt, n_x=nx
                )
                records.append(
                    {"N1": int(N1), "N2": int(N2), "T": float(horizon), "ratio": float(ratio),
                     "n_t": nt, "n_x": nx, "exact": exact}
                )
    return records
