"""Fourier-side representation of functions on rectangular tori.

The base space is always the unit torus [0,1)^d; the rectangle enters through
anisotropy weights theta_j = L_j**(-2) that scale the Laplacian symbol.  A
function is held as a dense complex coefficient box over k in [-M, M]^d,
stored row-major with k = -M first along every axis, under the convention

    f(x) = sum_k exp(2*pi*i*k.x) fhat(k).

All projectors and norms act coefficientwise.  Fields are treated as immutable
values: every operation returns a new field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import BoxTooSmallError

#: Identifier of the concrete smooth cutoff built below; recorded in every
#: machine-readable output so constants are only compared per-profile.
PHI_PROFILE_ID = "exp-ratio-bump-v1"


def is_dyadic(n) -> bool:
    """True for integer powers of two >= 1."""
    try:
        m = int(n)
    except (TypeError, ValueError):
        return False
    return m == n and m >= 1 and (m & (m - 1)) == 0


def require_dyadic(n, what: str = "N") -> int:
    if not is_dyadic(n):
        raise ValueError(f"{what} must be a power of two >= 1, got {n!r}")
    return int(n)


def _psi(s: np.ndarray) -> np.ndarray:
    # exp(-1/s) on s > 0, identically 0 on s <= 0; C-infinity across 0.
    out = np.zeros_like(s)
    pos = s > 0
    with np.errstate(under="ignore"):
        out[pos] = np.exp(-1.0 / s[pos])
    return out


def bump(x):
    """Even smooth cutoff: 1 on |x| <= 1, 0 on |x| >= 2, strictly monotone between.

    Concrete profile: psi(2-|x|) / (psi(2-|x|) + psi(|x|-1)) with
    psi(s) = exp(-1/s) for s > 0, else 0.  The denominator never vanishes, and
    the two psi arguments swap under |x| -> 3 - |x|, so bump(1.5) == 0.5 and
    bump(1+u) + bump(2-u) == 1 on the transition.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    a = np.abs(np.atleast_1d(arr).astype(float))
    hi = _psi(2.0 - a)
    lo = _psi(a - 1.0)
    out = hi / (hi + lo)
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def annular_bump(x):
    """Difference profile bump(x) - bump(2x); supported on 1/2 < |x| < 2."""
    x = np.asarray(x, dtype=float)
    return bump(x) - bump(2.0 * x)


@dataclass(frozen=True)
class TorusGeometry:
    """Dimension and Laplacian weights of a rectangular torus.

    theta_j weights the second derivative in the j-th coordinate; a square
    torus has all theta_j equal to 1.  Normalization keeps theta_j in (0, 1].
    """

    d: int
    theta: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= self.d <= 4:
            raise ValueError(f"dimension must be in 1..4, got {self.d}")
        theta = tuple(float(t) for t in self.theta)
        if len(theta) != self.d:
            raise ValueError(f"need {self.d} weights, got {len(theta)}")
        for t in theta:
            if not 0.0 < t <= 1.0:
                raise ValueError(f"weights must lie in (0, 1], got {t}")
        object.__setattr__(self, "theta", theta)

    @classmethod
    def square(cls, d: int) -> "TorusGeometry":
        return cls(d=d, theta=(1.0,) * d)

    @property
    def theta_max(self) -> float:
        return max(self.theta)


@dataclass
class FrequencyField:
    """Dense Fourier coefficients over the box [-M, M]^d.

    coeffs has shape (2M+1,)*d; axis j index i corresponds to k_j = i - M.
    Instances are value-like: do not mutate coeffs in place.
    """

    geometry: TorusGeometry
    box_radius: int
    coeffs: np.ndarray

    def __post_init__(self):
        M = int(self.box_radius)
        if M < 0:
            raise ValueError("box_radius must be nonnegative")
        self.box_radius = M
        want = (2 * M + 1,) * self.geometry.d
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.shape != want:
            raise ValueError(f"coefficient box must have shape {want}, got {arr.shape}")
        self.coeffs = arr

    @classmethod
    def zeros(cls, geometry: TorusGeometry, box_radius: int) -> "FrequencyField":
        shape = (2 * box_radius + 1,) * geometry.d
        return cls(geometry, box_radius, np.zeros(shape, dtype=np.complex128))

    @classmethod
    def character(cls, geometry, box_radius, k, amplitude=1.0) -> "FrequencyField":
        """Single Fourier mode at lattice point k."""
        f = cls.zeros(geometry, box_radius)
        f.coeffs[f.index_of(k)] = amplitude
        return f

    def index_of(self, k) -> tuple[int, ...]:
        k = np.atleast_1d(np.asarray(k, dtype=int))
        if k.shape != (self.geometry.d,):
            raise ValueError(f"lattice point must have {self.geometry.d} entries")
        if np.any(np.abs(k) > self.box_radius):
            raise BoxTooSmallError(f"lattice point {tuple(k)} outside box radius {self.box_radius}")
        return tuple(int(kj) + self.box_radius for kj in k)

    def k_axis(self) -> np.ndarray:
        return np.arange(-self.box_radius, self.box_radius + 1)

    def with_coeffs(self, coeffs: np.ndarray) -> "FrequencyField":
        return FrequencyField(self.geometry, self.box_radius, coeffs)


def _axis_profile(k: np.ndarray, N: int, mode: str) -> np.ndarray:
    """1-d Littlewood-Paley cutoff at the float frequencies k."""
    if mode == "leq":
        return bump(k / N)
    if mode == "band":
        return annular_bump(k / N)
    raise ValueError(f"mode must be 'leq' or 'band', got {mode!r}")


def project(f: FrequencyField, N: int, mode: str) -> FrequencyField:
    """Apply the smooth frequency projector coefficientwise.

    Requires box_radius >= 2N so the multiplier's support fits in the box.
    """
    require_dyadic(N)
    if f.box_radius < 2 * N:
        raise BoxTooSmallError(
            f"projector at scale {N} needs box_radius >= {2 * N}, field has {f.box_radius}"
        )
    k = np.arange(-f.box_radius, f.box_radius + 1, dtype=float)
    axes = [_axis_profile(k, N, mode)] * f.geometry.d
    weights = reduce(np.multiply.outer, axes)
    return f.with_coeffs(f.coeffs * weights)


def synthesize(f: FrequencyField, x) -> complex:
    """Evaluate the Fourier sum at one point by direct summation (reference path)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (f.geometry.d,):
        raise ValueError(f"point must have {f.geometry.d} coordinates")
    ks = f.k_axis()
    out = f.coeffs
    for j in range(f.geometry.d):
        phases = np.exp(2j * np.pi * ks * x[j])
        out = np.tensordot(phases, out, axes=(0, 0))
    return complex(out)


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


def _modulus_power(vals: np.ndarray, r: float) -> np.ndarray:
    """|vals|^r from the squared modulus; binary powering when r/2 is an integer."""
    abs2 = vals.real**2 + vals.imag**2
    m = r / 2.0
    if m < 1 or not float(m).is_integer():
        return abs2**m
    m = int(m)
    out = None
    while True:
        if m & 1:
            out = abs2 if out is None else out * abs2
        m >>= 1
        if not m:
            return out
        abs2 = abs2 * abs2


def _h1_rows(power: np.ndarray, d: int, M: int) -> np.ndarray:
    """Isotropic H1 norm sqrt(sum_k (1 + |k|^2) |c_k|^2) of each row of |c|^2 over the box
    [-M, M]^d; sobolev_norm(., 1) is its one-row case."""
    weights = 1.0 + _dispersion_symbol(TorusGeometry.square(d), M).ravel()
    return np.sqrt(np.sum(weights * power, axis=1))


def sobolev_norm(f: FrequencyField, s) -> float:
    """H^s norm with isotropic weight (1+|k|^2)^s; only s in {0, 1} is supported."""
    if s not in (0, 1, 0.0, 1.0):
        raise ValueError(f"only s in {{0, 1}} is supported, got {s}")
    power = np.abs(f.coeffs) ** 2
    if s:
        return float(_h1_rows(power.reshape(1, -1), f.geometry.d, f.box_radius)[0])
    return float(np.sqrt(np.sum(power)))
