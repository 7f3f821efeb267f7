"""Rational approximation, Farey atoms, dyadic divisor counts, and major arcs.

Conventions used throughout: (a, q) denotes gcd, so (a, q) = 1 means reduced
and (0, q) = q forces a = 0 to pair only with q = 1.  "q ~ Q" means
Q <= q < 2Q with Q a power of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import TorusGeometry, require_dyadic
from .errors import BudgetExceededError


@dataclass(frozen=True)
class RationalApprox:
    """Reduced fraction a/q certified against beta at level N.

    Certificate: 1 <= q < N, 0 <= a <= q, gcd(a, q) = 1 and
    |q*beta - a| <= 1/N, that is |beta - a/q| <= 1/(N*q).
    """

    a: int
    q: int
    beta: float
    N: int

    def __post_init__(self):
        if not (1 <= self.q < self.N):
            raise ValueError(f"need 1 <= q < N, got q={self.q}, N={self.N}")
        if not (0 <= self.a <= self.q):
            raise ValueError(f"need 0 <= a <= q, got a={self.a}, q={self.q}")
        if math.gcd(self.a, self.q) != 1:
            raise ValueError(f"(a, q) = {math.gcd(self.a, self.q)} != 1 for a={self.a}, q={self.q}")
        if not self.gap <= 1.0 / self.N:
            raise ValueError(f"certificate violated: |{self.q} * {self.beta} - {self.a}| > 1/N")

    @property
    def value(self) -> float:
        return self.a / self.q

    @property
    def error(self) -> float:
        return abs(self.beta - self.a / self.q)

    @property
    def gap(self) -> float:
        """|q*beta - a|, the quantity the certificate bounds by 1/N."""
        return _gap(self.a, self.q, self.beta)


def _gap(a, q, beta):
    """|q*beta - a|; every certificate and arc witness is the test _gap <= tol."""
    return abs(q * beta - a)


def _first_convergent(beta: float, qmax: int, tol: float) -> tuple[int, int]:
    """First convergent a/q of beta with q <= qmax and |q*beta - a| <= tol, or (0, 0).

    By the best-approximation property of convergents (Khinchin, Continued
    Fractions, section 6) its q is the smallest q <= qmax that any integer a
    lets pass the test.  Each partial quotient comes from freshly computed
    gaps, so rounding does not accumulate; it is at least 1 so that the walk
    cannot stall on a rounded 0.
    """
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    a, q, a_prev, q_prev, gap_prev = math.floor(beta), 1, 1, 0, 1.0
    while q <= qmax:
        gap = _gap(a, q, beta)
        if gap <= tol:
            return a, q
        step = max(math.floor(gap_prev / gap), 1)
        a, q, a_prev, q_prev, gap_prev = step * a + a_prev, step * q + q_prev, a, q, gap
    return 0, 0


def _first_convergents(betas, qmax: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """_first_convergent over an array, as integer arrays (a, q) shaped like betas.

    The same steps in float64 (exact for these integers).  Scalar queries keep
    the Python walk: on one beta, numpy's per-call overhead exceeds the walk.
    """
    x = np.asarray(betas, dtype=float)
    shape, x = x.shape, x.ravel()
    if not np.isfinite(x).all():
        raise ValueError("beta must be finite")
    out = np.zeros((2, x.size), dtype=np.int64)
    idx = np.arange(x.size)
    # rows (a, q) of the current and the previous convergent
    cur = np.stack([np.floor(x), np.ones(x.size)])
    prev = np.stack([np.ones(x.size), np.zeros(x.size)])
    gap_prev = prev[0]
    while idx.size:
        gap = _gap(cur[0], cur[1], x)
        small = cur[1] <= qmax
        hit = (gap <= tol) & small
        found = np.flatnonzero(hit)
        out[:, idx.take(found)] = cur.take(found, axis=1)
        keep = np.flatnonzero(small ^ hit)
        idx, x, cur, prev, gap, gap_prev = (
            v.take(keep, axis=-1) for v in (idx, x, cur, prev, gap, gap_prev)
        )
        step = np.maximum(np.floor(gap_prev / gap), 1.0)
        cur, prev, gap_prev = step * cur + prev, cur, gap
    return out[0].reshape(shape), out[1].reshape(shape)


def _certificate_bounds(N: int) -> tuple[int, float]:
    """(qmax, tol) of the level-N certificate walk: q < N and |q*beta - a| <= 1/N."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    return int(N) - 1, 1.0 / N


def dirichlet_approx(beta: float, N: int) -> RationalApprox:
    """Best rational approximation certificate at level N.

    The certified pair (see RationalApprox) with the smallest denominator, and
    the smaller numerator on the one tie (beta = 1/2 at N = 2).  Dirichlet's
    theorem guarantees one for every finite beta; inputs outside [0, 1] are
    reduced mod 1 first, and a non-finite beta raises ValueError.
    """
    N = int(N)
    b = float(beta)
    if not 0.0 <= b <= 1.0:
        b = b % 1.0
    a, q = _first_convergent(b, *_certificate_bounds(N))
    if not q:
        raise RuntimeError(f"no certified approximation found for beta={beta!r}, N={N}")
    return RationalApprox(a=a, q=q, beta=b, N=N)


def dirichlet_approx_batch(betas: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """dirichlet_approx over betas in [0, 1], as integer arrays (a, q) shaped like betas."""
    a, q = _first_convergents(betas, *_certificate_bounds(N))
    if not q.all():
        raise RuntimeError(f"no certified approximation found at N={N}")
    return a, q


def farey_atoms(Q: int) -> list[Fraction]:
    """Sorted reduced fractions a/q with q ~ Q and 0 <= a < q, as points of the circle.

    Q = 1 yields the single point 0 (the pair a=0, q=1).
    """
    require_dyadic(Q, "Q")
    atoms = [
        Fraction(a, q)
        for q in range(Q, 2 * Q)
        for a in range(q)
        if math.gcd(a, q) == 1
    ]
    return sorted(atoms)


def farey_atoms_float(Q: int) -> np.ndarray:
    return np.array([float(x) for x in farey_atoms(Q)])


def divisor_count_dyadic(n: int, Q: int) -> int:
    """Number of divisors q of n with Q <= q < 2Q, by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    require_dyadic(Q, "Q")
    count = 0
    root = math.isqrt(n)
    for dv in range(1, root + 1):
        if n % dv:
            continue
        other = n // dv
        if Q <= dv < 2 * Q:
            count += 1
        if other != dv and Q <= other < 2 * Q:
            count += 1
    return count


def f2_hat(omega: int, Q: int) -> int:
    """Sum of q over divisors q ~ Q of omega; every q divides omega = 0.

    Equals the exponential sum sum_{q~Q} sum_{a=0}^{q-1} e^{2 pi i a omega / q}.
    """
    require_dyadic(Q, "Q")
    w = abs(int(omega))
    if w == 0:
        return sum(range(Q, 2 * Q))
    return sum(q for q in range(Q, 2 * Q) if w % q == 0)


def divisor_tail_count(R: int, Q: int, D: float, budget: int = 10**8) -> int:
    """Exact count of 1 <= n <= R with more than D divisors in the dyadic window.

    Enumerates by sieving multiples of each q ~ Q; guarded by a cell budget.
    """
    if R < 1:
        raise ValueError(f"need R >= 1, got {R}")
    require_dyadic(Q, "Q")
    if R > budget:
        raise BudgetExceededError(f"R={R} exceeds the enumeration budget {budget}")
    counts = np.zeros(R + 1, dtype=np.int32)
    for q in range(Q, 2 * Q):
        counts[q::q] += 1
    return int(np.count_nonzero(counts[1:] > D))


@dataclass(frozen=True)
class MajorArcParams:
    """Arc width/denominator budget: q <= N^(2 sigma) and q N^2 |theta t - a/q| <= N^(2 sigma)."""

    sigma: float
    N: int

    def __post_init__(self):
        if not 0.0 < self.sigma < 0.5:
            raise ValueError(f"sigma must lie in (0, 1/2), got {self.sigma}")
        require_dyadic(self.N)
        if self.N < 2:
            raise ValueError(f"need N >= 2, got N={self.N}")

    @property
    def threshold(self) -> float:
        return float(self.N) ** (2.0 * self.sigma)


def _arc_bounds(params: MajorArcParams) -> tuple[int, float]:
    """(qmax, tol) of the arc walk: q <= N^(2 sigma) and |q*x - a| <= N^(2 sigma) / N^2."""
    thr = params.threshold
    return math.floor(thr), thr / float(params.N) ** 2


def in_major_arc(
    t: float, params: MajorArcParams, geometry: TorusGeometry
) -> tuple[bool, tuple[int, int, int] | None]:
    """Major-arc membership of a time, with a witness (j, a, q) when inside.

    t is inside when some coordinate j has q <= N^(2 sigma) and an integer a
    with q N^2 |x - a/q| <= N^(2 sigma), where x = theta_j t mod 1.  The
    witness is the first such j (1-based) with its smallest such q.
    """
    qmax, tol = _arc_bounds(params)
    for j, theta in enumerate(geometry.theta, start=1):
        a, q = _first_convergent((theta * t) % 1.0, qmax, tol)
        if q:
            return True, (j, a, q)
    return False, None


def major_arc_mask(
    ts: np.ndarray, params: MajorArcParams, geometry: TorusGeometry
) -> np.ndarray:
    """Vectorized major-arc membership over a time grid; equals in_major_arc pointwise."""
    ts = np.asarray(ts, dtype=float)
    qmax, tol = _arc_bounds(params)
    mask = np.zeros(ts.shape, dtype=bool)
    for theta in geometry.theta:
        mask |= _first_convergents((theta * ts) % 1.0, qmax, tol)[1] > 0
    return mask
