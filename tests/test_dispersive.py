"""Kernel refocusing envelope, off-arc decay and the sweeps that measure them."""

import cmath
import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from toruslab.arithmetic import MajorArcParams, in_major_arc
from toruslab import dispersive
from toruslab.core import TorusGeometry, bump
from toruslab.dispersive import (
    check_diff_bound,
    check_dispersive,
    dispersive_bound,
    dispersive_bound_batch,
    farey_midpoint_times,
    sweep_time_grid,
)
from toruslab.errors import GridTooCoarseError
from toruslab.propagator import kernel_axis_max_abs

from test_propagator import phase_tolerance

IRRATIONAL = 0.7071067811865476


class TestDispersiveBound:
    def test_refocusing_peak_value(self):
        g = TorusGeometry.square(2)
        assert dispersive_bound(0.0, 8, g) == pytest.approx(64.0)

    def test_half_time(self):
        g = TorusGeometry.square(1)
        assert dispersive_bound(0.5, 8, g) == pytest.approx(8.0 / math.sqrt(2.0))

    def test_time_shift_invariance_square_torus(self):
        g = TorusGeometry.square(1)
        for t in (0.12, 0.43, 0.77):
            assert dispersive_bound(t + 1.0, 8, g) == pytest.approx(
                dispersive_bound(t, 8, g), rel=1e-9
            )

    def test_monotone_in_error(self):
        # at fixed denominator the envelope decreases as the distance to the
        # rational grows; probe inside the q=1 certificate window
        g = TorusGeometry.square(1)
        N = 32
        ts = np.array([1e-5, 5e-5, 2e-4, 5e-4])
        vals = [dispersive_bound(t, N, g) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_positive_everywhere(self):
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        rng = np.random.default_rng(0)
        for t in rng.random(50):
            assert dispersive_bound(t, 16, g) > 0.0


class TestCheckDispersive:
    def test_ratio_at_zero_is_three_to_the_d(self):
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        rep = check_dispersive(8, g, n_t=2000)
        assert rep.fitted_constants["ratio_at_t0"] == pytest.approx(9.0, rel=1e-10)
        assert rep.max_ratio_kernel_vs_bound >= 9.0

    def test_max_dominates_perfect_refocusing(self):
        # the empirical constant is at least the exactly-computable t=0 ratio;
        # its argmax sits at a denominator ~ N refocusing (just outside the
        # thin sigma=0.1 arc set, whose budget is q <= N^(2 sigma) ~ 1)
        g = TorusGeometry.square(1)
        for N in (8, 16):
            rep = check_dispersive(N, g, sigma=0.1)
            assert rep.max_ratio_kernel_vs_bound >= rep.fitted_constants["ratio_at_t0"]
            t_max = rep.fitted_constants["t_at_max"]
            window = [a / q for q in range(1, 2 * N + 1) for a in range(q + 1)]
            assert min(abs(t_max - w) for w in window) <= 2.0 / N**2

    def test_small_stability(self):
        g = TorusGeometry.square(1)
        r8 = check_dispersive(8, g).max_ratio_kernel_vs_bound
        r16 = check_dispersive(16, g).max_ratio_kernel_vs_bound
        assert max(r8, r16) / min(r8, r16) < 2.0

    @pytest.mark.parametrize("name, size", [("n_t", 0), ("n_t", -3), ("n_t", 2.5), ("n_x", 32.5)])
    def test_bad_size_rejected(self, name, size):
        # n_t = 0 divided by zero, -3 swept only the refocusing times and 2.5
        # swept t up to 1.2; every sweep checks its sizes by the norms' rule
        g = TorusGeometry.square(1)
        calls = [
            lambda: check_dispersive(4, g, sigma=0.2, **{name: size}),
            lambda: check_diff_bound(4, 0.2, g, **{name: size}),
        ]
        if name == "n_t":
            calls.append(lambda: sweep_time_grid(4, g, n_t=size))
        for call in calls:
            with pytest.raises(ValueError, match=f"{name} must be a whole number"):
                call()

    def test_integral_float_sizes_come_back_as_ints(self):
        # n_x = 32.0 passed the size check and then raised numpy's TypeError
        # from a grid shape: the sweeps now use the ints the check returns
        g = TorusGeometry.square(1)
        want = check_dispersive(4, g, n_t=64, n_x=32)
        for sizes in ({"n_x": 32.0}, {"n_t": 64.0, "n_x": 32.0}):
            got = check_dispersive(4, g, **{"n_t": 64, **sizes})
            assert got.grid == want.grid
            assert got.to_json_dict() == want.to_json_dict()
            for a, b in zip(got.sweep, want.sweep):
                assert np.array_equal(a, b)

    def test_coarse_space_grid_stays_a_grid_error(self):
        with pytest.raises(GridTooCoarseError):
            check_dispersive(4, TorusGeometry.square(1), n_x=16)


def gauss_sum(a: int, l: int, q: int) -> complex:
    """G(a, l; q) = sum_b e((-a b^2 + l b)/q), each phase reduced exactly mod q."""
    return sum(cmath.exp(2j * math.pi * ((-a * b * b + l * b) % q) / q) for b in range(q))


def refocusing_fractions(qmax: int = 16) -> list[tuple[int, int]]:
    """Every reduced a/q in [0, 1) with q <= qmax."""
    return [(a, q) for q in range(1, qmax + 1) for a in range(q) if math.gcd(a, q) == 1]


@functools.lru_cache(maxsize=None)
def difference_norms(N: int, order: int = 10) -> tuple[float, ...]:
    """||Delta^s w||_1 for s = 0..order of the float weights w_k = bump(k/N), differenced exactly."""
    k = np.arange(-2 * N - order, 2 * N + order + 1)
    w = [Fraction(float(v)) for v in bump(k / N)]
    norms = []
    for _ in range(order + 1):
        norms.append(float(sum(abs(v) for v in w)))
        w = [b - a for a, b in zip(w, w[1:])]
    return tuple(norms)


def gauss_sum_slack(N: int, q: int) -> tuple[float, float]:
    """Relative slack (above, below) of max_x |K_N(a/q, x)| against (3N/q) max_l |G(a, l; q)|.

    Expanding the q-periodic e(-a k^2/q) in its discrete Fourier series gives,
    exactly, K(a/q, x) = (1/q) sum_l G(a, l; q) K_0(x - l/q), where
    K_0 = K(0, .) = sum_k w_k e(k .) is real, even and at most sum_k w_k = 3N.
    Summing by parts s times, |K_0(y)| <= ||Delta^s w||_1 / (2 sin(pi |y|))^s.
    Seen from any x, the i-th nearest of the other peaks l/q is at least
    (2 ceil(i/2) - 1)/(2q) away (above); at a peak on the grid the others sit
    at j/q (below).  Both depend on N and q alone, and fall fast in N/q.
    """
    norms = difference_norms(N)

    def k0_bound(y):
        base = 2.0 * math.sin(math.pi * min(y, 1.0 - y))
        return min(v / base**s for s, v in enumerate(norms))

    above = sum(k0_bound((2 * ((i + 1) // 2) - 1) / (2 * q)) for i in range(1, q))
    below = sum(k0_bound(j / q) for j in range(1, q))
    return above / (3 * N), below / (3 * N)


class TestGaussSumOracle:
    """At t = a/q the kernel is a Gauss sum times the t = 0 kernel (ROADMAP item 4)."""

    @pytest.mark.parametrize("q", range(1, 17))
    def test_gauss_sum_maximum(self, q):
        # max_l |G(a, l; q)| is sqrt(q) for odd q and sqrt(2q) for even q,
        # attained at x = l/q in {0, 1/2}, which every even grid holds
        for a in (a for a in range(q) if math.gcd(a, q) == 1):
            mags = [abs(gauss_sum(a, l, q)) for l in range(q)]
            want = math.sqrt(q if q % 2 else 2 * q)
            assert max(mags) == pytest.approx(want, rel=1e-12)
            assert any(abs(m - want) <= 1e-12 * want and (2 * l) % q == 0 for l, m in enumerate(mags))

    @pytest.mark.parametrize("N", [64, 256])
    def test_slice_maxima(self, N):
        fracs = refocusing_fractions()
        ts = np.array([a / q for a, q in fracs])
        got = kernel_axis_max_abs(ts, N, 1.0, 8 * N)
        for (a, q), m in zip(fracs, got):
            above, below = gauss_sum_slack(N, q)
            rel = m / (3.0 * N / q * math.sqrt(q if q % 2 else 2 * q)) - 1.0
            assert -below - phase_tolerance(N) <= rel <= above + phase_tolerance(N), (a, q, rel)
        # the slack is tight enough that a factor sqrt(2) or a wrong scale fails at once
        assert max(gauss_sum_slack(N, 16)) < (0.03 if N == 64 else 1e-4)

    @pytest.mark.parametrize("d", [1, 2])
    def test_envelope_at_refocusing_times(self, d):
        # the level-64 certificate of a/q (q <= 16 < 64) is a/q itself, so the
        # envelope is (N / sqrt(q))^d with no distance term
        g, N = TorusGeometry.square(d), 64
        fracs = refocusing_fractions()
        bounds = dispersive_bound_batch(np.array([a / q for a, q in fracs]), N, g)
        for (a, q), b in zip(fracs, bounds):
            assert b == pytest.approx((N / math.sqrt(q)) ** d, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    def test_check_dispersive_ratio(self, d):
        # the swept ratio at a/q tends to 3 (odd q) or 3 sqrt(2) (even q) per coordinate
        N = 64
        rep = check_dispersive(N, TorusGeometry.square(d), n_t=256)
        ts, kmax, bounds = rep.sweep
        for a, q in refocusing_fractions():
            i = int(np.searchsorted(ts, a / q))
            assert ts[i] == a / q
            above, below = gauss_sum_slack(N, q)
            eps = phase_tolerance(N)
            want = (3.0 * math.sqrt(1 if q % 2 else 2)) ** d
            ratio = kmax[i] / bounds[i]
            assert want * (1 - below - eps) ** d <= ratio <= want * (1 + above + eps) ** d, (a, q)


class TestSharedSweep:
    """check_dispersive's off-arc fields come from the same sweep as its ratio."""

    @staticmethod
    def offarc_fields(rep):
        fc = rep.fitted_constants
        return (rep.sup_offarc_kernel, fc["offarc_fraction"], fc["offarc_degenerate"], fc["t_at_offarc_sup"])

    @pytest.mark.parametrize("sigma", [0.1, 0.45])
    @pytest.mark.parametrize(
        "geometry",
        [TorusGeometry.square(1), TorusGeometry(1, (IRRATIONAL,)), TorusGeometry(2, (1.0, IRRATIONAL))],
        ids=["d1-square", "d1-irrational", "d2"],
    )
    def test_matches_check_diff_bound(self, geometry, sigma):
        rep = check_dispersive(8, geometry, sigma=sigma)
        diff = check_diff_bound(8, sigma, geometry)
        assert not diff.degenerate
        assert self.offarc_fields(rep) == (diff.constant, diff.offarc_fraction, False, diff.t_at_sup)

    def test_degenerate_matches(self):
        g = TorusGeometry(2, (1.0, 0.5))
        rep = check_dispersive(2, g, sigma=0.49, n_t=512)
        diff = check_diff_bound(2, 0.49, g, n_t=512)
        sup, frac, degenerate, t_sup = self.offarc_fields(rep)
        assert diff.degenerate and degenerate
        assert frac == diff.offarc_fraction == 0.0
        assert np.isnan(sup) and np.isnan(diff.constant)
        assert np.isnan(t_sup) and np.isnan(diff.t_at_sup)
        assert rep.max_ratio_kernel_vs_bound >= 9.0

    @pytest.mark.parametrize("sigma", [0.1, 0.45])
    def test_sweep_arrays_are_the_base_grid_sweep(self, sigma):
        # maxima reused from the off-arc sweep equal a fresh sweep of the base grid
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        rep = check_dispersive(8, g, sigma=sigma, n_t=1000)
        ts, kmax, bounds = rep.sweep
        assert np.array_equal(ts, sweep_time_grid(8, g, n_t=1000))
        assert ts.size == rep.grid["n_t"]
        fresh = kernel_axis_max_abs(ts, 8, 1.0, 64) * kernel_axis_max_abs(ts, 8, IRRATIONAL, 64)
        assert np.array_equal(kmax, fresh)
        assert np.array_equal(bounds, dispersive_bound_batch(ts, 8, g))
        assert np.max(kmax / bounds) == rep.max_ratio_kernel_vs_bound
        assert "sweep" not in rep.to_json_dict()

    @pytest.mark.parametrize(
        "geometry", [TorusGeometry(2, (1.0, IRRATIONAL)), TorusGeometry.square(2)],
        ids=["distinct", "repeated"],
    )
    def test_each_time_swept_once(self, monkeypatch, geometry):
        # the base grid and the Farey midpoints, on the arcs and off them, in
        # one call per distinct weight
        calls = []

        def counting(ts, N, theta, n_x, *args, **kwargs):
            calls.append((theta, ts.copy()))
            return kernel_axis_max_abs(ts, N, theta, n_x, *args, **kwargs)

        monkeypatch.setattr(dispersive, "kernel_axis_max_abs", counting)
        check_dispersive(8, geometry, sigma=0.45, n_t=1000)
        base = sweep_time_grid(8, geometry, n_t=1000)
        union = np.union1d(base, farey_midpoint_times(8, 0.45, geometry))
        assert union.size > base.size
        assert sorted(theta for theta, _ in calls) == sorted(set(geometry.theta))
        for _, ts in calls:
            assert np.array_equal(ts, union)

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 0.7])
    def test_sigma_out_of_range(self, sigma):
        with pytest.raises(ValueError):
            check_dispersive(8, TorusGeometry.square(1), sigma=sigma)


class TestCheckDiffBound:
    def test_basic_run(self):
        g = TorusGeometry.square(1)
        res = check_diff_bound(16, 0.1, g)
        assert not res.degenerate
        assert np.isfinite(res.constant) and res.constant > 0
        assert 0.0 < res.offarc_fraction <= 1.0
        # trivial ceiling: |K| <= 3N pointwise, so constant <= 3 N^sigma
        assert res.constant <= 3.0 * 16**0.1

    def test_sup_is_off_arc(self):
        g = TorusGeometry.square(1)
        res = check_diff_bound(32, 0.1, g)
        inside, _ = in_major_arc(res.t_at_sup, MajorArcParams(sigma=0.1, N=32), g)
        assert not inside

    def test_degenerate_when_arcs_cover_everything(self):
        # two coordinates with sigma near 1/2 at N=2 cover the whole time
        # interval, so there is no off-arc point: reported, not thrown
        g = TorusGeometry(2, (1.0, 0.5))
        res = check_diff_bound(2, 0.49, g, n_t=512)
        assert res.degenerate
        assert np.isnan(res.constant)

    def test_doubling_stability(self):
        g = TorusGeometry.square(1)
        c16 = check_diff_bound(16, 0.1, g).constant
        c32 = check_diff_bound(32, 0.1, g).constant
        assert 0.25 <= c32 / c16 <= 4.0
