"""Kernel refocusing envelope, arc splitting, and the Farey-train form check."""

import math

import numpy as np
import pytest

from toruslab.arithmetic import MajorArcParams, farey_atoms_float, in_major_arc
from toruslab.core import TorusGeometry
from toruslab.dispersive import (
    BilinearFormCheckParams,
    atom_bump_train,
    bilinear_form_check,
    check_diff_bound,
    check_dispersive,
    dispersive_bound,
    dispersive_bound_batch,
    dispersive_rhs,
    kernel_split,
    run_bilinear_draws,
    sweep_time_grid,
)
from toruslab.errors import GridTooCoarseError
from toruslab.propagator import kernel_axis_max_abs, kernel_direct

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

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 0.7])
    def test_sigma_out_of_range(self, sigma):
        with pytest.raises(ValueError):
            check_dispersive(8, TorusGeometry.square(1), sigma=sigma)


class TestKernelSplit:
    def test_zero_time_all_arc(self):
        g = TorusGeometry.square(1)
        tilde, rem = kernel_split(0.0, (0.0,), 8, 0.1, g)
        assert rem == 0.0
        assert tilde == pytest.approx(kernel_direct(0.0, (0.0,), 8, g))

    def test_off_arc_all_remainder(self):
        g = TorusGeometry.square(1)
        params = MajorArcParams(sigma=0.1, N=8)
        t = 0.238731  # generic time, far from small-denominator rationals
        assert not in_major_arc(t, params, g)[0]
        tilde, rem = kernel_split(t, (0.3,), 8, 0.1, g)
        assert tilde == 0.0
        assert rem == pytest.approx(kernel_direct(t, (0.3,), 8, g))

    def test_parts_sum_exactly(self):
        g = TorusGeometry(1, (IRRATIONAL,))
        for t in (0.0, 0.1, 0.31, 0.5):
            tilde, rem = kernel_split(t, (0.2,), 8, 0.1, g)
            assert tilde + rem == kernel_direct(t, (0.2,), 8, g)
            assert tilde * rem == 0.0


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


class TestDispersiveRhs:
    def test_off_arc_vanishes(self):
        # far from every atom at window <= Q_max, all scaled profiles are zero
        g = TorusGeometry.square(1)
        N, Q_max = 16, 2
        t = 0.238731
        atoms = np.concatenate([farey_atoms_float(1), farey_atoms_float(2)])
        width = 2.0 * Q_max / N**2
        assert np.min(np.abs(t - atoms)) > 2.0 * width
        assert dispersive_rhs(t, N, Q_max, g, 4.0) == 0.0

    def test_zero_time_lower_bound(self):
        g = TorusGeometry.square(1)
        for N, r in ((8, 4.0), (16, 3.0)):
            val = dispersive_rhs(0.0, N, 2, g, r)
            assert val >= float(N) ** (g.d - 2.0 * g.d / r) - 1e-12

    def test_r2_counts_windows(self):
        g = TorusGeometry.square(1)
        val = dispersive_rhs(0.0, 8, 4, g, 2.0)
        assert val == pytest.approx(round(val), abs=1e-9)
        assert val >= 1.0

    def test_covers_arc_set(self):
        # on the arc set the dyadic profiles telescope to a full bump: sum >= 1
        g = TorusGeometry(1, (IRRATIONAL,))
        N, sigma = 16, 0.25
        params = MajorArcParams(sigma=sigma, N=N)
        q_max = int(N ** (2 * sigma))
        rng = np.random.default_rng(3)
        hits = 0
        for t in rng.random(200):
            if in_major_arc(t, params, g)[0]:
                hits += 1
                assert dispersive_rhs(t, N, q_max, g, 2.0) >= 1.0 - 1e-12
        assert hits > 0


class TestBilinearFormCheck:
    def params(self, Q=1, T=1.0 / 256, sigma=0.1):
        return BilinearFormCheckParams.from_exponent(
            r0=2.0 / (1.0 - sigma), Q=Q, T_scale=T, sigma=sigma
        )

    def test_recipe_validation(self):
        p = self.params()
        assert p.alpha == pytest.approx((4 - p.r0) / (2 * (p.r0 - 2)))
        assert p.delta == pytest.approx(1.0 / p.alpha)
        with pytest.raises(ValueError):
            BilinearFormCheckParams(r0=2.2222, Q=1, T_scale=0.1, delta=1.0, alpha=1.0, tau=1.0)
        with pytest.raises(ValueError):
            BilinearFormCheckParams.from_exponent(r0=2.05, Q=1, T_scale=0.1, sigma=0.1)

    def test_empty_set_gives_zero(self):
        lhs, rhs = bilinear_form_check([], [(0.0, 0.5)], self.params(), 16384)
        assert lhs == 0.0

    def test_full_circle_single_atom(self):
        # E = F = circle, Q = 1: lhs = integral of the scaled profile = 3T
        T = 1.0 / 64
        lhs, rhs = bilinear_form_check([(0.0, 1.0)], [(0.0, 1.0)], self.params(T=T), 8192)
        assert lhs == pytest.approx(3.0 * T, rel=1e-3)
        assert rhs > 0

    def test_quadrature_guard(self):
        with pytest.raises(GridTooCoarseError):
            bilinear_form_check([(0.0, 1.0)], [(0.0, 1.0)], self.params(T=1.0 / 512), 1024)

    def test_atom_train_sup_at_most_one(self):
        # atoms of the reduced train are separated by > 1/(2Q)^2 > 2T, so the
        # scaled bumps never overlap and the train's sup is 1
        for Q, N in ((1, 16), (2, 16), (4, 32)):
            T = float(N) ** (2 * 0.1 - 2.0) / Q
            xs = np.arange(65536) / 65536.0
            train = atom_bump_train(Q, T, xs)
            assert np.max(train) <= 1.0 + 1e-12

    def test_random_draws_bounded_and_stable(self):
        maxima = []
        for N in (16, 32):
            recs = run_bilinear_draws(N, sigma=0.1, n_draws=300, seed=42)
            assert all(np.isfinite(r["ratio"]) for r in recs)
            maxima.append(max(r["ratio"] for r in recs))
        assert max(maxima) / min(maxima) < 2.5
