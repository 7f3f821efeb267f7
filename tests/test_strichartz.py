"""Mixed space-time norms, scaling sweeps, and bilinear product ratios."""

import numpy as np
import pytest

from toruslab.core import FrequencyField, TorusGeometry, sobolev_norm
from toruslab.propagator import SpaceTimeGrid, sample_spacetime
from toruslab.strichartz import (
    band_axis_coeffs,
    bilinear_ratio,
    bilinear_ratio_tensor,
    evolved_lp_norm,
    exponent_sweep,
    fit_scaling,
    spacetime_lp_norm,
    strichartz_ratio,
    sweep_data,
    tensor_field,
)

from test_core import random_field

IRRATIONAL = 0.7071067811865476


class TestSpacetimeLpNorm:
    def test_constant_samples(self):
        samples = np.ones((5, 8, 8), dtype=complex)
        for p, r in ((2, 2), (4, 6), (np.inf, 2), (3, np.inf)):
            assert spacetime_lp_norm(samples, p, r) == pytest.approx(1.0)

    def test_unimodular_character_evolution(self):
        g = TorusGeometry(1, (IRRATIONAL,))
        f = FrequencyField.character(g, 2, (1,))
        samples = sample_spacetime(f, SpaceTimeGrid(n_t=16, n_x=16))
        assert spacetime_lp_norm(samples, 8, 8) == pytest.approx(1.0, abs=1e-12)

    def test_l2_matches_data_norm(self):
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        f = random_field(g, 3, seed=0)
        samples = sample_spacetime(f, SpaceTimeGrid(n_t=50, n_x=16))
        assert spacetime_lp_norm(samples, 2, 2) == pytest.approx(sobolev_norm(f, 0), rel=1e-6)

    def test_holder_monotone(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((10, 12)) + 1j * rng.standard_normal((10, 12))
        ps = [1, 2, 4, 8, 16, np.inf]
        vals = [spacetime_lp_norm(samples, p, p) for p in ps]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_nonfinite(self):
        bad = np.ones((2, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            spacetime_lp_norm(bad, 2, 2)

    def test_streaming_matches_materialized(self):
        g = TorusGeometry(1, (IRRATIONAL,))
        f = random_field(g, 4, seed=2)
        n_t, n_x = 40, 32
        samples = sample_spacetime(f, SpaceTimeGrid(n_t=n_t, n_x=n_x))
        for p, r in ((4, 4), (6, 2), (np.inf, 4)):
            assert evolved_lp_norm(f, p, r, n_t, n_x) == pytest.approx(
                spacetime_lp_norm(samples, p, r), rel=1e-12
            )


class TestStrichartzRatio:
    def test_character_closed_form(self):
        g = TorusGeometry.square(1)
        for N in (4, 8, 16):
            f = sweep_data("character", N, g)
            expected = float(N) ** (-(0.5 - 3.0 / 8.0))
            assert strichartz_ratio(f, N, 8.0, g) == pytest.approx(expected, rel=1e-9)

    def test_rejects_critical_exponent(self):
        g = TorusGeometry.square(2)
        f = sweep_data("character", 4, g)
        with pytest.raises(ValueError):
            strichartz_ratio(f, 4, 4.0, g)  # 2(d+2)/d = 4 in d = 2

    def test_rejects_zero_data(self):
        g = TorusGeometry.square(1)
        f = FrequencyField.zeros(g, 4)
        with pytest.raises(ValueError):
            strichartz_ratio(f, 4, 8.0, g)


class TestExponentSweep:
    def test_character_slope_zero(self):
        g = TorusGeometry.square(1)
        fit = exponent_sweep("character", 8.0, [8, 16, 32, 64], g)
        assert abs(fit.slope) <= 1e-9

    def test_flat_slope_below_theory(self):
        g = TorusGeometry.square(1)
        fit = exponent_sweep("flat", 8.0, [8, 16, 32, 64], g)
        assert fit.slope <= 0.5 - 3.0 / 8.0 + 0.05
        assert fit.slope > 0.0  # flat data does grow

    def test_flat_large_p_slope_near_sup_scaling(self):
        # p = 64 proxies the sup norm; the measured exponent tracks the
        # d/2 - (d+2)/p value (the sup itself scales like N^(d/2))
        g = TorusGeometry.square(1)
        fit = exponent_sweep("flat", 64.0, [8, 16, 32, 64], g)
        assert fit.slope == pytest.approx(0.5 - 3.0 / 64.0, abs=0.05)

    def test_gaussian_seeded_reproducible(self):
        g = TorusGeometry.square(1)
        f1 = exponent_sweep("random_gaussian", 8.0, [4, 8, 16, 32], g, seed=5)
        f2 = exponent_sweep("random_gaussian", 8.0, [4, 8, 16, 32], g, seed=5)
        assert f1.norms == f2.norms

    def test_threads_do_not_change_results(self):
        g = TorusGeometry.square(1)
        f1 = exponent_sweep("flat", 8.0, [4, 8, 16, 32], g, threads=1)
        f2 = exponent_sweep("flat", 8.0, [4, 8, 16, 32], g, threads=2)
        assert f1.norms == f2.norms

    def test_needs_four_points(self):
        g = TorusGeometry.square(1)
        with pytest.raises(ValueError):
            exponent_sweep("flat", 8.0, [8, 16, 32], g)

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            fit_scaling([8, 4, 16, 32], [1, 1, 1, 1], 8.0, 0.1)


class TestGalileiCovariance:
    def test_modulation_invariance_d1(self):
        # shifting all data frequencies by k0 translates |u| in space, so all
        # space-time norms are unchanged up to quadrature error
        g = TorusGeometry.square(1)
        M, k0 = 25, 7
        k = np.arange(-M, M + 1)
        profile = np.exp(-((k / 5.0) ** 2)) * (1.0 + 0.3j)
        base = FrequencyField(g, M, profile.astype(complex))
        shifted_coeffs = np.zeros_like(base.coeffs)
        for i, kk in enumerate(k):
            if abs(kk + k0) <= M:
                shifted_coeffs[kk + k0 + M] = base.coeffs[i]
        shifted = base.with_coeffs(shifted_coeffs)
        n_t, n_x = 4096, 256
        for p in (4.0, 6.0):
            a = evolved_lp_norm(base, p, p, n_t, n_x)
            b = evolved_lp_norm(shifted, p, p, n_t, n_x)
            assert abs(a - b) <= 1e-6


class TestBilinearRatio:
    def geometry(self):
        return TorusGeometry.square(3)

    def test_constant_low_factor_gives_sqrt_horizon(self):
        g = self.geometry()
        axes_f = [band_axis_coeffs("flat", 4) for _ in range(3)]
        const = [np.array([0, 1, 0], dtype=complex) for _ in range(3)]
        for T in (1.0, 0.25):
            ratio = bilinear_ratio_tensor(axes_f, 4, const, 1, g, horizon=T, n_t=512, n_x=24)
            assert ratio == pytest.approx(np.sqrt(T), rel=1e-12)

    def test_character_pair_closed_form(self):
        g = self.geometry()
        cf = [band_axis_coeffs("character", 8) for _ in range(3)]
        ch = [band_axis_coeffs("character", 2) for _ in range(3)]
        for T in (1.0, 0.25):
            ratio = bilinear_ratio_tensor(cf, 8, ch, 2, g, horizon=T, n_t=256, n_x=48)
            assert ratio == pytest.approx(np.sqrt(T) / 2.0 ** ((3 - 2) / 2.0), rel=1e-12)

    def test_tensor_matches_generic(self):
        g = self.geometry()
        axes_f = [band_axis_coeffs("flat", 4) for _ in range(3)]
        axes_h = [band_axis_coeffs("flat", 2) for _ in range(3)]
        for n_x in (24, 7):  # 7 < 2*N1+1 folds the N1 = 4 band in both paths
            rt = bilinear_ratio_tensor(axes_f, 4, axes_h, 2, g, horizon=1.0, n_t=300, n_x=n_x)
            rg = bilinear_ratio(
                tensor_field(axes_f, g), 4, tensor_field(axes_h, g), 2, g,
                horizon=1.0, n_t=300, n_x=n_x,
            )
            assert rt == pytest.approx(rg, rel=1e-12)

    def test_band_mismatch_rejected(self):
        g = self.geometry()
        low = tensor_field([band_axis_coeffs("flat", 2)] * 3, g)
        with pytest.raises(ValueError):
            bilinear_ratio(low, 8, low, 2, g, n_t=16, n_x=24)

    def test_dimension_guard(self):
        g = TorusGeometry.square(2)
        f = tensor_field([band_axis_coeffs("flat", 2)] * 2, g)
        with pytest.raises(ValueError):
            bilinear_ratio(f, 2, f, 2, g, n_t=16, n_x=16)

    def test_ordering_guard(self):
        g = self.geometry()
        f = tensor_field([band_axis_coeffs("flat", 2)] * 3, g)
        h = tensor_field([band_axis_coeffs("flat", 4)] * 3, g)
        with pytest.raises(ValueError):
            bilinear_ratio(f, 2, h, 4, g, n_t=16, n_x=24)
