"""Space-time L^p norms, scaling sweeps and bilinear ratios, all through one streaming reducer,
checked against full-grid references kept here."""

import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len

from toruslab import strichartz
from toruslab.core import FrequencyField, TorusGeometry, require_dyadic, sobolev_norm
from toruslab.errors import BudgetExceededError
from toruslab.propagator import _auto_chunk, time_sample_count
from toruslab.strichartz import (
    _axis_groups,
    _check_exponent,
    _lp_norm,
    _quadrature_sizes,
    band_axis_coeffs,
    bilinear_ratio_tensor,
    bilinear_table,
    evolved_lp_norm,
    exponent_sweep,
    fit_scaling,
    sweep_data,
)

from test_core import random_field
from test_propagator import sample_grid

IRRATIONAL = 0.7071067811865476


# Full-grid references: the streamed norms and the tensor fast path are
# compared against these, which hold every factor on its whole box.


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


def _band_support_ok(f: FrequencyField, N: int) -> bool:
    """Support containment for 'field at scale N': the dyadic band (or core at N=1)."""
    nz = np.argwhere(np.abs(f.coeffs) > 0)
    if nz.size == 0:
        return False
    ks = np.abs(nz - f.box_radius)
    if N == 1:
        return bool(np.all(ks <= 1))
    return bool(np.all((ks > N // 2) & (ks < 2 * N)))


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

    The generic path: f and h stay whole boxes, so any pair on its dyadic
    bands is accepted (bilinear_ratio_tensor takes tensor products only).  The
    one group [(f, h)] is sized and reduced as every norm is.
    """
    if geometry.d < 3:
        raise ValueError("bilinear check requires d >= 3")
    require_dyadic(N1)
    require_dyadic(N2)
    if not 1 <= N2 <= N1:
        raise ValueError(f"need 1 <= N2 <= N1, got N1={N1}, N2={N2}")
    if f.geometry != geometry or h.geometry != geometry:
        raise ValueError("geometry mismatch")
    if not _band_support_ok(f, N1) or not _band_support_ok(h, N2):
        raise ValueError("band-projection mismatch: data must live on its dyadic band")
    n_t, n_x, _ = _quadrature_sizes([(f, h)], 2, N1, geometry, horizon, n_t, n_x)
    norm = _lp_norm([(f, h)], 2, horizon, n_t, n_x)
    return norm / (float(N2) ** ((geometry.d - 2) / 2.0) * sobolev_norm(f, 0) * sobolev_norm(h, 0))


def tensor_field(axes: list[np.ndarray], geometry: TorusGeometry) -> FrequencyField:
    """Materialize a tensor-product coefficient box from per-axis vectors."""
    coeffs = axes[0]
    for v in axes[1:]:
        coeffs = np.multiply.outer(coeffs, v)
    M = (axes[0].size - 1) // 2
    return FrequencyField(geometry, M, np.asarray(coeffs, dtype=np.complex128))


class TestSpacetimeLpNorm:
    def test_constant_samples(self):
        samples = np.ones((5, 8, 8), dtype=complex)
        for p in (1, 2, 3, 6, np.inf):
            assert spacetime_lp_norm(samples, p) == pytest.approx(1.0)

    def test_unimodular_character_evolution(self):
        g = TorusGeometry(1, (IRRATIONAL,))
        f = FrequencyField.character(g, 2, (1,))
        samples = sample_grid(f, 16, 16)
        assert spacetime_lp_norm(samples, 8) == pytest.approx(1.0, abs=1e-12)

    def test_l2_matches_data_norm(self):
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        f = random_field(g, 3, seed=0)
        samples = sample_grid(f, 50, 16)
        assert spacetime_lp_norm(samples, 2) == pytest.approx(sobolev_norm(f, 0), rel=1e-6)

    def test_holder_monotone(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((10, 12)) + 1j * rng.standard_normal((10, 12))
        ps = [1, 2, 4, 8, 16, np.inf]
        vals = [spacetime_lp_norm(samples, p) for p in ps]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_nonfinite(self):
        bad = np.ones((2, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            spacetime_lp_norm(bad, 2)

    def test_streaming_matches_materialized(self):
        g = TorusGeometry(1, (IRRATIONAL,))
        f = random_field(g, 4, seed=2)
        n_t, n_x = 40, 32
        samples = sample_grid(f, n_t, n_x)
        for p in (1, 4, 6, 7.5, np.inf):
            assert evolved_lp_norm(f, p, n_t=n_t, n_x=n_x) == pytest.approx(
                spacetime_lp_norm(samples, p), rel=1e-12
            )

    def test_folded_stream_stays_small(self):
        # the sizes rule puts the 17^2-mode box on a one-point grid; over 4096
        # times a chunk sized by the grid held all 4096 phased rows (36 MiB)
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        f = sweep_data("character", 8, g)
        n_t, n_x, _ = _quadrature_sizes([(f,)], 4, 8, g, n_t=4096)
        assert (n_t, n_x) == (4096, 1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            norm = evolved_lp_norm(f, 4, n_t=n_t, n_x=n_x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert norm == pytest.approx(1.0, rel=1e-12)
        assert peak < 8 * 2**20

    def test_time_cap_is_guard_abort(self, monkeypatch):
        # bilinear-check --N1 4 --T 1e6 planned 1,024,000,000 times: two 8 GB vectors
        def no_stream(*args, **kwargs):
            pytest.fail("the norm streamed past its time cap")

        monkeypatch.setattr(strichartz, "_stream", no_stream)
        f = FrequencyField.character(TorusGeometry.square(1), 2, (1,))
        with pytest.raises(BudgetExceededError, match="cap"):
            _lp_norm([(f,)], 4, 1.0, strichartz.NORM_TIME_CAP + 1, 8)

    @pytest.mark.parametrize("p", [0, 0.5, -2, np.nan, -np.inf])
    def test_one_exponent_rule(self, p):
        g = TorusGeometry.square(1)
        f = FrequencyField.character(g, 2, (1,))
        with pytest.raises(ValueError, match="exponent"):
            spacetime_lp_norm(np.ones((4, 4)), p)
        with pytest.raises(ValueError, match="exponent"):
            evolved_lp_norm(f, p, n_t=4, n_x=8)
        with pytest.raises(ValueError, match="exponent"):
            exponent_sweep("flat", p, [1, 2, 4, 8], g)


class TestExponentSweep:
    def test_character_slope_zero(self):
        g = TorusGeometry.square(1)
        fit = exponent_sweep("character", 8.0, [8, 16, 32, 64], g)
        assert abs(fit.slope) <= 1e-9

    def test_character_ratio_closed_form(self):
        # a unit character has |u| = 1, so the sweep's ratio column
        # norm / N^(d/2 - (d+2)/p) is N^-(1/2 - 3/8) in d = 1 at p = 8
        g = TorusGeometry.square(1)
        fit = exponent_sweep("character", 8.0, [4, 8, 16, 32], g)
        assert fit.theoretical_exponent == 0.5 - 3.0 / 8.0
        for N, norm in zip(fit.N_list, fit.norms):
            assert norm / N**fit.theoretical_exponent == pytest.approx(N ** -(0.5 - 3.0 / 8.0), rel=1e-9)

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

    def test_needs_four_points(self):
        g = TorusGeometry.square(1)
        with pytest.raises(ValueError):
            exponent_sweep("flat", 8.0, [8, 16, 32], g)

    def test_overflowing_power_names_p(self):
        # |u| peaks at the l1 norm of the coefficients, and that to the 2000th
        # power is past the float range: a usage error naming p, no warning
        g = TorusGeometry.square(1)
        with pytest.raises(ValueError, match="overflow.*p = 2000"):
            exponent_sweep("flat", 2000.0, [1, 2, 4, 8], g)

    @pytest.mark.parametrize("N_list", [[32, 8, 4, 2], [2, 4, 8, 12], [4, 4, 8, 16]])
    def test_scales_checked_before_any_norm(self, N_list, monkeypatch):
        def no_norm(*args, **kwargs):
            raise AssertionError("a norm was computed before the scales were checked")

        monkeypatch.setattr(strichartz, "evolved_lp_norm", no_norm)
        with pytest.raises(ValueError, match="increasing|power of two"):
            exponent_sweep("flat", 4.0, N_list, TorusGeometry.square(1))

    def test_bilinear_scales_checked_before_any_ratio(self, monkeypatch):
        def no_ratio(*args, **kwargs):
            raise AssertionError("a ratio was computed before the scales were checked")

        monkeypatch.setattr(strichartz, "bilinear_ratio_tensor", no_ratio)
        with pytest.raises(ValueError, match="N1 must be a power of two"):
            bilinear_table([32, 3], [1.0], TorusGeometry.square(3))

    def test_spread_zero_sweep_takes_one_time(self):
        # a character has |u| = 1 at every time, on any torus: one time is exact
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        fit = exponent_sweep("character", 4.0, [2, 4, 8, 16], g)
        assert all((q["n_t"], q["n_x"], q["exact"]) == (1, 1, True) for q in fit.quadrature)
        assert fit.norms == pytest.approx([1.0] * 4, rel=1e-15)

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            fit_scaling([8, 4, 16, 32], [1, 1, 1, 1], 8.0, 0.1)

    def test_fit_checks_scales_as_the_sweep_does(self):
        # ScalingFit reads the sweep's scale rule (_check_scales): three scales
        # used to fit a line with no error
        with pytest.raises(ValueError, match="at least 4"):
            fit_scaling([2, 4, 8], [1.0, 2.0, 3.0], 8.0, 0.1)
        with pytest.raises(ValueError, match="power of two"):
            fit_scaling([2, 4, 8, 12], [1, 1, 1, 1], 8.0, 0.1)


def _resonant_l6(c: np.ndarray) -> float:
    """||u||_{L^6_{t,x}}^6 on the square 1-torus by brute force over 6-tuples.

    Only resonant tuples survive the space-time mean: k1+k2+k3 = k4+k5+k6 and
    k1^2+k2^2+k3^2 = k4^2+k5^2+k6^2.
    """
    N = (c.size - 1) // 2
    triples = list(itertools.product(range(-N, N + 1), repeat=3))
    lin = np.array([sum(t) for t in triples])
    quad = np.array([sum(k * k for k in t) for t in triples])
    amp = np.array([c[t[0] + N] * c[t[1] + N] * c[t[2] + N] for t in triples])
    resonant = (lin[:, None] == lin[None, :]) & (quad[:, None] == quad[None, :])
    terms = (amp[:, None] * np.conj(amp)[None, :])[resonant]
    return math.fsum(terms.real)


def _resolution_rule_cells(N: int, geometry: TorusGeometry) -> int:
    """Cells of the resolution rule: 16 samples per fastest period, n_x = 8N or 4N."""
    n_x = 8 * N if geometry.d == 1 else 4 * N
    return time_sample_count(N, geometry) * n_x**geometry.d


class TestQuadratureSizes:
    def test_l4_lattice_identity_d1(self):
        # ||u||_{L^4_{t,x}}^4 = 2||c||_2^4 - ||c||_4^4 on the square 1-torus
        g = TorusGeometry.square(1)
        fit = exponent_sweep("random_gaussian", 4.0, [4, 8, 16, 32], g, seed=11)
        assert all(q["exact"] for q in fit.quadrature)
        for N, norm in zip(fit.N_list, fit.norms):
            c = sweep_data("random_gaussian", N, g, seed=11).coeffs
            exact = 2.0 * np.sum(np.abs(c) ** 2) ** 2 - np.sum(np.abs(c) ** 4)
            assert norm**4 == pytest.approx(exact, rel=1e-13)

    def test_l6_resonant_tuples_d1(self):
        g = TorusGeometry.square(1)
        for N in (1, 2, 4):
            f = sweep_data("random_gaussian", N, g, seed=3)
            n_t, n_x, exact = _quadrature_sizes([(f,)], 6, N, g)
            assert exact and n_t == 3 * N * N + 1 and n_x >= 6 * N + 1
            value = evolved_lp_norm(f, 6, n_t=n_t, n_x=n_x) ** 6
            assert value == pytest.approx(_resonant_l6(f.coeffs), rel=1e-13)

    def test_d2_flat_p6_matches_finer_grid(self):
        # the resolution rule's n_x = 4N aliases |u|^6 here: 2.3% high at N=4
        g = TorusGeometry.square(2)
        fit = exponent_sweep("flat", 6.0, [1, 2, 4, 8], g)
        for N, norm, q in zip(fit.N_list, fit.norms, fit.quadrature):
            if N < 4:
                continue
            assert q["exact"]
            fine = evolved_lp_norm(sweep_data("flat", N, g), 6, n_t=4 * q["n_t"], n_x=4 * q["n_x"])
            assert norm == pytest.approx(fine, rel=1e-13)

    def test_bilinear_default_matches_finer_grid(self):
        g = TorusGeometry.square(3)
        rng = np.random.default_rng(4)
        axes_f = [band_axis_coeffs("random", 8, rng) for _ in range(3)]
        axes_h = [band_axis_coeffs("random", 4, rng) for _ in range(3)]
        n_t, n_x, exact = _quadrature_sizes(_axis_groups(axes_f, axes_h, g), 2, 8, g)
        assert exact and n_x >= 2 * (8 + 4) + 1
        ratio = bilinear_ratio_tensor(axes_f, 8, axes_h, 4, g)
        fine = bilinear_ratio_tensor(axes_f, 8, axes_h, 4, g, n_t=4 * n_t, n_x=4 * n_x)
        assert ratio == pytest.approx(fine, rel=1e-13)

    def test_inexact_cases_flagged(self):
        f1 = sweep_data("flat", 8, TorusGeometry.square(1))
        irrational = TorusGeometry(1, (IRRATIONAL,))
        f_irr = sweep_data("flat", 8, irrational)
        assert _quadrature_sizes([(f1,)], 8, 8, TorusGeometry.square(1))[2]
        assert not _quadrature_sizes([(f_irr,)], 8, 8, irrational)[2]
        for p in (5.0, 7.0, 6.5, np.inf, 64.0):
            assert not _quadrature_sizes([(f1,)], p, 8, TorusGeometry.square(1))[2]
        g3 = TorusGeometry.square(3)
        axes = [band_axis_coeffs("flat", 4) for _ in range(3)]
        groups = _axis_groups(axes, axes, g3)
        assert _quadrature_sizes(groups, 2, 4, g3, horizon=1.0)[2]
        for T in (0.25, 0.999):
            assert not _quadrature_sizes(groups, 2, 4, g3, horizon=T)[2]

    def test_p64_keeps_resolution_rule(self):
        g = TorusGeometry.square(1)
        f = sweep_data("flat", 8, g)
        assert _quadrature_sizes([(f,)], 64, 8, g) == (
            time_sample_count(8, g), 64, False
        )

    def test_huge_even_p_is_not_rounded(self, monkeypatch):
        # at p = 1e20 the band-exact n_x is far over the cap; rounding it up to a
        # fast length first would count up one integer at a time and never end
        g = TorusGeometry.square(1)
        f = sweep_data("flat", 8, g)
        fast_len = strichartz._next_fast_len

        def bounded(target):
            if target > 8 * 8:
                raise AssertionError(f"rounded n_x = {target} over the resolution rule's")
            return fast_len(target)

        monkeypatch.setattr(strichartz, "_next_fast_len", bounded)
        assert _quadrature_sizes([(f,)], 1e20, 8, g) == (
            time_sample_count(8, g), 64, False
        )

    def test_explicit_sizes_win_and_are_judged(self):
        g = TorusGeometry.square(1)
        f = sweep_data("flat", 8, g)  # p = 8: band 8N = 64 per axis, spread 4N^2 = 256 in t
        groups = [(f,)]
        assert _quadrature_sizes(groups, 8, 8, g, n_t=257, n_x=65) == (257, 65, True)
        assert _quadrature_sizes(groups, 8, 8, g, n_t=256, n_x=65) == (256, 65, False)
        assert _quadrature_sizes(groups, 8, 8, g, n_t=257, n_x=64) == (257, 64, False)
        assert _quadrature_sizes(groups, 8, 8, g, n_x=64)[1:] == (64, False)

    def test_never_more_cells_than_resolution_rule(self):
        for d in (1, 2, 3):
            for theta in ((1.0,) * d, (IRRATIONAL,) * d):
                g = TorusGeometry(d, theta)
                for N in (1, 2, 4, 8, 16):
                    for cls in ("character", "flat", "random_gaussian"):
                        groups = [(sweep_data(cls, N, g, seed=1),)]
                        for p in (4.0, 6.0, 8.0, 10.0, 64.0, 5.0, 6.5):
                            n_t, n_x, _ = _quadrature_sizes(groups, p, N, g)
                            assert n_t * n_x**d <= _resolution_rule_cells(N, g), (d, N, cls, p)
        g3 = TorusGeometry.square(3)
        for N1 in (1, 2, 4, 8, 16, 32):
            for N2 in (n for n in (1, 2, 4, 8, 16, 32) if n <= N1):
                axes_f, axes_h = [band_axis_coeffs("flat", N1)] * 3, [band_axis_coeffs("flat", N2)] * 3
                groups = _axis_groups(axes_f, axes_h, g3)
                for T in (1.0, 0.25):
                    n_t, n_x, _ = _quadrature_sizes(groups, 2, N1, g3, horizon=T)
                    loose_t = max(math.ceil(time_sample_count(N1, g3) * T), 64)
                    assert n_t * n_x**3 <= loose_t * max(64, 2 * N1) ** 3

    def test_irrational_takes_band_exact_space_grid(self):
        # the spatial band 2mB does not depend on theta: where next_fast_len(2mB+1)
        # fits under the resolution rule's cells it is used, with that rule's n_t
        g = TorusGeometry(1, (IRRATIONAL,))
        for N in (4, 8):
            f = sweep_data("flat", N, g)
            n_t, n_x, exact = _quadrature_sizes([(f,)], 6, N, g)
            assert (n_t, n_x, exact) == (time_sample_count(N, g), next_fast_len(6 * N + 1), False)
            assert n_x < 8 * N
            fine = evolved_lp_norm(f, 6, n_t=n_t, n_x=4 * n_x)
            assert evolved_lp_norm(f, 6, n_t=n_t, n_x=n_x) == pytest.approx(fine, rel=1e-13)
            # character data have spread 0: |u| is constant in t, so one time is exact
            char = sweep_data("character", N, g)
            assert _quadrature_sizes([(char,)], 6, N, g) == (1, 1, True)

    def test_short_horizon_takes_band_exact_space_grid(self):
        g = TorusGeometry.square(3)
        axes_f = [band_axis_coeffs("flat", 16)] * 3
        axes_h = [band_axis_coeffs("flat", 8)] * 3
        n_t, n_x, exact = _quadrature_sizes(_axis_groups(axes_f, axes_h, g), 2, 16, g, horizon=0.25)
        assert n_t == max(math.ceil(time_sample_count(16, g) * 0.25), 64)
        assert n_x == next_fast_len(2 * (16 + 8) + 1) < 64 and not exact
        ratio = bilinear_ratio_tensor(axes_f, 16, axes_h, 8, g, horizon=0.25)
        fine = bilinear_ratio_tensor(axes_f, 16, axes_h, 8, g, horizon=0.25, n_t=n_t, n_x=4 * n_x)
        assert ratio == pytest.approx(fine, rel=1e-13)

    def test_integral_float_sizes_pass(self):
        g = TorusGeometry.square(1)
        f = sweep_data("flat", 4, g)
        assert _quadrature_sizes([(f,)], 4, 4, g, n_t=64.0, n_x=32.0) == (64, 32, True)
        fit = exponent_sweep("flat", 4.0, [1, 2, 4, 8], g, n_t=64.0)
        assert fit.norms == exponent_sweep("flat", 4.0, [1, 2, 4, 8], g, n_t=64).norms
        # n_x = 32.0 passed the size check and then raised numpy's TypeError
        # from a grid shape: every caller now uses the ints the check returns
        want = evolved_lp_norm(f, 4, n_t=64, n_x=32)
        assert evolved_lp_norm(f, 4, n_t=64, n_x=32.0) == want
        assert evolved_lp_norm(f, 4, n_t=64.0, n_x=32.0) == want
        g3 = TorusGeometry.square(3)
        records = bilinear_table([2], (1.0, 0.5), g3, n_t=64.0, n_x=24.0)
        assert records == bilinear_table([2], (1.0, 0.5), g3, n_t=64, n_x=24)
        assert all(type(r["n_t"]) is int and type(r["n_x"]) is int for r in records)

    @pytest.mark.parametrize("theta", [(1.0, 1.0, 1.0), (1.0, IRRATIONAL, 0.3)])
    @pytest.mark.parametrize("kind", ["flat", "character", "random"])
    def test_axis_groups_size_as_the_full_box(self, kind, theta):
        # the tensor product of the per-coordinate fields has the largest of
        # their bands and the sum of their spreads, so the sizes are the box's
        g = TorusGeometry(3, theta)
        rng = np.random.default_rng(7)
        for N1 in (2, 8, 32):
            for N2 in (n for n in (1, 2, 4, 8, 16, 32) if n <= N1):
                axes_f = [band_axis_coeffs(kind, N1, rng) for _ in range(3)]
                axes_h = [band_axis_coeffs(kind, N2, rng) for _ in range(3)]
                groups = _axis_groups(axes_f, axes_h, g)
                box = [(tensor_field(axes_f, g), tensor_field(axes_h, g))]
                for T in (1.0, 0.25):
                    sizes = _quadrature_sizes(groups, 2, N1, g, T)
                    assert sizes == _quadrature_sizes(box, 2, N1, g, T), (N1, N2, T)

    def test_one_description_per_integrand(self):
        # the sizes rule reads the groups _stream reads: no caller describes an integrand twice
        tree = ast.parse(Path(strichartz.__file__).read_text())
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]

        def calls(fn, name):
            return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == name for n in ast.walk(fn))

        assert [fn.name for fn in functions if calls(fn, "_field_extent")] == ["_quadrature_sizes"]
        params = {a.arg for fn in functions for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        assert "extents" not in params

    def test_one_space_time_norm(self):
        # norms and bilinear products alike: one function builds the times and
        # reduces the per-time vector the stream gives
        tree = ast.parse(Path(strichartz.__file__).read_text())
        callers = [
            fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_stream" for n in ast.walk(fn))
        ]
        assert callers == ["_lp_norm"]

    def test_one_resolution_time_rule(self):
        # norms and bilinear products take max(ceil(time_sample_count * horizon), 64)
        # at every horizon, which is time_sample_count itself at horizon 1
        g = TorusGeometry.square(3)
        f = sweep_data("flat", 8, g)
        for T in (1.0, 0.25, 1e-3):
            want = max(math.ceil(time_sample_count(8, g) * T), 64)
            assert _quadrature_sizes([(f,)], 3, 8, g, T)[0] == want
            assert _quadrature_sizes([(f, f)], 3, 8, g, T)[0] == want

    def test_bilinear_table_pairs_every_dyadic_n2(self):
        # N2 ran over 2**j for j < 12, so N1 = 4096 lost its diagonal
        g = TorusGeometry.square(3)
        records = bilinear_table([4096], [1.0], g, data="character")
        assert [r["N2"] for r in records] == [2**j for j in range(13)]
        # a character pair has |u v| = 1: the ratio is sqrt(T / N2) in d = 3
        assert records[-1]["ratio"] == pytest.approx(math.sqrt(1.0 / 4096), rel=1e-12)

    def test_bilinear_table_records_quadrature(self):
        g = TorusGeometry.square(3)
        # character data have spread 0, so one time is exact at every horizon
        records = bilinear_table([4], (1.0, 0.5), g, data="character")
        assert {r["T"] for r in records} == {1.0, 0.5}
        for r in records:
            assert r["exact"]
            assert r["n_t"] == 1 and r["n_x"] >= 2 * (4 + r["N2"]) + 1


class TestChunkIndependence:
    """A norm reduces its vector of per-time values once, so the time chunk moves no bit."""

    @staticmethod
    def one_time_per_chunk(monkeypatch):
        monkeypatch.setattr(strichartz, "_time_chunk", lambda fields, n_x: 1)

    @pytest.mark.parametrize(
        "d, theta, cls, p, N",
        [(1, (1.0,), "flat", 6, 64), (2, (1.0, IRRATIONAL), "random_gaussian", 4, 8)],
    )
    def test_norm(self, monkeypatch, d, theta, cls, p, N):
        g = TorusGeometry(d, theta)
        f = sweep_data(cls, N, g, seed=3)
        n_t, n_x, _ = _quadrature_sizes([(f,)], p, N, g)
        assert n_t > strichartz._time_chunk([f], n_x)  # the default streams several chunks
        norm = evolved_lp_norm(f, p, n_t=n_t, n_x=n_x)
        self.one_time_per_chunk(monkeypatch)
        assert evolved_lp_norm(f, p, n_t=n_t, n_x=n_x) == norm

    def test_bilinear_row(self, monkeypatch):
        g = TorusGeometry(3, (1.0, IRRATIONAL, 0.3))
        axes_f = [band_axis_coeffs("flat", 16)] * 3
        axes_h = [band_axis_coeffs("flat", 4)] * 3
        ratio = bilinear_ratio_tensor(axes_f, 16, axes_h, 4, g)
        self.one_time_per_chunk(monkeypatch)
        assert bilinear_ratio_tensor(axes_f, 16, axes_h, 4, g) == ratio


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
            a = evolved_lp_norm(base, p, n_t=n_t, n_x=n_x)
            b = evolved_lp_norm(shifted, p, n_t=n_t, n_x=n_x)
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
        # n_x = 7 < 2*N1+1 folds the N1 = 4 band in both paths; at n_t = 6000 both
        # paths stream several chunks (37 rows of the 3-d grid, 4096 of the 1-d ones)
        for n_t, n_x in ((300, 24), (300, 7), (6000, 12)):
            rt = bilinear_ratio_tensor(axes_f, 4, axes_h, 2, g, horizon=1.0, n_t=n_t, n_x=n_x)
            rg = bilinear_ratio(
                tensor_field(axes_f, g), 4, tensor_field(axes_h, g), 2, g,
                horizon=1.0, n_t=n_t, n_x=n_x,
            )
            assert rt == pytest.approx(rg, rel=1e-12)
        assert _auto_chunk(12**3) < 6000 and _auto_chunk(12) < 6000

    def test_generic_matches_materialized_grid(self):
        # a non-tensor pair on its dyadic bands, against both grids held whole
        g = self.geometry()
        rng = np.random.default_rng(8)
        fields = []
        for N in (4, 2):
            f = tensor_field([band_axis_coeffs("flat", N) for _ in range(3)], g)
            noise = rng.standard_normal(f.coeffs.shape) + 1j * rng.standard_normal(f.coeffs.shape)
            fields.append(f.with_coeffs(f.coeffs * noise))
        f, h = fields
        n_t, n_x = 40, 16
        uf, uh = sample_grid(f, n_t, n_x), sample_grid(h, n_t, n_x)
        norm = np.sqrt(np.mean(np.abs(uf * uh) ** 2))
        expected = norm / (2.0 ** 0.5 * sobolev_norm(f, 0) * sobolev_norm(h, 0))
        ratio = bilinear_ratio(f, 4, h, 2, g, n_t=n_t, n_x=n_x)
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_axes_must_be_unit(self):
        # three d=3 axes scaled by 3 gave 27 times the ratio, with no error
        g = self.geometry()
        axes_f = [band_axis_coeffs("flat", 4) for _ in range(3)]
        axes_h = [band_axis_coeffs("flat", 2) for _ in range(3)]
        with pytest.raises(ValueError, match=r"^axes_f\[0\] must be unit L2"):
            bilinear_ratio_tensor([3.0 * v for v in axes_f], 4, axes_h, 2, g)
        with pytest.raises(ValueError, match=r"^axes_h\[2\] must be unit L2"):
            bilinear_ratio_tensor(axes_f, 4, axes_h[:2] + [axes_h[2] * (1.0 + 1e-11)], 2, g)

    @pytest.mark.parametrize("horizon", [0.0, -0.5, math.nan, math.inf])
    def test_bad_horizon_rejected(self, horizon):
        # each library path names the argument; a zero horizon used to give ratio 0
        g = self.geometry()
        axes = [band_axis_coeffs("flat", 2)] * 3
        f = tensor_field(axes, g)
        calls = [
            lambda: bilinear_ratio(f, 2, f, 2, g, horizon=horizon),
            lambda: bilinear_ratio_tensor(axes, 2, axes, 2, g, horizon=horizon),
            lambda: bilinear_table([2], (1.0, horizon), g),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="horizon"):
                call()

    @pytest.mark.parametrize("name", ["n_t", "n_x"])
    @pytest.mark.parametrize("size", [0, -3, 2.5, 32.5])
    def test_bad_size_rejected(self, name, size):
        # evolved_lp_norm(..., n_t=0) used to raise ZeroDivisionError; n_t=2.5
        # took three times and divided by 2.5, and the sweeps read it as 2
        g = self.geometry()
        axes = [band_axis_coeffs("flat", 2)] * 3
        f = tensor_field(axes, g)
        sizes = {"n_t": 16, "n_x": 24, name: size}
        calls = [
            lambda: evolved_lp_norm(f, 4.0, **sizes),
            lambda: exponent_sweep("flat", 4.0, [1, 2, 4, 8], g, **sizes),
            lambda: bilinear_ratio(f, 2, f, 2, g, **sizes),
            lambda: bilinear_ratio_tensor(axes, 2, axes, 2, g, **sizes),
            lambda: bilinear_table([2], (1.0,), g, **sizes),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=name):
                call()

    def test_band_mismatch_rejected(self):
        g = self.geometry()
        low = tensor_field([band_axis_coeffs("flat", 2)] * 3, g)
        with pytest.raises(ValueError):
            bilinear_ratio(low, 8, low, 2, g, n_t=16, n_x=24)

    def test_dimension_guard(self):
        g = TorusGeometry.square(2)
        axes = [band_axis_coeffs("flat", 2)] * 2
        f = tensor_field(axes, g)
        with pytest.raises(ValueError):
            bilinear_ratio(f, 2, f, 2, g, n_t=16, n_x=16)
        with pytest.raises(ValueError, match="d >= 3"):
            bilinear_ratio_tensor(axes, 2, axes, 2, g, n_t=16, n_x=16)

    def test_ordering_guard(self):
        g = self.geometry()
        f = tensor_field([band_axis_coeffs("flat", 2)] * 3, g)
        h = tensor_field([band_axis_coeffs("flat", 4)] * 3, g)
        with pytest.raises(ValueError):
            bilinear_ratio(f, 2, h, 4, g, n_t=16, n_x=24)
