"""Free evolution unitarity and the two kernel evaluation paths."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.fft

from toruslab.core import FrequencyField, TorusGeometry, bump, sobolev_norm, synthesize
from toruslab.errors import GridTooCoarseError
from toruslab.propagator import (
    _analyze,
    _dispersion_symbol,
    _flat_positions,
    _synthesize,
    free_evolve,
    kernel_axis_max_abs,
    kernel_direct,
    iter_evolved_grids,
    kernel_grid,
)

from test_core import random_field

IRRATIONAL = 0.7071067811865476  # sqrt(2)/2 to double precision


def sample_grid(f, n_t, n_x):
    """u(i/n_t, m/n_x) of the free evolution of f, all n_t times materialized at once."""
    chunks = iter_evolved_grids(f, np.arange(n_t) * (1.0 / n_t), n_x)
    return np.concatenate([vals for _, vals in chunks])


class TestFreeEvolve:
    def test_identity_at_zero(self):
        g = TorusGeometry.square(2)
        f = random_field(g, 4, seed=0)
        assert np.array_equal(free_evolve(f, 0.0).coeffs, f.coeffs)

    def test_integer_phase_fixed_point(self):
        g = TorusGeometry.square(1)
        f = FrequencyField.character(g, 2, (1,))
        out = free_evolve(f, 1.0)
        assert np.allclose(out.coeffs, f.coeffs, atol=1e-14)

    def test_unitary(self):
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        f = random_field(g, 5, seed=1)
        base = sobolev_norm(f, 0)
        rng = np.random.default_rng(2)
        for t in rng.random(20):
            assert sobolev_norm(free_evolve(f, t), 0) == pytest.approx(base, rel=1e-12)

    def test_group_law(self):
        g = TorusGeometry(1, (IRRATIONAL,))
        f = random_field(g, 6, seed=3)
        s, t = 0.3127, 0.5819
        a = free_evolve(free_evolve(f, s), t)
        b = free_evolve(f, s + t)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-13)


    def test_cached_symbol_is_read_only(self):
        # the symbol is shared through a cache: an in-place edit would corrupt
        # every later evolution on the same geometry and box
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        sym = _dispersion_symbol(g, 3)
        with pytest.raises(ValueError):
            sym[0, 0] = 0.0
        with pytest.raises(ValueError):
            sym.ravel()[0] += 1.0
        assert _dispersion_symbol(g, 3) is sym


class TestKernelDirect:
    def test_n1_origin(self):
        g = TorusGeometry.square(1)
        assert kernel_direct(0.0, (0.0,), 1, g) == pytest.approx(3.0)

    def test_n1_cosine_formula(self):
        g = TorusGeometry.square(1)
        rng = np.random.default_rng(5)
        for x in rng.random(5):
            expected = 1.0 + 2.0 * np.cos(2 * np.pi * x)
            assert kernel_direct(0.0, (x,), 1, g) == pytest.approx(expected, abs=1e-14)

    def test_symbol_mass_identity(self):
        # pairing k with 3N-k makes the transition sum exactly (N-1)/2 per side,
        # so K(0, 0) = 3N in one dimension and (3N)^d by the product structure
        g = TorusGeometry.square(1)
        for N in (1, 2, 4, 8, 16):
            assert kernel_direct(0.0, (0.0,), N, g) == pytest.approx(3.0 * N, rel=1e-13)
        g2 = TorusGeometry.square(2)
        assert kernel_direct(0.0, (0.0, 0.0), 8, g2) == pytest.approx(24.0**2, rel=1e-13)

    def test_square_torus_time_periodicity(self):
        g = TorusGeometry.square(1)
        for t, x in ((0.21, 0.4), (0.77, 0.13)):
            assert kernel_direct(t + 1.0, (x,), 4, g) == pytest.approx(
                kernel_direct(t, (x,), 4, g), abs=1e-11
            )

    def test_even_in_x(self):
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        v1 = kernel_direct(0.3, (0.2, 0.7), 4, g)
        v2 = kernel_direct(0.3, (-0.2, -0.7), 4, g)
        assert v1 == pytest.approx(v2, abs=1e-12)


class TestKernelGrid:
    def test_guard(self):
        g = TorusGeometry.square(1)
        with pytest.raises(GridTooCoarseError):
            kernel_grid(0.1, 2, 8, g)

    def test_matches_direct(self):
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        N, n_x = 8, 40
        rng = np.random.default_rng(7)
        for t in (0.0, 0.31, 0.93):
            ev = kernel_grid(t, n_x, N, g)
            sup = np.max(np.abs(ev.values))
            for _ in range(10):
                i, j = rng.integers(0, n_x, size=2)
                direct = kernel_direct(t, (i / n_x, j / n_x), N, g)
                assert abs(direct - ev.values[i, j]) <= 1e-10 * sup

    def test_origin_value_and_dc_mean(self):
        g = TorusGeometry.square(2)
        ev = kernel_grid(0.0, 64, 8, g)
        assert ev.values[0, 0] == pytest.approx(24.0**2, rel=1e-12)
        # only the k=0 mode contributes to the grid mean
        assert np.mean(ev.values) == pytest.approx(1.0, abs=1e-10)

    def test_point_rule_matches_direct(self):
        g = TorusGeometry.square(1)
        ev = kernel_grid(0.25, 16, 2, g)
        assert ev.at((0.3,)) == pytest.approx(kernel_direct(0.25, (0.3,), 2, g))

    def test_spectral_symbol_consistency(self):
        # analyzing the grid kernel back to coefficients recovers exactly the
        # phased projector symbol, tying the kernel to the propagator
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        N, n_x, t = 4, 24, 0.37
        ev = kernel_grid(t, n_x, N, g)
        spec = np.fft.fftn(ev.values) / n_x**2
        from toruslab.core import lp_symbol
        for k1 in range(-2 * N, 2 * N + 1):
            for k2 in range(-2 * N, 2 * N + 1):
                phase = np.exp(-2j * np.pi * t * (k1**2 + IRRATIONAL * k2**2))
                want = lp_symbol((k1, k2), N, "leq") * phase
                assert abs(spec[k1 % n_x, k2 % n_x] - want) < 1e-12

    def test_irrational_breaks_time_periodicity(self):
        # on the square torus K(1,.) = K(0,.); an irrational weight destroys this
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        N = 8
        k0 = kernel_grid(0.0, 64, N, g).values
        k1 = kernel_grid(1.0, 64, N, g).values
        assert np.max(np.abs(k1 - k0)) > 0.1 * N**2


def full_symbol_axis_max_abs(ts, N, theta, n_x):
    """The slice maxima from exp-built phases of all 4N+1 modes, scattered into one buffer."""
    k = np.arange(-2 * N, 2 * N + 1, dtype=float)
    rows = bump(k / N) * np.exp(-2j * np.pi * np.outer(ts, theta * k * k))
    buf = np.zeros((ts.size, n_x), dtype=np.complex128)
    buf[:, np.arange(-2 * N, 2 * N + 1) % n_x] = rows
    return np.max(np.abs(scipy.fft.ifft(buf, axis=1) * n_x), axis=1)


def exact_phase_axis_max_abs(ts, N, theta, n_x):
    """The slice maxima from exact phases: t theta k^2 reduced mod 1 in rationals, then one exp.

    The float t and theta are converted exactly, so each phase is the correctly
    reduced argument of the symbol the floats denote, rounded once.
    """
    k = np.arange(-2 * N, 2 * N + 1)
    out = np.empty(len(ts))
    for i, t in enumerate(ts):
        tt = Fraction(float(t)) * Fraction(float(theta))
        frac = np.array([float(tt * int(kk * kk) % 1) for kk in k])
        row = bump(k / N) * np.exp(-2j * np.pi * frac)
        buf = np.zeros(n_x, dtype=np.complex128)
        buf[k % n_x] = row
        out[i] = np.max(np.abs(np.fft.fft(buf)))
    return out


def phase_tolerance(N):
    """Relative tolerance of a slice maximum against exact phases: 4 (2N)^2 machine epsilons."""
    return 4.0 * (2 * N) ** 2 * np.finfo(float).eps


class TestKernelAxisMaxAbs:
    @pytest.mark.parametrize("theta", [1.0, IRRATIONAL, 0.3])
    @pytest.mark.parametrize("N, n_x", [(1, 5), (2, 16), (4, 17), (4, 23), (8, 33), (8, 64), (16, 131)])
    def test_matches_full_symbol(self, N, theta, n_x):
        # the full symbol from recurrence-built phases against phases reduced
        # exactly before one exp
        ts = np.concatenate([np.arange(257) / 256, np.random.default_rng(N).random(300)])
        want = exact_phase_axis_max_abs(ts, N, theta, n_x)
        got = kernel_axis_max_abs(ts, N, theta, n_x)
        assert np.max(np.abs(got - want) / want) <= phase_tolerance(N)

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16, 64])
    def test_time_zero_bit_for_bit(self, N):
        # at t = 0 every phase is exactly 1, so the default 8N grid gives the
        # bits of the exp-built full symbol, and the max is the symbol's sum 3N
        got = kernel_axis_max_abs(np.zeros(1), N, IRRATIONAL, 8 * N)
        assert np.array_equal(got, full_symbol_axis_max_abs(np.zeros(1), N, IRRATIONAL, 8 * N))
        assert got[0] == pytest.approx(3 * N, rel=1e-14)

    @pytest.mark.parametrize("size", [0, 1, 7, 8])
    def test_chunk_edges(self, size):
        N, n_x, chunk = 4, 36, 7
        ts = np.random.default_rng(size).random(size)
        got = kernel_axis_max_abs(ts, N, IRRATIONAL, n_x, chunk=chunk)
        assert got.shape == (size,)
        assert np.array_equal(got, kernel_axis_max_abs(ts, N, IRRATIONAL, n_x))

    @pytest.mark.parametrize("theta", [1.0, IRRATIONAL])
    @pytest.mark.parametrize("N, n_x", [(4, 36), (16, 128)])
    def test_maxima_do_not_depend_on_batching(self, N, n_x, theta):
        # more times than one phase block: chunk 7, the default chunk and
        # one-time calls give each time the same bits
        ts = np.random.default_rng(N).random(9000) * 3.0 - 1.0
        batched = kernel_axis_max_abs(ts, N, theta, n_x)
        assert np.array_equal(kernel_axis_max_abs(ts, N, theta, n_x, chunk=7), batched)
        for i in range(0, ts.size, 331):
            assert np.array_equal(kernel_axis_max_abs(ts[i : i + 1], N, theta, n_x), batched[i : i + 1])

    def test_guard(self):
        with pytest.raises(GridTooCoarseError):
            kernel_axis_max_abs(np.array([0.1]), 4, 1.0, 16)

    def test_matches_kernel_grid(self):
        N, n_x = 8, 40
        for theta in (1.0, IRRATIONAL):
            g = TorusGeometry(1, (theta,))
            ts = np.array([0.0, 0.13, 0.5, 0.871])
            got = kernel_axis_max_abs(ts, N, theta, n_x)
            for t, m in zip(ts, got):
                assert m == pytest.approx(np.max(np.abs(kernel_grid(t, n_x, N, g).values)), rel=1e-12)


def box_flat(d, M, n_x):
    axis = np.arange(-M, M + 1) % n_x
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.ravel_multi_index([g.ravel() for g in grids], (n_x,) * d)


def full_grid_synthesize(rows, d, M, n_x):
    """Reference: scatter the box into the zero n_x^d grid, one scipy ifftn, times n_x^d.

    Modes that fold onto one grid frequency (n_x < 2M+1) add up.
    """
    buf = np.zeros((rows.shape[0], n_x**d), dtype=np.complex128)
    if n_x < 2 * M + 1:
        np.add.at(buf, (slice(None), box_flat(d, M, n_x)), rows)
    else:
        buf[:, box_flat(d, M, n_x)] = rows
    vals = scipy.fft.ifftn(buf.reshape((rows.shape[0],) + (n_x,) * d), axes=tuple(range(1, d + 1)))
    return vals * n_x**d


def full_grid_analyze(vals, d, M, n_x):
    """Reference: one scipy fftn over the grid, divided by n_x^d, gathered at the box modes."""
    spec = scipy.fft.fftn(vals, axes=tuple(range(1, d + 1))) / n_x**d
    return spec.reshape(vals.shape[0], n_x**d)[:, box_flat(d, M, n_x)]


class TestPrunedRoundTrip:
    @pytest.mark.parametrize("M", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_full_grid(self, d, M):
        # the pruned axis passes give the bits of the full-grid transforms
        rng = np.random.default_rng(10 * d + M)
        sizes = {2 * M + 1, 2 * M + 2, 2 * M + 3, 2 * M + 5, 4 * M + 4, 6 * M}
        for n_x in sorted(n for n in sizes if n >= 2 * M + 1):
            for count in (1, 3, 33):
                rows = rng.standard_normal((count, (2 * M + 1) ** d)) + 1j * rng.standard_normal(
                    (count, (2 * M + 1) ** d)
                )
                assert np.array_equal(_synthesize(rows, d, M, n_x), full_grid_synthesize(rows, d, M, n_x))
                vals = full_grid_synthesize(rows, d, M, n_x) ** 2
                assert np.array_equal(_analyze(vals, d, M, n_x), full_grid_analyze(vals, d, M, n_x))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_folded_path_unchanged(self, d):
        rng = np.random.default_rng(d)
        M = 3
        for n_x in (1, 2, 5, 6):
            rows = rng.standard_normal((3, 7**d)) + 1j * rng.standard_normal((3, 7**d))
            assert np.array_equal(_synthesize(rows, d, M, n_x), full_grid_synthesize(rows, d, M, n_x))

    @pytest.mark.parametrize("d", [1, 3])
    def test_analyze_rejects_folded_grid(self, d):
        M = 2
        with pytest.raises(GridTooCoarseError):
            _analyze(np.zeros((1,) + (2 * M,) * d, dtype=np.complex128), d, M, 2 * M)

    def test_box_index_cached_read_only(self):
        flat = _flat_positions(2, 3, 5)
        assert _flat_positions(2, 3, 5) is flat
        assert np.array_equal(flat, box_flat(2, 3, 5))
        with pytest.raises(ValueError):
            flat[0] = 1


class TestSampleSpacetime:
    def test_constant_field(self):
        g = TorusGeometry.square(1)
        f = FrequencyField.character(g, 2, (0,))
        vals = sample_grid(f, 5, 8)
        assert np.allclose(vals, 1.0)

    def test_single_character_unimodular(self):
        g = TorusGeometry(1, (IRRATIONAL,))
        f = FrequencyField.character(g, 3, (2,), amplitude=0.5)
        vals = sample_grid(f, 7, 16)
        assert np.allclose(np.abs(vals), 0.5, atol=1e-13)

    def test_rowwise_parseval(self):
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        f = random_field(g, 3, seed=8)
        n_x = 16  # strictly finer than twice the band
        vals = sample_grid(f, 9, n_x)
        l2 = sobolev_norm(f, 0)
        for row in vals:
            grid_l2 = np.sqrt(np.mean(np.abs(row) ** 2))
            assert grid_l2 == pytest.approx(l2, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_folded_grid_matches_direct_synthesis(self, d):
        # n_x < 2M+1: several box modes land on one grid frequency and add up
        g = TorusGeometry(d, (IRRATIONAL, 0.3, 0.9)[:d])
        M, n_x, n_t = 4, 5, 3
        f = random_field(g, M, seed=20 + d)
        vals = sample_grid(f, n_t, n_x)
        scale = float(np.sum(np.abs(f.coeffs)))
        for i in range(n_t):
            ft = free_evolve(f, i / n_t)
            for m in np.ndindex(*(n_x,) * d):
                want = synthesize(ft, np.asarray(m) / n_x)
                assert abs(vals[(i,) + m] - want) <= 1e-12 * scale
