"""Free evolution unitarity and the two kernel evaluation paths."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft

from toruslab import _fft, propagator
from toruslab.core import FrequencyField, TorusGeometry, _dispersion_symbol, bump, sobolev_norm, synthesize
from toruslab.dispersive import SWEEP_TIME_CAP, refocusing_times, sweep_time_grid
from toruslab.errors import GridTooCoarseError
from toruslab.propagator import (
    _analyze,
    _synthesize,
    free_evolve,
    kernel_axis_max_abs,
    kernel_direct,
    iter_evolved_grids,
    kernel_grid,
    time_sample_count,
)

from test_core import lp_symbol, random_field

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


def exact_flow_rows(g, M, ts):
    """_flow's rows from exact phases: t sum_j theta_j k_j^2 reduced mod 1 in rationals, then one exp."""
    theta = [Fraction(th) for th in g.theta]
    modes = list(itertools.product(range(-M, M + 1), repeat=g.d))
    out = np.empty((len(ts), len(modes)), dtype=np.complex128)
    for i, t in enumerate(ts):
        tt = Fraction(float(t))
        frac = [float(tt * sum(th * k * k for th, k in zip(theta, ks)) % 1) for ks in modes]
        out[i] = np.exp(-2j * np.pi * np.array(frac))
    return out


class TestFlow:
    @pytest.mark.parametrize("d, M", [(1, 64), (1, 7), (2, 16), (3, 6), (4, 3)])
    def test_matches_exact_phases(self, d, M):
        # t theta_j takes one relative rounding and the angle 2 pi r_j k_j^2, with
        # r_j = fmod(t theta_j, 1) exact, about three more, and the exp and the d - 1
        # products add a few more: every row is within
        # (pi sum_j (|t| theta_j + 3 |r_j|) M^2 + 2d) epsilons
        rng = np.random.default_rng(d * 100 + M)
        ts = np.concatenate(([0.0, 0.5, 1 - 2**-20, 2**-30, 12.345, -100.345], rng.random(6)))
        for theta in ((1.0,) * d, (IRRATIONAL,) * d, tuple(rng.uniform(0.05, 1.0, d))):
            g = TorusGeometry(d, theta)
            err = np.max(np.abs(propagator._flow(g, M, ts) - exact_flow_rows(g, M, ts)), axis=1)
            r = np.abs(np.fmod(np.multiply.outer(ts, theta), 1.0))
            scale = np.sum(np.abs(ts)[:, None] * theta + 3 * r, axis=1)
            bound = (np.pi * scale * M * M + 2 * d) * np.finfo(float).eps
            assert np.all(err <= bound), (theta, np.max(err / bound))


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

    def test_whole_periods_in_x_keep_the_value(self):
        # x_j is reduced mod 1 as theta_j t is, so the value does not drift with |x|:
        # unreduced, the shift 2^20 moved it by 1.4e-9 of the grid sup, 2^30 by 7.8e-7
        g = TorusGeometry(2, (1.0, 1.0 / np.sqrt(2.0)))
        base = kernel_direct(0.3, (0.25, 0.5), 8, g)
        for shift in (2.0**20, 2.0**30):
            assert kernel_direct(0.3, (0.25 + shift, 0.5 - shift), 8, g) == base

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, bad):
        g = TorusGeometry.square(2)
        with pytest.raises(ValueError, match="^t must be finite"):
            kernel_direct(bad, (0.0, 0.0), 4, g)
        with pytest.raises(ValueError, match="^x must be finite"):
            kernel_direct(0.3, (0.1, bad), 4, g)
        with pytest.raises(ValueError, match="^t must be finite"):
            kernel_grid(bad, 20, 4, g)


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

    def test_long_times_keep_the_period(self):
        # on the square torus theta t is exact, so t is reduced mod 1 before any rounding:
        # the grid at t repeats that at t - 100 bit for bit, and stays on the oracle
        g = TorusGeometry.square(2)
        N, n_x, t = 16, 68, 100.345
        ev = kernel_grid(t, n_x, N, g)
        assert np.array_equal(ev.values, kernel_grid(t - 100, n_x, N, g).values)
        sup = np.max(np.abs(ev.values))
        rng = np.random.default_rng(8)
        for i, j in rng.integers(0, n_x, size=(20, 2)):
            assert abs(kernel_direct(t, (i / n_x, j / n_x), N, g) - ev.values[i, j]) <= 1e-12 * sup

    def test_origin_value_and_dc_mean(self):
        g = TorusGeometry.square(2)
        ev = kernel_grid(0.0, 64, 8, g)
        assert ev.values[0, 0] == pytest.approx(24.0**2, rel=1e-12)
        # only the k=0 mode contributes to the grid mean
        assert np.mean(ev.values) == pytest.approx(1.0, abs=1e-10)

    def test_spectral_symbol_consistency(self):
        # analyzing the grid kernel back to coefficients recovers exactly the
        # phased projector symbol, tying the kernel to the propagator
        g = TorusGeometry(2, (1.0, IRRATIONAL))
        N, n_x, t = 4, 24, 0.37
        ev = kernel_grid(t, n_x, N, g)
        spec = np.fft.fftn(ev.values) / n_x**2
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


def seven_row_chunks(monkeypatch, n_x):
    """Make kernel_axis_max_abs transform 7 rows per FFT chunk on an n_x grid."""
    auto = propagator._auto_chunk
    monkeypatch.setattr(propagator, "_auto_chunk", lambda cells: 7 if cells == n_x else auto(cells))


def phase_tolerance(N):
    """Relative tolerance of a slice maximum against exact phases: 4 (2N)^2 machine epsilons."""
    return 4.0 * (2 * N) ** 2 * np.finfo(float).eps


class TestKernelAxisMaxAbs:
    @pytest.mark.parametrize("theta", [1.0, IRRATIONAL, 0.3])
    @pytest.mark.parametrize("N, n_x", [(1, 5), (2, 16), (4, 17), (4, 23), (8, 33), (8, 64), (16, 131)])
    def test_matches_full_symbol(self, N, theta, n_x):
        # the full symbol from recurrence-built phases against phases reduced
        # exactly before one exp, on [0, 1], [-1, 0] and [1, 2], which fold
        # onto one another
        base = np.concatenate([np.arange(257) / 256, np.random.default_rng(N).random(300)])
        ts = np.concatenate([base, -base, 1.0 + base])
        want = exact_phase_axis_max_abs(ts, N, theta, n_x)
        got = kernel_axis_max_abs(ts, N, theta, n_x)
        assert np.max(np.abs(got - want) / want) <= phase_tolerance(N)

    @pytest.mark.parametrize("N, n_x", [(1, 6), (2, 16), (4, 36), (8, 64)])
    def test_fold_symmetries_even_grid(self, N, n_x):
        # with theta = 1 and n_x even, t, 1 - t, t + 1/2 and -t fold onto one
        # phase: K(1/2 + s, x) = K(s, x + 1/2) is a shift by n_x/2 grid points
        ts = np.arange(257) / 256
        got = kernel_axis_max_abs(ts, N, 1.0, n_x)
        for image in (1.0 - ts, ts + 0.5, -ts):
            assert np.array_equal(kernel_axis_max_abs(image, N, 1.0, n_x), got)

    @pytest.mark.parametrize("N, n_x", [(1, 5), (4, 17), (8, 33)])
    def test_fold_symmetries_odd_grid(self, N, n_x):
        # x + 1/2 is off an odd grid, so only t -> -t and t -> 1 - t fold; the
        # maxima at t + 1/2 are those of their own exact phases
        ts = np.arange(257) / 256
        got = kernel_axis_max_abs(ts, N, 1.0, n_x)
        for image in (1.0 - ts, -ts):
            assert np.array_equal(kernel_axis_max_abs(image, N, 1.0, n_x), got)
        shifted = ts + 0.5
        want = exact_phase_axis_max_abs(shifted, N, 1.0, n_x)
        assert np.max(np.abs(kernel_axis_max_abs(shifted, N, 1.0, n_x) - want) / want) <= phase_tolerance(N)

    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_sweep_grid_transforms_a_quarter(self, N, monkeypatch):
        # on the theta = 1 sweep grid i/n_t (with its refocusing times) the
        # folded phases of an even grid lie in [0, 1/4]: about n_t/4 rows
        g = TorusGeometry.square(1)
        ts = sweep_time_grid(N, g)
        n_t = min(time_sample_count(N, g), SWEEP_TIME_CAP)
        rows = []
        ifft = _fft.ifft

        def counting(a, *args, **kwargs):
            rows.append(a.shape[0])
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(_fft, "ifft", counting)
        kernel_axis_max_abs(ts, N, 1.0, 8 * N)
        assert sum(rows) <= n_t // 4 + refocusing_times(N, g).size + 2

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16, 64])
    def test_time_zero_bit_for_bit(self, N):
        # at t = 0 every phase is exactly 1, so the default 8N grid gives the
        # bits of the exp-built full symbol, and the max is the symbol's sum 3N
        got = kernel_axis_max_abs(np.zeros(1), N, IRRATIONAL, 8 * N)
        assert np.array_equal(got, full_symbol_axis_max_abs(np.zeros(1), N, IRRATIONAL, 8 * N))
        assert got[0] == pytest.approx(3 * N, rel=1e-14)

    @pytest.mark.parametrize("size", [0, 1, 7, 8])
    def test_chunk_edges(self, size, monkeypatch):
        N, n_x = 4, 36
        ts = np.random.default_rng(size).random(size)
        want = kernel_axis_max_abs(ts, N, IRRATIONAL, n_x)
        seven_row_chunks(monkeypatch, n_x)
        got = kernel_axis_max_abs(ts, N, IRRATIONAL, n_x)
        assert got.shape == (size,)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("theta", [1.0, IRRATIONAL])
    @pytest.mark.parametrize("N, n_x", [(4, 36), (16, 128)])
    def test_maxima_do_not_depend_on_batching(self, N, n_x, theta, monkeypatch):
        # more times than one phase block: chunk 7, the default chunk and
        # one-time calls give each time the same bits
        ts = np.random.default_rng(N).random(9000) * 3.0 - 1.0
        batched = kernel_axis_max_abs(ts, N, theta, n_x)
        for i in range(0, ts.size, 331):
            assert np.array_equal(kernel_axis_max_abs(ts[i : i + 1], N, theta, n_x), batched[i : i + 1])
        seven_row_chunks(monkeypatch, n_x)
        assert np.array_equal(kernel_axis_max_abs(ts, N, theta, n_x), batched)

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
    """Reference: scatter the box into the zero n_x^d grid, then unscaled ifft passes on axes 1..d.

    Modes that fold onto one grid frequency (n_x < 2M+1) add up.
    """
    buf = np.zeros((rows.shape[0], n_x**d), dtype=np.complex128)
    np.add.at(buf, (slice(None), box_flat(d, M, n_x)), rows)
    vals = buf.reshape((rows.shape[0],) + (n_x,) * d)
    for axis in range(1, d + 1):
        vals = np.fft.ifft(vals, axis=axis, norm="forward")
    return vals


def full_grid_analyze(vals, d, M, n_x):
    """Reference: one scipy fftn over the grid, divided by n_x^d, gathered at the box modes."""
    spec = scipy.fft.fftn(vals, axes=tuple(range(1, d + 1))) / n_x**d
    return spec.reshape(vals.shape[0], n_x**d)[:, box_flat(d, M, n_x)]


class TestPrunedRoundTrip:
    @pytest.mark.parametrize("M", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_full_grid(self, d, M):
        # the pruned axis passes give the bits of the full-grid transforms:
        # unscaled inverse passes, and scipy's fftn for the forward ones
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
        # folding axis by axis adds the aliases in another order than one scatter
        rng = np.random.default_rng(d)
        M = 3
        for n_x in (1, 2, 5, 6):
            rows = rng.standard_normal((3, 7**d)) + 1j * rng.standard_normal((3, 7**d))
            err = np.abs(_synthesize(rows, d, M, n_x) - full_grid_synthesize(rows, d, M, n_x))
            l1 = np.sum(np.abs(rows), axis=1).reshape((3,) + (1,) * d)
            assert np.all(err <= 1e-13 * l1)

    @pytest.mark.parametrize("d", [1, 3])
    def test_analyze_rejects_folded_grid(self, d):
        M = 2
        with pytest.raises(GridTooCoarseError):
            _analyze(np.zeros((1,) + (2 * M,) * d, dtype=np.complex128), d, M, 2 * M)


def test_auto_chunk_floor_is_one_row():
    # a grid above 2^16 cells is batched alone, not sixteen at a time
    assert propagator._auto_chunk(48**3) == 1
    assert propagator._auto_chunk(1) == 4096


def test_time_chunk_holds_the_phased_box():
    # n_x = 1 < 2M+1 = 17: the 17^2-cell phased box, not the 1-cell grid, sizes the chunk
    g = TorusGeometry(2, (1.0, IRRATIONAL))
    f = FrequencyField.character(g, 8, (0, 0))
    ts = np.arange(4096) / 4096
    sizes = [tslice.size for tslice, _ in iter_evolved_grids(f, ts, 1)]
    chunk = propagator._auto_chunk(17**2)
    assert sizes == [chunk] * (ts.size // chunk) + [ts.size % chunk]
    assert propagator._time_chunk([f], 1) == chunk


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
