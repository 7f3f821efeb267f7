"""Cutoff profile, field representation, projectors, and norms."""

import numpy as np
import pytest

from toruslab.core import (
    FrequencyField,
    TorusGeometry,
    _axis_profile,
    _modulus_power,
    annular_bump,
    bump,
    is_dyadic,
    project,
    require_dyadic,
    sobolev_norm,
    synthesize,
)
from toruslab.errors import BoxTooSmallError
from toruslab.io import read_field, write_field


def lp_symbol(k, N: int, mode: str) -> float:
    """Littlewood-Paley multiplier at lattice point k: a product of 1-d cutoffs.

    mode='leq' gives prod_j bump(k_j/N); mode='band' gives
    prod_j [bump(k_j/N) - bump(2 k_j/N)].  A reference, one lattice point at a
    time: test_propagator compares the kernel's spectrum with it.
    """
    require_dyadic(N)
    k = np.atleast_1d(np.asarray(k, dtype=float))
    return float(np.prod(_axis_profile(k, N, mode)))


def random_field(geometry, M, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    shape = (2 * M + 1,) * geometry.d
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return FrequencyField(geometry, M, scale * coeffs)


class TestBump:
    def test_pinned_values(self):
        assert bump(0.0) == 1.0
        assert bump(1.0) == 1.0
        assert bump(-1.0) == 1.0
        assert bump(2.0) == 0.0
        assert bump(-2.5) == 0.0
        # symmetry of the two transition pieces pins the midpoint
        assert bump(1.5) == pytest.approx(0.5, abs=1e-15)

    def test_range_and_evenness(self):
        xs = np.linspace(-3, 3, 601)
        vals = bump(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.allclose(vals, bump(-xs))

    def test_monotone_on_transition(self):
        xs = np.linspace(1.0, 2.0, 200)
        vals = bump(xs)
        assert np.all(np.diff(vals) <= 0.0)

    def test_transition_pairs_sum_to_one(self):
        u = np.linspace(0.0, 1.0, 50)
        assert np.allclose(bump(1.0 + u) + bump(2.0 - u), 1.0, atol=1e-15)

    def test_annular_support(self):
        assert annular_bump(0.4) == 0.0  # both pieces are 1
        assert annular_bump(2.0) == 0.0
        assert annular_bump(1.0) == pytest.approx(1.0)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            TorusGeometry(d=5, theta=(1.0,) * 5)
        with pytest.raises(ValueError):
            TorusGeometry(d=2, theta=(1.0,))
        with pytest.raises(ValueError):
            TorusGeometry(d=1, theta=(1.5,))
        with pytest.raises(ValueError):
            TorusGeometry(d=1, theta=(0.0,))

    def test_square(self):
        g = TorusGeometry.square(3)
        assert g.theta == (1.0, 1.0, 1.0)
        assert g.theta_max == 1.0

    def test_dyadic_helpers(self):
        assert [is_dyadic(n) for n in (1, 2, 3, 8, 0, -4)] == [True, True, False, True, False, False]


class TestLpSymbol:
    def test_spec_values(self):
        assert lp_symbol((0, 0), 1, "leq") == 1.0
        assert lp_symbol((2, 0), 1, "leq") == 0.0
        # band at N=1, k=1: bump(1) - bump(2) = 1
        assert lp_symbol((1,), 1, "band") == 1.0

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            lp_symbol((1,), 3, "leq")
        with pytest.raises(ValueError):
            lp_symbol((1,), 2, "bogus")

    def test_product_structure(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = rng.integers(-20, 21, size=3)
            N = 2 ** int(rng.integers(0, 4))
            mode = ("leq", "band")[int(rng.integers(0, 2))]
            expected = np.prod([lp_symbol((kj,), N, mode) for kj in k])
            assert lp_symbol(tuple(k), N, mode) == pytest.approx(expected, abs=1e-15)

    def test_range(self):
        for k in range(-33, 34):
            assert 0.0 <= lp_symbol((k,), 8, "leq") <= 1.0
            assert 0.0 <= lp_symbol((k,), 8, "band") <= 1.0


class TestProject:
    def test_character_in_core_unchanged(self):
        g = TorusGeometry.square(2)
        f = FrequencyField.character(g, 8, (3, -4))
        out = project(f, 4, "leq")
        assert np.allclose(out.coeffs, f.coeffs)

    def test_character_beyond_support_killed(self):
        g = TorusGeometry.square(2)
        f = FrequencyField.character(g, 8, (8, 0))
        out = project(f, 4, "leq")
        assert np.all(out.coeffs == 0)

    def test_box_guard(self):
        g = TorusGeometry.square(1)
        f = FrequencyField.character(g, 7, (0,))
        with pytest.raises(BoxTooSmallError):
            project(f, 4, "leq")

    def test_telescoping(self):
        # the per-coordinate identity bump(k/N) = bump(k) + sum over dyadic
        # 2 <= N' <= N of [bump(k/N') - bump(2k/N')]; coefficientwise in d=1
        # (product symbols in d >= 2 do not telescope across scales)
        g = TorusGeometry.square(1)
        f = random_field(g, 16, seed=5)
        N = 8
        total = project(f, 1, "leq").coeffs.copy()
        for Np in (2, 4, 8):
            total += project(f, Np, "band").coeffs
        assert np.allclose(total, project(f, N, "leq").coeffs, atol=1e-14)

    def test_second_application_never_grows(self):
        g = TorusGeometry.square(1)
        f = random_field(g, 16, seed=6)
        once = project(f, 4, "leq")
        twice = project(once, 4, "leq")
        assert np.all(np.abs(twice.coeffs) <= np.abs(once.coeffs) + 1e-15)

    def test_idempotent_on_binary_symbol_support(self):
        # a field supported where the symbol is exactly 1 is a fixed point
        g = TorusGeometry.square(1)
        f = FrequencyField.character(g, 8, (2,))
        once = project(f, 4, "leq")
        twice = project(once, 4, "leq")
        assert np.allclose(once.coeffs, twice.coeffs)


class TestSynthesize:
    def test_delta_zero(self):
        g = TorusGeometry.square(2)
        f = FrequencyField.character(g, 3, (0, 0))
        assert synthesize(f, (0.37, 0.91)) == pytest.approx(1.0)

    def test_single_character_half_period(self):
        g = TorusGeometry.square(2)
        f = FrequencyField.character(g, 3, (1, 0))
        assert synthesize(f, (0.5, 0.0)) == pytest.approx(-1.0)

    def test_against_inverse_dft(self):
        # oracle: 8-point inverse DFT of the zero-padded coefficients, d=1, M=2
        g = TorusGeometry.square(1)
        f = random_field(g, 2, seed=1)
        n = 8
        spec = np.zeros(n, dtype=complex)
        for k in range(-2, 3):
            spec[k % n] = f.coeffs[k + 2]
        grid_vals = np.fft.ifft(spec) * n
        for m in range(n):
            assert synthesize(f, (m / n,)) == pytest.approx(grid_vals[m], abs=1e-12)

    def test_linearity(self):
        g = TorusGeometry.square(1)
        f1, f2 = random_field(g, 3, seed=2), random_field(g, 3, seed=3)
        h = f1.with_coeffs(2.0 * f1.coeffs - 1j * f2.coeffs)
        x = (0.123,)
        assert synthesize(h, x) == pytest.approx(
            2.0 * synthesize(f1, x) - 1j * synthesize(f2, x), abs=1e-12
        )

    def test_real_field_conjugate_symmetry(self):
        g = TorusGeometry.square(1)
        raw = random_field(g, 4, seed=4)
        sym = raw.coeffs + np.conj(raw.coeffs[::-1])  # fhat(-k) = conj(fhat(k))
        f = raw.with_coeffs(sym)
        for x in (0.1, 0.5, 0.77):
            assert abs(synthesize(f, (x,)).imag) < 1e-12


class TestSobolev:
    def test_delta_zero_h1(self):
        g = TorusGeometry.square(3)
        f = FrequencyField.character(g, 2, (0, 0, 0))
        assert sobolev_norm(f, 1) == pytest.approx(1.0)

    def test_first_mode_h1(self):
        g = TorusGeometry.square(3)
        f = FrequencyField.character(g, 2, (1, 0, 0))
        assert sobolev_norm(f, 1) == pytest.approx(np.sqrt(2.0))

    def test_plancherel(self):
        g = TorusGeometry.square(2)
        f = random_field(g, 5, seed=9)
        assert sobolev_norm(f, 0) == pytest.approx(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)), rel=1e-15)

    def test_s_restricted(self):
        g = TorusGeometry.square(1)
        f = FrequencyField.character(g, 1, (0,))
        with pytest.raises(ValueError):
            sobolev_norm(f, 0.5)


class TestModulusPower:
    @staticmethod
    def values():
        rng = np.random.default_rng(17)
        v = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
        return v * np.exp(rng.uniform(-5.0, 5.0, v.size))

    def test_even_powers_equal_product_chains(self):
        v = self.values()
        a = v.real**2 + v.imag**2
        sq = a * a
        chains = {2: a, 4: sq, 6: sq * a, 8: sq * sq, 16: (sq * sq) * (sq * sq)}
        for r, want in chains.items():
            assert np.array_equal(_modulus_power(v, r), want)
            assert np.array_equal(_modulus_power(v, float(r)), want)

    def test_other_powers(self):
        v = self.values()
        a = v.real**2 + v.imag**2
        for r in (2.5, 3, 5):
            assert np.array_equal(_modulus_power(v, r), a ** (r / 2.0))
        # r = 10, 12 moved from pow to products: a few ulp from the pow form
        for r in (10, 12):
            want = a ** (r / 2.0)
            assert np.all(np.abs(_modulus_power(v, r) - want) <= 4 * np.spacing(want))
        # against |v|**r both routes round, so the gap grows with r
        for r in (2.5, 3, 5, 10, 12):
            want = np.abs(v) ** r
            assert np.all(np.abs(_modulus_power(v, r) - want) <= 2 * r * 2.0**-52 * want)


class TestBoxOps:
    def test_field_validation(self):
        g = TorusGeometry.square(2)
        with pytest.raises(ValueError):
            FrequencyField(g, 2, np.zeros((5, 4)))


class TestFieldIO:
    def test_roundtrip(self, tmp_path):
        g = TorusGeometry(2, (1.0, 0.5))
        f = random_field(g, 4, seed=12)
        path = tmp_path / "field.fld"
        write_field(f, path)
        back = read_field(path)
        assert back.geometry == f.geometry
        assert back.box_radius == f.box_radius
        assert np.array_equal(back.coeffs, f.coeffs)
        # signed zeros in either part come back bit for bit
        coeffs = f.coeffs.copy()
        coeffs.flat[:4] = [complex(-0.0, 2.0), complex(0.0, -0.0), complex(-0.0, -0.0), -1.5 - 0.0j]
        write_field(FrequencyField(g, 4, coeffs), path)
        assert np.array_equal(read_field(path).coeffs.view(np.uint64), coeffs.view(np.uint64))

    def test_layout_is_header_plus_little_endian(self, tmp_path):
        g = TorusGeometry.square(1)
        f = FrequencyField.character(g, 1, (1,), amplitude=2.0 + 3.0j)
        path = tmp_path / "field.fld"
        write_field(f, path)
        raw = path.read_bytes()
        header, _, body = raw.partition(b"\n")
        assert b'"M": 1' in header
        vals = np.frombuffer(body, dtype="<f8")
        # k order: -1, 0, 1 -> the last pair carries (2, 3)
        assert vals.tolist() == [0.0, 0.0, 0.0, 0.0, 2.0, 3.0]
