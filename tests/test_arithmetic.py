"""Rational certificates, Farey atoms, divisor windows, arc membership."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab.arithmetic import (
    MajorArcParams,
    RationalApprox,
    dirichlet_approx,
    dirichlet_approx_batch,
    divisor_count_dyadic,
    f2_hat,
    farey_atoms,
    in_major_arc,
    major_arc_mask,
)
from toruslab.core import TorusGeometry
from toruslab.dispersive import (
    check_diff_bound,
    farey_midpoint_times,
    sweep_time_grid,
)

DYADIC_LEVELS = st.sampled_from([4, 16, 64, 256, 1024, 4096])
SIGMAS = st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True)
GEOMETRIES = [TorusGeometry.square(1), TorusGeometry(2, (1.0, 1.0 / math.sqrt(2.0)))]


def euler_phi(q: int) -> int:
    return sum(1 for a in range(q) if math.gcd(a, q) == 1)


def dirichlet_scan(beta: float, N: int) -> tuple[int, int] | None:
    """Exact oracle: smallest q < N with |q beta - a| <= 1/N, then smallest a.

    Only a = floor(q beta) and floor(q beta) + 1 can pass, since 1/N <= 1/2.
    """
    b = Fraction(beta)
    for q in range(1, N):
        lo = math.floor(b * q)
        for a in (lo, lo + 1):
            if abs(b * q - a) * N <= 1:
                return a, q
    return None


def arc_witness(t: float, N: int, sigma: float, theta: float) -> tuple[int, int] | None:
    """Exact arc definition for one coordinate: smallest q <= N^(2 sigma) with an
    integer a such that q N^2 |x - a/q| <= N^(2 sigma), x = theta t mod 1."""
    thr = Fraction(float(N) ** (2.0 * sigma))
    x = Fraction(theta) * Fraction(t) % 1
    for q in range(1, math.floor(thr) + 1):
        a = round(x * q)
        if N * N * abs(x * q - a) <= thr:
            return a, q
    return None


def arc_definition(t: float, N: int, sigma: float, geometry: TorusGeometry):
    for j, theta in enumerate(geometry.theta, start=1):
        hit = arc_witness(t, N, sigma, theta)
        if hit is not None:
            return j, *hit
    return None


class TestDirichlet:
    def test_zero(self):
        r = dirichlet_approx(0.0, 4)
        assert (r.a, r.q) == (0, 1) and r.gap == 0.0

    def test_exact_third(self):
        r = dirichlet_approx(1.0 / 3.0, 10)
        assert (r.a, r.q) == (1, 3)

    def test_near_sqrt2_over_2(self):
        # exhaustive search over q < 5 certifies (1, 2) as the smallest denominator
        r = dirichlet_approx(0.41421356, 5)
        assert (r.a, r.q) == (1, 2)
        assert r.gap <= 1.0 / 5

    def test_beta_one_and_reduction(self):
        assert (dirichlet_approx(1.0, 8).a, dirichlet_approx(1.0, 8).q) == (1, 1)
        r = dirichlet_approx(2.25, 8)  # reduced mod 1 to 0.25
        assert (r.a, r.q) == (1, 4)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            dirichlet_approx(0.5, 1)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError):
            dirichlet_approx(beta, 8)
        with pytest.raises(ValueError):
            dirichlet_approx_batch(np.array([0.5, beta]), 8)

    @pytest.mark.parametrize(
        "beta, N, expected",
        [(0.375, 8, (1, 3)), (0.6875, 16, (2, 3)), (0.1875, 16, (1, 5)), (0.34375, 32, (1, 3))],
    )
    def test_certificate_on_its_bound(self, beta, N, expected):
        # each expected a/q has |q beta - a| = 1/N exactly
        a, q = expected
        assert abs(Fraction(beta) * q - a) * N == 1
        r = dirichlet_approx(beta, N)
        assert (r.a, r.q) == expected == dirichlet_scan(beta, N)
        ab, qb = dirichlet_approx_batch(np.array([beta]), N)
        assert (ab[0], qb[0]) == expected

    def test_dyadic_betas_match_exact_scan(self):
        betas = sorted({m / 2**k for k in range(9) for m in range(2**k + 1)})
        for N in (2**j for j in range(1, 13)):
            a, q = dirichlet_approx_batch(np.array(betas), N)
            for i, beta in enumerate(betas):
                want = dirichlet_scan(beta, N)
                r = dirichlet_approx(beta, N)
                assert (r.a, r.q) == (a[i], q[i]) == want, (beta, N)

    @settings(max_examples=300, deadline=None)
    @given(beta=st.floats(min_value=0.0, max_value=1.0), N=DYADIC_LEVELS)
    def test_certificate_and_minimality(self, beta, N):
        r = dirichlet_approx(beta, N)
        assert 1 <= r.q < N and 0 <= r.a <= r.q
        assert math.gcd(r.a, r.q) == 1
        assert abs(Fraction(beta) * r.q - r.a) * N <= 1
        assert (r.a, r.q) == dirichlet_scan(beta, N)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        betas = rng.random(500)
        for N in (4, 16, 64):
            a, q = dirichlet_approx_batch(betas, N)
            for i in range(betas.size):
                r = dirichlet_approx(betas[i], N)
                assert (r.a, r.q) == (a[i], q[i])

    def test_batch_reduces_mod_one_as_scalar(self):
        # a beta outside [0, 1] gets the certificate of its reduction mod 1
        betas = np.array([1.5, -0.25, 2.7])
        a, q = dirichlet_approx_batch(betas, 16)
        want = [dirichlet_approx(b, 16) for b in betas]
        assert [(int(x), int(y)) for x, y in zip(a, q)] == [(r.a, r.q) for r in want]
        assert [(r.a, r.q) for r in want] == [(1, 2), (3, 4), (7, 10)]

    def test_type_invariants_enforced(self):
        with pytest.raises(ValueError):
            RationalApprox(a=2, q=4, beta=0.5, N=8)  # not reduced
        with pytest.raises(ValueError):
            RationalApprox(a=0, q=1, beta=0.9, N=8)  # certificate fails


class TestFarey:
    def test_q1(self):
        assert farey_atoms(1) == [Fraction(0, 1)]

    def test_q2(self):
        assert farey_atoms(2) == [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]

    def test_totient_count(self):
        for Q in (2, 4, 8):
            expected = sum(euler_phi(q) for q in range(Q, 2 * Q))
            assert len(farey_atoms(Q)) == expected

    def test_sorted_distinct(self):
        atoms = farey_atoms(8)
        assert atoms == sorted(set(atoms))

    def test_pairwise_separation(self):
        # reduced fractions with denominators in [Q, 2Q) differ by > 1/(2Q)^2
        for Q in (2, 4, 8):
            xs = np.array([float(x) for x in farey_atoms(Q)])
            gaps = np.diff(xs)
            assert np.all(gaps > 1.0 / (2 * Q) ** 2)

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            farey_atoms(3)


class TestDivisorCounts:
    def test_window_one(self):
        for n in (1, 7, 100, 9973):
            assert divisor_count_dyadic(n, 1) == 1

    def test_twelve(self):
        assert divisor_count_dyadic(12, 2) == 2  # divisors 2, 3
        assert divisor_count_dyadic(12, 4) == 2  # divisors 4, 6

    def test_against_sieve(self):
        # independent oracle: sieve increments at multiples of each window member
        R = 3000
        for Q in (1, 2, 4, 8, 16):
            counts = np.zeros(R + 1, dtype=int)
            for q in range(Q, 2 * Q):
                counts[q::q] += 1
            for n in range(1, R + 1):
                assert divisor_count_dyadic(n, Q) == counts[n]

    @settings(max_examples=200, deadline=None)
    @given(
        omega=st.integers(min_value=-(10**4), max_value=10**4),
        Q=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    )
    def test_f2_hat_bounds(self, omega, Q):
        v = f2_hat(omega, Q)
        assert v <= (2 * Q) ** 2
        if omega != 0:
            assert v <= 2 * Q * divisor_count_dyadic(abs(omega), Q)

    def test_f2_hat_bounds_exhaustive(self):
        # vectorized independent route over the full stated range
        omegas = np.arange(1, 10**4 + 1)
        for Q in (1, 2, 4, 8, 16, 32, 64):
            f2 = np.zeros(omegas.size, dtype=np.int64)
            d_q = np.zeros(omegas.size, dtype=np.int64)
            for q in range(Q, 2 * Q):
                hit = omegas % q == 0
                f2[hit] += q
                d_q[hit] += 1
            assert np.all(f2 <= 2 * Q * d_q)
            assert np.all(f2 <= 4 * Q**2)
            assert f2_hat(0, Q) <= 4 * Q**2
            for w in (1, 64, 5040, 9973):
                assert f2_hat(w, Q) == f2[w - 1]
                assert f2_hat(-w, Q) == f2[w - 1]

    def test_f2_hat_values(self):
        assert all(f2_hat(w, 1) == 1 for w in (-5, 1, 17))
        assert f2_hat(6, 2) == 5
        assert f2_hat(5, 4) == 5
        assert f2_hat(0, 4) == 4 + 5 + 6 + 7

    def test_huge_windows_and_numbers_return_at_once(self):
        # the shorter of the window scan and trial division up to isqrt(n) runs,
        # and omega = 0 sums the window as an arithmetic series
        Q = 2**40
        assert f2_hat(5, Q) == 0
        assert f2_hat(0, Q) == (Q + (2 * Q - 1)) * Q // 2
        assert divisor_count_dyadic(10**18, 2) == 1  # 2 divides, 3 does not
        # 2^30 and 3 * 2^29 are the divisors in [2^30, 2^31), found from their cofactors
        assert f2_hat(3 * 2**30, 2**30) == 2**30 + 3 * 2**29
        assert divisor_count_dyadic(3 * 2**30, 2**30) == 2

    def test_f2_hat_exponential_sum_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            omega = int(rng.integers(-(10**4), 10**4))
            Q = 2 ** int(rng.integers(0, 7))
            direct = sum(
                np.sum(np.exp(2j * np.pi * np.arange(q) * omega / q))
                for q in range(Q, 2 * Q)
            )
            assert abs(direct.imag) < 1e-9
            assert abs(f2_hat(omega, Q) - direct.real) < 1e-9


class TestMajorArc:
    def test_zero_time(self):
        g = TorusGeometry.square(1)
        inside, witness = in_major_arc(0.0, MajorArcParams(sigma=0.25, N=16), g)
        assert inside and witness == (1, 0, 1)

    def test_half_time_inside(self):
        g = TorusGeometry.square(1)
        inside, witness = in_major_arc(0.5, MajorArcParams(sigma=0.25, N=16), g)
        assert inside and witness[2] == 2

    def test_farthest_point_outside(self):
        # scan for the time farthest from every a/q with q <= N^(2 sigma) = 4
        g = TorusGeometry.square(1)
        params = MajorArcParams(sigma=0.25, N=16)
        rationals = np.unique(
            [a / q for q in range(1, 5) for a in range(q + 1) if math.gcd(a, q) == 1]
        )
        grid = np.linspace(0, 1, 20001)
        dist = np.min(np.abs(grid[:, None] - rationals[None, :]), axis=1)
        t_far = float(grid[np.argmax(dist)])
        inside, witness = in_major_arc(t_far, params, g)
        assert not inside and witness is None

    def test_mask_matches_scalar(self):
        g = TorusGeometry(2, (1.0, 0.7071067811865476))
        rng = np.random.default_rng(2)
        ts = rng.random(400)
        for N in (16, 64):
            params = MajorArcParams(sigma=0.1, N=N)
            mask = major_arc_mask(ts, params, g)
            for i, t in enumerate(ts):
                assert mask[i] == in_major_arc(t, params, g)[0]

    def test_arc_fraction_nonincreasing(self):
        g = TorusGeometry.square(1)
        ts = np.arange(100000) / 100000.0
        fracs = []
        for N in (16, 32, 64, 128, 256):
            mask = major_arc_mask(ts, MajorArcParams(sigma=0.1, N=N), g)
            fracs.append(np.mean(mask))
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    @settings(max_examples=200, deadline=None)
    @given(
        sigma=SIGMAS,
        N=st.sampled_from([2**j for j in range(1, 13)]),
        ts=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
        geometry=st.sampled_from(GEOMETRIES),
    )
    def test_membership_is_the_definition(self, sigma, N, ts, geometry):
        params = MajorArcParams(sigma=sigma, N=N)
        mask = major_arc_mask(np.array(ts), params, geometry)
        for t, m in zip(ts, mask):
            want = arc_definition(t, N, sigma, geometry)
            inside, witness = in_major_arc(t, params, geometry)
            assert inside == m == (want is not None)
            assert witness == want

    @settings(max_examples=25, deadline=None)
    @given(
        sigma=SIGMAS,
        N=st.sampled_from([2, 4, 8, 16]),
        geometry=st.sampled_from(GEOMETRIES),
    )
    def test_split_and_diff_bound_share_the_arc_set(self, sigma, N, geometry):
        # the sweep splits its times into arc and off-arc ones by the definition
        res = check_diff_bound(N, sigma, geometry, n_t=64, n_x=8 * N)
        mids = farey_midpoint_times(N, sigma, geometry)
        ts = np.union1d(sweep_time_grid(N, geometry, n_t=64), mids)
        off = [t_ for t_ in ts if arc_definition(float(t_), N, sigma, geometry) is None]
        assert res.offarc_fraction == len(off) / ts.size
        assert res.degenerate == (not off)
        if off:
            assert res.t_at_sup in off

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MajorArcParams(sigma=0.6, N=16)
        with pytest.raises(ValueError):
            MajorArcParams(sigma=0.1, N=3)
