"""Integral-map and split-step solvers: exact solutions, symmetry, conservation."""

import numpy as np
import pytest

from toruslab.core import FrequencyField, TorusGeometry, sobolev_norm
from toruslab.errors import GridTooCoarseError, NonContractionError
from toruslab.nls import (
    NlsProblem,
    Trajectory,
    conservation_report,
    contraction_factor,
    duhamel_apply,
    energy,
    free_trajectory,
    mass,
    nonlinearity,
    picard_solve,
    plane_wave_phase,
    split_step_evolve,
)


def cubic_geometry():
    return TorusGeometry.square(3)


def plane_wave_problem(amplitude, sign=+1, M=4, d=3):
    g = TorusGeometry.square(d)
    u0 = FrequencyField.character(g, M, (0,) * d, amplitude=amplitude)
    return NlsProblem(g, sign, u0)


def two_mode_problem(a, b, sign=+1, M=4, d=3):
    g = TorusGeometry.square(d)
    u0 = FrequencyField.zeros(g, M)
    u0.coeffs[u0.index_of((0,) * d)] = a
    u0.coeffs[u0.index_of((1,) + (0,) * (d - 1))] = b
    return NlsProblem(g, sign, u0)


def h1_distance(f, h):
    return sobolev_norm(f.with_coeffs(f.coeffs - h.coeffs), 1)


class TestProblemValidation:
    def test_dimension_guard(self):
        g = TorusGeometry.square(2)
        u0 = FrequencyField.character(g, 2, (0, 0))
        with pytest.raises(ValueError):
            NlsProblem(g, +1, u0)

    def test_sign_guard(self):
        g = cubic_geometry()
        u0 = FrequencyField.character(g, 2, (0, 0, 0))
        with pytest.raises(ValueError):
            NlsProblem(g, 2, u0)

    def test_exponents(self):
        assert plane_wave_problem(0.1, d=3).exponent == 4.0
        assert plane_wave_problem(0.1, d=4, M=2).exponent == 2.0


class TestNonlinearity:
    def test_zero(self):
        g = cubic_geometry()
        u = FrequencyField.zeros(g, 2)
        assert np.all(nonlinearity(u).coeffs == 0)

    def test_constant_quintic(self):
        g = cubic_geometry()
        amp = 0.7 + 0.2j
        u = FrequencyField.character(g, 2, (0, 0, 0), amplitude=amp)
        out = nonlinearity(u, sign=+1)
        expected = abs(amp) ** 4 * amp
        assert out.coeffs[u.index_of((0, 0, 0))] == pytest.approx(expected, rel=1e-12)
        mask = np.ones(out.coeffs.shape, dtype=bool)
        mask[u.index_of((0, 0, 0))] = False
        assert np.max(np.abs(out.coeffs[mask])) < 1e-14

    def test_character_cubic_d4(self):
        g = TorusGeometry.square(4)
        amp = 0.5 - 0.1j
        u = FrequencyField.character(g, 2, (1, 0, 0, 0), amplitude=amp)
        out = nonlinearity(u, sign=-1)
        expected = -abs(amp) ** 2 * amp
        assert out.coeffs[u.index_of((1, 0, 0, 0))] == pytest.approx(expected, rel=1e-12)

    def test_aliasing_guard(self):
        g = cubic_geometry()
        u = FrequencyField.character(g, 4, (0, 0, 0))
        with pytest.raises(GridTooCoarseError):
            nonlinearity(u, n_grid=16)  # needs 6 * 4 = 24

    def test_truncation_energy_reported(self):
        g = cubic_geometry()
        rng = np.random.default_rng(0)
        u = FrequencyField(g, 2, 0.5 * (rng.standard_normal((5, 5, 5)) + 1j * rng.standard_normal((5, 5, 5))))
        out, trunc = nonlinearity(u, return_truncation=True)
        assert trunc >= 0.0


class TestMassEnergy:
    def test_constant_field_values(self):
        # u = 1 on the 3-torus, defocusing: mass 1/2, energy (d-2)/(2d) = 1/6
        g = cubic_geometry()
        u = FrequencyField.character(g, 2, (0, 0, 0), amplitude=1.0)
        assert mass(u) == pytest.approx(0.5)
        assert energy(u, +1) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_zero_field(self):
        g = cubic_geometry()
        u = FrequencyField.zeros(g, 2)
        assert mass(u) == 0.0
        assert energy(u, +1) == 0.0

    def test_character_energy(self):
        # spectral gradient term (2 pi)^2/2 plus unimodular potential 1/6
        g = cubic_geometry()
        u = FrequencyField.character(g, 2, (1, 0, 0), amplitude=1.0)
        assert mass(u) == pytest.approx(0.5)
        assert energy(u, +1) == pytest.approx(0.5 * (2 * np.pi) ** 2 + 1.0 / 6.0, rel=1e-12)


class TestDuhamel:
    def test_zero_trajectory_gives_free_flow(self):
        prob = plane_wave_problem(0.3)
        n_t = 20
        times = np.arange(n_t + 1) * (0.1 / n_t)
        zero_states = [FrequencyField.zeros(prob.geometry, 4) for _ in times]
        zero_traj = Trajectory(times=times, states=zero_states)
        out = duhamel_apply(zero_traj, prob)
        free = free_trajectory(prob, 0.1, n_t)
        for s_out, s_free in zip(out.states, free.states):
            assert np.allclose(s_out.coeffs, s_free.coeffs, atol=1e-15)

    def test_zero_data_zero_trajectory(self):
        g = cubic_geometry()
        prob = NlsProblem(g, +1, FrequencyField.zeros(g, 4))
        traj = free_trajectory(prob, 0.1, 10)
        out = duhamel_apply(traj, prob)
        assert all(np.all(s.coeffs == 0) for s in out.states)

    def test_plane_wave_quadrature_second_order(self):
        # feed the exact orbit through the map; the residual is the trapezoid
        # error of e^{i omega s}, which quarters when dt halves
        A, sign = 0.5, +1
        prob = plane_wave_problem(A, sign)
        omega = -sign * A**4
        errs = []
        for n_t in (16, 32):
            times = np.arange(n_t + 1) * (0.25 / n_t)
            states = [
                FrequencyField.character(prob.geometry, 4, (0, 0, 0),
                                         amplitude=A * np.exp(1j * omega * t))
                for t in times
            ]
            out = duhamel_apply(Trajectory(times=times, states=states), prob)
            errs.append(max(h1_distance(a, b) for a, b in zip(out.states, states)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_time_step_guard(self):
        prob = plane_wave_problem(0.1, M=8)
        times = np.array([0.0, 0.5, 1.0])
        states = [prob.u0] * 3
        with pytest.raises(GridTooCoarseError):
            duhamel_apply(Trajectory(times=times, states=states), prob)


class TestPicard:
    def test_zero_data(self):
        g = cubic_geometry()
        prob = NlsProblem(g, +1, FrequencyField.zeros(g, 2))
        traj = picard_solve(prob, 0.1, 1e-2)
        assert traj.info["converged"]
        assert all(np.all(s.coeffs == 0) for s in traj.states)

    def test_plane_wave_regression(self):
        A = 0.5
        prob = plane_wave_problem(A)
        traj = picard_solve(prob, 0.25, 1e-3)
        target = A * plane_wave_phase(A, +1, 3, traj.times[-1])
        exact = FrequencyField.character(prob.geometry, 4, (0, 0, 0), amplitude=target)
        assert h1_distance(traj.states[-1], exact) <= 1e-8
        # the free guess alone misses by the accumulated nonlinear phase
        assert abs(complex(target) - A) > 1e-3

    def test_contraction_factors_small(self):
        prob = plane_wave_problem(0.1)
        traj = picard_solve(prob, 0.2, 2e-3)
        factors = [e["factor"] for e in traj.info["iterations"] if "factor" in e]
        assert factors and all(f < 0.5 for f in factors)

    def test_non_contraction_detected(self):
        prob = plane_wave_problem(1.6, M=2)
        with pytest.raises(NonContractionError):
            picard_solve(prob, 1.0, 1.0 / 64, max_iter=12)


class TestSplitStep:
    def test_zero_data(self):
        g = cubic_geometry()
        prob = NlsProblem(g, +1, FrequencyField.zeros(g, 2))
        traj = split_step_evolve(prob, 0.1, 1e-2)
        assert all(np.all(s.coeffs == 0) for s in traj.states)

    def test_linear_limit_matches_free_flow(self):
        # zero coupling skips the pointwise stage entirely; what remains is the
        # stepwise linear phase, equal to the one-shot free flow up to float
        # associativity of the accumulated phases
        g = cubic_geometry()
        rng = np.random.default_rng(1)
        u0 = FrequencyField(g, 2, 0.1 * (rng.standard_normal((5, 5, 5)) + 1j * rng.standard_normal((5, 5, 5))))
        prob = NlsProblem(g, +1, u0, coupling=0.0)
        traj = split_step_evolve(prob, 0.1, 1e-2)
        free = free_trajectory(prob, 0.1, 10)
        for a, b in zip(traj.states, free.states):
            assert np.allclose(a.coeffs, b.coeffs, atol=1e-13)

    def test_plane_wave_exact_orbit(self):
        # both splitting stages act as exact scalar phases on a plane wave
        A = 0.5
        prob = plane_wave_problem(A)
        traj = split_step_evolve(prob, 0.25, 1e-3)
        target = A * plane_wave_phase(A, +1, 3, 0.25)
        exact = FrequencyField.character(prob.geometry, 4, (0, 0, 0), amplitude=target)
        assert h1_distance(traj.states[-1], exact) <= 1e-10

    def test_second_order_self_convergence(self):
        # two interacting modes have no closed form; successive dt-halved
        # runs difference at ratio 4 for a second-order scheme
        prob = two_mode_problem(0.3, 0.15)
        ends = []
        for dt in (4e-3, 2e-3, 1e-3):
            traj = split_step_evolve(prob, 0.2, dt)
            ends.append(traj.states[-1])
        r = h1_distance(ends[0], ends[1]) / h1_distance(ends[1], ends[2])
        assert r == pytest.approx(4.0, abs=0.5)

    def test_blowup_guard_flags(self, monkeypatch):
        # mass conservation caps H1/L2 growth at sqrt(1 + d M^2) on a finite
        # box, so the 1e3 threshold is a pure safety net; exercise the abort
        # machinery at a reachable threshold
        monkeypatch.setattr("toruslab.nls.BLOWUP_FACTOR", 1.01)
        prob = two_mode_problem(3.0, 2.0, sign=-1, M=2)
        traj = split_step_evolve(prob, 0.25, 1.0 / 256)
        assert traj.info.get("flag") == "blowup"
        assert traj.times[-1] < 0.25
        assert len(traj.states) == traj.times.size


class TestSolverAgreement:
    def test_cross_validation(self):
        prob = two_mode_problem(0.1, 0.05)
        T, dt = 0.1, 2.5e-4
        a = picard_solve(prob, T, dt)
        b = split_step_evolve(prob, T, dt)
        assert h1_distance(a.states[-1], b.states[-1]) <= 1e-6

    def test_gauge_covariance(self):
        prob = two_mode_problem(0.2, 0.1)
        alpha = 0.7
        rotated = NlsProblem(
            prob.geometry, prob.sign,
            prob.u0.with_coeffs(np.exp(1j * alpha) * prob.u0.coeffs),
        )
        t1 = split_step_evolve(prob, 0.1, 1e-3)
        t2 = split_step_evolve(rotated, 0.1, 1e-3)
        diff = t2.states[-1].coeffs * np.exp(-1j * alpha) - t1.states[-1].coeffs
        assert np.max(np.abs(diff)) <= 1e-10

    def test_time_reversal_conjugation(self):
        # conj(u)(T - t) solves the same equation; the splitting is symmetric,
        # so integrating the conjugate endpoint forward returns the data
        prob = two_mode_problem(0.2, 0.1)
        T, dt = 0.1, 1e-3
        fwd = split_step_evolve(prob, T, dt)
        back_data = fwd.states[-1].with_coeffs(np.conj(fwd.states[-1].coeffs))
        back_prob = NlsProblem(prob.geometry, prob.sign, back_data)
        back = split_step_evolve(back_prob, T, dt)
        recovered = back.states[-1].with_coeffs(np.conj(back.states[-1].coeffs))
        assert h1_distance(recovered, prob.u0) <= 1e-9


class TestConservation:
    def test_free_character_flow_conserves_both(self):
        g = cubic_geometry()
        u0 = FrequencyField.character(g, 2, (1, 0, 0), amplitude=0.3)
        prob = NlsProblem(g, +1, u0)
        traj = free_trajectory(prob, 0.5, 50)
        rep = conservation_report(traj)
        assert rep["mass_drift"] <= 1e-10
        assert rep["energy_drift"] <= 1e-10

    def test_plane_wave_drifts(self):
        prob = plane_wave_problem(0.5)
        traj = split_step_evolve(prob, 0.25, 1e-3)
        rep = conservation_report(traj)
        assert rep["mass_drift"] <= 1e-8
        assert rep["energy_drift"] <= 1e-8

    def test_small_data_h1_window(self):
        prob = two_mode_problem(0.01, 0.002)
        traj = split_step_evolve(prob, 0.1, 1e-3)
        lo, hi = conservation_report(traj)["h1_equivalence_ratio"]
        assert 0.25 <= lo <= hi <= 4.0

    def test_requires_diagnostics(self):
        g = cubic_geometry()
        u0 = FrequencyField.character(g, 2, (0, 0, 0))
        traj = Trajectory(times=np.array([0.0]), states=[u0])
        with pytest.raises(ValueError):
            conservation_report(traj)


class TestContractionScaling:
    def test_quintic_slope(self):
        amps = [1e-3, 1e-2, 1e-1]
        factors = [
            contraction_factor(plane_wave_problem(a), T=0.1, dt=2e-3) for a in amps
        ]
        slope = np.polyfit(np.log(amps), np.log(factors), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_cubic_slope_d4(self):
        amps = [1e-3, 1e-2, 1e-1]
        factors = [
            contraction_factor(plane_wave_problem(a, d=4, M=3), T=0.1, dt=4e-3)
            for a in amps
        ]
        slope = np.polyfit(np.log(amps), np.log(factors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)


class TestDiagnostics:
    def test_diagnostic_arrays_aligned(self):
        prob = plane_wave_problem(0.2)
        traj = split_step_evolve(prob, 0.05, 1e-3)
        for key in ("mass", "energy", "h1", "linf"):
            assert traj.diagnostics[key].shape == traj.times.shape

    @pytest.mark.parametrize("d", [3, 4])
    def test_mass_energy_match_public_functions(self, d):
        g = TorusGeometry(d, (1.0, 0.7071067811865476, 0.3, 0.9)[:d])
        rng = np.random.default_rng(40 + d)
        shape = (5,) * d
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u0 = FrequencyField(g, 2, 0.05 * c / np.sqrt(np.sum(np.abs(c) ** 2)))
        for sign in (1, -1):
            traj = split_step_evolve(NlsProblem(g, sign, u0), 0.004, 1e-3)
            for i, state in enumerate(traj.states):
                assert traj.diagnostics["mass"][i] == mass(state)
                assert traj.diagnostics["energy"][i] == energy(state, sign)

    def test_linf_constant_for_plane_wave(self):
        prob = plane_wave_problem(0.2)
        traj = split_step_evolve(prob, 0.05, 1e-3)
        assert np.allclose(traj.diagnostics["linf"], 0.2, atol=1e-12)
