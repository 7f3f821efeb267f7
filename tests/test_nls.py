"""Integral-map and split-step solvers: exact solutions, symmetry, conservation."""

import tracemalloc
import warnings

import numpy as np
import pytest

from toruslab.core import FrequencyField, TorusGeometry, _dispersion_symbol, sobolev_norm
from toruslab.errors import GridTooCoarseError, NonContractionError
from toruslab.nls import (
    NlsProblem,
    _batch_rows,
    _duhamel_matrix,
    _flow_phases,
    _free_matrix,
    _nonlinearity_rows,
    Trajectory,
    compute_diagnostics,
    conservation_report,
    contraction_factor,
    energy,
    grid_size,
    live_cells,
    mass,
    nonlinearity,
    picard_solve,
    plane_wave_phase,
    split_step_evolve,
)
from toruslab.propagator import _synthesize, free_evolve

from test_propagator import box_flat, full_grid_analyze, full_grid_synthesize


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


def random_problem(d, M, scale, seed, sign=+1):
    g = TorusGeometry(d, (1.0, 0.7071067811865476, 0.3, 0.9)[:d])
    rng = np.random.default_rng(seed)
    shape = (2 * M + 1,) * d
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return NlsProblem(g, sign, FrequencyField(g, M, scale * c / np.sqrt(np.sum(np.abs(c) ** 2))))


def full_grid_values(u, n):
    return full_grid_synthesize(u.coeffs.reshape(1, -1), u.geometry.d, u.box_radius, n)[0]


def truncated_energy(u):
    """Energy the round trip of nonlinearity(u) discards outside the box."""
    d, M = u.geometry.d, u.box_radius
    _, trunc = _nonlinearity_rows(u.coeffs.reshape(1, -1), u.geometry, M, 1, 1.0, grid_size(d, M))
    return float(trunc[0])


def free_rows(prob, times):
    """Coefficient rows of the free flow of the data at each time."""
    return _free_matrix(prob, _flow_phases(prob, times)[0])


def duhamel_rows(prob, times, U):
    """One application of the integral map to the trajectory rows U."""
    return _duhamel_matrix(U, prob, times, _flow_phases(prob, times))[0]


def discarded_energy(w, M):
    """Energy of the modes of grid values w outside the box, from one full-grid fftn."""
    n, d = w.shape[0], w.ndim
    spec = (np.abs(np.fft.fftn(w) / n**d) ** 2).ravel()
    spec[box_flat(d, M, n)] = 0.0
    return float(np.sum(spec))


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
        with pytest.raises(TypeError):
            nonlinearity(u, 3, -1)  # the old (u, d, sign) positional form

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

    def test_truncation_energy_reported(self):
        # the reported value is the energy of the modes the box discards
        for d, M in ((3, 2), (3, 4), (4, 2)):
            u = random_problem(d, M, 0.5, seed=d + M).u0
            trunc = truncated_energy(u)
            vals = full_grid_values(u, 6 * M if d == 3 else 4 * M)
            want = discarded_energy(np.abs(vals) ** (4 / (d - 2)) * vals, M)
            assert want > 0
            assert trunc == pytest.approx(want, rel=1e-12)


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
        out = duhamel_rows(prob, times, np.zeros((times.size, prob.u0.coeffs.size), dtype=complex))
        for row, t in zip(out, times):
            assert np.allclose(row, free_evolve(prob.u0, t).coeffs.ravel(), atol=1e-15)

    def test_zero_data_zero_trajectory(self):
        g = cubic_geometry()
        prob = NlsProblem(g, +1, FrequencyField.zeros(g, 4))
        times = np.arange(11) * (0.1 / 10)
        assert np.all(duhamel_rows(prob, times, free_rows(prob, times)) == 0)

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
            out = duhamel_rows(prob, times, np.stack([s.coeffs.ravel() for s in states]))
            errs.append(max(
                h1_distance(s.with_coeffs(row.reshape(s.coeffs.shape)), s) for row, s in zip(out, states)
            ))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_time_step_guard(self):
        # dt = 0.5 exceeds the guard 1/M^2 at M = 8 in both solvers
        prob = plane_wave_problem(0.1, M=8)
        for solve in (picard_solve, split_step_evolve):
            with pytest.raises(GridTooCoarseError, match="stability guard"):
                solve(prob, 1.0, 0.5)


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

    def test_log_entries(self):
        traj = picard_solve(plane_wave_problem(0.1), 0.2, 2e-3)
        log = traj.info["iterations"]
        assert len(log) >= 2
        for it, entry in enumerate(log, start=1):
            assert entry["iteration"] == it
            assert set(entry) == {"iteration", "d_h1"} | ({"factor"} if it > 1 else set())

    def test_overflow_raises_without_warnings(self):
        # the nls-run data gaussian:20 (seed 0) at N=2: the iterates overflow,
        # and the guard, not a numpy warning, reports it
        g = cubic_geometry()
        rng = np.random.default_rng(0)
        c = rng.standard_normal((5, 5, 5)) + 1j * rng.standard_normal((5, 5, 5))
        u0 = FrequencyField(g, 2, 20.0 * c / np.sqrt(np.sum(np.abs(c) ** 2)))
        prob = NlsProblem(g, +1, u0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonContractionError, match="not finite"):
                picard_solve(prob, 0.25, 0.01)

    def test_non_contraction_detected(self):
        prob = plane_wave_problem(1.6, M=2)
        with pytest.raises(NonContractionError):
            picard_solve(prob, 1.0, 1.0 / 64, max_iter=12)

    def test_iteration_cap_raises_non_contraction(self):
        prob = plane_wave_problem(0.1)
        with pytest.raises(NonContractionError, match="no fixed point within 1 iterations"):
            picard_solve(prob, 0.05, 1e-2, max_iter=1)
        with pytest.raises(ValueError, match="max_iter"):
            picard_solve(prob, 0.05, 1e-2, max_iter=0)


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
        assert traj.times.size == 11
        for t, a in zip(traj.times, traj.states):
            assert np.allclose(a.coeffs, free_evolve(u0, t).coeffs, atol=1e-13)

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
        times = np.arange(51) * (0.5 / 50)
        traj = Trajectory(times, free_rows(prob, times), g, 2)
        traj.diagnostics = compute_diagnostics(traj, prob)
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
        traj = Trajectory(np.array([0.0]), u0.coeffs.reshape(1, -1), g, 2)
        with pytest.raises(ValueError):
            conservation_report(traj)


class TestTrajectory:
    def test_states_are_views_of_the_rows(self):
        prob = two_mode_problem(0.2, 0.1, M=2)
        traj = split_step_evolve(prob, 0.01, 1e-3)
        assert traj.rows.shape == (traj.times.size, 5**3)
        states = traj.states
        assert len(states) == traj.times.size
        for i, state in enumerate(states):
            assert (state.geometry, state.box_radius) == (prob.geometry, 2)
            assert state.coeffs.shape == (5, 5, 5)
            assert np.shares_memory(state.coeffs, traj.rows)
            assert np.array_equal(state.coeffs.ravel(), traj.rows[i])

    def test_one_row_per_time(self):
        g = cubic_geometry()
        with pytest.raises(ValueError, match="one coefficient row per time"):
            Trajectory(np.array([0.0, 0.1]), np.zeros((1, 5**3), dtype=complex), g, 2)
        with pytest.raises(ValueError, match="one coefficient row per time"):
            Trajectory(np.array([0.0]), np.zeros((1, 4**3), dtype=complex), g, 2)
        with pytest.raises(ValueError, match="start at t = 0"):
            Trajectory(np.array([0.1]), np.zeros((1, 5**3), dtype=complex), g, 2)


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

    @pytest.mark.parametrize("d", [3, 4])
    def test_batched_diagnostics_match_per_state_loop(self, d):
        # 41 states: more than one chunk of synthesized grids
        prob = random_problem(d, 2, 0.1, seed=50 + d, sign=-1)
        traj = split_step_evolve(prob, 0.04, 1e-3)
        n = prob.grid_size
        assert len(traj.states) > _batch_rows(d, n)
        for i, state in enumerate(traj.states):
            vals = _synthesize(state.coeffs.reshape(1, -1), d, 2, n)[0]
            assert traj.diagnostics["mass"][i] == mass(state)
            assert traj.diagnostics["energy"][i] == energy(state, -1)
            assert traj.diagnostics["h1"][i] == sobolev_norm(state, 1)
            assert traj.diagnostics["linf"][i] == float(np.max(np.abs(vals)))


class TestTruncatedEnergyRecord:
    @pytest.mark.parametrize("d", [3, 4])
    def test_split_step_records_largest_round_trip(self, d):
        # one step is two round trips; replay both on the full grid
        M, dt = 2, 1e-3
        prob = random_problem(d, M, 0.5, seed=60 + d)
        traj = split_step_evolve(prob, dt, dt)
        n, expo = prob.grid_size, 4 / (d - 2)
        lin = np.exp(-2j * np.pi * dt * _dispersion_symbol(prob.geometry, M))
        u, want = prob.u0, []
        for phase in (lin, 1.0):
            vals = full_grid_values(u, n)
            w = vals * np.exp(-1j * (dt / 2) * np.abs(vals) ** expo)
            want.append(discarded_energy(w, M))
            u = u.with_coeffs(full_grid_analyze(w[None], d, M, n)[0].reshape(u.coeffs.shape) * phase)
        assert min(want) > 0
        assert traj.info["max_truncated_energy"] == pytest.approx(max(want), rel=1e-12)

    def test_picard_records_last_iteration(self):
        # at the fixed point the last iterate's round trips are those of the final states
        prob = random_problem(3, 2, 0.5, seed=70)
        traj = picard_solve(prob, 0.004, 1e-3)
        want = max(truncated_energy(s) for s in traj.states)
        assert want > 0
        assert traj.info["max_truncated_energy"] == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("d", [3, 4])
    def test_character_records_nothing(self, d):
        amp = 0.5
        u0 = FrequencyField.character(TorusGeometry.square(d), 2, (1,) + (0,) * (d - 1), amplitude=amp)
        prob = NlsProblem(u0.geometry, +1, u0)
        split = split_step_evolve(prob, 0.004, 1e-3)
        picard = picard_solve(prob, 0.004, 1e-3)
        # totals: mean |w|^2 of the rotated grid (|u|^2) and of |u|^(4/(d-2)) u
        assert 0.0 <= split.info["max_truncated_energy"] <= 1e-14 * amp**2
        assert 0.0 <= picard.info["max_truncated_energy"] <= 1e-14 * amp ** (2 + 8 / (d - 2))


class TestLiveCells:
    @pytest.mark.parametrize("solver", ["splitstep", "picard"])
    @pytest.mark.parametrize("d, M, T", [(3, 4, 0.05), (3, 8, 0.012), (4, 4, 0.02)])
    def test_count_bounds_the_traced_peak(self, solver, d, M, T):
        # nls-run --budget compares live_cells with the budget: the solve's
        # traced peak, diagnostics included, must not exceed it
        dt = 1e-3
        prob = random_problem(d, M, 0.25, seed=3)
        solve = picard_solve if solver == "picard" else split_step_evolve
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve(prob, T, dt)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16 * live_cells(d, M, T, dt, solver)
