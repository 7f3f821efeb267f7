"""Energy-critical nonlinear Schrodinger flow on rectangular tori (d = 3, 4).

    i u_t + Delta u = sign * |u|^(4/(d-2)) u,   Delta = sum_j theta_j d_j^2

Two independent integrators are provided: a fixed-point iteration of the
integral (Duhamel) map with composite-trapezoid quadrature, and a Strang
split-step scheme.  Both are second order in dt and are cross-validated in the
tests.  The fixed-point iteration builds each iterate's flowed-back
nonlinearity and its trapezoid in one work matrix, and logs the sup-in-time
H1 norm of each correction.  The nonlinearity is evaluated pseudo-spectrally
on a grid of DEALIAS_FACTOR[d] * M points per axis for box radius M: 6M for
d = 3, 4M for d = 4.  That grid is one point short of alias-free: quintic
products reach +-5M and 5M = -M (mod 6M), cubic products in d = 4 reach
+-3M and 3M = -M (mod 4M), so products of modes near the box edge alias back
into the box.  This is an open defect (ROADMAP.md, item 1).

Each round trip synthesizes the box onto the grid one axis at a time
(propagator._synthesize) and analyzes back with the mirror primitive
(propagator._analyze), which keeps only the box slice after each axis pass;
both transform only the FFT pencils that carry box modes and give the bits
of the full-grid transforms.  The energy a round trip discards outside the
box is reported: the solvers keep its largest value in
Trajectory.info["max_truncated_energy"].

Conserved quantities (mass, theta-weighted energy) and the Sobolev norm are
tracked per time step; their drift is the primary solver diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FrequencyField, TorusGeometry, _dispersion_symbol, _modulus_power, sobolev_norm
from .errors import GridTooCoarseError, NonContractionError
from .propagator import _analyze, _synthesize

#: Pseudo-spectral grid multiple of the box radius per dimension.
DEALIAS_FACTOR = {3: 6, 4: 4}

#: Time-step guard constant: dt <= STABILITY_GUARD / (theta_max * M^2).
STABILITY_GUARD = 1.0

#: Abort threshold for the split-step blow-up guard, relative to the initial H1 norm.
BLOWUP_FACTOR = 1.0e3

#: Grid cells per batched round trip (at least one row): about 1 MiB of complex values.
BATCH_CELLS = 1 << 16


@dataclass(frozen=True)
class NlsProblem:
    """Equation data: geometry, defocusing(+1)/focusing(-1) sign, and initial field.

    coupling scales the nonlinear term; 0 gives the free flow (useful as the
    linear limit of the integrators), 1 is the equation proper.
    """

    geometry: TorusGeometry
    sign: int
    u0: FrequencyField
    coupling: float = 1.0

    def __post_init__(self):
        if self.geometry.d not in (3, 4):
            raise ValueError(f"solver supports d in {{3, 4}}, got d={self.geometry.d}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 (defocusing) or -1 (focusing), got {self.sign}")
        if self.u0.geometry != self.geometry:
            raise ValueError("initial data geometry mismatch")
        if not np.all(np.isfinite(self.u0.coeffs)):
            raise ValueError("initial data must be finite")

    @property
    def d(self) -> int:
        return self.geometry.d

    @property
    def exponent(self) -> float:
        return 4.0 / (self.d - 2)

    @property
    def grid_size(self) -> int:
        return grid_size(self.d, self.u0.box_radius)


@dataclass
class Trajectory:
    """Discrete solution record: states at increasing times plus diagnostics.

    rows holds the states' coefficient boxes, one flattened row per time,
    as the solvers build them; states are FrequencyField views of the rows.
    """

    times: np.ndarray
    rows: np.ndarray
    geometry: TorusGeometry
    box_radius: int
    diagnostics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if self.rows.shape != (self.times.size, (2 * self.box_radius + 1) ** self.geometry.d):
            raise ValueError("one coefficient row per time sample required")

    @property
    def states(self) -> list[FrequencyField]:
        shape = (2 * self.box_radius + 1,) * self.geometry.d
        return [FrequencyField(self.geometry, self.box_radius, row.reshape(shape)) for row in self.rows]


def grid_size(d: int, M: int) -> int:
    """Pseudo-spectral grid points per axis for box radius M: DEALIAS_FACTOR[d] * M."""
    return DEALIAS_FACTOR[d] * M


def live_cells(d: int, M: int, T: float, dt: float, solver: str) -> int:
    """Complex cells a solve of [0, T] at step dt holds at its peak (nls-run --budget).

    Split-step: its trajectory.  Picard: six trajectories (both flow phases,
    the iterate, the work matrix that holds the flowed-back nonlinearity and
    then its integral, and either the trapezoid's one temporary or the next
    iterate together with the difference).  Both: four grids per row of a
    batch (the diagnostics' or the nonlinearity's), which also covers a
    split-step half-step.  Measured with tracemalloc on top of the
    trajectories: a half-step 3.1-3.5 grids, a batch 1.6-2.6 grids per row
    for split-step and about 3.2 for Picard.
    """
    n, n_states = grid_size(d, M), max(int(round(T / dt)), 1) + 1
    trajectory = n_states * (2 * M + 1) ** d
    grids = 4 * min(_batch_rows(d, n), n_states) * n**d
    return (6 * trajectory if solver == "picard" else trajectory) + grids


def _batch_rows(d: int, n_grid: int) -> int:
    """Rows per batch so one batch's grids hold about BATCH_CELLS cells."""
    return max(1, BATCH_CELLS // n_grid**d)


def _grid_to_rows(vals: np.ndarray, d: int, M: int, n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Analyze grid values back to box coefficients; also return truncated energy.

    The truncated energy of a grid is mean |v|^2 minus the energy of the kept
    modes: by Parseval, the energy of the modes the box discards.
    """
    rows = _analyze(vals, d, M, n_grid)
    total = np.mean(np.abs(vals.reshape(vals.shape[0], -1)) ** 2, axis=1)
    kept = np.sum(np.abs(rows) ** 2, axis=1)
    return rows, np.maximum(total - kept, 0.0)


def _nonlinearity_rows(
    U: np.ndarray,
    geometry: TorusGeometry,
    M: int,
    sign: int,
    coupling: float,
    n_grid: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-spectral sign*coupling*|u|^(4/(d-2)) u for a stack of coefficient rows."""
    d = geometry.d
    expo = 4.0 / (d - 2)
    out = np.empty_like(U)
    trunc = np.empty(U.shape[0])
    chunk = _batch_rows(d, n_grid)
    for lo in range(0, U.shape[0], chunk):
        vals = _synthesize(U[lo : lo + chunk], d, M, n_grid)
        factor = (coupling * sign) * _modulus_power(vals, expo)
        parts = vals.view(np.float64).reshape(vals.shape + (2,))
        parts *= factor[..., None]  # the real factor scales both parts: no complex product
        out[lo : lo + chunk], trunc[lo : lo + chunk] = _grid_to_rows(vals, d, M, n_grid)
    return out, trunc


def nonlinearity(u: FrequencyField, *, sign: int = 1) -> FrequencyField:
    """Pointwise power nonlinearity sign*|u|^(4/(d-2))*u, dealiased and re-boxed.

    The grid holds DEALIAS_FACTOR[d] points per box radius (see the module
    docstring for the aliasing this leaves).
    """
    d = u.geometry.d
    if d not in (3, 4):
        raise ValueError(f"nonlinearity defined for d in {{3, 4}}, got {d}")
    M = u.box_radius
    rows, _ = _nonlinearity_rows(
        u.coeffs.ravel()[None, :], u.geometry, M, sign, 1.0, grid_size(d, M)
    )
    return u.with_coeffs(rows[0].reshape(u.coeffs.shape))


def mass(u: FrequencyField) -> float:
    """(1/2) integral of |u|^2; exact via Plancherel."""
    return 0.5 * float(np.sum(np.abs(u.coeffs) ** 2))


def energy(u: FrequencyField, sign: int) -> float:
    """(1/2) integral sum_j theta_j |d_j u|^2 +- ((d-2)/(2d)) integral |u|^(2d/(d-2)).

    The gradient term is spectral and exact; the potential term is a grid
    quadrature on the dealiasing grid.
    """
    d = u.geometry.d
    if d not in (3, 4):
        raise ValueError("energy defined for d in {3, 4}")
    M = u.box_radius
    vals = _synthesize(u.coeffs.reshape(1, -1), d, M, grid_size(d, M))[0]
    return _energy(u, vals, sign)


def _energy(u: FrequencyField, vals: np.ndarray, strength: float) -> float:
    """Spectral kinetic term plus strength times the potential quadrature of the grid values."""
    d = u.geometry.d
    sym = _dispersion_symbol(u.geometry, u.box_radius)
    kinetic = 0.5 * (2.0 * np.pi) ** 2 * float(np.sum(sym * np.abs(u.coeffs) ** 2))
    potential = float(np.mean(_modulus_power(vals, 2.0 * d / (d - 2))))
    return kinetic + strength * ((d - 2) / (2.0 * d)) * potential


def _h1_weights(geometry: TorusGeometry, M: int) -> np.ndarray:
    return (1.0 + _dispersion_symbol(TorusGeometry.square(geometry.d), M)).ravel()


def _sup_h1(U: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sqrt(np.max(np.sum(weights * np.abs(U) ** 2, axis=1))))


def _check_dt(dt: float, geometry: TorusGeometry, M: int) -> None:
    limit = STABILITY_GUARD / (geometry.theta_max * max(M, 1) ** 2)
    if dt > limit:
        raise GridTooCoarseError(f"time step {dt} exceeds the stability guard {limit:.3e}")


def _flow_phases(problem: NlsProblem, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^{-2 pi i t s} and e^{+2 pi i t s} per trajectory node t and box mode symbol s:
    the free flow and its inverse, built once per solve."""
    sym = _dispersion_symbol(problem.geometry, problem.u0.box_radius).ravel()
    ts = np.outer(times, sym)
    return np.exp(-2j * np.pi * ts), np.exp(2j * np.pi * ts)


def _free_matrix(problem: NlsProblem, forward: np.ndarray) -> np.ndarray:
    return problem.u0.coeffs.ravel()[None, :] * forward


def _duhamel_integral(
    U: np.ndarray, problem: NlsProblem, times: np.ndarray, back: np.ndarray
) -> tuple[np.ndarray, float]:
    """Cumulative trapezoid of e^{-i s Delta} F(u(s)) over the trajectory nodes, built
    in place of F(u), and the largest truncated energy of the nonlinearity's round trips."""
    M = problem.u0.box_radius
    F, trunc = _nonlinearity_rows(
        U, problem.geometry, M, problem.sign, problem.coupling, problem.grid_size
    )
    # operand order fixes the last bit of a complex product (fused multiply-adds)
    np.multiply(back, F, out=F)
    dt = times[1] - times[0]
    steps = F[1:] + F[:-1]
    steps *= 0.5 * dt
    F[0] = 0
    np.cumsum(steps, axis=0, out=F[1:])
    return F, float(np.max(trunc))


def _duhamel_matrix(
    U: np.ndarray, problem: NlsProblem, times: np.ndarray, phases: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, float]:
    forward, back = phases
    I, trunc = _duhamel_integral(U, problem, times, back)
    Phi = (problem.u0.coeffs.ravel()[None, :] - 1j * I) * forward
    return Phi, trunc


def _wrap_trajectory(
    problem: NlsProblem, times: np.ndarray, U: np.ndarray, info: dict
) -> Trajectory:
    traj = Trajectory(times, U, problem.geometry, problem.u0.box_radius, info=info)
    traj.diagnostics = compute_diagnostics(traj, problem)
    return traj


def compute_diagnostics(traj: Trajectory, problem: NlsProblem) -> dict:
    """Mass, energy, H1 norm, and sup-norm per trajectory time."""
    M = problem.u0.box_radius
    n_grid = problem.grid_size
    strength = problem.sign * problem.coupling
    out = {k: np.empty(traj.times.size) for k in ("mass", "energy", "h1", "linf")}
    states = traj.states
    chunk = _batch_rows(problem.d, n_grid)
    for lo in range(0, len(states), chunk):
        grids = _synthesize(traj.rows[lo : lo + chunk], problem.d, M, n_grid)
        for i, (state, vals) in enumerate(zip(states[lo : lo + chunk], grids), start=lo):
            out["mass"][i] = mass(state)
            out["energy"][i] = _energy(state, vals, strength)
            out["h1"][i] = sobolev_norm(state, 1)
            out["linf"][i] = float(np.max(np.abs(vals)))
        del grids, vals  # freed before the next batch is synthesized, not after
    return out


def picard_solve(
    problem: NlsProblem,
    T: float,
    dt: float,
    max_iter: int = 25,
) -> Trajectory:
    """Iterate the integral map from the free-evolution guess to its fixed point.

    The iteration stops when a correction is below 1e-10 in sup-in-time H1
    (the computable stand-in for the iteration space metric); info["iterations"]
    logs each correction's norm and, from the second on, its ratio to the one
    before.  Three consecutive non-contracting steps, a correction that is not
    finite, or max_iter iterations without convergence raise
    NonContractionError, mirroring the smallness hypotheses of the local
    theory.  info["max_truncated_energy"] is the largest energy the last
    iteration's round trips discarded outside the box.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    M = problem.u0.box_radius
    n_t = max(int(round(T / dt)), 1)
    _check_dt(T / n_t, problem.geometry, M)
    times = np.arange(n_t + 1) * (T / n_t)
    weights = _h1_weights(problem.geometry, M)

    phases = _flow_phases(problem, times)
    U = _free_matrix(problem, phases[0])
    log: list[dict] = []
    prev_diff = None
    bad_streak = 0
    for it in range(1, max_iter + 1):
        # a blow-up overflows on the way; the finiteness check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            V, trunc = _duhamel_matrix(U, problem, times, phases)
            d_h1 = _sup_h1(V - U, weights)
        if not math.isfinite(d_h1):
            raise NonContractionError(
                f"fixed-point iterate {it} is not finite; reduce the data or the horizon"
            )
        entry = {"iteration": it, "d_h1": d_h1}
        if prev_diff is not None and prev_diff > 0:
            entry["factor"] = d_h1 / prev_diff
            bad_streak = bad_streak + 1 if entry["factor"] >= 1.0 else 0
        log.append(entry)
        U = V
        if d_h1 < 1e-10:
            return _wrap_trajectory(
                problem, times, U,
                {"solver": "picard", "iterations": log, "converged": True,
                 "max_truncated_energy": trunc},
            )
        if bad_streak >= 3:
            raise NonContractionError(
                "fixed-point iteration is not contracting; reduce the data or the horizon"
            )
        prev_diff = d_h1
    raise NonContractionError(
        f"no fixed point within {max_iter} iterations (last diff {prev_diff:.3e})"
    )


def _unit_phase(angle: np.ndarray) -> np.ndarray:
    """e^{i angle} for a real angle, from its cosine and sine (no complex exp)."""
    out = np.empty(angle.shape, dtype=np.complex128)
    out.real = np.cos(angle)
    out.imag = np.sin(angle)
    return out


def split_step_evolve(
    problem: NlsProblem,
    T: float,
    dt: float,
) -> Trajectory:
    """Strang splitting: half nonlinear phase rotation, full linear step, half again.

    The nonlinear sub-flow rotates grid values by exp(-i*sign*dt/2*|u|^(4/(d-2)))
    exactly (|u| is invariant); the linear step is exact in coefficient space.
    A blow-up guard aborts with a flagged, truncated trajectory when the H1
    norm exceeds 1e3 times its initial value.  info["max_truncated_energy"] is
    the largest energy a round trip discarded outside the box (0 without one).
    """
    d = problem.d
    M = problem.u0.box_radius
    n_steps = max(int(round(T / dt)), 1)
    step = T / n_steps
    _check_dt(step, problem.geometry, M)
    n_grid = problem.grid_size
    sym = _dispersion_symbol(problem.geometry, M).ravel()
    lin_phase = np.exp(-2j * np.pi * step * sym)
    weights = _h1_weights(problem.geometry, M)
    expo = problem.exponent
    rot = -1j * problem.sign * problem.coupling * (step / 2.0)
    max_trunc = 0.0

    def half_nonlinear(row: np.ndarray) -> np.ndarray:
        nonlocal max_trunc
        if problem.coupling == 0.0:
            return row  # phase rotation is identically 1; skip the grid round trip
        vals = _synthesize(row[None, :], d, M, n_grid)
        vals = vals * _unit_phase(rot.imag * _modulus_power(vals, expo))
        rows, trunc = _grid_to_rows(vals, d, M, n_grid)
        max_trunc = max(max_trunc, float(trunc[0]))
        return rows[0]

    U = np.empty((n_steps + 1, problem.u0.coeffs.size), dtype=np.complex128)
    U[0] = u = problem.u0.coeffs.ravel()
    h1_initial = float(np.sqrt(np.sum(weights * np.abs(u) ** 2)))
    flagged = False
    for i in range(1, n_steps + 1):
        u = half_nonlinear(u)
        u = u * lin_phase
        u = half_nonlinear(u)
        U[i] = u
        h1 = float(np.sqrt(np.sum(weights * np.abs(u) ** 2)))
        if h1_initial > 0 and h1 > BLOWUP_FACTOR * h1_initial:
            flagged = True
            break
    info = {"solver": "split-step", "dt": step, "max_truncated_energy": max_trunc}
    if flagged:
        info["flag"] = "blowup"
    return _wrap_trajectory(problem, np.arange(i + 1) * step, U[: i + 1], info)


def conservation_report(traj: Trajectory) -> dict:
    """Relative drifts of mass/energy and the window of (M+E)/H1^2 over time."""
    diag = traj.diagnostics
    if not diag:
        raise ValueError("trajectory has no diagnostics")

    def drift(series: np.ndarray) -> float:
        scale = abs(series[0]) if series[0] != 0.0 else 1.0
        return float(np.max(np.abs(series - series[0])) / scale)

    combined = diag["mass"] + diag["energy"]
    h1_sq = diag["h1"] ** 2
    ratios = combined / np.where(h1_sq > 0, h1_sq, np.inf)
    return {
        "mass_drift": drift(diag["mass"]),
        "energy_drift": drift(diag["energy"]),
        "h1_equivalence_ratio": (float(np.min(ratios)), float(np.max(ratios))),
    }


def contraction_factor(problem: NlsProblem, T: float, dt: float) -> float:
    """Empirical contraction factor of the integral map around the free guess.

    Perturbs the free trajectory by an independent mode times 1% of the
    data's H1 norm and measures sup-H1(Phi v - Phi u) / sup-H1(v - u).  The free parts cancel
    structurally, so only the flowed-back nonlinearity difference is formed.
    """
    M = problem.u0.box_radius
    n_t = max(int(round(T / dt)), 1)
    _check_dt(T / n_t, problem.geometry, M)
    times = np.arange(n_t + 1) * (T / n_t)
    weights = _h1_weights(problem.geometry, M)

    forward, back = _flow_phases(problem, times)
    U = _free_matrix(problem, forward)
    k1 = (1,) + (0,) * (problem.d - 1)
    w0 = FrequencyField.character(problem.geometry, M, k1, amplitude=1.0)
    wprob = NlsProblem(problem.geometry, problem.sign, w0, coupling=problem.coupling)
    W = _free_matrix(wprob, forward)  # same geometry and box, so the same flow
    delta = 0.01 * sobolev_norm(problem.u0, 1)
    V = U + delta * W

    I_u, _ = _duhamel_integral(U, problem, times, back)
    I_v, _ = _duhamel_integral(V, problem, times, back)
    # Phi(v)-Phi(u) = e^{it Delta}(-i)(I_v - I_u); the phases preserve H1.
    num = _sup_h1(I_v - I_u, weights)
    den = _sup_h1(V - U, weights)
    return num / den


def plane_wave_phase(amplitude: float, sign: int, d: int, t):
    """Exact phase of the spatially constant solution: A e^{-i sign |A|^(4/(d-2)) t}."""
    return np.exp(-1j * sign * abs(amplitude) ** (4.0 / (d - 2)) * np.asarray(t))
