"""Energy-critical nonlinear Schrodinger flow on rectangular tori (d = 3, 4).

    i u_t + Delta u = sign * |u|^(4/(d-2)) u,   Delta = sum_j theta_j d_j^2

Two independent integrators are provided: a fixed-point iteration of the
integral (Duhamel) map with composite-trapezoid quadrature, and a Strang
split-step scheme.  Both are second order in dt and are cross-validated in the
tests.  The fixed-point iteration applies the integral map

    Phi(u)(t) = e^{it Delta} (u0 - i I(u)(t)),   I(u)(t) = int_0^t e^{-is Delta} F(u(s)) ds,

in picard_solve's own loop: one helper (_free_flow) gives the flow, its
conjugate and the data's free trajectory (the first iterate), which
contraction_factor shares, and _duhamel_integral builds each iterate's
flowed-back nonlinearity and its trapezoid I(u) in one work matrix.  The
loop logs the sup-in-time H1 norm of each correction.

The nonlinearity is evaluated pseudo-spectrally on a grid of
DEALIAS_FACTOR[d] * M points per axis for box radius M: 6M for d = 3, 4M for
d = 4.  That grid is one point short of alias-free: quintic
products reach +-5M and 5M = -M (mod 6M), cubic products in d = 4 reach
+-3M and 3M = -M (mod 4M), so products of modes near the box edge alias back
into the box.  This is an open defect (ROADMAP.md, item 1).

Both solvers share one round trip (_round_trip): synthesize the box onto the
grid one axis at a time (propagator._synthesize), apply a pointwise map, and
analyze back with the mirror primitive (propagator._analyze), in batches of
propagator._auto_chunk(n^d) rows for an n^d grid.  Picard's map scales the
values by sign*|u|^(4/(d-2)), split-step's rotates them by the nonlinear
sub-flow's phase, at every coupling (zero coupling rotates by exactly 1).
The solvers keep the largest energy a round trip discards outside the box in
Trajectory.info["max_truncated_energy"].  Both solvers share one time grid
(_time_nodes): one (T, dt) rule (_step_count, which contraction_factor,
live_cells and nls-run reach too), one step rule, one stability guard.  Both
end in _wrap_trajectory, which raises NonContractionError when a state or
diagnostic is not finite, as Picard's loop does for a non-finite iterate.

Conserved quantities (mass, theta-weighted energy) and the Sobolev norm are
tracked per time step; their drift is the primary solver diagnostic.  One
pass computes them (compute_diagnostics): per batch of trajectory rows, |c|^2
once for the mass, the kinetic term and the H1 norm, and one synthesis for
the potential term and the sup norm; energy() is that pass on one row.  One
per-row H1 norm (core._h1_rows, isotropic weight 1 + |k|^2, of which
core.sobolev_norm(., 1) is the one-row case) serves the diagnostics,
Picard's convergence test, split-step's blow-up guard and
contraction_factor; the initial data's H1 norm is core.sobolev_norm.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import FrequencyField, TorusGeometry, _dispersion_symbol, _h1_rows, _modulus_power, sobolev_norm
from .errors import GridTooCoarseError, NonContractionError
from .propagator import _analyze, _auto_chunk, _flow, _synthesize

#: Pseudo-spectral grid multiple of the box radius per dimension.
DEALIAS_FACTOR = {3: 6, 4: 4}

#: Time-step guard constant: dt <= STABILITY_GUARD / (theta_max * M^2).
STABILITY_GUARD = 1.0

#: Abort threshold for the split-step blow-up guard, relative to the initial H1 norm.
BLOWUP_FACTOR = 1.0e3


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

    Split-step: its trajectory, one row per node of _time_nodes.  Picard: six
    trajectories (both flow phases, the iterate, the work matrix that holds
    the flowed-back nonlinearity and then its integral, and either the
    trapezoid's one temporary or the next iterate together with the
    difference).  Both: four grids per row of a batch (the diagnostics' or
    the nonlinearity's: propagator._auto_chunk(n^d) rows of the n^d grid, or
    fewer when the trajectory is shorter), which also covers a split-step
    half-step.  Measured with tracemalloc on top of the trajectories (d=3,
    M = 4, 8; d=4, M = 2, 4): a half-step 2.7-3.3 grids (its peak falls in
    the rotation's phase or in the analysis pass); a diagnostics batch
    2.5-2.6 grids per row at d=3 and 2.1 at d=4 (the grids, then the power
    chain of the potential term); a Picard round-trip batch 2.6-3.0 grids
    per row beyond its output rows.
    """
    n, n_states = grid_size(d, M), _step_count(T, dt) + 1
    trajectory = n_states * (2 * M + 1) ** d
    grids = 4 * min(_auto_chunk(n**d), n_states) * n**d
    return (6 * trajectory if solver == "picard" else trajectory) + grids


def _round_trip(
    U: np.ndarray, problem: NlsProblem, pointwise: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Box rows U -> grid values v -> pointwise(v), in place or not -> box rows, by batches,
    and each row's truncated energy: mean |v|^2 of the mapped grid minus the energy of the
    kept modes, by Parseval the energy the box discards."""
    d, M, n_grid = problem.d, problem.u0.box_radius, problem.grid_size
    out = np.empty_like(U)
    trunc = np.empty(U.shape[0])
    chunk = _auto_chunk(n_grid**d)
    for lo in range(0, U.shape[0], chunk):
        batch = slice(lo, lo + chunk)
        vals = pointwise(_synthesize(U[batch], d, M, n_grid))
        out[batch] = _analyze(vals, d, M, n_grid)
        total = np.mean(np.abs(vals.reshape(vals.shape[0], -1)) ** 2, axis=1)
        trunc[batch] = np.maximum(total - np.sum(np.abs(out[batch]) ** 2, axis=1), 0.0)
    return out, trunc


def _nonlinearity_rows(U: np.ndarray, problem: NlsProblem) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-spectral sign*coupling*|u|^(4/(d-2)) u for a stack of coefficient rows, and
    each row's truncated energy: one round trip that scales the values in place."""
    strength, expo = problem.coupling * problem.sign, problem.exponent

    def scale(vals: np.ndarray) -> np.ndarray:
        factor = strength * _modulus_power(vals, expo)
        parts = vals.view(np.float64).reshape(vals.shape + (2,))
        parts *= factor[..., None]  # the real factor scales both parts: no complex product
        return vals

    return _round_trip(U, problem, scale)


def nonlinearity(u: FrequencyField, *, sign: int = 1) -> FrequencyField:
    """Pointwise power nonlinearity sign*|u|^(4/(d-2))*u, dealiased and re-boxed.

    The grid holds DEALIAS_FACTOR[d] points per box radius (see the module
    docstring for the aliasing this leaves).  As in NlsProblem, a sign other
    than +1 or -1 raises ValueError.
    """
    rows, _ = _nonlinearity_rows(u.coeffs.ravel()[None, :], NlsProblem(u.geometry, sign, u))
    return u.with_coeffs(rows[0].reshape(u.coeffs.shape))


def mass(u: FrequencyField) -> float:
    """(1/2) integral of |u|^2; exact via Plancherel."""
    return 0.5 * float(np.sum(np.abs(u.coeffs) ** 2))


def energy(u: FrequencyField, sign: int) -> float:
    """(1/2) integral sum_j theta_j |d_j u|^2 +- ((d-2)/(2d)) integral |u|^(2d/(d-2)).

    The gradient term is spectral and exact; the potential term is a grid
    quadrature on the dealiasing grid: the energy column of compute_diagnostics
    on u's one row.  As in NlsProblem, a sign other than +1 or -1 raises
    ValueError.
    """
    traj = Trajectory(np.zeros(1), u.coeffs.reshape(1, -1), u.geometry, u.box_radius)
    return float(compute_diagnostics(traj, NlsProblem(u.geometry, sign, u))["energy"][0])


def _step_count(T: float, dt: float) -> int:
    """Steps of a solve of [0, T] at step dt: round(T/dt), half to even, at least one.

    The one (T, dt) rule of both solvers, contraction_factor, live_cells and
    nls-run: anything but 0 < dt <= T < inf (NaN fails), or a step so small
    that T/dt overflows to inf, raises ValueError naming dt and T.
    """
    if not (0 < dt <= T < math.inf and math.isfinite(T / dt)):
        raise ValueError(f"need 0 < dt <= T < inf, got dt={dt}, T={T}; T/dt must be finite too")
    return round(T / dt)


def _time_nodes(problem: NlsProblem, T: float, dt: float) -> np.ndarray:
    """n + 1 equispaced nodes on [0, T], n = _step_count(T, dt); a step T/n above the stability
    guard STABILITY_GUARD / (theta_max * max(M, 1)^2) raises GridTooCoarseError."""
    n = _step_count(T, dt)
    limit = STABILITY_GUARD / (problem.geometry.theta_max * max(problem.u0.box_radius, 1) ** 2)
    if T / n > limit:
        raise GridTooCoarseError(f"time step {T / n} exceeds the stability guard {limit:.3e}")
    return np.arange(n + 1) * (T / n)


def _free_flow(problem: NlsProblem, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^{-2 pi i t s} and e^{+2 pi i t s} per trajectory node t and box mode symbol s
    (the free flow, propagator._flow, and its inverse, its conjugate), built once per
    solve, and the data's free trajectory: its coefficient row times the flow."""
    forward = _flow(problem.geometry, problem.u0.box_radius, times)
    return forward, forward.conj(), problem.u0.coeffs.ravel()[None, :] * forward


def _duhamel_integral(
    U: np.ndarray, problem: NlsProblem, times: np.ndarray, back: np.ndarray
) -> tuple[np.ndarray, float]:
    """Cumulative trapezoid of e^{-i s Delta} F(u(s)) over the trajectory nodes, built
    in place of F(u), and the largest truncated energy of the nonlinearity's round trips."""
    F, trunc = _nonlinearity_rows(U, problem)
    # operand order fixes the last bit of a complex product (fused multiply-adds)
    np.multiply(back, F, out=F)
    dt = times[1] - times[0]
    steps = F[1:] + F[:-1]
    steps *= 0.5 * dt
    F[0] = 0
    np.cumsum(steps, axis=0, out=F[1:])
    return F, float(np.max(trunc))


def _wrap_trajectory(
    problem: NlsProblem, times: np.ndarray, U: np.ndarray, info: dict
) -> Trajectory:
    """The solve's Trajectory and its diagnostics, where both solves end.  A diagnostic
    that is not finite raises NonContractionError, as a non-finite Picard iterate does; a
    state that is not finite has a non-finite mass, so the diagnostics cover the states."""
    traj = Trajectory(times, U, problem.geometry, problem.u0.box_radius, info=info)
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below reports it
        traj.diagnostics = compute_diagnostics(traj, problem)
    if not all(np.isfinite(v).all() for v in traj.diagnostics.values()):
        raise NonContractionError(f"the {info['solver']} solution does not stay finite; reduce the data or the horizon")
    return traj


def compute_diagnostics(traj: Trajectory, problem: NlsProblem) -> dict:
    """Mass, energy, H1 norm, and sup-norm per trajectory time, in one pass over the rows.

    The rows go by batches of propagator._auto_chunk(n^d) for the n^d grid.
    A batch's |c|^2, taken once, gives the mass, the kinetic term and the H1
    norm (core._h1_rows); one synthesis of the batch gives the potential term
    (the grid mean of |u|^(2d/(d-2))) and the sup.  Each value has the bits of
    the per-state formula: mass, energy and core.sobolev_norm(., 1).
    """
    d, M, n_grid = problem.d, problem.u0.box_radius, problem.grid_size
    sym = _dispersion_symbol(problem.geometry, M).ravel()
    strength = problem.sign * problem.coupling * ((d - 2) / (2.0 * d))
    grid_axes = tuple(range(1, d + 1))
    out = {k: np.empty(traj.times.size) for k in ("mass", "energy", "h1", "linf")}
    chunk = _auto_chunk(n_grid**d)
    for lo in range(0, traj.times.size, chunk):
        batch = slice(lo, lo + chunk)
        power = np.abs(traj.rows[batch]) ** 2
        grids = _synthesize(traj.rows[batch], d, M, n_grid)
        out["linf"][batch] = np.max(np.abs(grids), axis=grid_axes)
        potential = np.mean(_modulus_power(grids, 2.0 * d / (d - 2)), axis=grid_axes)
        del grids  # freed before the next batch is synthesized, not after
        out["mass"][batch] = 0.5 * np.sum(power, axis=1)
        kinetic = 0.5 * (2.0 * np.pi) ** 2 * np.sum(sym * power, axis=1)
        out["energy"][batch] = kinetic + strength * potential
        out["h1"][batch] = _h1_rows(power, d, M)
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
    times = _time_nodes(problem, T, dt)
    forward, back, U = _free_flow(problem, times)
    log: list[dict] = []
    prev_diff = None
    bad_streak = 0
    for it in range(1, max_iter + 1):
        # a blow-up overflows on the way; the finiteness check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            # V holds the integral I(U), then Phi(U) = e^{it Delta}(u0 - i I(U)); rebinding
            # V frees I(U) before the difference V - U is formed
            V, trunc = _duhamel_integral(U, problem, times, back)
            V = (problem.u0.coeffs.ravel()[None, :] - 1j * V) * forward
            d_h1 = float(np.max(_h1_rows(np.abs(V - U) ** 2, problem.d, problem.u0.box_radius)))
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
    """e^{i angle} for a real angle, from its cosine and sine (no complex exp), each
    written straight into its part of the result (no grid-sized temporaries)."""
    out = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
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
    norm exceeds 1e3 times its initial value; a solution that does not stay
    finite raises NonContractionError (_wrap_trajectory).  Zero coupling runs
    the round trip too, whose rotation is then exactly 1.
    info["max_truncated_energy"] is the largest energy a round trip discarded
    outside the box.
    """
    M = problem.u0.box_radius
    times = _time_nodes(problem, T, dt)
    step = float(times[1])
    lin_phase = _flow(problem.geometry, M, [step])[0]
    expo = problem.exponent
    angle = -problem.sign * problem.coupling * (step / 2.0)
    max_trunc = 0.0

    def rotate(vals: np.ndarray) -> np.ndarray:
        phase = _unit_phase(angle * _modulus_power(vals, expo))
        # the product overwrites the phase, so no third grid is made; written into vals
        # instead, it took about 18% more page faults per solve (d=3, M=8)
        return np.multiply(vals, phase, out=phase)

    def half_nonlinear(row: np.ndarray) -> np.ndarray:
        nonlocal max_trunc
        rows, trunc = _round_trip(row[None, :], problem, rotate)
        max_trunc = max(max_trunc, float(trunc[0]))
        return rows[0]

    U = np.empty((times.size, problem.u0.coeffs.size), dtype=np.complex128)
    U[0] = u = problem.u0.coeffs.ravel()
    h1_initial = sobolev_norm(problem.u0, 1)
    flagged = False
    # an overflow makes the states or diagnostics non-finite; _wrap_trajectory reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, times.size):
            u = half_nonlinear(u)
            u = u * lin_phase
            u = half_nonlinear(u)
            U[i] = u
            if h1_initial > 0 and _h1_rows(np.abs(U[i : i + 1]) ** 2, problem.d, M)[0] > BLOWUP_FACTOR * h1_initial:
                flagged = True
                break
    info = {"solver": "split-step", "dt": step, "max_truncated_energy": max_trunc}
    if flagged:
        info["flag"] = "blowup"
    return _wrap_trajectory(problem, times[: i + 1], U[: i + 1], info)


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
    Data of H1 norm 0 leave no perturbation and raise ValueError.
    """
    M = problem.u0.box_radius
    times = _time_nodes(problem, T, dt)
    h1 = sobolev_norm(problem.u0, 1)
    if h1 == 0:
        raise ValueError("contraction_factor perturbs by 1% of the data's H1 norm, which is 0 here")
    forward, back, U = _free_flow(problem, times)
    k1 = (1,) + (0,) * (problem.d - 1)
    w0 = FrequencyField.character(problem.geometry, M, k1, amplitude=1.0)
    W = w0.coeffs.ravel()[None, :] * forward  # same geometry and box, so the same flow
    V = U + 0.01 * h1 * W

    I_u, _ = _duhamel_integral(U, problem, times, back)
    I_v, _ = _duhamel_integral(V, problem, times, back)
    # Phi(v)-Phi(u) = e^{it Delta}(-i)(I_v - I_u); the phases preserve H1.
    num = np.max(_h1_rows(np.abs(I_v - I_u) ** 2, problem.d, M))
    return float(num / np.max(_h1_rows(np.abs(V - U) ** 2, problem.d, M)))


def plane_wave_phase(amplitude: float, sign: int, d: int, t):
    """Exact phase of the spatially constant solution: A e^{-i sign |A|^(4/(d-2)) t}."""
    return np.exp(-1j * sign * abs(amplitude) ** (4.0 / (d - 2)) * np.asarray(t))
