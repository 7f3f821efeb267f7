"""Seeded operation lists for the benchmark workloads, with their checks.

An operation is one CLI invocation (``toruslab.cli.main`` argv).  Its check
receives the invocation's result and the results of the operations before it
in the same pass, and returns a list of problems; an empty list is a pass.
Checks use exact oracles where the mathematics gives one (closed forms,
lattice identities, exact rationals, integer enumeration) and the repository's
own cross-validations elsewhere (direct summation against FFT grids,
Picard against split-step).

Inputs come only from the seed.  Sizes and command mix are fixed by position
in the list, and values are drawn by stratified sampling, so different seeds
give different inputs but the same amount of work.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

#: Relative tolerance of recomputed closed forms (rounding only).
EXACT_RTOL = 1e-9
#: Direct summation against FFT grids, relative to the grid sup (criterion 3).
KERNEL_RTOL = 1e-10
#: Bilinear character witness (criterion 7).
WITNESS_RTOL = 1e-6
#: Character-data slope (criterion 6).
SLOPE_ATOL = 1e-9
#: Picard against split-step, in H1 (solver cross-validation test).
SOLVER_ATOL = 1e-6
#: Least H1 distance of an NLS run's final state from the free flow of its data.
NONLINEAR_MIN = 10 * SOLVER_ATOL
#: Plane-wave orbit (criterion 8).
ORBIT_ATOL = 1e-8

@dataclass
class Result:
    """What one invocation left behind: exit code, error, stdout and files."""

    exit_code: int
    error: str | None
    stdout: str
    files: dict[str, bytes] = field(default_factory=dict)

    def json(self, name: str | None = None) -> dict:
        return json.loads(self.files[name] if name else self.stdout)

    def csv(self, name: str) -> list[list[str]]:
        text = self.files[name].decode()
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        return list(csv.reader(io.StringIO("\n".join(lines))))[1:]


Check = Callable[[Result, list], list]


@dataclass
class Op:
    argv: list[str]
    check: Check
    out_dir: bool = True


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _strata(rng: np.random.Generator, k: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of k equal strata of the open interval (lo, hi)."""
    w = (hi - lo) / k
    return [lo + w * (i + rng.uniform(0.001, 0.999)) for i in range(k)]


def _irrational(rng: np.random.Generator) -> float:
    """A generic weight near 1/sqrt(2), so the sweep sizes barely move with the seed."""
    return float(rng.uniform(0.70, 0.72))


# ---------------------------------------------------------------------------
# dispersive


def _dispersive_check(d: int, n_list: list[int], dump: bool) -> Check:
    def check(res: Result, _prev) -> list[str]:
        probs = []
        rep = res.json("dispersive_report.json")
        if [r["N"] for r in rep["reports"]] != n_list:
            probs.append(f"reports cover N={[r['N'] for r in rep['reports']]}, asked {n_list}")
        ratios = []
        for r in rep["reports"]:
            fc = r["fitted_constants"]
            if not _close(fc["ratio_at_t0"], 3.0**d, EXACT_RTOL):
                probs.append(f"N={r['N']}: ratio at t=0 is {fc['ratio_at_t0']!r}, not 3^{d}")
            mx = r["max_ratio_kernel_vs_bound"]
            ratios.append(mx)
            if not mx >= fc["ratio_at_t0"]:
                probs.append(f"N={r['N']}: max ratio {mx!r} below its t=0 value")
            if not fc["offarc_degenerate"] and not r["sup_offarc_kernel"] > 0:
                probs.append(f"N={r['N']}: off-arc sup {r['sup_offarc_kernel']!r} not positive")
            if dump:
                rows = [[float(v) for v in row] for row in res.csv(f"dispersive_grid_N{r['N']}.csv")]
                if any(not _close(k / b, q, 1e-12) for _, k, b, q in rows):
                    probs.append(f"N={r['N']}: dumped ratio column is not kernel/bound")
                if not _close(max(row[3] for row in rows), mx, 1e-12):
                    probs.append(f"N={r['N']}: dumped grid max differs from the report")
                if not any(t == 0.0 and _close(q, 3.0**d, EXACT_RTOL) for t, _, _, q in rows):
                    probs.append(f"N={r['N']}: dumped grid lacks the t=0 ratio 3^{d}")
        spread = json.loads(res.stdout)["max_ratio_spread"]
        if not _close(spread, max(ratios) / min(ratios), 1e-12):
            probs.append(f"stability spread {spread!r} inconsistent with the reports")
        return probs

    return check


def dispersive_ops(seed: int, tiny: bool = False) -> list[Op]:
    """Kernel-vs-envelope sweeps: d=1 square, d=1 and d=2 with irrational weights.

    The off-arc sweep shrinks as sigma grows, so each geometry runs once per
    third of (0, 1/2); that keeps the work per pass within a few percent
    across seeds.
    """
    rng = np.random.default_rng([seed, 1])
    n_list = [4, 8] if tiny else [8, 16]
    configs = [(1, "1"), (1, repr(_irrational(rng))), (2, "1," + repr(_irrational(rng)))]
    ops = []

    def op(d, theta, ns, sigma, dump=False):
        argv = ["dispersive-check", "--d", str(d), "--theta", theta,
                "--N", ",".join(map(str, ns)), "--sigma", repr(sigma)]
        return Op(argv + (["--dump-grid"] if dump else []), _dispersive_check(d, ns, dump))

    for d, theta in configs:
        for sigma in _strata(rng, 3, 0.0, 0.5):
            ops.append(op(d, theta, n_list, sigma))
    ops.append(op(1, "1", n_list, _strata(rng, 1, 0.0, 0.5)[0], dump=True))
    return ops


# ---------------------------------------------------------------------------
# strichartz


def _random_gaussian(seed: int, N: int, d: int) -> np.ndarray:
    """The random_gaussian sweep data: seeded complex normals, unit L2."""
    rng = np.random.default_rng([seed, N])
    shape = (2 * N + 1,) * d
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return c / np.sqrt(np.sum(np.abs(c) ** 2))


def _sweep_check(d: int, p: float, cls: str, n_list: list[int], seed: int) -> Check:
    def check(res: Result, _prev) -> list[str]:
        probs = []
        rows = res.csv("strichartz_sweep.csv")
        fit = res.json("strichartz_fit.json")["fit"]
        Ns = [int(r[3]) for r in rows]
        norms = [float(r[4]) for r in rows]
        if Ns != n_list:
            probs.append(f"sweep covers N={Ns}, asked {n_list}")
            return probs
        if not all(math.isfinite(v) and v > 0 for v in norms):
            return probs + [f"norms not finite and positive: {norms}"]
        theo = d / 2.0 - (d + 2.0) / p
        if fit["theoretical_exponent"] != theo:
            probs.append(f"theoretical exponent {fit['theoretical_exponent']!r} != {theo!r}")
        for N, v, r in zip(Ns, norms, rows):
            if not _close(float(r[5]), v / N**theo, 1e-12):
                probs.append(f"N={N}: ratio column is not norm / N^{theo}")
        slope, intercept = np.polyfit(np.log(Ns), np.log(norms), 1)
        if abs(slope - fit["slope"]) > 1e-9 or abs(intercept - fit["intercept"]) > 1e-9:
            probs.append(f"fit ({fit['slope']!r}, {fit['intercept']!r}) does not match the table")
        if cls == "character" and abs(fit["slope"]) > SLOPE_ATOL:
            probs.append(f"character slope {fit['slope']!r} exceeds {SLOPE_ATOL}")
        if p == 4.0 and d == 1 and cls == "random_gaussian":
            # ||u||_{L^4_{t,x}}^4 = 2||c||_2^4 - ||c||_4^4 on the square 1-torus
            for N, v in zip(Ns, norms):
                c = _random_gaussian(seed, N, 1)
                exact = (2.0 * np.sum(np.abs(c) ** 2) ** 2 - np.sum(np.abs(c) ** 4)) ** 0.25
                if not _close(v, float(exact), EXACT_RTOL):
                    probs.append(f"N={N}: L4 norm {v!r} misses the lattice identity {exact!r}")
        return probs

    return check


def _witness_check(n1_list: list[int], horizons: list[float]) -> Check:
    def check(res: Result, _prev) -> list[str]:
        probs = []
        rows = [(int(a), int(b), float(t), float(r)) for a, b, t, r in res.csv("bilinear_table.csv")]
        want = [(n1, n2, T) for n1 in n1_list for n2 in (2**j for j in range(12)) if n2 <= n1
                for T in horizons]
        if [r[:3] for r in rows] != want:
            probs.append("bilinear table rows do not cover the requested pairs and horizons")
        for n1, n2, T, ratio in rows:
            if not _close(ratio, math.sqrt(T / n2), WITNESS_RTOL):
                probs.append(f"N1={n1} N2={n2} T={T}: ratio {ratio!r} != sqrt(T/N2)")
        top = res.json("bilinear_summary.json")["max_ratio"]
        if rows and top != max(r[3] for r in rows):
            probs.append("summary max_ratio differs from the table")
        return probs

    return check


def _sweep(d: int, p: float, cls: str, ns: list[int], seed: int) -> Op:
    argv = ["strichartz-sweep", "--d", str(d), "--p", repr(p), "--class", cls,
            "--N", ",".join(map(str, ns)), "--seed", str(seed)]
    return Op(argv, _sweep_check(d, p, cls, ns, seed))


def strichartz_ops(seed: int, tiny: bool = False) -> list[Op]:
    """Scaling sweeps in d=1 (p=8 flat/random/character, p=4 random), d=2 p=6, bilinear d=3."""
    rng = np.random.default_rng([seed, 2])
    n1d = [1, 2, 4, 8] if tiny else [2, 4, 8, 16]
    n2d = [1, 2, 4, 8]
    seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
    ops = [
        _sweep(1, 8.0, "flat", n1d, 0),
        _sweep(1, 8.0, "random_gaussian", n1d, seeds[0]),
        _sweep(1, 8.0, "character", n1d, 0),
        _sweep(1, 4.0, "random_gaussian", n1d, seeds[1]),
        _sweep(2, 6.0, "random_gaussian", n2d, seeds[2]),
    ]
    n1 = [2, 4]
    horizons = [1.0, round(_strata(rng, 1, 0.0625, 1.0)[0], 6)]
    ops.append(Op(["bilinear-check", "--d", "3", "--N1", ",".join(map(str, n1)),
                   "--T", ",".join(map(repr, horizons)), "--class", "character"],
                  _witness_check(n1, horizons)))
    return ops


# ---------------------------------------------------------------------------
# nls


def _diag_rows(res: Result) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in res.csv("nls_diagnostics.csv")])


def _nls_basic(res: Result, n_steps: int, T: float) -> list[str]:
    probs = []
    summary = res.json("nls_summary.json")
    if summary["flag"] is not None:
        probs.append(f"solver flagged {summary['flag']!r}")
    rows = _diag_rows(res)
    if rows.shape != (n_steps + 1, 5) or not np.all(np.isfinite(rows)):
        probs.append(f"diagnostics table has shape {rows.shape}, want {(n_steps + 1, 5)}")
    elif not _close(rows[-1, 0], T, 1e-12):
        probs.append(f"last diagnostics time {rows[-1, 0]!r} is not T={T}")
    return probs


def _read_fld(data: bytes) -> tuple[dict, np.ndarray]:
    """Parse a .fld file: one JSON header line, then little-endian (re, im) float64 pairs."""
    head, _, payload = data.partition(b"\n")
    raw = np.frombuffer(payload, dtype="<f8")
    return json.loads(head), raw[0::2] + 1j * raw[1::2]


def _states(res: Result) -> list[tuple[dict, np.ndarray]]:
    return [_read_fld(res.files[n]) for n in sorted(res.files) if n.endswith(".fld")]


def _h1_weights(d: int, M: int, theta) -> tuple[np.ndarray, np.ndarray]:
    """(1 + |k|^2, sum_j theta_j k_j^2) over the coefficient box, C order."""
    k2 = np.arange(-M, M + 1, dtype=float) ** 2
    grids = np.meshgrid(*([k2] * d), indexing="ij")
    ksq = sum(grids).ravel()
    sym = sum(th * g for th, g in zip(theta, grids)).ravel()
    return 1.0 + ksq, sym


def _h1(c: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sqrt(np.sum(weights * np.abs(c) ** 2)))


def _nls_check(d: int, M: int, n_steps: int, T: float, partner: int | None) -> Check:
    """Every state dumped, the flow visibly nonlinear, and Picard on split-step's final state.

    The data are strong enough that the final state sits at least
    NONLINEAR_MIN from the free flow of the initial state, so the solver
    cross-validation to SOLVER_ATOL compares nonlinear steps, not free flows.
    """

    def check(res: Result, prev: list) -> list[str]:
        probs = _nls_basic(res, n_steps, T)
        states = _states(res)
        if len(states) != n_steps + 1:
            probs.append(f"{len(states)} dumped states, want {n_steps + 1}")
        if probs:
            return probs
        head, u0 = states[0]
        u = states[-1][1]
        weights, sym = _h1_weights(d, M, head["theta"])
        if head["d"] != d or head["M"] != M or u.size != weights.size:
            return [f"dumped header {head} or size {u.size} wrong"]
        free = u0 * np.exp(-2j * np.pi * T * sym)
        effect = _h1(u - free, weights)
        if not effect >= NONLINEAR_MIN:
            probs.append(f"final state only {effect:.3e} from the free flow in H1")
        if partner is not None:
            other = prev[partner]
            if other is None or other.exit_code != 0 or not _states(other):
                return probs + ["split-step partner run is missing"]
            dist = _h1(u - _states(other)[-1][1], weights)
            if not dist <= SOLVER_ATOL:
                probs.append(f"Picard and split-step final states differ by {dist:.3e} in H1")
        return probs

    return check


def _planewave_check(d: int, M: int, amp: float, n_steps: int, T: float) -> Check:
    def check(res: Result, _prev) -> list[str]:
        probs = _nls_basic(res, n_steps, T)
        if probs:
            return probs
        times = _diag_rows(res)[:, 0]
        states = _states(res)
        if len(states) != n_steps + 1:
            return probs + [f"{len(states)} dumped states, want {n_steps + 1}"]
        centre = ((2 * M + 1) ** d - 1) // 2
        for i, ((head, c), t) in enumerate(zip(states, times)):
            if head != {"d": d, "theta": [1.0] * d, "M": M} or c.size != (2 * M + 1) ** d:
                probs.append(f"state {i}: header {head} or size {c.size} wrong")
                continue
            exact = amp * np.exp(-1j * abs(amp) ** (4.0 / (d - 2)) * t)
            err = abs(c[centre] - exact)
            rest = float(np.max(np.abs(np.delete(c, centre))))
            if not (err <= ORBIT_ATOL and rest <= ORBIT_ATOL):
                probs.append(f"state {i}: off the plane-wave orbit by {err:.3e} (other modes {rest:.3e})")
        return probs

    return check


def nls_ops(seed: int, tiny: bool = False, offset: int = 0) -> list[Op]:
    """Gaussian data in d=3 (M=8) and d=4 (M=4), each by split-step and Picard; one plane wave.

    Every run dumps its states.  The gaussian data have L2 norm 0.25, which
    puts the final state 6e-4 (d=3) and 2e-3 (d=4) from the free flow in H1
    while the two solvers agree to 1e-8; the plane wave's amplitude in
    (0.4, 0.6) turns its phase by 5e-4 to 2.6e-3 rad over T, far above
    ORBIT_ATOL.
    """
    rng = np.random.default_rng([seed, 3])
    T, dt = (0.005, 1e-3) if tiny else (0.012, 1e-3)
    n_steps = int(round(T / dt))
    boxes = {3: 2, 4: 2} if tiny else {3: 8, 4: 4}
    ops: list[Op] = []
    for d, M in boxes.items():
        s = int(rng.integers(0, 2**31))
        base = ["nls-run", "--d", str(d), "--data", "gaussian:0.25", "--N", str(M),
                "--T", repr(T), "--dt", repr(dt), "--seed", str(s), "--dump-fields"]
        ops.append(Op(base + ["--solver", "splitstep"], _nls_check(d, M, n_steps, T, None)))
        ops.append(Op(base + ["--solver", "picard"], _nls_check(d, M, n_steps, T, offset + len(ops) - 1)))
    amp = round(_strata(rng, 1, 0.4, 0.6)[0], 6)
    pw_T = 0.02
    ops.append(Op(["nls-run", "--d", "3", "--data", f"planewave:{amp!r}", "--N", "4",
                   "--T", repr(pw_T), "--dt", repr(dt), "--dump-fields"],
                  _planewave_check(3, 4, amp, int(round(pw_T / dt)), pw_T)))
    return ops


# ---------------------------------------------------------------------------
# queries


def _dirichlet_check(beta: float, N: int) -> Check:
    def check(res: Result, _prev) -> list[str]:
        out = res.json()
        a, q = out["output"]["a"], out["output"]["q"]
        b = Fraction(beta)
        m, D = b.numerator, b.denominator

        def certified(a_, q_):
            return abs(m * q_ - a_ * D) * N <= D  # |beta - a/q| <= 1/(N q), exactly

        if not (1 <= q < N and 0 <= a <= q and math.gcd(a, q) == 1 and certified(a, q)):
            return [f"beta={beta!r} N={N}: {a}/{q} is not a certificate"]
        for q2 in range(1, q):
            if certified(round(b * q2), q2):
                return [f"beta={beta!r} N={N}: {a}/{q} is not minimal (q={q2} is certified)"]
        if a > 0 and math.gcd(a - 1, q) == 1 and certified(a - 1, q):
            return [f"beta={beta!r} N={N}: numerator {a} is not the smallest at q={q}"]
        return []

    return check


def arc_membership(t: float, N: int, sigma: float, thetas) -> bool:
    """Major-arc membership by the MajorArcParams definition, in exact rationals.

    Inside when some q <= N^(2 sigma) and integer a have
    q N^2 |theta_j t - a/q| <= N^(2 sigma).
    """
    thr = Fraction(float(N) ** (2.0 * sigma))
    for th in thetas:
        x = Fraction(th) * Fraction(t)
        for q in range(1, math.floor(thr) + 1):
            v = x * q
            if N * N * abs(v - round(v)) <= thr:
                return True
    return False


def _arc_check(t: float, N: int, sigma: float, thetas: list[float]) -> Check:
    def check(res: Result, _prev) -> list[str]:
        out = res.json()["output"]
        want = arc_membership(t, N, sigma, thetas)
        if out["inside"] != want:
            return [f"t={t!r} N={N} sigma={sigma!r}: inside={out['inside']}, definition says {want}"]
        if want:
            j, a, q = out["witness"]
            thr = Fraction(float(N) ** (2.0 * sigma))
            x = Fraction(thetas[j - 1]) * Fraction(t)
            if not (q <= thr and N * N * abs(x * q - a) <= thr):
                return [f"t={t!r} N={N} sigma={sigma!r}: witness {out['witness']} fails the definition"]
        return []

    return check


def _divisor_check(n: int, Q: int) -> Check:
    def check(res: Result, _prev) -> list[str]:
        got = res.json()["output"]["count"]
        want = sum(1 for q in range(Q, 2 * Q) if n % q == 0)
        return [] if got == want else [f"n={n} Q={Q}: count {got}, enumeration {want}"]

    return check


def _f2hat_check(omega: int, Q: int) -> Check:
    def check(res: Result, _prev) -> list[str]:
        got = res.json()["output"]["value"]
        want = sum(q for q in range(Q, 2 * Q) if omega % q == 0)
        return [] if got == want else [f"omega={omega} Q={Q}: {got}, divisor sum {want}"]

    return check


def _geometry(d: int, theta: str):
    from toruslab.core import TorusGeometry

    vals = tuple(float(v) for v in theta.split(","))
    return TorusGeometry(d=d, theta=vals)


def _kernel_point_check(d: int, theta: str, N: int, t: float, idx: tuple, n_x: int) -> Check:
    def check(res: Result, _prev) -> list[str]:
        from toruslab.propagator import kernel_grid

        v = res.json()["value"]
        ev = kernel_grid(t, n_x, N, _geometry(d, theta)).values
        sup = float(np.max(np.abs(ev)))
        dev = abs(complex(v["re"], v["im"]) - ev[idx])
        if not dev <= KERNEL_RTOL * sup:
            return [f"kernel d={d} N={N} t={t!r}: direct and FFT values differ by {dev / sup:.2e}"]
        return []

    return check


def _kernel_grid_check(d: int, theta: str, N: int, t: float, picks: list) -> Check:
    def check(res: Result, _prev) -> list[str]:
        from toruslab.propagator import kernel_direct

        n_x = 4 * N + 4
        rows = [[float(v) for v in row] for row in res.csv("kernel_grid.csv")]
        if len(rows) != n_x**d:
            return [f"kernel grid has {len(rows)} rows, want {n_x ** d}"]
        vals = np.array([complex(r[-2], r[-1]) for r in rows]).reshape((n_x,) * d)
        sup = float(np.max(np.abs(vals)))
        summary = res.json("kernel_summary.json")["summary"]
        probs = []
        if not _close(summary["max_abs"], sup, 1e-12):
            probs.append(f"summary max_abs {summary['max_abs']!r} differs from the grid {sup!r}")
        g = _geometry(d, theta)
        for idx in picks:
            direct = kernel_direct(t, [i / n_x for i in idx], N, g)
            if not abs(direct - vals[idx]) <= KERNEL_RTOL * sup:
                probs.append(f"grid point {idx}: FFT value differs from direct summation")
        return probs

    return check


#: One block of the query stream.  Each of the five query commands (arith
#: dirichlet, major-arc, divisor, f2hat and kernel) gets the same share, a
#: neutral default with no recorded usage to weigh them by; kernel's share is
#: split into d=1 and d=2 point queries and one grid dump (2.5% of the stream).
QUERY_BLOCK = (
    ["dirichlet", "major-arc", "divisor", "f2hat"] * 8
    + ["kernel1"] * 4 + ["kernel2"] * 3 + ["grid"]
)
QUERY_BLOCKS = 150
ARITH_LEVELS = [2**j for j in range(3, 13)]  # 8 .. 4096
#: Levels of the dirichlet and major-arc queries: 8 .. 512.  Above 512 the
#: certificate search has no scan fallback and raises RuntimeError (its
#: continued fractions start from swapped values); DEFECTS below probes that.
CERT_LEVELS = [N for N in ARITH_LEVELS if N <= 512]
KERNEL1_LEVELS = [2**j for j in range(0, 8)]  # 1 .. 128
KERNEL2_LEVELS = [2**j for j in range(0, 6)]  # 1 .. 32
#: sigma strata of the arc queries in each block, as shares of arc_sigma_max(N).
ARC_STRATA = 8


def arc_sigma_max(N: int) -> float:
    """The largest sigma at which the witness search answers by the arc definition.

    ``in_major_arc`` tests only the smallest certified denominator q0 at level
    N.  A second certified a/q != a0/q0 needs q + q0 >= N, so while the
    denominator budget N^(2 sigma) stays below N/2 the smallest certificate is
    the only candidate and the answer is the definition's.  Above this sigma
    the search misses part of the arc (ROADMAP item 4); DEFECTS probes that.
    """
    return 0.5 - 0.5 / math.log2(N)


def _dirichlet_op(beta: float, N: int) -> Op:
    return Op(["arith", "dirichlet", "--beta", repr(beta), "--N", str(N)],
              _dirichlet_check(beta, N), out_dir=False)


def _arc_op(t: float, N: int, sigma: float, d: int, theta: str) -> Op:
    thetas = [float(v) for v in theta.split(",")]
    return Op(["arith", "major-arc", "--t", repr(t), "--N", str(N),
               "--sigma", repr(sigma), "--d", str(d), "--theta", theta],
              _arc_check(t, N, sigma, thetas), out_dir=False)


def queries_ops(seed: int, tiny: bool = False) -> tuple[Op, list[Op]]:
    """Interactive point queries through the CLI, with a small share of grid dumps."""
    rng = np.random.default_rng([seed, 4])
    blocks = 1 if tiny else QUERY_BLOCKS
    theta2 = "1," + repr(_irrational(rng))
    ops: list[Op] = []
    counters: dict[str, int] = {}
    for _ in range(blocks):
        for kind in QUERY_BLOCK:
            i = counters[kind] = counters.get(kind, -1) + 1
            if kind == "dirichlet":
                N = CERT_LEVELS[i % len(CERT_LEVELS)]
                ops.append(_dirichlet_op(float(rng.random()), N))
            elif kind == "major-arc":
                stratum, k = i % ARC_STRATA, i // ARC_STRATA
                N = CERT_LEVELS[(k + 2 * stratum) % len(CERT_LEVELS)]
                share = _strata(rng, 1, stratum / ARC_STRATA, (stratum + 1) / ARC_STRATA)[0]
                d, theta = (1, "1") if (k + stratum) % 2 == 0 else (2, theta2)
                ops.append(_arc_op(float(rng.random()), N, share * arc_sigma_max(N), d, theta))
            elif kind == "divisor":
                n, Q = int(rng.integers(1, 10**6)), 2 ** int(i % 7)
                ops.append(Op(["arith", "divisor", "--n", str(n), "--Q", str(Q)],
                              _divisor_check(n, Q), out_dir=False))
            elif kind == "f2hat":
                omega, Q = int(rng.integers(-(10**4), 10**4 + 1)), 2 ** int(i % 7)
                ops.append(Op(["arith", "f2hat", "--omega", str(omega), "--Q", str(Q)],
                              _f2hat_check(omega, Q), out_dir=False))
            elif kind in ("kernel1", "kernel2"):
                d, levels = (1, KERNEL1_LEVELS) if kind == "kernel1" else (2, KERNEL2_LEVELS)
                theta = "1" if d == 1 else theta2
                N = levels[i % len(levels)]
                n_x = 4 * N + 4
                idx = tuple(int(v) for v in rng.integers(0, n_x, size=d))
                t = float(rng.random())
                x = ",".join(repr(v / n_x) for v in idx)
                ops.append(Op(["kernel", "--d", str(d), "--theta", theta, "--N", str(N),
                               "--t", repr(t), "--x", x],
                              _kernel_point_check(d, theta, N, t, idx, n_x), out_dir=False))
            else:
                d, N = [(1, 16), (1, 32), (1, 64), (2, 8)][i % 4]
                theta = "1" if d == 1 else theta2
                t = float(rng.random())
                picks = [tuple(int(v) for v in rng.integers(0, 4 * N + 4, size=d)) for _ in range(3)]
                ops.append(Op(["kernel", "--d", str(d), "--theta", theta, "--N", str(N),
                               "--t", repr(t)], _kernel_grid_check(d, theta, N, t, picks)))
    warm = Op(["arith", "divisor", "--n", "12", "--Q", "2"], _divisor_check(12, 2), out_dir=False)
    return warm, ops


def defect_ops(seed: int, per_kind: int) -> dict[str, list[Op]]:
    """Query inputs that the queries workload leaves out because the program fails on them.

    A benchmark run must pass every operation, so these known defects are
    probed apart from it (``bench/defects.py``), with the same checks:
    certificates at N > 512, where the search raises RuntimeError; arc
    queries at N > 512, which call it; and arc queries with sigma between
    arc_sigma_max(N) and 1/2 at N <= 512, where the witness search can miss
    part of the arc.
    """
    rng = np.random.default_rng([seed, 5])
    high = [N for N in ARITH_LEVELS if N > 512]
    kinds: dict[str, list[Op]] = {"dirichlet-N>512": [], "major-arc-N>512": [],
                                  "major-arc-sigma>max": []}
    for i in range(per_kind):
        N = high[i % len(high)]
        kinds["dirichlet-N>512"].append(_dirichlet_op(float(rng.random()), N))
        sigma = float(rng.uniform(0.001, 0.999)) * arc_sigma_max(N)
        kinds["major-arc-N>512"].append(_arc_op(float(rng.random()), N, sigma, 1, "1"))
        N = CERT_LEVELS[i % len(CERT_LEVELS)]
        lo = arc_sigma_max(N)
        sigma = lo + (0.5 - lo) * float(rng.uniform(0.001, 0.999))
        kinds["major-arc-sigma>max"].append(_arc_op(float(rng.random()), N, sigma, 1, "1"))
    return kinds


def experiments_ops(seed: int, tiny: bool = False) -> tuple[Op, list[Op]]:
    """The batch experiments in one pass: dispersive sweeps, norm sweeps, NLS runs.

    They share one workload so that each run can be long enough to be steady
    on a host whose speed swings over tens of seconds; the per-layer metrics
    and the per-command latencies in the run record keep them apart.
    """
    ops = dispersive_ops(seed, tiny) + strichartz_ops(seed, tiny)
    ops += nls_ops(seed, tiny, offset=len(ops))
    return _sweep(1, 8.0, "flat", [1, 2, 4, 8], 0), ops


BUILDERS = {
    "experiments": experiments_ops,
    "queries": queries_ops,
}
