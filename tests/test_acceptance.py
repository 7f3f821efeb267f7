"""Acceptance gate: one test per criterion, each at its stated tolerance.

The checks are property-based at desk scale: estimates with implicit constants
are accepted through stability of the measured constant across the cutoff
range, never through a hard-coded absolute value.  Each test prints one
PASS line (visible with -s) carrying the measured numbers.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from toruslab.arithmetic import (
    dirichlet_approx,
    dirichlet_approx_batch,
    divisor_count_dyadic,
    f2_hat,
)
from toruslab.cli import main as cli_main
from toruslab.core import FrequencyField, TorusGeometry
from toruslab.dispersive import check_diff_bound, check_dispersive
from toruslab.nls import (
    NlsProblem,
    conservation_report,
    contraction_factor,
    picard_solve,
    plane_wave_phase,
    split_step_evolve,
)
from toruslab.propagator import kernel_direct, kernel_grid
from toruslab.strichartz import bilinear_table, exponent_sweep

IRRATIONAL = 0.7071067811865476  # sqrt(2)/2


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_exact_formula_oracles():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        omega = int(rng.integers(-(10**4), 10**4 + 1))
        Q = 2 ** int(rng.integers(0, 7))
        direct = sum(
            np.sum(np.exp(2j * np.pi * np.arange(q) * omega / q))
            for q in range(Q, 2 * Q)
        )
        worst = max(worst, abs(f2_hat(omega, Q) - direct))
    assert worst <= 1e-9

    # independent enumeration: sieve over multiples of every window member
    R = 10**5
    for Q, full in ((8, True), (1, False), (2, False), (4, False), (16, False)):
        counts = np.zeros(R + 1, dtype=np.int32)
        for q in range(Q, 2 * Q):
            counts[q::q] += 1
        ns = range(1, R + 1) if full else range(1, R + 1, 7)
        for n in ns:
            assert divisor_count_dyadic(n, Q) == counts[n]
    elapsed = time.time() - t0
    assert elapsed < 20.0
    report("criterion-1", f"f2hat max dev {worst:.2e} over 1e3 draws; "
                          f"divisor counts exact on n<=1e5 ({elapsed:.1f}s)")


def test_criterion_2_dirichlet_certificate():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    betas = rng.random(10**4)
    for N in (4, 16, 64, 256):
        a, q = dirichlet_approx_batch(betas, N)
        assert np.all((1 <= q) & (q < N))
        assert np.all((0 <= a) & (a <= q))
        assert np.all(np.gcd(a, q) == 1)
        # exact certificate |q*beta - a| <= 1/N in rational arithmetic
        assert all(
            abs(Fraction(b) * qi - ai) * N <= 1
            for b, ai, qi in zip(betas.tolist(), a.tolist(), q.tolist())
        )
    # spot-check the scalar path end to end
    for beta in betas[:200]:
        r = dirichlet_approx(float(beta), 64)
        assert math.gcd(r.a, r.q) == 1 and abs(Fraction(float(beta)) * r.q - r.a) * 64 <= 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("criterion-2", f"4e4 certificates all valid ({elapsed:.1f}s)")


def test_criterion_3_kernel_cross_validation():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for g in (TorusGeometry.square(1), TorusGeometry(2, (1.0, IRRATIONAL))):
        for N in (8, 16, 32, 64):
            n_x = 4 * N + 4
            ts = rng.random(20)
            for t in ts:
                ev = kernel_grid(float(t), n_x, N, g)
                sup = float(np.max(np.abs(ev.values)))
                n_pts = 24 if g.d == 1 else 6
                for _ in range(n_pts):
                    idx = tuple(int(i) for i in rng.integers(0, n_x, size=g.d))
                    direct = kernel_direct(float(t), [i / n_x for i in idx], N, g)
                    rel = abs(direct - ev.values[idx]) / sup
                    worst = max(worst, rel)
    assert worst <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report("criterion-3", f"direct vs FFT max relative deviation {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_4_dispersive_constant_stability():
    t0 = time.time()
    configs = [
        TorusGeometry.square(1),
        TorusGeometry(1, (IRRATIONAL,)),
        TorusGeometry(2, (1.0, IRRATIONAL)),
    ]
    details = []
    for g in configs:
        ratios = [
            check_dispersive(N, g).max_ratio_kernel_vs_bound for N in (16, 32, 64, 128)
        ]
        spread = max(ratios) / min(ratios)
        assert spread < 2.0, (g, ratios)
        details.append(f"theta={g.theta} spread {spread:.3f}")
    elapsed = time.time() - t0
    assert elapsed < 360.0
    report("criterion-4", "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_5_offarc_bound_stability():
    t0 = time.time()
    g = TorusGeometry.square(1)
    constants = []
    for N in (16, 32, 64, 128, 256):
        res = check_diff_bound(N, 0.1, g)
        assert not res.degenerate
        constants.append(res.constant)
    spread = max(constants) / min(constants)
    assert spread < 4.0, constants
    elapsed = time.time() - t0
    assert elapsed < 240.0
    report("criterion-5", f"off-arc constants {['%.3f' % c for c in constants]}, "
                          f"spread {spread:.2f} ({elapsed:.1f}s)")


def test_criterion_6_strichartz_slopes():
    t0 = time.time()
    g1 = TorusGeometry.square(1)
    details = []

    fit = exponent_sweep("character", 8.0, [8, 16, 32, 64, 128], g1, n_t=4096)
    assert abs(fit.slope) <= 1e-9
    details.append(f"d1 character {fit.slope:.2e}")

    bound1 = 0.5 - 3.0 / 8.0 + 0.05
    for cls in ("flat", "random_gaussian"):
        fit = exponent_sweep(cls, 8.0, [8, 16, 32, 64, 128], g1, seed=6)
        assert fit.slope <= bound1, (cls, fit.slope)
        details.append(f"d1 {cls} {fit.slope:.3f}<={bound1:.3f}")

    g2 = TorusGeometry.square(2)
    bound2 = 1.0 / 3.0 + 0.05
    for cls in ("flat", "random_gaussian"):
        fit = exponent_sweep(cls, 6.0, [4, 8, 16, 32], g2, seed=6)
        assert fit.slope <= bound2, (cls, fit.slope)
        details.append(f"d2 {cls} {fit.slope:.3f}<={bound2:.3f}")
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report("criterion-6", "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_7_bilinear_table():
    t0 = time.time()
    g = TorusGeometry.square(3)
    horizons = (1.0, 0.25, 0.0625)
    records = bilinear_table([8, 16, 32], horizons, g, data="flat")
    assert all(np.isfinite(r["ratio"]) and r["ratio"] > 0 for r in records)
    global_max = max(r["ratio"] for r in records)

    # the binding constant is stable in the high frequency at every horizon
    for T in horizons:
        col = {}
        for r in (r for r in records if r["T"] == T):
            col.setdefault(r["N1"], 0.0)
            col[r["N1"]] = max(col[r["N1"]], r["ratio"])
        spread = max(col.values()) / min(col.values())
        assert spread < 2.0, (T, col)

    # shrinking the horizon never inflates the constant
    cmax = {T: max(r["ratio"] for r in records if r["T"] == T) for T in horizons}
    assert cmax[0.25] <= 1.05 * cmax[1.0]
    assert cmax[0.0625] <= 1.05 * cmax[1.0]

    # at fixed N2 nothing beats the correlated diagonal by more than the
    # constant-level window: no positive power of N1 can appear.  (Rows are
    # not monotone: off-diagonal entries sit lower and creep toward their
    # equidistribution limit, so only boundedness is asserted.)
    diag_peak = max(
        r["ratio"] for r in records if r["T"] == 1.0 and r["N1"] == r["N2"]
    )
    for N2 in (1, 2, 4, 8):
        row = {r["N1"]: r["ratio"] for r in records if r["T"] == 1.0 and r["N2"] == N2}
        assert max(row.values()) <= 2.0 * diag_peak, (N2, row)

    # character data witnesses exact independence of the high frequency
    witness = bilinear_table([8, 16, 32], (1.0, 0.25), g, data="character")
    for T in (1.0, 0.25):
        for N2 in (1, 2, 4, 8):
            vals = [r["ratio"] for r in witness if r["T"] == T and r["N2"] == N2]
            assert max(vals) - min(vals) <= 1e-9, (T, N2, vals)
            expected = math.sqrt(T) / N2 ** 0.5
            assert vals[0] == pytest.approx(expected, rel=1e-6)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report("criterion-7", f"flat table max {global_max:.3f}, per-horizon spread < 2, "
                          f"witness N1-independent ({elapsed:.1f}s)")


def test_criterion_8_nls_regression():
    t0 = time.time()
    g = TorusGeometry.square(3)
    A = 0.01
    u0 = FrequencyField.character(g, 8, (0, 0, 0), amplitude=A)
    prob = NlsProblem(g, +1, u0)
    T, dt = 0.25, 1e-3
    target = A * plane_wave_phase(A, +1, 3, T)
    exact = FrequencyField.character(g, 8, (0, 0, 0), amplitude=complex(target))

    def h1err(state):
        from toruslab.core import sobolev_norm
        return sobolev_norm(state.with_coeffs(state.coeffs - exact.coeffs), 1)

    picard = picard_solve(prob, T, dt)
    assert h1err(picard.states[-1]) <= 1e-8

    split = split_step_evolve(prob, T, dt)
    assert h1err(split.states[-1]) <= 1e-8
    rep = conservation_report(split)
    assert rep["mass_drift"] <= 1e-8
    assert rep["energy_drift"] <= 1e-8

    # order-2 verification: the pure plane wave is an exact orbit of the
    # splitting (both stages act as scalar phases), so the dt-sweep runs on a
    # two-mode neighbor where the splitting error is visible
    u2 = FrequencyField.zeros(g, 8)
    u2.coeffs[u2.index_of((0, 0, 0))] = 0.3
    u2.coeffs[u2.index_of((1, 0, 0))] = 0.15
    prob2 = NlsProblem(g, +1, u2)
    ends = [split_step_evolve(prob2, 0.2, dt2).states[-1] for dt2 in (4e-3, 2e-3, 1e-3)]
    from toruslab.core import sobolev_norm
    d01 = sobolev_norm(ends[0].with_coeffs(ends[0].coeffs - ends[1].coeffs), 1)
    d12 = sobolev_norm(ends[1].with_coeffs(ends[1].coeffs - ends[2].coeffs), 1)
    ratio = d01 / d12
    assert abs(ratio - 4.0) <= 0.5

    amps = (1e-3, 1e-2, 1e-1)
    f3 = [
        contraction_factor(
            NlsProblem(g, +1, FrequencyField.character(g, 8, (0, 0, 0), amplitude=a)),
            T=0.1, dt=2e-3,
        )
        for a in amps
    ]
    slope3 = float(np.polyfit(np.log(amps), np.log(f3), 1)[0])
    assert abs(slope3 - 4.0) <= 0.3

    g4 = TorusGeometry.square(4)
    f4 = [
        contraction_factor(
            NlsProblem(g4, +1, FrequencyField.character(g4, 4, (0, 0, 0, 0), amplitude=a)),
            T=0.1, dt=4e-3,
        )
        for a in amps
    ]
    slope4 = float(np.polyfit(np.log(amps), np.log(f4), 1)[0])
    assert abs(slope4 - 2.0) <= 0.3
    elapsed = time.time() - t0
    assert elapsed < 360.0
    report("criterion-8", f"picard/splitstep 1e-8 ok, order ratio {ratio:.2f}, "
                          f"contraction slopes {slope3:.2f}/{slope4:.2f} ({elapsed:.1f}s)")


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    runner = CliRunner()
    jobs = [
        ["strichartz-sweep", "--d", "1", "--p", "8", "--class", "random_gaussian",
         "--N", "4,8,16,32", "--seed", "77", "--n-t", "512", "--n-x", "64"],
        ["dispersive-check", "--d", "1", "--N", "8,16", "--n-t", "1024"],
        ["bilinear-check", "--d", "3", "--N1", "2,4", "--T", "1,0.25",
         "--n-t", "128", "--n-x", "16", "--seed", "5"],
        ["nls-run", "--d", "3", "--data", "gaussian:0.01", "--N", "2", "--T", "0.02",
         "--dt", "1e-3", "--seed", "9", "--dump-fields"],
    ]
    stdouts = []
    for run_id in ("a", "b"):
        blob = b""
        out_text = ""
        for j, job in enumerate(jobs):
            out = tmp_path / f"{run_id}{j}"
            out.mkdir()
            result = runner.invoke(cli_main, job + ["--out-dir", str(out)])
            assert result.exit_code == 0, result.output
            out_text += result.output
            for path in sorted(out.iterdir()):
                blob += path.name.encode() + path.read_bytes()
        # arith commands write to stdout only
        for cmd in (["arith", "dirichlet", "--beta", "0.3333333", "--N", "10"],
                    ["arith", "f2hat", "--omega", "6", "--Q", "2"]):
            result = runner.invoke(cli_main, cmd)
            assert result.exit_code == 0
            out_text += result.output
        stdouts.append((blob, out_text))
    assert stdouts[0][0] == stdouts[1][0]
    assert stdouts[0][1] == stdouts[1][1]
    elapsed = time.time() - t0
    report("criterion-9", f"byte-identical outputs across repeated seeded runs ({elapsed:.1f}s)")
