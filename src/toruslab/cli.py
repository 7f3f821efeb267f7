"""Command-line drivers for reproducible experiments.

Every command writes machine-readable outputs (JSON summaries, CSV tables)
that embed the full configuration, the seed, the package version, and the
cutoff-profile identifier.  Given identical flags and seed, outputs are
byte-identical: no timestamps or environment data are recorded, floats are
written with 17 significant digits in CSV and shortest-roundtrip form in JSON.

Exit codes: 0 success, 1 resource/guard abort (partial results are flushed
with a "truncated" marker where they exist), 2 usage error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .core import PHI_PROFILE_ID, FrequencyField, TorusGeometry
from .arithmetic import (
    MajorArcParams,
    dirichlet_approx,
    divisor_count_dyadic,
    f2_hat,
    in_major_arc,
)
from .dispersive import check_dispersive
from .errors import BoxTooSmallError, BudgetExceededError, GridTooCoarseError, NonContractionError
from .io import write_field
from .nls import NlsProblem, conservation_report, live_cells, picard_solve, split_step_evolve
from .propagator import kernel_direct, kernel_grid
from .strichartz import _check_exponent, bilinear_table, exponent_sweep

GUARD_ERRORS = (BudgetExceededError, GridTooCoarseError, BoxTooSmallError, NonContractionError)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _meta(config: dict, seed: int | None = None) -> dict:
    return {
        "config": config,
        "seed": seed,
        "version": __version__,
        "phi_profile": PHI_PROFILE_ID,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list], meta: dict | None = None) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    if meta is not None:
        lines.append("# " + json.dumps(meta, sort_keys=True))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _parse_theta(d: int, theta: str | None) -> TorusGeometry:
    if theta is None:
        return TorusGeometry.square(d)
    vals = tuple(float(v) for v in theta.split(","))
    if len(vals) == 1 and d > 1:
        vals = vals * d
    return TorusGeometry(d=d, theta=vals)


def _parse_int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _exponent(ctx, param, value: float) -> float:
    try:
        _check_exponent(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc), ctx, param) from exc
    return value


def _horizons(ctx, param, text: str) -> list[float]:
    hs = [float(v) for v in text.split(",")]
    if not all(np.isfinite(h) and h > 0 for h in hs):
        raise click.BadParameter(f"horizons must be finite and > 0, got {text}", ctx, param)
    return hs


def _guard_abort(out_dir: Path | None, config: dict, seed, exc: Exception) -> None:
    payload = _meta(config, seed)
    payload["truncated"] = True
    payload["error"] = f"{type(exc).__name__}: {exc}"
    if out_dir is not None:
        _write_json(Path(out_dir) / "aborted.json", payload)
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(1)


class _Group(click.Group):
    """Reports a plain ValueError as a usage error (exit 2); guard errors keep exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except GUARD_ERRORS:
            raise
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc


@click.group(cls=_Group)
@click.version_option(version=__version__)
def main():
    """Numerical experiments for Schrodinger evolution on rectangular tori."""


@main.command()
@click.option("--d", "dim", type=int, default=1, show_default=True)
@click.option("--theta", type=str, default=None, help="comma list of torus weights")
@click.option("--N", "cutoff", type=int, required=True)
@click.option("--t", "time_pt", type=float, default=0.0, show_default=True)
@click.option("--x", "point", type=str, default=None, help="comma list: evaluate at one point")
@click.option("--n-x", type=click.IntRange(min=1), default=None, help="grid resolution for the CSV dump")
@click.option("--budget", type=int, default=1 << 24, show_default=True)
@click.option("--out-dir", type=click.Path(path_type=Path), default=None)
def kernel(dim, theta, cutoff, time_pt, point, n_x, budget, out_dir):
    """Evaluate the frequency-localized propagator kernel (point or grid dump)."""
    g = _parse_theta(dim, theta)
    config = {
        "command": "kernel", "d": dim, "theta": list(g.theta), "N": cutoff,
        "t": time_pt, "x": point, "n_x": n_x,
    }
    try:
        if point is not None:
            x = [float(v) for v in point.split(",")]
            value = kernel_direct(time_pt, x, cutoff, g)
            payload = _meta(config)
            payload["value"] = {"re": value.real, "im": value.imag, "abs": abs(value)}
            click.echo(json.dumps(payload, sort_keys=True))
            if out_dir is not None:
                _write_json(Path(out_dir) / "kernel_point.json", payload)
            return
        if n_x is None:
            n_x = 4 * cutoff + 4
        if n_x**dim > budget:
            raise BudgetExceededError(f"{n_x}^{dim} grid cells exceed budget {budget}")
        ev = kernel_grid(time_pt, n_x, cutoff, g)
        rows = []
        for idx in np.ndindex(*ev.values.shape):
            xs = [i / n_x for i in idx]
            v = ev.values[idx]
            rows.append([time_pt, *xs, float(v.real), float(v.imag)])
        header = ["t"] + [f"x_{j+1}" for j in range(dim)] + ["re", "im"]
        out_dir = Path(out_dir) if out_dir is not None else Path(".")
        _write_csv(out_dir / "kernel_grid.csv", header, rows, meta=_meta(config))
        payload = _meta(config)
        payload["summary"] = {
            "n_x": n_x,
            "max_abs": float(np.max(np.abs(ev.values))),
            "mean_re": float(np.mean(ev.values.real)),
        }
        _write_json(out_dir / "kernel_summary.json", payload)
        click.echo(json.dumps(payload["summary"], sort_keys=True))
    except GUARD_ERRORS as exc:
        _guard_abort(out_dir, config, None, exc)


@main.command("dispersive-check")
@click.option("--d", "dim", type=int, default=1, show_default=True)
@click.option("--theta", type=str, default=None)
@click.option("--N", "cutoffs", type=str, required=True, help="comma list of dyadic N")
@click.option("--sigma", type=float, default=0.1, show_default=True)
@click.option("--n-t", type=click.IntRange(min=1), default=None)
@click.option("--n-x", type=click.IntRange(min=1), default=None)
@click.option("--dump-grid", is_flag=True, default=False,
              help="also write per-time-sample kernel/bound CSVs (can be large)")
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."), show_default=True)
def dispersive_check(dim, theta, cutoffs, sigma, n_t, n_x, dump_grid, out_dir):
    """Kernel-vs-bound max ratio and off-arc sup, per cutoff scale."""
    g = _parse_theta(dim, theta)
    n_list = _parse_int_list(cutoffs)
    config = {
        "command": "dispersive-check", "d": dim, "theta": list(g.theta),
        "N": n_list, "sigma": sigma, "n_t": n_t, "n_x": n_x,
    }
    try:
        reports = [check_dispersive(N, g, sigma=sigma, n_t=n_t, n_x=n_x) for N in n_list]
    except GUARD_ERRORS as exc:
        _guard_abort(out_dir, config, None, exc)
        return
    payload = _meta(config)
    payload["reports"] = [r.to_json_dict() for r in reports]
    ratios = [r.max_ratio_kernel_vs_bound for r in reports]
    payload["stability"] = {
        "max_ratio_spread": max(ratios) / min(ratios) if min(ratios) > 0 else None,
    }
    _write_json(Path(out_dir) / "dispersive_report.json", payload)
    if dump_grid:
        for r in reports:
            rows = [[float(t), float(k), float(b), float(k / b)] for t, k, b in zip(*r.sweep)]
            _write_csv(Path(out_dir) / f"dispersive_grid_N{r.N}.csv",
                       ["t", "kernel_max", "bound", "ratio"], rows, meta=_meta(config))
    click.echo(json.dumps(payload["stability"], sort_keys=True))


@main.command("strichartz-sweep")
@click.option("--d", "dim", type=int, default=1, show_default=True)
@click.option("--theta", type=str, default=None)
@click.option("--p", "exponent", type=float, required=True, callback=_exponent)
@click.option("--class", "data_class", type=click.Choice(["character", "flat", "random_gaussian"]), default="flat", show_default=True)
@click.option("--N", "cutoffs", type=str, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--n-t", type=click.IntRange(min=1), default=None)
@click.option("--n-x", type=click.IntRange(min=1), default=None)
@click.option("--emit-plot", is_flag=True, default=False,
              help="also write a gnuplot script for the sweep CSV")
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."), show_default=True)
def strichartz_sweep(dim, theta, exponent, data_class, cutoffs, seed, n_t, n_x, emit_plot, out_dir):
    """Fit the growth exponent of the space-time norm against the cutoff scale."""
    g = _parse_theta(dim, theta)
    n_list = _parse_int_list(cutoffs)
    config = {
        "command": "strichartz-sweep", "d": dim, "theta": list(g.theta), "p": exponent,
        "class": data_class, "N": n_list, "n_t": n_t, "n_x": n_x,
    }
    try:
        fit = exponent_sweep(data_class, exponent, n_list, g, seed=seed, n_t=n_t, n_x=n_x)
    except GUARD_ERRORS as exc:
        _guard_abort(out_dir, config, seed, exc)
        return
    rows = [
        [data_class, dim, float(exponent), N, norm, norm / N**fit.theoretical_exponent]
        for N, norm in zip(fit.N_list, fit.norms)
    ]
    _write_csv(Path(out_dir) / "strichartz_sweep.csv", ["class", "d", "p", "N", "norm", "ratio"],
               rows, meta=_meta(config, seed))
    if emit_plot:
        script = (
            "set logscale xy\n"
            "set xlabel 'N'\n"
            "set ylabel 'norm'\n"
            f"fitlaw(x) = exp({_fmt(fit.intercept)}) * x**({_fmt(fit.slope)})\n"
            "plot 'strichartz_sweep.csv' using 4:5 with points title 'measured', \\\n"
            "     fitlaw(x) with lines title 'fit'\n"
        )
        (Path(out_dir) / "strichartz_sweep.gp").write_text(script)
    payload = _meta(config, seed)
    payload["fit"] = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "max_residual": fit.max_residual,
        "theoretical_exponent": fit.theoretical_exponent,
    }
    payload["quadrature"] = fit.quadrature
    _write_json(Path(out_dir) / "strichartz_fit.json", payload)
    click.echo(json.dumps(payload["fit"], sort_keys=True))


@main.command("bilinear-check")
@click.option("--d", "dim", type=int, default=3, show_default=True)
@click.option("--theta", type=str, default=None)
@click.option("--N1", "n1_list", type=str, required=True, help="comma list of high scales")
@click.option("--T", "horizons", type=str, default="1", show_default=True, callback=_horizons)
@click.option("--class", "data_class", type=click.Choice(["flat", "character", "random"]), default="flat", show_default=True)
@click.option("--n-x", type=click.IntRange(min=1), default=None)
@click.option("--n-t", type=click.IntRange(min=1), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."), show_default=True)
def bilinear_check(dim, theta, n1_list, horizons, data_class, n_x, n_t, seed, out_dir):
    """Bilinear product ratios over dyadic scale pairs and horizons."""
    g = _parse_theta(dim, theta)
    n1 = _parse_int_list(n1_list)
    config = {
        "command": "bilinear-check", "d": dim, "theta": list(g.theta), "N1": n1,
        "T": horizons, "class": data_class, "n_x": n_x, "n_t": n_t,
    }
    try:
        records = bilinear_table(n1, horizons, g, data=data_class, n_x=n_x, n_t=n_t, seed=seed)
    except GUARD_ERRORS as exc:
        _guard_abort(out_dir, config, seed, exc)
        return
    rows = [[r["N1"], r["N2"], r["T"], r["ratio"]] for r in records]
    _write_csv(Path(out_dir) / "bilinear_table.csv", ["N1", "N2", "T", "ratio"],
               rows, meta=_meta(config, seed))
    payload = _meta(config, seed)
    payload["max_ratio"] = max(r["ratio"] for r in records)
    payload["quadrature"] = [
        {k: r[k] for k in ("N1", "N2", "T", "n_t", "n_x", "exact")} for r in records
    ]
    _write_json(Path(out_dir) / "bilinear_summary.json", payload)
    click.echo(json.dumps({"max_ratio": payload["max_ratio"]}, sort_keys=True))


def _parse_data_spec(spec: str, g: TorusGeometry, box: int, seed: int) -> FrequencyField:
    name, _, args = spec.partition(":")
    if name == "planewave":
        amp = float(args) if args else 0.01
        return FrequencyField.character(g, box, (0,) * g.d, amplitude=amp)
    if name == "character":
        parts = args.split(":") if args else ["0.01"]
        amp = float(parts[0])
        k = (1,) + (0,) * (g.d - 1)
        return FrequencyField.character(g, box, k, amplitude=amp)
    if name == "gaussian":
        amp = float(args) if args else 0.01
        rng = np.random.default_rng(seed)
        shape = (2 * box + 1,) * g.d
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs *= amp / np.sqrt(np.sum(np.abs(coeffs) ** 2))
        return FrequencyField(g, box, coeffs)
    raise click.UsageError(f"unknown data spec {spec!r}")


@main.command("nls-run")
@click.option("--d", "dim", type=click.Choice(["3", "4"]), default="3", show_default=True)
@click.option("--theta", type=str, default=None)
@click.option("--sign", type=click.Choice(["defocusing", "focusing"]), default="defocusing", show_default=True)
@click.option("--data", "data_spec", type=str, default="planewave:0.01", show_default=True)
@click.option("--N", "box", type=click.IntRange(min=1), default=8, show_default=True,
              help="coefficient box radius")
@click.option("--T", "horizon", type=float, default=0.25, show_default=True)
@click.option("--dt", type=float, default=1e-3, show_default=True)
@click.option("--solver", type=click.Choice(["picard", "splitstep"]), default="splitstep", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--dump-fields", is_flag=True, default=False)
@click.option("--budget", type=int, default=1 << 24, show_default=True)
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."), show_default=True)
def nls_run(dim, theta, sign, data_spec, box, horizon, dt, solver, seed, dump_fields, budget, out_dir):
    """Run the critical-power solver and write per-step conservation diagnostics."""
    if not 0 < dt <= horizon < np.inf:
        raise click.UsageError(f"need 0 < dt <= T < inf, got dt={dt}, T={horizon}")
    d = int(dim)
    g = _parse_theta(d, theta)
    config = {
        "command": "nls-run", "d": d, "theta": list(g.theta), "sign": sign,
        "data": data_spec, "N": box, "T": horizon, "dt": dt, "solver": solver,
    }
    try:
        cells = live_cells(d, box, horizon, dt, solver)
        if cells > budget:
            raise BudgetExceededError(f"{cells} live {solver} cells exceed budget {budget}")
        u0 = _parse_data_spec(data_spec, g, box, seed)
        problem = NlsProblem(g, +1 if sign == "defocusing" else -1, u0)
        if solver == "picard":
            traj = picard_solve(problem, horizon, dt)
        else:
            traj = split_step_evolve(problem, horizon, dt)
    except GUARD_ERRORS as exc:
        _guard_abort(out_dir, config, seed, exc)
        return
    out_dir = Path(out_dir)
    diag = traj.diagnostics
    rows = [
        [float(t), float(diag["mass"][i]), float(diag["energy"][i]),
         float(diag["h1"][i]), float(diag["linf"][i])]
        for i, t in enumerate(traj.times)
    ]
    _write_csv(out_dir / "nls_diagnostics.csv", ["t", "mass", "energy", "h1", "linf"],
               rows, meta=_meta(config, seed))
    if dump_fields:
        for i, state in enumerate(traj.states):
            write_field(state, out_dir / f"state_{i:06d}.fld")
    payload = _meta(config, seed)
    payload["report"] = conservation_report(traj)
    payload["flag"] = traj.info.get("flag")
    payload["max_truncated_energy"] = traj.info["max_truncated_energy"]
    _write_json(out_dir / "nls_summary.json", payload)
    click.echo(json.dumps(payload["report"], sort_keys=True))


@main.group()
def arith():
    """Number-theoretic helpers: certificates, divisor counts, arc membership."""


@arith.command()
@click.option("--beta", type=float, required=True)
@click.option("--N", "level", type=int, required=True)
def dirichlet(beta, level):
    """Best rational approximation certificate at a level."""
    r = dirichlet_approx(beta, level)
    click.echo(json.dumps({
        "input": {"beta": beta, "N": level},
        "output": {"a": r.a, "q": r.q},
        "certificate": {"gap": r.gap, "bound": 1.0 / level},
    }, sort_keys=True))


@arith.command()
@click.option("--n", "value", type=int, required=True)
@click.option("--Q", "window", type=int, required=True)
def divisor(value, window):
    """Count divisors in the dyadic window [Q, 2Q)."""
    c = divisor_count_dyadic(value, window)
    click.echo(json.dumps({
        "input": {"n": value, "Q": window},
        "output": {"count": c},
        "certificate": {"method": "trial-division"},
    }, sort_keys=True))


@arith.command()
@click.option("--omega", type=int, required=True)
@click.option("--Q", "window", type=int, required=True)
def f2hat(omega, window):
    """Divisor-weighted transform of the unreduced Farey atom train."""
    v = f2_hat(omega, window)
    click.echo(json.dumps({
        "input": {"omega": omega, "Q": window},
        "output": {"value": v},
        "certificate": {"bound_always": 4 * window**2},
    }, sort_keys=True))


@arith.command("major-arc")
@click.option("--t", "time_pt", type=float, required=True)
@click.option("--N", "level", type=int, required=True)
@click.option("--sigma", type=float, default=0.1, show_default=True)
@click.option("--d", "dim", type=int, default=1, show_default=True)
@click.option("--theta", type=str, default=None)
def major_arc(time_pt, level, sigma, dim, theta):
    """Arc membership of a time, with witness."""
    g = _parse_theta(dim, theta)
    inside, witness = in_major_arc(time_pt, MajorArcParams(sigma=sigma, N=level), g)
    click.echo(json.dumps({
        "input": {"t": time_pt, "N": level, "sigma": sigma, "theta": list(g.theta)},
        "output": {"inside": inside, "witness": list(witness) if witness else None},
        "certificate": {"q_bound": level ** (2 * sigma)},
    }, sort_keys=True))


if __name__ == "__main__":
    main()
