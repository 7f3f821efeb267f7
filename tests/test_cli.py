"""Command-line surface: flags, outputs, exit codes, determinism."""

import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from toruslab.cli import _parse_data_spec, _write_csv, main
from toruslab.core import TorusGeometry
from toruslab.io import read_field
from toruslab.nls import NlsProblem, grid_size, picard_solve, split_step_evolve
from toruslab.propagator import kernel_grid


@pytest.fixture
def runner():
    return CliRunner()


class TestKernelCommand:
    def test_point_value(self, runner):
        result = runner.invoke(
            main, ["kernel", "--d", "1", "--theta", "1", "--N", "1", "--t", "0", "--x", "0"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["value"]["re"] == pytest.approx(3.0)
        assert payload["phi_profile"]

    def test_missing_cutoff_is_usage_error(self, runner):
        result = runner.invoke(main, ["kernel", "--d", "1", "--t", "0"])
        assert result.exit_code == 2
        assert "Usage" in result.output or "Missing" in result.output

    def test_coarse_grid_is_guard_abort(self, runner):
        result = runner.invoke(main, ["kernel", "--d", "1", "--N", "8", "--n-x", "2"])
        assert result.exit_code == 1

    def test_grid_dump(self, runner, tmp_path):
        result = runner.invoke(
            main, ["kernel", "--d", "1", "--N", "2", "--t", "0.25", "--out-dir", str(tmp_path)]
        )
        assert result.exit_code == 0
        csv_lines = (tmp_path / "kernel_grid.csv").read_text().splitlines()
        assert csv_lines[0].startswith("# ")  # embedded meta record
        assert csv_lines[1] == "t,x_1,re,im"
        assert len(csv_lines) > 8
        summary = json.loads((tmp_path / "kernel_summary.json").read_text())
        assert summary["config"]["N"] == 2


def per_cell_csv_row(row):
    """The CSV row as formatted one cell at a time: 17 significant digits for floats, else str."""
    return ",".join(format(float(v), ".17g") if isinstance(v, float) else str(v) for v in row)


class TestKernelGridCsv:
    @pytest.mark.parametrize(
        "argv",
        [["--d", "1", "--N", "16", "--t", "0.3"], ["--d", "1", "--N", "4", "--t", "-0.0", "--n-x", "33"],
         ["--d", "2", "--N", "8", "--t", "0.25", "--theta", "1,0.7071067811865476"],
         ["--d", "2", "--N", "4", "--t", "0.1", "--n-x", "21"]],
        ids=["d1", "d1-odd", "d2", "d2-odd"],
    )
    def test_rows_match_per_cell_builder(self, runner, tmp_path, argv):
        # each cell built and formatted one at a time, in np.ndindex order
        result = runner.invoke(main, ["kernel", *argv, "--out-dir", str(tmp_path)])
        assert result.exit_code == 0
        opts = dict(zip(argv[::2], argv[1::2]))
        d, N, t = int(opts["--d"]), int(opts["--N"]), float(opts["--t"])
        n_x = int(opts.get("--n-x", 4 * N + 4))
        theta = tuple(float(v) for v in opts.get("--theta", "1").split(","))
        values = kernel_grid(t, n_x, N, TorusGeometry(d, theta * (d // len(theta)))).values
        want = [
            per_cell_csv_row([t, *[i / n_x for i in idx], float(values[idx].real), float(values[idx].imag)])
            for idx in np.ndindex(*values.shape)
        ]
        lines = (tmp_path / "kernel_grid.csv").read_text().split("\n")
        assert lines[2:] == want + [""]


class TestCsvWriter:
    def test_matches_per_cell_formatter(self, tmp_path):
        # one %-format string per row gives the bytes of formatting each cell
        cells = [
            "flat", 3, np.int64(-7), True, 0.0, -0.0, float("nan"), float("inf"), float("-inf"),
            5e-324, 1e300, -1e300, 0.1, 1 / 3, np.float64(-0.0), np.float64(np.nan),
            np.float64(-np.inf), np.float64(5e-324), np.float64(2.0 / 3.0), np.float32(0.1),
        ]
        rng = np.random.default_rng(0)
        rows = [[cells[i] for i in rng.integers(0, len(cells), size=5)] for _ in range(200)]
        rows += [[0.5, 1, "a"], [1, 0.5, "a"], (np.float64(0.25), 2, 0.125)]
        meta = {"config": {"command": "test"}, "seed": 1}
        path = tmp_path / "out" / "table.csv"
        _write_csv(path, ["a", "b", "c", "d", "e"], iter(rows), meta=meta)
        want = ["# " + json.dumps(meta, sort_keys=True), "a,b,c,d,e", *map(per_cell_csv_row, rows)]
        assert path.read_text() == "\n".join(want) + "\n"


class TestArithCommands:
    def test_dirichlet(self, runner):
        result = runner.invoke(main, ["arith", "dirichlet", "--beta", "0.3333333", "--N", "10"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["output"] == {"a": 1, "q": 3}

    def test_divisor(self, runner):
        result = runner.invoke(main, ["arith", "divisor", "--n", "12", "--Q", "2"])
        assert json.loads(result.output)["output"]["count"] == 2

    def test_f2hat(self, runner):
        result = runner.invoke(main, ["arith", "f2hat", "--omega", "6", "--Q", "2"])
        assert json.loads(result.output)["output"]["value"] == 5

    @pytest.mark.parametrize(
        "beta, level, expected",
        [("0.375", "8", {"a": 1, "q": 3}), ("0.3", "1024", {"a": 3, "q": 10})],
    )
    def test_dirichlet_exact_boundary_and_high_level(self, runner, beta, level, expected):
        result = runner.invoke(main, ["arith", "dirichlet", "--beta", beta, "--N", level])
        assert result.exit_code == 0
        assert json.loads(result.output)["output"] == expected

    @pytest.mark.parametrize(
        "beta, level", [("0.375", "8"), ("0.6875", "16"), ("0.1875", "16"), ("0.34375", "32")]
    )
    def test_dirichlet_certificate_on_its_bound(self, runner, beta, level):
        # the printed gap is |q beta - a|, the quantity the search tests; each
        # of these certificates has it exactly 1/N, which must not print as > 1/N
        result = runner.invoke(main, ["arith", "dirichlet", "--beta", beta, "--N", level])
        cert = json.loads(result.output)["certificate"]
        assert cert["gap"] <= cert["bound"] == 1.0 / int(level)
        assert cert["gap"] == cert["bound"]

    def test_major_arc(self, runner):
        result = runner.invoke(
            main, ["arith", "major-arc", "--t", "0.5", "--N", "16", "--sigma", "0.25"]
        )
        payload = json.loads(result.output)
        assert payload["output"]["inside"] is True
        assert payload["output"]["witness"][2] == 2


class TestSweepCommands:
    def test_character_sweep(self, runner, tmp_path):
        result = runner.invoke(main, [
            "strichartz-sweep", "--d", "1", "--p", "8", "--class", "character",
            "--N", "8,16,32,64", "--n-t", "512", "--n-x", "64", "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "strichartz_fit.json").read_text())
        assert abs(payload["fit"]["slope"]) <= 1e-9
        # explicit sizes win; a single mode is integrated exactly on any grid
        assert payload["quadrature"] == [
            {"N": N, "n_t": 512, "n_x": 64, "exact": True} for N in (8, 16, 32, 64)
        ]
        rows = (tmp_path / "strichartz_sweep.csv").read_text().splitlines()
        assert rows[0].startswith("# ")
        assert rows[1] == "class,d,p,N,norm,ratio"
        assert len(rows) == 6

    def test_dispersive_check(self, runner, tmp_path):
        result = runner.invoke(main, [
            "dispersive-check", "--d", "1", "--N", "8,16", "--n-t", "2048",
            "--dump-grid", "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "dispersive_report.json").read_text())
        assert len(payload["reports"]) == 2
        assert payload["stability"]["max_ratio_spread"] < 2.0
        for rep in payload["reports"]:
            dump = (tmp_path / f"dispersive_grid_N{rep['N']}.csv").read_text().splitlines()
            assert dump[1] == "t,kernel_max,bound,ratio"
            assert len(dump) - 2 == rep["grid"]["n_t"]
            ratios = [float(line.split(",")[3]) for line in dump[2:]]
            assert max(ratios) == rep["max_ratio_kernel_vs_bound"]

    def test_plot_emission(self, runner, tmp_path):
        result = runner.invoke(main, [
            "strichartz-sweep", "--d", "1", "--p", "8", "--class", "character",
            "--N", "8,16,32,64", "--n-t", "256", "--n-x", "64", "--emit-plot",
            "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 0
        script = (tmp_path / "strichartz_sweep.gp").read_text()
        assert "logscale" in script and "strichartz_sweep.csv" in script

    def test_bilinear_check(self, runner, tmp_path):
        result = runner.invoke(main, [
            "bilinear-check", "--d", "3", "--N1", "2,4", "--T", "1,0.25",
            "--n-t", "256", "--n-x", "16", "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 0
        rows = (tmp_path / "bilinear_table.csv").read_text().splitlines()
        assert rows[1] == "N1,N2,T,ratio"
        quad = json.loads((tmp_path / "bilinear_summary.json").read_text())["quadrature"]
        assert [(q["N1"], q["N2"], q["T"]) for q in quad] == [
            (int(a), int(b), float(t)) for a, b, t, _ in (r.split(",") for r in rows[2:])
        ]
        assert all((q["n_t"], q["n_x"]) == (256, 16) for q in quad)
        # T < 1 is never exact; at T = 1, N1 = N2 = 4 needs n_x >= 2 * (4 + 4) + 1
        assert [q["exact"] for q in quad] == [True, False, True, False, True, False,
                                              True, False, False, False]


class TestNlsRun:
    def test_plane_wave_run(self, runner, tmp_path):
        result = runner.invoke(main, [
            "nls-run", "--d", "3", "--sign", "defocusing", "--data", "planewave:0.01",
            "--N", "4", "--T", "0.05", "--dt", "1e-3", "--solver", "splitstep",
            "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["mass_drift"] <= 1e-8
        lines = (tmp_path / "nls_diagnostics.csv").read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "t,mass,energy,h1,linf"
        assert len(lines) == 53  # meta + header + 51 states
        summary = json.loads((tmp_path / "nls_summary.json").read_text())
        assert 0.0 <= summary["max_truncated_energy"] <= 1e-14 * 0.01**2

    def test_field_dump(self, runner, tmp_path):
        # every dumped state reads back with the bits of the library solve
        g = TorusGeometry.square(3)
        problem = NlsProblem(g, +1, _parse_data_spec("gaussian:0.25", g, 2, 7))
        for solver, solve in (("splitstep", split_step_evolve), ("picard", picard_solve)):
            out = tmp_path / solver
            result = runner.invoke(main, [
                "nls-run", "--d", "3", "--data", "gaussian:0.25", "--seed", "7", "--N", "2",
                "--T", "0.02", "--dt", "5e-3", "--solver", solver, "--dump-fields",
                "--out-dir", str(out),
            ])
            assert result.exit_code == 0
            traj = solve(problem, 0.02, 5e-3)
            files = sorted(out.glob("state_*.fld"))
            assert len(files) == traj.times.size == 5
            for i, path in enumerate(files):
                assert path.name == f"state_{i:06d}.fld"
                got = read_field(path)
                assert (got.geometry, got.box_radius) == (g, 2)
                assert np.array_equal(got.coeffs.view(np.float64), traj.states[i].coeffs.view(np.float64))

    def test_budget_abort(self, runner, tmp_path):
        result = runner.invoke(main, [
            "nls-run", "--d", "3", "--N", "8", "--T", "0.25", "--dt", "1e-3",
            "--budget", "1000", "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 1
        aborted = json.loads((tmp_path / "aborted.json").read_text())
        assert aborted["truncated"] is True

    def test_budget_uses_the_solver_grid(self, runner, tmp_path):
        # 3 stored states of the 5^3 box (split-step: one trajectory, Picard: 6)
        # and 4 of the 12^3 grids for each of the 3 rows of a batch
        needs = {
            "splitstep": 3 * 5**3 + 4 * 3 * grid_size(3, 2) ** 3,
            "picard": 6 * 3 * 5**3 + 4 * 3 * grid_size(3, 2) ** 3,
        }
        for solver, need in needs.items():
            argv = ["nls-run", "--d", "3", "--N", "2", "--T", "0.02", "--dt", "1e-2",
                    "--solver", solver]
            ok = runner.invoke(
                main, argv + ["--budget", str(need), "--out-dir", str(tmp_path / solver / "ok")]
            )
            assert ok.exit_code == 0
            out = tmp_path / solver / "short"
            short = runner.invoke(main, argv + ["--budget", str(need - 1), "--out-dir", str(out)])
            assert short.exit_code == 1
            aborted = json.loads((out / "aborted.json").read_text())
            assert aborted["truncated"] is True
            assert aborted["error"].startswith("BudgetExceededError")

    @pytest.mark.parametrize("data", ["gaussian:1.2", "gaussian:20"], ids=["diverging", "overflow"])
    def test_picard_abort_is_guard_abort(self, runner, tmp_path, data):
        result = runner.invoke(main, [
            "nls-run", "--d", "3", "--N", "2", "--T", "0.25", "--dt", "0.01",
            "--solver", "picard", "--data", data, "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 1
        aborted = json.loads((tmp_path / "aborted.json").read_text())
        assert aborted["truncated"] is True
        assert aborted["error"].startswith("NonContractionError")


#: A bad size, exponent or horizon, each passed last with its flag.
BAD_VALUES = [
    ["strichartz-sweep", "--N", "1,2,4,8", "--p", "0"],
    ["strichartz-sweep", "--N", "1,2,4,8", "--p", "0.5"],
    ["strichartz-sweep", "--N", "1,2,4,8", "--p", "-2"],
    ["strichartz-sweep", "--N", "1,2,4,8", "--p", "nan"],
    ["strichartz-sweep", "--N", "1,2,4,8", "--p", "8", "--n-t", "0"],
    ["strichartz-sweep", "--N", "1,2,4,8", "--p", "8", "--n-x", "0"],
    ["bilinear-check", "--N1", "2", "--n-t", "0"],
    ["bilinear-check", "--N1", "2", "--n-x", "-1"],
    ["bilinear-check", "--N1", "2", "--T", "0"],
    ["bilinear-check", "--N1", "2", "--T", "-1"],
    ["bilinear-check", "--N1", "2", "--T", "nan"],
    ["bilinear-check", "--N1", "2", "--T", "1,inf"],
    ["dispersive-check", "--N", "8", "--n-t", "-5"],
    ["dispersive-check", "--N", "8", "--n-x", "0"],
    ["kernel", "--N", "4", "--n-x", "0"],
]

#: A time or point that is not finite, at a point and on the grid dump.
NON_FINITE_KERNEL = [
    ["kernel", "--N", "4", "--t", "nan"],
    ["kernel", "--N", "4", "--t", "inf"],
    ["kernel", "--N", "4", "--t", "-inf"],
    ["kernel", "--N", "4", "--t", "nan", "--x", "0.1"],
    ["kernel", "--N", "4", "--t", "inf", "--x", "0.1"],
    ["kernel", "--N", "4", "--x", "nan"],
    ["kernel", "--N", "4", "--d", "2", "--x", "0.1,inf"],
]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel", "--N", "3"],
            ["kernel", "--N", "4", "--theta", "1.5"],
            ["kernel", "--N", "4", "--d", "5"],
            ["arith", "dirichlet", "--beta", "nan", "--N", "8"],
            ["arith", "dirichlet", "--beta", "0.5", "--N", "1"],
            ["arith", "major-arc", "--t", "0.3", "--N", "6"],
            ["dispersive-check", "--N", "3"],
            ["dispersive-check", "--N", "8", "--sigma", "0.7"],
            ["strichartz-sweep", "--p", "4", "--N", "8,16"],
            ["nls-run", "--T", "0.01", "--dt", "0.5"],
            ["nls-run", "--T", "0", "--dt", "1e-3"],
            ["nls-run", "--T", "0.01", "--dt", "0"],
            ["nls-run", "--T", "0.01", "--dt", "-1e-3"],
            ["nls-run", "--N", "0"],
            ["nls-run", "--N", "-2"],
            ["nls-run", "--T", "inf", "--dt", "1e-3"],
            ["nls-run", "--T", "nan", "--dt", "1e-3"],
            ["dispersive-check", "--N", "8", "--threads", "2"],
            ["strichartz-sweep", "--N", "1,2,4,8", "--p", "4", "--threads", "2"],
            ["bilinear-check", "--N1", "2", "--threads", "2"],
            ["nls-run", "--threads", "2"],
        ] + BAD_VALUES + NON_FINITE_KERNEL,
    )
    def test_bad_input_exits_2(self, runner, tmp_path, argv):
        with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
            result = runner.invoke(main, argv)
            assert not os.listdir(cwd)  # rejected before any output is written
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in result.output

    @pytest.mark.parametrize("argv", BAD_VALUES)
    def test_bad_value_names_its_flag(self, runner, tmp_path, argv):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert f"'{argv[-2]}'" in result.output


class TestDeterminism:
    def test_seeded_outputs_byte_identical(self, runner, tmp_path):
        args = [
            "strichartz-sweep", "--d", "1", "--p", "8", "--class", "random_gaussian",
            "--N", "4,8,16,32", "--seed", "123", "--n-t", "256", "--n-x", "64",
        ]
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = runner.invoke(main, args + ["--out-dir", str(out)])
            assert result.exit_code == 0
            outs.append(
                (out / "strichartz_sweep.csv").read_bytes()
                + (out / "strichartz_fit.json").read_bytes()
            )
        assert outs[0] == outs[1]
