"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 bench/selftest.py

Asserts that each run's last line has exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; that it prints every declared
end-to-end (``--trace 0``) or per-layer (``--trace 1``) metric with its unit;
that every per-layer metric is non-zero on some workload, so no declared name
is silently unmeasured; that a repeated run gives the same output digest; that
a deliberately wrong answer, handed to one operation's check, is counted as a
failed operation on every pass; that NLS solvers run without their nonlinear
term fail every NLS check; that the full query stream asks certificates and
arc membership only where the program answers correctly, with sigma spread
over all of that range; and that the defect probe ``bench/defects.py`` runs.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    ARC_STRATA, CERT_LEVELS, arc_sigma_max, experiments_ops, queries_ops,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

#: Per-layer metrics that may read 0 on every tiny workload (tiny runs hold
#: fewer than 100 operations, so none lies beyond the p99).
MAY_BE_ZERO = {"trace.overhead_frac", "op_p99_beyond"}


def run(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / "bench" / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return last, record


def check_line(last: dict, declared: list[dict]) -> None:
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int) and 0 <= last["failed"] <= last["attempted"]
    assert last["correct"] == (last["failed"] == 0)
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    assert got == want, set(got) ^ set(want)
    assert all(math.isfinite(v["value"]) for v in last["metrics"].values())


def main() -> int:
    nonzero: set[str] = set()
    baseline = {}
    for w in (x["name"] for x in SPEC["workloads"]):
        last, rec = run(w, 0)
        check_line(last, SPEC["end_to_end"])
        assert all(v["value"] > 0 for v in last["metrics"].values()), last["metrics"]
        baseline[w] = (last, rec)
        again, rec2 = run(w, 0)
        assert rec2["digest"] == rec["digest"], f"{w}: output digest changed between runs"
        traced, rec_t = run(w, 1)
        check_line(traced, SPEC["per_layer"])
        assert rec_t["digest"] == rec["digest"], f"{w}: tracing changed the outputs"
        nonzero |= {k for k, v in traced["metrics"].items() if v["value"] != 0}
        print(f"{w}: ok ({last['failed']}/{last['attempted']} failed, digest {rec['digest'][:12]})")
    unmeasured = {m["name"] for m in SPEC["per_layer"]} - nonzero - MAY_BE_ZERO
    assert not unmeasured, f"per-layer metrics zero on every workload: {sorted(unmeasured)}"

    # a wrong answer fed to one check fails that operation on every pass:
    # the first dispersive-check and the plane wave read back from .fld files
    _, ops = experiments_ops(SEED, tiny=True)
    dump = next(i for i, op in enumerate(ops) if any(a.startswith("planewave:") for a in op.argv))
    for w, op in (("experiments", 0), ("experiments", dump)):
        last, rec = run(w, 0, "--inject-fault", str(op))
        base, base_rec = baseline[w]
        passes = rec["notes"]["passes"]
        per_pass = base["failed"] / base_rec["notes"]["passes"]
        assert str(op) in rec["problems"], rec["problems"]
        assert last["failed"] == per_pass * passes + passes, (last["failed"], per_pass, passes)
        print(f"{w}: injected wrong answer at op {op} counted ({last['failed']}/{last['attempted']})")
    # NLS solvers without their nonlinear term: every nls-run check fails
    nls = [i for i, op in enumerate(ops) if op.argv[0] == "nls-run"]
    last, rec = run("experiments", 0, "--drop-nonlinearity")
    assert sorted(int(i) for i in rec["problems"]) == nls, rec["problems"]
    print(f"experiments: NLS without the nonlinearity counted ({last['failed']}/{last['attempted']})")

    # the full query stream: certificates and arc membership only at N <= 512 and
    # sigma below arc_sigma_max(N), with every sigma stratum of that range used
    for seed in (1, 2, 3):
        _, qops = queries_ops(seed)
        strata = set()
        for op in qops:
            a = dict(zip(op.argv[2::2], op.argv[3::2]))
            if op.argv[:2] in (["arith", "dirichlet"], ["arith", "major-arc"]):
                assert int(a["--N"]) in CERT_LEVELS, op.argv
            if op.argv[:2] == ["arith", "major-arc"]:
                share = float(a["--sigma"]) / arc_sigma_max(int(a["--N"]))
                assert 0 < share < 1, op.argv
                strata.add(int(share * ARC_STRATA))
        assert strata == set(range(ARC_STRATA)), (seed, strata)
    print("queries: certificate and arc inputs lie where the program answers correctly")
    out = subprocess.run([sys.executable, "bench/defects.py", "--per-kind", "6"], cwd=ROOT,
                         capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert all(v["attempted"] == 6 for v in report.values()), report
    print("defects: " + ", ".join(f"{k} {v['failed']}/{v['attempted']} failed" for k, v in report.items()))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
