"""toruslab benchmark: one workload, one seed, every metric by name with its unit.

Usage, from the root of a checkout:

    python3 bench/run.py --workload queries --seed 1 --seconds 50 --trace 0

Workloads and metrics are declared in BENCHMARK.json.  With ``--trace 0`` the
run prints the end-to-end metrics, measured with tracing off; with
``--trace 1`` it prints the per-layer metrics from traced passes.  Every
operation's output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (metrics, output digest, failed operations, machine and settings) is
written to ``bench/out/<workload>-seed<seed>-trace<trace>.json``; a traced run
also writes its spans next to it.

The workload runs in a fresh process (``bench/worker.py``) with one FFT worker
and BLAS/OpenMP thread pools capped at one thread.  Set-up time is the time
from starting such a process until it has imported toruslab, generated the
seeded inputs and run one warm-up operation.  It is the median over the
measuring process and SETUP_PROBES processes that only set up; the probes run
while the measuring process pauses between passes, so they are spread over
the run and never run beside the measurement.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

#: Fresh processes that only set up, in addition to the measuring one; they
#: run while the measuring process pauses between passes, spread over the run.
SETUP_PROBES = 8
#: Thread caps handed to the workload process.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: Hard limit on one worker process, well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def machine() -> dict:
    """nproc, CPU model and cache sizes, read from /proc and /sys."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + ({"Data": "d", "Instruction": "i"}.get(kind, ""))
        info["caches"][name] = size
    return info


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, mode: str, out: Path | None) -> tuple[subprocess.Popen, float]:
    """Start a workload process and wait for READY; returns it and its set-up time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    if out is not None:
        cmd += ["--out", str(out)]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_fault is not None:
        cmd += ["--inject-fault", str(args.inject_fault)]
    if args.drop_nonlinearity:
        cmd.append("--drop-nonlinearity")
    if mode == "run" and not args.trace:
        cmd += ["--probes", str(SETUP_PROBES)]
    t0 = time.perf_counter()
    # unbuffered, so select() sees every status line the worker has written
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, bufsize=0)
    line = read_line(proc, t0, "READY")
    if line != "READY":
        stop(proc)
        raise BenchError(f"{mode} process exited with code {proc.returncode} before it was ready")
    return proc, time.perf_counter() - t0


def read_line(proc: subprocess.Popen, t0: float, want: str) -> str:
    """The worker's next status line that starts with `want` or is DONE; '' at exit."""
    while True:
        left = WORKER_TIMEOUT_S - (time.perf_counter() - t0)
        ready, _, _ = select.select([proc.stdout], [], [], max(left, 0.0))
        if not ready:
            stop(proc)
            raise BenchError(f"workload process did not finish in {WORKER_TIMEOUT_S:.0f} s")
        line = proc.stdout.readline().decode()
        if not line or line.startswith((want, "DONE")):
            return line.strip()


def probe(args, setups: list[float], n: int) -> None:
    """Time n fresh processes from start to ready."""
    for _ in range(n):
        proc, dt = start_worker(args, "setup", None)
        finish(proc, WORKER_TIMEOUT_S)
        setups.append(dt)


def measure(args, raw: Path) -> tuple[dict, list[float]]:
    """Run the workload process; set-up probes run while it pauses between passes."""
    t0 = time.perf_counter()
    proc, dt = start_worker(args, "run", raw)
    setups = [dt]
    try:
        while (line := read_line(proc, t0, "PAUSE")).startswith("PAUSE"):
            probe(args, setups, int(line.split()[1]))
            proc.stdin.write(b"GO\n")
        finish(proc, WORKER_TIMEOUT_S - (time.perf_counter() - t0))
    finally:
        stop(proc)
    if not args.trace:
        probe(args, setups, SETUP_PROBES + 1 - len(setups))
    run = json.loads(raw.read_text())
    raw.unlink()
    return run, setups


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("workload process timed out")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")


def percentile(sorted_vals: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of samples above its rank."""
    rank = max(math.ceil(q * len(sorted_vals)), 1)
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def end_to_end(run: dict, setups: list[float]) -> tuple[dict, dict]:
    """Each operation's latency is its median over the run's untraced passes, so
    one slow pass moves neither the sum nor the percentiles."""
    rounds = [r for r in run["rounds"] if not r["traced"]]
    per_op = [statistics.median(col) for col in zip(*(r["latency_s"] for r in rounds))]
    lat = sorted(per_op)
    p99, beyond = percentile(lat, 0.99)
    metrics = {
        "wall_s": sum(per_op),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_passed_frac": 1.0 - run["failed"] / run["attempted"],
        "op_p50_ms": 1e3 * statistics.median(lat),
    }
    by_command: dict[str, float] = {}
    for name, t in zip(run["commands"], per_op):
        by_command[name] = by_command.get(name, 0.0) + t
    notes = {
        "passes": len(rounds),
        "median_pass_wall_s": statistics.median(r["wall_s"] for r in rounds),
        "latency_samples": len(lat),
        "op_p99_ms": 1e3 * p99,
        "samples_beyond_p99": beyond,
        "wall_s_by_command": by_command,
        "setup_samples_s": setups,
        "ops_failed_frac": run["failed"] / run["attempted"],
        "pass_latency_s": [r["latency_s"] for r in rounds],
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every size (self-test)")
    ap.add_argument("--inject-fault", type=int, default=None, metavar="OP",
                    help="check a corrupted copy of operation OP's first answer (self-test)")
    ap.add_argument("--drop-nonlinearity", action="store_true",
                    help="run the NLS solvers without their nonlinear term (self-test)")
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "toruslab" / "__init__.py").is_file():
            raise BenchError("src/toruslab is missing: run from the root of a toruslab checkout")
        OUT.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        raw = OUT / f"{stem}.worker.json"

        run, setups = measure(args, raw)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    e2e, notes = end_to_end(run, setups)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = dict(run["layers"], op_p99_ms=notes["op_p99_ms"], op_p99_beyond=notes["samples_beyond_p99"])
    else:
        values = e2e
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "metrics": metrics,
        "end_to_end": e2e,
        "notes": notes,
        "digest": run["digest"],
        "op_digests": run["op_digests"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "problems": run["problems"],
        "machine": machine(),
        "settings": {
            "fft_workers": run["fft_workers"],
            "thread_caps": THREAD_ENV,
            "numpy": run["versions"]["numpy"],
            "scipy": run["versions"]["scipy"],
            "click": run["versions"]["click"],
            "toruslab": run["versions"]["toruslab"],
            "client": "closed loop, one client, in-process CliRunner",
        },
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{notes['passes']} passes of {run['ops']} operations, output digest {run['digest']}")
    print(f"latency samples {notes['latency_samples']} operations (median of {notes['passes']} passes each), "
          f"p99 {notes['op_p99_ms']:.4g} ms with {notes['samples_beyond_p99']} beyond; "
          f"ops_failed_frac {notes['ops_failed_frac']:.6g} ({run['failed']}/{run['attempted']})")
    print("wall_s by command: " + ", ".join(f"{k} {v:.4g} s" for k, v in notes["wall_s_by_command"].items()))
    for i, probs in list(run["problems"].items())[:5]:
        print(f"  op {i}: {probs[0]}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
