"""One workload in one fresh process: set up, then a closed loop with one client.

Run by ``bench/run.py``; not meant to be called by hand.  The process imports
toruslab, builds the seeded operation list, runs one warm-up operation and
prints ``READY``; with ``--mode setup`` it stops there.  Otherwise it repeats
the operation list through ``toruslab.cli.main`` (click's CliRunner, in this
process) while the next pass still ends within ``--seconds``, checks the
first pass's outputs, compares every later pass with the first by digest, and
writes its measurements as JSON to ``--out``.  With ``--probes k`` it pauses
between passes, k times in all spread over the run, printing ``PAUSE n`` and
waiting for ``GO``, while the parent times n fresh set-ups.

With ``--trace 1`` passes alternate between untraced and traced, so one run
gives both the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import math
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from click.testing import CliRunner  # noqa: E402

import toruslab  # noqa: E402
from toruslab.cli import main as cli_main  # noqa: E402

import tracing  # noqa: E402
from workloads import BUILDERS, Op, Result  # noqa: E402


def command_name(argv: list[str]) -> str:
    return "cli." + (f"arith.{argv[1]}" if argv[0] == "arith" else argv[0])


class Client:
    """Invokes operations, keeping each one's outputs in its own directory."""

    def __init__(self, work: Path):
        self.runner = CliRunner()
        self.work = work

    def invoke(self, i: int, op: Op, tracer: tracing.Tracer | None = None) -> tuple[float, Result]:
        argv = list(op.argv)
        out = None
        if op.out_dir:
            out = self.work / f"op{i}"
            if out.exists():
                shutil.rmtree(out)
            out.mkdir(parents=True)
            argv += ["--out-dir", str(out)]
        span = tracer.begin_op(i, command_name(op.argv)) if tracer else None
        t0 = time.perf_counter()
        res = self.runner.invoke(cli_main, argv)
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end_op(span)
        error = None
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            error = f"{type(res.exception).__name__}: {res.exception}"
        files = {}
        if out is not None:
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
        return latency, Result(res.exit_code, error, res.stdout, files)


FLOAT = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?")


def corrupt(res: Result) -> Result:
    """A deliberately wrong answer (self-test): every float in the outputs times 1.001."""

    def scale(m: re.Match) -> str:
        return repr(float(m.group()) * 1.001)

    files = {}
    for name, data in res.files.items():
        if name.endswith(".fld"):
            head, _, payload = data.partition(b"\n")
            files[name] = head + b"\n" + (np.frombuffer(payload, "<f8") * 1.001).astype("<f8").tobytes()
        else:
            files[name] = FLOAT.sub(scale, data.decode()).encode()
    return Result(res.exit_code, res.error, FLOAT.sub(scale, res.stdout), files)


def drop_nonlinearity() -> None:
    """A deliberately wrong solver (self-test): both NLS solvers integrate the free flow."""
    import toruslab.cli
    import toruslab.nls

    for name in ("split_step_evolve", "picard_solve"):
        solve = getattr(toruslab.nls, name)

        def linear(problem, *a, _solve=solve, **kw):
            return _solve(dataclasses.replace(problem, coupling=0.0), *a, **kw)

        for mod in (toruslab.nls, toruslab.cli):
            if getattr(mod, name, None) is solve:
                setattr(mod, name, linear)


def digest(res: Result) -> str:
    h = hashlib.sha256()
    h.update(f"{res.exit_code}\0{res.error}\0".encode())
    h.update(res.stdout.encode())
    for name in sorted(res.files):
        h.update(b"\0" + name.encode() + b"\0" + res.files[name])
    return h.hexdigest()


def verdict(op: Op, res: Result, prev: list) -> list[str]:
    """Problems with one operation's result; an empty list is a pass."""
    if res.exit_code != 0 or res.error:
        return [f"exit {res.exit_code}: {res.error or res.stdout.strip()[-200:]}"]
    try:
        return op.check(res, prev)
    except Exception as exc:  # a malformed output is a failed operation, not a crash
        return [f"check raised {type(exc).__name__}: {exc}"]


def setup(args, client: Client) -> list[Op]:
    """Seeded inputs plus one warm-up operation, which must pass its check."""
    warm, ops = BUILDERS[args.workload](args.seed, tiny=args.tiny)
    _, res = client.invoke(-1, warm)
    problems = verdict(warm, res, [])
    if problems:
        raise RuntimeError(f"warm-up operation failed: {problems}")
    return ops


def measure(args, ops: list[Op], client: Client) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    first: list[Result | None] = [None] * len(ops)
    first_digest: list[str] = []
    problems: dict[int, list[str]] = {}
    rounds = []
    attempted = failed = 0
    bytes_written = 0
    probed = 0
    paused = 0.0
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        lat = []
        for i, op in enumerate(ops):
            dt, res = client.invoke(i, op, tracer if traced else None)
            lat.append(dt)
            attempted += 1
            if not rounds:
                first_digest.append(digest(res))
                first[i] = corrupt(res) if args.inject_fault == i else res
                problems[i] = verdict(op, first[i], first)
                bytes_written += len(res.stdout.encode()) + sum(len(b) for b in res.files.values())
            elif digest(res) != first_digest[i]:
                problems[i] = problems[i] + [f"pass {len(rounds)}: output differs from the first pass"]
            failed += bool(problems[i])
        if traced:
            tracer.uninstall()
        rounds.append({"traced": traced, "wall_s": sum(lat), "latency_s": lat})
        if len(rounds) == 1:
            # later passes repeat the same work; only click's per-invocation stream
            # wrappers, which CliRunner leaves behind, would keep growing the peak
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start - paused
        # stop before a pass that would end past --seconds
        if elapsed + rounds[-1]["wall_s"] > args.seconds and len(rounds) >= (2 if tracer else 1):
            break
        due = min(math.ceil(args.probes * elapsed / args.seconds), args.probes) - probed
        if due > 0:
            # the parent times `due` fresh set-ups while this process waits
            t0 = time.perf_counter()
            print(f"PAUSE {due}", flush=True)
            if sys.stdin.readline().strip() != "GO":
                raise RuntimeError("parent did not resume the run")
            paused += time.perf_counter() - t0
            probed += due

    run_digest = hashlib.sha256("".join(first_digest).encode()).hexdigest()
    out = {
        "attempted": attempted,
        "failed": failed,
        "ops": len(ops),
        "commands": [command_name(op.argv) for op in ops],
        "problems": {str(i): p for i, p in problems.items() if p},
        "digest": run_digest,
        "op_digests": first_digest,
        "rounds": rounds,
        "bytes_written": bytes_written,
        "peak_rss_mb": peak_rss_mb,
        "fft_workers": toruslab._fft._WORKERS,
        "versions": {
            "toruslab": toruslab.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "click": importlib.metadata.version("click"),
        },
    }
    if tracer:
        out["layers"] = layer_metrics(tracer, rounds, bytes_written)
        tracer.write(args.out.with_suffix("").with_suffix(".spans.jsonl"))
    return out


def layer_metrics(tracer: tracing.Tracer, rounds: list[dict], bytes_written: int) -> dict:
    """Per-layer numbers per pass of the operation list, from the traced passes."""
    traced = [r["wall_s"] for r in rounds if r["traced"]]
    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    n = len(traced)
    incl, own = tracer.span_times()
    c = tracer.count
    m: dict[str, float] = {}

    def per(x: float) -> float:
        return x / n

    m["fft.s"] = per(sum(incl[k] for k in tracing.FFT_TRANSFORMS))
    m["fft.calls"] = per(sum(c[k + ".calls"] for k in tracing.FFT_TRANSFORMS))
    m["fft.points"] = per(c["fft.points"])
    m["fft.bytes_computed"] = per(c["fft.bytes_computed"])
    for span in sorted(incl):
        m[span + ".s"] = per(incl[span])
        m[span + ".self_s"] = per(own[span])
    for key, val in c.items():
        if key.endswith((".calls", ".chunks", ".cells", ".items", ".terms", ".time_samples",
                         ".time_points", ".bytes")):
            m[key] = per(val)
    for key in ("nls.round_trips", "nls.picard_iterations", "nls.steps"):
        m[key] = per(c[key])
    used = c["propagator.iter_evolved_grids.cells_used"]
    m["propagator.iter_evolved_grids.cells_needed_frac"] = (
        c["propagator.iter_evolved_grids.cells_needed"] / used if used else 0.0
    )
    m["propagator.kernel_axis_max_abs.unique_frac"] = tracer.sweep_unique_frac()
    m["cli.bytes_written"] = float(bytes_written)
    for layer in tracing.LAYERS:
        m[layer + ".self_s"] = per(sum(v for k, v in own.items() if k.startswith(layer + ".")))
    m["trace.wall_s"] = statistics.median(traced)
    m["trace.overhead_frac"] = m["trace.wall_s"] / statistics.median(plain) - 1.0
    m["trace.accounted_frac"] = sum(m[layer + ".self_s"] for layer in tracing.LAYERS) / (sum(traced) / n)
    m["trace.spans"] = per(len(tracer.spans))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--probes", type=int, default=0,
                    help="pause this often, spread over the run, for set-up probes")
    ap.add_argument("--drop-nonlinearity", action="store_true",
                    help="run the NLS solvers with the nonlinear term removed (self-test)")
    ap.add_argument("--tiny", action="store_true", help="shrink every size (self-test)")
    ap.add_argument("--inject-fault", type=int, default=None, metavar="OP",
                    help="check a corrupted copy of operation OP's first answer (self-test)")
    args = ap.parse_args(argv)
    client = Client(ROOT / "bench" / "out" / f"work-{args.workload}-{args.seed}-{args.mode}{args.trace}")
    if args.drop_nonlinearity:
        drop_nonlinearity()
    try:
        ops = setup(args, client)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        result = measure(args, ops, client)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(client.work, ignore_errors=True)
    args.out.write_text(json.dumps(result))
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
