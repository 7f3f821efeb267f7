"""In-memory spans around calls into toruslab's modules, installed from outside.

The tracer wraps every public function of the package's modules and rebinds
each name that points at the original, in every loaded ``toruslab`` module, so
calls made through ``from ... import`` bindings (``dispersive.kernel_axis_max_abs``,
``cli.exponent_sweep``) and through module attributes (``_fft.ifftn``) both
pass through a wrapper.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 for an operation's root span) and ``op`` the operation id.
Spans are kept in a list and written once, when the run ends.  Layer counters
(calls, points, cells, items, ...) are taken at the same boundaries.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: Modules whose public functions are wrapped; ``_fft`` reports as layer ``fft``.
LAYER_MODULES = {
    "toruslab.core": "core",
    "toruslab.propagator": "propagator",
    "toruslab.arithmetic": "arithmetic",
    "toruslab.dispersive": "dispersive",
    "toruslab.strichartz": "strichartz",
    "toruslab.nls": "nls",
    "toruslab.io": "io",
    "toruslab._fft": "fft",
}

#: The transforms of the FFT shim (``set_workers`` is not one).
FFT_TRANSFORMS = ("fft.fft", "fft.ifft", "fft.fftn", "fft.ifftn")

#: Every layer, in report order; ``cli`` spans are the operations' roots.
LAYERS = ("core", "propagator", "arithmetic", "dispersive", "strichartz", "nls", "cli", "io", "fft")

#: Spans whose kernel sweeps count towards ``kernel_axis_max_abs.unique_frac``.
SWEEP_CHECKS = ("dispersive.check_dispersive", "dispersive.check_diff_bound")

#: Spans under which forward transforms count as NLS round trips.
NLS_SOLVERS = ("nls.split_step_evolve", "nls.picard_solve")


def _cells_needed(f, p: float, n_t: int, n_x: int) -> int:
    """Band-exact sample count for the L^p norm of the free evolution of f.

    For p = 2m, |u|^p has spatial band at most 2mB per axis and, when every
    theta_j is an integer, temporal band at most mS, where B is the field's
    band and S the spread of sum_j theta_j k_j^2 over its support; uniform
    rules with n_x >= 2mB+1 and n_t >= mS+1 are then exact.  Irrational
    weights keep the time rule as used.  Other p keep the grid as used.
    """
    d = f.geometry.d
    if p != math.floor(p) or int(p) % 2:
        return n_t * n_x**d
    m = int(p) // 2
    nz = np.argwhere(np.abs(f.coeffs) > 0) - f.box_radius
    if nz.size == 0:
        return 0
    band = int(np.max(np.abs(nz)))
    theta = np.asarray(f.geometry.theta)
    if np.all(theta == np.round(theta)):
        sym = (nz.astype(float) ** 2) @ theta
        need_t = int(m * round(float(sym.max() - sym.min()))) + 1
    else:
        need_t = n_t
    return need_t * (2 * m * band + 1) ** d


class Tracer:
    """Wraps the package while installed; records only while an operation is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.count: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self._sweeps: dict[tuple, list[np.ndarray]] = defaultdict(list)
        self.sweep_samples = [0, 0]  # distinct, total

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of LAYER_MODULES and rebind all aliases."""
        import toruslab.cli  # noqa: F401  (loads every module that binds names)

        wrappers = {}
        for modname, layer in LAYER_MODULES.items():
            mod = sys.modules[modname]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != modname:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "toruslab" and not modname.startswith("toruslab."):
                continue
            for name, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, name, val))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patches):
            setattr(mod, name, orig)
        self._patches.clear()

    # -- spans --------------------------------------------------------------

    def begin_op(self, op_id: int, name: str) -> int:
        self.op = op_id
        return self._open(name)

    def end_op(self, idx: int) -> None:
        self._close(idx)
        self.op = None
        for parts in self._sweeps.values():
            self.sweep_samples[0] += np.unique(np.concatenate(parts)).size
            self.sweep_samples[1] += sum(ts.size for ts in parts)
        self._sweeps.clear()

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _under(self, names) -> bool:
        i = self.stack[-1] if self.stack else -1
        while i >= 0:
            if self.spans[i][0] in names:
                return True
            i = self.spans[i][3]
        return False

    def _wrap(self, fn, span_name: str):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if tracer.op is None:
                    return gen
                return tracer._iterate(gen, span_name)

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._counters(span_name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _iterate(self, gen, span_name: str):
        """Re-yield a generator's items, one span per step of real work."""
        while True:
            idx = self._open(span_name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.count[span_name + ".chunks"] += 1
            self.count[span_name + ".cells"] += item[1].size
            yield item

    # -- counters -----------------------------------------------------------

    def _counters(self, name: str, args, kwargs, result) -> None:
        c = self.count
        c[name + ".calls"] += 1

        def arg(i: int, key: str):
            return args[i] if len(args) > i else kwargs[key]

        if name in FFT_TRANSFORMS:
            a = np.asarray(arg(0, "a"))
            c["fft.points"] += a.size
            c["fft.bytes_computed"] += a.nbytes + np.asarray(result).nbytes
            if name in ("fft.fft", "fft.fftn") and self._under(NLS_SOLVERS):
                c["nls.round_trips"] += 1
        elif name == "propagator.kernel_axis_max_abs":
            ts = np.asarray(arg(0, "ts"))
            c[name + ".time_samples"] += ts.size
            if self._under(SWEEP_CHECKS):
                self._sweeps[(int(arg(1, "N")), float(arg(2, "theta")))].append(ts.copy())
        elif name == "propagator.kernel_direct":
            c[name + ".terms"] += (4 * int(arg(2, "N")) + 1) ** arg(3, "geometry").d
        elif name == "arithmetic.dirichlet_approx_batch":
            c[name + ".items"] += np.asarray(arg(0, "betas")).size
        elif name == "arithmetic.major_arc_mask":
            c[name + ".items"] += np.asarray(arg(0, "ts")).size
        elif name == "dispersive.sweep_time_grid":
            c[name + ".time_points"] += np.asarray(result).size
        elif name == "strichartz.evolved_lp_norm":
            f, p = arg(0, "f"), float(arg(1, "p"))
            n_t, n_x = int(arg(3, "n_t")), int(arg(4, "n_x"))
            c["propagator.iter_evolved_grids.cells_used"] += n_t * n_x**f.geometry.d
            c["propagator.iter_evolved_grids.cells_needed"] += _cells_needed(f, p, n_t, n_x)
        elif name == "nls.picard_solve":
            c["nls.picard_iterations"] += len(result.info.get("iterations", ()))
        elif name == "nls.split_step_evolve":
            c["nls.steps"] += result.times.size - 1
        elif name == "io.write_field":
            c[name + ".bytes"] += os.path.getsize(arg(1, "path"))

    def sweep_unique_frac(self) -> float:
        """Distinct (N, theta, t) samples over samples swept, within each operation."""
        distinct, total = self.sweep_samples
        return distinct / total if total else 0.0

    # -- aggregation --------------------------------------------------------

    def span_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name."""
        incl: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            incl[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[i]
        return incl, own

    def write(self, path) -> None:
        """Write the spans as JSON lines, one ``[name, start, end, parent, op]`` each."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
