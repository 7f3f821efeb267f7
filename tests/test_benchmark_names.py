"""The benchmark's per-layer metrics name functions the tracer can wrap.

A metric ``<layer>.<function>.<suffix>`` whose layer is one of the traced
modules in ``bench/tracing.py`` reads the spans of a public function of that
module.  Renaming, privatizing or deleting the function would leave the metric
at 0, so this test fails first.  The tracer's counters also read a traced
call's arguments by position (``arg(i, "key")``), so a signature edit there
fails here too, not as a crash in a traced benchmark run.  It reads
``BENCHMARK.json`` and ``bench/tracing.py`` (by ``ast``, without importing the
bench) and the package.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _layer_modules() -> dict[str, str]:
    """bench/tracing.py's LAYER_MODULES, read without importing the bench."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(getattr(t, "id", None) == "LAYER_MODULES" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYER_MODULES")


def test_function_metrics_name_public_functions():
    module_of = {layer: mod for mod, layer in _layer_modules().items()}
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    checked, missing = 0, []
    for name in names:
        parts = name.split(".")
        if len(parts) != 3 or parts[0] not in module_of:
            continue
        modname, fname = module_of[parts[0]], parts[1]
        fn = getattr(importlib.import_module(modname), fname, None)
        checked += 1
        if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != modname:
            missing.append(name)
    assert checked > 0
    assert not missing, f"metrics that name no public function of their module: {missing}"


def _module_constants(tree: ast.Module) -> dict[str, object]:
    """Top-level names bound to literals in a module."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    try:
                        out[t.id] = ast.literal_eval(node.value)
                    except ValueError:
                        pass
    return out


def _argument_reads() -> list[tuple[str, int, str]]:
    """(span name, position, keyword) of each arg(i, "key") under a name == / name in test."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    consts = _module_constants(tree)
    reads = []
    for node in ast.walk(tree):
        test = getattr(node, "test", None)
        if not (isinstance(node, ast.If) and isinstance(test, ast.Compare)):
            continue
        if not (isinstance(test.left, ast.Name) and test.left.id == "name" and len(test.ops) == 1):
            continue
        rhs = test.comparators[0]
        if isinstance(test.ops[0], ast.Eq) and isinstance(rhs, ast.Constant):
            names = [rhs.value]
        elif isinstance(test.ops[0], ast.In):
            names = list(consts[rhs.id]) if isinstance(rhs, ast.Name) else list(ast.literal_eval(rhs))
        else:
            continue
        for stmt in node.body:
            for call in ast.walk(stmt):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "arg":
                    i, key = (ast.literal_eval(a) for a in call.args)
                    reads.extend((n, i, key) for n in names)
    return reads


def test_traced_argument_reads_match_signatures():
    # the tracer reads a traced call's arguments by position, falling back to
    # the keyword: position i must be parameter key, or key keyword-only with
    # no positional parameter at i, or a counter reads the wrong argument
    module_of = {layer: mod for mod, layer in _layer_modules().items()}
    reads = _argument_reads()
    wrong = []
    for span, i, key in reads:
        layer, fname = span.split(".")
        fn = getattr(importlib.import_module(module_of[layer]), fname)
        params = list(inspect.signature(fn).parameters.values())
        positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        keyword_only = {p.name for p in params if p.kind == p.KEYWORD_ONLY}
        if not (i < len(positional) and positional[i].name == key) and not (
            key in keyword_only and i >= len(positional)
        ):
            wrong.append((span, i, key))
    assert ("propagator.kernel_axis_max_abs", 2, "theta") in reads
    assert len({span for span, _, _ in reads}) >= 8
    assert not wrong, f"tracer reads that miss the function's signature: {wrong}"
