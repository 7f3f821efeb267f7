"""The benchmark's per-layer metrics name functions the tracer can wrap.

A metric ``<layer>.<function>.<suffix>`` whose layer is one of the traced
modules in ``bench/tracing.py`` reads the spans of a public function of that
module.  Renaming, privatizing or deleting the function would leave the metric
at 0, so this test fails first.  It only reads ``BENCHMARK.json`` and
``bench/tracing.py``.
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
