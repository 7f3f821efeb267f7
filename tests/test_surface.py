"""The package is what its commands run: every public name has a caller or a stated reason.

A public top-level function or class of src/toruslab must be named by another
function or class of the package, by the acceptance criteria, by the
benchmark (bench/*.py or BENCHMARK.json), or by KEPT with the reason it stays.
The cli commands are the entry points and need no caller.  Code that only its
own unit tests reach is retired, or moved into the tests that compare with it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toruslab"

#: Public names that nothing above reaches, each with the reason it stays.
KEPT = {
    "core.synthesize": "direct-summation oracle the grid synthesis is tested against",
    "core.project": "documented API: the smooth Littlewood-Paley projectors",
    "arithmetic.farey_atoms": "documented API: the reduced fractions a/q with q ~ Q",
    "propagator.free_evolve": "one-time oracle the streamed and NLS flows are tested against",
    "dispersive.dispersive_bound": "one-time oracle of dispersive_bound_batch",
    "nls.mass": "per-state oracle of the diagnostics pass's mass column",
    "nls.energy": "per-state oracle of the diagnostics pass's energy column",
    "nls.nonlinearity": "per-state oracle of the solvers' nonlinear term",
    "io.read_field": "reads the .fld files nls-run --dump-fields writes",
}


def _is_command(node) -> bool:
    """A click command or group: decorated by X.command(...) or X.group(...)."""
    return any(
        isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute) and dec.func.attr in ("command", "group")
        for dec in node.decorator_list
    )


def _public_definitions() -> dict[str, ast.AST]:
    """module.name -> node for each public top-level function or class of the package."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if path.stem == "cli" and _is_command(node):
                continue
            defs[f"{path.stem}.{node.name}"] = node
    return defs


#: A string that names code: a dotted name such as "propagator.kernel_axis_max_abs".
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _dotted(text: str) -> set[str]:
    return set(text.split(".")) if DOTTED.fullmatch(text) else set()


def _names(tree, strings: bool = False) -> set[str]:
    """The identifiers a tree names: names, attributes, imports, and with strings its dotted-name strings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out |= _dotted(node.value)
    return out


def _package_referrers() -> dict[str, set[str]]:
    """name -> the top-level functions and classes of the package (module.name) that name it."""
    refs: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                for name in _names(top):
                    refs.setdefault(name, set()).add(f"{path.stem}.{top.name}")
    return refs


def _outside_names() -> set[str]:
    """Names the acceptance criteria and the benchmark use; the tracer names functions by string."""
    out = _names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for path in sorted((ROOT / "bench").glob("*.py")):
        out |= _names(ast.parse(path.read_text()), strings=True)
    for text in re.findall(r'"([^"]*)"', (ROOT / "BENCHMARK.json").read_text()):
        out |= _dotted(text)
    return out


def test_every_public_name_has_a_driver_or_a_reason():
    refs, outside = _package_referrers(), _outside_names()
    unreached = sorted(
        qual for qual, node in _public_definitions().items()
        if not (refs.get(node.name, set()) - {qual}) and node.name not in outside and qual not in KEPT
    )
    assert unreached == []


def test_every_kept_name_is_defined_and_needed():
    # a KEPT entry whose name went away, or gained a driver, is stale
    defs, refs, outside = _public_definitions(), _package_referrers(), _outside_names()
    for qual in KEPT:
        assert qual in defs, qual
        name = defs[qual].name
        assert not (refs.get(name, set()) - {qual}) and name not in outside, qual
