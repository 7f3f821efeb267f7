"""The FFT layer: numpy's pocketfft is the package's one transform backend.

scipy is a test-only oracle here, as kernel_direct is for the kernel.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import scipy.fft

from toruslab._fft import _next_fast_len

SRC = Path(__file__).resolve().parents[1] / "src"


def test_next_fast_len_matches_scipy():
    for n in range(1, 2**15 + 1):
        assert _next_fast_len(n) == scipy.fft.next_fast_len(n), n


def _backend_names(path: Path) -> list[str]:
    """Places in a module that import scipy or numpy.fft, or name scipy, np.fft or numpy.fft."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        elif isinstance(node, ast.Name):
            names = [node.id]
        for name in names:
            if name.split(".")[0] == "scipy" or name.split(".")[:2] in (["np", "fft"], ["numpy", "fft"]):
                hits.append(f"{path.name}:{node.lineno}: {name}")
    return hits


def test_only_the_fft_layer_names_a_backend():
    package = SRC / "toruslab"
    assert _backend_names(package / "_fft.py")  # the check sees the layer's own calls
    hits = [h for p in sorted(package.glob("*.py")) if p.name != "_fft.py" for h in _backend_names(p)]
    assert not hits, f"transforms outside toruslab._fft: {hits}"


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import sys, toruslab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
