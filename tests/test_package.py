"""The package's public surface."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import malthus


def test_all_lists_every_public_import_and_resolves():
    tree = ast.parse(Path(malthus.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public - set(malthus.__all__) == set()
    assert [name for name in malthus.__all__ if not hasattr(malthus, name)] == []


def test_import_leaves_scipy_optimize_unloaded():
    # Brent is implemented in the package; importing scipy.optimize costs
    # every process ~0.2 s and ~24 MiB (2 vCPUs, SciPy 1.17)
    src = str(Path(malthus.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, malthus, malthus.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
