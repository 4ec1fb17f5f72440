"""The package's public surface."""
import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import malthus
import malthus.cli


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


def test_benchmark_tracer_finds_and_restores_every_target():
    # bench/tracing.py patches package names from outside; a deleted or
    # renamed target breaks install, and uninstall must undo every patch
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = [malthus.age_model, malthus.cli, malthus.estimator, malthus.size_sim, malthus.size_sim.TreeResult]
    before = [dict(vars(obj)) for obj in owners]
    tracer = tracing.Tracer()
    try:
        tracer.install(malthus)
        patched = list(tracer._patched)
        assert patched and all(getattr(obj, attr) is not orig for obj, attr, orig in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(obj, attr) is orig for obj, attr, orig in patched)
    for obj, saved in zip(owners, before):
        now = vars(obj)
        assert now.keys() == saved.keys()
        assert all(now[k] is saved[k] for k in saved)
