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


def fresh_python(code):
    """The stdout of ``code`` run by a new interpreter that imports this
    checkout of the package."""
    src = str(Path(malthus.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_optimize_unloaded():
    # the root finder is the package's own; importing scipy.optimize costs
    # every process ~0.2 s and ~24 MiB (2 vCPUs, SciPy 1.17)
    code = "import sys, malthus, malthus.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    assert fresh_python(code) == "[]"


def test_import_leaves_the_process_pool_unloaded():
    # the pool's modules load with the first run on more than one worker;
    # at import they cost every process ~20 ms (2 vCPUs, Python 3.11)
    code = (
        "import sys, malthus, malthus.cli; "
        "print(sorted(m for m in sys.modules if m in ('multiprocessing', 'concurrent.futures.process')))"
    )
    assert fresh_python(code) == "[]"


LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_then_list_scipy(argv_lists):
    """Code that imports the package, runs ``malthus.cli.main`` on each argv
    in turn, and prints the loaded SciPy modules after the import and after
    the runs."""
    return f"""
import contextlib, io, sys
import malthus, malthus.cli
seen = [{LOADED_SCIPY}]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [malthus.cli.main(argv) for argv in {argv_lists!r}]
assert codes == [0] * len(codes), codes
print([*seen, {LOADED_SCIPY}])
"""


def test_import_and_age_model_runs_leave_scipy_unloaded(tmp_path):
    # the age model needs NumPy alone; loading scipy.special cost every
    # process ~0.25 s and ~20 MiB (2 vCPUs, SciPy 1.17)
    out = str(tmp_path / "out.csv")
    runs = [
        ["age-curve", "--beta", "0.25", "2", "--lag", "1", "--alpha", "0.5", "1", "--out", out],
        ["age-curve", "--beta", "1", "--alpha", "0.5", "--baseline", "twopoint:0.5,1.5", "--out", out],
        ["age-perturb", "--alphas", "0.2", "0.1", "--out", out],
        ["age-perturb", "--b-const", "1.0", "--alphas", "0.2", "--out", out],
    ]
    assert fresh_python(run_then_list_scipy(runs)) == "[[], []]"


def test_gaussian_rate_draws_load_scipy_special(tmp_path):
    # ndtri fixes the bits of every truncated-Gaussian rate draw
    argv = ["size-mc", "--set", "rows=0.4:3", "--set", "M=2", "--out", str(tmp_path / "table.csv")]
    seen = fresh_python(run_then_list_scipy([argv]))
    assert seen.startswith("[[], [") and "'scipy.special'" in seen


def test_antiderivative_matrix_is_built_once_on_first_use():
    # built at import it would cost every process ~1 MiB of resident memory
    code = "import malthus, malthus.cli; print(malthus.age_model._antiderivative_matrix.cache_info().currsize)"
    assert fresh_python(code) == "0"
    Q = malthus.age_model._antiderivative_matrix()
    assert malthus.age_model._antiderivative_matrix() is Q
    assert Q.shape == (17, 16) and not Q.flags.writeable


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
