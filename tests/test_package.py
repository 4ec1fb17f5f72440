"""The package's public surface."""
import ast
import importlib.util
import math
import os
import re
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


def test_every_exported_function_is_used_outside_the_tests():
    # no export that only tests use: each function in __all__ is named in
    # another module of the package, a driver in scripts/, the benchmark in
    # bench/, or a code span of the README.  Result and config classes are
    # exempt
    pkg = Path(malthus.__file__).resolve().parent
    repo = pkg.parent.parent
    readme = (repo / "README.md").read_text()
    fenced = re.compile(r"```.*?```", flags=re.S)
    spans = fenced.findall(readme) + re.findall(r"`[^`\n]+`", fenced.sub("", readme))
    outside = [p.read_text() for d in ("scripts", "bench") for p in (repo / d).glob("*.py")] + spans
    modules = {p.stem: p.read_text() for p in pkg.glob("*.py") if p.name != "__init__.py"}
    unused = []
    for name in malthus.__all__:
        obj = getattr(malthus, name)
        if not callable(obj) or isinstance(obj, type):
            continue
        home = obj.__module__.rpartition(".")[2]
        texts = [text for stem, text in modules.items() if stem != home] + outside
        if not any(re.search(rf"\b{name}\b", text) for text in texts):
            unused.append(name)
    assert unused == []


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


def test_readme_python_blocks_run_and_match_their_annotations():
    # the quick tour runs top to bottom in one interpreter; each line
    # `expr  # -> value` prints repr(expr), which must read as the value: a
    # number to 1e-12 relative (a parenthesised remark ignored), a prefix
    # where the value ends in "...", a string exactly
    readme = (Path(malthus.__file__).resolve().parents[2] / "README.md").read_text()
    code, notes = [], []
    for line in "".join(re.findall(r"```python\n(.*?)```", readme, flags=re.S)).splitlines():
        m = re.fullmatch(r"(\S.*?)\s+# -> (.*)", line)
        if m:
            code.append(f"print(repr({m[1]}))")
            notes.append(re.sub(r"\s*\(.*\)$", "", m[2]))
        else:
            code.append(line)
    got = fresh_python("\n".join(code)).splitlines()
    assert notes and len(got) == len(notes)
    for value, note in zip(got, notes):
        if note.endswith("..."):
            assert value.startswith(note[:-3]), (value, note)
        elif note[0] in "'\"":
            assert value == note
        else:
            assert math.isclose(float(value), float(note), rel_tol=1e-12, abs_tol=0.0), (value, note)


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


def test_two_worker_runs_load_scipy_special_before_the_pool_only_for_gaussian_draws(tmp_path):
    # forked workers inherit what the parent loaded; left to them, each
    # would import it on its first Gaussian draw, ~0.2 s apiece.  Uniform
    # draws need no SciPy, in the parent or the workers
    argv = ["estimator-compare", "--horizons", "4", "--m", "4", "--out", str(tmp_path / "sd.csv")]
    two_workers = "import os; os.environ['MALTHUS_THREADS'] = '2'\n"
    seen = fresh_python(two_workers + run_then_list_scipy([argv]))
    assert seen.startswith("[[], [") and "'scipy.special'" in seen
    uniform = [*argv, "--set", "baseline=uniform:0.5,1.5"]
    assert fresh_python(two_workers + run_then_list_scipy([uniform])) == "[[], []]"


def test_antiderivative_matrix_is_built_once_on_first_use():
    # built at import it would cost every process ~1 MiB of resident memory
    code = "import malthus, malthus.cli; print(malthus.age_model._antiderivative_matrix.cache_info().currsize)"
    assert fresh_python(code) == "0"
    Q = malthus.age_model._antiderivative_matrix()
    assert malthus.age_model._antiderivative_matrix() is Q
    assert Q.shape == (17, 16) and not Q.flags.writeable


def test_import_and_new_rates_and_laws_build_no_quadrature():
    # every rule, table and ladder is built on first use: built at import
    # or with the object, it would count in every process's set-up time
    code = """
import functools, gc
import malthus, malthus.cli
from malthus import age_model as am
grid = [0.0, 0.5, 1.0]
made = [am.PowerLagRate(0.25, 1.0), am.ConstantRate(1.0), am.TabulatedRate(grid, grid),
        am.UniformLaw(0.0, 2.0).contract(0.5), am.AlphaFamily(am.TruncatedGaussian(0.0, 2.0, 0.7), 0.5).law(),
        am.DiscreteMixture([(0.5, 0.5), (1.5, 0.5)])]
def kept(x):
    return {n for c in type(x).__mro__ for n, v in vars(c).items() if isinstance(v, functools.cached_property)}
objs = [x for x in gc.get_objects() if isinstance(x, (am._DivisionRate, am._RateLaw))]
print([f.cache_info().currsize for f in (am._legendre, am._ladder, am._antiderivative_matrix)],
      all(map(kept, made[:3])), len(objs) >= len(made), sorted({n for x in objs for n in kept(x) & vars(x).keys()}))
"""
    assert fresh_python(code) == "[0, 0, 0] True True []"


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
