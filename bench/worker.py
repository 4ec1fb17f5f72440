"""Run one workload in this process and print its result as one JSON line.

Started by ``run.py`` with MALTHUS_THREADS already set for the workload.
``--setup-only`` stops once the inputs are built and reports the monotonic
clock at that point, from which the parent computes the set-up time
(process start, interpreter, ``import malthus`` and input construction).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

from tracing import Tracer, layer_metrics, percentile
from workloads import WORKLOADS, Tally, run_op, workers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def _import_malthus():
    """The package from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "malthus" / "__init__.py").is_file():
        raise SystemExit(f"no malthus sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import malthus
    from malthus import age_model, cli, estimator, numerics, size_sim

    if Path(malthus.__file__).resolve().parent != SRC / "malthus":
        raise SystemExit(f"imported malthus from {malthus.__file__}, expected {SRC}")
    return types.SimpleNamespace(age_model=age_model, cli=cli, estimator=estimator, numerics=numerics, size_sim=size_sim)


def _peak_rss_mib() -> float:
    # forked workers share the parent's pages, so the largest resident set
    # of this process or any child is reported, not the sum
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


def _timed(wl, tally, seconds: float) -> tuple:
    """Passes of identical work until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(wl.run_pass(tally))
    wall = statistics.median(p.wall for p in passes)
    return passes, {"wall_s": wall, "ops_per_s": passes[0].ops / wall}


def _traced(wl, tally, m, spans_path) -> tuple:
    """Untraced passes at the workload's and at one worker, then a traced pass
    at one worker so that every span is collected in this process."""
    untraced = wl.run_pass(tally)
    if wl.threads > 1:
        with workers(1):
            single = wl.run_pass(tally)
    else:
        single = untraced
    tracer = Tracer()
    tracer.install(m)
    try:
        with workers(1):
            traced = wl.run_pass(tally, op=tracer.op)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    metrics = layer_metrics(tracer)
    # solves are timed directly, so their latencies come from the untraced pass
    metrics["age_model.solve_ms_p50"] = percentile([s * 1e3 for s in untraced.latencies], 50)
    metrics["age_model.solve_ms_p90"] = percentile([s * 1e3 for s in untraced.latencies], 90)
    est2 = untraced.command_walls.get("estimator-compare")
    est1 = single.command_walls.get("estimator-compare")
    metrics["estimator.pool.efficiency_2w"] = est1 / (2.0 * est2) if wl.threads == 2 and est2 else 0.0
    metrics["cli.bytes_written"] = traced.outputs.get("bytes", 0)
    dump_wall = untraced.command_walls.get("tree-dump")
    metrics["cli.export_rows_per_s"] = untraced.outputs["dump_rows"] / dump_wall if dump_wall else 0.0
    metrics["trace.overhead_frac"] = (traced.wall - single.wall) / single.wall
    passes = [untraced] + ([single] if single is not untraced else []) + [traced]
    return passes, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    m = _import_malthus()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = WORKLOADS[args.workload](m, args.seed, args.size, workdir)
        setup_done = time.monotonic()
        if args.setup_only:
            print(json.dumps({"setup_done": setup_done}))
            return 0

        tally = Tally()
        wl.warmup(tally)
        if args.trace:
            spans = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
            passes, metrics = _traced(wl, tally, m, spans)
        else:
            passes, metrics = _timed(wl, tally, args.seconds)
            metrics["peak_rss_mib"] = _peak_rss_mib()
        walls = [p.wall for p in passes]
        if not args.trace and wl.threads > 1:
            # reference for worker-count invariance, outside the timed region
            with workers(1):
                passes.append(wl.run_pass(tally))
        run_op(tally, "output checks", lambda: wl.check(tally, passes))
        if args.trace:
            metrics["checks.known_gaps"] = len(tally.known_gaps)

    import numpy
    import scipy

    result = {
        "setup_done": setup_done,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "known_gaps": tally.known_gaps,
        "fixed_gaps": tally.fixed_gaps,
        "pass_walls_s": walls,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
        "malthus_threads": os.environ.get("MALTHUS_THREADS"),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
