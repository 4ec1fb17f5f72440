#!/usr/bin/env python3
"""Benchmark of the malthus package, end to end and per module.

    python3 bench/run.py --workload age-sweep --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh process (``bench/worker.py``) with
MALTHUS_THREADS set for it, so set-up time and peak memory belong to that
workload.  ``--trace 0`` times passes of the workload and prints the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs one traced pass
and prints the per-layer metrics.  ``--workload all`` runs every workload
in turn.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a full report with
the machine record, failed and known-gap checks goes to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5  # set-up is sampled this many times per run; the median is reported
RUN_BUDGET_S = 170.0  # every run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def _child_env(workload: str) -> dict:
    env = dict(os.environ)
    # the worker count is part of the workload, never inherited; BLAS and
    # OpenMP thread counts are left at the libraries' defaults, whatever the
    # caller's environment says
    env["MALTHUS_THREADS"] = str(WORKLOADS[workload].threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONPATH"):
        env.pop(var, None)
    return env


def _run_worker(args: list, env: dict, deadline: float) -> tuple:
    """Start a worker, wait for it, and return (start time, parsed last line)."""
    cmd = [sys.executable, str(WORKER), *args]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker timed out: {' '.join(args)}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return start, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str, deadline: float) -> dict:
    env = _child_env(name)
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            start, res = _run_worker([*base, "--setup-only"], env, deadline)
            setups.append(res["setup_done"] - start)
    start, res = _run_worker(base, env, deadline)
    setups.append(res["setup_done"] - start)
    if not trace:
        res["metrics"]["setup_s"] = statistics.median(setups)
    res["setup_samples_s"] = setups
    return res


def machine_record(seed: int) -> dict:
    """What the numbers were measured on, from /proc and lscpu only."""
    rec = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "seed": seed}
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        rec["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")), None)
        meminfo = Path("/proc/meminfo").read_text()
        rec["mem_total"] = next((ln.split(":", 1)[1].strip() for ln in meminfo.splitlines() if ln.startswith("MemTotal")), None)
    except OSError:
        pass
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for key in ("L2 cache", "L3 cache"):
            hit = re.search(rf"^{key}:\s*(.+)$", lscpu, re.MULTILINE)
            rec[key.split()[0]] = hit.group(1).strip() if hit else None
    except (OSError, subprocess.SubprocessError):
        rec["L2"] = rec["L3"] = None
    rec["python"] = platform.python_version()
    rec["commit"] = _git_commit()
    return rec


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _select(res: dict, specs: list, workload: str) -> dict:
    out = {}
    for spec in specs:
        if spec["name"] not in res["metrics"]:
            raise BenchError(f"{workload} did not report {spec['name']}")
        out[spec["name"]] = {"value": float(res["metrics"][spec["name"]]), "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="timed seconds per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full", help="'smoke' shrinks every workload")
    args = p.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        spec = _spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
        if not (ROOT / "src" / "malthus" / "__init__.py").is_file():
            raise BenchError("no malthus sources under src/; run from a checkout of the repository")
        seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
        specs = spec["per_layer" if args.trace else "end_to_end"]
        machine = machine_record(args.seed)

        workloads = names if args.workload == "all" else [args.workload]
        if args.workload == "all":
            deadline = time.monotonic() + RUN_BUDGET_S * len(workloads)
        attempted, failed, metrics = 0, 0, {}
        (HERE / "out").mkdir(exist_ok=True)
        for name in workloads:
            res = run_workload(name, args.seed, seconds, args.trace, args.size, deadline)
            selected = _select(res, specs, name)
            res.update(machine=machine, metrics=selected)
            report = HERE / "out" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            report.write_text(json.dumps(res, indent=2) + "\n")
            attempted += res["attempted"]
            failed += res["failed"]
            for line in res["failures"]:
                print(f"[{name}] FAILED {line}", file=sys.stderr)
            for line in res["known_gaps"]:
                print(f"[{name}] known gap {line}", file=sys.stderr)
            for line in res["fixed_gaps"]:
                print(f"[{name}] known gap now passes {line}", file=sys.stderr)
            if args.workload == "all":
                for metric, v in selected.items():
                    print(f"{name:20s} {metric:40s} {v['value']:.6g} {v['unit']}")
                metrics.update({f"{name}/{k}": v for k, v in selected.items()})
            else:
                metrics = selected
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
