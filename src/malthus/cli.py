"""Command-line front end.

Subcommands emit CSV tables (numeric cells fixed at 10 significant digits);
size-mc also writes a JSON manifest holding the resolved config, the seed,
and digests of the outputs so a run can be reproduced byte for byte.

Commands: age-curve, age-perturb, size-mc, estimator-compare, tree-dump.
Simulation config files are flat ``key=value`` lines (``#`` comments);
``--set key=value`` overrides individual entries, and a key the command
does not read is an error.  The age commands' ``--baseline`` takes the
grammar of the config's ``baseline=``.
"""
from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .age_model import (
    AlphaFamily,
    ConstantRate,
    Dirac,
    DiscreteMixture,
    PowerLagRate,
    TruncatedGaussian,
    UniformLaw,
    _lambda_and_slope,
    cv_curve,
    d2lambda_at_zero,
    malthus_reference,
)
from .estimator import _check_run, cv_table, estimator_sd_comparison
from .numerics import RngStream
from .size_sim import (
    AutoRegressive,
    DrawnFromKernel,
    Exponential,
    FixedRate,
    Linear,
    Memoryless,
    SimConfig,
    Symmetric,
    SizeDivisionRate,
    UniformAsymmetric,
    simulate_tree,
)

_FMT = "%.10g"
_DUMP_CHUNK_ROWS = 8192  # tree-dump formats and writes this many rows at a time


class ConfigError(ValueError):
    """Invalid flags or config file; maps to exit code 2."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return _FMT % x
    return str(x)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> bytes:
    lines = [",".join(_fmt(x) for x in row) for row in rows]
    data = ("\n".join([",".join(header), *lines]) + "\n").encode()
    with open(path, "wb") as f:
        f.write(data)
    return data


def _write_manifest(out_path: str, command: str, config_text: str, seed: int, started: str, payloads: dict) -> None:
    manifest = {
        "command": command,
        "config": config_text,
        "seed": seed,
        "version": __version__,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {name: hashlib.sha256(data).hexdigest() for name, data in payloads.items()},
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# baseline / config parsing
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _config_errors():
    """Every piece validates its own fields, so a ValueError raised while a
    command builds its inputs is malformed input (exit code 2), not a
    failed run."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _number(key: str, text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key} needs a number, got {text!r}") from None


def _parse_piece(key: str, text: str, kinds: dict, *first):
    """A model piece written ``name`` or ``name:x1,...,xn``, where
    ``kinds[name]`` is (n, constructor); the constructor gets ``first``
    and then the n numbers."""
    name, sep, args = text.partition(":")
    count, make = kinds.get(name.strip().lower(), (None, None))
    numbers = args.split(",") if sep else []
    if len(numbers) != count:
        forms = (n + (":" + ",".join("x" * k) if k else "") for n, (k, _) in kinds.items())
        raise ConfigError(f"{key} must be {' | '.join(forms)}, got {text!r}")
    return make(*first, *(_number(key, t) for t in numbers))


_LAWS = {
    "gauss": (3, TruncatedGaussian),
    "twopoint": (2, lambda v1, v2: DiscreteMixture([(v1, 0.5), (v2, 0.5)])),
    "uniform": (2, UniformLaw),
    "dirac": (1, Dirac),
}
_GROWTHS = {"exp": (0, Exponential), "linear": (0, Linear)}
_SPLITS = {"sym": (0, Symmetric), "asym": (1, UniformAsymmetric)}
_KERNELS = {"memoryless": (0, Memoryless), "ar": (1, AutoRegressive)}
_ROOT_RATES = {"fixed": (1, FixedRate), "kernel": (0, DrawnFromKernel)}


_CONFIG_DEFAULTS = {
    "division.mode": "unit_size",
    "division.x0": "1.0",
    "division.beta": "2.0",
    "growth": "exp",
    "split": "sym",
    "kernel": "memoryless",
    "baseline": "gauss:0,2,0.7",
    "root_size": "2.0",
    "root_rate": "fixed:1.0",
    "M": "50",
    "seed": "1",
    "estimator": "biomass",
}
# every command with a config reads the model keys; size-mc also the run keys
_RUN_KEYS = frozenset({"rows", "M", "seed", "estimator"})
_MODEL_KEYS = frozenset(_CONFIG_DEFAULTS) - _RUN_KEYS
_SIZE_MC_KEYS = _MODEL_KEYS | _RUN_KEYS


def _read_config(path: Optional[str], sets: Sequence[str], keys: frozenset) -> dict:
    """The defaults among ``keys``, overridden by the file's lines, then by
    the ``--set`` entries; a key outside ``keys`` is a config error."""
    entries = []
    if path:
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise ConfigError(f"cannot read config {path!r}: {e}") from e
        lines = enumerate(text.splitlines(), 1)
        entries += [(f"{path}:{ln}", raw) for ln, raw in lines if raw.strip() and not raw.strip().startswith("#")]
    entries += [("--set", s) for s in sets]
    items = {k: v for k, v in _CONFIG_DEFAULTS.items() if k in keys}
    for where, entry in entries:
        k, sep, v = entry.partition("=")
        k = k.strip()
        if not sep:
            raise ConfigError(f"{where}: expected key=value, got {entry!r}")
        if k not in keys:
            raise ConfigError(f"{where}: unknown key {k!r}; this command reads {', '.join(sorted(keys))}")
        items[k] = v.strip()
    return items


def _sim_config(items: dict, horizon: float, alpha: Optional[float] = None) -> SimConfig:
    """The configured experiment up to ``horizon``; its kernel law is the
    baseline contracted by ``alpha``, or the baseline itself for None.
    Called inside :func:`_config_errors`."""
    law = _parse_piece("baseline", items["baseline"], _LAWS)
    if alpha is not None:
        law = law.contract(alpha)
    return SimConfig(
        division=SizeDivisionRate(
            _number("division.x0", items["division.x0"]),
            _number("division.beta", items["division.beta"]),
            items["division.mode"],
        ),
        growth=_parse_piece("growth", items["growth"], _GROWTHS),
        split=_parse_piece("split", items["split"], _SPLITS),
        kernel=_parse_piece("kernel", items["kernel"], _KERNELS, law),
        horizon=horizon,
        root_size=_number("root_size", items["root_size"]),
        root_rate=_parse_piece("root_rate", items["root_rate"], _ROOT_RATES),
    )


def _parse_rows(text: str) -> list:
    rows = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError(f"rows entries must be alpha:T, got {part!r}")
        a, _, t = part.partition(":")
        rows.append((_number("rows", a), _number("rows", t)))
    if not rows:
        raise ConfigError("rows is empty")
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_age_curve(args) -> int:
    with _config_errors():
        baseline = _parse_piece("--baseline", args.baseline, _LAWS)
        if baseline.is_degenerate:
            raise ConfigError("the baseline must be non-degenerate")
        rates = [PowerLagRate(beta, args.lag) for beta in args.beta]
        # alpha = 0 is the anchor row every curve has; any other must lie in (0, 1]
        alphas = [AlphaFamily(baseline, a).alpha for a in args.alpha if a != 0.0]
    rows = []
    for B in rates:
        curve = cv_curve(B, baseline, alphas)
        lam_ref = next(r.lam for r in curve if r.alpha == 0.0)
        for r in curve:
            rows.append((B.beta, r.alpha, r.cv, r.lam, lam_ref, r.status))
    _write_csv(args.out, ["beta", "alpha", "cv", "lambda", "lambda_reference", "solver_status"], rows)
    return 0


def _cmd_age_perturb(args) -> int:
    with _config_errors():
        if args.b_const is None:
            B = PowerLagRate(args.beta, 1.0 if args.lag is None else args.lag)
        elif args.lag is not None:
            raise ConfigError("--lag sets the onset of the power-lag rate; --b-const takes none")
        else:
            B = ConstantRate(args.b_const)
        baseline = _parse_piece("--baseline", args.baseline, _LAWS)
        families = [AlphaFamily(baseline, alpha) for alpha in sorted(set(args.alphas) - {0.0})]
    lam0 = malthus_reference(B, baseline.mean)
    d2 = d2lambda_at_zero(B, baseline)
    rows = [(0.0, lam0, lam0, 0.0, d2, 0.0)]
    for fam in families:
        lam, slope = _lambda_and_slope(B, fam)
        approx = lam0 + 0.5 * d2 * fam.alpha * fam.alpha
        rows.append((fam.alpha, lam, approx, lam - approx, d2, slope))
    _write_csv(
        args.out,
        ["alpha", "lambda_exact", "lambda_quadratic_approx", "residual", "d2_at_zero", "dlambda_dalpha"],
        rows,
    )
    return 0


def _cmd_size_mc(args) -> int:
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    items = _read_config(args.config, args.set, _SIZE_MC_KEYS)
    with _config_errors():
        if "rows" not in items:
            raise ConfigError("config needs rows=alpha:T[,alpha:T...]")
        rows_spec = _parse_rows(items["rows"])
        m_trees = _number("M", items["M"], int)
        seed = _number("seed", items["seed"], int)
        estimator = items["estimator"]
        _check_run(m_trees, seed, estimator)
        # validate every row's config before simulating anything
        for alpha, T in rows_spec:
            _sim_config(items, T, alpha)
        # cv_table contracts the uncontracted baseline row by row
        base = _sim_config(items, rows_spec[0][1])
    table = cv_table(base, rows_spec, m_trees, seed, estimator)
    out_rows = []
    for row in table:
        e = row.estimate
        if e is None:
            nan = float("nan")
            out_rows.append((row.cv, row.alpha, row.T, nan, nan, nan, nan, nan, nan, nan))
        else:
            out_rows.append(
                (row.cv, row.alpha, row.T, e.mean, e.sd, e.ci_low, e.ci_high, e.pop_mean, e.pop_min, e.pop_max)
            )
    data = _write_csv(
        args.out,
        ["cv", "alpha", "T", "mean", "sd", "ci_low", "ci_high", "pop_mean", "pop_min", "pop_max"],
        out_rows,
    )
    config_text = "\n".join(f"{k}={v}" for k, v in sorted(items.items()))
    _write_manifest(args.out, "size-mc", config_text, seed, started, {args.out: data})
    for row in table:
        if row.estimate is None:
            print(f"row alpha={row.alpha} T={row.T}: {row.status}", file=sys.stderr)
    return 0


def _cmd_estimator_compare(args) -> int:
    items = _read_config(args.config, args.set, _MODEL_KEYS)
    with _config_errors():
        # checked here too: the library's ValueError, raised outside _config_errors, would exit 1, not 2
        if not all(T > 0.0 and math.isfinite(T) for T in args.horizons):
            raise ConfigError("--horizons must be positive and finite")
        cfg = _sim_config(items, max(args.horizons), args.alpha)
        _check_run(args.m, args.seed)
    rows = estimator_sd_comparison(cfg, args.horizons, args.m, args.seed)
    _write_csv(args.out, ["T", "sd_biomass", "sd_count"], rows)
    return 0


def _cmd_tree_dump(args) -> int:
    items = _read_config(args.config, args.set, _MODEL_KEYS)
    with _config_errors():
        cfg = _sim_config(items, args.horizon, args.alpha)
        stream = RngStream(args.seed, args.stream)
    tree = simulate_tree(cfg, stream)
    paths = tree.paths()
    # one bytes % per row over tolist() scalars: the same text as _fmt,
    # cell by cell, with the paths kept as bytes; formatted and written in
    # blocks of rows, so the text of the whole tree is never held
    row = b"%s,%s" + (b"," + _FMT.encode()) * 5
    with open(args.out, "wb") as f:
        f.write(b"id_path,parent_path,b,zeta,xi,tau,d\n")
        for start in range(0, len(tree), _DUMP_CHUNK_ROWS):
            rows = slice(start, start + _DUMP_CHUNK_ROWS)
            parent = tree.parent[rows]
            parent_paths = np.where(parent >= 0, paths[parent], b"")
            columns = [paths[rows].tolist(), parent_paths.tolist()]
            columns += [getattr(tree, name)[rows].tolist() for name in ("b", "zeta", "xi", "tau", "d")]
            f.write(b"\n".join([row % r for r in zip(*columns)]) + b"\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="malthus", description="Growth exponents of structured cell populations")
    sub = p.add_subparsers(dest="command", required=True)

    def add_baseline_flag(q):
        q.add_argument(
            "--baseline",
            default=_CONFIG_DEFAULTS["baseline"],
            help="rate law, written as baseline= in a config: gauss:vmin,vmax,sigma | twopoint:v1,v2 "
            "| uniform:a,b | dirac:v (default %(default)s)",
        )

    q = sub.add_parser("age-curve", help="growth exponent vs rate variability (age model)")
    q.add_argument("--beta", type=float, nargs="+", required=True)
    q.add_argument("--lag", type=float, default=0.0)
    q.add_argument("--alpha", type=float, nargs="+", required=True)
    add_baseline_flag(q)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_age_curve)

    q = sub.add_parser("age-perturb", help="quadratic expansion of the exponent in the contraction amount")
    g = q.add_mutually_exclusive_group()
    g.add_argument("--b-const", type=float, default=None, dest="b_const")
    g.add_argument("--beta", type=float, default=2.0)
    q.add_argument("--lag", type=float, help="onset age of the --beta rate (default 1.0); an error with --b-const")
    q.add_argument("--alphas", type=float, nargs="+", required=True)
    add_baseline_flag(q)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_age_perturb)

    q = sub.add_parser("size-mc", help="Monte Carlo growth-exponent table (size model)")
    q.add_argument("--config", default=None, help="key=value config file")
    q.add_argument("--set", action="append", default=[], help="override config entries")
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_size_mc)

    q = sub.add_parser("estimator-compare", help="sd of biomass vs count estimators over horizons")
    q.add_argument("--alpha", type=float, default=0.3)
    q.add_argument("--horizons", type=float, nargs="+", required=True)
    q.add_argument("--m", type=int, default=50)
    q.add_argument("--seed", type=int, default=1)
    q.add_argument("--config", default=None)
    q.add_argument("--set", action="append", default=[])
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_estimator_compare)

    q = sub.add_parser("tree-dump", help="one simulated tree, one CSV row per cell")
    q.add_argument("--alpha", type=float, default=0.0)
    q.add_argument("--horizon", type=float, default=6.0)
    q.add_argument("--seed", type=int, default=1)
    q.add_argument("--stream", type=int, default=0)
    q.add_argument("--config", default=None)
    q.add_argument("--set", action="append", default=[])
    q.add_argument("--out", required=True)
    q.set_defaults(fn=_cmd_tree_dump)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # simulation/solver failures
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
