"""Growth-exponent estimation from simulated division trees.

The estimator compares the population at two times: with biomass M_t (or
the living-cell count N_t) measured at T/2 and T, the statistic
(2/T) ln(M_T / M_{T/2}) converges to the population growth exponent.
Monte Carlo repetitions aggregate per-tree values into a mean, a sample
standard deviation, and an empirical 95% interval chosen to contain at
least 95% of the per-tree values.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .numerics import RngStream
# simulate_tree is not called here: the benchmark's tracer (bench/tracing.py)
# wraps estimator.simulate_tree, so the name stays importable
from .size_sim import SimConfig, TreeResult, biomass_at, simulate_tree, tree_measures

__all__ = [
    "MalthusEstimate",
    "CvTableRow",
    "malthus_hat_biomass",
    "malthus_hat_count",
    "monte_carlo",
    "cv_table",
    "estimator_sd_comparison",
]


@dataclass(frozen=True)
class MalthusEstimate:
    """Monte Carlo summary of per-tree growth-exponent estimates."""

    per_tree: tuple
    mean: float
    sd: float
    ci_low: float
    ci_high: float
    pop_mean: float
    pop_min: float
    pop_max: float
    T: float
    m: int
    config_digest: str

    def __post_init__(self):
        if not (self.ci_low <= self.mean <= self.ci_high):
            raise ValueError("mean must lie inside the empirical interval")
        if not (self.pop_min <= self.pop_mean <= self.pop_max):
            raise ValueError("population stats out of order")
        inside = sum(1 for x in self.per_tree if self.ci_low <= x <= self.ci_high)
        if inside < math.ceil(0.95 * self.m):
            raise ValueError("interval misses too many per-tree values")


def _measure_times(T: Optional[float], t1: Optional[float], horizon: float) -> tuple:
    """The validated (T, t1) pair; T defaults to the horizon, t1 to T/2."""
    T = horizon if T is None else float(T)
    if not (0.0 < T <= horizon):
        raise ValueError("T must lie in (0, horizon]")
    t1 = 0.5 * T if t1 is None else float(t1)
    if not (0.0 <= t1 < T):
        raise ValueError("need 0 <= t1 < T")
    return T, t1


def _rate(early, late, T: float, t1: float) -> float:
    if not (early > 0.0 and late > 0.0):
        raise RuntimeError("extinct or horizon mismatch")
    return math.log(late / early) / (T - t1)


def _log_ratio(tree: TreeResult, T: Optional[float], t1: Optional[float], measure) -> float:
    T, t1 = _measure_times(T, t1, tree.horizon)
    return _rate(measure(tree, t1), measure(tree, T), T, t1)


def malthus_hat_biomass(tree: TreeResult, T: Optional[float] = None, t1: Optional[float] = None) -> float:
    """(2/T) ln(M_T / M_{T/2}) from one tree; measurement times configurable."""
    return _log_ratio(tree, T, t1, biomass_at)


def malthus_hat_count(tree: TreeResult, T: Optional[float] = None, t1: Optional[float] = None) -> float:
    """Count analog of the biomass statistic, noisier at fixed T."""
    return _log_ratio(tree, T, t1, lambda tr, t: tr.living_count(t))


def _worker_count() -> int:
    """Worker processes from MALTHUS_THREADS (unset or blank: 1)."""
    env = os.environ.get("MALTHUS_THREADS", "").strip()
    if not env:
        return 1
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"MALTHUS_THREADS must be a positive integer, got {env!r}")
    return n


def _check_run(m_trees: int, estimator: str = "biomass") -> None:
    """The tree count and statistic every Monte Carlo entry point needs."""
    if m_trees < 2:
        raise ValueError(f"need at least 2 trees, got {m_trees!r}")
    if estimator not in ("biomass", "count"):
        raise ValueError(f"estimator must be 'biomass' or 'count', got {estimator!r}")


def _tree_job(config: SimConfig, seed: int, offset: int, estimators: tuple, horizons: tuple, m: int):
    """Expand the tree on stream ``offset + m`` into its measures; return,
    per horizon, the requested statistics, and the living count at the
    config's horizon."""
    try:
        pairs = [_measure_times(T, None, config.horizon) for T in horizons]
        times = sorted({config.horizon, *(t for pair in pairs for t in pair)})
        at = dict(zip(times, tree_measures(config, RngStream(seed, offset + m), times)))
        column = {"biomass": 0, "count": 1}
        stats = [[_rate(at[t1][column[e]], at[T][column[e]], T, t1) for e in estimators] for T, t1 in pairs]
        return stats, at[config.horizon][1]
    except (ValueError, RuntimeError) as e:
        # named with its stream and kept in its category, which cv_table
        # records in-row; any other exception is a defect and propagates
        kind = ValueError if isinstance(e, ValueError) else RuntimeError
        raise kind(f"tree on stream {offset + m} failed: {e}") from e


def _map_trees(job, m_count: int, workers: int):
    if workers <= 1:
        return [job(m) for m in range(m_count)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, m_count // (4 * workers))
        return list(pool.map(job, range(m_count), chunksize=chunk))


def _summarize(config: SimConfig, per_tree: np.ndarray, pops: np.ndarray, T: float) -> MalthusEstimate:
    # R-6 interpolation puts >= ceil(0.95 m) of the points inside the interval
    lo, hi = np.quantile(per_tree, [0.025, 0.975], method="weibull")
    return MalthusEstimate(
        per_tree=tuple(float(x) for x in per_tree),
        mean=float(np.mean(per_tree)),
        sd=float(np.std(per_tree, ddof=1)),
        ci_low=float(lo),
        ci_high=float(hi),
        pop_mean=float(np.mean(pops)),
        pop_min=float(np.min(pops)),
        pop_max=float(np.max(pops)),
        T=float(T),
        m=int(per_tree.size),
        config_digest=config.digest,
    )


def _estimate(config: SimConfig, m_trees: int, seed: int, estimator: str, offset: int, workers: int) -> MalthusEstimate:
    rows = _map_trees(partial(_tree_job, config, seed, offset, (estimator,), (config.horizon,)), m_trees, workers)
    per_tree = np.asarray([r[0][0][0] for r in rows])
    pops = np.asarray([r[1] for r in rows])
    return _summarize(config, per_tree, pops, config.horizon)


def monte_carlo(config: SimConfig, m_trees: int, seed: int, estimator: str = "biomass") -> MalthusEstimate:
    """Simulate ``m_trees`` independent trees on streams (seed, 0..m-1) and
    aggregate the per-tree statistics."""
    _check_run(m_trees, estimator)
    return _estimate(config, m_trees, seed, estimator, 0, _worker_count())


@dataclass(frozen=True)
class CvTableRow:
    alpha: float
    cv: float
    T: float
    estimate: Optional[MalthusEstimate]
    status: str = "ok"


def cv_table(
    base: SimConfig,
    rows: Sequence[tuple],
    m_trees: int,
    seed: int,
    estimator: str = "biomass",
) -> list:
    """One Monte Carlo estimate per (alpha, T) row.

    The base config's kernel law, as resolved by :class:`SimConfig` (an
    ``AlphaFamily`` becomes its contracted law), is the baseline: row
    (alpha, T) simulates ``baseline.contract(alpha)`` up to T, and its cv
    is alpha times the baseline CV.  Row i runs on streams
    (seed, i*m .. i*m + m - 1), so the table is reproducible row-by-row.
    Failures are recorded in-row with their exception type; a malformed
    tree count, estimator or MALTHUS_THREADS raises before any row runs.
    """
    _check_run(m_trees, estimator)
    workers = _worker_count()
    baseline = base.kernel.law
    out = []
    for i, (alpha, T) in enumerate(rows):
        alpha = float(alpha)
        cv = alpha * baseline.cv
        try:
            kernel = replace(base.kernel, law=baseline.contract(alpha))
            cfg = replace(base, kernel=kernel, horizon=float(T))
            out.append(CvTableRow(alpha, cv, float(T), _estimate(cfg, m_trees, seed, estimator, i * m_trees, workers)))
        except (ValueError, RuntimeError) as e:  # recorded, not fatal
            out.append(CvTableRow(alpha, cv, float(T), None, f"error: {type(e).__name__}: {e}"))
    return out


def estimator_sd_comparison(config: SimConfig, horizons: Sequence[float], m_trees: int, seed: int) -> list:
    """Sample sd of the biomass and count statistics at each horizon.

    Both statistics are evaluated on the same trees (paired comparison);
    trees are simulated once up to the largest horizon, whose time-t prefix
    coincides with a horizon-t simulation because draws are path-keyed.
    Returns (T, sd_biomass, sd_count) triples in input order.
    """
    horizons = tuple(float(T) for T in horizons)
    if not horizons:
        raise ValueError("need at least one horizon")
    _check_run(m_trees)
    top = max(horizons)
    if not (top <= config.horizon):
        config = replace(config, horizon=top)
    rows = _map_trees(partial(_tree_job, config, seed, 0, ("biomass", "count"), horizons), m_trees, _worker_count())
    arr = np.asarray([r[0] for r in rows])  # (m, len(horizons), 2)
    out = []
    for j, T in enumerate(horizons):
        out.append(
            (
                T,
                float(np.std(arr[:, j, 0], ddof=1)),
                float(np.std(arr[:, j, 1], ddof=1)),
            )
        )
    return out
