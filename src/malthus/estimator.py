"""Growth-exponent estimation from simulated division trees.

The estimator compares the population at two times: with biomass M_t (or
the living-cell count N_t) measured at T/2 and at the horizon T, the
statistic (2/T) ln(M_T / M_{T/2}) converges to the population growth
exponent.
Monte Carlo repetitions aggregate per-tree values into a mean, a sample
standard deviation, and an empirical 95% interval chosen to contain at
least 95% of the per-tree values; worker processes only measure trees.
"""
from __future__ import annotations

import contextlib
import math
import operator
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .age_model import TruncatedGaussian
from .numerics import RngStream
# simulate_tree is not called here: the benchmark's tracer (bench/tracing.py)
# wraps estimator.simulate_tree, so the name stays importable
from .size_sim import SimConfig, TreeResult, biomass_at, group_measures, simulate_tree


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

    def __post_init__(self):
        if not (self.ci_low <= self.mean <= self.ci_high):
            raise ValueError("mean must lie inside the empirical interval")
        if not (self.pop_min <= self.pop_mean <= self.pop_max):
            raise ValueError("population stats out of order")
        inside = sum(1 for x in self.per_tree if self.ci_low <= x <= self.ci_high)
        if inside < math.ceil(0.95 * self.m):
            raise ValueError("interval misses too many per-tree values")


def _rate(early, late, T: float) -> float:
    """(2/T) ln(late / early), from the measures at T/2 and T."""
    if not (early > 0.0 and late > 0.0):
        raise RuntimeError("extinct or horizon mismatch")
    return math.log(late / early) / (0.5 * T)


def _log_ratio(tree: TreeResult, measure) -> float:
    T = tree.horizon
    return _rate(measure(tree, 0.5 * T), measure(tree, T), T)


def malthus_hat_biomass(tree: TreeResult) -> float:
    """(2/T) ln(M_T / M_{T/2}) from one tree, T its horizon."""
    return _log_ratio(tree, biomass_at)


def malthus_hat_count(tree: TreeResult) -> float:
    """Count analog of the biomass statistic, noisier at fixed T."""
    return _log_ratio(tree, lambda tr, t: tr.living_count(t))


def _check_run(m_trees: int, seed: int, estimator: str = "biomass") -> int:
    """Check the tree count, seed and statistic of a Monte Carlo run before
    any tree runs; return its workers, MALTHUS_THREADS (unset or blank: 1)."""
    try:
        m = operator.index(m_trees)  # 3.0, 2.5 or NaN raise here, not in range()
    except TypeError:
        raise TypeError(f"the tree count must be an integer, got {m_trees!r}") from None
    if m < 2:
        raise ValueError(f"need at least 2 trees, got {m_trees!r}")
    RngStream(seed)  # the seed's rule lives there
    if estimator not in ("biomass", "count"):
        raise ValueError(f"estimator must be 'biomass' or 'count', got {estimator!r}")
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


def _trees_job(config: SimConfig, seed: int, offset: int, times: list, trees: range) -> list:
    """The (biomass, living count) at each of ``times`` of the trees on
    streams ``offset + m``, m in ``trees`` (a group of :func:`_tree_runner`).

    If the group fails, its trees rerun one at a time, so the error names
    the stream of the first tree that fails alone.
    """
    try:
        return group_measures(config, [RngStream(seed, offset + m) for m in trees], times)
    except (ValueError, RuntimeError) as e:
        if len(trees) == 1:
            # named with its stream and kept in its category, which cv_table
            # records in-row; any other exception is a defect and propagates
            kind = ValueError if isinstance(e, ValueError) else RuntimeError
            raise kind(f"tree on stream {offset + trees[0]} failed: {e}") from e
    return [row for m in trees for row in _trees_job(config, seed, offset, times, range(m, m + 1))]


@contextlib.contextmanager
def _tree_runner(m_trees: int, seed: int, law, estimator: str = "biomass"):
    """Check the run, then yield ``measure(config, offset, times)``: the
    measures of the trees on streams offset..offset+m_trees-1 in tree order,
    from :func:`_trees_job` on groups of max(1, m_trees // (4 k)) trees, in
    this process at k = 1 worker, else on one pool of k workers.  ``law``
    is the run's kernel law: a truncated Gaussian's rate draws need
    scipy.special, which a pool loads once, here, before it forks."""
    workers = _check_run(m_trees, seed, estimator)
    pool, mapper = contextlib.nullcontext(), map
    if workers > 1:
        # imported here: the pool's modules (multiprocessing, logging, socket,
        # subprocess) add ~20 ms to every import of the package
        from concurrent.futures import ProcessPoolExecutor

        if isinstance(law, TruncatedGaussian):
            # each forked worker would otherwise import it (~0.2 s) on its
            # first Gaussian draw
            import scipy.special

        pool = ProcessPoolExecutor(max_workers=workers)
        mapper = pool.map
    chunk = max(1, m_trees // (4 * workers))
    groups = [range(i, min(i + chunk, m_trees)) for i in range(0, m_trees, chunk)]
    with pool:

        def measure(config: SimConfig, offset: int, times: list) -> list:
            job = partial(_trees_job, config, seed, offset, times)
            return [row for rows in mapper(job, groups) for row in rows]

        yield measure


def _statistics(rows: list, times: list, horizons: Sequence[float]) -> np.ndarray:
    """The (m, len(horizons), 2) biomass and count statistics, read at each
    T of ``horizons`` and at T/2, of the m trees measured at ``times``."""
    at = {t: j for j, t in enumerate(times)}
    return np.asarray([[[_rate(r[at[0.5 * T]][k], r[at[T]][k], T) for k in (0, 1)] for T in horizons] for r in rows])


def _summarize(per_tree: np.ndarray, pops: np.ndarray, T: float) -> MalthusEstimate:
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
    )


def _estimate(config: SimConfig, estimator: str, offset: int, measure) -> MalthusEstimate:
    T = config.horizon
    times = [0.5 * T, T]
    rows = measure(config, offset, times)
    per_tree = _statistics(rows, times, [T])[:, 0, ("biomass", "count").index(estimator)]
    pops = np.asarray([r[1][1] for r in rows])
    return _summarize(per_tree, pops, T)


def monte_carlo(config: SimConfig, m_trees: int, seed: int, estimator: str = "biomass") -> MalthusEstimate:
    """Simulate ``m_trees`` independent trees on streams (seed, 0..m-1) and
    aggregate the per-tree statistics."""
    with _tree_runner(m_trees, seed, config.kernel.law, estimator) as measure:
        return _estimate(config, estimator, 0, measure)


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
    tree count, seed, estimator or MALTHUS_THREADS raises before any row.
    """
    baseline = base.kernel.law
    out = []
    with _tree_runner(m_trees, seed, baseline, estimator) as measure:
        for i, (alpha, T) in enumerate(rows):
            alpha = float(alpha)
            cv = alpha * baseline.cv
            try:
                kernel = replace(base.kernel, law=baseline.contract(alpha))
                cfg = replace(base, kernel=kernel, horizon=float(T))
                out.append(CvTableRow(alpha, cv, float(T), _estimate(cfg, estimator, i * m_trees, measure)))
            except (ValueError, RuntimeError) as e:  # recorded, not fatal
                out.append(CvTableRow(alpha, cv, float(T), None, f"error: {type(e).__name__}: {e}"))
    return out


def estimator_sd_comparison(config: SimConfig, horizons: Sequence[float], m_trees: int, seed: int) -> list:
    """Sample sd of the biomass and count statistics at each horizon.

    Both statistics are evaluated on the same trees (paired comparison);
    trees are simulated once up to the largest horizon, whose time-t prefix
    coincides with a horizon-t simulation because draws are path-keyed.
    Horizons must be positive and finite; a malformed one raises before any
    tree.  Returns (T, sd_biomass, sd_count) triples in input order.
    """
    horizons = tuple(float(T) for T in horizons)
    if not horizons:
        raise ValueError("need at least one horizon")
    if not all(0.0 < T < math.inf for T in horizons):  # NaN fails it too
        raise ValueError(f"horizons must be positive and finite, got {horizons!r}")
    # expanded to the largest horizon, not the config's: a longer tree
    # would be measured where no statistic reads it
    config = replace(config, horizon=max(horizons))
    times = sorted({t for T in horizons for t in (0.5 * T, T)})
    with _tree_runner(m_trees, seed, config.kernel.law) as measure:
        rows = measure(config, 0, times)
    arr = _statistics(rows, times, horizons)  # (m, len(horizons), 2)
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
