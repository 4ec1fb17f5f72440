"""Growth-exponent estimators and their Monte Carlo aggregation."""
import concurrent.futures
import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import TG_CV
from malthus import estimator, size_sim
from malthus.age_model import AlphaFamily, Dirac, TruncatedGaussian
from malthus.estimator import (
    MalthusEstimate,
    cv_table,
    estimator_sd_comparison,
    malthus_hat_biomass,
    malthus_hat_count,
    monte_carlo,
)
from malthus.numerics import RngStream
from malthus.size_sim import (
    Exponential,
    FixedRate,
    Memoryless,
    SimConfig,
    SizeDivisionRate,
    Symmetric,
    UniformAsymmetric,
    biomass_at,
    simulate_tree,
)

TG = TruncatedGaussian(0.0, 2.0, 0.7)


def make_config(alpha=0.4, horizon=6.0, vbar=1.0, split=None):
    law = AlphaFamily(TG, alpha) if alpha > 0.0 else Dirac(vbar)
    return SimConfig(
        division=SizeDivisionRate(1.0, 2.0, "unit_size"),
        growth=Exponential(),
        split=split or Symmetric(),
        kernel=Memoryless(law),
        horizon=horizon,
        root_size=2.0,
        root_rate=FixedRate(vbar),
    )


# --- per-tree statistics ---------------------------------------------------------


def test_biomass_estimator_matches_hand_computation():
    tree = simulate_tree(make_config(horizon=6.0), RngStream(7, 0))
    expect = math.log(biomass_at(tree, 6.0) / biomass_at(tree, 3.0)) / 3.0
    assert malthus_hat_biomass(tree) == expect
    n6, n3 = tree.living_count(6.0), tree.living_count(3.0)
    assert malthus_hat_count(tree) == math.log(n6 / n3) / 3.0


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("statistic, hat", [("biomass", malthus_hat_biomass), ("count", malthus_hat_count)])
def test_monte_carlo_per_tree_is_the_tree_statistic(monkeypatch, threads, statistic, hat):
    # tree j of a run is the tree on stream (seed, j), its statistic read by
    # the per-tree estimator, bit for bit at one worker and two
    monkeypatch.setenv("MALTHUS_THREADS", threads)
    cfg = make_config(alpha=0.4, horizon=6.0)
    est = monte_carlo(cfg, m_trees=6, seed=11, estimator=statistic)
    assert est.per_tree == tuple(hat(simulate_tree(cfg, RngStream(11, j))) for j in range(6))


def test_identical_rates_recover_rate_exactly():
    # mass-conserving splits + common exponential rate make total biomass
    # exactly root_size * exp(vbar t), whatever the division times are
    for vbar in (0.7, 1.3):
        for split in (Symmetric(), UniformAsymmetric(0.25)):
            cfg = make_config(alpha=0.0, horizon=8.0, vbar=vbar, split=split)
            est = monte_carlo(cfg, m_trees=4, seed=101, estimator="biomass")
            assert abs(est.mean - vbar) < 1e-12
            assert est.sd < 1e-12
            for x in est.per_tree:
                assert abs(x - vbar) < 1e-12


# --- Monte Carlo aggregation -----------------------------------------------------


def test_monte_carlo_summary_fields_and_coverage():
    est = monte_carlo(make_config(alpha=0.4, horizon=7.0), m_trees=50, seed=3)
    assert est.m == 50 and len(est.per_tree) == 50
    assert est.T == 7.0
    assert est.ci_low <= est.mean <= est.ci_high
    inside = sum(1 for x in est.per_tree if est.ci_low <= x <= est.ci_high)
    assert inside >= math.ceil(0.95 * 50)
    assert est.pop_min <= est.pop_mean <= est.pop_max
    assert est.pop_min > 0
    assert abs(est.mean - np.mean(est.per_tree)) < 1e-15
    assert abs(est.sd - np.std(est.per_tree, ddof=1)) < 1e-15


def test_estimate_validation_rejects_inconsistent_summaries():
    ok = dict(
        per_tree=(1.0, 2.0, 3.0), mean=2.0, sd=1.0, ci_low=1.0, ci_high=3.0,
        pop_mean=5.0, pop_min=4.0, pop_max=6.0, T=2.0, m=3,
    )
    MalthusEstimate(**ok)
    with pytest.raises(ValueError, match="inside"):
        MalthusEstimate(**{**ok, "ci_low": 2.5})
    with pytest.raises(ValueError, match="order"):
        MalthusEstimate(**{**ok, "pop_min": 7.0})
    with pytest.raises(ValueError, match="misses"):
        MalthusEstimate(**{**ok, "ci_low": 1.9, "ci_high": 2.1})


def test_monte_carlo_input_validation():
    cfg = make_config()
    with pytest.raises(ValueError):
        monte_carlo(cfg, m_trees=1, seed=1)
    with pytest.raises(ValueError):
        monte_carlo(cfg, m_trees=4, seed=1, estimator="median")


def test_monte_carlo_reproducible_and_thread_invariant(monkeypatch):
    cfg = make_config(alpha=0.4, horizon=5.5)
    a = monte_carlo(cfg, m_trees=6, seed=11)
    b = monte_carlo(cfg, m_trees=6, seed=11)
    assert a.per_tree == b.per_tree
    monkeypatch.setenv("MALTHUS_THREADS", "4")
    c = monte_carlo(cfg, m_trees=6, seed=11)
    assert c.per_tree == a.per_tree and c.mean == a.mean
    d = monte_carlo(cfg, m_trees=6, seed=12)
    assert d.per_tree != a.per_tree


# --- variability table -----------------------------------------------------------


def test_cv_table_rows_and_stream_partitioning():
    base = make_config(alpha=1.0, horizon=5.0)
    rows = [(0.4, 5.0), (0.8, 4.5)]
    table = cv_table(base, rows, m_trees=4, seed=9)
    assert [r.status for r in table] == ["ok", "ok"]
    for (alpha, T), row in zip(rows, table):
        assert row.alpha == alpha and row.T == T
        assert abs(row.cv - alpha * TG_CV) < 1e-12
        assert row.estimate.m == 4 and row.estimate.T == T
    # row 0 runs on streams 0..m-1, exactly like a direct monte_carlo
    cfg0 = dataclasses.replace(
        base, kernel=Memoryless(TG.contract(0.4)), horizon=5.0
    )
    direct = monte_carlo(cfg0, m_trees=4, seed=9)
    assert table[0].estimate.per_tree == direct.per_tree
    assert table[0].estimate == direct
    # earlier rows do not move when more rows are appended
    again = cv_table(base, rows[:1], m_trees=4, seed=9)
    assert again[0].estimate.per_tree == table[0].estimate.per_tree


def test_cv_table_records_row_failures():
    base = make_config(alpha=1.0, horizon=5.0)
    table = cv_table(base, [(0.4, -1.0), (0.2, 4.0)], m_trees=4, seed=9)
    assert table[0].estimate is None
    assert table[0].status.startswith("error: ValueError: horizon must be")
    assert table[1].status == "ok"


def test_cv_table_keeps_failure_types(monkeypatch):
    # a tree's ValueError is recorded in-row under its own type and stream;
    # any other exception is a defect and propagates
    def fail(kind):
        def measure(config, streams, times):
            raise kind("boom")

        return measure

    base = make_config(alpha=1.0, horizon=5.0)
    monkeypatch.setattr(estimator, "group_measures", fail(ValueError))
    [row] = cv_table(base, [(0.4, 5.0)], m_trees=3, seed=9)
    assert row.estimate is None
    assert row.status.startswith("error: ValueError: tree on stream 0 failed: boom")
    monkeypatch.setattr(estimator, "group_measures", fail(TypeError))
    with pytest.raises(TypeError):
        cv_table(base, [(0.4, 5.0)], m_trees=3, seed=9)


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
def test_malformed_thread_count_raises_before_any_tree(monkeypatch, threads):
    # resolved once per call, so a malformed value never becomes an in-row error
    def refuse(config, streams, times):
        raise AssertionError("a tree ran")

    monkeypatch.setattr(estimator, "group_measures", refuse)
    monkeypatch.setenv("MALTHUS_THREADS", threads)
    base = make_config(alpha=1.0, horizon=5.0)
    for call in (
        lambda: cv_table(base, [(0.4, 5.0), (0.2, 4.0)], m_trees=3, seed=9),
        lambda: monte_carlo(base, m_trees=3, seed=9),
        lambda: estimator_sd_comparison(base, [4.0, 5.0], m_trees=3, seed=9),
    ):
        with pytest.raises(ValueError, match=f"MALTHUS_THREADS must be a positive integer, got '{threads}'"):
            call()


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_malformed_seed_raises_before_any_tree(monkeypatch, seed):
    # checked once per call, so it is never an in-row error naming a tree
    def refuse(config, streams, times):
        raise AssertionError("a tree ran")

    monkeypatch.setattr(estimator, "group_measures", refuse)
    base = make_config(alpha=1.0, horizon=5.0)
    for call in (
        lambda: cv_table(base, [(0.4, 5.0), (0.2, 4.0)], m_trees=3, seed=seed),
        lambda: monte_carlo(base, m_trees=3, seed=seed),
        lambda: estimator_sd_comparison(base, [4.0, 5.0], m_trees=3, seed=seed),
    ):
        with pytest.raises((ValueError, TypeError)) as got:
            call()
        assert "tree on stream" not in str(got.value)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("m_trees", [3.0, 2.5, math.nan])
def test_non_integer_tree_count_raises_before_any_tree(monkeypatch, threads, m_trees):
    # taken as an integer at the boundary, not found out later by range()
    # after a process pool was built
    def refuse(*args, **kwargs):
        raise AssertionError("a tree ran or a pool was built")

    monkeypatch.setattr(estimator, "group_measures", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setenv("MALTHUS_THREADS", threads)
    base = make_config(alpha=1.0, horizon=5.0)
    for call in (
        lambda: cv_table(base, [(0.4, 5.0), (0.2, 4.0)], m_trees=m_trees, seed=9),
        lambda: monte_carlo(base, m_trees=m_trees, seed=9),
        lambda: estimator_sd_comparison(base, [4.0, 5.0], m_trees=m_trees, seed=9),
    ):
        with pytest.raises(TypeError, match=f"tree count must be an integer, got {re.escape(repr(m_trees))}"):
            call()


@pytest.mark.parametrize("threads, m_trees, groups", [("1", 8, [2] * 4), ("1", 40, [10] * 4), ("2", 40, [5] * 8)])
def test_trees_run_in_groups_of_a_quarter_per_worker(tmp_path, monkeypatch, threads, m_trees, groups):
    # max(1, m // (4 k)) consecutive trees a group at every worker count k;
    # the calls are recorded in a file, which the pool's workers share
    log = tmp_path / "groups"

    def recording(config, streams, times):
        with open(log, "a") as f:
            f.write(f"{len(streams)}\n")
        return size_sim.group_measures(config, streams, times)

    monkeypatch.setattr(estimator, "group_measures", recording)
    monkeypatch.setenv("MALTHUS_THREADS", threads)
    monte_carlo(make_config(alpha=0.4, horizon=3.0), m_trees=m_trees, seed=3)
    assert sorted(int(n) for n in log.read_text().split()) == groups


def test_cv_table_alpha_zero_row_is_degenerate():
    base = make_config(alpha=1.0, horizon=5.0)
    [row] = cv_table(base, [(0.0, 5.0)], m_trees=3, seed=2)
    assert row.cv == 0.0
    assert row.estimate.sd < 1e-12


def test_cv_table_records_a_contraction_of_a_degenerate_baseline_as_an_error():
    # a Dirac baseline has no contraction at alpha > 0; the row would
    # otherwise run the Dirac itself and report it as ok
    base = make_config(alpha=0.0, horizon=4.0)
    ok, bad = cv_table(base, [(0.0, 4.0), (0.5, 4.0)], m_trees=2, seed=1)
    assert ok.status == "ok"
    assert (bad.alpha, bad.cv, bad.estimate) == (0.5, 0.0, None)
    assert bad.status == "error: ValueError: alpha > 0 requires a non-degenerate baseline"


# --- estimator comparison --------------------------------------------------------


def test_sd_comparison_matches_direct_runs_per_horizon():
    cfg = make_config(alpha=0.4, horizon=7.0)
    out = estimator_sd_comparison(cfg, horizons=(7.0, 5.0), m_trees=6, seed=3)
    assert [t for t, _, _ in out] == [7.0, 5.0]
    for T, sd_b, sd_c in out:
        cfg_t = dataclasses.replace(cfg, horizon=T)
        assert sd_b == monte_carlo(cfg_t, 6, 3, estimator="biomass").sd
        assert sd_c == monte_carlo(cfg_t, 6, 3, estimator="count").sd


def test_sd_comparison_expands_to_the_largest_horizon(monkeypatch):
    # a config horizon past every requested one is not simulated: the
    # triples are those of the largest horizon, which the trees reach
    reached = []

    def recording(config, streams, times):
        reached.append(config.horizon)
        return size_sim.group_measures(config, streams, times)

    monkeypatch.setattr(estimator, "group_measures", recording)
    long = estimator_sd_comparison(make_config(alpha=0.4, horizon=12.0), horizons=(5.0, 7.0), m_trees=4, seed=3)
    assert reached == [7.0] * 4
    assert long == estimator_sd_comparison(make_config(alpha=0.4, horizon=7.0), horizons=(5.0, 7.0), m_trees=4, seed=3)


@pytest.mark.parametrize("case", ["max_cells", "thinning"])
@pytest.mark.parametrize(
    "threads, m_trees",
    [("1", 5), ("2", 5), ("1", 8), ("2", 8), ("1", 12), ("2", 12)],
    ids=["1", "2", "1-m8", "2-m8", "1-m12", "2-m12"],
)
def test_group_failure_names_the_first_tree_that_fails_alone(monkeypatch, case, threads, m_trees):
    # groups of max(1, m // (4 k)) trees: of one for five trees, and at two
    # workers; at one worker, stream 2 fails inside the group {2, 3} of
    # eight trees and {0, 1, 2} of twelve, so the group's trees rerun
    # alone.  Either way the error is the one of the first stream whose
    # tree fails alone, with its type and message
    if case == "max_cells":  # trees of 1989, 2499, 3023, 2043 and 2577 cells
        cfg, seed = dataclasses.replace(make_config(horizon=7.0), max_cells=2500), 9
    else:  # stream 2 alone has a cell that needs more attempts
        monkeypatch.setattr(size_sim, "_THINNING_BUDGET", 24)
        cfg = dataclasses.replace(make_config(horizon=5.0), division=SizeDivisionRate(1.0, 2.0, "unit_time"))
        seed = 5
    alone = []
    for k in range(5):
        try:
            size_sim.group_measures(cfg, [RngStream(seed, k)], [cfg.horizon])
        except RuntimeError as e:
            alone.append((k, e))
    k, first = alone[0]
    assert k == 2
    monkeypatch.setenv("MALTHUS_THREADS", threads)
    with pytest.raises(RuntimeError) as got:
        monte_carlo(cfg, m_trees=m_trees, seed=seed)
    assert type(got.value) is RuntimeError
    assert str(got.value) == f"tree on stream {k} failed: {first}"


def test_sd_comparison_validation(monkeypatch):
    # a malformed horizon raises before any tree, never blamed on one
    def refuse(config, streams, times):
        raise AssertionError("a tree ran")

    monkeypatch.setattr(estimator, "group_measures", refuse)
    cfg = make_config()
    for horizons, m_trees in [((), 4), ((5.0,), 1), ((-1.0, 4.0), 4), ((4.0, math.nan), 4), ((4.0, 0.0), 4)]:
        with pytest.raises(ValueError) as got:
            estimator_sd_comparison(cfg, horizons=horizons, m_trees=m_trees, seed=1)
        assert "tree on stream" not in str(got.value)


def test_cv_table_validates_its_inputs(monkeypatch):
    # malformed inputs raise before any tree, never an in-row KeyError or an
    # "ok" row with sd = nan
    def refuse(config, streams, times):
        raise AssertionError("a tree ran")

    monkeypatch.setattr(estimator, "group_measures", refuse)
    base = make_config(alpha=1.0, horizon=5.0)
    with pytest.raises(ValueError, match="estimator must be"):
        cv_table(base, [(0.5, 4.0)], 4, 1, "median")
    with pytest.raises(ValueError, match="at least 2 trees"):
        cv_table(base, [(0.5, 4.0)], 1, 1)
