"""End-to-end acceptance gates.

One test per criterion, in order; each passing test prints a single
verdict line (visible with ``pytest -s`` or in captured output).  Wall-time
budgets are asserted where the gate demands them; the Monte Carlo gates
(7, 8, 9, 11) run at full scale and take minutes by design.
"""
import math
import time

import numpy as np
import pytest

from conftest import TG_CV, witness_rate
from malthus.age_model import (
    AlphaFamily,
    ConstantRate,
    Dirac,
    DiscreteMixture,
    PowerLagRate,
    TabulatedRate,
    TruncatedGaussian,
    UniformLaw,
    cv_curve,
    d2lambda_at_zero,
    malthus_general,
    malthus_reference,
    malthus_with_variability,
    sign_condition,
)
from malthus.cli import main
from malthus.estimator import cv_table, estimator_sd_comparison, monte_carlo
from malthus.numerics import RngStream, cell_base
from malthus.size_sim import (
    Exponential,
    FixedRate,
    Linear,
    Memoryless,
    SimConfig,
    SizeDivisionRate,
    Symmetric,
    UniformAsymmetric,
)
from malthus.size_sim import _division_sizes

TG = TruncatedGaussian(0.0, 2.0, 0.7)
TWOPOINT = DiscreteMixture([(0.5, 0.5), (1.5, 0.5)])
SEED = 20260813


def verdict(n: int, text: str) -> None:
    print(f"CRITERION {n:02d} PASS — {text}")


def base_config(alpha: float, horizon: float, **kw) -> SimConfig:
    law = AlphaFamily(TG, alpha) if alpha > 0.0 else Dirac(kw.get("vbar", 1.0))
    return SimConfig(
        division=SizeDivisionRate(1.0, 2.0, kw.get("mode", "unit_size")),
        growth=kw.get("growth", Exponential()),
        split=kw.get("split", Symmetric()),
        kernel=Memoryless(law),
        horizon=horizon,
        root_size=2.0,
        root_rate=FixedRate(kw.get("vbar", 1.0)),
    )


def ks_distance(sorted_draws: np.ndarray, cdf_values: np.ndarray) -> float:
    n = sorted_draws.size
    i = np.arange(1, n + 1)
    return max(np.max(cdf_values - (i - 1) / n), np.max(i / n - cdf_values))


def test_criterion_01_closed_form_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for _k in range(20):
        b, vbar = rng.uniform(0.1, 10.0, size=2)
        assert abs(malthus_reference(ConstantRate(b), vbar) - b * vbar) <= 1e-10
    for _k in range(20):
        b = rng.uniform(0.1, 3.0)
        v1, v2 = rng.uniform(0.2, 3.0, size=2)
        law = DiscreteMixture([(v1, 0.5), (v2, 0.5)])
        lam = malthus_with_variability(ConstantRate(b), law)
        assert abs(lam - b * math.sqrt(v1 * v2)) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    verdict(1, f"constant-hazard closed forms exact to 1e-10 / 1e-8 in {elapsed:.2f}s")


def test_criterion_02_constant_time_hazard_invariance():
    t0 = time.perf_counter()
    c = 0.8
    for rho in (TG, UniformLaw(0.5, 1.5), TruncatedGaussian(0.2, 1.8, 0.4)):
        lam = malthus_general(lambda a, v: c / v, lambda a, v: 1.0 / v, rho)
        assert abs(lam - c) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    verdict(2, f"per-time hazard c recovered to 1e-9 for 3 rate laws in {elapsed:.2f}s")


def test_criterion_03_decreasing_family_ordering():
    t0 = time.perf_counter()
    tol = 1e-9
    for b in (0.7, 1.0):
        assert sign_condition(ConstantRate(b)) == "decreasing_fB"
        lam_ref = malthus_reference(ConstantRate(b), 1.0)
        for rho in (TG, TWOPOINT):
            lam_rho = malthus_with_variability(ConstantRate(b), rho)
            assert lam_ref - lam_rho > 100.0 * tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    verdict(3, f"variability strictly lowers the exponent for decreasing-density hazards in {elapsed:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason="the increasing-density witness (lifespan density 2a on (0,1]) yields a"
    " strictly SMALLER exponent under both two-point and narrow-uniform rate laws,"
    " so the claimed reversed ordering is unattainable; see the project ledger",
)
def test_criterion_03_increasing_witness_ordering():
    coarse = np.unique(1.0 - np.geomspace(1.0, 1e-2, 2401))
    classified = TabulatedRate(coarse, 2.0 * coarse / (1.0 - coarse * coarse))
    assert sign_condition(classified) == "increasing_fB"
    tol = 1e-9
    W = witness_rate()
    lam_ref = malthus_reference(W, 1.0)
    for rho in (TWOPOINT, UniformLaw(0.9, 1.1)):
        lam_rho = malthus_with_variability(W, rho)
        assert lam_rho - lam_ref > 100.0 * tol


def test_criterion_04_quadratic_expansion_order():
    t0 = time.perf_counter()
    B = ConstantRate(1.0)
    d2 = d2lambda_at_zero(B, TWOPOINT)
    assert abs(d2 - (-0.25)) <= 1e-6  # -sigma^2 b / vbar with sigma^2 = 0.25
    lam0 = malthus_reference(B, 1.0)
    resid = []
    for alpha in (0.2, 0.1, 0.05, 0.025):
        lam = malthus_with_variability(B, AlphaFamily(TWOPOINT, alpha).law())
        resid.append((lam - lam0 - 0.5 * d2 * alpha * alpha) / alpha**2)
    mags = [abs(r) for r in resid]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    verdict(4, f"residual/alpha^2 falls {mags[0]:.1e} -> {mags[-1]:.1e}, d2 = {d2:.6f}, in {elapsed:.2f}s")


def test_criterion_05_exponent_non_increasing_in_cv():
    t0 = time.perf_counter()
    alphas = [0.05 * k / TG_CV for k in range(1, 10)]
    for beta in (0.0, 1.0, 2.0):
        curve = cv_curve(PowerLagRate(beta, 1.0), TG, alphas)
        assert [r.status for r in curve] == ["ok"] * 10
        cvs = [r.cv for r in curve]
        assert cvs[0] == 0.0 and abs(cvs[-1] - 0.45) < 1e-12
        lams = [r.lam for r in curve]
        for older, newer in zip(lams, lams[1:]):
            assert newer - older <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    verdict(5, f"CV -> exponent non-increasing for beta in (0, 1, 2) in {elapsed:.2f}s")


def test_criterion_06_biomass_identity_under_common_rate():
    t0 = time.perf_counter()
    for vbar in (0.7, 1.0, 1.3):
        for split in (Symmetric(), UniformAsymmetric(0.1), UniformAsymmetric(0.3)):
            cfg = base_config(0.0, 8.0, vbar=vbar, split=split)
            est = monte_carlo(cfg, m_trees=5, seed=77)
            for x in est.per_tree:
                assert abs(x - vbar) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    verdict(6, f"biomass estimate equals the common rate to 1e-12 on all 45 trees in {elapsed:.2f}s")


def test_criterion_07_variability_table_full_scale():
    rows = [(0.1, 10.5), (0.4, 11.5), (0.9, 13.0)]
    # reference values for this protocol: mean, |delta| cap (3 reference sd),
    # and reference interval width per row
    refs = [(0.9985, 0.0018, 0.0025), (0.9757, 0.0054, 0.0072), (0.8722, 0.0117, 0.0144)]
    base = base_config(1.0, 10.0)
    table = cv_table(base, rows, m_trees=50, seed=SEED)
    details = []
    for row, (mean_ref, cap, width_ref) in zip(table, refs):
        assert row.status == "ok"
        e = row.estimate
        assert abs(e.mean - mean_ref) <= cap
        width = e.ci_high - e.ci_low
        assert width_ref / 2.0 <= width <= 2.0 * width_ref
        details.append(f"alpha={row.alpha:g}: mean {e.mean:.4f} (ref {mean_ref}), width {width:.4f}")
    verdict(7, "; ".join(details))


def test_criterion_08_linear_growth_reference_point():
    cfg = SimConfig(
        division=SizeDivisionRate(1.0, 2.0, "unit_size"),
        growth=Linear(),
        split=Symmetric(),
        kernel=Memoryless(Dirac(1.0)),
        horizon=17.25,
        root_size=2.0,
        root_rate=FixedRate(1.0),
    )
    est = monte_carlo(cfg, m_trees=50, seed=SEED)
    assert 0.6082 <= est.mean <= 0.6178
    verdict(8, f"linear-growth mean {est.mean:.4f} within [0.6082, 0.6178]")


def test_criterion_09_biomass_beats_count_at_every_horizon():
    cfg = base_config(0.3, 12.0)
    out = estimator_sd_comparison(cfg, horizons=(6.0, 8.0, 10.0, 12.0), m_trees=50, seed=SEED)
    for T, sd_b, sd_c in out:
        assert sd_b < sd_c
    pairs = ", ".join(f"T={T:g}: {sb:.4f}<{sc:.4f}" for T, sb, sc in out)
    verdict(9, pairs)


def test_criterion_10_daughter_size_law_oracles():
    # the division-size sampler simulate_tree runs, on n cells born at size 2
    # with rate 1 and keyed 0..n-1 on stream (2026, k)
    t0 = time.perf_counter()
    n = 100_000
    keys = np.arange(n, dtype=np.uint64)
    x_b, v = np.full(n, 2.0), np.ones(n)
    bases = cell_base(RngStream(2026, 0).base, keys)
    s = np.sort(_division_sizes(base_config(0.0, 1.0, mode="unit_size"), bases, x_b, v))
    cdf = 1.0 - np.exp(-((s - 1.0) ** 3 - 1.0) / 3.0)
    ks_size = ks_distance(s, cdf)
    assert ks_size < 0.01

    bases = cell_base(RngStream(2026, 1).base, keys)
    draws = np.sort(_division_sizes(base_config(0.0, 1.0, mode="unit_time"), bases, x_b, v))
    prim = lambda y: 0.5 * y * y - 2.0 * y + np.log(y)  # primitive of (y-1)^2 / y
    cdf_t = 1.0 - np.exp(-(prim(draws) - prim(2.0)))
    ks_time = ks_distance(draws, cdf_t)
    assert ks_time < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    verdict(10, f"KS {ks_size:.4f} (inverse-transform), {ks_time:.4f} (thinning) over {n} draws in {elapsed:.1f}s")


def test_criterion_11_thread_count_invariance(tmp_path, monkeypatch):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("rows=0.4:8,0.8:8\nM=8\nseed=5\n")
    blobs = []
    for threads in ("1", "1", "8", "8"):
        out = tmp_path / f"run{len(blobs)}.csv"
        monkeypatch.setenv("MALTHUS_THREADS", threads)
        assert main(["size-mc", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    verdict(11, "size-mc CSV byte-identical across repeats and worker counts 1 and 8")
