"""Division trees: samplers, genealogy invariants, reproducibility."""
import dataclasses
import functools
import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

import golden_trees
from conftest import TG_CV
from malthus.age_model import AlphaFamily, Dirac, DiscreteMixture, TruncatedGaussian, UniformLaw
from malthus import size_sim
from malthus.numerics import RngStream, cell_base, open_uniforms_at, uniforms_at
from malthus.size_sim import (
    AutoRegressive,
    DrawnFromKernel,
    Exponential,
    FixedRate,
    Linear,
    Memoryless,
    SimConfig,
    SizeDivisionRate,
    Symmetric,
    UniformAsymmetric,
    biomass_at,
    simulate_tree,
)
from malthus.size_sim import (
    _DOM_RATE,
    _DOM_SIZE,
    _child_rates,
    _division_sizes,
    _draw_rates,
    _first_accepted,
    _inverse_from,
    _lifetime,
)

TG = TruncatedGaussian(0.0, 2.0, 0.7)


def measures_alone(cfg, stream, times):
    """The measures of the tree on ``stream``, expanded as a group of one."""
    return size_sim.group_measures(cfg, [stream], times)[0]


def cell_bases(seed, stream, n):
    """Draw bases of n cells, keyed 0..n-1, as simulate_tree derives them."""
    return cell_base(RngStream(seed, stream).base, np.arange(n, dtype=np.uint64))


def make_config(alpha=0.4, horizon=6.0, growth=None, split=None, kernel=None, **kw):
    law = AlphaFamily(TG, alpha) if alpha > 0.0 else Dirac(1.0)
    return SimConfig(
        division=kw.pop("division", SizeDivisionRate(1.0, 2.0, "unit_size")),
        growth=growth or Exponential(),
        split=split or Symmetric(),
        kernel=kernel or Memoryless(law),
        horizon=horizon,
        root_size=kw.pop("root_size", 2.0),
        root_rate=kw.pop("root_rate", FixedRate(1.0)),
        **kw,
    )


# --- division-size samplers ----------------------------------------------------


def division_size(div, x_b, u):
    """The simulator's inverse transform of one uniform u at birth size x_b."""
    return float(_inverse_from(div, np.asarray([x_b]), np.asarray([-math.log1p(-u)]))[0])


def test_division_size_closed_form():
    div = SizeDivisionRate(1.0, 2.0, "unit_size")
    for u in (0.0, 0.1, 0.5, 0.9, 0.999):
        e = -math.log1p(-u)
        expect = 1.0 + (3.0 * e + 1.0) ** (1.0 / 3.0)
        assert abs(division_size(div, 2.0, u) - expect) < 1e-12
    # birth below the hazard threshold: cumulative starts at x0
    for u in (0.3, 0.7):
        e = -math.log1p(-u)
        expect = 1.0 + (3.0 * e) ** (1.0 / 3.0)
        assert abs(division_size(div, 0.5, u) - expect) < 1e-12


@given(st.floats(0.0, 0.999999), st.floats(0.0, 0.999999))
@settings(deadline=None, max_examples=60)
def test_division_size_is_inverse_cdf(u1, u2):
    div = SizeDivisionRate(1.0, 1.5, "unit_size")
    s1 = division_size(div, 1.3, u1)
    s2 = division_size(div, 1.3, u2)
    assert s1 >= 1.3 - 1e-9 and s2 >= 1.3 - 1e-9
    if u1 < u2:
        assert s1 <= s2 + 1e-12
    # round trip through the cumulative hazard
    e = div.cumulative(s1) - div.cumulative(1.3)
    assert abs(e + math.log1p(-u1)) < 1e-9


@pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 3.7])
def test_inverse_from_matches_clipped_power(beta):
    # the head is powered only where x_b > x0; the clipped power of every
    # birth size, below, at and above x0, is the reference bit for bit
    div = SizeDivisionRate(1.0, beta, "unit_size")
    rng = np.random.default_rng(int(10 * beta))
    edge = [0.2, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.5]
    x_b = np.concatenate([edge, rng.uniform(0.1, 3.0, 500)])
    E = rng.exponential(size=x_b.size)
    bp1 = beta + 1.0
    expect = 1.0 + (bp1 * E + np.maximum(x_b - 1.0, 0.0) ** bp1) ** (1.0 / bp1)
    assert np.array_equal(_inverse_from(div, x_b, E), expect)
    assert np.array_equal(_inverse_from(div, x_b.reshape(5, -1), E.reshape(5, -1)), expect.reshape(5, -1))


def test_division_size_propagates_nan_birth_size():
    # the simulator's inverse: a NaN birth size gives a NaN division size
    # and leaves its neighbours alone
    div = SizeDivisionRate(1.0, 2.0, "unit_size")
    s = _inverse_from(div, np.asarray([0.5, math.nan, 1.5]), np.full(3, -math.log1p(-0.3)))
    assert math.isnan(s[1]) and np.isfinite(s[[0, 2]]).all()
    assert s[0] == division_size(div, 0.5, 0.3) and s[2] == division_size(div, 1.5, 0.3)


def test_unit_time_sampler_matches_quadrature_cdf():
    cfg = make_config(division=SizeDivisionRate(1.0, 2.0, "unit_time"))
    n = 20_000
    draws = np.sort(_division_sizes(cfg, cell_bases(11, 0, n), np.full(n, 2.0), np.ones(n)))
    # per-time hazard v x B(x) along exponential growth integrates to
    # int_xb^s B(y)/y dy independent of v
    prim = lambda y: 0.5 * y * y - 2.0 * y + np.log(y)
    cdf = 1.0 - np.exp(-(prim(draws) - prim(2.0)))
    i = np.arange(1, n + 1)
    ks = max(np.max(cdf - (i - 1) / n), np.max(i / n - cdf))
    assert ks < 0.02
    assert draws[0] >= 2.0


def test_lifetime_closed_forms():
    x_b, s, v = np.asarray([1.5, 1.5, 2.0]), np.asarray([3.0, 3.0, 2.0]), np.asarray([2.0, 0.5, 1.0])
    exp, lin = _lifetime(Exponential(), x_b, s, v), _lifetime(Linear(), x_b, s, v)
    assert abs(exp[0] - math.log(2.0) / 2.0) < 1e-15
    assert abs(lin[1] - 3.0) < 1e-15
    assert exp[2] == 0.0 and lin[2] == 0.0


def test_growth_laws_size_at():
    assert abs(Exponential().size_at(2.0, 0.5, 3.0) - 2.0 * math.exp(1.5)) < 1e-14
    assert Linear().size_at(2.0, 0.5, 3.0) == 3.5


def test_sample_growth_rate_kernels():
    law = TG.contract(0.5)
    vs = _child_rates(Memoryless(law), cell_bases(3, 0, 2000), np.full(2000, 1.4))
    lo, hi = law.support
    assert np.all((lo <= vs) & (vs <= hi))
    assert abs(np.mean(vs) - 1.0) < 0.02
    # autoregressive pull toward the parent
    child = _child_rates(AutoRegressive(law, 0.9), cell_bases(3, 1, 500), np.full(500, 1.4))
    assert abs(np.mean(child) - (0.9 * 1.4 + 0.1 * 1.0)) < 0.02


# --- rejection loops: per-attempt references, budgets, pass counts ---------------


def per_attempt_thinning(div, bases, x_b, v, reanchor=math.inf):
    """Thinning one attempt per loop iteration, the reference for the blocked
    sampler; returns the division sizes and each cell's accepted attempt.
    From attempt ``reanchor`` on, each attempt first moves a cell's envelope
    to its last candidate."""
    n = bases.size
    cum = div.cumulative(x_b)
    xb, step = x_b.copy(), v * x_b
    out = np.empty(n)
    first = np.full(n, -1)
    alive = np.arange(n)
    k = 0
    while alive.size:
        if k >= reanchor:
            xb[alive] = div.inverse_cumulative(cum[alive])
            step[alive] = v[alive] * xb[alive]
        cnt = np.full(alive.size, _DOM_SIZE + 2 * k, dtype=np.uint64)
        E = -np.log(open_uniforms_at(bases[alive], cnt))
        cum[alive] = cum[alive] + step[alive] * E
        cand = div.inverse_cumulative(cum[alive])
        accept = uniforms_at(bases[alive], cnt + np.uint64(1)) * cand < xb[alive]
        out[alive[accept]] = cand[accept]
        first[alive[accept]] = k
        alive = alive[~accept]
        k += 1
    return out, first


def per_attempt_rates(law, bases):
    """Truncated-Gaussian rates one attempt per loop iteration; returns the
    rates and each cell's accepted attempt."""
    lo, hi = law.support
    out = np.empty(bases.size)
    first = np.full(bases.size, -1)
    alive = np.arange(bases.size)
    attempt = 0
    while alive.size:
        u = open_uniforms_at(bases[alive], np.full(alive.size, _DOM_RATE + attempt, dtype=np.uint64))
        v = law.mean + law.sigma_eta * ndtri(u)
        ok = (v >= lo) & (v <= hi)
        out[alive[ok]] = v[ok]
        first[alive[ok]] = attempt
        alive = alive[~ok]
        attempt += 1
    return out, first


def thinning_inputs(seed, n_typical, n_small, small):
    """Birth sizes around x0 plus a few far below it, whose cells need
    hundreds of attempts; rates in [0.3, 2.5]."""
    rng = np.random.default_rng(seed)
    x_b = np.concatenate([rng.uniform(0.3, 3.0, n_typical), small * rng.uniform(1.0, 2.0, n_small)])
    rng.shuffle(x_b)
    return cell_bases(seed, 1, x_b.size), x_b, rng.uniform(0.3, 2.5, x_b.size)


@given(
    st.integers(0, 2**31 - 1),
    st.integers(0, 400),
    st.integers(1, 6),
    st.floats(0.02, 0.1),
    st.sampled_from([(1.0, 2.0), (0.5, 3.0), (1.0, 1.0)]),
)
@example(seed=3, n_typical=400, n_small=2, small=0.02, shape=(1.0, 2.0))
# one cell: every pass draws a single attempt
@example(seed=4, n_typical=0, n_small=1, small=0.05, shape=(1.0, 2.0))
# typical cells only: most accept on attempt 0
@example(seed=5, n_typical=400, n_small=0, small=0.05, shape=(1.0, 2.0))
@settings(deadline=None, max_examples=30)
def test_thinning_blocks_match_per_attempt_loop(seed, n_typical, n_small, small, shape):
    div = SizeDivisionRate(*shape, "unit_time")
    bases, x_b, v = thinning_inputs(seed, n_typical, n_small, small)
    expect, _ = per_attempt_thinning(div, bases, x_b, v)
    assert np.array_equal(_division_sizes(make_config(division=div), bases, x_b, v), expect)


@pytest.mark.parametrize("beta", [0.0, 2.0])
def test_reanchored_thinning_matches_per_attempt_loop(beta, monkeypatch):
    # past attempt 3 every pass is one attempt on an envelope that follows
    # each cell's last candidate
    monkeypatch.setattr(size_sim, "_THINNING_REANCHOR", 3)
    div = SizeDivisionRate(1.0, beta, "unit_time")
    bases, x_b, v = thinning_inputs(5, 300, 3, 0.03)
    expect, first = per_attempt_thinning(div, bases, x_b, v, reanchor=3)
    assert np.count_nonzero(first >= 3) >= 3
    assert np.array_equal(_division_sizes(make_config(division=div), bases, x_b, v), expect)


def test_first_accepted_takes_each_cells_first_accepted_attempt():
    # attempt-major blocks: a row per attempt, a column per cell; the third
    # cell accepts no attempt
    accept = np.array([[False, True, False, False], [True, True, False, False], [False, False, False, True]])
    values = np.arange(12.0).reshape(3, 4)
    hit, first = _first_accepted(accept, values)
    assert hit.tolist() == [True, True, False, True]
    assert first.tolist() == [4.0, 1.0, 11.0]
    hit, first = _first_accepted(accept[:1], values[:1])  # K = 1
    assert hit.tolist() == [False, True, False, False]
    assert first.tolist() == [1.0]
    hit, first = _first_accepted(accept[:, 2:3], values[:, 2:3])
    assert hit.tolist() == [False] and first.size == 0


@pytest.mark.parametrize(
    "atoms, last",
    [
        ([(0.5, 0.7), (1.0, 0.2), (1.5, 0.1)], 1.5),  # weights sum to 1 - 2^-53
        ([(0.5, 0.5), (1.5, 0.5 - 1e-12)], 1.5),
        ([(0.5, 0.5), (1.5, 0.5 - 1e-12), (2.0, 0.0)], 1.5),
    ],
    ids=["rounded", "short", "short-zero-tail"],
)
def test_mixture_draw_past_the_weight_sum_takes_the_last_atom(atoms, last, monkeypatch):
    # the largest uniform lies at or past the weights' rounded cumsum
    law = DiscreteMixture(atoms)
    top = 1.0 - 2.0**-53
    assert np.cumsum([w for _, w in law.atoms])[-1] <= top
    monkeypatch.setattr(size_sim, "uniforms_at", lambda bases, counter: np.full(bases.shape, top))
    assert np.array_equal(_draw_rates(law, cell_bases(1, 0, 3)), np.full(3, last))


@given(st.integers(0, 2**31 - 1), st.integers(1, 500), st.floats(0.05, 0.5), st.floats(0.5, 2.0))
@settings(deadline=None, max_examples=30)
def test_rate_redraws_match_per_attempt_loop(seed, n, width, sigma):
    # the window keeps 2-30% of the Gaussian: most first draws are rejected
    law = TruncatedGaussian(1.0 - 0.5 * width, 1.0 + 0.5 * width, sigma)
    bases = cell_bases(seed, 2, n)
    expect, _ = per_attempt_rates(law, bases)
    assert np.array_equal(_draw_rates(law, bases), expect)


def test_thinning_budget_edge(monkeypatch):
    div = SizeDivisionRate(1.0, 2.0, "unit_time")
    bases, x_b, v = thinning_inputs(5, 300, 3, 0.03)
    expect, first = per_attempt_thinning(div, bases, x_b, v)
    budget = int(first.max())  # the last cell is accepted at attempt index `budget`
    assert budget > 64 and budget % 64 and np.count_nonzero(first == budget) == 1
    monkeypatch.setattr(size_sim, "_THINNING_BUDGET", budget)
    with pytest.raises(RuntimeError, match="thinning budget exhausted for 1 cells"):
        _division_sizes(make_config(division=div), bases, x_b, v)
    monkeypatch.setattr(size_sim, "_THINNING_BUDGET", budget + 1)
    assert np.array_equal(_division_sizes(make_config(division=div), bases, x_b, v), expect)


@pytest.mark.parametrize("beta", [0.0, 2.0])
@pytest.mark.parametrize("reanchor", [0, 3])
def test_thinning_past_its_birth_size_envelope_keeps_the_division_law(beta, reanchor, monkeypatch):
    # the probability integral transform of each division size, through the
    # exact hazard B(s)/(v s) per unit size from max(x_b, x0) with x0 = 1,
    # is uniform whether the envelope follows the candidate from the first
    # attempt or from the fourth
    monkeypatch.setattr(size_sim, "_THINNING_REANCHOR", reanchor)
    rng = np.random.default_rng(11)
    n = 4000
    x_b, v = rng.uniform(0.3, 3.0, n), rng.uniform(0.5, 2.0, n)
    s = _division_sizes(make_config(division=SizeDivisionRate(1.0, beta, "unit_time")), cell_bases(11, 4, n), x_b, v)
    G = np.log if beta == 0.0 else (lambda x: x * x / 2.0 - 2.0 * x + np.log(x))  # integral of (x - 1)^beta / x
    u = -np.expm1(-(G(s) - G(np.maximum(x_b, 1.0))) / v)
    assert stats.kstest(u, "uniform").pvalue > 0.01


def test_thinning_draws_the_same_attempts(monkeypatch):
    # pinned pass sizes, 1533 attempts in all: blocks of one attempt and
    # longer blocks draw exactly these attempts, no spare one
    calls = []

    def counting(base, counters):
        u = open_uniforms_at(base, counters)
        calls.append(u.size)
        return u

    monkeypatch.setattr(size_sim, "open_uniforms_at", counting)
    bases, x_b, v = thinning_inputs(5, 300, 3, 0.03)
    _division_sizes(make_config(division=SizeDivisionRate(1.0, 2.0, "unit_time")), bases, x_b, v)
    assert calls == [303, 272, 248, 286, 296, 64, 64]


def test_rate_budget_edge(monkeypatch):
    law = TruncatedGaussian(0.95, 1.05, 1.0)
    bases = cell_bases(6, 0, 200)
    expect, first = per_attempt_rates(law, bases)
    budget = int(first.max())
    assert budget > 1 and np.count_nonzero(first == budget) == 1
    monkeypatch.setattr(size_sim, "_RATE_BUDGET", budget)
    with pytest.raises(RuntimeError, match="rate rejection budget exhausted for 1 cells"):
        _draw_rates(law, bases)
    monkeypatch.setattr(size_sim, "_RATE_BUDGET", budget + 1)
    assert np.array_equal(_draw_rates(law, bases), expect)


def test_redraw_budget_edge(monkeypatch):
    # zero uniforms never occur in practice: cells with an even base draw
    # zero on their first 5 attempts, so attempt index 5 is their first valid one
    def zero_first_five(base, counters):
        u = uniforms_at(base, counters)
        early = np.asarray(counters, dtype=np.uint64) < np.uint64(_DOM_SIZE + 5)
        return np.where(early & (base % np.uint64(2) == 0), 0.0, u)

    div = SizeDivisionRate(1.0, 2.0, "unit_size")
    bases = cell_bases(7, 0, 50)
    x_b = np.full(50, 1.5)
    even = bases % np.uint64(2) == 0
    assert 0 < np.count_nonzero(even) < 50
    u = np.where(even, uniforms_at(bases, np.uint64(_DOM_SIZE + 5)), uniforms_at(bases, np.uint64(_DOM_SIZE)))
    monkeypatch.setattr(size_sim, "uniforms_at", zero_first_five)
    monkeypatch.setattr(size_sim, "_REDRAW_BUDGET", 5)
    # both inverse transforms: per unit size, and per unit time under linear growth
    for cfg in (make_config(division=div), make_config(division=SizeDivisionRate(1.0, 2.0, "unit_time"), growth=Linear())):
        with pytest.raises(RuntimeError, match="division-size resampling budget exhausted"):
            _division_sizes(cfg, bases, x_b, np.ones(50))
    monkeypatch.setattr(size_sim, "_REDRAW_BUDGET", 6)
    got = _division_sizes(make_config(division=div), bases, x_b, np.ones(50))
    E = -np.log1p(-u)
    assert np.array_equal(got, 1.0 + (3.0 * E + np.maximum(x_b - 1.0, 0.0) ** 3.0) ** (1.0 / 3.0))


def test_thinning_passes_stay_few(monkeypatch):
    # structural speed guard, no timing: each pass draws a block of attempts
    # for every cell not yet accepted, so birth sizes far below x0 cost a
    # few passes, where one attempt per pass takes 293
    calls = []

    def counting(base, counters):
        u = open_uniforms_at(base, counters)
        calls.append(u.size)
        return u

    monkeypatch.setattr(size_sim, "open_uniforms_at", counting)
    n = 1000
    div = SizeDivisionRate(1.0, 2.0, "unit_time")
    _division_sizes(make_config(division=div), cell_bases(1, 0, n), np.geomspace(0.05, 2.0, n), np.ones(n))
    assert len(calls) <= 24
    assert calls[0] == n and max(calls) <= n  # a block never outgrows the frontier


def test_rate_redraw_passes_stay_few(monkeypatch):
    # structural speed guard, no timing: a window keeping ~4% of the
    # Gaussian; each pass draws a block of attempts for every cell not yet
    # accepted, where one attempt per pass takes 247 passes
    calls = []

    def counting(base, counters):
        u = open_uniforms_at(base, counters)
        calls.append(u.size)
        return u

    monkeypatch.setattr(size_sim, "open_uniforms_at", counting)
    n = 1000
    law = TruncatedGaussian(0.95, 1.05, 1.0)
    bases = cell_bases(4, 0, n)
    _, first = per_attempt_rates(law, bases)
    calls.clear()
    _draw_rates(law, bases)
    assert first.max() == 246
    assert len(calls) <= 40
    assert calls[0] == n and max(calls) <= n  # a block never outgrows the frontier


def test_rate_draws_per_cell_stay_few(monkeypatch):
    # structural speed guard, no timing: the window keeps 84.7% of the
    # Gaussian, so one attempt per pass would draw 1/0.847 = 1.18 uniforms
    # per cell; blocks capped at the observed acceptance draw 1.31 here,
    # blocks sized from the frontier alone drew 1.90
    draws = []

    def counting(base, counters):
        u = open_uniforms_at(base, counters)
        draws.append(u.size)
        return u

    monkeypatch.setattr(size_sim, "open_uniforms_at", counting)
    n = 10_000
    _draw_rates(TG.contract(0.5), cell_bases(5, 0, n))
    assert sum(draws) <= 1.35 * n


# --- whole-tree invariants -------------------------------------------------------


def _children_of(tree):
    counts = np.bincount(tree.parent[1:], minlength=len(tree))
    return counts


def test_mass_conservation_bit_exact():
    for split in (Symmetric(), UniformAsymmetric(0.1)):
        tree = simulate_tree(make_config(split=split, horizon=7.0), RngStream(9, 2))
        counts = _children_of(tree)
        assert set(np.unique(counts)) <= {0, 2}
        sums = np.zeros(len(tree))
        np.add.at(sums, tree.parent[1:], tree.xi[1:])
        divided = counts == 2
        assert np.array_equal(sums[divided], tree.division_size[divided])


def test_symmetric_split_gives_exact_halves():
    tree = simulate_tree(make_config(horizon=6.0), RngStream(1, 0))
    nz = tree.parent[1:]
    assert np.array_equal(tree.xi[1:], 0.5 * tree.division_size[nz])


def test_asymmetric_fractions_stay_in_window():
    eps = 0.2
    tree = simulate_tree(make_config(split=UniformAsymmetric(eps), horizon=7.0), RngStream(4, 1))
    frac = tree.xi[1:] / tree.division_size[tree.parent[1:]]
    assert frac.min() >= eps - 1e-12 and frac.max() <= 1.0 - eps + 1e-12
    assert frac.max() > 0.5 > frac.min()


def test_genealogy_invariants():
    tree = simulate_tree(make_config(horizon=6.5), RngStream(12, 5))
    assert np.all(tree.d == tree.b + tree.zeta)
    assert np.all(tree.zeta > 0.0)
    assert np.array_equal(tree.b[1:], tree.d[tree.parent[1:]])
    paths = tree.paths().tolist()
    assert paths[0] == b"" and tree.parent[0] == -1
    for i in range(1, len(paths)):
        assert paths[i] == paths[tree.parent[i]] + str(int(tree.bit[i])).encode()
    assert len(set(paths)) == len(paths)


def test_exponential_symmetric_child_size_identity():
    tree = simulate_tree(make_config(horizon=6.0), RngStream(2, 3))
    p = tree.parent[1:]
    expect = 0.5 * tree.xi[p] * np.exp(tree.tau[p] * tree.zeta[p])
    assert np.allclose(tree.xi[1:], expect, rtol=1e-12, atol=0.0)


def test_memoryless_rates_uncorrelated_with_parent():
    tree = simulate_tree(make_config(alpha=0.8, horizon=9.5), RngStream(21, 0))
    child = tree.tau[1:]
    parent = tree.tau[tree.parent[1:]]
    assert child.size > 3000
    r = stats.spearmanr(parent, child).statistic
    assert abs(r) < 0.03


def test_autoregressive_rates_track_parent():
    law = AlphaFamily(TG, 0.8)
    cfg = make_config(alpha=0.8, horizon=7.5, kernel=AutoRegressive(law, 0.6))
    tree = simulate_tree(cfg, RngStream(21, 1))
    child = tree.tau[1:]
    parent = tree.tau[tree.parent[1:]]
    r = stats.pearsonr(parent, child).statistic
    assert 0.45 < r < 0.75


def test_rate_dispersion_matches_contraction():
    tree = simulate_tree(make_config(alpha=0.5, horizon=7.5), RngStream(8, 0))
    rates = tree.tau[1:]  # root rate is pinned, skip it
    cv = rates.std() / rates.mean()
    assert abs(cv - 0.5 * TG_CV) < 0.02


def test_determinism_and_stream_separation():
    cfg = make_config(horizon=6.0)
    t1 = simulate_tree(cfg, RngStream(30, 4))
    t2 = simulate_tree(cfg, RngStream(30, 4))
    assert len(t1) == len(t2)
    for name in ("parent", "bit", "b", "zeta", "xi", "tau", "d", "division_size"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name))
    t3 = simulate_tree(cfg, RngStream(30, 5))
    assert len(t3) != len(t1) or not np.array_equal(t3.zeta, t1.zeta)


def test_horizon_prefix_property():
    # a shorter-horizon run is exactly the early part of a longer one
    short = simulate_tree(make_config(horizon=5.0), RngStream(17, 6))
    long = simulate_tree(make_config(horizon=8.0), RngStream(17, 6))

    def marks(tree):
        columns = zip(tree.b.tolist(), tree.zeta.tolist(), tree.xi.tolist(), tree.tau.tolist())
        return {path: c for path, c in zip(tree.paths().tolist(), columns) if c[0] <= 5.0}

    marks_short, marks_long = marks(short), marks(long)
    assert len(marks_short) == len(short)
    assert marks_short == marks_long


def test_unit_time_mode_tree_runs():
    cfg = make_config(horizon=5.0, division=SizeDivisionRate(1.0, 2.0, "unit_time"))
    tree = simulate_tree(cfg, RngStream(5, 0))
    assert len(tree) > 10
    assert np.all(tree.division_size >= tree.xi)


def test_linear_growth_tree_runs():
    tree = simulate_tree(make_config(alpha=0.0, horizon=10.0, growth=Linear()), RngStream(5, 1))
    assert len(tree) > 50
    assert np.all(tree.division_size > 1.0)


def test_root_rate_from_kernel():
    cfg = make_config(alpha=0.6, horizon=3.0, root_rate=DrawnFromKernel())
    roots = {simulate_tree(cfg, RngStream(40, k)).tau[0] for k in range(6)}
    assert len(roots) > 1
    law = AlphaFamily(TG, 0.6).law()
    assert all(law.support[0] <= r <= law.support[1] for r in roots)


def test_cell_cap_raises():
    cfg = make_config(horizon=12.0, max_cells=500)
    with pytest.raises(RuntimeError, match="horizon too large"):
        simulate_tree(cfg, RngStream(1, 1))


def test_paths_match_parent_walk():
    tree = simulate_tree(make_config(split=UniformAsymmetric(0.1), horizon=6.0), RngStream(14, 2))

    def walk(i):
        bits = []
        while i > 0:
            bits.append(str(int(tree.bit[i])))
            i = int(tree.parent[i])
        return "".join(reversed(bits)).encode()

    paths = tree.paths()
    assert paths.size == len(tree) and paths[0] == b""
    assert paths.tolist() == [walk(i) for i in range(len(tree))]


@st.composite
def any_config(draw):
    mode = draw(st.sampled_from(["unit_size", "unit_time"]))
    law = AlphaFamily(TG, draw(st.floats(0.05, 1.0)))
    theta = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    return make_config(
        horizon=draw(st.floats(1.0, 6.0)),
        division=SizeDivisionRate(1.0, draw(st.sampled_from([0.0, 0.5, 2.0])), mode),
        growth=draw(st.sampled_from([Exponential(), Linear()])),
        split=draw(st.sampled_from([Symmetric(), UniformAsymmetric(0.2)])),
        kernel=Memoryless(law) if theta is None else AutoRegressive(law, theta),
    )


@given(any_config(), st.integers(0, 2**31 - 1), st.integers(0, 2**20))
@settings(deadline=None, max_examples=40)
def test_streamed_measures_equal_stored_tree(cfg, seed, pick):
    # the same living sizes, summed once in breadth-first order: bit for bit
    tree = simulate_tree(cfg, RngStream(seed, 3))
    divided = np.sort(tree.d[tree.d < cfg.horizon])
    times = [0.0, cfg.horizon, 0.5 * cfg.horizon]
    if divided.size:
        times.append(float(divided[pick % divided.size]))  # daughters alive, mother not
    got = measures_alone(cfg, RngStream(seed, 3), times)
    assert got == [(biomass_at(tree, t), tree.living_count(t)) for t in times]


def test_trees_match_golden_values():
    # per-tree measures and every stored column, as recorded before the
    # frontier's array passes were cut, over modes, betas, growth laws,
    # splits, kernels and root rates
    digest = hashlib.sha256()
    got = {}
    for i, (label, cfg) in enumerate(golden_trees.grid()):
        tree = simulate_tree(cfg, RngStream(golden_trees.SEED, i))
        for name in golden_trees.COLUMNS:
            digest.update(getattr(tree, name).tobytes())
        got[label] = repr(tuple(measures_alone(cfg, RngStream(golden_trees.SEED, i), golden_trees.TIMES)))
    assert got == {label: repr(v) for label, v in golden_trees.MEASURES.items()}
    assert digest.hexdigest() == golden_trees.COLUMNS_SHA256


def test_streamed_measures_reject_times_past_the_tree():
    cfg = make_config(horizon=4.0)
    for t in (-0.5, 4.5):
        with pytest.raises(ValueError, match="horizon"):
            measures_alone(cfg, RngStream(1, 0), [1.0, t])
        with pytest.raises(ValueError, match="horizon"):
            simulate_tree(cfg, RngStream(1, 0)).living_mask(t)


def test_measures_reject_nan_times():
    cfg = make_config(horizon=4.0)
    tree = simulate_tree(cfg, RngStream(1, 0))
    calls = [
        lambda: biomass_at(tree, math.nan),
        lambda: tree.living_mask(math.nan),
        lambda: tree.living_count(math.nan),
        lambda: tree.sizes_at(math.nan),
        lambda: measures_alone(cfg, RngStream(1, 0), [math.nan, 4.0]),
        lambda: size_sim.group_measures(cfg, [RngStream(1, 0), RngStream(1, 1)], [2.0, math.nan]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="horizon"):
            call()


def test_streamed_measures_hold_frontier_not_tree():
    # the reduction keeps one generation and the living sizes at the
    # requested times, never the tree: its peak allocation is bounded by
    # bytes per cell of the largest generation plus bytes per kept size,
    # a bound fixed from that accounting and far below the 57 B per cell
    # a stored tree holds (linear growth spreads the generations wide)
    cfg = make_config(
        alpha=0.0, horizon=12.0, growth=Linear(), kernel=Memoryless(UniformLaw(0.1, 1.9)),
        division=SizeDivisionRate(0.0, 0.0, "unit_size"),
    )
    times = [cfg.horizon, 0.5 * cfg.horizon]
    tree = simulate_tree(cfg, RngStream(3, 0))
    frontier = int(np.bincount(np.char.str_len(tree.paths())).max())
    kept = sum(tree.living_count(t) for t in times)
    bound = 400 * frontier + 16 * kept + (256 << 10)
    assert bound < 57 * len(tree)  # storing the tree would break the bound
    del tree
    tracemalloc.start()
    try:
        measures_alone(cfg, RngStream(3, 0), times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize("split", [False, True], ids=["shared", "split"])
@given(any_config(), st.integers(0, 2**31 - 1), st.lists(st.integers(0, 2**20), min_size=1, max_size=5), st.integers(1, 200))
# under beta = 0 a cell of this tree needs more than 10^5 thinning
# attempts on its birth-size envelope
@example(
    cfg=make_config(1.0, 2.0, division=SizeDivisionRate(1.0, 0.0, "unit_time")), seed=913, streams=[1067], bound=1
)
@settings(deadline=None, max_examples=30)
def test_group_measures_equal_trees_alone(split, cfg, seed, streams, bound):
    # a group never changes a tree's values, whether the trees share their
    # frontier to the end or split at a bound of a few cells
    times = [0.0, 0.5 * cfg.horizon, cfg.horizon]
    with pytest.MonkeyPatch.context() as mp:
        if split:
            mp.setattr(size_sim, "_GROUP_FRONTIER", bound)
        got = size_sim.group_measures(cfg, [RngStream(seed, k) for k in streams], times)
    assert got == [measures_alone(cfg, RngStream(seed, k), times) for k in streams]


def test_group_measures_equal_trees_alone_past_an_early_finish(monkeypatch):
    # the first tree completes while the group still shares its frontier,
    # and the group splits later: the first tree is summed first, then
    # each other tree from its shared and its own generations
    monkeypatch.setattr(size_sim, "_GROUP_FRONTIER", 20)
    cfg = make_config(alpha=0.9, horizon=4.0, root_rate=DrawnFromKernel())
    streams = [RngStream(1, k) for k in (59, 53, 52)]
    trees = [tree for tree, *_ in size_sim._generations(cfg, [s.base for s in streams])]
    shared = [tree for tree in trees if np.ndim(tree)]
    assert 0 in shared[0] and 0 not in shared[-1]  # complete while shared
    assert len(shared) < len(trees)  # and split later
    times = [0.0, 0.5 * cfg.horizon, cfg.horizon]
    got = size_sim.group_measures(cfg, streams, times)
    assert got == [measures_alone(cfg, s, times) for s in streams]
    for measures, stream in zip(got, streams):
        tree = simulate_tree(cfg, stream)
        assert measures == [(biomass_at(tree, t), tree.living_count(t)) for t in times]


def test_group_measures_keep_a_tree_with_no_living_cell():
    # at a horizon equal to its root's division time, a tree is one leaf
    # that is not living at the horizon: (0.0, 0) there, also in a group
    cfg = make_config(horizon=float(simulate_tree(make_config(), RngStream(2, 0)).d[0]))
    streams = [RngStream(2, k) for k in (0, 1)]
    trees = [simulate_tree(cfg, s) for s in streams]
    assert len(trees[0]) == 1 and trees[0].living_count(cfg.horizon) == 0
    times = [0.5 * cfg.horizon, cfg.horizon]
    got = size_sim.group_measures(cfg, streams, times)
    assert got == [[(biomass_at(tree, t), tree.living_count(t)) for t in times] for tree in trees]


def test_group_measures_of_no_trees_are_empty():
    assert size_sim.group_measures(make_config(), [], [1.0]) == []


def test_group_generations_hold_each_tree_in_its_own_order(monkeypatch):
    # restricted to one tree, the shared generations and then the tree's
    # own are the columns of the tree expanded alone, byte for byte; once
    # split, the trees continue one at a time, in index order
    monkeypatch.setattr(size_sim, "_GROUP_FRONTIER", 64)
    cfg = make_config(horizon=6.0, split=UniformAsymmetric(0.1), kernel=AutoRegressive(TG.contract(0.4), 0.5))
    streams = [RngStream(7, k) for k in (3, 0, 5)]
    columns = [[] for _ in streams]
    alone = []
    for tree, *generation in size_sim._generations(cfg, [s.base for s in streams]):
        if np.ndim(tree):
            assert not alone  # no shared generation after the split
            for i, own in enumerate(columns):
                own.append([c[tree == i] for c in generation])
        else:
            alone.append(tree)
            columns[tree].append(generation)
    assert alone == sorted(alone) and set(alone) == {0, 1, 2}
    names = ("b", "zeta", "xi", "tau", "d", "division_size")
    for stream, own in zip(streams, columns):
        tree = simulate_tree(cfg, stream)
        for name, parts in zip(names, zip(*own)):
            assert np.concatenate(parts).tobytes() == getattr(tree, name).tobytes()


def test_group_measures_hold_frontier_not_trees():
    # the accounting of test_streamed_measures_hold_frontier_not_tree, for
    # three trees that share their frontier: bytes per cell of the largest
    # generation, shared or not, and per kept size, which carries its
    # tree's index (one byte) and, while the shared sizes are split by
    # tree, a copy and an int64 sort order
    cfg = make_config(
        alpha=0.0, horizon=12.0, growth=Linear(), kernel=Memoryless(UniformLaw(0.1, 1.9)),
        division=SizeDivisionRate(0.0, 0.0, "unit_size"),
    )
    times = [cfg.horizon, 0.5 * cfg.horizon]
    streams = [RngStream(3, k) for k in range(3)]
    sizes = [np.size(g[1]) for g in size_sim._generations(cfg, [s.base for s in streams])]
    kept = sum(c for tree in size_sim.group_measures(cfg, streams, times) for _, c in tree)
    bound = 400 * max(sizes) + 40 * kept + (256 << 10)
    assert bound < 57 * sum(sizes)  # storing the trees would break the bound
    tracemalloc.start()
    try:
        size_sim.group_measures(cfg, streams, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_config_equality_tracks_content():
    a = make_config(horizon=6.0)
    b = make_config(horizon=6.5)
    assert a != b
    assert a == make_config(horizon=6.0)
    # an AlphaFamily kernel law is resolved once, on construction
    assert a.kernel.law == TG.contract(0.4)


def _numbers(value):
    """``value`` as a float, an np.float64 and, when integral, an int (and
    as -0.0 at zero): forms equal under ``==``."""
    forms = [float(value), np.float64(value)]
    if float(value).is_integer():
        forms.append(int(value))
    if value == 0:
        forms.append(-0.0)
    return st.sampled_from(forms)


@st.composite
def _equal_configs(draw):
    """Two configs of the same values, each number drawn in its own form."""
    pick = lambda *options: draw(st.sampled_from(options))
    x0, beta, mode = pick(0, 1, 1.5), pick(0, 0.5, 2), pick("unit_size", "unit_time")
    growth, split, kernel, law, root = pick(0, 1), pick(0, 1), pick(0, 1), pick(0, 1, 2, 3, 4), pick(0, 1)
    eps, theta, alpha, w = pick(0, 0.25), pick(0, 0.5, 1), pick(0.5, 1), pick(0.25, 0.5)
    horizon, root_size, rate, max_cells = pick(1, 6, 7.5), pick(0.5, 2), pick(1, 1.5), pick(1000, 10_000_000)

    def build():
        num = lambda v: draw(_numbers(v))
        rho = [
            lambda: Dirac(num(1)),
            lambda: UniformLaw(num(0), num(2)),
            lambda: TruncatedGaussian(num(0.5), num(1.5), num(0.5)),
            lambda: DiscreteMixture(((num(0.5), num(w)), (num(1.5), num(1 - w)))),
            lambda: AlphaFamily(TG, num(alpha)),
        ][law]()
        return SimConfig(
            SizeDivisionRate(num(x0), num(beta), mode),
            (Exponential(), Linear())[growth],
            Symmetric() if split == 0 else UniformAsymmetric(num(eps)),
            Memoryless(rho) if kernel == 0 else AutoRegressive(rho, num(theta)),
            horizon=num(horizon),
            root_size=num(root_size),
            root_rate=FixedRate(num(rate)) if root == 0 else DrawnFromKernel(),
            max_cells=num(max_cells),
        )

    return build(), build()


@given(_equal_configs())
@example((make_config(horizon=10), make_config(horizon=10.0)))
@example((make_config(division=SizeDivisionRate(np.float64(1.0))), make_config(division=SizeDivisionRate(1.0))))
@settings(deadline=None, max_examples=100)
def test_configs_of_equal_values_compare_equal(pair):
    a, b = pair
    assert a == b


def _nudged(obj):
    """Copies of ``obj`` that differ from it in exactly one number or
    string, however deep in its pieces that sits."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            for v in _nudged(getattr(obj, f.name)):
                yield dataclasses.replace(obj, **{f.name: v})
    elif isinstance(obj, tuple):
        for i, x in enumerate(obj):
            for v in _nudged(x):
                yield obj[:i] + (v,) + obj[i + 1:]
    elif isinstance(obj, str):
        yield {"unit_size": "unit_time", "unit_time": "unit_size"}[obj]
    elif isinstance(obj, int):
        yield obj + 1
    else:  # one ulp toward zero, or up from zero, stays valid
        yield float(np.nextafter(obj, 0.0 if obj > 0 else 1.0))


def test_config_inequality_sees_every_field():
    # every piece type crossed with every other, and each of their configs
    # with one number or string moved: all pairwise unequal
    # (max_cells moves to 2**53 + 1, which no float holds)
    laws = (Dirac(1.25), UniformLaw(0.5, 1.5), TruncatedGaussian(0.25, 1.75, 0.7), DiscreteMixture(((0.5, 0.25), (1.5, 0.75))))
    bases = [
        SimConfig(SizeDivisionRate(1.0, 2.0, "unit_time"), growth, split, kernel, horizon=6.0, root_rate=root, max_cells=2**53)
        for growth, split, kernel, root in itertools.product(
            (Exponential(), Linear()),
            (Symmetric(), UniformAsymmetric(0.2)),
            [Memoryless(law) for law in laws] + [AutoRegressive(law, 0.5) for law in laws],
            (FixedRate(1.5), DrawnFromKernel()),
        )
    ]
    configs = bases + [c for base in bases for c in _nudged(base)]
    assert all(c != base for base in bases for c in _nudged(base))
    assert len(configs) > 5 * len(bases)
    assert len(set(configs)) == len(configs)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(root_size=0.0)
    with pytest.raises(ValueError):
        make_config(horizon=-1.0)
    with pytest.raises(ValueError):
        SizeDivisionRate(1.0, 2.0, "per_day")
    with pytest.raises(ValueError):
        UniformAsymmetric(0.5)
    with pytest.raises(ValueError):
        AutoRegressive(TG, 1.5)


def test_config_rejects_a_nan_cell_budget():
    # no cell count exceeds NaN, so a NaN budget would turn the budget off
    with pytest.raises(ValueError, match="max_cells"):
        make_config(max_cells=math.nan)
    a, b = make_config(max_cells=1000.0), make_config(max_cells=1000)
    assert a == b


@pytest.mark.parametrize(
    "field, value",
    [
        ("horizon", "5"),
        ("horizon", True),
        ("root_size", None),
        ("root_size", np.bool_(True)),
        ("max_cells", "9"),
        ("max_cells", False),
    ],
    ids=["horizon-str", "horizon-bool", "root_size-none", "root_size-np-bool", "max_cells-str", "max_cells-bool"],
)
def test_config_rejects_a_number_of_another_type_naming_the_field(field, value):
    with pytest.raises(TypeError, match=rf"^{field} must be a real number; got {re.escape(repr(value))}$"):
        make_config(**{field: value})


@pytest.mark.parametrize(
    "piece, field, value",
    [
        (SizeDivisionRate, "x0", "1"),
        (SizeDivisionRate, "x0", True),
        (SizeDivisionRate, "beta", None),
        (FixedRate, "value", "1"),
        (UniformAsymmetric, "eps", np.bool_(False)),
        (functools.partial(AutoRegressive, TG), "theta", "0.5"),
    ],
    ids=["x0-str", "x0-bool", "beta-none", "value-str", "eps-np-bool", "theta-str"],
)
def test_model_pieces_reject_a_number_of_another_type_naming_the_field(piece, field, value):
    with pytest.raises(TypeError, match=rf"^{field} must be a real number; got {re.escape(repr(value))}$"):
        piece(**{field: value})


class _OtherLaw:
    """A rate law of a type the simulator does not sample."""

    mean, is_degenerate, support = 1.0, False, (0.5, 1.5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("division", (1.0, 2.0)),
        ("growth", "exp"),
        ("split", 0.2),
        ("kernel", UniformLaw(0.5, 1.5)),
        ("root_rate", 1.0),
        ("kernel.law", _OtherLaw()),
    ],
)
def test_config_rejects_a_piece_of_another_type_naming_the_field(field, value):
    # each would fail deep in the simulator, or (root_rate) silently draw
    # the root's rate from the kernel
    pieces = {"division": SizeDivisionRate(1.0, 2.0)}
    if field == "kernel.law":
        pieces["kernel"] = Memoryless(value)
    else:
        pieces[field] = value
    with pytest.raises(TypeError, match=rf"^{re.escape(field)} must be one of .+; got {re.escape(repr(value))}$"):
        SimConfig(**pieces)
