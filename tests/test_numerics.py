"""Quadrature, root solving, and the counter-based random stream."""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malthus.age_model import AlphaFamily, PowerLagRate, TruncatedGaussian, _resolvent_factory
from malthus.numerics import (
    DEFAULT_ROOT_TOL,
    NonConvergenceError,
    RngStream,
    Tolerance,
    cell_base,
    child_key,
    find_root_decreasing,
    integrate,
    open_uniforms_at,
    uniforms_at,
)
from malthus.numerics import _brent

TIGHT = Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=60)


def test_integrate_smooth():
    assert abs(integrate(np.sin, 0.0, math.pi, TIGHT) - 2.0) < 1e-12


def test_integrate_cubic_is_exact():
    # Simpson integrates cubics exactly even at the coarsest refinement
    val = integrate(lambda x: x**3 - 2.0 * x + 1.0, 0.0, 2.0, Tolerance(1e-6, 1e-6, 8))
    assert abs(val - 2.0) < 1e-13


def test_integrate_kink_split():
    exact = ((1.0 / 3.0) ** 2 + (2.0 / 3.0) ** 2) / 2.0
    val = integrate(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, TIGHT, kinks=(1.0 / 3.0,))
    assert abs(val - exact) < 1e-14


def test_integrate_rejects_empty_interval():
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 1.0, TIGHT)


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(deadline=None, max_examples=40)
def test_integrate_linear_in_integrand(c1, c2):
    tol = Tolerance(1e-11, 1e-11, 60)
    lhs = integrate(lambda x: c1 * np.exp(-x) + c2 * np.cos(x), 0.0, 2.0, tol)
    rhs = c1 * integrate(lambda x: np.exp(-x), 0.0, 2.0, tol) + c2 * integrate(np.cos, 0.0, 2.0, tol)
    assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(c1) + abs(c2))


def test_root_exponential():
    lam = find_root_decreasing(lambda l: 2.0 * math.exp(-l), 1.0, DEFAULT_ROOT_TOL)
    assert abs(lam - math.log(2.0)) < 1e-12


def test_root_certificate_brackets_answer():
    H = lambda l: 2.0 / (1.0 + l) ** 2
    lam = find_root_decreasing(H, 1.0, DEFAULT_ROOT_TOL)
    assert abs(lam - (math.sqrt(2.0) - 1.0)) < 1e-12
    eps = 1e-6
    assert H(lam - eps) > 1.0 > H(lam + eps)


def test_root_releases_the_resolvent():
    # a resolvent may hold large arrays; nothing may keep it alive after the
    # solve, not even until the next cyclic garbage collection
    class Resolvent:
        def __call__(self, lam):
            return 2.0 * math.exp(-lam)

    h = Resolvent()
    ref = weakref.ref(h)
    gc.disable()
    try:
        find_root_decreasing(h, 1.0, DEFAULT_ROOT_TOL)
        del h
        assert ref() is None
    finally:
        gc.enable()


def test_root_never_crossing_raises():
    with pytest.raises(NonConvergenceError):
        find_root_decreasing(lambda l: 1.5 + 1.0 / (1.0 + l), 1.0, DEFAULT_ROOT_TOL)


def counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


def brent_and_brentq(f, a, b, **kw):
    """(outcome, calls) of _brent and of scipy's brentq on one bracket; the
    outcome is the root or the exception type."""
    from scipy.optimize import brentq  # the oracle; the package never imports it

    out = []
    for solve in (lambda g: _brent(g, a, b, **kw), lambda g: brentq(g, a, b, **kw)):
        g = counted(f)
        try:
            out.append((solve(g), g.calls))
        except (ValueError, RuntimeError) as e:
            out.append((type(e), g.calls))
    return out


def resolvent_bracket(beta):
    """H - 1 of an age-model solve and its bracket, as find_root_decreasing
    doubles it."""
    H = _resolvent_factory(PowerLagRate(beta, 1.0), AlphaFamily(TruncatedGaussian(0.0, 2.0, 0.7), 0.5).law())
    lo, hi = 0.0, 1.0
    while H(hi) > 1.0:
        lo, hi = hi, 2.0 * hi
    return (lambda lam: H(lam) - 1.0), lo, hi


CLOSED_FORMS = [
    (lambda x: 2.0 * math.exp(-x) - 1.0, 0.0, 1.0),
    (lambda x: 2.0 / (1.0 + x) ** 2 - 1.0, 0.0, 1.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.tanh(50.0 * (x - 0.123)), 0.0, 4.0),
    (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),  # f(a) * f(b) underflows to -0
    (lambda x: (0.3 - x) ** 3, 0.0, 1.0),  # a triple root: the iterations run out
]


@pytest.mark.parametrize("beta", [0.0, 0.25, 2.0])
def test_brent_matches_brentq_on_resolvents(beta):
    f, lo, hi = resolvent_bracket(beta)
    kw = dict(xtol=1e-15 * max(1.0, hi), rtol=1e-15, maxiter=120)
    (x, calls), expect = brent_and_brentq(f, lo, hi, **kw)
    assert (x, calls) == expect and isinstance(x, float)


@pytest.mark.parametrize("case", range(len(CLOSED_FORMS)))
@pytest.mark.parametrize("kw", [dict(xtol=1e-15, rtol=1e-15, maxiter=100), dict(xtol=2e-12, rtol=8.9e-16, maxiter=100),
                                dict(xtol=1e-15, rtol=1e-15, maxiter=3)])
def test_brent_matches_brentq_on_closed_forms(case, kw):
    f, a, b = CLOSED_FORMS[case]
    got, expect = brent_and_brentq(f, a, b, **kw)
    assert got == expect


def test_brent_rejects_a_bracket_without_sign_change():
    assert brent_and_brentq(lambda x: x + 1.0, 0.0, 1.0, xtol=1e-12, rtol=1e-15, maxiter=50) == [(ValueError, 2)] * 2


def test_brent_exhaustion_falls_back_to_bisection():
    # the triple root exhausts Brent on the bracket [0, 1] that doubling finds
    h = lambda x: (0.3 - x) ** 3
    with pytest.raises(RuntimeError):
        _brent(h, 0.0, 1.0, xtol=1e-15, rtol=1e-15, maxiter=max(DEFAULT_ROOT_TOL.max_iter, 100))
    x = find_root_decreasing(h, 0.0, DEFAULT_ROOT_TOL)
    assert abs(h(x)) <= DEFAULT_ROOT_TOL.abs_tol


def unmemoized_root(h, tol=DEFAULT_ROOT_TOL):
    """(root, evaluations) of the solve of h = 0 without a memo: doubling,
    then _brent on the same bracket, then the residual check; root None
    where Brent raises or leaves too large a residual."""
    calls = []

    def f(x):
        calls.append(x)
        return float(h(x))

    f(0.0)
    lo, hi = 0.0, 1.0
    while f(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    try:
        x = _brent(f, lo, hi, xtol=1e-15 * max(1.0, hi), rtol=1e-15, maxiter=max(tol.max_iter, 100))
    except (ValueError, RuntimeError):
        return None, len(calls)
    return (x if abs(f(x)) <= tol.abs_tol else None), len(calls)


def decreasing(f):
    """f, or -f where f(0) < 0: a closed form with a root of h = 0 past h(0) > 0."""
    return f if f(0.0) > 0.0 else (lambda x: -f(x))


@pytest.mark.parametrize(
    "h",
    [resolvent_bracket(beta)[0] for beta in (0.0, 0.25, 2.0)] + [decreasing(f) for f, _, _ in CLOSED_FORMS],
    ids=[f"resolvent-beta{b:g}" for b in (0.0, 0.25, 2.0)] + [f"closed-form-{i}" for i in range(len(CLOSED_FORMS))],
)
def test_root_evaluates_no_abscissa_twice(h):
    seen = []

    def recorded(x):
        seen.append(x)
        return h(x)

    x = find_root_decreasing(recorded, 0.0, DEFAULT_ROOT_TOL)
    assert len(seen) == len(set(seen))
    expect, calls = unmemoized_root(h)
    if expect is None:  # Brent failed; bisection found the root
        assert abs(h(x)) <= DEFAULT_ROOT_TOL.abs_tol
    else:
        # the bracket ends and the certificate are the three repeats saved
        assert x == expect and len(seen) == calls - 3


def test_root_failure_chains_brents_exception():
    # NaN where Brent's first secant step lands; bisection stalls at its edge
    h = lambda x: math.nan if 0.4 < x < 0.6 else 1.0 - x
    with pytest.raises(NonConvergenceError) as info:
        find_root_decreasing(h, 0.5, DEFAULT_ROOT_TOL)
    assert isinstance(info.value.__cause__, ValueError)
    assert "NaN" in str(info.value)


def test_root_failure_states_brents_residual():
    # a step has no root: Brent converges to the jump, leaving residual 0.5
    with pytest.raises(NonConvergenceError, match=r"residual 0\.5\b") as info:
        find_root_decreasing(lambda x: 1.0 if x < 0.3 else 0.0, 0.5, DEFAULT_ROOT_TOL)
    assert info.value.__cause__ is None and abs(info.value.best - 0.3) < 1e-12


# --- random stream -----------------------------------------------------------


def _draws(seed, stream, n):
    return uniforms_at(RngStream(seed, stream).base, np.arange(n, dtype=np.uint64))


def test_stream_reproducible_and_distinct():
    assert np.array_equal(_draws(123, 7, 64), _draws(123, 7, 64))
    assert not np.array_equal(_draws(123, 8, 64), _draws(123, 7, 64))
    assert not np.array_equal(_draws(124, 7, 64), _draws(123, 7, 64))


@given(st.integers(0, 2**32), st.integers(0, 2**20), st.integers(0, 2**20))
@settings(deadline=None, max_examples=60)
def test_draws_are_pure_functions_of_position(seed, stream, skip):
    # reading draw k is independent of whether earlier draws were read
    skip %= 257
    tail = uniforms_at(RngStream(seed, stream).base, np.arange(skip, skip + 5, dtype=np.uint64))
    assert np.array_equal(tail, _draws(seed, stream, skip + 5)[skip:])


def test_uniform_ranges():
    u = _draws(5, 0, 10_000)
    assert np.all((0.0 <= u) & (u < 1.0))
    base = RngStream(5, 1).base
    v = open_uniforms_at(base, np.arange(10_000, dtype=np.uint64))
    assert np.all((0.0 < v) & (v < 1.0))
    # mean of that many uniforms should sit near 1/2
    assert abs(u.mean() - 0.5) < 0.02


def test_substream_keys_decorrelate():
    r = RngStream(42, 0)
    k0 = child_key(np.uint64(1), 0)
    k1 = child_key(np.uint64(1), 1)
    assert int(k0) != int(k1)
    counters = np.arange(8, dtype=np.uint64)
    s0 = uniforms_at(cell_base(r.base, k0), counters)
    s1 = uniforms_at(cell_base(r.base, k1), counters)
    assert not np.array_equal(s0, s1)


def test_counter_indexing_matches_stream():
    # a (cells x counters) block holds each cell's draws at those counters
    bases = cell_base(RngStream(77, 3).base, np.arange(4, dtype=np.uint64))
    counters = np.arange(6, dtype=np.uint64)
    block = uniforms_at(bases[:, None], counters)
    for i, b in enumerate(bases):
        assert np.array_equal(block[i], uniforms_at(b, counters))
        assert block[i, 5] == uniforms_at(b, np.uint64(5))
